"""Tests for the benchmark itself: generators, references, time limit, tracing.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import germlab  # noqa: E402
import germlab.cli  # noqa: E402
import germlab.invariants  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _hard(name: str) -> W.Germ:
    return next(g for g in W.hard_germs() if g.id == name)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_gives_identical_inputs_for_a_fixed_seed(name):
    build = W.WORKLOADS[name].build
    first = [r.describe for r in build(7)]
    assert first == [r.describe for r in build(7)]
    assert first != [r.describe for r in build(8)]


@pytest.mark.parametrize(
    "char, sequence",
    [
        ((2, (3,)), (2,)),
        ((3, (5,)), (3, 2)),
        ((8, (13,)), (8, 5, 3, 2)),
        ((4, (6, 7)), (4, 2, 2)),
        ((6, (9, 13)), (6, 3, 3, 3)),
    ],
)
def test_multiplicity_sequence_from_euclid(char, sequence):
    assert W.multiplicity_sequence(char) == sequence


def test_hard_germ_references_match_the_roadmap_table():
    table = {"B": (7, 2, 2, 2), "C": (9,), "D": (12,), "E": (5, 2, 2), "F": (4, 2, 2)}
    for name, sequence in table.items():
        germ = _hard(name)
        assert germ.expected.sequence == sequence
        assert germ.expected.milnor == sum(m * (m - 1) for m in sequence)
    assert _hard("A").expected.sequence is None


def test_dmin_formula_matches_the_program():
    assert [W.dmin_lower(m) for m in range(2, 40)] == [
        germlab.invariants.dmin_lower(m) for m in range(2, 40)
    ]


def _small_germs() -> list[W.Germ]:
    refs = W.References("mora")
    return [
        W.qh_germ(2, 3),
        W.qh_germ(5, 3),
        W.cusp_germ(4),
        W.sqh_germ(3, 4, {(2, 2): 1}, refs),
        W.sqh_germ(2, 5, {(1, 3): -3, (2, 2): -2, (1, 4): -2}, refs),
        W.reducible_germ(4, 3, refs),
        W.two_pair_germ(2, 3, 3, 10, refs),
        W.shear(W.reducible_germ(4, 3, refs), 2, -2),
    ]


def test_closed_forms_agree_with_the_program_on_small_germs():
    for germ in _small_germs():
        report = germlab.germ_report(germ.poly)
        expected = germ.expected
        assert (report.milnor, report.tjurina, report.multiplicity) == (
            expected.milnor, expected.tjurina, expected.multiplicity,
        ), germ.id
        assert report.multiplicity_sequence == expected.sequence, germ.id


def test_both_tau_pipelines_agree_on_normal_forms():
    for germ in _small_germs()[:-1]:
        poly = germ.poly
        assert W.References("oracle").tjurina(poly) == W.References("mora").tjurina(poly)


def test_expected_verdicts_match_the_program():
    germs = _small_germs()
    for left in germs:
        for right in germs:
            verdict = germlab.not_smoother(left.poly, right.poly)
            assert (verdict.verdict, list(verdict.reasons)) == W.expected_verdict(
                left.expected, right.expected
            )


def test_requests_pass_their_checks_and_checks_catch_wrong_answers():
    germ = _small_germs()[4]
    request = W.verify_request(germ)
    result = request.call()
    assert request.check(result) is None
    payload = json.loads(result.stdout)
    payload["law_checks"][0]["tau_before"] += 1
    wrong = W.CliResult(0, json.dumps(payload), "")
    assert "stage 0 tau" in request.check(wrong)
    oracle = W.oracle_request(germ)
    assert oracle.check(oracle.call()) is None


def test_timeout_on_a_hanging_germ_is_charged_to_localalg():
    outcome = run.run_request(W.analyze_request(_hard("F")), 0.3)
    assert (outcome.status, outcome.layer) == ("timeout", "localalg")


def test_traced_timeout_is_charged_to_the_innermost_open_span():
    with tracing.Tracer() as tracer:
        outcome = run.run_request(W.analyze_request(_hard("F")), 0.3)
    cut = {i: s for i, s in enumerate(tracer.spans) if s.raised}
    innermost = [s for i, s in cut.items() if all(c.parent != i for c in cut.values())]
    assert [s.name for s in innermost] == ["localalg.standard_basis"]
    assert outcome.layer == innermost[0].layer == "localalg"
    assert tracing.leftover_wrappers() == []


def test_trace_wrappers_are_removed_after_a_traced_pass():
    requests = [W.verify_request(g) for g in _small_germs()[:3]]
    with tracing.Tracer() as tracer:
        assert tracing.leftover_wrappers()
        run.run_pass(requests, 2.0, tracer)
    assert tracer.spans
    assert tracing.leftover_wrappers() == []
    assert germlab.cli.germ_report is germlab.invariants.germ_report
    assert germlab.invariants.milnor_number is germlab.localalg.milnor_number


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    germs = _small_germs()[:3]
    requests = [W.analyze_request(g) for g in germs] + [W.compare_request(*germs[:2])]
    monkeypatch.setitem(W.WORKLOADS, "tiny", W.Workload(lambda seed: requests, 5.0))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_metric(tiny_workload, capsys, trace, section):
    argv = ["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in run._spec()[section]]
    assert list(result["metrics"]) == names


def test_no_result_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "survey", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_end_to_end_takes_each_inputs_best_pass():
    def one_pass(times, statuses):
        outcomes = [run.Outcome(f"g{i}", "analyze", t, s) for i, (t, s) in
                    enumerate(zip(times, statuses))]
        return sum(times), outcomes

    ok = ["ok"] * 10
    passes = [
        one_pass([0.001 * (i + 1) for i in range(10)], ok),
        one_pass([0.002 * (i + 1) for i in range(9)] + [0.5], ok[:9] + ["timeout"]),
    ]
    values, extra = run.end_to_end(passes, setup_s=0.05)
    assert values["latency_p50_ms"] == pytest.approx(5.5)
    assert values["latency_tail_ms"] == pytest.approx(9.0)
    assert extra["requests_beyond_tail"] == 2
    assert values["requests_per_s"] == pytest.approx(19 / 2 / 0.055)
    assert values["answered_share"] == pytest.approx(19 / 20)
