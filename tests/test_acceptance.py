"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every check is exact integer arithmetic; there are no tolerances anywhere.
The corpus fixtures are computed once and shared across criteria.
"""

import json
import time
from math import gcd

import pytest

from germlab.cli import _parse_corpus, _read_corpus_text, main
from germlab.compare import NOT_SMOOTHER, not_smoother
from germlab.invariants import (
    claim_check_range,
    germ_report,
    ratio_check,
    resolution_law_checks,
    theorem_verify,
)
from germlab.localalg import (
    UNSTABLE,
    colength,
    colength_oracle,
    milnor_number,
    standard_basis,
)
from germlab.polynomials import parse_polynomial
from germlab.resolution import (
    PuiseuxCharacteristic,
    characteristic_from_sequence,
    delta_from_sequence,
    expected_sequence_from_characteristic,
    mu_topological,
    resolve_branch,
)

REFERENCE_CURVES = [
    ("x^11 + y^11 + x^6*y^6", 100, 84, -36),
    ("x^9 + y^9 + x^6*y^6", 64, 60, -48),
    ("x^13 + y^12 + x^6*y^7", 132, 108, -36),
    ("x^11 + y^10 + x^6*y^6", 90, 78, -42),
]


def _announce(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def branch_entries():
    """Parsed polynomial, report, and resolution for every bundled branch."""
    entries = _parse_corpus(_read_corpus_text("branches"))
    bundles = []
    for entry in entries:
        poly = parse_polynomial(entry.polynomial)
        bundles.append(
            {
                "id": entry.id,
                "poly": poly,
                "expected": entry.expected,
                "report": germ_report(poly),
                "resolution": resolve_branch(poly),
            }
        )
    return bundles


@pytest.fixture(scope="session")
def reference_entries():
    entries = _parse_corpus(_read_corpus_text("paper_examples"))
    return [
        {"id": e.id, "poly": parse_polynomial(e.polynomial), "expected": e.expected}
        for e in entries
    ]


def test_criterion_01_reference_values(capsys):
    ok = True
    details = []
    for src, mu, tau, monotone in REFERENCE_CURVES:
        start = time.perf_counter()
        code = main(["analyze", src, "--format", "json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        got = (payload["milnor"], payload["tjurina"], payload["monotone"])
        if code != 0 or got != (mu, tau, monotone) or elapsed >= 60.0:
            ok = False
        details.append(f"{src}: {got} in {elapsed:.2f}s")
    _announce(capsys, 1, "reference-values", ok)
    assert ok, details


def test_criterion_02_comparison_verdicts(capsys):
    pairs = [
        ("x^9 + y^9 + x^6*y^6", "x^11 + y^11 + x^6*y^6"),
        ("x^11 + y^10 + x^6*y^6", "x^13 + y^12 + x^6*y^7"),
    ]
    ok = True
    for candidate, base in pairs:
        verdict = not_smoother(parse_polynomial(candidate), parse_polynomial(base))
        if verdict.verdict != NOT_SMOOTHER:
            ok = False
        if not any("monotone" in reason for reason in verdict.reasons):
            ok = False
    _announce(capsys, 2, "comparison-verdicts", ok)
    assert ok


def test_criterion_03_dual_pipeline_milnor(capsys, branch_entries):
    ok = len(branch_entries) >= 20
    for bundle in branch_entries:
        mu = bundle["report"].milnor
        if not bundle["report"].is_branch:
            ok = False
        if mu != mu_topological(bundle["resolution"]):
            ok = False
        if mu % 2 != 0:
            ok = False
    _announce(capsys, 3, "dual-pipeline-milnor", ok)
    assert ok


def test_criterion_04_quasihomogeneous_closed_form(capsys, branch_entries):
    checked = 0
    ok = True
    for bundle in branch_entries:
        terms = bundle["poly"].terms
        if len(terms) != 2:
            continue
        exponents = sorted(terms)
        if exponents[0][0] != 0 or exponents[1][1] != 0:
            continue  # keep only two-term c1*x^a + c2*y^b shapes
        a, b = exponents[1][0], exponents[0][1]
        checked += 1
        expected = (a - 1) * (b - 1)
        if bundle["report"].milnor != expected or bundle["report"].tjurina != expected:
            ok = False
    ok = ok and checked >= 20
    _announce(capsys, 4, "quasihomogeneous-closed-form", ok)
    assert ok, checked


def test_criterion_05_per_blowup_laws(capsys, branch_entries):
    ok = True
    for bundle in branch_entries:
        checks = resolution_law_checks(bundle["poly"])
        if not checks:
            ok = False  # every corpus branch is singular
        if not all(check.all_ok for check in checks):
            ok = False
    _announce(capsys, 5, "per-blowup-laws", ok)
    assert ok


def test_criterion_06_theorem_chain(capsys, branch_entries):
    ok = True
    for bundle in branch_entries:
        chain = theorem_verify(bundle["poly"])
        if chain[-1] != 0:
            ok = False
        if any(value >= 0 for value in chain[:-1]):
            ok = False
        if any(u >= v for u, v in zip(chain, chain[1:])):
            ok = False
        if not ratio_check(bundle["report"]):
            ok = False
    _announce(capsys, 6, "theorem-chain", ok)
    assert ok


def test_criterion_07_claim_verification(capsys):
    start = time.perf_counter()
    result = claim_check_range(2, 10**6)
    elapsed = time.perf_counter() - start
    ok = result and elapsed < 5.0
    _announce(capsys, 7, "claim-verification", ok)
    assert ok, f"{result} in {elapsed:.2f}s"


def _all_characteristics(max_m=12, max_beta=60):
    found = []

    def extend(m, betas, e):
        if e == 1:
            found.append(PuiseuxCharacteristic(m, tuple(betas)))
            return
        low = betas[-1] + 1 if betas else m + 1
        for beta in range(low, max_beta + 1):
            if not betas and beta % m == 0:
                continue
            nxt = gcd(e, beta)
            if nxt < e:
                extend(m, betas + [beta], nxt)

    for m in range(2, max_m + 1):
        extend(m, [], m)
    return found


def test_criterion_08_characteristic_round_trip(capsys, branch_entries):
    characteristics = _all_characteristics()
    ok = len(characteristics) > 1000
    for char in characteristics:
        seq = expected_sequence_from_characteristic(char)
        if characteristic_from_sequence(seq) != char:
            ok = False
            break
    for bundle in branch_entries:
        char = characteristic_from_sequence(bundle["resolution"])
        seq = expected_sequence_from_characteristic(char)
        if 2 * sum(m * (m - 1) // 2 for m in seq) != bundle["report"].milnor:
            ok = False
    _announce(capsys, 8, "characteristic-round-trip", ok)
    assert ok, len(characteristics)


def _oracle_value(gens):
    cap = 12
    while cap <= 60:
        value = colength_oracle(gens, degree_cap=cap)
        if value is not UNSTABLE:
            return value
        cap += 6
    return UNSTABLE


def test_criterion_09_oracle_agreement(capsys, branch_entries, reference_entries):
    ok = True
    germs = [bundle["poly"] for bundle in branch_entries]
    germs += [entry["poly"] for entry in reference_entries]
    for poly in germs:
        aligned = poly.aligned()[0]
        gx, gy = aligned.partials()
        for gens in ([gx, gy], [aligned, gx, gy]):
            fast = colength(standard_basis(gens))
            slow = _oracle_value(gens)
            if slow is UNSTABLE or fast != slow:
                ok = False
    _announce(capsys, 9, "oracle-agreement", ok)
    assert ok


def test_criterion_10_determinism(capsys):
    ok = True
    for corpus in ("paper_examples", "branches"):
        outputs = []
        for jobs in ("1", "8"):
            code = main(["corpus", corpus, "--format", "json", "--jobs", jobs])
            outputs.append(capsys.readouterr().out)
            if code != 0:
                ok = False
        if outputs[0] != outputs[1] or not outputs[0]:
            ok = False
    _announce(capsys, 10, "determinism", ok)
    assert ok
