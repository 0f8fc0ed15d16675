"""End-to-end tests for the command-line interface."""

import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest
from conftest import time_limit

import germlab
from germlab import cli, compare, invariants, localalg, polynomials, resolution
from germlab.cli import main

EXPECTED_REPORT_KEYS = [
    "input",
    "multiplicity",
    "milnor",
    "tjurina",
    "monotone",
    "differential_gap",
    "is_branch",
    "delta",
    "puiseux_characteristic",
    "multiplicity_sequence",
    "law_checks",
    "theorem_chain",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze ---------------------------------------------------------------


def test_analyze_json_schema_and_values(capsys):
    code, out, _ = run(capsys, "analyze", "y^2 - x^3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == EXPECTED_REPORT_KEYS
    assert payload["input"] == "y^2 - x^3"
    assert payload["multiplicity"] == 2
    assert payload["milnor"] == 2
    assert payload["tjurina"] == 2
    assert payload["monotone"] == -2
    assert payload["differential_gap"] == "1"
    assert payload["is_branch"] is True
    assert payload["delta"] == 1
    assert payload["puiseux_characteristic"] == {"m": 2, "betas": [3]}
    assert payload["multiplicity_sequence"] == [2]
    assert payload["law_checks"] is None
    assert payload["theorem_chain"] is None


def test_analyze_reference_curve(capsys):
    code, out, _ = run(capsys, "analyze", "x^11+y^11+x^6*y^6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["milnor"] == 100
    assert payload["tjurina"] == 84
    assert payload["monotone"] == -36
    assert payload["is_branch"] is False
    assert payload["delta"] is None
    assert payload["puiseux_characteristic"] is None
    assert payload["multiplicity_sequence"] is None


def test_analyze_smooth(capsys):
    code, out, _ = run(capsys, "analyze", "x+y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["milnor"] == 0
    assert payload["monotone"] == 0


def test_analyze_table_default(capsys):
    code, out, _ = run(capsys, "analyze", "y^2 - x^3")
    assert code == 0
    assert "milnor" in out
    assert "(2; 3)" in out
    assert "{" not in out


def test_analyze_zero_polynomial(capsys):
    code, _, err = run(capsys, "analyze", "x*y - x*y")
    assert code == 2
    assert "ZeroPolynomial" in err


def test_analyze_not_a_germ(capsys):
    code, _, err = run(capsys, "analyze", "1 + x")
    assert code == 2
    assert "NotAGerm" in err


def test_analyze_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "x +")
    assert code == 2
    assert "error" in err


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="no integer-string limit below 5000 digits",
)
@pytest.mark.parametrize("text", ["1" * 5000 + " x", "x^" + "1" * 5000])
def test_analyze_overlong_integer_is_a_parse_error(capsys, text):
    code, out, err = run(capsys, "analyze", text)
    assert (code, out) == (2, "")
    assert err == "error: ParseError: integer of 5000 digits is too long to read\n"


def test_analyze_max_degree(capsys):
    code, _, err = run(capsys, "analyze", "x^20 + y^2", "--max-degree", "10")
    assert code == 2
    assert "DegreeCap" in err
    code, _, _ = run(capsys, "analyze", "x^20 + y^2", "--max-degree", "20")
    assert code == 0


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "analyze")[0] == 1
    assert run(capsys, "frobnicate", "x")[0] == 1
    assert run(capsys, "analyze", "x", "--format", "yaml")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# -- resolve ---------------------------------------------------------------


def test_resolve_cusp_json(capsys):
    code, out, _ = run(capsys, "resolve", "y^2-x^3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["steps"]) == 1
    assert payload["steps"][0]["multiplicity"] == 2
    assert payload["multiplicity_sequence"] == [2]
    assert payload["puiseux_characteristic"] == {"m": 2, "betas": [3]}
    assert payload["theorem_chain"] == [-2, 0]


def test_resolve_two_steps(capsys):
    code, out, _ = run(capsys, "resolve", "x^3+y^5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["steps"]) == 2
    assert payload["theorem_chain"] == [-8, -2, 0]


def test_resolve_table(capsys):
    code, out, _ = run(capsys, "resolve", "x^3+y^5")
    assert code == 0
    assert "step 1:" in out
    assert "step 2:" in out
    assert "theorem chain: [-8, -2, 0]" in out


def test_resolve_reducible_exit_two(capsys):
    code, _, err = run(capsys, "resolve", "y^2-x^2*y")
    assert code == 2
    assert "stage 1" in err


# -- verify ------------------------------------------------------------------


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "x^3+y^5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == EXPECTED_REPORT_KEYS
    assert payload["theorem_chain"] == [-8, -2, 0]
    assert len(payload["law_checks"]) == 2
    first = payload["law_checks"][0]
    assert first["stage"] == 0
    assert first["multiplicity"] == 3
    assert first["all_ok"] is True


def test_verify_table(capsys):
    code, out, _ = run(capsys, "verify", "y^2-x^3")
    assert code == 0
    assert "law check stage 0" in out
    assert "theorem chain: [-2, 0]" in out


def test_verify_answers_the_semi_quasihomogeneous_draw(capsys):
    # it hung on its first strict transform before mu's completion was cut
    text = "x^5 + 3 x^3*y^3 + y^7 + 2 x^4*y^4 + 2 x^3*y^6"
    with time_limit(4.0):
        code, out, _ = run(capsys, "verify", text, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem_chain"] == [-12, -4, -2, 0]
    checks = payload["law_checks"]
    assert all(check["all_ok"] for check in checks)
    pairs = [(c["mu_before"], c["tau_before"]) for c in checks]
    pairs.append((checks[-1]["mu_after"], checks[-1]["tau_after"]))
    f = polynomials.parse_polynomial(text)
    stages = [f] + [step.strict_transform for step in resolution.resolve_branch(f).steps]
    oracle = [
        (localalg.colength_oracle(g.partials(), 12),
         localalg.colength_oracle([g, *g.partials()], 12))
        for g in stages
    ]
    assert pairs == oracle == [(24, 21), (4, 4), (2, 2), (0, 0)]


def test_verify_reducible_exit_two(capsys):
    code, _, err = run(capsys, "verify", "x^11+y^11+x^6*y^6")
    assert code == 2
    assert "NotABranch" in err


# -- work done and error order ----------------------------------------------

THREE_BLOWUPS = "y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"
COUNTED = {
    "milnor_number": localalg.milnor_number,
    "tjurina_number": localalg.tjurina_number,
    "milnor_tjurina": localalg.milnor_tjurina,
    "_aligned_stages": resolution._aligned_stages,
}


def _counter(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of COUNTED through every name the package binds them to."""
    counts = dict.fromkeys(COUNTED, 0)
    for name, fn in COUNTED.items():
        counted = _counter(counts, name, fn)
        for module in (germlab, cli, compare, invariants, localalg, polynomials, resolution):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("verify", THREE_BLOWUPS), (0, 0, 4, 1)),
        (("resolve", THREE_BLOWUPS), (0, 0, 4, 1)),
        (("analyze", THREE_BLOWUPS), (0, 0, 1, 1)),
        (("compare", THREE_BLOWUPS, "y^2 - x^3"), (0, 0, 2, 2)),
    ],
)
def test_each_stage_is_computed_once(call_counts, capsys, argv, expected):
    # mu, tau, (mu, tau) together, the walk over the resolution's stages
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert tuple(call_counts.values()) == expected


@pytest.fixture
def shears(monkeypatch):
    """Every polynomial that align_tangent shears by a nonzero slope, once per shear."""
    sheared = []
    align = polynomials.Polynomial.align_tangent

    def counted(self, direction):
        if isinstance(direction, polynomials.Slope) and direction.t != 0:
            sheared.append(self)
        return align(self, direction)

    monkeypatch.setattr(polynomials.Polynomial, "align_tangent", counted)
    return sheared


# the corpus' s_b_4_6_7: sloped tangents at stages 0 and 2
S_B_4_6_7 = (
    "y^4 + 4 x*y^3 + 6 x^2*y^2 + 4 x^3*y + x^4 - 2 x^3*y^2 - 4 x^4*y - 2 x^5"
    " - 4 x^5*y - 3 x^6 - x^7"
)


def _sloped_branches():
    x, y = polynomials.X, polynomials.Y
    germ_d = (x**12 + y**13).substitute(x + y**2 + 2 * y, y + x**2 - x)
    rotated = polynomials.parse_polynomial("x^3 + y^7 + x*y^5").substitute_linear(
        ((1, -2), (-2, 1))
    )
    s_b_4_6_7 = polynomials.parse_polynomial(S_B_4_6_7)
    return [
        pytest.param(germ_d, 1, id="D"),
        pytest.param(rotated, 1, id="rotated"),
        pytest.param(s_b_4_6_7, 2, id="s_b_4_6_7"),
    ]


@pytest.mark.parametrize("f,sloped", _sloped_branches())
@pytest.mark.parametrize(
    "command", ["germ_report", "verify_branch", "blowup_law_check", "analyze", "verify", "resolve"]
)
def test_no_stage_is_sheared_twice(shears, capsys, f, sloped, command):
    if command in ("analyze", "verify", "resolve"):
        assert run(capsys, command, str(f))[0] == 0
    else:
        getattr(germlab, command)(f)
    # every command resolves f in full and shears each sloped stage once
    assert len(shears) == len(set(shears)) == sloped


@pytest.mark.parametrize(
    "argv,error",
    [
        (("analyze", "x^2*y^2"), "NonIsolatedSingularityError"),
        (("verify", "x^2*y^2"), "NonIsolatedSingularityError"),
        (("compare", "y^2 - x^3", "x^2*y^2"), "NonIsolatedSingularityError"),
        (("resolve", "x^2*y^2"), "NotABranchError"),
        (("analyze", "0"), "ZeroPolynomialError"),
        (("verify", "0"), "ZeroPolynomialError"),
        (("resolve", "0"), "NotAGermError"),
        (
            ("resolve", "y^4 - 2*x^3*y^2 + x^6"),
            "NonIsolatedSingularityError: not smooth after 15 blowups",
        ),
        (("verify", "y^2-x^2*y"), "NotABranchError: tangent cone splits at stage 1"),
    ],
)
def test_the_first_failing_check_names_the_error(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}")


# -- compare -----------------------------------------------------------------


def test_compare_reference_pairs(capsys):
    code, out, _ = run(
        capsys, "compare", "x^9+y^9+x^6*y^6", "x^11+y^11+x^6*y^6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NotSmoother"
    assert any("monotone" in r for r in payload["reasons"])

    code, out, _ = run(
        capsys, "compare", "x^11+y^10+x^6*y^6", "x^13+y^12+x^6*y^7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "NotSmoother"


def test_compare_identical_inconclusive(capsys):
    code, out, _ = run(capsys, "compare", "y^2-x^3", "y^2-x^3")
    assert code == 0
    assert "Inconclusive" in out


def test_compare_table_lists_reasons(capsys):
    code, out, _ = run(capsys, "compare", "x^3+y^5", "y^2-x^3")
    assert code == 0
    assert "verdict: NotSmoother" in out
    assert "reason:" in out


# -- corpus ------------------------------------------------------------------


def test_corpus_bundled_reference_set(capsys):
    code, out, _ = run(capsys, "corpus", "paper_examples")
    assert code == 0
    assert "4 entries, 0 errors, 0 mismatches" in out


def test_corpus_bundled_branches(capsys):
    code, out, _ = run(capsys, "corpus", "branches", "--jobs", "4")
    assert code == 0
    assert "0 errors, 0 mismatches" in out


def test_corpus_from_file(tmp_path, capsys):
    path = tmp_path / "small.corpus"
    path.write_text(
        "# comment line\n"
        "\n"
        "cusp\ty^2 - x^3\tmilnor=2,tjurina=2,monotone=-2\n"
        "plain\tx^3 + y^4\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "2 entries, 0 errors, 0 mismatches" in out


def test_corpus_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.corpus"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "0 entries" in out


def test_corpus_mismatch_exit_three(tmp_path, capsys):
    path = tmp_path / "bad.corpus"
    path.write_text("cusp\ty^2 - x^3\tmilnor=3\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 3
    assert "expected 3, got 2" in out


def test_corpus_domain_error_exit_two(tmp_path, capsys):
    # an erroring entry keeps its line number, and the entries around it answer
    path = tmp_path / "err.corpus"
    path.write_text("a\ty^2 - x^3\tmilnor=2\nb\tx^2*y\nc\tx^2 + y^3\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 2
    assert "ERROR" in out
    code, out, _ = run(capsys, "corpus", str(path), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert [e["error"] is None for e in payload["entries"]] == [True, False, True]
    assert payload["entries"][1]["error"] == "line 2: the critical locus is not isolated"
    assert [payload["entries"][i]["report"]["milnor"] for i in (0, 2)] == [2, 2]


def test_corpus_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "corpus", "no_such_corpus_anywhere")
    assert code == 2
    assert "no such corpus" in err


def test_corpus_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.corpus"
    path.write_bytes(b"a\t\xff\xfe x^2\n")
    code, out, err = run(capsys, "corpus", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: CorpusFormatError: {path}: not UTF-8 text")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("justonefield\n", "line 1"),
        ("a\tx\tmilnor=2\textra\n", "line 1"),
        ("a\t\tmilnor=2\n", "empty id or polynomial"),
        ("a\tx^2+y^3\tmilnor=2\na\ty^2-x^3\n", "duplicate id"),
        ("a\tx^2+y^3\tmystery=2\n", "unknown invariant"),
        ("a\tx^2+y^3\tmilnor=two\n", "expected an integer"),
        ("a\tx^2+y^3\tmilnor\n", "malformed expectation"),
    ],
)
def test_corpus_format_errors(tmp_path, capsys, line, fragment):
    path = tmp_path / "broken.corpus"
    path.write_text(line, encoding="utf-8")
    code, _, err = run(capsys, "corpus", str(path))
    assert code == 2
    assert fragment in err


def test_corpus_jobs_do_not_change_output(capsys):
    code1, out1, _ = run(capsys, "corpus", "branches", "--format", "json", "--jobs", "1")
    code2, out2, _ = run(capsys, "corpus", "branches", "--format", "json", "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_corpus_json_summary(capsys):
    code, out, _ = run(capsys, "corpus", "paper_examples", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"total": 4, "errors": 0, "mismatched": 0}
    ids = [entry["id"] for entry in payload["entries"]]
    assert ids == sorted(ids)


# -- whole output --------------------------------------------------------------

WHOLE_OUTPUT = {
    ("analyze", "y^2 - x^3"): """\
input                   y^2 - x^3
multiplicity            2
milnor                  2
tjurina                 2
monotone                -2
differential_gap        1
is_branch               true
delta                   1
puiseux_characteristic  (2; 3)
multiplicity_sequence   [2]
""",
    ("analyze", "x^11+y^11+x^6*y^6"): """\
input                   y^11 + x^11 + x^6*y^6
multiplicity            11
milnor                  100
tjurina                 84
monotone                -36
differential_gap        34
is_branch               false
delta                   -
puiseux_characteristic  -
multiplicity_sequence   -
""",
    ("verify", "x^3+y^5"): """\
input                   x^3 + y^5
multiplicity            3
milnor                  8
tjurina                 8
monotone                -8
differential_gap        4
is_branch               true
delta                   4
puiseux_characteristic  (3; 5)
multiplicity_sequence   [3, 2]
law check stage 0: m=3 mu 8->2 tau 8->2 dmin_bound=2 mu_drop_exact=true \
tau_drop_bounded=true monotone_increased=true
law check stage 1: m=2 mu 2->0 tau 2->0 dmin_bound=1 mu_drop_exact=true \
tau_drop_bounded=true monotone_increased=true
theorem chain: [-8, -2, 0]
""",
    ("resolve", "x^3+y^5"): """\
input: x^3 + y^5
step 1: chart=y direction="x = 0" multiplicity=3 strict_transform="x^2 + y^3"
step 2: chart=y direction="x = 0" multiplicity=2 strict_transform="x + y^2"
multiplicity sequence: [3, 2]
puiseux characteristic: (3; 5)
final smooth germ: x + y^2
theorem chain: [-8, -2, 0]
""",
    ("compare", "y^2 - x^3", "x^3+y^5"): """\
verdict: Inconclusive
left:  y^2 - x^3 (milnor=2, tjurina=2, monotone=-2)
right: x^3 + y^5 (milnor=8, tjurina=8, monotone=-8)
""",
    ("corpus", "paper_examples"): """\
ex_11_10  ok
ex_11_11  ok
ex_13_12  ok
ex_9_9    ok
summary: 4 entries, 0 errors, 0 mismatches
""",
    ("--help",): """\
usage: germlab [-h] {analyze,resolve,compare,verify,corpus} ...

Exact invariants and blowup resolutions of plane curve germs.

positional arguments:
  {analyze,resolve,compare,verify,corpus}
    analyze             invariants of one germ
    resolve             blow up a branch until smooth
    compare             try to refute 'left is smoother than right'
    verify              analyze plus per-blowup law checks and the monotone
                        chain
    corpus              run a corpus file and check expectations

options:
  -h, --help            show this help message and exit
""",
    ("corpus", "--help"): """\
usage: germlab corpus [-h] [--format {json,table}] [--max-degree D] [--jobs N]
                      path

positional arguments:
  path                  corpus file path or bundled corpus name

options:
  -h, --help            show this help message and exit
  --format {json,table}
                        output format
  --max-degree D        reject inputs of total degree above D
  --jobs N              ignored; entries run in order
""",
}


@pytest.mark.parametrize("argv", list(WHOLE_OUTPUT), ids=" ".join)
def test_whole_table_and_help_output(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert run(capsys, *argv) == (0, WHOLE_OUTPUT[argv], "")


# sha1 of stdout: these outputs must stay byte-identical
PINNED_STDOUT = {
    ("corpus", "paper_examples", "--format", "json"): "f52b86012117e4d1b4ad126b82ed4dc88eb8a062",
    ("corpus", "branches", "--format", "json"): "f9ea36ab4f86993ad1379db82e4daf3094fa99b1",
    ("corpus", "branches"): "f5b85793116e0f7e89078487aae832906280091d",
    ("verify", "x^3 + y^7 + x*y^5", "--format", "json"):
        "4d16dafbcd0f731ae871b056a29aa16bbbe5c55b",
    ("resolve", THREE_BLOWUPS, "--format", "json"): "73dc61a4ab7181db1f6642d8891371101616619b",
    ("resolve", S_B_4_6_7, "--format", "json"): "535d3cfa3c7e3a582c5b19cc5218204d841c2f5a",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[argv]


# -- README examples ----------------------------------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _readme_commands():
    # every germlab command of the usage examples except the placeholder path
    return [
        shlex.split(line)[1:]
        for block in _readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("germlab ") and "path/to/my.corpus" not in line
    ]


def test_readme_library_example_runs():
    (block,) = _readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_exit_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out
