"""Seeded germ generators, reference answers, and the requests built on them.

Every input comes from a recipe whose answer is known without the timed
call: a closed form, invariance under a change of coordinates, the other
colength pipeline run once on the normal form while the inputs are made,
or the table of the six hard germs A-F.

The seed changes coefficients, coordinate changes, exponent offsets and the
order of the requests.  The family slots themselves are fixed, so every seed
runs the same mix of cheap and expensive shapes.  No generated germ is ever
dropped or drawn again because of how the program handles it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

import germlab.cli
import germlab.localalg
import germlab.resolution
from germlab.polynomials import Polynomial, X, Y

Characteristic = tuple[int, tuple[int, ...]]

# Truncation degrees walked by an oracle request, lowest first, until the
# codimension is stable.  The top rung covers the staircase of every germ
# generated below.
ORACLE_CAPS = (4, 6, 8, 11, 14, 18, 23, 29, 36)

BRANCH_CAVEAT = "monotonicity is proven for branches only"


# -- closed forms -------------------------------------------------------------


def multiplicity_sequence(char: Characteristic) -> tuple[int, ...]:
    """Multiplicity sequence of a branch from its Puiseux characteristic.

    For each characteristic exponent run Euclid's algorithm on
    (beta_i - beta_{i-1}, e_{i-1}); each quotient q_k contributes q_k copies
    of the divisor r_k.  Entries equal to 1 (smooth points) are dropped.
    """
    m, betas = char
    seq: list[int] = []
    e, previous = m, 0
    for beta in betas:
        a, b = beta - previous, e
        while b:
            q, r = divmod(a, b)
            seq.extend([b] * q)
            a, b = b, r
        e, previous = a, beta
    return tuple(k for k in seq if k > 1)


def branch_milnor(char: Characteristic) -> int:
    """mu = 2 * delta, with delta the sum of m(m-1)/2 over the sequence."""
    return sum(k * (k - 1) for k in multiplicity_sequence(char))


def dmin_lower(m: int) -> int:
    """The sharp lower bound on the extra tau drop of one blowup (the paper's formula)."""
    half = m // 2
    return m * (m - 1) // 2 - ((half - 1) * (m - half) + m % 2)


def two_pair_characteristic(p: int, q: int, r: int, s: int) -> Characteristic:
    """Characteristic of the branch (y^p - x^q)^r - x^s, for p < q and s > q*r."""
    return (p * r, (q * r, q * r + p * s - p * q * r))


# -- germs and their references -----------------------------------------------


@dataclass(frozen=True)
class Expected:
    """Reference answers for one germ; ``characteristic`` is None off branches."""

    milnor: int
    tjurina: int
    multiplicity: int
    characteristic: Optional[Characteristic]

    @property
    def sequence(self) -> Optional[tuple[int, ...]]:
        if self.characteristic is None:
            return None
        return multiplicity_sequence(self.characteristic)

    def report(self, text: str) -> dict:
        """The fields of the CLI's report payload these references pin down."""
        char = self.characteristic
        branch = char is not None
        return {
            "input": text,
            "multiplicity": self.multiplicity,
            "milnor": self.milnor,
            "tjurina": self.tjurina,
            "monotone": 3 * self.milnor - 4 * self.tjurina,
            "differential_gap": str(Fraction(self.tjurina) - Fraction(self.milnor, 2)),
            "is_branch": branch,
            "delta": self.milnor // 2 if branch else None,
            "puiseux_characteristic": (
                {"m": char[0], "betas": list(char[1])} if branch else None
            ),
            "multiplicity_sequence": list(self.sequence) if branch else None,
        }


@dataclass(frozen=True)
class Germ:
    id: str
    poly: Polynomial
    expected: Expected

    @property
    def text(self) -> str:
        return str(self.poly)


def _mono(i: int, j: int, c: object = 1) -> Polynomial:
    return Polynomial({(i, j): c})


def oracle_colength(generators: list[Polynomial]) -> int:
    """Walk ORACLE_CAPS until the truncation oracle is stable."""
    for cap in ORACLE_CAPS:
        value = germlab.localalg.colength_oracle(generators, cap)
        if value is not germlab.localalg.UNSTABLE:
            return value
    raise ValueError("the truncation oracle did not stabilise on the cap ladder")


class References:
    """Tau of normal-form germs, computed once per run by the other pipeline.

    Requests timed through Mora (the CLI) get tau from the truncation oracle;
    requests timed through the oracle get it from Mora.  Either way the
    reference comes from the normal form, not from the timed input.
    """

    def __init__(self, timed_pipeline: str):
        self.timed_pipeline = timed_pipeline
        self._cache: dict[Polynomial, int] = {}

    def tjurina(self, normal_form: Polynomial) -> int:
        if normal_form not in self._cache:
            if self.timed_pipeline == "oracle":
                value = germlab.localalg.tjurina_number(normal_form)
            else:
                value = oracle_colength([normal_form, *normal_form.partials()])
            self._cache[normal_form] = value
        return self._cache[normal_form]


def qh_germ(a: int, b: int) -> Germ:
    """x^a + y^b with gcd(a, b) = 1: mu = tau = (a-1)(b-1)."""
    mu = (a - 1) * (b - 1)
    char = (min(a, b), (max(a, b),))
    return Germ(f"qh_{a}_{b}", _mono(a, 0) + _mono(0, b), Expected(mu, mu, min(a, b), char))


def above_diagonal(a: int, b: int) -> list[tuple[int, int]]:
    """Monomials strictly above the Newton diagonal of x^a + y^b, of degree <= a + b - 2."""
    return [
        (i, j)
        for i in range(a + 1)
        for j in range(b + 1)
        if i * b + j * a > a * b and i + j <= a + b - 2
    ]


def sqh_germ(
    a: int, b: int, terms: dict[tuple[int, int], int], refs: References
) -> Germ:
    """x^a + y^b plus terms above the diagonal: mu = (a-1)(b-1), a branch (a; b)."""
    f = _mono(a, 0) + _mono(0, b)
    for (i, j), c in sorted(terms.items()):
        f = f + _mono(i, j, c)
    char = (min(a, b), (max(a, b),))
    expected = Expected((a - 1) * (b - 1), refs.tjurina(f), min(a, b), char)
    tag = "_".join(f"{i}.{j}" for i, j in sorted(terms))
    return Germ(f"sqh_{a}_{b}_{tag}", f, expected)


def random_sqh(a: int, b: int, rng: random.Random, refs: References) -> Germ:
    """x^a + y^b plus one seeded term above the diagonal."""
    cell = rng.choice(above_diagonal(a, b))
    return sqh_germ(a, b, {cell: rng.choice((-3, -2, -1, 1, 2, 3))}, refs)


def reducible_germ(a: int, k: int, refs: References) -> Germ:
    """x^a + y^a + x^k y^k with 2k > a: a lines, mu = (a-1)^2, not a branch."""
    f = _mono(a, 0) + _mono(0, a) + _mono(k, k)
    return Germ(f"red_{a}_{k}", f, Expected((a - 1) ** 2, refs.tjurina(f), a, None))


def two_pair_germ(p: int, q: int, r: int, s: int, refs: References) -> Germ:
    """The two-pair branch (y^p - x^q)^r - x^s."""
    f = (_mono(0, p) - _mono(q, 0)) ** r - _mono(s, 0)
    char = two_pair_characteristic(p, q, r, s)
    expected = Expected(branch_milnor(char), refs.tjurina(f), p * r, char)
    return Germ(f"pair_{p}_{q}_{r}_{s}", f, expected)


def transformed(germ: Germ, px: Polynomial, py: Polynomial, tag: str) -> Germ:
    """The germ after (x, y) -> (px, py); mu, tau, multiplicity and branch data are invariant."""
    return Germ(f"{germ.id}@{tag}", germ.poly.substitute(px, py), germ.expected)


def shear(germ: Germ, u: int, v: int) -> Germ:
    """(x, y) -> (x + u*y, v*x + y), invertible when 1 - u*v != 0."""
    return transformed(germ, X + _mono(0, 1, u), _mono(1, 0, v) + Y, f"lin({u},{v})")


def local_automorphism(germ: Germ, rng: random.Random) -> Germ:
    """(x, y) -> (p*x + c*y^2, q*y + d*x^2): invertible linear part, h1, h2 in m^2."""
    p, q = rng.choice((1, -1, 2, -2)), rng.choice((1, -1, 2, -2))
    c, d = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
    return transformed(
        germ, _mono(1, 0, p) + _mono(0, 2, c), _mono(0, 1, q) + _mono(2, 0, d),
        f"aut({p},{q},{c},{d})",
    )


def hard_germs() -> list[Germ]:
    """Germs A-F of the roadmap with their agreed mu, tau and multiplicity sequence."""
    x, y = X, Y
    f0 = (y**2 - x**3) ** 2 - x**7
    a = f0**2 - _mono(17, 1)
    b = (x**7 + y**9).substitute(x + y**2 + 2 * y, y + 3 * x**2 - x)
    c = (x**9 + y**10 + x**5 * y**5).substitute(
        x + y**3 + Fraction(2, 3) * y, y + 3 * x**2 - 5 * x
    )
    d = (x**12 + y**13).substitute(x + y**2 + 2 * y, y + x**2 - x)
    e = (x**5 + y**7).substitute(x + y**2, y + x**3)
    f = y**4 - 2 * x**3 * y**2 - 4 * x**5 * y + x**6 + x**3 * y**4 - x**7 + x**9
    table = [
        ("A", a, Expected(107, 90, 8, None)),
        ("B", b, Expected(48, 48, 7, (7, (9,)))),
        ("C", c, Expected(72, 60, 9, (9, (10,)))),
        ("D", d, Expected(132, 132, 12, (12, (13,)))),
        ("E", e, Expected(24, 24, 5, (5, (7,)))),
        ("F", f, Expected(16, 14, 4, (4, (6, 7)))),
    ]
    return [Germ(name, poly, expected) for name, poly, expected in table]


# -- requests -------------------------------------------------------------------


def _mismatch(field: str, got: object, want: object) -> Optional[str]:
    if got != want:
        return f"wrong {field}: got {got!r}, expected {want!r}"
    return None


def _check_report(payload: dict, germ: Germ, prefix: str = "") -> Optional[str]:
    for key, want in germ.expected.report(germ.text).items():
        problem = _mismatch(prefix + key, payload.get(key), want)
        if problem:
            return problem
    return None


def _suffix(candidate: tuple[int, ...], base: tuple[int, ...]) -> bool:
    return len(candidate) <= len(base) and base[len(base) - len(candidate):] == candidate


def expected_verdict(left: Expected, right: Expected) -> tuple[str, list[str]]:
    """Verdict and reasons the certificate rules imply for 'left not smoother than right'."""
    reasons = []
    lm, rm = 3 * left.milnor - 4 * left.tjurina, 3 * right.milnor - 4 * right.tjurina
    both_branches = left.characteristic is not None and right.characteristic is not None
    if lm < rm:
        reason = f"monotone quantity decreased: {lm} < {rm}"
        if not both_branches:
            reason += f" ({BRANCH_CAVEAT})"
        reasons.append(reason)
    if left.milnor > right.milnor:
        reasons.append(f"milnor number increased: {left.milnor} > {right.milnor}")
    if left.tjurina > right.tjurina:
        reasons.append(f"tjurina number increased: {left.tjurina} > {right.tjurina}")
    if both_branches and not _suffix(left.sequence, right.sequence):
        reasons.append(
            f"multiplicity sequence {list(left.sequence)} is not a suffix of "
            f"{list(right.sequence)}"
        )
    return ("NotSmoother" if reasons else "Inconclusive"), reasons


@dataclass(frozen=True)
class Request:
    """One closed-loop request: ``call`` is timed, ``check`` is not."""

    id: str
    kind: str
    describe: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = germlab.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_payload(result: CliResult) -> tuple[Optional[dict], Optional[str]]:
    if result.code != 0:
        return None, f"exit {result.code}: {result.stderr.strip()[:200]}"
    return json.loads(result.stdout), None


def analyze_request(germ: Germ) -> Request:
    argv = ["analyze", germ.text, "--format", "json"]

    def check(result: CliResult) -> Optional[str]:
        payload, problem = _cli_payload(result)
        return problem or _check_report(payload, germ)

    return Request(germ.id, "analyze", f"analyze {germ.text}", lambda: run_cli(argv), check)


def compare_request(left: Germ, right: Germ) -> Request:
    argv = ["compare", left.text, right.text, "--format", "json"]
    verdict, reasons = expected_verdict(left.expected, right.expected)

    def check(result: CliResult) -> Optional[str]:
        payload, problem = _cli_payload(result)
        return (
            problem
            or _check_report(payload["left"], left, "left.")
            or _check_report(payload["right"], right, "right.")
            or _mismatch("verdict", payload["verdict"], verdict)
            or _mismatch("reasons", payload["reasons"], reasons)
        )

    return Request(
        f"{left.id}|{right.id}",
        "compare",
        f"compare {left.text} | {right.text}",
        lambda: run_cli(argv),
        check,
    )


def _check_law_checks(payload: dict, germ: Germ) -> Optional[str]:
    seq = germ.expected.sequence
    mus = [sum(m * (m - 1) for m in seq[k:]) for k in range(len(seq) + 1)]
    checks, chain = payload["law_checks"], payload["theorem_chain"]
    problem = _mismatch("law_checks length", len(checks), len(seq)) or _mismatch(
        "theorem_chain length", len(chain), len(seq) + 1
    )
    if problem:
        return problem
    taus = [c["tau_before"] for c in checks] + [0]
    problem = _mismatch("stage 0 tau", taus[0], germ.expected.tjurina) or _mismatch(
        "theorem_chain end", chain[-1], 0
    )
    if problem:
        return problem
    for k, (check, m) in enumerate(zip(checks, seq)):
        mu_drop_exact = mus[k] - mus[k + 1] == m * (m - 1)
        tau_drop_bounded = taus[k] - taus[k + 1] >= m * (m - 1) // 2 + dmin_lower(m)
        monotone = 3 * mus[k + 1] - 4 * taus[k + 1] > 3 * mus[k] - 4 * taus[k]
        want = {
            "stage": k,
            "multiplicity": m,
            "mu_before": mus[k],
            "mu_after": mus[k + 1],
            "tau_after": taus[k + 1],
            "dmin_bound": dmin_lower(m),
            "mu_drop_exact": mu_drop_exact,
            "tau_drop_bounded": tau_drop_bounded,
            "monotone_increased": monotone,
            "all_ok": mu_drop_exact and tau_drop_bounded and monotone,
        }
        for key, value in want.items():
            problem = _mismatch(f"stage {k} {key}", check[key], value)
            if problem:
                return problem
        problem = _mismatch(f"theorem_chain[{k}]", chain[k], 3 * mus[k] - 4 * taus[k])
        if problem:
            return problem
    return None


def verify_request(germ: Germ) -> Request:
    argv = ["verify", germ.text, "--format", "json"]

    def check(result: CliResult) -> Optional[str]:
        payload, problem = _cli_payload(result)
        return problem or _check_report(payload, germ) or _check_law_checks(payload, germ)

    return Request(germ.id, "verify", f"verify {germ.text}", lambda: run_cli(argv), check)


def oracle_request(germ: Germ) -> Request:
    """Truncation-oracle mu and tau on the cap ladder, plus the resolution of branches.

    On a branch the expected mu is 2*delta of the expected multiplicity
    sequence, so checking both against the references checks mu = 2*delta.
    """
    f = germ.poly
    branch = germ.expected.characteristic is not None

    def call() -> dict:
        fx, fy = f.partials()
        answer = {
            "milnor": oracle_colength([fx, fy]),
            "tjurina": oracle_colength([f, fx, fy]),
        }
        if branch:
            answer["sequence"] = germlab.resolution.resolve_branch(f).multiplicity_sequence
        return answer

    def check(answer: dict) -> Optional[str]:
        want = {"milnor": germ.expected.milnor, "tjurina": germ.expected.tjurina}
        if branch:
            want["sequence"] = germ.expected.sequence
        for key, value in want.items():
            problem = _mismatch(key, answer[key], value)
            if problem:
                return problem
        return None

    return Request(germ.id, "oracle", f"oracle {germ.text}", call, check)


# -- workloads --------------------------------------------------------------------

# Survey: the cheap germs (x^a + y^b with b drawn just above a and coprime to
# it, semi-qh and two-pair branches) answer in a few ms; the reducible germs
# x^a + y^a + x^k y^k after a shear take 35-60 ms each in Mora, ten to
# twenty times as long.  Each reducible germ is also compared with a cheap
# one, so 16 of the 24 requests are Mora-bound and the median falls about a
# fifth of the way into them, not on the edge of the cheap ones.  With
# a = 4, 5 a pass takes about a second, so each input runs some thirty
# times in a run; a = 6, 7 take four times as long.  Every pass runs all
# four shears (+-2, +-2), because a milder shear such as u = -v = 1 is
# several times cheaper and would make the cost of a pass depend on the seed.
QH_LADDER = (3, 11, 21, 30, 40)
SURVEY_SQH = ((3, 5), (5, 7))
SURVEY_REDUCIBLE = (4, 5)
SHEARS = ((2, 2), (2, -2), (-2, 2), (-2, -2))
# (p, q, r, s) with gcd(p, q) = gcd(r, p*s) = 1 and s > q*r, so each is a branch.
TWO_PAIR = ((2, 3, 3, 10), (2, 3, 3, 11), (3, 4, 2, 9), (2, 5, 3, 16))
# Verify: pairs of consecutive Fibonacci numbers have the longest Euclid chains.
FIBONACCI_PAIRS = ((5, 8), (8, 13), (13, 21), (21, 34), (34, 55))
CUSP_RANGES = ((3, 5), (6, 9), (10, 14), (15, 20), (21, 25))
VERIFY_SQH = ((2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 7), (2, 9), (5, 6))
# With one term above the diagonal every seeded draw tried answers within
# 12 ms when the benchmark was written.  With two to four terms a draw
# answers or hangs in Mora depending on its terms, so seeded draws would make
# the failed share depend on the seed: these multi-term germs are fixed
# instead.  The last two hang in Mora (the first of them is
# y^2 + x^5 - 3x^3y^3 + x^6y^5, whose mu is 4); the others answer within 0.25 s.
VERIFY_MULTI_TERM = (
    (2, 5, {(1, 3): -3, (2, 2): -2, (1, 4): -2}),
    (3, 4, {(1, 3): -3, (2, 2): 3, (3, 1): -2, (2, 3): -3}),
    (3, 5, {(1, 4): -2, (2, 3): 3, (1, 5): -2, (2, 4): -2}),
    (3, 7, {(3, 2): 3, (1, 5): -1, (3, 3): -3, (1, 6): -2}),
    (4, 5, {(2, 3): 2, (2, 4): -1, (3, 3): -1, (4, 3): -3}),
    (4, 7, {(3, 3): 1, (3, 5): -3}),
    (2, 9, {(1, 5): 2, (1, 6): 3}),
    (5, 2, {(3, 3): -3, (6, 5): 1}),
    (5, 7, {(3, 3): -2, (4, 2): 2, (1, 7): 1}),
)
# The last two-pair branch hangs in Mora when the benchmark was written.
VERIFY_TWO_PAIR = TWO_PAIR + ((2, 3, 5, 16),)
TRANSFORMED_QH = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5))


def _coprime_above(a: int, rng: random.Random, spread: int = 6) -> int:
    b = a + rng.randint(1, spread)
    while gcd(a, b) != 1:
        b += 1
    return b


def cusp_germ(k: int) -> Germ:
    """y^2 - x^(2k+1): an A_2k cusp with k blowups of multiplicity 2."""
    n = 2 * k + 1
    return Germ(f"cusp_{n}", _mono(0, 2) - _mono(n, 0), Expected(2 * k, 2 * k, 2, (2, (n,))))


def _interleave(
    rng: random.Random, analyses: list[Germ], pairs: list[tuple[Germ, Germ]]
) -> list[Request]:
    """Shuffled analyses; each compare lands after both of its germs were analysed."""
    rng.shuffle(analyses)
    order: list[object] = list(analyses)
    for left, right in pairs:
        first = max(order.index(left), order.index(right)) + 1
        order.insert(rng.randint(first, len(order)), (left, right))
    return [
        compare_request(*item) if isinstance(item, tuple) else analyze_request(item)
        for item in order
    ]


def survey(seed: int) -> list[Request]:
    rng = random.Random(f"survey:{seed}")
    refs = References("mora")
    ladder = [qh_germ(a, _coprime_above(a, rng)) for a in QH_LADDER]
    sqh = [random_sqh(a, b, rng, refs) for a, b in SURVEY_SQH]
    pairs = [two_pair_germ(*TWO_PAIR[1], refs)]
    reducible = [
        shear(reducible_germ(a, a // 2 + 1, refs), u, v)
        for a in SURVEY_REDUCIBLE
        for u, v in SHEARS
    ]
    cheap = ladder + sqh + pairs

    def either_way(left: Germ, right: Germ) -> tuple[Germ, Germ]:
        return (left, right) if rng.random() < 0.5 else (right, left)

    compares = [either_way(red, rng.choice(cheap)) for red in reducible]
    return _interleave(rng, cheap + reducible, compares)


def verify(seed: int) -> list[Request]:
    rng = random.Random(f"verify:{seed}")
    refs = References("mora")
    germs = [cusp_germ(rng.randint(lo, hi)) for lo, hi in CUSP_RANGES for _ in range(2)]
    germs += [qh_germ(*rng.choice((pair, pair[::-1]))) for pair in FIBONACCI_PAIRS]
    for _ in range(5):
        a = rng.randint(8, 40)
        germs.append(qh_germ(a, _coprime_above(a, rng, spread=a)))
    germs += [random_sqh(a, b, rng, refs) for a, b in VERIFY_SQH for _ in range(2)]
    germs += [sqh_germ(a, b, terms, refs) for a, b, terms in VERIFY_MULTI_TERM]
    germs += [two_pair_germ(*spec, refs) for spec in VERIFY_TWO_PAIR]
    rng.shuffle(germs)
    return [verify_request(g) for g in germs]


def transformed_germs(seed: int, refs: References) -> list[Germ]:
    """Survey families after seeded local automorphisms, plus germs A-F.

    C stands for the semi-qh family and F for the two-pair branches.  A
    transformed semi-qh germ answers or hangs in Mora depending on the draw,
    which would make the failed share depend on the seed.  A transformed
    two-pair branch would sit between D and A-C in oracle cost, so the tail
    percentile would fall on it or on A-C depending on how many passes fit.
    """
    rng = random.Random(f"transformed:{seed}")
    base = [qh_germ(a, b) for a, b in TRANSFORMED_QH]
    base += [reducible_germ(3, 2, refs), reducible_germ(4, 3, refs)]
    germs = [local_automorphism(g, rng) for g in base] + hard_germs()
    rng.shuffle(germs)
    return germs


def oracle(seed: int) -> list[Request]:
    return [oracle_request(g) for g in transformed_germs(seed, References("oracle"))]


def coords(seed: int) -> list[Request]:
    return [analyze_request(g) for g in transformed_germs(seed, References("mora"))]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Request]]
    #: Per-request time limit, at least four times the slowest request that
    #: answered when the benchmark was written; the requests that hung then
    #: never finish.
    limit_s: float


WORKLOADS = {
    "survey": Workload(survey, 5.0),
    "verify": Workload(verify, 1.0),
    "oracle": Workload(oracle, 10.0),
    "coords": Workload(coords, 0.5),
}
