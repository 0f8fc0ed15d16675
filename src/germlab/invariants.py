"""Numerical invariants of plane curve germs and the laws relating them.

The quantity tracked throughout is 3*mu - 4*tau. For branches it rises
strictly under every blowup of a singular germ and reaches 0 exactly at a
smooth one, which is what ``theorem_verify`` certifies stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    MultiplicityTooSmallError,
    NotABranchError,
    NotSingularError,
    SmoothGermError,
    ZeroPolynomialError,
)
# milnor_number stays bound here: perfbench's tracer wraps it under this name
from .localalg import milnor_number, milnor_tjurina  # noqa: F401
from .polynomials import Polynomial
from .resolution import (
    PuiseuxCharacteristic,
    Stage,
    _aligned_stages,
    _sequence,
    characteristic_from_sequence,
    delta_from_sequence,
)


@dataclass(frozen=True)
class InvariantReport:
    """Everything computed about one germ in one place.

    The branch-only fields (delta, characteristic, multiplicity_sequence)
    are None for germs with several branches; ratio_ok is None for smooth
    germs, where the ratio is undefined.
    """

    input: Polynomial
    multiplicity: int
    milnor: int
    tjurina: int
    monotone: int
    differential_gap: Fraction
    is_branch: bool
    delta: Optional[int]
    characteristic: Optional[PuiseuxCharacteristic]
    multiplicity_sequence: Optional[tuple[int, ...]]
    ratio_ok: Optional[bool]


def _report_and_stages(
    f: Polynomial,
) -> tuple[InvariantReport, list[Stage] | NotABranchError]:
    """germ_report's work, with f's aligned stages or the error that refused them."""
    # the CLI pins `analyze "0"` to this error and `resolve "0"` to NotAGermError
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial defines no germ")
    stages = _aligned_stages(f)
    first = next(stages)
    mu, tau = milnor_tjurina(first[0])
    resolved: list[Stage] | NotABranchError
    try:
        resolved = [first, *stages]
    except NotABranchError as exc:
        resolved = exc
    is_branch = not isinstance(resolved, NotABranchError)
    sequence = _sequence(resolved) if is_branch else None
    report = InvariantReport(
        input=f,
        multiplicity=f.order(),
        milnor=mu,
        tjurina=tau,
        monotone=3 * mu - 4 * tau,
        differential_gap=Fraction(tau) - Fraction(mu, 2),
        is_branch=is_branch,
        delta=delta_from_sequence(sequence) if is_branch else None,
        characteristic=characteristic_from_sequence(sequence) if is_branch else None,
        multiplicity_sequence=sequence.multiplicity_sequence if is_branch else None,
        ratio_ok=(3 * mu < 4 * tau) if mu >= 1 else None,
    )
    return report, resolved


def germ_report(f: Polynomial) -> InvariantReport:
    """Compute multiplicity, mu, tau, the monotone quantity, and branch data."""
    return _report_and_stages(f)[0]


def verify_branch(f: Polynomial) -> tuple[InvariantReport, list[LawCheck], list[int]]:
    """germ_report, resolution_law_checks and theorem_verify from one pass.

    Resolves f once and computes mu and tau once per stage. Raises what
    germ_report raises, then NotABranchError for reducible germs.
    """
    report, stages = _report_and_stages(f)
    if isinstance(stages, NotABranchError):
        raise stages
    checks, chain = _stage_laws(stages, (report.milnor, report.tjurina))
    return report, checks, chain


def dmin_lower(m: int) -> int:
    """Sharp lower bound for the extra tau drop of one blowup at multiplicity m.

    It equals floor(m^2/4), h^2 for m = 2h and h(h+1) for m = 2h + 1, so the
    tau drop that _law_check asks for is m(m-1)/2 + floor(m^2/4).
    """
    if m < 2:
        raise MultiplicityTooSmallError("the bound is defined for multiplicity >= 2")
    half = m // 2
    p1 = 1 if m % 2 == 0 else 0
    return m * (m - 1) // 2 - ((half - 1) * (m - half) + 1 - p1)


def claim_check(m: int) -> bool:
    """Whether 4*dmin_lower(m) > m(m-1); always, as 4h^2 > 2h(2h-1) and 4h(h+1) > 2h(2h+1)."""
    return 4 * dmin_lower(m) > m * (m - 1)


def claim_check_range(lo: int, hi: int) -> bool:
    """claim_check for every multiplicity in [lo, hi]; False at the first failure."""
    if lo < 2:
        raise MultiplicityTooSmallError("the bound is defined for multiplicity >= 2")
    return all(claim_check(m) for m in range(lo, hi + 1))


@dataclass(frozen=True)
class LawCheck:
    """Exact bookkeeping for one blowup of a singular branch."""

    multiplicity: int
    mu_before: int
    tau_before: int
    mu_after: int
    tau_after: int
    dmin_bound: int
    mu_drop_exact: bool
    tau_drop_bounded: bool
    monotone_increased: bool

    @property
    def mu_drop(self) -> int:
        return self.mu_before - self.mu_after

    @property
    def tau_drop(self) -> int:
        return self.tau_before - self.tau_after

    @property
    def all_ok(self) -> bool:
        return self.mu_drop_exact and self.tau_drop_bounded and self.monotone_increased


def _law_check(m: int, mu0: int, tau0: int, mu1: int, tau1: int) -> LawCheck:
    bound = dmin_lower(m)
    return LawCheck(
        multiplicity=m,
        mu_before=mu0,
        tau_before=tau0,
        mu_after=mu1,
        tau_after=tau1,
        dmin_bound=bound,
        mu_drop_exact=(mu0 - mu1 == m * (m - 1)),
        tau_drop_bounded=(tau0 - tau1 >= m * (m - 1) // 2 + bound),
        monotone_increased=(3 * mu1 - 4 * tau1 > 3 * mu0 - 4 * tau0),
    )


def blowup_law_check(f: Polynomial) -> LawCheck:
    """Blow up a singular branch once and test the three per-step laws.

    The laws: mu drops by exactly m*(m-1); tau drops by at least
    m*(m-1)/2 + dmin_lower(m); and 3*mu - 4*tau strictly increases.
    Resolves f in full, since a later stage may show it is not a branch.
    """
    stages = list(_aligned_stages(f))  # raises NotABranchError for reducible germs
    if len(stages) == 1:
        raise NotSingularError("the germ is smooth; nothing to blow up")
    return _stage_laws(stages[:2])[0][0]


def _stage_laws(
    stages: list[Stage],
    first: Optional[tuple[int, int]] = None,
) -> tuple[list[LawCheck], list[int]]:
    """Law checks and the 3*mu - 4*tau chain along aligned resolution stages.

    Computes mu and tau once per stage; ``first`` is stage 0's (mu, tau)
    when the caller already has them.
    """
    mu0, tau0 = first if first is not None else milnor_tjurina(stages[0][0])
    checks: list[LawCheck] = []
    chain = [3 * mu0 - 4 * tau0]
    for g, step in stages[1:]:
        mu1, tau1 = milnor_tjurina(g)
        checks.append(_law_check(step.multiplicity_before, mu0, tau0, mu1, tau1))
        chain.append(3 * mu1 - 4 * tau1)
        mu0, tau0 = mu1, tau1
    return checks, chain


def resolution_law_checks(f: Polynomial) -> list[LawCheck]:
    """One LawCheck per blowup along the whole resolution of a branch.

    Empty for a smooth germ; raises NotABranchError for reducible germs.
    """
    return _stage_laws(list(_aligned_stages(f)))[0]


def theorem_verify(f: Polynomial) -> list[int]:
    """Values of 3*mu - 4*tau along the whole resolution, input first.

    The final entry belongs to the smooth end and is always 0; for a
    singular branch every earlier entry is negative and the list strictly
    increases. Raises NotABranchError for reducible germs.
    """
    return _stage_laws(list(_aligned_stages(f)))[1]


def ratio_check(report: InvariantReport) -> bool:
    """Strict inequality mu/tau < 4/3, i.e. 3*mu < 4*tau, for a singular germ."""
    if report.milnor < 1:
        raise SmoothGermError("the ratio is undefined for smooth germs")
    return 3 * report.milnor < 4 * report.tjurina
