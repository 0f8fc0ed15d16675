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
    SmoothGermError,
    ZeroPolynomialError,
)
from .localalg import milnor_number, tjurina_number
from .polynomials import Polynomial
from .resolution import (
    PuiseuxCharacteristic,
    ResolutionSequence,
    characteristic_from_sequence,
    delta_from_sequence,
    resolve_branch,
    strict_transform_once,
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


def _report_and_resolution(
    f: Polynomial,
) -> tuple[InvariantReport, ResolutionSequence | NotABranchError]:
    """germ_report's work, with the resolution or the error that refused it."""
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial defines no germ")
    mu = milnor_number(f)
    tau = tjurina_number(f)
    resolution: ResolutionSequence | NotABranchError
    try:
        resolution = resolve_branch(f)
    except NotABranchError as exc:
        resolution = exc
    is_branch = isinstance(resolution, ResolutionSequence)
    report = InvariantReport(
        input=f,
        multiplicity=f.order(),
        milnor=mu,
        tjurina=tau,
        monotone=3 * mu - 4 * tau,
        differential_gap=Fraction(tau) - Fraction(mu, 2),
        is_branch=is_branch,
        delta=delta_from_sequence(resolution) if is_branch else None,
        characteristic=characteristic_from_sequence(resolution) if is_branch else None,
        multiplicity_sequence=resolution.multiplicity_sequence if is_branch else None,
        ratio_ok=(3 * mu < 4 * tau) if mu >= 1 else None,
    )
    return report, resolution


def germ_report(f: Polynomial) -> InvariantReport:
    """Compute multiplicity, mu, tau, the monotone quantity, and branch data."""
    return _report_and_resolution(f)[0]


def verify_branch(f: Polynomial) -> tuple[InvariantReport, list[LawCheck], list[int]]:
    """germ_report, resolution_law_checks and theorem_verify from one pass.

    Resolves f once and computes mu and tau once per stage. Raises what
    germ_report raises, then NotABranchError for reducible germs.
    """
    report, resolution = _report_and_resolution(f)
    if isinstance(resolution, NotABranchError):
        raise resolution
    checks, chain = _stages(f, resolution, (report.milnor, report.tjurina))
    return report, checks, chain


def dmin_lower(m: int) -> int:
    """Sharp lower bound for the extra tau drop of one blowup at multiplicity m."""
    if m < 2:
        raise MultiplicityTooSmallError("the bound is defined for multiplicity >= 2")
    half = m // 2
    p1 = 1 if m % 2 == 0 else 0
    return m * (m - 1) // 2 - ((half - 1) * (m - half) + 1 - p1)


def claim_check(m: int) -> bool:
    """Whether the bound strictly beats one quarter of m*(m-1), exactly."""
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
    """
    resolve_branch(f)  # raises NotABranchError for reducible germs
    step = strict_transform_once(f)  # raises NotSingularError for smooth germs
    g = step.strict_transform
    return _law_check(
        step.multiplicity_before,
        milnor_number(f),
        tjurina_number(f),
        milnor_number(g),
        tjurina_number(g),
    )


def _stages(
    f: Polynomial,
    sequence: ResolutionSequence,
    first: Optional[tuple[int, int]] = None,
) -> tuple[list[LawCheck], list[int]]:
    """Law checks and the 3*mu - 4*tau chain along the resolution of f.

    Computes mu and tau once per stage; ``first`` is stage 0's (mu, tau)
    when the caller already has them.
    """
    mu0, tau0 = first if first is not None else (milnor_number(f), tjurina_number(f))
    checks: list[LawCheck] = []
    chain = [3 * mu0 - 4 * tau0]
    for step in sequence.steps:
        g = step.strict_transform
        mu1, tau1 = milnor_number(g), tjurina_number(g)
        checks.append(_law_check(step.multiplicity_before, mu0, tau0, mu1, tau1))
        chain.append(3 * mu1 - 4 * tau1)
        mu0, tau0 = mu1, tau1
    return checks, chain


def resolution_law_checks(f: Polynomial) -> list[LawCheck]:
    """One LawCheck per blowup along the whole resolution of a branch.

    Empty for a smooth germ; raises NotABranchError for reducible germs.
    """
    return _stages(f, resolve_branch(f))[0]


def theorem_verify(f: Polynomial) -> list[int]:
    """Values of 3*mu - 4*tau along the whole resolution, input first.

    The final entry belongs to the smooth end and is always 0; for a
    singular branch every earlier entry is negative and the list strictly
    increases. Raises NotABranchError for reducible germs.
    """
    return _stages(f, resolve_branch(f))[1]


def ratio_check(report: InvariantReport) -> bool:
    """Strict inequality mu/tau < 4/3, i.e. 3*mu < 4*tau, for a singular germ."""
    if report.milnor < 1:
        raise SmoothGermError("the ratio is undefined for smooth germs")
    return 3 * report.milnor < 4 * report.tjurina
