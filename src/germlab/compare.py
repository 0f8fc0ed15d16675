"""One-sided smoothness comparison between two germs.

"Candidate is smoother than base" would mean the candidate arises from the
base by finitely many blowups of singular points. That relation cannot be
certified from numerical invariants alone, but it can be *refuted*: any
quantity that only moves one way under blowups rules it out the moment it
moved the other way. ``not_smoother`` returns the refutations it finds, or
an inconclusive verdict when every test is compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .invariants import InvariantReport, germ_report
from .polynomials import Polynomial

NOT_SMOOTHER = "NotSmoother"
INCONCLUSIVE = "Inconclusive"

BRANCH_CAVEAT = "monotonicity is proven for branches only"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of a comparison; ``reasons`` is empty iff inconclusive."""

    left: InvariantReport
    right: InvariantReport
    verdict: str
    reasons: tuple[str, ...]


def _is_suffix(candidate: tuple[int, ...], base: tuple[int, ...]) -> bool:
    return base[len(base) - len(candidate):] == candidate


def not_smoother(candidate: Polynomial, base: Polynomial) -> ComparisonVerdict:
    """Try to refute "candidate is obtained from base by blowups".

    Four independent refutations are attempted: the monotone quantity
    3*mu - 4*tau must not decrease, mu must not increase, tau must not
    increase, and (between branches) the candidate's multiplicity sequence
    must be a suffix of the base's.
    """
    left = germ_report(candidate)
    right = germ_report(base)
    reasons: list[str] = []
    if left.monotone < right.monotone:
        reason = (
            f"monotone quantity decreased: {left.monotone} < {right.monotone}"
        )
        if not (left.is_branch and right.is_branch):
            reason += f" ({BRANCH_CAVEAT})"
        reasons.append(reason)
    if left.milnor > right.milnor:
        reasons.append(f"milnor number increased: {left.milnor} > {right.milnor}")
    if left.tjurina > right.tjurina:
        reasons.append(f"tjurina number increased: {left.tjurina} > {right.tjurina}")
    if (
        left.is_branch
        and right.is_branch
        and not _is_suffix(left.multiplicity_sequence, right.multiplicity_sequence)
    ):
        reasons.append(
            "multiplicity sequence "
            f"{list(left.multiplicity_sequence)} is not a suffix of "
            f"{list(right.multiplicity_sequence)}"
        )
    verdict = NOT_SMOOTHER if reasons else INCONCLUSIVE
    return ComparisonVerdict(
        left=left, right=right, verdict=verdict, reasons=tuple(reasons)
    )
