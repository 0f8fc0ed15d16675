"""Point blowups of plane curve germs and resolution of branches.

One blowup step blows up a germ aligned by ``Polynomial.aligned`` (shear for
a slope, swap of x and y for a vertical tangent), so that the followed point
of the strict transform is always the origin of the chart in which the
exceptional curve is x = 0. The strict transform is then the exact exponent
shift (i, j) -> (i + j - m, j), where m is the multiplicity being blown up.

``_aligned_stages`` aligns each stage once, for both the next blowup and the
stage's mu and tau. Of the package, this module imports only ``errors`` and
``polynomials``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb, gcd
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    InconsistentSequenceError,
    InvalidCharacteristicError,
    NonIsolatedSingularityError,
    NotABranchError,
    NotSingularError,
)
from .polynomials import Direction, Polynomial, Vertical


def tangent_data(f: Polynomial) -> Optional[Direction]:
    """The tangent direction of the germ at the origin, or None if it splits.

    See ``Polynomial.tangent_direction``; this adds the germ check.
    """
    f.require_germ()
    return f.tangent_direction()


@dataclass(frozen=True)
class BlowupStep:
    """One blowup: which chart was used, at which direction, and the result."""

    chart: str  # "x" or "y"
    direction: Direction
    multiplicity_before: int
    strict_transform: Polynomial


def _blowup(
    aligned: Polynomial, direction: Optional[Direction], m: int, stage: int
) -> BlowupStep:
    """The blowup at ``direction`` of an aligned germ of multiplicity m; a split cone raises."""
    if direction is None:
        raise NotABranchError(
            f"tangent cone splits at stage {stage}; the germ is not a branch", stage=stage
        )
    chart = "y" if isinstance(direction, Vertical) else "x"
    # (i, j) -> (i + j - m, j) is injective and every degree is >= m: no checks needed
    den, numerators = aligned._integer_form()
    shifted = Polynomial._raw({(i + j - m, j): a for (i, j), a in numerators}, den)
    return BlowupStep(chart, direction, m, shifted)


def strict_transform_once(f: Polynomial) -> BlowupStep:
    """Blow up the origin once and follow the unique point of the strict transform.

    Requires a singular germ whose tangent cone is a single direction. Raises
    NotSingularError for a smooth germ and, for a split tangent cone, the
    NotABranchError with stage 0 that resolve_branch raises on the same germ.
    """
    aligned, direction, m = f.aligned()
    if m < 2:
        raise NotSingularError("the germ is smooth; nothing to blow up")
    return _blowup(aligned, direction, m, 0)


@dataclass(frozen=True)
class ResolutionSequence:
    """The full blowup history of a branch down to a smooth germ."""

    steps: tuple[BlowupStep, ...]
    multiplicity_sequence: tuple[int, ...]
    final_smooth: Polynomial


#: One stage of a resolution: the aligned germ and the blowup that made it.
Stage = tuple[Polynomial, Optional[BlowupStep]]


def _aligned_stages(f: Polynomial) -> Iterator[Stage]:
    """(aligned stage, the blowup that made it or None) along f's resolution.

    Blows up the polynomial it yields, after yielding it, so stage 0 comes
    out of any germ; the errors are resolve_branch's.

    A reduced germ never meets the budget d(d-1)/2, d = deg f: each blowup is at
    m >= 2 and adds m(m-1)/2 >= 1 to delta, so a singular stage s means delta >=
    s + 1, while local Bezout on f_x, f_y gives mu <= (d-1)^2 and, with r <= d
    branches, Milnor's delta = (mu + r - 1)/2 <= d(d-1)/2.
    """
    aligned, direction, m = f.aligned()
    budget = comb(f.total_degree(), 2)
    step = None
    for stage in count():
        yield aligned, step
        if m < 2:
            return
        if stage >= budget:
            raise NonIsolatedSingularityError(
                f"not smooth after {budget} blowups; the germ is not reduced"
            )
        step = _blowup(aligned, direction, m, stage)
        aligned, direction, m = step.strict_transform.aligned()


def _sequence(stages: list[Stage]) -> ResolutionSequence:
    """The resolution sequence of a complete list of aligned stages."""
    steps = tuple(step for _, step in stages[1:])
    return ResolutionSequence(steps, tuple(s.multiplicity_before for s in steps), stages[-1][0])


def resolve_branch(f: Polynomial) -> ResolutionSequence:
    """Blow up repeatedly until the followed germ is smooth.

    Raises NotABranchError (with the failing stage) as soon as some stage
    shows several tangent directions, and NonIsolatedSingularityError when
    the process exceeds deg(f)(deg(f) - 1)/2 steps, which only a non-reduced
    germ can do.
    """
    return _sequence(list(_aligned_stages(f)))


def delta_from_sequence(seq: ResolutionSequence) -> int:
    """Sum of m*(m-1)/2 over the multiplicity sequence."""
    return sum(m * (m - 1) // 2 for m in seq.multiplicity_sequence)


def mu_topological(seq: ResolutionSequence) -> int:
    """Milnor number of a branch from its multiplicity sequence alone."""
    return 2 * delta_from_sequence(seq)


@dataclass(frozen=True)
class PuiseuxCharacteristic:
    """Characteristic exponents (m; beta_1, ..., beta_g) of a branch.

    Valid data satisfies: m >= 1; for m = 1 there are no exponents; otherwise
    the exponents strictly increase, start above m and off the lattice m*Z,
    and the gcd chain e_0 = m, e_i = gcd(e_{i-1}, beta_i) strictly decreases
    down to e_g = 1.
    """

    m: int
    betas: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise InvalidCharacteristicError("multiplicity must be a positive integer")
        if self.m == 1:
            if self.betas:
                raise InvalidCharacteristicError(
                    "a smooth characteristic has no exponents"
                )
            return
        if not self.betas:
            raise InvalidCharacteristicError(
                "a singular characteristic needs at least one exponent"
            )
        if self.betas[0] <= self.m or self.betas[0] % self.m == 0:
            raise InvalidCharacteristicError(
                "the first exponent must exceed the multiplicity and avoid its multiples"
            )
        e = self.m
        previous = 0
        for beta in self.betas:
            if beta <= previous:
                raise InvalidCharacteristicError("exponents must strictly increase")
            previous = beta
            nxt = gcd(e, beta)
            if nxt == e:
                raise InvalidCharacteristicError(
                    f"exponent {beta} does not refine the gcd chain"
                )
            e = nxt
        if e != 1:
            raise InvalidCharacteristicError("the gcd chain must end at 1")

    @property
    def gcd_sequence(self) -> tuple[int, ...]:
        out = [self.m]
        for beta in self.betas:
            out.append(gcd(out[-1], beta))
        return tuple(out)

    def __str__(self) -> str:
        inner = ", ".join(str(b) for b in self.betas)
        return f"({self.m}; {inner})" if self.betas else f"({self.m};)"


def _euclid_runs(a: int, b: int) -> Iterator[tuple[int, int]]:
    """Euclid's algorithm on (a, b) as (divisor, quotient) pairs; the last divisor is the gcd."""
    while b:
        q, r = divmod(a, b)
        yield b, q
        a, b = b, r


def expected_sequence_from_characteristic(char: PuiseuxCharacteristic) -> list[int]:
    """Multiplicity sequence a branch with these exponents must produce.

    Runs Euclid's algorithm on (beta_i - beta_(i-1), e_(i-1)) for each
    exponent, with beta_0 = 0 and e_0 = m; each quotient q contributes q
    points of multiplicity equal to its divisor, and the last divisor is
    e_i. Points of multiplicity 1 are smooth and dropped, so smooth input
    gives the empty sequence.
    """
    sequence: list[int] = []
    e, previous = char.m, 0
    for beta in char.betas:
        for e, q in _euclid_runs(beta - previous, e):
            sequence += [e] * q
        previous = beta
    return [k for k in sequence if k > 1]


def characteristic_from_sequence(
    seq: Union[ResolutionSequence, Sequence[int]],
) -> PuiseuxCharacteristic:
    """Reconstruct the characteristic exponents from a multiplicity sequence.

    Reads the sequence forward, one exponent at a time: the q points of
    multiplicity e = e_(i-1) and the next multiplicity r (1 once the sequence
    has ended) give beta_i = beta_(i-1) + q*e + r, and the points that follow
    must be exactly the remaining runs of Euclid's algorithm on (e, r), down
    to e_i = gcd(e, r). Raises InconsistentSequenceError when no branch can
    realize the given sequence.
    """
    if isinstance(seq, ResolutionSequence):
        mults = list(seq.multiplicity_sequence)
    else:
        mults = list(seq)
    for m in mults:
        if not isinstance(m, int) or m < 2:
            raise InconsistentSequenceError(
                f"multiplicities must be integers >= 2, got {m!r}"
            )
    if not mults:
        return PuiseuxCharacteristic(1, ())
    inconsistent = f"no branch has the multiplicity sequence {mults}"
    # pad with the smooth points that follow the sequence; Euclid's last run
    # on a gcd of 1 is at most m long
    points = mults + [1] * mults[0]
    e, betas, pos = mults[0], [0], 0
    while e > 1:
        q = 0
        while points[pos + q] == e:
            q += 1
        pos += q
        r = points[pos]
        if r > e:
            raise InconsistentSequenceError(inconsistent)
        betas.append(betas[-1] + q * e + r)
        for e, k in _euclid_runs(e, r):
            if points[pos:pos + k] != [e] * k:
                raise InconsistentSequenceError(inconsistent)
            pos += k
    return PuiseuxCharacteristic(mults[0], tuple(betas[1:]))
