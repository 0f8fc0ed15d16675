"""Exception hierarchy shared by every module in the package.

All domain failures derive from GermError so callers (and the CLI) can
distinguish "bad input" from genuine bugs.
"""


class GermError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(GermError):
    """Input text does not match the polynomial grammar."""


class UnknownVariableError(ParseError):
    """A variable other than x or y appeared in the input."""


class ZeroPolynomialError(GermError):
    """The zero polynomial was given where a nonzero one is required."""


class SingularMatrixError(GermError):
    """A linear substitution was requested with a non-invertible matrix."""


class DegreeCapError(GermError):
    """Parsed input exceeds the configured total-degree cap."""


class ZeroIdealError(GermError):
    """Every supplied generator was zero."""


class NotAGermError(GermError):
    """The polynomial does not vanish at the origin, so it defines no germ there."""


class NonIsolatedSingularityError(GermError):
    """The singularity is not isolated (or is non-reduced), so counts diverge."""


class NotSingularError(GermError):
    """A smooth germ was given where a singular one is required."""


class ReducibleTangentConeError(GermError):
    """The tangent cone has several distinct directions; no single center exists."""


class NotABranchError(GermError):
    """The germ is not irreducible; branch-only computations cannot proceed.

    ``stage`` records how many blowups succeeded before reducibility surfaced.
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class InconsistentSequenceError(GermError):
    """The integer sequence cannot arise as a multiplicity sequence of a branch."""


class InvalidCharacteristicError(GermError):
    """The exponent data violates the defining constraints of a characteristic."""


class CorpusFormatError(GermError):
    """A corpus file line does not follow the expected tab-separated format."""


class MultiplicityTooSmallError(GermError):
    """A bound was requested for multiplicity below 2, where it is undefined."""


class SmoothGermError(GermError):
    """A ratio test was requested for a smooth germ, where it is undefined."""


class ComputationBudgetError(GermError):
    """A computation ran past its work budget; the message names the phase."""
