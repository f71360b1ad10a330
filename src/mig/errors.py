"""Exception types raised across the package."""

from __future__ import annotations


class MigError(Exception):
    """Base class for all package errors."""


class EmptyFamily(MigError):
    """A basis family must be nonempty."""


class CardinalityMismatch(MigError):
    """All members of a basis family must have the same size."""


class ExchangeAxiomViolation(MigError):
    """Basis exchange fails; carries a witness triple (A, B, a)."""

    def __init__(self, a_mask: int, b_mask: int, element: int):
        self.witness = (a_mask, b_mask, element)
        super().__init__(
            f"exchange fails for A={a_mask:#x}, B={b_mask:#x}, a={element}"
        )


class RankDeficient(MigError):
    """A realization matrix does not have full row rank."""


class OutOfRange(MigError):
    """An element or subset refers outside the ground set."""


class GuardExceeded(MigError):
    """An enumeration guard was exceeded; raise rather than truncate."""


class AxiomViolation(MigError):
    """A flat-lattice presentation violates one of its axioms.

    `axiom` is 1, 2 or 3 (0 means the family is not a lattice); `witness`
    is the offending pair of flats.
    """

    def __init__(self, axiom: int, x_mask: int, y_mask: int, detail: str = ""):
        self.axiom = axiom
        self.witness = (x_mask, y_mask)
        msg = f"axiom {axiom} fails for X={x_mask:#x}, Y={y_mask:#x}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotSparsePavingRank3(MigError):
    """The doubling construction needs a rank-3 sparse paving input."""


class SignDomainMismatch(MigError):
    """A sign assignment must cover exactly the cyclic hyperplanes."""


class NotCovering(MigError):
    """The chosen structure does not cover the matroid."""


class OutOfAlphabet(MigError):
    """A question or answer index is outside the game alphabet."""


class MalformedAssignment(MigError):
    """A constraint assignment has the wrong variables or values."""


class InvariantViolation(MigError):
    """A construction-time self check failed."""


class DimensionMismatch(MigError):
    """Operator dimensions or constraint-system shape do not match."""


class ConstructionInconsistency(MigError):
    """A construction step produced or met inconsistent data."""


class UnsupportedKind(MigError):
    """The requested structure kind is not available for this operation."""
