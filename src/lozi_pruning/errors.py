"""Exception types shared across the package."""

from __future__ import annotations


class LoziError(Exception):
    """Base class for all package-specific errors."""


class NotHyperbolic(LoziError):
    """Parameters violate a > 1 + |b|."""


class InsufficientWord(LoziError):
    """The word does not carry enough symbols for the requested depth."""


class BudgetExceeded(LoziError):
    """An enumeration or growth budget was exhausted."""


class NoFixedPoint(LoziError):
    """No fixed point exists at these parameters."""


class NonInvertible(LoziError):
    """Inverse-map construction requested at b = 0."""


class NotInvariant(LoziError):
    """Polygon invariance check failed.

    Carries the offending image point and its (negative) containment margin.
    """

    def __init__(self, message: str, witness: tuple[float, float], margin: float):
        super().__init__(message)
        self.witness = witness
        self.margin = margin


class WrongParams(LoziError):
    """Parameters outside the domain of the requested construction."""
