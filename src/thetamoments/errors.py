"""Shared exception types.

Three failure modes show up across the library and the CLI maps them to exit
codes, so they get their own classes instead of bare ValueErrors:

* DomainError    -- argument outside the documented domain (bad q, bad shift
                    tuple, tolerance out of range, ...).  CLI exit code 2.
* PoleError      -- evaluation requested exactly at a pole (zeta/L at s = 1).
* PrecisionError -- the requested tolerance cannot be met in float64; carries
                    the best-effort result so callers can decide to keep it.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at a pole of the function."""


class PrecisionError(ArithmeticError):
    """Requested tolerance unreachable at working precision.

    ``best`` holds the best-effort value (usually a ComplexApprox) and ``s``
    the evaluation point that missed its tolerance, where there is one.
    """

    def __init__(self, message: str, best=None, s=None):
        super().__init__(message)
        self.best = best
        self.s = s
