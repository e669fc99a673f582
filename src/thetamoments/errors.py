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

__all__ = ["DomainError", "PoleError", "PrecisionError"]


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at a pole of the function."""


class PrecisionError(ArithmeticError):
    """Requested tolerance unreachable at working precision.

    ``best`` holds the best-effort value (usually a ComplexApprox) and ``s``
    the evaluation point that missed its tolerance, where there is one.  The
    L path also sets ``stage`` (the largest part of the error: "Hurwitz part",
    "Dirichlet polynomial" or "transform rounding"), ``q``, ``tol`` (the
    caller's tolerance) and ``internal_tol`` (the analytic target per Hurwitz
    entry derived from it); its ``best`` is the refused result with the bound
    that missed: the L-value, or for all characters the row of values.
    """

    def __init__(self, message: str, best=None, s=None, stage=None, q=None, tol=None,
                 internal_tol=None):
        super().__init__(message)
        self.best = best
        self.s = s
        self.stage = stage
        self.q = q
        self.tol = tol
        self.internal_tol = internal_tol
