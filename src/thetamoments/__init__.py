"""Desk-scale numerics for character theta series and Dirichlet L-moments.

Layers, bottom up: numtheory (sieve, factorization, unit-group structure),
characters (Dirichlet characters as exponent tuples, batch transforms),
specfun (Hurwitz zeta / log-gamma with certified error bounds), lfunc
(critical-line L-values, central and shifted moments, large-value counts,
a GRH majorant), theta (theta series, moments, Mellin cross-check), bounds
(closed-form bound shapes), randmodel (Steinhaus Monte-Carlo model), cli.

Everything numerical is deterministic and runs on the calling thread:
fixed-chunk reductions fix the summation order, Monte-Carlo runs are seeded
per sample, and the `workers=` keywords are accepted and ignored.
"""

# set before the submodule imports: reports reads it while the package loads
__version__ = "0.1.0"

from .bounds import (
    BoundProfile,
    RegimeBound,
    ShiftTuple,
    bound_profile,
    cos_sum_check,
    cutoff_exponent,
    large_value_bound,
    pair_factor,
    pair_log_weight,
    shifted_moment_bound,
    variance_parameter,
)
from .characters import FAMILIES, Character, CharacterGroup, build_group, gauss_sum
from .errors import DomainError, PoleError, PrecisionError
from .lfunc import (
    LAMBDA0,
    LargeValueHistogram,
    central_moment,
    l_value,
    l_values_all_chars,
    lambda_zero,
    large_value_counts,
    log_l_majorant,
    shifted_moment,
)
from .numtheory import (
    Factorization,
    GroupStructure,
    PrimeTable,
    euler_phi,
    factorize,
    group_structure,
    primitive_root,
    sieve,
)
from .randmodel import ModelMomentEstimate, SteinhausSample, model_moment, model_theta, sample
from .reports import MomentReport, ReportEnvelope, make_envelope
from .specfun import (
    ComplexApprox,
    digamma_vector,
    gamma_fn,
    hurwitz_zeta,
    hurwitz_zeta_vector,
    log_gamma,
)
from .theta import (
    MellinCheckResult,
    mellin_check,
    mellin_checks,
    theta_all_chars,
    theta_moment,
    theta_value,
    truncation_length,
)

__all__ = [
    "__version__",
    # errors
    "DomainError", "PoleError", "PrecisionError",
    # numtheory
    "PrimeTable", "Factorization", "GroupStructure", "sieve", "factorize",
    "euler_phi", "primitive_root", "group_structure",
    # characters
    "FAMILIES", "Character", "CharacterGroup", "build_group", "gauss_sum",
    # specfun
    "ComplexApprox", "hurwitz_zeta",
    "hurwitz_zeta_vector", "digamma_vector", "log_gamma", "gamma_fn",
    # lfunc
    "LargeValueHistogram", "LAMBDA0", "lambda_zero", "l_value",
    "l_values_all_chars", "central_moment", "shifted_moment",
    "large_value_counts", "log_l_majorant",
    # theta
    "MellinCheckResult", "truncation_length", "theta_value", "theta_all_chars",
    "theta_moment", "mellin_check", "mellin_checks",
    # bounds
    "ShiftTuple", "BoundProfile", "RegimeBound", "pair_log_weight",
    "pair_factor", "variance_parameter", "cutoff_exponent", "large_value_bound",
    "shifted_moment_bound", "cos_sum_check", "bound_profile",
    # randmodel
    "SteinhausSample", "ModelMomentEstimate", "sample", "model_theta",
    "model_moment",
    # reports
    "MomentReport", "ReportEnvelope", "make_envelope",
]
