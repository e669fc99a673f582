"""Desk-scale numerics for character theta series and Dirichlet L-moments.

Layers, bottom up: numtheory (sieve, factorization, unit-group structure),
specfun (Hurwitz zeta / log-gamma with certified error bounds), characters
(Dirichlet characters as exponent tuples, batch transforms), reports (moment
reports, CSV and the JSON envelope), bounds (shift tuples, closed-form bound
shapes), lfunc (critical-line L-values, central and shifted moments,
large-value counts, a GRH majorant), theta (theta series, moments, Mellin
cross-check), randmodel (Steinhaus Monte-Carlo model), then cli.

The package re-exports each module's __all__, the one list of its public
names; no name has two home modules.

Everything numerical is deterministic and runs on the calling thread:
fixed-chunk reductions fix the summation order, and Monte-Carlo runs are
seeded per sample.
"""

# set before the submodule imports: reports reads it while the package loads
__version__ = "0.1.0"

from . import errors, numtheory, specfun, characters, reports, bounds, lfunc, theta, randmodel
from .errors import *
from .numtheory import *
from .specfun import *
from .characters import *
from .reports import *
from .bounds import *
from .lfunc import *
from .theta import *
from .randmodel import *

__all__ = ["__version__", *(name for m in (errors, numtheory, specfun, characters, reports,
                                            bounds, lfunc, theta, randmodel) for name in m.__all__)]
