"""Six stationary gamma processes with a common Ga(alpha, beta) marginal and
exp(-lambda|s-t|) autocorrelation, plus the analytic formulas and statistical
machinery needed to verify them and tell their joint laws apart.
"""

__version__ = "0.1.0"

from . import analytic, core, processes, stats
from .analytic import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .processes import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403

__all__ = ["__version__", *core.__all__, *analytic.__all__, *processes.__all__, *stats.__all__]
