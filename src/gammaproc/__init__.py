"""Six stationary gamma processes with a common Ga(alpha, beta) marginal and
exp(-lambda|s-t|) autocorrelation, plus the analytic formulas and statistical
machinery needed to verify them and tell their joint laws apart.
"""

__version__ = "0.1.0"

from .core import (
    Dependence,
    Ensemble,
    GammaParams,
    NumericalError,
    ParameterError,
    ProcessKind,
    RandomSource,
    SamplePath,
    TimeGrid,
    UnsupportedKindError,
    derive_stream,
    make_uniform_grid,
)
from .analytic import (
    LevyTail,
    TestFunction,
    cir_transition_density,
    gamma_chf,
    gamma_survival,
    generator_apply,
    innovation_chf,
    levy_tail,
    log_bessel_i,
    pair_chf,
    rm_joint_chf,
)
from .processes import (
    CirMethod,
    CthinConfig,
    TentPartition,
    ar1_path,
    changepoint_path,
    cir_path,
    cthin_path,
    marginal_sample,
    random_measure_path,
    simulate_ensemble,
    tent_partition,
    thinned_path,
    triplet_sample,
    walker_sample,
)
from .stats import (
    AcfReport,
    ChfComparison,
    ChfEstimate,
    GeneratorCheck,
    KsReport,
    MomentReport,
    ReversibilityReport,
    TailTable,
    chf_gof,
    default_omega_axis,
    default_omega_pairs,
    empirical_acf,
    empirical_chf,
    empirical_moments,
    generator_check,
    ks_statistic,
    reversibility_check,
    tail_check,
    two_sample_chf,
)

__all__ = [
    "__version__",
    # core
    "GammaParams", "Dependence", "TimeGrid", "make_uniform_grid", "ProcessKind",
    "SamplePath", "Ensemble", "RandomSource", "derive_stream",
    "ParameterError", "NumericalError", "UnsupportedKindError",
    # analytic
    "gamma_chf", "innovation_chf", "pair_chf", "rm_joint_chf",
    "log_bessel_i", "cir_transition_density", "TestFunction", "generator_apply",
    "LevyTail", "levy_tail", "gamma_survival",
    # processes
    "TentPartition", "tent_partition", "ar1_path", "thinned_path",
    "random_measure_path", "changepoint_path", "CirMethod", "cir_path",
    "CthinConfig", "cthin_path", "simulate_ensemble",
    "walker_sample", "marginal_sample", "triplet_sample",
    # stats
    "MomentReport", "empirical_moments", "AcfReport", "empirical_acf",
    "KsReport", "ks_statistic", "ChfEstimate", "empirical_chf",
    "ChfComparison", "chf_gof", "two_sample_chf",
    "ReversibilityReport", "reversibility_check",
    "GeneratorCheck", "generator_check", "TailTable", "tail_check",
    "default_omega_axis", "default_omega_pairs",
]
