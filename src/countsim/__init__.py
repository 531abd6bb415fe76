"""Simulation and verification toolkit for multivariate count autoregressions.

Three model families (thinning-based GINAR, linear-intensity and log-linear
count processes) simulated as iterated random maps, with machine-checked
stability conditions, common-noise coupling experiments and Monte Carlo
moment estimation against closed-form oracles.
"""

__version__ = "0.1.0"

from .analysis import (
    ConditionReport,
    check_ginar,
    check_ingarch,
    check_loglinear,
    check_model,
    poisson_mgf,
    poisson_raw_moment,
    stirling2,
)
from .engine import (
    CouplingEnsemble,
    MomentReport,
    SamplePath,
    couple,
    couple_ensemble,
    monte_carlo_moments,
    simulate,
)
from .errors import ConfigurationError, DivergenceError, StationarityError
from .linalg import companion, matrix_norm, spectral_radius, stationary_mean
from .models import (
    GinarSpec,
    ImmigrationSpec,
    IngarchSpec,
    LogLinearSpec,
    default_window,
    step,
)
from .randomness import Dependence

__all__ = [
    "__version__",
    "ConditionReport",
    "check_ginar",
    "check_ingarch",
    "check_loglinear",
    "check_model",
    "poisson_mgf",
    "poisson_raw_moment",
    "stirling2",
    "CouplingEnsemble",
    "MomentReport",
    "SamplePath",
    "couple",
    "couple_ensemble",
    "monte_carlo_moments",
    "simulate",
    "ConfigurationError",
    "DivergenceError",
    "StationarityError",
    "companion",
    "matrix_norm",
    "spectral_radius",
    "stationary_mean",
    "GinarSpec",
    "ImmigrationSpec",
    "IngarchSpec",
    "LogLinearSpec",
    "default_window",
    "step",
    "Dependence",
]
