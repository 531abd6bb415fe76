"""Simulation and verification toolkit for multivariate count autoregressions.

Three model families (thinning-based GINAR, linear-intensity and log-linear
count processes) simulated as iterated random maps, with machine-checked
stability conditions, common-noise coupling experiments and Monte Carlo
moment estimation against closed-form oracles.

Importing the package loads no submodule and changes nothing process-wide:
each public name, and each submodule such as ``countsim.linalg``, loads its
submodule on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "analysis": "ConditionReport check_ginar check_ingarch check_loglinear check_model "
                "poisson_mgf poisson_raw_moment stirling2",
    "engine": "CouplingEnsemble MomentReport SamplePath couple couple_ensemble monte_carlo_moments simulate",
    "errors": "ConfigurationError DivergenceError StationarityError",
    "linalg": "companion matrix_norm spectral_radius stationary_mean",
    "models": "GinarSpec ImmigrationSpec IngarchSpec LogLinearSpec default_window step",
    "randomness": "Dependence",
}.items() for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    try:
        found = importlib.import_module(f"{__name__}.{module}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{module}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(found, name) if name in _EXPORTS else found
