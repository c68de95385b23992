"""Numerical laboratory for the damped wave equation on a wave guide."""

__version__ = "0.1.0"

from .discretize import DampingProfile, Grid1D, WeightSpec, gradient_1d, mode_operator
from .errors import ConfigError, ConvergenceError, GuidewaveError, SolveError
from .evolve import EnergyRecord, WaveState, energy, run
from .fit import DecayFit, fit_exponential, fit_power, predict_exponent
from .heat import HeatSolution, heat_apply, heat_weighted_norm
from .transverse import transverse_eigenvalues

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "GuidewaveError", "SolveError",
    "DampingProfile", "Grid1D", "WeightSpec",
    "gradient_1d", "mode_operator",
    "EnergyRecord", "WaveState", "energy", "run",
    "DecayFit", "fit_exponential", "fit_power", "predict_exponent",
    "HeatSolution", "heat_apply", "heat_weighted_norm",
    "transverse_eigenvalues",
]
