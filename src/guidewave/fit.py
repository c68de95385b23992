"""Decay-exponent estimation and predicted rates.

Power-law fits regress log y on log t; exponential fits regress log y on t.
The decay estimates being verified are upper bounds, so verdicts are
one-sided ("decays at least this fast", slack +0.15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import WeightSpec

ONE_SIDED_TOL = 0.15

POWER = "power"
EXPONENTIAL = "exponential"

MIN_WINDOW_SAMPLES = 12


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    stderr: float
    window: tuple[float, float]
    model: str
    predicted: float | None
    curvature: float
    n_samples: int
    rss: float

    @property
    def aic(self) -> float:
        n = self.n_samples
        return n * math.log(max(self.rss, 1e-300) / n) + 4.0

    def verdict(self) -> str:
        """pass/fail against the predicted exponent; 'informative' if none."""
        if self.predicted is None:
            return "informative"
        if self.exponent > self.predicted + ONE_SIDED_TOL:
            return "fail"
        return "pass"


def _windowed(t, y, window):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = window
    if lo < 1.0:
        raise ValueError(f"fit windows start at t >= 1, got t_min={lo}")
    mask = (t >= lo) & (t <= hi) & (y > 0.0)
    if np.any((t >= lo) & (t <= hi) & (y <= 0.0)):
        raise ValueError("series contains nonpositive samples inside the fit window")
    if mask.sum() < MIN_WINDOW_SAMPLES:
        raise ValueError(f"fit window [{lo}, {hi}] holds {int(mask.sum())} samples, "
                         f"need >= {MIN_WINDOW_SAMPLES}")
    return t[mask], y[mask]


def _linear_fit(x, ly):
    n = x.size
    coef = np.polyfit(x, ly, 1)
    slope, _ = coef
    resid = ly - np.polyval(coef, x)
    rss = float(np.sum(resid ** 2))
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(rss / max(n - 2, 1) / sxx) if sxx > 0 else math.inf
    quad = np.polyfit(x, ly, 2)
    return float(slope), stderr, rss, float(quad[0])


def fit_power(t, y, window=(1.0, math.inf), predicted: float | None = None) -> DecayFit:
    """Least squares of log y on log t; exponent is the fitted slope."""
    tt, yy = _windowed(t, y, window)
    slope, stderr, rss, curv = _linear_fit(np.log(tt), np.log(yy))
    return DecayFit(exponent=slope, stderr=stderr, window=(float(window[0]), float(window[1])),
                    model=POWER, predicted=predicted, curvature=curv,
                    n_samples=tt.size, rss=rss)


def fit_exponential(t, y, window=(1.0, math.inf), predicted: float | None = None) -> DecayFit:
    """Least squares of log y on t; exponent is the fitted rate."""
    tt, yy = _windowed(t, y, window)
    rate, stderr, rss, curv = _linear_fit(tt, np.log(yy))
    return DecayFit(exponent=rate, stderr=stderr, window=(float(window[0]), float(window[1])),
                    model=EXPONENTIAL, predicted=predicted, curvature=curv,
                    n_samples=tt.size, rss=rss)


def compare_models(t, y, window=(1.0, math.inf)) -> dict:
    """AIC comparison of the power and exponential models on one series."""
    pw = fit_power(t, y, window)
    ex = fit_exponential(t, y, window)
    return {"power": pw, "exponential": ex,
            "better": EXPONENTIAL if ex.aic < pw.aic else POWER}


DECAY_TRACKS = ("energy_decay_grad", "energy_decay_dt",
                  "heat_compare_grad_diff", "heat_compare_dt_diff",
                  "dirichlet_highfreq")


def predict_exponent(track: str, weights: WeightSpec, k: int = 1, d: int = 1,
                     rho: float = math.inf) -> float:
    """Predicted power-law exponent for a decay track.

    energy_decay_grad       -(1 + s1 + s2 + s) / 2
    energy_decay_dt         -(2 + s1 + s2) / 2
    heat_compare_grad_diff  -(1 + s1 + s2 + s~) / 2
    heat_compare_dt_diff    -(2 + s1 + s2 + s~) / 2
    dirichlet_highfreq      -k / 2

    The auxiliary exponent s doubles as s~ of the comparison track (the
    admissible ranges coincide for d = 1).  Hypotheses are validated first
    and violations are reported by name.
    """
    if track not in DECAY_TRACKS:
        raise ValueError(f"unknown decay track {track!r}; choose from {DECAY_TRACKS}")
    if track == "dirichlet_highfreq":
        if k < 1:
            raise ValueError(f"regularity order must satisfy k >= 1, got k={k}")
        return -k / 2.0
    weights.validate_decay_hypotheses(d=d, rho=rho)
    s1, s2, s = weights.s1, weights.s2, weights.s
    if track == "energy_decay_grad":
        return -(1.0 + s1 + s2 + s) / 2.0
    if track == "energy_decay_dt":
        return -(2.0 + s1 + s2) / 2.0
    if track == "heat_compare_grad_diff":
        return -(1.0 + s1 + s2 + s) / 2.0
    return -(2.0 + s1 + s2 + s) / 2.0
