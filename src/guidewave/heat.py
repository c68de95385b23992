"""Exact-kernel heat propagator and wave-to-heat comparison norms.

The comparison solution solves dv/dt = v_xx on the line with initial data
equal to the cross-section mean of (a u0 + u1), and is evaluated by direct
quadrature against the Gaussian kernel and its derivatives.  The quadrature
sums are Toeplitz matrix-vector products and are computed by exact linear
(zero-padded) FFT convolution at a power-of-two length; the weighted kernel
norms apply the same circulant embedding, with complex transforms, inside a
Lanczos operator-norm estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

from . import resolvent
from .discretize import Grid1D, gradient_1d


def heat_kernel(t: float, xi: np.ndarray, derivative: str = "none") -> np.ndarray:
    """Gaussian kernel (4 pi t)^(-1/2) exp(-xi^2 / 4t) and derivatives in xi."""
    if t <= 0:
        raise ValueError(f"heat kernel needs t > 0, got t={t}")
    xi = np.asarray(xi, dtype=float)
    base = np.exp(-xi ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    if derivative == "none":
        return base
    if derivative == "dx":
        return -xi / (2.0 * t) * base
    if derivative == "lap":
        return (xi ** 2 / (4.0 * t ** 2) - 1.0 / (2.0 * t)) * base
    raise ValueError(f"unknown kernel derivative {derivative!r}")


def _convolution_length(n: int) -> int:
    """The power of two >= 2n - 1: a circular convolution of that length holds
    the linear one of two length-n sequences."""
    return 1 << (2 * n - 2).bit_length()


def _circulant_kernel(t: float, d: np.ndarray, derivative: str, length: int) -> np.ndarray:
    """Column of a circulant of ``length`` >= 2N - 1 whose leading block is the
    Toeplitz K(x_i - x_j), d = x - x_0: the kernel at offsets 0..N-1 leads, at
    -(N-1)..-1 it closes the period, and the zeros between keep the wrap-around
    of a circular convolution out of the N results."""
    n = len(d)
    kern = np.zeros(length)
    kern[:n] = heat_kernel(t, d, derivative)
    kern[length - n + 1:] = heat_kernel(t, -d[:0:-1], derivative)
    return kern


def heat_apply(w0: np.ndarray, grid: Grid1D, t: float, derivative: str = "none") -> np.ndarray:
    """Evaluate (d^beta e^{t Lap} w0) on the grid by kernel quadrature.

    The quadrature is the Toeplitz product with the kernel at the node
    offsets, computed as a real circular convolution with the
    ``_circulant_kernel`` at the length ``_convolution_length(N)``.
    """
    w0 = np.asarray(w0, dtype=float)
    n = grid.N
    if w0.shape != (n,):
        raise ValueError(f"expected data of shape ({n},), got {w0.shape}")
    length = _convolution_length(n)
    kern = _circulant_kernel(t, grid.xs - grid.xs[0], derivative, length)
    conv = irfft(rfft(kern) * rfft(w0, n=length), n=length)
    return grid.h * conv[:n]


def p0_heat_data(modes0: np.ndarray, vmodes0: np.ndarray, a: np.ndarray,
                 yfactor: float) -> np.ndarray:
    """Initial heat data: cross-section mean of (a u0 + u1).

    ``yfactor`` is sqrt(L) for the guide (mode-0 coefficients carry that
    normalization) and 1 on the Euclidean line.
    """
    return (a * modes0[0] + vmodes0[0]) / yfactor


@dataclass(frozen=True)
class HeatSolution:
    """Comparison solution v of the line heat equation; dv/dt = v_xx."""

    grid: Grid1D
    w0: np.ndarray = field(repr=False)

    def value(self, t: float) -> np.ndarray:
        return heat_apply(self.w0, self.grid, t, "none")

    def dx(self, t: float) -> np.ndarray:
        return heat_apply(self.w0, self.grid, t, "dx")

    def dt(self, t: float) -> np.ndarray:
        return heat_apply(self.w0, self.grid, t, "lap")

    def mass(self) -> float:
        return self.grid.h * float(np.sum(self.w0))


COMPARE_COLUMNS = ("t", "norm_grad_diff", "norm_dt_diff", "norm_grad_v", "norm_dt_v",
                   "ratio_grad", "ratio_dt")


def compare(state, heat: HeatSolution, yfactor: float,
            w: np.ndarray | float = 1.0) -> dict[str, float] | None:
    """Difference norms between one wave state and the heat solution at its time.

    A state at t = 0 gives None (the kernel is singular there); any other
    gives one row, keyed by ``COMPARE_COLUMNS``.  The heat solution lives on
    mode 0, the mean mode (lambda_0 = 0); the gradient difference includes
    the transverse part of u, which v lacks.  Norms are over the guide,
    weighted by ``w``, the samples of <x>^(-delta1) formed once per run as
    ``weight(heat.grid, -delta1)`` (the default 1.0 leaves them unweighted).
    """
    grid = heat.grid
    if state.grid != grid:
        raise ValueError(f"state is sampled on {state.grid}, the heat solution on {grid}")
    if state.t <= 0.0:
        return None
    h = grid.h

    def wsq(f):
        """Weighted squared norm along x, per mode for a (K, N) block."""
        return h * np.sum(np.abs(w * f) ** 2, axis=-1)

    vx = heat.dx(state.t)
    vt = heat.dt(state.t)
    du = gradient_1d(state.modes, grid)
    du[0] -= yfactor * vx
    dv = state.vmodes.copy()
    dv[0] -= yfactor * vt
    grad_diff = math.sqrt(float(np.sum(wsq(du) + state.lambdas * wsq(state.modes))))
    dt_diff = math.sqrt(float(np.sum(wsq(dv))))
    norm_grad_v = yfactor * math.sqrt(wsq(vx))
    norm_dt_v = yfactor * math.sqrt(wsq(vt))
    return {"t": state.t, "norm_grad_diff": grad_diff, "norm_dt_diff": dt_diff,
            "norm_grad_v": norm_grad_v, "norm_dt_v": norm_dt_v,
            "ratio_grad": grad_diff / norm_grad_v if norm_grad_v > 0 else math.inf,
            "ratio_dt": dt_diff / norm_dt_v if norm_dt_v > 0 else math.inf}


def comparison_table(rows) -> dict[str, np.ndarray]:
    """Columns of the ``compare`` rows, in order; the None of t = 0 is skipped."""
    rows = [r for r in rows if r is not None]
    return {k: np.array([r[k] for r in rows]) for k in COMPARE_COLUMNS}


#: node cap of the ``heat_weighted_norm`` quadrature window
WEIGHTED_NORM_MAX_NODES = 1600


def heat_weighted_norm(t: float, beta: int | str, s: float, s1: float, s2: float,
                       kappa: float, xw: float | None = None) -> float:
    """Operator norm of <x>^(-kappa s1 - s) d^beta e^{t Lap} <x>^(-kappa s2 - s).

    beta in {0, 1} with s in [0, beta], or beta = "lap" with s = 0 (the
    second-derivative estimate, weights <x>^(-kappa s_j)).  The weighted
    kernel quadrature on |x| <= xw, by default max(10 sqrt(t), 10), with at
    most ``WEIGHTED_NORM_MAX_NODES`` nodes, is applied as hw wl T wr, T the
    Toeplitz matrix K(x_i - x_j), by complex circular convolution with the
    ``_circulant_kernel`` at ``_convolution_length(n)``; the kernel is real, so
    the adjoint T^T convolves with the conjugate transform.  The top singular
    value is a Lanczos estimate from the start vector of key 0.
    """
    if beta == "lap":
        derivative = "lap"
        if s != 0.0:
            raise ValueError(f"the second-derivative flavor requires s = 0, got s={s}")
    elif beta in (0, 1):
        derivative = "none" if beta == 0 else "dx"
        if not 0.0 <= s <= float(beta):
            raise ValueError(f"need s in [0, |beta|] = [0, {beta}], got s={s}")
    else:
        raise ValueError(f"kernel derivative order must be 0, 1 or 'lap', got {beta!r}")
    if not (0.0 <= s1 <= 0.5 and 0.0 <= s2 <= 0.5):
        raise ValueError(f"need s1, s2 in [0, 1/2] for d = 1, got s1={s1}, s2={s2}")
    if kappa <= 1.0:
        raise ValueError(f"need kappa > 1, got kappa={kappa}")
    if t <= 0:
        raise ValueError(f"need t > 0, got t={t}")

    if xw is None:
        xw = max(10.0 * math.sqrt(t), 10.0)
    n = int(min(WEIGHTED_NORM_MAX_NODES, max(256, round(2.0 * xw / 0.1))))
    xs = np.linspace(-xw, xw, n)
    hw = xs[1] - xs[0]

    outer = np.arange(xw, xw + 20.0 * math.sqrt(t), hw)
    leak = hw * float(np.sum(np.abs(heat_kernel(t, outer, derivative))))
    if leak > 1e-8:
        raise ValueError(
            f"window half-width {xw} too small at t={t}: boundary-column mass {leak:.3e} > 1e-8")

    wl = (1.0 + xs ** 2) ** (-(kappa * s1 + s) / 2.0)
    wr = (1.0 + xs ** 2) ** (-(kappa * s2 + s) / 2.0)
    length = _convolution_length(n)
    kern_f = fft(_circulant_kernel(t, xs - xs[0], derivative, length))
    kern_f_adj = np.conj(kern_f)

    def apply_op(x):
        return hw * wl * ifft(kern_f * fft(wr * x, n=length))[:n]

    def apply_adjoint(y):
        return hw * wr * ifft(kern_f_adj * fft(wl * y, n=length))[:n]

    sigma, _ = resolvent.iterative_norm(apply_op, apply_adjoint, n, 0)
    return sigma
