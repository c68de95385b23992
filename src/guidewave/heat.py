"""Exact-kernel heat propagator and wave-to-heat comparison norms.

The comparison solution solves dv/dt = v_xx on the line with initial data
equal to the cross-section mean of (a u0 + u1), and is evaluated by direct
quadrature against the Gaussian kernel and its derivatives.  The quadrature
sums are Toeplitz matrix-vector products and are computed by exact linear
(zero-padded) FFT convolution at a fast FFT length; the weighted kernel norms
apply the same circulant embedding, with complex transforms, inside a Lanczos
operator-norm estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from .discretize import Grid1D, gradient_1d, weight


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
    ``_circulant_kernel`` at the fast FFT length L = next_fast_len(2N - 1).
    """
    w0 = np.asarray(w0, dtype=float)
    n = grid.N
    if w0.shape != (n,):
        raise ValueError(f"expected data of shape ({n},), got {w0.shape}")
    length = next_fast_len(2 * n - 1, real=True)
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


def compare(snapshots, heat: HeatSolution, grid: Grid1D, lambdas: np.ndarray,
            yfactor: float, delta1: float = 0.0, order: int = 4) -> dict[str, np.ndarray]:
    """Difference norms between wave snapshots and the heat solution.

    Snapshots at t = 0 are skipped (the kernel is singular there).  The heat
    solution lives on mode 0, the mean mode (lambda_0 = 0); the gradient
    difference includes the transverse part of u, which v lacks.  Norms are
    over the guide, weighted by <x>^(-delta1).
    """
    w = weight(grid, -delta1) if delta1 != 0.0 else np.ones(grid.N)
    h = grid.h
    lambdas = np.asarray(lambdas, dtype=float)
    rows = {k: [] for k in ("t", "norm_grad_diff", "norm_dt_diff",
                            "norm_grad_v", "norm_dt_v", "ratio_grad", "ratio_dt")}

    def wsq(f):
        """Weighted squared norm along x, per mode for a (K, N) block."""
        return h * np.sum(np.abs(w * f) ** 2, axis=-1)

    for state in snapshots:
        if state.modes.shape[1] != grid.N or heat.grid.N != grid.N:
            raise ValueError(
                f"snapshot/heat grids do not match the comparison grid N={grid.N}")
        if state.t <= 0.0:
            continue
        vx = heat.dx(state.t)
        vt = heat.dt(state.t)
        du = gradient_1d(state.modes, grid, order=order)
        du[0] -= yfactor * vx
        dv = state.vmodes.copy()
        dv[0] -= yfactor * vt
        grad_diff = math.sqrt(float(np.sum(wsq(du) + lambdas * wsq(state.modes))))
        dt_diff = math.sqrt(float(np.sum(wsq(dv))))
        norm_grad_v = yfactor * math.sqrt(wsq(vx))
        norm_dt_v = yfactor * math.sqrt(wsq(vt))
        rows["t"].append(state.t)
        rows["norm_grad_diff"].append(grad_diff)
        rows["norm_dt_diff"].append(dt_diff)
        rows["norm_grad_v"].append(norm_grad_v)
        rows["norm_dt_v"].append(norm_dt_v)
        rows["ratio_grad"].append(grad_diff / norm_grad_v if norm_grad_v > 0 else math.inf)
        rows["ratio_dt"].append(dt_diff / norm_dt_v if norm_dt_v > 0 else math.inf)
    return {k: np.array(v) for k, v in rows.items()}


def heat_weighted_norm(t: float, beta: int | str, s: float, s1: float, s2: float,
                       kappa: float, xw: float | None = None, max_nodes: int = 1600) -> float:
    """Operator norm of <x>^(-kappa s1 - s) d^beta e^{t Lap} <x>^(-kappa s2 - s).

    beta in {0, 1} with s in [0, beta], or beta = "lap" with s = 0 (the
    second-derivative estimate, weights <x>^(-kappa s_j)).  The weighted
    kernel quadrature on a window of half-width >= 10 sqrt(t) is applied as
    hw wl T wr, T the Toeplitz matrix K(x_i - x_j), by complex circular
    convolution with the ``_circulant_kernel`` at next_fast_len(2n - 1); the
    kernel is real, so the adjoint T^T convolves with the conjugate
    transform.  The top singular value is a Lanczos estimate from a fixed
    seeded start vector.
    """
    if beta == "lap" or beta == 2:
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
    n = int(min(max_nodes, max(256, round(2.0 * xw / 0.1))))
    xs = np.linspace(-xw, xw, n)
    hw = xs[1] - xs[0]

    outer = np.arange(xw, xw + 20.0 * math.sqrt(t), hw)
    leak = hw * float(np.sum(np.abs(heat_kernel(t, outer, derivative))))
    if leak > 1e-8:
        raise ValueError(
            f"window half-width {xw} too small at t={t}: boundary-column mass {leak:.3e} > 1e-8")

    wl = (1.0 + xs ** 2) ** (-(kappa * s1 + s) / 2.0)
    wr = (1.0 + xs ** 2) ** (-(kappa * s2 + s) / 2.0)
    length = next_fast_len(2 * n - 1)
    kern_f = fft(_circulant_kernel(t, xs - xs[0], derivative, length))
    kern_f_adj = np.conj(kern_f)

    def apply_op(x):
        return hw * wl * ifft(kern_f * fft(wr * x, n=length))[:n]

    def apply_adjoint(y):
        return hw * wr * ifft(kern_f_adj * fft(wl * y, n=length))[:n]

    # imported here so that importing the package does not load the resolvent
    # layer (the Lanczos estimator, the sine transforms) ahead of the modules
    # that need it
    from .resolvent import iterative_norm

    sigma, _ = iterative_norm(apply_op, apply_adjoint, n, np.random.default_rng(0))
    return sigma
