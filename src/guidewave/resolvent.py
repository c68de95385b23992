"""Complex-shifted solves, operator-norm scans, and low/high frequency probes.

Every operator norm is the top singular value of a matrix-free operator, by
the Lanczos three-term recurrence on T^*T (T T^* for a wide T) from a seeded
start vector.  The recurrence stores no basis, tests its top Ritz pair at
every step, stops once the normal-operator residual is at most tol^2 sigma^2
and reports that measured residual.  A run that the step budget cuts short
returns its Ritz value only when a certified upper bound pins it to within
tol, and raises ``ConvergenceError`` otherwise.  Sobolev scalings
(1 - d^2/dx^2)^(+-beta/2) are diagonal in the sine basis of the truncation
box; since the orthonormal DST-I is its own inverse, a scan measures the mode
solve in scaled sine coefficients, one transform per scaled side of each
application.  A norm scan takes the max over transverse modes.  Each mode's
numerical-range bound (``mode_norm_bound``) skips the mode when it is below
the running max, which cuts the elliptic tail lam_k > tau^2, and certifies
its estimate otherwise.  The energy norm of the first-order operator uses the
band Cholesky factor of -D2 + lam (``EnergyNormResolvent``).  The dense
oracles for these norms live in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst
from scipy.linalg import get_lapack_funcs

from .discretize import (BandCholesky, DampingProfile, Grid1D, ShiftedOperator,
                         gradient_1d, laplacian_1d, mode_operator, weight)
from .errors import ConvergenceError

#: relative move of a norm on the 1.5X box that flags a point truncation-limited
TRUNCATION_GUARD_RTOL = 0.05
#: transverse modes the theta probe measures (the lowest ones)
THETA_PROBE_MODES = 3
#: Lanczos steps (two operator applications each) before ``iterative_norm``
#: needs a certified upper bound to accept its Ritz value
LANCZOS_MAX_STEPS = 1500


@dataclass(frozen=True)
class ScanPoint:
    z: complex
    beta1: int
    beta2: int
    norm_est: float
    residual: float
    flag: str = "ok"
    k_argmax: int = 0
    tail_bound: float = 0.0
    modes_scanned: int = 0

    def __post_init__(self):
        if self.norm_est <= 0:
            raise ValueError(f"operator norm estimate must be positive, got {self.norm_est}")


# no longer called; kept while perfbench/tracing.py looks it up by name
def power_iteration_norm(apply_op, apply_adjoint, n: int, rng: np.random.Generator,
                         tol: float = 1e-5, maxit: int = 500,
                         raise_tol: float = 1e-3) -> tuple[float, float, int]:
    """Largest singular value of T via power iteration on T^*T.

    Returns (sigma, relative residual at termination, iterations).  When the
    top singular values cluster the Rayleigh quotient keeps creeping without
    ever meeting a tight tolerance while the estimate is already within the
    cluster width of the true norm, so slow convergence only raises once the
    last relative change exceeds ``raise_tol``.
    """
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    sigma_old = math.inf
    for it in range(1, maxit + 1):
        y = apply_op(x)
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            return 0.0, 0.0, it
        x = apply_adjoint(y)
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            return sigma, 0.0, it
        x /= nx
        res = abs(sigma - sigma_old) / sigma
        if res < tol:
            return sigma, res, it
        sigma_old = sigma
    if res <= raise_tol:
        return sigma, res, maxit
    raise ConvergenceError(
        f"power iteration did not converge in {maxit} steps (last rel change {res:.2e})")


def _start_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    """Seeded complex Lanczos start vector: m real parts, then m imaginary parts."""
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


# the LAPACK routines behind ``scipy.linalg.eigh_tridiagonal(select="i")``,
# bisection and inverse iteration; called directly, because the wrapper's
# argument checks cost more than the routines on a Lanczos run's short
# tridiagonals
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))


def _top_eigenpair_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Largest eigenvalue of the symmetric tridiagonal (d, e) and the last
    component of its unit eigenvector.  Raises ``ConvergenceError`` when LAPACK
    fails, as it does on non-finite entries."""
    if d.size == 1:
        if not math.isfinite(d[0]):
            raise ConvergenceError(f"non-finite tridiagonal entry {d[0]}")
        return float(d[0]), 1.0
    m, w, iblock, isplit, info = _STEBZ(d, e, 2, 0.0, 0.0, d.size, d.size, 0.0, "B")
    if info or m != 1:
        raise ConvergenceError(f"tridiagonal eigenvalue bisection failed (stebz info={info})")
    z, info = _STEIN(d, e, w[:1], iblock, isplit)
    if info:
        raise ConvergenceError(f"tridiagonal inverse iteration failed (stein info={info})")
    return float(w[0]), float(z[-1, 0])


def _lanczos_top(normal, v0: np.ndarray, rtol: float):
    """Top eigenvalue of the Hermitian PSD ``normal`` by the Lanczos recurrence.

    The three-term recurrence keeps three vectors and no basis.  After step k
    the top eigenpair (theta, s) of the k x k tridiagonal gives the Ritz
    residual beta_k |s_k|; the run stops once it is <= ``rtol * theta``, or
    after ``LANCZOS_MAX_STEPS`` steps.  Returns (theta, beta_k |s_k| / theta,
    converged) of the last step.
    """
    v = np.asarray(v0, dtype=complex)
    v = v / np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    for _ in range(LANCZOS_MAX_STEPS):
        w = normal(v) - beta * v_prev
        alpha = float(np.vdot(v, w).real)
        w = w - alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        theta, s_last = _top_eigenpair_tridiagonal(np.array(alphas), np.array(betas))
        residual = beta * abs(s_last)
        converged = residual <= rtol * theta or beta == 0.0
        if converged:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    return max(theta, 0.0), (residual / theta if theta > 0.0 else 0.0), converged


def iterative_norm(apply_op, apply_adjoint, n: int | tuple[int, int], rng: np.random.Generator,
                   tol: float = 1e-7, v0: np.ndarray | None = None,
                   upper: float = math.inf) -> tuple[float, float]:
    """Largest singular value, matrix-free, with a seeded start vector.

    ``n`` is the dimension of a square T or the (rows, cols) shape of a
    rectangular one.  Lanczos runs on the normal operator N = T^*T, or T T^*
    when T is wide, from ``v0`` (drawn from ``rng`` unless given), and stops
    once its top Ritz pair (theta, y) has ||N y - theta y|| <= tol**2 theta.
    So ``tol`` bounds the normal-operator residual relative to sigma^2 (the
    test ``svds(tol=tol)`` hands to ARPACK), and theta then lies within
    tol**2 theta of an eigenvalue of N.  Returns (sigma, residual): sqrt(theta)
    and the measured ||N y - theta y|| / theta.  When ``LANCZOS_MAX_STEPS``
    steps do not converge (a dense top of the spectrum), sigma is still a
    lower bound of ||T|| (theta is a Rayleigh quotient of N); it is returned
    only if the caller's certified ``upper`` >= ||T|| closes the interval,
    sigma >= (1 - tol) upper, and otherwise ``ConvergenceError`` names the
    interval.  Errors raised by the operator propagate; a non-finite operator
    output raises ``ConvergenceError``.
    """
    rows, cols = (n, n) if np.isscalar(n) else n
    if rows >= cols:
        normal = lambda x: apply_adjoint(apply_op(x))
    else:
        normal = lambda x: apply_op(apply_adjoint(x))
    if v0 is None:
        v0 = _start_vector(rng, min(rows, cols))
    theta, residual, converged = _lanczos_top(normal, v0, tol * tol)
    sigma = math.sqrt(theta)
    if not (converged or sigma >= (1.0 - tol) * upper):
        raise ConvergenceError(
            f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps and no bound certifies "
            f"it: norm in [{sigma:.16g}, {upper:.16g}], relative residual {residual:.2e}")
    return sigma, residual


class SobolevScaler:
    """(1 - d^2/dx^2)^(beta/2) on the sine eigenbasis of the cap: S_beta = Q D^beta Q.

    Q, the orthonormal DST-I, is real, symmetric and its own inverse, so
    ||S_b1 T S_b2|| = ||D^b1 Q T Q D^b2||: an operator between Sobolev
    scalings is measured in scaled sine coefficients, with one transform on
    each side that carries a scaling.  A side with beta = 0 keeps grid values;
    leaving out an orthogonal factor there does not change the norm.
    """

    def __init__(self, grid: Grid1D):
        m = np.arange(1, grid.N + 1)
        self.nu = (m * math.pi / (2.0 * grid.X)) ** 2

    def apply(self, solve, x: np.ndarray, beta_out: float, beta_in: float) -> np.ndarray:
        """D^beta_out Q solve(Q D^beta_in x); the side whose beta is 0 is not transformed."""
        x = np.asarray(x, dtype=complex)
        if beta_in:
            x = dst(x * (1.0 + self.nu) ** (beta_in / 2.0), type=1, norm="ortho")
        y = solve(x)
        if beta_out:
            y = dst(y, type=1, norm="ortho") * (1.0 + self.nu) ** (beta_out / 2.0)
        return y


def sobolev_constant_sq(grid: Grid1D, order: int = 4) -> float:
    """K^2 >= ||S_1 M^{-1/2}||^2 with M = 1 - D2, from the stencil's sine symbol.

    For the 3- and 5-point stencils -D2 is the sine-diagonal Q diag(s/h^2) Q,
    s(theta) = -(c_0 + 2 sum_m c_m cos(m theta)) at theta_m = m pi/(N+1), plus a
    PSD term at the box ends (zero for order 2, (e_1 e_1^T + e_N e_N^T)/(12 h^2)
    for order 4).  So M >= Q (1 + s/h^2) Q, and K^2 = max_m (1 + nu_m)/(1 + s_m/h^2),
    widened by 1e-12 for rounding, bounds the generalized eigenvalues of (S_1^2, M).
    """
    lap = laplacian_1d(grid, order=order)
    theta = np.arange(1, grid.N + 1) * math.pi / (grid.N + 1)
    symbol = -lap.coeffs[0] - 2.0 * sum(c * np.cos(m * theta)  # s(theta_m) / h^2
                                        for m, c in enumerate(lap.coeffs) if m)
    nu = SobolevScaler(grid).nu
    return (1.0 + 1e-12) * float(np.max((1.0 + nu) / (1.0 + symbol)))


def mode_norm_bound(c: float, s: float, beta_sum: int, k_sq: float) -> float:
    """Certified upper bound of ||S_b1 R S_b2||, b = b1 + b2 = ``beta_sum``, R = A^{-1}.

    A = -D2 + lam + mass^2 - i z a - z^2 with z = x + iy.  Its Hermitian part
    -D2 + lam + mass^2 - Re z^2 + y a is >= c, since -D2 >= 0, and its skew
    part is the diagonal Im A = -x (a + 2y), of one sign when a + 2y > 0, so
    |Im <A u, u>| >= s ||u||^2, s = |x| min(a + 2y) (``_mode_bounds``).  Since
    ||A u|| ||u|| >= |<A u, u>|, the L^2 pair gets
    ||R|| <= 1 / hypot(max(c, 0), max(s, 0)), inf when both are <= 0.  For
    b > 0 and c > 0, Re A >= m M with m = min(1, c) and M = 1 - D2.  With
    u = R f, m ||M^{1/2} u||^2 <= Re <A u, u> <= ||f|| ||u|| and
    ||u|| <= ||f|| / c give ||M^{1/2} R|| = ||R M^{1/2}|| <= (m c)^{-1/2} and
    ||M^{1/2} R M^{1/2}|| <= 1/m; each S_1 costs at most K = ||S_1 M^{-1/2}||,
    K^2 = ``k_sq`` (``sobolev_constant_sq``).  So the bound is
    K^b / (m^(b/2) c^(1 - b/2)), for real and complex z alike, and inf when c <= 0.
    """
    if beta_sum == 0:
        r = math.hypot(max(c, 0.0), max(s, 0.0))
        return 1.0 / r if r > 0.0 else math.inf
    if c <= 0.0:
        return math.inf
    m = min(1.0, c)
    return k_sq ** (beta_sum / 2.0) / (m ** (beta_sum / 2.0) * c ** (1.0 - beta_sum / 2.0))


def _mode_bounds(z: complex, mass: float, a: np.ndarray, beta_sum: int, k_sq: float):
    """lam -> ``mode_norm_bound`` of mode lam at z, with c = lam + shift and s fixed."""
    shift = mass * mass - (z * z).real + float(np.min(z.imag * a))
    s = abs(z.real) * float(np.min(a + 2.0 * z.imag))
    return lambda lam: mode_norm_bound(lam + shift, s, beta_sum, k_sq)


def _mode_sobolev_norm(op: ShiftedOperator, scaler: SobolevScaler, beta1: int, beta2: int,
                       rng: np.random.Generator, v0: np.ndarray | None = None,
                       upper: float = math.inf):
    """||S_beta1 R S_beta2|| of the mode solve R, certified by ``upper`` at the step budget."""
    return iterative_norm(lambda c: scaler.apply(op.solve, c, beta1, beta2),
                          lambda c: scaler.apply(op.solve_adjoint, c, beta2, beta1),
                          op.grid.N, rng, v0=v0, upper=upper)


def norm_scan(z_list, beta1: int, beta2: int, damping: DampingProfile, grid: Grid1D,
              lambdas, order: int = 4, mass: float = 0.0,
              rng: np.random.Generator | None = None,
              truncation_guard: bool = False) -> list[ScanPoint]:
    """Resolvent norms over the guide: max over transverse modes per z.

    Each mode's certified bound (``mode_norm_bound``) does two jobs.  A mode
    whose bound is already below the running max is skipped, with no solve:
    the Lanczos estimate never exceeds the true norm, so it cannot raise the
    max.  A scanned mode passes its bound to ``iterative_norm`` as ``upper``,
    which certifies a Ritz value that the step budget cuts short, or raises.
    Every mode draws its start vector, scanned or not, so the result equals
    that of a scan of every mode in the given order, bit for bit.
    ``tail_bound`` is the largest bound among the skipped modes (0 when none
    is skipped) and ``modes_scanned`` counts the Lanczos runs.

    With ``truncation_guard`` every point is recomputed on a 1.5X box, with
    that box's bound, and flagged "truncation-limited" when the norm moves by
    more than ``TRUNCATION_GUARD_RTOL``.
    """
    if beta1 not in (0, 1) or beta2 not in (0, 1):
        raise ValueError(f"Sobolev indices must lie in {{0,1}}, got beta1={beta1}, beta2={beta2}")
    rng = rng or np.random.default_rng(0)
    lambdas = np.asarray(lambdas, dtype=float)
    scaler = SobolevScaler(grid)
    k_sq = sobolev_constant_sq(grid, order)

    if truncation_guard:
        grid2 = grid.refine(1.5)
        damping2 = DampingProfile.build(grid2, kind=damping.kind, rho=damping.rho,
                                        r=damping.r, level=damping.level)
        scaler2 = SobolevScaler(grid2)
        k_sq2 = sobolev_constant_sq(grid2, order)

    points = []
    for z in z_list:
        z = complex(z)
        best, best_k, best_res = 0.0, 0, 0.0
        mode_bound = _mode_bounds(z, mass, damping.samples, beta1 + beta2, k_sq)
        tail, scanned = 0.0, 0
        for k, lam in enumerate(lambdas):
            v0 = _start_vector(rng, grid.N)
            bound = mode_bound(lam)
            if bound < best:
                tail = max(tail, bound)
                continue
            op = mode_operator(grid, lam, damping, z, order=order, mass=mass)
            sigma, res = _mode_sobolev_norm(op, scaler, beta1, beta2, rng, v0=v0, upper=bound)
            scanned += 1
            if sigma > best:
                best, best_k, best_res = sigma, k, res
        flag = "ok"
        if truncation_guard:
            upper2 = _mode_bounds(z, mass, damping2.samples, beta1 + beta2, k_sq2)(lambdas[best_k])
            op2 = mode_operator(grid2, lambdas[best_k], damping2, z, order=order, mass=mass)
            sigma2, _ = _mode_sobolev_norm(op2, scaler2, beta1, beta2, rng, upper=upper2)
            if abs(sigma2 - best) > TRUNCATION_GUARD_RTOL * best:
                flag = "truncation-limited"
        points.append(ScanPoint(z=z, beta1=beta1, beta2=beta2, norm_est=best,
                                residual=best_res, flag=flag, k_argmax=best_k,
                                tail_bound=tail, modes_scanned=scanned))
    return points


# ---------------------------------------------------------------------------
# block resolvent of the first-order operator and its adjoint


class WaveBlockResolvent:
    """(A - z)^{-1} on one mode via the block formula, with cached factors.

    u = R(z)[(ia + z) f + g],  v = f + R(z)[(i z a + z^2) f + z g] = f + z u,
    so one mode solve per application; the adjoint is likewise one solve,
    w2 = R(z)^* (f + conj(z) g),  w1 = (conj(z) - ia) w2 + g.
    """

    def __init__(self, z: complex, damping: DampingProfile, lam: float, grid: Grid1D,
                 order: int = 4):
        self.z = complex(z)
        self.a = damping.samples
        self.op = mode_operator(grid, lam, damping, self.z, order=order)

    def apply(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, a = self.z, self.a
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        u = self.op.solve((1j * a + z) * f + g)
        return u, f + z * u

    def apply_adjoint(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        zb = np.conj(self.z)
        g = np.asarray(g, dtype=complex)
        w2 = self.op.solve_adjoint(np.asarray(f, dtype=complex) + zb * g)
        return (zb - 1j * self.a) * w2 + g, w2


class EnergyNormResolvent:
    """Per-mode resolvent measured in the energy norm (grad + L2).

    The energy norm of (u, v) is (||P^{1/2} u||^2 + ||v||^2)^{1/2} with
    P = -D2 + lam.  P is factored once per mode by ``BandCholesky``, P = U^T U.
    Since U = W P^{1/2} with W orthogonal, diag(U, I) B diag(U^{-1}, I) has the
    norm of diag(P^{1/2}, I) B diag(P^{-1/2}, I) for the block resolvent B; it
    is applied by the factor's band products and triangular band solves (the
    adjoint through U^T and U^{-T}), O(N) per application for either stencil
    order.  A P that is not positive definite raises SolveError.
    """

    def __init__(self, grid: Grid1D, lam: float, damping: DampingProfile, order: int = 4):
        self.grid = grid
        self.lam = float(lam)
        self.damping = damping
        self.order = order
        lap = laplacian_1d(grid, order=order)
        self._chol = BandCholesky(lap, np.full(grid.N, self.lam - lap.coeffs[0]), dtype=complex)

    def op_norm(self, z: complex, rng: np.random.Generator) -> float:
        n = self.grid.N
        chol = self._chol
        block = WaveBlockResolvent(z, self.damping, self.lam, self.grid, order=self.order)

        def apply_op(x):
            u, v = block.apply(chol.solve_triangular(x[:n]), x[n:])
            return np.concatenate([chol.mul(u), v])

        def apply_adj(x):
            w1, w2 = block.apply_adjoint(chol.mul(x[:n], transpose=True), x[n:])
            return np.concatenate([chol.solve_triangular(w1, transpose=True), w2])

        sigma, _ = iterative_norm(apply_op, apply_adj, 2 * n, rng)
        return sigma


# ---------------------------------------------------------------------------
# low-frequency comparison with the heat-model resolvent


def heat_model_operator(grid: Grid1D, z: complex, order: int = 4) -> ShiftedOperator:
    """The banded heat-model operator -D2 - i z on mode 0: diagonal -i z."""
    z = complex(z)
    return ShiftedOperator(grid=grid, lap=laplacian_1d(grid, order=order), z=z,
                           diag=np.full(grid.N, -1j * z))


def theta_blocks(z: complex, a: np.ndarray) -> dict[int, tuple]:
    """(p, c, q) per block of (A - z)^{-1} - R_Heat(z) on one mode.

    Block j acts as t_j x = R(p_j x) + c_j x - H(q_j x), with R the mode
    resolvent and H = (-D2 - i z)^{-1}; the heat part is present on mode 0
    only.  Row 2 of the heat model is z times row 1: q_3 = z q_1, q_4 = z q_2.
    """
    return {1: (1j * a + z, 0.0, 1j * a), 2: (1.0, 0.0, 1.0),
            3: (1j * z * a + z * z, 1.0, 1j * z * a), 4: (z, 0.0, z)}


def heat_structure_residual(heat: ShiftedOperator, blocks: dict, x: np.ndarray) -> float:
    """max |row 2 - z row 1| / max |row 2| of the heat-model blocks, applied to x."""
    num = den = 0.0
    for top, bottom in ((1, 3), (2, 4)):
        row1 = heat.solve(blocks[top][2] * x)
        row2 = heat.solve(blocks[bottom][2] * x)
        num = max(num, float(np.max(np.abs(row2 - heat.z * row1))))
        den = max(den, float(np.max(np.abs(row2))))
    return num / max(den, 1e-300)


def _difference_block(op: ShiftedOperator, heat: ShiftedOperator | None, p, c, q):
    """t x = R(p x) + c x - H(q x) and its adjoint conj(p) R^* y + conj(c) y - conj(q) H^* y."""
    def apply(x):
        y = op.solve(p * x) + c * x
        return y if heat is None else y - heat.solve(q * x)

    def adjoint(y):
        x = np.conj(p) * op.solve_adjoint(y) + np.conj(c) * y
        return x if heat is None else x - np.conj(q) * heat.solve_adjoint(y)

    return apply, adjoint


def theta_probe(z_list, damping: DampingProfile, grid: Grid1D, lambdas,
                delta1: float, delta2: float, order: int = 4,
                rng: np.random.Generator | None = None) -> list[dict]:
    """Weighted norms of the blocks of (A - z)^{-1} - R_Heat(z), matrix-free.

    Each block is applied as banded mode and heat-model solves between the
    diagonal weights wl = <x>^-delta1, wr = <x>^-delta2 (see ``theta_blocks``).
    Blocks 1 and 2 are measured with the full gradient, as the stacked
    (2N, N) operator [wl G t wr ; sqrt(lam_k) wl t wr] with the centred
    stencil G (G^* = -G); blocks 3 and 4 as wl t wr.  Each norm is a seeded
    Lanczos estimate, and the norm over the guide is the max over the lowest
    ``THETA_PROBE_MODES`` modes.  ``structure_residual`` checks row 2 = z row 1 of the heat-model
    blocks on a seeded probe vector.  Requires Im z > 0 and |z| <= 1.
    """
    rng = rng or np.random.default_rng(0)
    lambdas = np.asarray(lambdas, dtype=float)
    n = grid.N
    wl = weight(grid, -delta1)
    wr = weight(grid, -delta2)
    out = []
    for z in z_list:
        z = complex(z)
        if z.imag <= 0 or abs(z) > 1 + 1e-12:
            raise ValueError(f"theta probe needs Im z > 0 and |z| <= 1, got z={z}")
        heat = heat_model_operator(grid, z, order=order)
        blocks = theta_blocks(z, damping.samples)
        probe = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        residual = heat_structure_residual(heat, blocks, probe)
        norms = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
        for k in range(min(THETA_PROBE_MODES, len(lambdas))):
            lam = float(lambdas[k])
            op = mode_operator(grid, lam, damping, z, order=order)
            for j, (p, c, q) in blocks.items():
                t, t_adj = _difference_block(op, heat if k == 0 else None, p, c, q)
                apply_op, apply_adj, shape = _weighted(t, t_adj, wl, wr, grid, order,
                                                       math.sqrt(lam) if j <= 2 else None)
                sigma, _ = iterative_norm(apply_op, apply_adj, shape, rng)
                norms[j] = max(norms[j], sigma)
        out.append({"z": z, "theta1": norms[1], "theta2": norms[2], "theta3": norms[3],
                    "theta4": norms[4], "structure_residual": residual})
    return out


def _weighted(t, t_adj, wl, wr, grid: Grid1D, order: int, root_lam: float | None = None):
    """wl t wr, or [wl G t wr ; root_lam wl t wr] (G^* = -G): apply, adjoint, shape."""
    n = grid.N
    if root_lam is None:
        return (lambda x: wl * t(wr * x)), (lambda y: wr * t_adj(wl * y)), n

    def apply(x):
        u = t(wr * x)
        return np.concatenate([wl * gradient_1d(u, grid, order=order), root_lam * wl * u])

    def adjoint(y):
        return wr * t_adj(-gradient_1d(wl * y[:n], grid, order=order) + root_lam * wl * y[n:])

    return apply, adjoint, (2 * n, n)


# ---------------------------------------------------------------------------
# semiclassical scan


def semiclassical_scan(h_list, damping: DampingProfile, grid: Grid1D, order: int = 4,
                       rng: np.random.Generator | None = None) -> list[dict]:
    """h * ||(-h^2 d^2/dx^2 - i h a - 1)^{-1}|| per h on the truncated line.

    The operator equals h^2 times the mode resolvent at tau = 1/h, so the
    norm is h^{-2} ||R(1/h)||, the one-mode L^2 ``norm_scan`` at z = 1/h.
    """
    rng = rng or np.random.default_rng(0)
    out = []
    for h in h_list:
        h = float(h)
        if not 0.0 < h <= 1.0:
            raise ValueError(f"semiclassical parameter must lie in (0, 1], got h={h}")
        point = norm_scan([1.0 / h], 0, 0, damping, grid, [0.0], order=order, rng=rng)[0]
        norm = point.norm_est / h ** 2
        out.append({"h": h, "norm": norm, "h_norm": h * norm, "residual": point.residual})
    return out


def pure_laplacian_control(h_list, X: float = 200.0) -> list[dict]:
    """Undamped negative control: 1/dist(1, spec(-h^2 Lap)) on the cap box.

    Uses the closed-form Dirichlet eigenvalues (m pi / 2X)^2 of the
    truncation interval, so the generic ~1/h growth of the self-adjoint
    resolvent at spectrum is deterministic.
    """
    out = []
    for h in h_list:
        h = float(h)
        q = 2.0 * X / (math.pi * h)
        dist = math.inf
        for m in (math.floor(q), math.ceil(q)):
            if m >= 1:
                nu = (m * math.pi / (2.0 * X)) ** 2
                dist = min(dist, abs(h * h * nu - 1.0))
        norm = 1.0 / dist if dist > 0 else math.inf
        out.append({"h": h, "norm": norm, "h_norm": h * norm})
    return out
