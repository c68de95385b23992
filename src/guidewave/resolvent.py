"""Complex-shifted solves, operator-norm scans, and low/high frequency probes.

Every operator norm is the top singular value of a matrix-free operator,
computed by Lanczos (ARPACK) on T^*T from a seeded start vector, with power
iteration as the fallback when ARPACK itself fails.  Sobolev scalings
(1 - d^2/dx^2)^(+-beta/2) are diagonal in the sine basis of the truncation
box; since the orthonormal DST-I is its own inverse, a scan measures the mode
solve in scaled sine coefficients, one transform per scaled side of each
application.  A norm scan takes the max over transverse modes and skips every
mode whose certified bound (``mode_norm_bound``) is already below the running
max, which cuts the elliptic tail lam_k > tau^2 without a heuristic.  The
energy norm of the first-order operator is realized by the banded Cholesky
factor of -D2 + lam, O(N) per application, with no transform.  The dense
oracles for these norms live in the tests.  The block resolvent of
the first-order wave operator and its adjoint are applied through the mode
resolvent R(z) and the reflection identity R(z)^* = R(-conj(z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import ztbtrs
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, svds

from .discretize import (DampingProfile, Grid1D, ShiftedOperator, gradient_1d,
                         laplacian_1d, mode_operator, weight)
from .errors import ConvergenceError, SolveError

LANCZOS = "lanczos"
POWER_ITERATION = "power_iteration"


@dataclass(frozen=True)
class ScanPoint:
    z: complex
    beta1: int
    beta2: int
    norm_est: float
    method: str
    residual: float
    flag: str = "ok"
    k_argmax: int = 0
    tail_bound: float = 0.0
    modes_scanned: int = 0

    def __post_init__(self):
        if self.norm_est <= 0:
            raise ValueError(f"operator norm estimate must be positive, got {self.norm_est}")


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


def iterative_norm(apply_op, apply_adjoint, n: int | tuple[int, int], rng: np.random.Generator,
                   tol: float = 1e-7, v0: np.ndarray | None = None) -> tuple[float, float, str]:
    """Largest singular value, matrix-free, with a seeded start vector.

    ``n`` is the dimension of a square T or the (rows, cols) shape of a
    rectangular one.  The start vector ``v0`` is drawn from ``rng`` unless
    given.  Lanczos (ARPACK) on the normal operator; plain power
    iteration stagnates when the top singular values cluster (constant
    damping leaves ~ tau X / pi near-degenerate modes), so it is kept only as
    the fallback when ARPACK itself fails.  Errors raised by the operator
    propagate.  Returns (sigma, residual, method), where method is
    ``LANCZOS`` or ``POWER_ITERATION``.
    """
    rows, cols = (n, n) if np.isscalar(n) else n
    op = LinearOperator((rows, cols), matvec=lambda x: apply_op(np.ravel(x)),
                        rmatvec=lambda x: apply_adjoint(np.ravel(x)), dtype=complex)
    if v0 is None:
        v0 = _start_vector(rng, min(rows, cols))
    try:
        sigma = svds(op, k=1, v0=v0, tol=tol, maxiter=60, return_singular_vectors=False)
        return float(sigma[0]), tol, LANCZOS
    except (ArpackNoConvergence, ArpackError):
        sigma, res, _ = power_iteration_norm(apply_op, apply_adjoint, cols, rng)
        return sigma, res, POWER_ITERATION


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
    symbol = -lap.diags[0][0] - 2.0 * sum(d[0] * np.cos(m * theta)  # s(theta_m) / h^2
                                          for m, d in enumerate(lap.diags) if m)
    nu = SobolevScaler(grid).nu
    return (1.0 + 1e-12) * float(np.max((1.0 + nu) / (1.0 + symbol)))


def mode_norm_bound(c: float, beta_sum: int, k_sq: float) -> float:
    """Certified ||S_b1 R S_b2|| <= K^s / (m^(s/2) c^(1 - s/2)), s = b1 + b2, m = min(1, c).

    ``c`` is a lower bound of the Hermitian part of the mode operator; with
    c <= 0 there is no bound and the result is inf.  See ``norm_scan``.
    """
    if c <= 0.0:
        return math.inf
    m = min(1.0, c)
    return k_sq ** (beta_sum / 2.0) / (m ** (beta_sum / 2.0) * c ** (1.0 - beta_sum / 2.0))


def _mode_sobolev_norm(op: ShiftedOperator, scaler: SobolevScaler, beta1: int, beta2: int,
                       rng: np.random.Generator, tol: float = 1e-6, v0: np.ndarray | None = None):
    """||S_beta1 R S_beta2|| of the mode solve R; no transform when both betas are 0."""
    tol = min(tol, 1e-7)
    if not (beta1 or beta2):
        return iterative_norm(op.solve, op.solve_adjoint, op.grid.N, rng, tol=tol, v0=v0)
    return iterative_norm(lambda c: scaler.apply(op.solve, c, beta1, beta2),
                          lambda c: scaler.apply(op.solve_adjoint, c, beta2, beta1),
                          op.grid.N, rng, tol=tol, v0=v0)


def norm_scan(z_list, beta1: int, beta2: int, damping: DampingProfile, grid: Grid1D,
              lambdas, order: int = 4, mass: float = 0.0,
              rng: np.random.Generator | None = None,
              truncation_guard: bool = False, guard_rtol: float = 0.05) -> list[ScanPoint]:
    """Resolvent norms over the guide: max over transverse modes per z.

    A mode is skipped, with no solve, when a proven upper bound of its norm is
    already below the running max.  The mode operator is
    A = -D2 + lam + mass^2 - i z a - z^2, and its Hermitian part is
    -D2 + lam + mass^2 - Re z^2 + Im z a >= c I, with
    c = lam + mass^2 - Re z^2 + min_x(Im z a), since -D2 >= 0.  For c > 0 and
    m = min(1, c) it is also >= m M, M = 1 - D2.  With u = R f,
    m ||M^{1/2} u||^2 <= Re <A u, u> <= ||f|| ||u|| and ||u|| <= ||f|| / c,
    so ||R|| <= 1/c, ||M^{1/2} R|| = ||R M^{1/2}|| <= (m c)^{-1/2} and
    ||M^{1/2} R M^{1/2}|| <= 1/m; one side's S_1 costs at most
    K = ||S_1 M^{-1/2}|| (``sobolev_constant_sq``).  Hence
    ||S_b1 R S_b2|| <= K^s / (m^(s/2) c^(1 - s/2)), s = b1 + b2, for real and
    complex z alike (``mode_norm_bound``); a mode with c <= 0 is always scanned.
    The Lanczos estimate never exceeds the true norm, so a skipped mode cannot
    raise the max.  Every mode draws its start vector, scanned or not, so the
    result equals that of a scan of every mode in the given order, bit for
    bit.  ``tail_bound`` is the largest bound among the skipped modes (0 when
    none is skipped) and ``modes_scanned`` counts the Lanczos runs.

    With ``truncation_guard`` every point is recomputed on a 1.5X box and
    flagged "truncation-limited" when the norm moves by more than 5%.
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

    points = []
    for z in z_list:
        z = complex(z)
        best, best_k, best_res, best_method = 0.0, 0, 0.0, LANCZOS
        shift = mass * mass - (z * z).real + float(np.min(z.imag * damping.samples))
        tail, scanned = 0.0, 0
        for k, lam in enumerate(lambdas):
            v0 = _start_vector(rng, grid.N)
            bound = mode_norm_bound(lam + shift, beta1 + beta2, k_sq)
            if bound < best:
                tail = max(tail, bound)
                continue
            op = mode_operator(grid, lam, damping, z, order=order, mass=mass)
            sigma, res, method = _mode_sobolev_norm(op, scaler, beta1, beta2, rng, v0=v0)
            scanned += 1
            if sigma > best:
                best, best_k, best_res, best_method = sigma, k, res, method
        flag = "ok"
        if truncation_guard:
            op2 = mode_operator(grid2, lambdas[best_k], damping2, z, order=order, mass=mass)
            sigma2, _, _ = _mode_sobolev_norm(op2, scaler2, beta1, beta2, rng)
            if abs(sigma2 - best) > guard_rtol * best:
                flag = "truncation-limited"
        points.append(ScanPoint(z=z, beta1=beta1, beta2=beta2, norm_est=best,
                                method=best_method, residual=best_res, flag=flag,
                                k_argmax=best_k, tail_bound=tail, modes_scanned=scanned))
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
    P = -D2 + lam.  P is factored once per mode by banded Cholesky, P = U^T U.
    Since U = W P^{1/2} with W orthogonal, diag(U, I) B diag(U^{-1}, I) has the
    norm of diag(P^{1/2}, I) B diag(P^{-1/2}, I) for the block resolvent B; it
    is applied by banded products and triangular banded solves (the adjoint
    through U^T and U^{-T}), O(N) per application for either stencil order.
    A P that is not positive definite raises SolveError.
    """

    def __init__(self, grid: Grid1D, lam: float, damping: DampingProfile, order: int = 4):
        self.grid = grid
        self.lam = float(lam)
        self.damping = damping
        self.order = order
        lap = laplacian_1d(grid, order=order)
        bw = lap.halfbw
        bands = np.zeros((bw + 1, grid.N))   # upper storage: row bw - m holds superdiagonal m
        bands[bw] = self.lam - lap.diags[0]
        for m in range(1, bw + 1):
            bands[bw - m, m:] = -lap.diags[m]
        try:
            self._chol = cholesky_banded(bands).astype(complex)
        except LinAlgError as exc:
            raise SolveError(f"-D2 + lam is not positive definite at lam={self.lam}: {exc}") from exc

    def _mul(self, x: np.ndarray, trans: str = "N") -> np.ndarray:
        """U x, or U^T x for trans="T"."""
        u = self._chol
        bw = u.shape[0] - 1
        out = u[bw] * x
        for m in range(1, bw + 1):
            if trans == "T":
                out[m:] += u[bw - m, m:] * x[:-m]
            else:
                out[:-m] += u[bw - m, m:] * x[m:]
        return out

    def _solve(self, x: np.ndarray, trans: str = "N") -> np.ndarray:
        """U^{-1} x, or U^{-T} x for trans="T"."""
        y, info = ztbtrs(self._chol, x[:, None], uplo="U", trans=trans)
        if info != 0:
            raise SolveError(f"triangular banded solve failed (info={info}) at lam={self.lam}")
        return y[:, 0]

    def op_norm(self, z: complex, rng: np.random.Generator, tol: float = 1e-6) -> float:
        n = self.grid.N
        block = WaveBlockResolvent(z, self.damping, self.lam, self.grid, order=self.order)

        def apply_op(x):
            u, v = block.apply(self._solve(x[:n]), x[n:])
            return np.concatenate([self._mul(u), v])

        def apply_adj(x):
            w1, w2 = block.apply_adjoint(self._mul(x[:n], "T"), x[n:])
            return np.concatenate([self._solve(w1, "T"), w2])

        sigma, _, _ = iterative_norm(apply_op, apply_adj, 2 * n, rng, tol=min(tol, 1e-7))
        return sigma

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the truncated first-order mode operator (companion form)."""
        n = self.grid.N
        p = -laplacian_1d(self.grid, order=self.order).as_dense() + self.lam * np.eye(n)
        comp = np.zeros((2 * n, 2 * n), dtype=complex)
        comp[:n, n:] = np.eye(n)
        comp[n:, :n] = p
        comp[n:, n:] = -1j * np.diag(self.damping.samples)
        return np.linalg.eigvals(comp)


@dataclass
class GapProbeResult:
    tau: float
    z: complex
    spectrum_free: bool
    norm_est: float
    bound_constant: float
    worst_eig: complex | None


def spectral_gap_probe(taus, gamma: float, damping: DampingProfile, grid: Grid1D,
                       lambdas, order: int = 4, window: float = 0.5,
                       rng: np.random.Generator | None = None) -> list[GapProbeResult]:
    """Probe the claimed spectrum-free region Im z >= -gamma |Re z|^(-2).

    For each tau the truncated operator's eigenvalues near Re = tau are
    checked against the curve, and the resolvent norm at z = tau - i gamma
    tau^(-2) is recorded together with the empirical constant norm/tau^2.
    Failures are data, not errors.
    """
    rng = rng or np.random.default_rng(0)
    lambdas = np.asarray(lambdas, dtype=float)
    helpers = [EnergyNormResolvent(grid, lam, damping, order=order) for lam in lambdas]
    eigs = np.concatenate([h.eigenvalues() for h in helpers])
    results = []
    for tau in taus:
        tau = float(tau)
        z = tau - 1j * gamma / tau ** 2
        near = eigs[np.abs(eigs.real - tau) <= window]
        above = near[near.imag >= -gamma / np.maximum(np.abs(near.real), 1e-12) ** 2]
        worst = None
        if above.size:
            worst = complex(above[int(np.argmax(above.imag))])
        try:
            norm = max(h.op_norm(z, rng) for h in helpers)
        except (SolveError, ConvergenceError):
            norm = math.inf
        results.append(GapProbeResult(tau=tau, z=z, spectrum_free=above.size == 0,
                                      norm_est=norm, bound_constant=norm / tau ** 2,
                                      worst_eig=worst))
    return results


# ---------------------------------------------------------------------------
# low-frequency comparison with the heat-model resolvent


def heat_model_operator(grid: Grid1D, z: complex, order: int = 4) -> ShiftedOperator:
    """The banded heat-model operator -D2 - i z on mode 0: diagonal -i z, a = 1."""
    z = complex(z)
    return ShiftedOperator(grid=grid, lap=laplacian_1d(grid, order=order), lam=0.0, z=z,
                           a=np.ones(grid.N), diag=np.full(grid.N, -1j * z))


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
                delta1: float, delta2: float, order: int = 4, modes=None,
                rng: np.random.Generator | None = None) -> list[dict]:
    """Weighted norms of the blocks of (A - z)^{-1} - R_Heat(z), matrix-free.

    Each block is applied as banded mode and heat-model solves between the
    diagonal weights wl = <x>^-delta1, wr = <x>^-delta2 (see ``theta_blocks``).
    Blocks 1 and 2 are measured with the full gradient, as the stacked
    (2N, N) operator [wl G t wr ; sqrt(lam_k) wl t wr] with the centred
    stencil G (G^* = -G); blocks 3 and 4 as wl t wr.  Each norm is a seeded
    Lanczos estimate, and the norm over the guide is the max over the probed
    modes.  ``structure_residual`` checks row 2 = z row 1 of the heat-model
    blocks on a seeded probe vector.  Requires Im z > 0 and |z| <= 1.
    """
    rng = rng or np.random.default_rng(0)
    lambdas = np.asarray(lambdas, dtype=float)
    if modes is None:
        modes = range(min(3, len(lambdas)))
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
        for k in modes:
            lam = float(lambdas[k])
            op = mode_operator(grid, lam, damping, z, order=order)
            for j, (p, c, q) in blocks.items():
                t, t_adj = _difference_block(op, heat if k == 0 else None, p, c, q)
                apply_op, apply_adj, shape = _weighted(t, t_adj, wl, wr, grid, order,
                                                       math.sqrt(lam) if j <= 2 else None)
                sigma, _, _ = iterative_norm(apply_op, apply_adj, shape, rng)
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
    norm is h^{-2} ||R(1/h)||.
    """
    rng = rng or np.random.default_rng(0)
    out = []
    for h in h_list:
        h = float(h)
        if not 0.0 < h <= 1.0:
            raise ValueError(f"semiclassical parameter must lie in (0, 1], got h={h}")
        op = mode_operator(grid, 0.0, damping, 1.0 / h, order=order)
        sigma, res, _ = iterative_norm(op.solve, op.solve_adjoint, grid.N, rng)
        norm = sigma / h ** 2
        out.append({"h": h, "norm": norm, "h_norm": h * norm, "residual": res})
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
