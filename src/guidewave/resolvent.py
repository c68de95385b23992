"""Complex-shifted solves, operator-norm scans, and low/high frequency probes.

Operator norms between Sobolev pairs are computed by power iteration on
T^*T, with the Sobolev scalings (1 - d^2/dx^2)^(+-beta/2) realized
spectrally in the sine basis of the truncation box; a dense SVD oracle
validates subsamples.  The block resolvent of the first-order wave operator
and its adjoint are applied through the mode resolvent R(z) and the
reflection identity R(z)^* = R(-conj(z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst
from scipy.linalg import svdvals
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, svds

from .discretize import (DampingProfile, Grid1D, ShiftedOperator, _D1_STENCILS,
                         laplacian_1d, mode_operator, weight)
from .errors import ConvergenceError, SolveError

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


def iterative_norm(apply_op, apply_adjoint, n: int, rng: np.random.Generator,
                   tol: float = 1e-7) -> tuple[float, float, int]:
    """Largest singular value, matrix-free, with a seeded start vector.

    Lanczos (ARPACK) on the normal operator; plain power iteration stagnates
    when the top singular values cluster (constant damping leaves ~ tau X / pi
    near-degenerate modes), so it is kept only as the fallback when ARPACK
    itself fails.  Errors raised by the operator propagate.
    """
    op = LinearOperator((n, n), matvec=lambda x: apply_op(np.ravel(x)),
                        rmatvec=lambda x: apply_adjoint(np.ravel(x)), dtype=complex)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        sigma = svds(op, k=1, v0=v0, tol=tol, maxiter=60, return_singular_vectors=False)
        return float(sigma[0]), tol, -1
    except (ArpackNoConvergence, ArpackError):
        return power_iteration_norm(apply_op, apply_adjoint, n, rng)


class SobolevScaler:
    """(1 - d^2/dx^2)^(beta/2) realized on the sine eigenbasis of the cap."""

    def __init__(self, grid: Grid1D):
        m = np.arange(1, grid.N + 1)
        self.nu = (m * math.pi / (2.0 * grid.X)) ** 2
        self.grid = grid

    def apply(self, u: np.ndarray, beta: float) -> np.ndarray:
        if beta == 0:
            return np.asarray(u, dtype=complex)
        coef = dst(np.asarray(u, dtype=complex), type=1, norm="ortho")
        coef *= (1.0 + self.nu) ** (beta / 2.0)
        return dst(coef, type=1, norm="ortho")

    def dense(self, beta: float) -> np.ndarray:
        basis = dst(np.eye(self.grid.N), type=1, norm="ortho", axis=0)
        return basis.T @ ((1.0 + self.nu[:, None]) ** (beta / 2.0) * basis)


def _mode_sobolev_norm(op: ShiftedOperator, scaler: SobolevScaler, beta1: int, beta2: int,
                       rng: np.random.Generator, tol: float = 1e-6, maxit: int = 500):
    def apply_op(x):
        return scaler.apply(op.solve(scaler.apply(x, beta2)), beta1)

    def apply_adj(x):
        return scaler.apply(op.solve_adjoint(scaler.apply(x, beta1)), beta2)

    return iterative_norm(apply_op, apply_adj, op.grid.N, rng, tol=min(tol, 1e-7))


def dense_sobolev_norm(op: ShiftedOperator, scaler: SobolevScaler, beta1: int, beta2: int) -> float:
    """Dense-SVD oracle for the (H^b2)' -> H^b1 norm of the mode resolvent."""
    rmat = np.linalg.inv(op.dense())
    left = scaler.dense(beta1) if beta1 else None
    right = scaler.dense(beta2) if beta2 else None
    mat = rmat if left is None else left @ rmat
    if right is not None:
        mat = mat @ right
    return float(svdvals(mat)[0])


def norm_scan(z_list, beta1: int, beta2: int, damping: DampingProfile, grid: Grid1D,
              lambdas, order: int = 4, mass: float = 0.0,
              rng: np.random.Generator | None = None, oracle_fraction: float = 0.1,
              truncation_guard: bool = False, guard_rtol: float = 0.05) -> list[ScanPoint]:
    """Resolvent norms over the guide: max over transverse modes per z.

    With ``truncation_guard`` every point is recomputed on a 1.5X box and
    flagged "truncation-limited" when the norm moves by more than 5%.  A
    seeded dense-SVD oracle cross-checks a subsample of points (only
    meaningful at moderate N).
    """
    if beta1 not in (0, 1) or beta2 not in (0, 1):
        raise ValueError(f"Sobolev indices must lie in {{0,1}}, got beta1={beta1}, beta2={beta2}")
    rng = rng or np.random.default_rng(0)
    lambdas = np.asarray(lambdas, dtype=float)
    scaler = SobolevScaler(grid)
    oracle_grid_ok = grid.N <= 1024

    if truncation_guard:
        grid2 = grid.refine(1.5)
        damping2 = DampingProfile.build(grid2, kind=damping.kind, rho=damping.rho,
                                        r=damping.r, level=damping.level)
        scaler2 = SobolevScaler(grid2)

    points = []
    for z in z_list:
        z = complex(z)
        best, best_k, best_res = 0.0, 0, 0.0
        tau_sq = z.real ** 2
        fading = 0
        for k, lam in enumerate(lambdas):
            op = mode_operator(grid, lam, damping, z, order=order, mass=mass)
            sigma, res, _ = _mode_sobolev_norm(op, scaler, beta1, beta2, rng)
            if sigma > best:
                best, best_k, best_res = sigma, k, res
            # the elliptic tail lam_k >> tau^2 decays monotonically; stop once
            # clearly past the crossing regime and well below the running max
            if lam + mass * mass > tau_sq + 25.0 and sigma < 0.3 * best:
                fading += 1
                if fading >= 3:
                    break
            else:
                fading = 0
        flag = "ok"
        if oracle_grid_ok and rng.random() < oracle_fraction:
            op = mode_operator(grid, lambdas[best_k], damping, z, order=order, mass=mass)
            sigma_svd = dense_sobolev_norm(op, scaler, beta1, beta2)
            if abs(best - sigma_svd) > 0.01 * sigma_svd:
                raise ConvergenceError(
                    f"power iteration disagrees with dense SVD at z={z}: {best} vs {sigma_svd}")
            flag = "validated"
        if truncation_guard:
            op2 = mode_operator(grid2, lambdas[best_k], damping2, z, order=order, mass=mass)
            sigma2, _, _ = _mode_sobolev_norm(op2, scaler2, beta1, beta2, rng)
            if abs(sigma2 - best) > guard_rtol * best:
                flag = "truncation-limited"
        points.append(ScanPoint(z=z, beta1=beta1, beta2=beta2, norm_est=best,
                                method=POWER_ITERATION, residual=best_res, flag=flag,
                                k_argmax=best_k))
    return points


# ---------------------------------------------------------------------------
# block resolvent of the first-order operator and its adjoint


class WaveBlockResolvent:
    """(A - z)^{-1} on one mode via the block formula, with cached factors.

    u = R(z)[(ia + z) f + g],  v = f + R(z)[(i z a + z^2) f + z g];
    the adjoint uses the reflection identity R(z)^* = R(-conj(z)).
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
        v = f + self.op.solve((1j * z * a + z * z) * f + z * g)
        return u, v

    def apply_adjoint(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        zb = np.conj(self.z)
        a = self.a
        rf = self.op.solve_adjoint(np.asarray(f, dtype=complex))
        rg = self.op.solve_adjoint(np.asarray(g, dtype=complex))
        w1 = (zb - 1j * a) * rf + g + (zb * zb - 1j * zb * a) * rg
        w2 = rf + zb * rg
        return w1, w2


class EnergyNormResolvent:
    """Per-mode resolvent measured in the energy norm (grad + L2).

    The scaling (P_k)^{1/2} with P_k = -D2 + lam is realized spectrally: the
    sine transform diagonalizes the order-2 stencil exactly; for order 4 a
    dense eigendecomposition is computed once per mode and reused across z.
    """

    def __init__(self, grid: Grid1D, lam: float, damping: DampingProfile, order: int = 4):
        self.grid = grid
        self.lam = float(lam)
        self.damping = damping
        self.order = order
        if order == 2:
            m = np.arange(1, grid.N + 1)
            stencil_eigs = (2.0 - 2.0 * np.cos(m * math.pi / (grid.N + 1))) / grid.h ** 2
            self._dst_sqrt = np.sqrt(np.clip(stencil_eigs + self.lam, 1e-14, None))
            self._vecs = None
        else:
            p = -laplacian_1d(grid, order=order).as_dense() + self.lam * np.eye(grid.N)
            vals, vecs = np.linalg.eigh(p)
            vals = np.clip(vals, 1e-14, None)
            self._vecs = vecs
            self._sqrt = np.sqrt(vals)

    def _scale(self, x: np.ndarray, power: float) -> np.ndarray:
        if self._vecs is None:
            coef = dst(np.asarray(x, dtype=complex), type=1, norm="ortho")
            coef *= self._dst_sqrt ** power
            return dst(coef, type=1, norm="ortho")
        return self._vecs @ (self._sqrt ** power * (self._vecs.T @ x))

    def op_norm(self, z: complex, rng: np.random.Generator, tol: float = 1e-6,
                maxit: int = 500) -> float:
        n = self.grid.N
        block = WaveBlockResolvent(z, self.damping, self.lam, self.grid, order=self.order)

        def apply_op(x):
            u, v = block.apply(self._scale(x[:n], -1.0), x[n:])
            return np.concatenate([self._scale(u, 1.0), v])

        def apply_adj(x):
            w1, w2 = block.apply_adjoint(self._scale(x[:n], 1.0), x[n:])
            return np.concatenate([self._scale(w1, -1.0), w2])

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


def _dense_gradient(grid: Grid1D, order: int = 4) -> np.ndarray:
    n = grid.N
    g = np.zeros((n, n))
    for m, c in enumerate(_D1_STENCILS[order], start=1):
        cm = c / grid.h
        g += cm * np.diag(np.ones(n - m), m) - cm * np.diag(np.ones(n - m), -m)
    return g


@dataclass(frozen=True)
class HeatModelResolvent:
    """Dense mode-0 blocks of the heat-model resolvent at z.

    Row 2 equals z times row 1 by construction; ``structure_residual``
    measures the identity on the assembled matrices.
    """

    z: complex
    h11: np.ndarray = field(repr=False)
    h12: np.ndarray = field(repr=False)
    h21: np.ndarray = field(repr=False)
    h22: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, z: complex, damping: DampingProfile, grid: Grid1D, order: int = 4) -> "HeatModelResolvent":
        lap = laplacian_1d(grid, order=order).as_dense()
        hres = np.linalg.inv(-lap - 1j * z * np.eye(grid.N))
        a = damping.samples
        h11 = 1j * hres * a[None, :]
        h12 = hres
        h21 = 1j * z * hres * a[None, :]
        h22 = z * hres
        return cls(z=z, h11=h11, h12=h12, h21=h21, h22=h22)

    def structure_residual(self) -> float:
        num = max(float(np.max(np.abs(self.h21 - self.z * self.h11))),
                  float(np.max(np.abs(self.h22 - self.z * self.h12))))
        den = max(float(np.max(np.abs(self.h21))), float(np.max(np.abs(self.h22))), 1e-300)
        return num / den


def theta_probe(z_list, damping: DampingProfile, grid: Grid1D, lambdas,
                delta1: float, delta2: float, order: int = 4, modes=None) -> list[dict]:
    """Weighted norms of the blocks of (A - z)^{-1} - R_Heat(z).

    Blocks 1 and 2 are measured with the full gradient (the transverse part
    contributes sqrt(lam_k) per mode); blocks 3 and 4 without.  The norm over
    the guide is the max over the probed modes; the heat part lives on mode 0
    only.  Requires Im z > 0 and |z| <= 1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if modes is None:
        modes = range(min(3, len(lambdas)))
    wl = np.diag(weight(grid, -delta1))
    wr = np.diag(weight(grid, -delta2))
    gmat = _dense_gradient(grid, order)
    a = damping.samples
    eye = np.eye(grid.N)
    out = []
    for z in z_list:
        z = complex(z)
        if z.imag <= 0 or abs(z) > 1 + 1e-12:
            raise ValueError(f"theta probe needs Im z > 0 and |z| <= 1, got z={z}")
        heat = HeatModelResolvent.build(z, damping, grid, order=order)
        norms = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
        for k in modes:
            lam = lambdas[k]
            rmat = np.linalg.inv(mode_operator(grid, lam, damping, z, order=order).dense())
            b11 = rmat * (1j * a + z)[None, :]
            b12 = rmat
            b21 = eye + rmat * (1j * z * a + z * z)[None, :]
            b22 = z * rmat
            if k == 0:
                t1, t2, t3, t4 = b11 - heat.h11, b12 - heat.h12, b21 - heat.h21, b22 - heat.h22
            else:
                t1, t2, t3, t4 = b11, b12, b21, b22
            for j, t in ((1, t1), (2, t2)):
                stacked = np.vstack([wl @ gmat @ t @ wr,
                                     math.sqrt(lam) * (wl @ t @ wr)])
                norms[j] = max(norms[j], float(svdvals(stacked)[0]))
            for j, t in ((3, t3), (4, t4)):
                norms[j] = max(norms[j], float(svdvals(wl @ t @ wr)[0]))
        out.append({"z": z, "theta1": norms[1], "theta2": norms[2], "theta3": norms[3],
                    "theta4": norms[4], "structure_residual": heat.structure_residual()})
    return out


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
