"""Longitudinal grid, damping profiles, banded discrete operators and weights.

The unbounded axis is truncated to (-X, X) with a homogeneous cap at the
ends; interior nodes carry the unknowns.  Shipped damping profiles keep the
absorption effective in the outer part of the box so that outgoing energy is
absorbed before it can reflect off the cap.  ``BandedLaplacian`` holds the
Toeplitz stencil of D2, and ``BandCholesky`` is the one band Cholesky factor
of diag + s(-D2) that the stepper, the smoother and the energy norm share.
No dense matrix is assembled here; the dense oracles that these banded
paths are checked against live in ``tests/dense_oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs
from scipy.sparse import diags as sparse_diags
from scipy.sparse.linalg import splu

from .errors import SolveError

#: smoothing width of the hole profile edge
HOLE_EDGE_WIDTH = 2.0


def japanese_bracket(x: np.ndarray) -> np.ndarray:
    """<x> = (1 + x^2)^(1/2)."""
    return np.sqrt(1.0 + np.square(x))


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on (-X, X) with a homogeneous cap at +-X."""

    X: float
    N: int

    def __post_init__(self):
        if self.N < 16:
            raise ValueError(f"grid needs N >= 16 interior points, got N={self.N}")
        if self.X <= 0:
            raise ValueError(f"half-width must be positive, got X={self.X}")

    @property
    def h(self) -> float:
        return 2.0 * self.X / (self.N + 1)

    @property
    def xs(self) -> np.ndarray:
        return -self.X + self.h * np.arange(1, self.N + 1)

    def refine(self, factor: float) -> "Grid1D":
        """Wider box at (nearly) the same spacing, for truncation guards."""
        return Grid1D(X=self.X * factor, N=int(round((self.N + 1) * factor)) - 1)


@dataclass(frozen=True)
class DampingProfile:
    """Absorption index a(x) >= 0 sampled on a grid.

    kinds:
      constant       a = level everywhere
      longrange(rho) a = 1 - (1/2)<x>^(-rho); tends to 1, floor 1/2
      hole(r, rho)   a = 0 on |x| <= r, C1 ramp of width 2, longrange envelope

    ``level`` is used by ``constant`` only; the other kinds reject any level
    but the default 1.  A negative ``level`` (anti-damping) raises, as does a
    ``rho`` or ``r`` <= 0 for a kind that reads it.
    """

    kind: str
    rho: float
    r: float
    level: float
    samples: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, grid: Grid1D, kind: str, rho: float = 2.0, r: float = 5.0,
              level: float = 1.0) -> "DampingProfile":
        x = grid.xs
        if kind == "constant":
            if level < 0:
                raise ValueError(f"constant damping level must be >= 0, got level={level}")
            a = np.full(grid.N, float(level))
        elif kind in ("longrange", "hole"):
            if level != 1.0:
                raise ValueError(f"damping level applies to kind 'constant' only, "
                                 f"got level={level} for kind {kind!r}")
            if rho <= 0:
                raise ValueError(f"{kind} decay rate must be positive, got rho={rho}")
            a = 1.0 - 0.5 * japanese_bracket(x) ** (-rho)
            if kind == "hole":
                if r <= 0:
                    raise ValueError(f"hole radius must be positive, got r={r}")
                a = np.clip((np.abs(x) - r) / HOLE_EDGE_WIDTH, 0.0, 1.0) ** 2 * a
        else:
            raise ValueError(f"unknown damping kind {kind!r}")
        return cls(kind=kind, rho=rho, r=r, level=level, samples=a)

    def hypothesis_constants(self, grid: Grid1D) -> dict[str, float]:
        """Empirical constants of the absorption hypothesis on this grid.

        C0 bounds |a - 1|<x>^rho, C1 bounds |a'|<x>^(rho+1) with a' by
        centered differences.  Reported, never enforced.
        """
        x = grid.xs
        w = japanese_bracket(x)
        c_0 = float(np.max(np.abs(self.samples - 1.0) * w ** self.rho))
        da = np.gradient(self.samples, grid.h)
        c_1 = float(np.max(np.abs(da) * w ** (self.rho + 1.0)))
        return {"C0": c_0, "C1": c_1}


@dataclass(frozen=True)
class WeightSpec:
    """Weight exponents instantiating the energy-decay hypotheses (d = 1)."""

    delta1: float = 0.0
    delta2: float = 0.0
    s1: float = 0.0
    s2: float = 0.0
    s: float = 0.0
    kappa: float = 1.1

    def validate_decay_hypotheses(self, d: int = 1, rho: float = math.inf) -> None:
        """Raise ValueError naming every violated hypothesis."""
        bad = []
        half_d = d / 2.0
        if not (0.0 <= self.s1 <= half_d):
            bad.append(f"s1 in [0, d/2]: s1={self.s1}, d={d}")
        if not (0.0 <= self.s2 <= half_d):
            bad.append(f"s2 in [0, d/2]: s2={self.s2}, d={d}")
        if not self.kappa > 1.0:
            bad.append(f"kappa > 1: kappa={self.kappa}")
        if self.s > 1.0:
            bad.append(f"s <= 1: s={self.s}")
        if not (0.0 <= self.s < min(d, rho)):
            bad.append(f"s < min(d, rho): s={self.s}, min(d, rho)={min(d, rho)}")
        if self.delta1 < self.kappa * self.s1 + self.s - 1e-12:
            bad.append(f"delta1 >= kappa*s1 + s: delta1={self.delta1} < {self.kappa * self.s1 + self.s}")
        if self.delta2 < self.kappa * self.s2 + self.s - 1e-12:
            bad.append(f"delta2 >= kappa*s2 + s: delta2={self.delta2} < {self.kappa * self.s2 + self.s}")
        if bad:
            raise ValueError("weight hypotheses violated: " + "; ".join(bad))


# second- and first-derivative stencil coefficients by order
_D2_STENCILS = {2: [-2.0, 1.0], 4: [-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0]}
_D1_STENCILS = {2: [1.0 / 2.0], 4: [2.0 / 3.0, -1.0 / 12.0]}


@dataclass(frozen=True)
class BandedLaplacian:
    """Symmetric negative-semidefinite stencil for d^2/dx^2, cap at +-X.

    The stencil is Toeplitz: ``coeffs[m]`` is the value of the whole m-th
    super- and subdiagonal.  Values beyond the cap are taken as zero, which
    truncates the stencil and keeps it symmetric and <= 0.
    """

    grid: Grid1D
    order: int
    coeffs: tuple[float, ...]

    @property
    def halfbw(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, u: np.ndarray) -> np.ndarray:
        """D2 along the last axis, so a (K, N) mode block is one call."""
        out = self.coeffs[0] * u
        for m in range(1, len(self.coeffs)):
            c = self.coeffs[m]
            out[..., :-m] += c * u[..., m:]
            out[..., m:] += c * u[..., :-m]
        return out


def laplacian_1d(grid: Grid1D, order: int = 4) -> BandedLaplacian:
    """Banded discrete d^2/dx^2 on the interior nodes, homogeneous cap at +-X."""
    if order not in _D2_STENCILS:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    h2 = grid.h ** 2
    return BandedLaplacian(grid=grid, order=order,
                           coeffs=tuple(c / h2 for c in _D2_STENCILS[order]))


class BandCholesky:
    """Upper band Cholesky factor U of the SPD matrix diag + scale (-D2) = U^T U.

    A (K, N) ``diag`` stacks K uncoupled blocks into one band matrix of order
    K N; bands that would cross a block boundary stay zero.  ``ab`` holds U in
    LAPACK upper band storage, as ``dtype``.  A matrix that is not positive
    definite raises ``SolveError``.
    """

    def __init__(self, lap: BandedLaplacian, diag, scale: float = 1.0, dtype=float):
        diag = np.asarray(diag, dtype=float)
        hb = lap.halfbw
        ab = np.zeros((hb + 1,) + diag.shape)
        ab[hb] = diag
        for m in range(1, hb + 1):
            ab[hb - m, ..., m:] = -scale * lap.coeffs[m]
        try:
            chol = cholesky_banded(ab.reshape(hb + 1, -1), lower=False)
        except (LinAlgError, ValueError) as exc:
            raise SolveError(f"band Cholesky factorization failed: {exc}") from exc
        self.ab = chol.astype(dtype, copy=False)
        self._pbtrs, self._tbtrs = get_lapack_funcs(("pbtrs", "tbtrs"), (self.ab,))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(U^T U)^{-1} b by one LAPACK ``pbtrs``, b of diag's shape; may overwrite b."""
        x, info = self._pbtrs(self.ab, b.reshape(-1), overwrite_b=True)
        if info != 0:
            raise SolveError(f"band Cholesky solve failed: pbtrs info={info}")
        return x.reshape(b.shape)

    def mul(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """U x, or U^T x with ``transpose``, for an x of length K N."""
        u = self.ab
        hb = u.shape[0] - 1
        out = u[hb] * x
        for m in range(1, hb + 1):
            if transpose:
                out[m:] += u[hb - m, m:] * x[:-m]
            else:
                out[:-m] += u[hb - m, m:] * x[m:]
        return out

    def solve_triangular(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """U^{-1} x, or U^{-T} x with ``transpose``, by one LAPACK ``tbtrs`` call."""
        y, info = self._tbtrs(self.ab, x[:, None], uplo="U", trans="T" if transpose else "N")
        if info != 0:
            raise SolveError(f"triangular band solve failed: tbtrs info={info}")
        return y[:, 0]


def gradient_1d(u: np.ndarray, grid: Grid1D, order: int = 4) -> np.ndarray:
    """Centered first derivative along the last axis, zero extension at the cap."""
    if order not in _D1_STENCILS:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    out = np.zeros_like(np.asarray(u, dtype=np.result_type(u, float)))
    for m, c in enumerate(_D1_STENCILS[order], start=1):
        cm = c / grid.h
        out[..., :-m] += cm * u[..., m:]
        out[..., m:] -= cm * u[..., :-m]
    return out


@dataclass(frozen=True)
class ShiftedOperator:
    """Discrete -d^2/dx^2 + diag acting on one mode.

    ``mode_operator`` sets diag = lam - i z a(x) - z^2; the heat model of the
    theta probe uses diag = -i z.  Complex symmetric banded matrix.  The sparse LU factorization is computed
    on the first solve and cached; the adjoint solve reuses it with the
    conjugate-transpose triangular sweeps.
    """

    grid: Grid1D
    lap: BandedLaplacian
    z: complex
    diag: np.ndarray = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = -self.lap.apply(np.asarray(u, dtype=complex))
        out += self.diag * u
        return out

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        return np.conj(self.apply(np.conj(u)))

    def _factor(self):
        fac = self._cache.get("lu")
        if fac is None:
            offsets = list(range(-self.lap.halfbw, self.lap.halfbw + 1))
            bands = [np.full(self.grid.N - abs(off), -self.lap.coeffs[abs(off)], dtype=complex)
                     if off else (self.diag - self.lap.coeffs[0]).astype(complex)
                     for off in offsets]
            mat = sparse_diags(bands, offsets, format="csc")
            try:
                fac = splu(mat)
            except Exception as exc:  # singular factorization
                raise SolveError(f"sparse factorization failed at z={self.z}: {exc}") from exc
            self._cache["lu"] = fac
        return fac

    def _checked(self, u: np.ndarray, f: np.ndarray, adjoint: bool, rtol: float) -> np.ndarray:
        nf = float(np.linalg.norm(f))
        if nf > 0.0:
            lhs = self.apply_adjoint(u) if adjoint else self.apply(u)
            res = float(np.linalg.norm(lhs - f)) / nf
            if not np.isfinite(res) or res > rtol:
                cond_est = float(np.linalg.norm(u)) / nf
                raise SolveError(
                    f"near-singular solve at z={self.z}: residual {res:.3e}, "
                    f"norm amplification ~{cond_est:.3e}")
        return u

    def solve(self, f: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
        f = np.asarray(f, dtype=complex)
        u = self._factor().solve(f)
        return self._checked(u, f, False, rtol)

    def solve_adjoint(self, f: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
        f = np.asarray(f, dtype=complex)
        u = self._factor().solve(f, trans="H")
        return self._checked(u, f, True, rtol)


def mode_operator(grid: Grid1D, lam: float, damping: DampingProfile, z: complex,
                  order: int = 4, mass: float = 0.0) -> ShiftedOperator:
    """Assemble the shifted operator for transverse eigenvalue ``lam``.

    Mode decoupling requires an x-only absorption index, which the 1D
    ``DampingProfile`` guarantees by construction; raw arrays of any other
    shape are rejected.
    """
    a = damping.samples
    if a.shape != (grid.N,):
        raise ValueError(
            f"damping must be sampled on the x-grid only (shape ({grid.N},)), got {a.shape}")
    z = complex(z)
    diag = lam + mass * mass - 1j * z * a - z * z
    lap = laplacian_1d(grid, order=order)
    return ShiftedOperator(grid=grid, lap=lap, z=z, diag=diag)


def weight(grid: Grid1D, delta: float) -> np.ndarray:
    """Samples of <x>^delta on the grid."""
    return japanese_bracket(grid.xs) ** delta

