"""Longitudinal grid, damping profiles, banded discrete operators and weights.

The unbounded axis is truncated to (-X, X) with a homogeneous cap at the
ends; interior nodes carry the unknowns.  Shipped damping profiles keep the
absorption effective in the outer part of the box so that outgoing energy is
absorbed before it can reflect off the cap.  A grid owns its D2 stencil,
``Grid1D.laplacian``, of the grid's order (``Grid1D.order``, 2 or 4, from the
config's ``grid.order``) and spacing; ``ShiftedOperator`` and ``BandCholesky``
(the band factor the stepper, the smoother and the energy norm share) read it
from their grid and take no stencil beside it.
A ``DampingProfile`` carries the grid it is sampled on, so a function that
takes a profile reads the grid from it and takes no grid beside it.
No dense matrix is assembled here; the dense oracles that these banded
paths are checked against live in ``tests/dense_oracles.py``.  The evolution
path (``BandCholesky``, LAPACK band routines) loads no sparse LU: SuperLU is
imported by ``ShiftedOperator``'s first factorization, so only the scans load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, eig_banded, get_lapack_funcs

from .errors import SolveError

#: smoothing width of the hole profile edge
HOLE_EDGE_WIDTH = 2.0
#: largest relative residual ||T u - f|| / ||f|| a ``ShiftedOperator`` solve may return
SOLVE_RTOL = 1e-10


# second- and first-derivative stencil coefficients by order
_D2_STENCILS = {2: [-2.0, 1.0], 4: [-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0]}
_D1_STENCILS = {2: [1.0 / 2.0], 4: [2.0 / 3.0, -1.0 / 12.0]}


def japanese_bracket(x: np.ndarray) -> np.ndarray:
    """<x> = (1 + x^2)^(1/2)."""
    return np.sqrt(1.0 + np.square(x))


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on (-X, X) with a homogeneous cap at +-X.

    ``order`` (2 or 4) is the order of the finite-difference stencils on it.
    """

    X: float
    N: int
    order: int = 4

    def __post_init__(self):
        if self.order not in _D2_STENCILS:
            raise ValueError(f"stencil order must be 2 or 4, got {self.order}")
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

    @cached_property
    def laplacian(self) -> BandedLaplacian:
        """Banded discrete d^2/dx^2 on the interior nodes, homogeneous cap at +-X."""
        h2 = self.h ** 2
        return BandedLaplacian(coeffs=tuple(c / h2 for c in _D2_STENCILS[self.order]))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues mu_j of -D2, ascending, each within ``spectrum_error``
        of the exact one.

        -D2 is symmetric Toeplitz with a zero cap at +-X, so it commutes with the
        reflection x -> -x, and the orthogonal change to its even and odd vectors
        splits it into two blocks of half the order and the same half-width
        (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  With a_d the d-th
        diagonal of -D2 (zero beyond the band) and m = N // 2, the blocks are
        a_|i-k| +- a_(N-1-i-k) on i, k < m; for odd N the even block has one more
        row, the middle node: sqrt(2) a_(m-k) off the diagonal, a_0 on it.  Each
        block goes to LAPACK's symmetric band eigensolver (``eig_banded``,
        eigenvalues only), and the union of the two is the spectrum.
        """
        a = [-c for c in self.laplacian.coeffs]
        hb, n, m = len(a) - 1, self.N, self.N // 2
        halves = []
        for sign, size in ((1.0, n - m), (-1.0, m)):
            bands = np.empty((hb + 1, size))
            for d in range(hb + 1):
                bands[d] = a[d]
                # entry (i, k) = (j + d, j) of the corner where N - 1 - i - k <= hb
                for j in range((n - hb - d) // 2, m - d):
                    bands[d, j] += sign * a[n - 1 - 2 * j - d]
                if size > m and d > 0:
                    # row m, the middle node of odd N, couples to both its sides
                    bands[d, m - d] = math.sqrt(2.0) * a[d]
            halves.append(eig_banded(bands, lower=True, eigvals_only=True))
        mu = np.concatenate(halves)
        mu.sort()
        return mu

    @property
    def spectrum_error(self) -> float:
        """delta = 10 N eps ||D2||_inf, a bound of |mu_j - computed mu_j|.

        The eigensolver is backward stable: on a block of order n it returns the
        exact eigenvalues of the block + E with ||E||_2 <= p(n) eps ||block||_2,
        p(n) a modestly growing function of n (LAPACK Users' Guide, section 4.7),
        linear for the Householder band reduction.  ``spectrum`` splits -D2 by an
        orthogonal similarity, so each block has order at most (N + 1) / 2 and
        2-norm at most ||D2||_2, and the spectrum of -D2 is the union of theirs;
        rounding the folded corner and middle entries adds a few eps ||D2||_2.  All
        of it lies within p(N) = 10 N, and ||D2||_2 <= ||D2||_inf for a symmetric
        matrix.  Weyl's inequality moves each eigenvalue by at most ||E||_2.
        """
        coeffs = self.laplacian.coeffs
        norm = abs(coeffs[0]) + 2.0 * sum(abs(c) for c in coeffs[1:])
        return 10.0 * self.N * float(np.finfo(float).eps) * norm

    def refine(self, factor: float) -> "Grid1D":
        """Wider box at (nearly) the same spacing, for truncation guards."""
        return Grid1D(X=self.X * factor, N=int(round((self.N + 1) * factor)) - 1,
                      order=self.order)


@dataclass(frozen=True)
class DampingProfile:
    """Absorption index a(x) >= 0 sampled on ``grid``.

    kinds:
      constant       a = level everywhere
      longrange(rho) a = 1 - (1/2)<x>^(-rho); tends to 1, floor 1/2
      hole(r, rho)   a = 0 on |x| <= r, C1 ramp of width 2, longrange envelope

    ``level`` is used by ``constant`` only; the other kinds reject any level
    but the default 1.  A negative ``level`` (anti-damping) raises, as does a
    ``rho`` or ``r`` <= 0 for a kind that reads it.  ``samples`` hold one
    value per node of ``grid``; any other shape raises.
    """

    grid: Grid1D
    kind: str
    rho: float
    r: float
    level: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        # mode decoupling needs an x-only absorption index on this very grid
        if self.samples.shape != (self.grid.N,):
            raise ValueError(f"damping must be sampled on the x-grid only "
                             f"(shape ({self.grid.N},)), got {self.samples.shape}")

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
        return cls(grid=grid, kind=kind, rho=rho, r=r, level=level, samples=a)

    def hypothesis_constants(self) -> dict[str, float]:
        """Empirical constants of the absorption hypothesis on the profile's grid.

        C0 bounds |a - 1|<x>^rho, C1 bounds |a'|<x>^(rho+1) with a' by
        centered differences.  Reported, never enforced.
        """
        w = japanese_bracket(self.grid.xs)
        c_0 = float(np.max(np.abs(self.samples - 1.0) * w ** self.rho))
        da = np.gradient(self.samples, self.grid.h)
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


@dataclass(frozen=True)
class BandedLaplacian:
    """Symmetric negative-semidefinite stencil for d^2/dx^2, cap at +-X.

    The stencil is Toeplitz: ``coeffs[m]`` is the value of the whole m-th
    super- and subdiagonal.  Values beyond the cap are taken as zero, which
    truncates the stencil and keeps it symmetric and <= 0.
    """

    coeffs: tuple[float, ...]

    @property
    def halfbw(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, u: np.ndarray) -> np.ndarray:
        """D2 along the last axis, so a (K, N) mode block is one call."""
        out = self.coeffs[0] * u
        for m in range(1, len(self.coeffs)):
            cu = self.coeffs[m] * u
            out[..., :-m] += cu[..., m:]
            out[..., m:] += cu[..., :-m]
        return out


class BandCholesky:
    """Upper band Cholesky factor U of an SPD band matrix A = U^T U on ``grid``.

    A has diagonal ``diag`` (the caller folds in the stencil's centre) and the
    off-diagonals of scale (-D2), D2 = ``grid.laplacian``.  A (K, N) ``diag``
    stacks K uncoupled blocks into one band matrix of order K N; bands that
    would cross a block boundary stay zero.  ``ab`` holds U in LAPACK upper band
    storage, as ``dtype``.  A matrix that is not positive definite raises ``SolveError``.
    """

    def __init__(self, grid: Grid1D, diag, scale: float = 1.0, dtype=float):
        diag = np.asarray(diag, dtype=float)
        lap = grid.laplacian
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


def gradient_1d(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Centered first derivative along the last axis, zero extension at the cap."""
    out = np.zeros_like(np.asarray(u, dtype=np.result_type(u, float)))
    for m, c in enumerate(_D1_STENCILS[grid.order], start=1):
        cm = c / grid.h
        out[..., :-m] += cm * u[..., m:]
        out[..., m:] -= cm * u[..., :-m]
    return out


@dataclass(frozen=True)
class ShiftedOperator:
    """Discrete -d^2/dx^2 + diag acting on one mode, D2 the grid's stencil.

    ``mode_operator`` sets diag = lam - i z a(x) - z^2; the heat model of the
    theta probe uses diag = -i z.  Complex symmetric banded matrix.  The
    SuperLU factorization, with one-column panels, is computed on the first
    solve and kept (``_lu``); the adjoint solve reuses it with the
    conjugate-transpose triangular sweeps.  SuperLU is imported there, not
    with the module.
    """

    grid: Grid1D
    z: complex
    diag: np.ndarray = field(repr=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.diag * u - self.grid.laplacian.apply(u)

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        """The conjugate transpose: the stencil is real and symmetric, only diag is conjugated."""
        return self._diag_conj * u - self.grid.laplacian.apply(u)

    @cached_property
    def _diag_conj(self) -> np.ndarray:
        """conj(diag), formed on the first adjoint application and kept."""
        return np.conj(self.diag)

    @cached_property
    def _lu(self):
        """The SuperLU factorization of the operator, formed on the first solve and kept."""
        # imported here: the evolution commands factor no shifted mode and never load it
        from scipy.sparse import diags as sparse_diags
        from scipy.sparse.linalg import splu

        lap = self.grid.laplacian
        offsets = list(range(-lap.halfbw, lap.halfbw + 1))
        bands = [np.full(self.grid.N - abs(off), -lap.coeffs[abs(off)], dtype=complex)
                 if off else (self.diag - lap.coeffs[0]).astype(complex)
                 for off in offsets]
        mat = sparse_diags(bands, offsets, format="csc")
        try:
            # a band of half-width <= 2 has no wide supernode for a wider panel to block
            return splu(mat, panel_size=1)
        except Exception as exc:  # singular factorization
            raise SolveError(f"sparse factorization failed at z={self.z}: {exc}") from exc

    def _checked(self, u: np.ndarray, f: np.ndarray, adjoint: bool) -> np.ndarray:
        """u if ||T u - f|| <= ``SOLVE_RTOL`` ||f||, T^* u for ``adjoint``; raises otherwise."""
        nf = math.sqrt(np.vdot(f, f).real)
        if nf > 0.0:
            r = self.apply_adjoint(u) if adjoint else self.apply(u)
            r -= f
            res = math.sqrt(np.vdot(r, r).real) / nf
            if not math.isfinite(res) or res > SOLVE_RTOL:
                cond_est = float(np.linalg.norm(u)) / nf
                raise SolveError(
                    f"near-singular solve at z={self.z}: residual {res:.3e}, "
                    f"norm amplification ~{cond_est:.3e}")
        return u

    def solve(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=complex)
        u = self._lu.solve(f)
        return self._checked(u, f, False)

    def solve_adjoint(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=complex)
        u = self._lu.solve(f, trans="H")
        return self._checked(u, f, True)


def mode_operator(lam: float, damping: DampingProfile, z: complex) -> ShiftedOperator:
    """Assemble -D2 + lam - i z a - z^2 on the damping's grid, for transverse
    eigenvalue ``lam`` (m^2 included)."""
    z = complex(z)
    diag = lam - 1j * z * damping.samples - z * z
    return ShiftedOperator(grid=damping.grid, z=z, diag=diag)


def weight(grid: Grid1D, delta: float) -> np.ndarray:
    """Samples of <x>^delta on the grid."""
    return japanese_bracket(grid.xs) ** delta

