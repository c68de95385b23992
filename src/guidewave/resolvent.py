"""Complex-shifted solves, operator-norm scans, and low/high frequency probes.

Every operator norm is the top singular value of a matrix-free operator, by
the Lanczos three-term recurrence on T^*T from a seeded start vector.  The
recurrence stores no basis, tests its top Ritz pair at every step, stops once
the normal-operator residual is at most tol^2 sigma^2 and reports that
measured residual.  A run that the step budget cuts short
returns its Ritz value only when a certified upper bound pins it to within
tol, and raises ``ConvergenceError`` otherwise.  A Sobolev side is the
form norm of M = 1 - D2, the operator the scan solves with: its band Cholesky
factor M = U^T U has U = W M^{1/2} with W orthogonal, so a scan measures
||U R U^T|| for ||M^{1/2} R M^{1/2}||, one band product per scaled side of
each application and no transform (``SobolevScaler``).  A norm scan takes its
max over transverse modes one point after another, in this thread
(``scan_modes``): each point runs its modes by decreasing certified bound
(``_mode_bounds``) and skips every mode whose bound is below the max its runs
found.  With constant damping the bound is the exact spectral norm of a normal
operator, so the mode that attains the max is the one run; otherwise it is the
numerical-range bound (``mode_norm_bound``), which cuts the elliptic tail
lam_k > tau^2.  The bound also certifies every run; a point counts its runs
(``modes_scanned``) and keeps the largest bound not run (``tail_bound``).
A run's start vector is drawn from ``default_rng(key)``, its key naming the
run, [seed, point, mode, block] in every scan (``_start_vector``), and each
reflection class {z, -conj z} is computed once.  The energy norm of the
first-order operator uses the band Cholesky factor of -D2 + lam
(``EnergyNormResolvent``) the same way.  The dense oracles for these norms
live in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .discretize import (BandCholesky, DampingProfile, Grid1D, ShiftedOperator,
                         gradient_1d, mode_operator, weight)
from .errors import ConvergenceError

#: relative move of a norm on the 1.5X box that flags a point truncation-limited
TRUNCATION_GUARD_RTOL = 0.05
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


def _start_vector(key, m: int) -> np.ndarray:
    """The start vector of the run named ``key``, an integer or a list of them: m
    real parts, then m imaginary parts, from ``np.random.default_rng(key)``.  numpy
    pads a short key with zeros ([s, i] draws what [s, i, 0] draws), so the keys
    of one scan all have one length."""
    rng = np.random.default_rng(key)
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

    The three-term recurrence keeps three vectors and no basis, and updates
    the one that ``normal`` returns in place, so ``normal`` must return a new
    complex array.  After step k
    the top eigenpair (theta, s) of the k x k tridiagonal gives the Ritz
    residual beta_k |s_k|; the run stops once it is <= ``rtol * theta``, or
    after ``LANCZOS_MAX_STEPS`` steps.  Returns (theta, beta_k |s_k| / theta,
    converged) of the last step.
    """
    v = np.asarray(v0, dtype=complex)
    v = v / np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas = np.empty(LANCZOS_MAX_STEPS)
    betas = np.empty(LANCZOS_MAX_STEPS)
    beta = 0.0
    for k in range(LANCZOS_MAX_STEPS):
        w = normal(v)
        w -= beta * v_prev
        alpha = float(np.vdot(v, w).real)
        w -= alpha * v
        # np.linalg.norm(w), the same two dot products without its argument checks
        w_re, w_im = w.real, w.imag
        beta = math.sqrt(w_re.dot(w_re) + w_im.dot(w_im))
        alphas[k] = alpha
        theta, s_last = _top_eigenpair_tridiagonal(alphas[:k + 1], betas[:k])
        residual = beta * abs(s_last)
        converged = residual <= rtol * theta or beta == 0.0
        if converged:
            break
        betas[k] = beta
        w /= beta
        v_prev, v = v, w
    return max(theta, 0.0), (residual / theta if theta > 0.0 else 0.0), converged


def iterative_norm(apply_op, apply_adjoint, n: int, key,
                   tol: float = 1e-7, upper: float = math.inf) -> tuple[float, float]:
    """Largest singular value, matrix-free, from the start vector of ``key``.

    ``n`` is the dimension of the domain of T, which may have more rows than
    columns.  Lanczos runs on the normal operator N = T^*T from
    ``_start_vector(key, n)``, and stops once its top Ritz pair (theta, y) has
    ||N y - theta y|| <= tol**2 theta.
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
    theta, residual, converged = _lanczos_top(lambda x: apply_adjoint(apply_op(x)),
                                              _start_vector(key, n), tol * tol)
    sigma = math.sqrt(theta)
    if not (converged or sigma >= (1.0 - tol) * upper):
        raise ConvergenceError(
            f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps and no bound certifies "
            f"it: norm in [{sigma:.16g}, {upper:.16g}], relative residual {residual:.2e}")
    return sigma, residual


class SobolevScaler:
    """The form norm of M = 1 - D2 on either side of an operator: M = U^T U.

    ``BandCholesky`` factors M once per grid.  Since U = W M^{1/2} with W
    orthogonal, ||M^{b1/2} T M^{b2/2}|| = ||U^b1 T (U^T)^b2|| for b1, b2 in
    {0, 1}: a scaled side is one band product, O(N) for either stencil order.
    """

    def __init__(self, grid: Grid1D):
        self._chol = BandCholesky(grid, np.full(grid.N, 1.0 - grid.laplacian.coeffs[0]))

    def apply(self, solve, x: np.ndarray, beta_out: int, beta_in: int) -> np.ndarray:
        """U^beta_out solve((U^T)^beta_in x); a side whose beta is 0 is not scaled."""
        x = np.asarray(x, dtype=complex)
        if beta_in:
            x = self._chol.mul(x, transpose=True)
        y = solve(x)
        if beta_out:
            y = self._chol.mul(y)
        return y


def mode_norm_bound(c: float, s: float, beta_sum: int) -> float:
    """Numerical-range upper bound of ||M^{b1/2} R M^{b2/2}||, b = b1 + b2 =
    ``beta_sum``, R = A^{-1} and M = 1 - D2, for any damping; ``_mode_bounds``
    uses it where the damping is not constant.

    A = -D2 + lam - i z a - z^2 with z = x + iy, lam including any mass^2.  Its
    Hermitian part -D2 + lam - Re z^2 + y a is >= c, since -D2 >= 0, and its
    skew part is the diagonal Im A = -x (a + 2y), of one sign when a + 2y > 0,
    so |Im <A u, u>| >= s ||u||^2, s = |x| min(a + 2y) (``_mode_bounds``).
    Since ||A u|| ||u|| >= |<A u, u>|, the L^2 pair gets
    ||R|| <= 1 / hypot(max(c, 0), max(s, 0)), inf when both are <= 0.  For
    b > 0 and c > 0, Re A >= m M with m = min(1, c).  With u = R f,
    m ||M^{1/2} u||^2 <= Re <A u, u> <= ||f|| ||u|| and ||u|| <= ||f|| / c give
    ||M^{1/2} R|| = ||R M^{1/2}|| <= (m c)^{-1/2} and ||M^{1/2} R M^{1/2}|| <= 1/m.
    M is the operator whose factor ``SobolevScaler`` scales by, so no constant
    enters: the bound is 1 / (m^(b/2) c^(1 - b/2)), for real and complex z
    alike, and inf when c <= 0.  It is sharp (R = M^{-1} at z = 0, c = 1), so
    it is widened by 1e-12 for the rounding of the norms it is compared with.
    """
    if beta_sum == 0:
        r = math.hypot(max(c, 0.0), max(s, 0.0))
        return 1.0 / r if r > 0.0 else math.inf
    if c <= 0.0:
        return math.inf
    m = min(1.0, c)
    return (1.0 + 1e-12) / (m ** (beta_sum / 2.0) * c ** (1.0 - beta_sum / 2.0))


def _mode_bounds(z: complex, damping: DampingProfile, beta_sum: int):
    """lam -> a certified upper bound of ||M^{b1/2} R M^{b2/2}|| of mode lam at z,
    b = b1 + b2 = ``beta_sum``.

    With constant damping samples a the mode operator A = -D2 + w,
    w = lam - i z a - z^2, is a polynomial in the real symmetric -D2, so it is
    normal and commutes with M = 1 - D2 (Trefethen & Embree, Spectra and
    Pseudospectra, 2005): the norm is max_j (1 + mu_j)^(b/2) / |mu_j + w| over
    the eigenvalues mu_j of -D2.  ``Grid1D.spectrum`` gives each mu_j to within
    delta (``Grid1D.spectrum_error``), so the bound takes
    (1 + mu_j + delta)^(b/2) / (|mu_j + w| - delta), inf when a distance is
    <= delta, widened by 1e-12 for rounding as ``mode_norm_bound`` is.  w is
    formed as ``mode_operator`` forms its diagonal.  Otherwise the bound is
    ``mode_norm_bound`` of c = lam + shift and a fixed s.
    """
    a = damping.samples
    if a.min() == a.max():
        mu, delta, a0 = damping.grid.spectrum, damping.grid.spectrum_error, float(a[0])
        scale = (1.0 + mu + delta) ** (beta_sum / 2.0) if beta_sum else None

        def exact(lam):
            dist = np.abs(mu + (lam - 1j * z * a0 - z * z)) - delta
            nearest = float(dist.min())
            if nearest <= 0.0:
                return math.inf
            # the L^2 pair's max of 1 / dist is 1 / its min: fl(1 / d) is monotone in d
            top = 1.0 / nearest if scale is None else float(np.max(scale / dist))
            return (1.0 + 1e-12) * top

        return exact
    shift = -(z * z).real + float(np.min(z.imag * a))
    s = abs(z.real) * float(np.min(a + 2.0 * z.imag))
    return lambda lam: mode_norm_bound(lam + shift, s, beta_sum)


def _mode_sobolev_norm(op: ShiftedOperator, scaler: SobolevScaler, beta1: int, beta2: int,
                       key, upper: float = math.inf):
    """||M^{beta1/2} R M^{beta2/2}|| of the mode solve R, M = 1 - D2, from the start
    vector of ``key``, certified by ``upper`` at the step budget."""
    return iterative_norm(lambda c: scaler.apply(op.solve, c, beta1, beta2),
                          lambda c: scaler.apply(op.solve_adjoint, c, beta2, beta1),
                          op.grid.N, key, upper=upper)


def reflection_classes(zs) -> list[int]:
    """Per point, the index of the point whose norms it takes: z and -conj z share them.

    Mode operators have real P and real a, so R(-conj z) = C R(z) C with C the
    complex conjugation, which keeps the Sobolev norms; the block resolvent
    maps the same way under (f, g) -> (-conj f, conj g), which keeps the
    energy norm.  A class
    {z, -conj z} (repeats included) is computed at its first member with
    Re z >= 0, or at its first member when it has none.
    """
    zs = [complex(z) for z in zs]
    first = {}
    for i, z in enumerate(zs):
        first.setdefault(z, i)
    return [first.get(complex(abs(z.real), z.imag), first[z]) for z in zs]


class ModeMax(NamedTuple):
    """A point's max over modes: per block the (sigma, residual, mode) of its
    largest run, the largest bound of a mode not run, and the modes run."""
    best: list
    tail_bound: float
    modes_scanned: int


def scan_modes(bounds, run, *, rep=None) -> list[ModeMax]:
    """The max over modes at every point, one point after another, in this thread.

    ``bounds[i][k]`` bounds every block of mode k at point i (inf when nothing
    does); ``run(i, k)`` runs them, one (sigma, residual) per block, from start
    vectors keyed by (i, k) and the block, never by when they run.  A point
    visits its modes by decreasing bound, ties by index, and stops at the first
    mode whose bound is below its running floor, the smallest over blocks of
    the block's max so far; every later mode's bound is lower still.  A mode
    not run has estimate <= bound < floor in every block, so it cannot reach
    the max: folding the runs in mode order, ties going to the first mode,
    gives the scan of every mode bit for bit.  Only the points with
    ``rep[i] == i`` are computed; point i takes the result of point rep[i]
    (see ``reflection_classes``).
    """
    rep = range(len(bounds)) if rep is None else rep
    out = {}
    for i in sorted(set(rep)):
        runs, tops, tail = {}, None, 0.0
        for k in sorted(range(len(bounds[i])), key=lambda k: (-bounds[i][k], k)):
            if tops is not None and bounds[i][k] < min(tops):
                tail = bounds[i][k]
                break
            runs[k] = run(i, k)
            sigmas = [sigma for sigma, _ in runs[k]]
            tops = sigmas if tops is None else [max(t, s) for t, s in zip(tops, sigmas)]
        best = [max(block, key=lambda b: b[0])
                for block in zip(*([(s, r, k) for s, r in runs[k]] for k in sorted(runs)))]
        out[i] = ModeMax(best, tail, len(runs))
    return [out[i] for i in rep]


def norm_scan(z_list, beta1: int, beta2: int, damping: DampingProfile, lambdas, *,
              seed: int, truncation_guard: bool = False) -> list[ScanPoint]:
    """Resolvent norms over the guide: max over transverse modes per z.

    Each mode's certified bound (``_mode_bounds``: exact for constant damping,
    the numerical range otherwise) does two jobs.  ``scan_modes`` runs each
    point's modes by decreasing bound and skips a mode whose bound is below
    the max its runs found: the Lanczos estimate never exceeds the true norm,
    so it cannot reach the max.  A mode that is run passes its bound to
    ``iterative_norm`` as ``upper``, which certifies a Ritz value that the
    step budget cuts short, or raises.  ``modes_scanned`` counts a point's
    Lanczos runs and ``tail_bound`` is the largest bound among the modes not
    run (0 when every mode is run).  Each reflection class {z, -conj z} is
    computed once.

    The run of mode k at point i starts from the vector of key
    [seed, i, k, 0], so the result equals that of a scan of every mode in the
    given order, bit for bit, whichever modes are skipped.

    With ``truncation_guard`` every point is recomputed on a 1.5X box, with
    the damping rebuilt on it and that box's bound, and flagged
    "truncation-limited" when the norm moves by more than ``TRUNCATION_GUARD_RTOL``.
    The guard reruns the argmax mode k alone, from key [seed, i, k, 1].
    """
    if beta1 not in (0, 1) or beta2 not in (0, 1):
        raise ValueError(f"Sobolev indices must lie in {{0,1}}, got beta1={beta1}, beta2={beta2}")
    zs = [complex(z) for z in z_list]
    lambdas = np.asarray(lambdas, dtype=float)
    grid = damping.grid
    scaler = SobolevScaler(grid)
    if truncation_guard:
        damping2 = DampingProfile.build(grid.refine(1.5), kind=damping.kind, rho=damping.rho,
                                        r=damping.r, level=damping.level)
        scaler2 = SobolevScaler(damping2.grid)
    rep = reflection_classes(zs)
    bounds = [[bound(lam) for lam in lambdas]
              for bound in (_mode_bounds(z, damping, beta1 + beta2) for z in zs)]

    def run(i, k):
        op = mode_operator(lambdas[k], damping, zs[i])
        return [_mode_sobolev_norm(op, scaler, beta1, beta2, [seed, i, k, 0],
                                   upper=bounds[i][k])]

    maxima = scan_modes(bounds, run, rep=rep)

    def limited(i):
        best, _, k = maxima[i].best[0]
        upper2 = _mode_bounds(zs[i], damping2, beta1 + beta2)(lambdas[k])
        op2 = mode_operator(lambdas[k], damping2, zs[i])
        sigma2, _ = _mode_sobolev_norm(op2, scaler2, beta1, beta2, [seed, i, k, 1],
                                       upper=upper2)
        return abs(sigma2 - best) > TRUNCATION_GUARD_RTOL * best

    flags = {i: limited(i) for i in sorted(set(rep))} if truncation_guard else {}
    return [ScanPoint(z=z, beta1=beta1, beta2=beta2, norm_est=m.best[0][0],
                      residual=m.best[0][1], k_argmax=m.best[0][2],
                      flag="truncation-limited" if flags.get(r) else "ok",
                      tail_bound=m.tail_bound, modes_scanned=m.modes_scanned)
            for z, m, r in zip(zs, maxima, rep)]


# ---------------------------------------------------------------------------
# block resolvent of the first-order operator and its adjoint


class WaveBlockResolvent:
    """(A - z)^{-1} on one mode via the block formula, with cached factors.

    u = R(z)[(ia + z) f + g],  v = f + R(z)[(i z a + z^2) f + z g] = f + z u,
    so one mode solve per application; the adjoint is likewise one solve,
    w2 = R(z)^* (f + conj(z) g),  w1 = (conj(z) - ia) w2 + g.
    """

    def __init__(self, z: complex, damping: DampingProfile, lam: float):
        self.z = complex(z)
        self.op = mode_operator(lam, damping, self.z)
        self._zb = np.conj(self.z)
        self._f_coef = 1j * damping.samples + self.z          # ia + z
        self._w2_coef = self._zb - 1j * damping.samples       # conj(z) - ia

    def apply(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        u = self.op.solve(self._f_coef * f + g)
        return u, f + self.z * u

    def apply_adjoint(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = np.asarray(g, dtype=complex)
        w2 = self.op.solve_adjoint(np.asarray(f, dtype=complex) + self._zb * g)
        return self._w2_coef * w2 + g, w2


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

    def __init__(self, lam: float, damping: DampingProfile):
        self.lam = float(lam)
        self.damping = damping
        grid = damping.grid
        self._chol = BandCholesky(grid, np.full(grid.N, self.lam - grid.laplacian.coeffs[0]),
                                  dtype=complex)

    def op_norm(self, z: complex, key) -> float:
        """The energy norm of the block resolvent at z, from the start vector of ``key``."""
        n = self.damping.grid.N
        chol = self._chol
        block = WaveBlockResolvent(z, self.damping, self.lam)

        def apply_op(x):
            u, v = block.apply(chol.solve_triangular(x[:n]), x[n:])
            return np.concatenate([chol.mul(u), v])

        def apply_adj(x):
            w1, w2 = block.apply_adjoint(chol.mul(x[:n], transpose=True), x[n:])
            return np.concatenate([chol.solve_triangular(w1, transpose=True), w2])

        sigma, _ = iterative_norm(apply_op, apply_adj, 2 * n, key)
        return sigma


def energy_norm_scan(taus, damping: DampingProfile, lambdas, *, seed: int) -> list[float]:
    """Energy norms of the first-order resolvent at real taus, max over the modes.

    One ``scan_modes`` run per (tau, mode), none skipped (no bound is known
    yet); each reflection pair {tau, -tau} is computed once, at
    tau >= 0.  The run of mode k at point i starts from the vector of key
    [seed, i, k, 0].
    """
    taus = [float(t) for t in taus]
    helpers = [EnergyNormResolvent(lam, damping) for lam in lambdas]
    rep = reflection_classes(taus)

    def run(i, k):
        return [(helpers[k].op_norm(taus[i], [seed, i, k, 0]), 0.0)]

    maxima = scan_modes([[math.inf] * len(helpers)] * len(taus), run, rep=rep)
    return [m.best[0][0] for m in maxima]


# ---------------------------------------------------------------------------
# low-frequency comparison with the heat-model resolvent


def heat_model_operator(grid: Grid1D, z: complex) -> ShiftedOperator:
    """The banded heat-model operator -D2 - i z on mode 0: diagonal -i z."""
    z = complex(z)
    return ShiftedOperator(grid=grid, z=z, diag=np.full(grid.N, -1j * z))


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


def theta_probe(z_list, damping: DampingProfile, lambdas, delta1: float, delta2: float, *,
                seed: int) -> list[dict]:
    """Weighted norms of the blocks of (A - z)^{-1} - R_Heat(z), matrix-free.

    Each block is applied as banded mode and heat-model solves between the
    diagonal weights wl = <x>^-delta1, wr = <x>^-delta2 (see ``theta_blocks``).
    Blocks 1 and 2 are measured with the full gradient, as the stacked
    (2N, N) operator [wl G t wr ; sqrt(lam_k) wl t wr] with the centred
    stencil G (G^* = -G); blocks 3 and 4 as wl t wr.  Each norm is a seeded
    Lanczos estimate, and the norm over the guide is the max over every mode
    of ``lambdas``, one ``scan_modes`` run per (z, mode).
    ``structure_residual`` checks row 2 = z row 1 of the heat-model
    blocks on a probe vector.  Block j of mode k at z_i starts from the
    vector of key [seed, i, k, j], and z_i's probe is the vector of key
    [seed, i, 0, 0].  Requires Im z > 0 and |z| <= 1.
    """
    zs = [complex(z) for z in z_list]
    lambdas = np.asarray(lambdas, dtype=float)
    grid = damping.grid
    n = grid.N
    wl = weight(grid, -delta1)
    wr = weight(grid, -delta2)
    residuals = []
    for i, z in enumerate(zs):
        if z.imag <= 0 or abs(z) > 1 + 1e-12:
            raise ValueError(f"theta probe needs Im z > 0 and |z| <= 1, got z={z}")
        residuals.append(heat_structure_residual(heat_model_operator(grid, z),
                                                 theta_blocks(z, damping.samples),
                                                 _start_vector([seed, i, 0, 0], n)))

    def run(i, k):
        z, lam = zs[i], float(lambdas[k])
        op = mode_operator(lam, damping, z)
        heat = heat_model_operator(grid, z) if k == 0 else None
        runs = []
        for j, (p, c, q) in theta_blocks(z, damping.samples).items():
            t, t_adj = _difference_block(op, heat, p, c, q)
            apply_op, apply_adj = _weighted(t, t_adj, wl, wr, grid,
                                            math.sqrt(lam) if j <= 2 else None)
            runs.append(iterative_norm(apply_op, apply_adj, n, [seed, i, k, j]))
        return runs

    maxima = scan_modes([[math.inf] * len(lambdas)] * len(zs), run)
    return [{"z": z, **{f"theta{j}": m.best[j - 1][0] for j in (1, 2, 3, 4)},
             "structure_residual": res} for z, m, res in zip(zs, maxima, residuals)]


def _weighted(t, t_adj, wl, wr, grid: Grid1D, root_lam: float | None = None):
    """wl t wr, or [wl G t wr ; root_lam wl t wr] (G^* = -G): apply and adjoint."""
    if root_lam is None:
        return (lambda x: wl * t(wr * x)), (lambda y: wr * t_adj(wl * y))
    n = grid.N

    def apply(x):
        u = t(wr * x)
        return np.concatenate([wl * gradient_1d(u, grid), root_lam * wl * u])

    def adjoint(y):
        return wr * t_adj(-gradient_1d(wl * y[:n], grid) + root_lam * wl * y[n:])

    return apply, adjoint


# ---------------------------------------------------------------------------
# semiclassical scan


def semiclassical_scan(h_list, damping: DampingProfile, *, seed: int) -> list[dict]:
    """h * ||(-h^2 d^2/dx^2 - i h a - 1)^{-1}|| per h on the truncated line.

    The operator equals h^2 times the mode resolvent at tau = 1/h, so the
    norm is h^{-2} ||R(1/h)||, the one-mode L^2 ``norm_scan`` at z = 1/h
    (``seed`` is passed on to it).
    """
    hs = [float(h) for h in h_list]
    for h in hs:
        if not 0.0 < h <= 1.0:
            raise ValueError(f"semiclassical parameter must lie in (0, 1], got h={h}")
    points = norm_scan([1.0 / h for h in hs], 0, 0, damping, [0.0], seed=seed)
    out = []
    for h, point in zip(hs, points):
        norm = point.norm_est / h ** 2
        out.append({"h": h, "norm": norm, "h_norm": h * norm, "residual": point.residual})
    return out


def pure_laplacian_control(h_list, X: float) -> list[dict]:
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
