import cmath
import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, svdvals

from guidewave.discretize import (_D1_STENCILS, DampingProfile, Grid1D, ShiftedOperator,
                                  mode_operator, weight)
from guidewave.errors import ConvergenceError, SolveError
from guidewave.resolvent import (EnergyNormResolvent, SobolevScaler, WaveBlockResolvent,
                                 _lanczos_top, _mode_sobolev_norm,
                                 _top_eigenpair_tridiagonal, energy_norm_scan,
                                 heat_model_operator, heat_structure_residual, iterative_norm,
                                 mode_norm_bound, norm_scan, power_iteration_norm,
                                 pure_laplacian_control, reflection_classes,
                                 semiclassical_scan, theta_blocks, theta_probe)

from dense_oracles import (dense_energy_norm, dense_laplacian, dense_operator,
                           dense_sobolev_norm, exact_mode_norm,
                           sqrt_energy_matrix)

DAMPING_KINDS = ["constant", "longrange", "hole"]
BETA_PAIRS = [(0, 0), (1, 0), (0, 1), (1, 1)]
SQUARES = np.arange(12, dtype=float) ** 2
SHUFFLED_SQUARES = SQUARES[[3, 10, 11, 0, 8, 1, 2, 9, 4, 5, 6, 7]]


@st.composite
def mode_cases(draw, n_z=1):
    """A small grid of either stencil order, a damping kind, ``n_z`` shifts z (real,
    upper or lower half-plane) and a mode eigenvalue lam, a mass^2 of 0 or 1 folded in,
    giving every z the coercivity constant c = lam - Re z^2 + min(Im z a) >= c_min > 0."""
    x, n = draw(st.floats(2.0, 20.0)), draw(st.integers(16, 40))
    kind = draw(st.sampled_from(DAMPING_KINDS))
    half_plane = st.sampled_from([0.0, 1.0, -1.0])
    zs = [complex(draw(st.floats(-6.0, 6.0)), draw(half_plane) * draw(st.floats(0.05, 1.0)))
          for _ in range(n_z)]
    mass = draw(st.sampled_from([0.0, 1.0]))
    c_min = math.exp(draw(st.floats(math.log(0.01), math.log(50.0))))
    # drawn last, so no other draw moves; the damping samples do not depend on the order
    g = Grid1D(X=x, N=n, order=draw(st.sampled_from([2, 4])))
    a = DampingProfile.build(g, kind, r=2.0, rho=2.0)
    lam = c_min - mass * mass + max((z * z).real - float(np.min(z.imag * a.samples))
                                    for z in zs)
    return g, a, zs, lam + mass * mass, c_min


def rn_solve(z, damping, lam, rhs):
    """Solve (-d^2/dx^2 + lam - i z a - z^2) u = rhs on one mode."""
    return mode_operator(lam, damping, z).solve(rhs)


def wave_resolvent_apply(z, f, g, damping, lam):
    """One-shot block-resolvent application (see WaveBlockResolvent)."""
    return WaveBlockResolvent(z, damping, lam).apply(f, g)


def wave_apply(f, g, damping, lam):
    """The first-order operator itself: (f, g) -> (g, (-D2 + lam) f - i a g).

    This is the matrix acting on the pair (u, i du/dt); its lower-left block
    is minus the Laplacian.
    """
    lap = damping.grid.laplacian
    out2 = -lap.apply(np.asarray(f, dtype=complex)) + lam * f - 1j * damping.samples * g
    return np.asarray(g, dtype=complex), out2


def resolvent_identity_residual(z1, z2, damping, lam, f):
    """|| [R(z1) - R(z2) - (z1 - z2) R(z1)(ia + z1 + z2) R(z2)] f || / ||f||."""
    op1 = mode_operator(lam, damping, z1)
    op2 = mode_operator(lam, damping, z2)
    a = damping.samples
    r2f = op2.solve(np.asarray(f, dtype=complex))
    lhs = op1.solve(np.asarray(f, dtype=complex)) - r2f
    rhs = (z1 - z2) * op1.solve((1j * a + z1 + z2) * r2f)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(f))


def _dense_gradient(grid):
    n = grid.N
    g = np.zeros((n, n))
    for m, c in enumerate(_D1_STENCILS[grid.order], start=1):
        cm = c / grid.h
        g += cm * np.diag(np.ones(n - m), m) - cm * np.diag(np.ones(n - m), -m)
    return g


@dataclass(frozen=True)
class HeatModelResolvent:
    """Dense mode-0 blocks of the heat-model resolvent at z (test oracle)."""

    z: complex
    h11: np.ndarray = field(repr=False)
    h12: np.ndarray = field(repr=False)
    h21: np.ndarray = field(repr=False)
    h22: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, z, damping):
        grid = damping.grid
        lap = dense_laplacian(grid)
        hres = np.linalg.inv(-lap - 1j * z * np.eye(grid.N))
        a = damping.samples
        return cls(z=z, h11=1j * hres * a[None, :], h12=hres,
                   h21=1j * z * hres * a[None, :], h22=z * hres)

    def structure_residual(self):
        num = max(float(np.max(np.abs(self.h21 - self.z * self.h11))),
                  float(np.max(np.abs(self.h22 - self.z * self.h12))))
        den = max(float(np.max(np.abs(self.h21))), float(np.max(np.abs(self.h22))), 1e-300)
        return num / den


def dense_theta_probe(z_list, damping, lambdas, delta1, delta2):
    """Assembled blocks of (A - z)^{-1} - R_Heat(z) and full SVDs (test oracle)."""
    grid = damping.grid
    wl = np.diag(weight(grid, -delta1))
    wr = np.diag(weight(grid, -delta2))
    gmat = _dense_gradient(grid)
    a = damping.samples
    eye = np.eye(grid.N)
    out = []
    for z in z_list:
        heat = HeatModelResolvent.build(z, damping)
        assert heat.structure_residual() <= 1e-12
        norms = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
        for k, lam in enumerate(lambdas):
            rmat = np.linalg.inv(dense_operator(mode_operator(lam, damping, z)))
            blocks = [rmat * (1j * a + z)[None, :], rmat,
                      eye + rmat * (1j * z * a + z * z)[None, :], z * rmat]
            if k == 0:
                blocks = [b - h for b, h in zip(blocks, (heat.h11, heat.h12, heat.h21, heat.h22))]
            for j, t in ((1, blocks[0]), (2, blocks[1])):
                stacked = np.vstack([wl @ gmat @ t @ wr, math.sqrt(lam) * (wl @ t @ wr)])
                norms[j] = max(norms[j], float(svdvals(stacked)[0]))
            for j, t in ((3, blocks[2]), (4, blocks[3])):
                norms[j] = max(norms[j], float(svdvals(wl @ t @ wr)[0]))
        out.append(norms)
    return out


class TestRnSolve:
    def test_against_dense_lu_oracle(self, grid40, damping_const, rng):
        f = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        u = rn_solve(1j, damping_const, 0.0, f)
        dense = dense_operator(mode_operator(0.0, damping_const, 1j))
        u_oracle = np.linalg.solve(dense, f)
        assert np.linalg.norm(u - u_oracle) <= 1e-8 * np.linalg.norm(u_oracle)

    def test_real_tau_norm_on_wide_box(self):
        # Fourier multiplier oracle: ||R(tau)|| -> 1/tau as X -> infinity
        g = Grid1D(X=200.0, N=4096)
        a = DampingProfile.build(g, "constant")
        op = mode_operator(0.0, a, 10.0)
        sigma, _ = iterative_norm(op.solve, op.solve_adjoint, g.N, 0)
        assert sigma == pytest.approx(0.1, rel=0.05)

    def test_dirichlet_low_frequency_bound(self, grid40):
        a = DampingProfile.build(grid40, "hole", r=5.0, rho=2.0)
        for mu in (1e-1, 1e-2, 1e-3):
            op = mode_operator(1.0, a, 1j * mu)
            sigma, _ = iterative_norm(op.solve, op.solve_adjoint, grid40.N, 1)
            assert sigma <= 1.0 + 1e-6


class TestNormScan:
    def test_constant_damping_slope(self):
        g = Grid1D(X=40.0, N=1024)
        a = DampingProfile.build(g, "constant")
        lambdas = np.array([0.0, 1.0, 4.0, 9.0])
        taus = [2.0, 4.0, 8.0]
        pts = norm_scan(taus, 0, 0, a, lambdas, seed=2)
        slope = np.polyfit(np.log(taus), np.log([p.norm_est for p in pts]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)
        for p in pts:
            assert p.norm_est == pytest.approx(1.0 / abs(p.z.real), rel=0.02)

    def test_scan_matches_dense_oracle(self):
        # the scan's max over modes agrees with the dense-SVD oracle of the
        # mode that attains it
        g = Grid1D(X=40.0, N=256)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        lambdas = [0.0, 1.0]
        pt = norm_scan([2.0], 1, 1, a, lambdas, seed=3)[0]
        assert pt.flag == "ok"
        dense = dense_sobolev_norm(mode_operator(lambdas[pt.k_argmax], a, 2.0), 1, 1)
        assert pt.norm_est == pytest.approx(dense, rel=0.01)

    def test_dense_method_matches_iterative(self):
        # the dense-SVD oracle, applied to the scanned mode, agrees with the scan
        g = Grid1D(X=40.0, N=256)
        a = DampingProfile.build(g, "longrange", rho=2.0)
        it = norm_scan([1.5], 1, 0, a, [0.0], seed=4)[0]
        dense = dense_sobolev_norm(mode_operator(0.0, a, 1.5), 1, 0)
        assert it.norm_est == pytest.approx(dense, rel=0.01)

    @pytest.mark.parametrize("kind", ["constant", "hole"])
    def test_coefficient_space_norm_matches_dense_oracle(self, kind):
        # ||M^{b1/2} R M^{b2/2}||, M = 1 - D2, measured as ||U^b1 R (U^T)^b2||
        # through the band Cholesky factor M = U^T U
        g = Grid1D(X=20.0, N=160)
        a = DampingProfile.build(g, kind, r=5.0, rho=2.0)
        scaler = SobolevScaler(g)
        for z in (8.0, -3.0, 0.5 + 0.3j):
            op = mode_operator(1.0, a, z)
            for b1, b2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                sigma, _ = _mode_sobolev_norm(op, scaler, b1, b2, [14, b1, b2])
                assert sigma == pytest.approx(dense_sobolev_norm(op, b1, b2), rel=1e-10)

    def test_truncation_guard_flags_unstable_points(self):
        # undamped probe at the bottom of the spectrum: the norm is
        # 1/(nu_1 + mu^2) with nu_1 ~ X^-2, so it moves with the box
        g = Grid1D(X=20.0, N=128)
        a0 = DampingProfile.build(g, "constant", level=0.0)
        pts = norm_scan([0.05j], 0, 0, a0, [0.0], seed=5,
                        truncation_guard=True)
        assert pts[0].flag == "truncation-limited"

    def test_klein_gordon_real_line_bounded(self):
        g = Grid1D(X=40.0, N=1024)
        a = DampingProfile.build(g, "constant")
        zs = [t for t in np.linspace(-32.0, 32.0, 17) if abs(t) > 1e-9] + [1e-6]
        pts = norm_scan(zs, 0, 0, a, [1.0 ** 2], seed=6)
        assert max(p.norm_est for p in pts) <= 1.05

    def test_rejects_bad_sobolev_indices(self, grid40, damping_const):
        with pytest.raises(ValueError):
            norm_scan([1.0], 2, 0, damping_const, [0.0], seed=0)

    def test_scan_passes_each_mode_bound(self, grid40, damping_const, monkeypatch):
        # every Lanczos run gets its mode's numerical-range bound as ``upper``,
        # the guard run the bound of the 1.5X box; a=1, z=2+0.1i gives
        # c = lam - 3.99 + 0.1 and s = 2 (1 + 0.2), so lam=1 is bounded through s only
        # and is run alone; lam=9's bound is below its norm, so lam=9 is not run
        import guidewave.resolvent as resolvent

        uppers = []

        def recording(*args, upper=math.inf, **kwargs):
            uppers.append(upper)
            return iterative_norm(*args, upper=upper, **kwargs)

        monkeypatch.setattr(resolvent, "iterative_norm", recording)
        z = 2.0 + 0.1j
        pt = norm_scan([z], 0, 0, damping_const, [9.0, 1.0], truncation_guard=True,
                       seed=11)[0]
        s = 2.0 * 1.2
        want = [1.0 / math.hypot(max(lam - (z * z).real + 0.1, 0.0), s) for lam in (9.0, 1.0)]
        assert (pt.modes_scanned, pt.k_argmax) == (1, 1)
        assert pt.tail_bound == want[0]
        assert uppers == pytest.approx([want[1], want[1]], rel=1e-14)

    def test_points_carry_measured_residuals(self, grid40, damping_const):
        pts = norm_scan([2.0, 4.0], 0, 0, damping_const, [0.0, 1.0],
                        seed=11)
        for p in pts:
            assert p.residual != 1e-7
            assert 0.0 <= p.residual <= 1e-14

    def test_open_bound_raises_at_budget(self, grid40, damping_const, monkeypatch):
        # one step leaves the Ritz value far below the mode bound 1/|z| = 0.5
        import guidewave.resolvent as resolvent

        monkeypatch.setattr(resolvent, "LANCZOS_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError, match=r"in 1 steps .*, 0\.5\]"):
            norm_scan([2.0], 0, 0, damping_const, [0.0, 1.0],
                      seed=11)

    @pytest.mark.parametrize("z, lam", [(1.0, 1.0), (2.0, 4.0)])
    def test_dense_top_spectrum_is_certified(self, z, lam, monkeypatch):
        # the two constant-damping modes of ACCEPT-08, whose top singular values
        # crowd within 1e-8: the estimate converges or is certified by the mode
        # bound 1/|z|, within 1e-7 of the exact norm, and power iteration never runs
        import guidewave.resolvent as resolvent

        def forbidden(*args, **kwargs):
            raise AssertionError("power iteration called")

        monkeypatch.setattr(resolvent, "power_iteration_norm", forbidden)
        g = Grid1D(X=200.0, N=2048)
        a = DampingProfile.build(g, "constant")
        pt = norm_scan([z], 0, 0, a, [lam], seed=3)[0]
        exact = exact_mode_norm(g, lam, z, 1.0)
        assert exact - 1e-7 <= pt.norm_est <= exact * (1.0 + 1e-12)
        assert exact <= 1.0 / z


def lanczos_top_lists(normal, v0, rtol):
    """The list-based Lanczos recurrence ``_lanczos_top`` replaced, kept as its oracle."""
    import guidewave.resolvent as resolvent

    v = np.asarray(v0, dtype=complex)
    v = v / np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    for _ in range(resolvent.LANCZOS_MAX_STEPS):
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


def exhaustive_scan(zs, beta1, beta2, damping, lambdas, seed):
    """(norm, argmax) per z from a Lanczos run on every mode, in the given order,
    mode k at point i starting from the vector of key [seed, i, k, 0]."""
    scaler = SobolevScaler(damping.grid)
    out = []
    for i, z in enumerate(zs):
        sigmas = [_mode_sobolev_norm(mode_operator(lam, damping, z), scaler,
                                     beta1, beta2, [seed, i, k, 0])[0]
                  for k, lam in enumerate(lambdas)]
        out.append((max(sigmas), int(np.argmax(sigmas))))
    return out


class TestCertifiedTailBound:
    @settings(max_examples=60, deadline=None)
    @given(case=mode_cases())
    def test_bound_dominates_dense_norm(self, case):
        g, a, (z,), lam, c = case
        op = mode_operator(lam, a, z)
        s = abs(z.real) * float(np.min(a.samples + 2.0 * z.imag))
        for b1, b2 in BETA_PAIRS:
            assert dense_sobolev_norm(op, b1, b2) <= mode_norm_bound(c, s, b1 + b2)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(2.0, 20.0), n=st.integers(16, 40),
           kind=st.sampled_from(DAMPING_KINDS), order=st.sampled_from([2, 4]),
           re_z=st.floats(-6.0, 6.0), im_z=st.floats(0.0, 1.0), lam=st.floats(0.0, 40.0))
    def test_skew_bound_dominates_dense_l2_norm(self, x, n, kind, order, re_z, im_z, lam):
        # propagating modes too (c <= 0): the numerical range stays |Re z| min(a + 2 Im z)
        # away from 0; the 1e-10 allows for the dense SVD's roundoff
        g = Grid1D(X=x, N=n, order=order)
        a = DampingProfile.build(g, kind, r=2.0, rho=2.0)
        z = complex(re_z, im_z)
        c = lam - (z * z).real + float(np.min(z.imag * a.samples))
        s = abs(z.real) * float(np.min(a.samples + 2.0 * z.imag))
        bound = mode_norm_bound(c, s, 0)
        if math.isfinite(bound):
            op = mode_operator(lam, a, z)
            assert dense_sobolev_norm(op, 0, 0) <= bound * (1.0 + 1e-10)

    def test_no_bound_without_coercivity(self):
        assert mode_norm_bound(0.0, 5.0, 2) == math.inf
        assert mode_norm_bound(-3.0, 0.0, 0) == math.inf
        assert mode_norm_bound(-3.0, -1.0, 0) == math.inf
        assert mode_norm_bound(-3.0, 4.0, 0) == 0.25
        assert mode_norm_bound(3.0, 4.0, 0) == 0.2

    @pytest.mark.parametrize("order", [2, 4])
    def test_band_factor_norms_equal_square_root_forms(self, order):
        # U = W M^{1/2}, W orthogonal: ||U R U^T||, ||U R|| and ||R U^T|| are the
        # norms of the dense square-root forms, with U applied by the scaler
        g = Grid1D(X=20.0, N=200, order=order)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        scaler = SobolevScaler(g)
        eye = np.eye(g.N)
        for z in (8.0, -3.0, 0.5 + 0.3j):
            op = mode_operator(1.0, a, z)
            r = np.linalg.inv(dense_operator(op))
            for b1, b2 in BETA_PAIRS[1:]:
                banded = np.column_stack([scaler.apply(lambda u: r @ u, e, b1, b2) for e in eye])
                assert svdvals(banded)[0] == pytest.approx(dense_sobolev_norm(op, b1, b2),
                                                           rel=1e-12)

    # in the ids, False marks the squares in order and True the shuffled squares
    @pytest.mark.parametrize("betas, zs, lambdas", [
        pytest.param((0, 0), [4.0, 6.0], SQUARES, id="betas0-zs0-False"),
        pytest.param((1, 1), [4.0, 6.0], SQUARES, id="betas1-zs1-False"),
        # elliptic modes not run before propagating ones are run
        pytest.param((1, 1), [4.0], SHUFFLED_SQUARES, id="betas2-zs2-True"),
        pytest.param((0, 0), [4.0 + 0.5j], SHUFFLED_SQUARES, id="betas3-zs3-True"),
        # bounds inf, inf, inf, 3.33, 1.67, 0.2: the second batch runs
        # lam = 16.3 and 16.6, and lam = 16.3 attains the max
        pytest.param((0, 0), [4.0], [0.0, 1.0, 4.0, 16.3, 16.6, 21.0], id="second-batch"),
    ])
    def test_scan_equals_exhaustive_loop(self, betas, zs, lambdas):
        # the modes not run change neither the max, nor its mode, nor the random
        # draws of the modes that are run
        g = Grid1D(X=20.0, N=256)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        pts = norm_scan(zs, *betas, a, lambdas, seed=22)
        want = exhaustive_scan(zs, *betas, a, lambdas, 22)
        for pt, (norm, k) in zip(pts, want):
            assert (pt.norm_est, pt.k_argmax) == (norm, k)
            assert pt.modes_scanned < len(lambdas)
            assert 0.0 < pt.tail_bound < pt.norm_est


class TestScanWorkList:
    def test_reflection_classes(self):
        # each class {z, -conj z} is computed at its first member with Re z >= 0
        zs = [-1.0, 1.0, 2.0, -2.0, -3.0, 1j, 1.0, -1.0 + 1j, 1.0 - 1j]
        assert reflection_classes(zs) == [1, 1, 2, 2, 4, 5, 1, 7, 8]

    @pytest.mark.parametrize("betas", BETA_PAIRS)
    def test_sobolev_norm_is_reflection_invariant(self, betas):
        # real P and a give R(-conj z) = C R(z) C: the dense oracle reads the same
        # norm at z and -conj z (hole damping, a mass), and the scan computes
        # the pair once and agrees with the oracle
        g = Grid1D(X=10.0, N=48)
        a = DampingProfile.build(g, "hole", r=3.0, rho=2.0)
        for z in (2.5, 1.5 + 0.3j, 0.7 - 0.2j):
            want = dense_sobolev_norm(mode_operator(1.0 + 0.5 ** 2, a, z), *betas)
            mirror = dense_sobolev_norm(mode_operator(1.0 + 0.5 ** 2, a, -np.conj(z)), *betas)
            assert mirror == pytest.approx(want, rel=1e-12)
            pts = norm_scan([-np.conj(z), z], *betas, a, [1.0 + 0.5 ** 2],
                            seed=21)
            assert pts[0] == dataclasses.replace(pts[1], z=pts[0].z)
            assert pts[1].norm_est == pytest.approx(want, rel=1e-10)

    def test_energy_norm_is_reflection_invariant(self):
        # (f, g) -> (-conj f, conj g) carries R(z) to R(-conj z) and keeps the energy norm
        g = Grid1D(X=10.0, N=48)
        a = DampingProfile.build(g, "hole", r=3.0, rho=2.0)
        for lam in (0.0, 2.0):
            for z in (3.0, 1.2 + 0.4j):
                assert dense_energy_norm(lam, a, -np.conj(z)) == pytest.approx(
                    dense_energy_norm(lam, a, z), rel=1e-12)

    def test_real_axis_rows_agree_in_reflected_pairs(self):
        g = Grid1D(X=20.0, N=96)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        lambdas = [0.0, 1.0]
        taus = [-2.0, -0.5, 0.0, 0.5, 2.0]
        norms = energy_norm_scan(taus, a, lambdas, seed=9)
        assert (norms[0], norms[1]) == (norms[4], norms[3])
        for tau, norm in zip(taus, norms):
            want = max(dense_energy_norm(lam, a, tau) for lam in lambdas)
            assert norm == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("kind, betas, lambdas, guard", [
        ("hole", (1, 1), [0.0, 1.0, 4.0, 9.0, 16.0], True),
        # at 2 + 0.1i the first mode, lam = 9, is elliptic: its bound is below the
        # max of the modes of the point's largest bound, so it is not run
        ("constant", (0, 0), [9.0, 1.0, 0.0, 16.0], False),
        # at 2 + 0.1i lam = 4 has a bound just below lam = 0 and 1: the second
        # batch runs it, and it attains the max
        ("hole", (0, 0), [0.0, 1.0, 4.0, 16.3, 16.6, 21.0], False),
    ])
    def test_scan_on_a_pool_equals_the_serial_scan(self, kind, betas, lambdas, guard):
        g = Grid1D(X=20.0, N=128)
        a = DampingProfile.build(g, kind, r=5.0, rho=2.0)
        zs = [2.0 + 0.1j, 3.0, -2.0 + 0.1j, 1.0]
        serial = norm_scan(zs, *betas, a, lambdas, seed=5,
                           truncation_guard=guard)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = norm_scan(zs, *betas, a, lambdas, seed=5,
                               map=pool.map, truncation_guard=guard)
        assert pooled == serial
        assert serial[2] == dataclasses.replace(serial[0], z=serial[2].z)
        assert any(p.modes_scanned < len(lambdas) for p in serial)

    @pytest.mark.parametrize("scan", ["norm_scan", "energy_norm_scan", "theta_probe"])
    def test_scan_keys_are_distinct_and_of_one_length(self, scan, monkeypatch):
        # numpy pads a short key with zeros, so [s, i] would draw what [s, i, 0]
        # draws: within a scan every start vector's key, those iterative_norm
        # receives, the truncation guard's and the theta probe's, is its own and
        # all have one length
        import guidewave.resolvent as resolvent

        keys = []

        def spy(key, m, _start_vector=resolvent._start_vector):
            keys.append(tuple(key))
            return _start_vector(key, m)

        monkeypatch.setattr(resolvent, "_start_vector", spy)
        g = Grid1D(X=20.0, N=64)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        lambdas = [0.0, 1.0, 4.0]
        if scan == "norm_scan":
            pts = norm_scan([2.0, 3.0 + 0.1j, 0.5], 0, 0, a, lambdas, seed=7,
                            truncation_guard=True)
            assert len(keys) == sum(p.modes_scanned for p in pts) + len(pts)
        elif scan == "energy_norm_scan":
            energy_norm_scan([0.5, 2.0, 3.0], a, lambdas, seed=7)
            assert len(keys) == 3 * len(lambdas)
        else:
            theta_probe([0.1j, 0.3 + 0.4j], a, lambdas, delta1=1.05, delta2=0.6, seed=7)
            assert len(keys) == 2 * (1 + 4 * len(lambdas))
        assert len(set(keys)) == len(keys)
        assert {len(key) for key in keys} == {4}

    def test_a_scan_maps_at_most_two_batches(self):
        # the elliptic modes come first, by ascending bound (0.2, 1.67, 3.33 at
        # z = 4): a loop that skipped by the running max would run each alone
        g = Grid1D(X=20.0, N=256)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        batches = []

        def spy(fn, *args):
            batches.append(list(zip(*args)))
            return map(fn, *args)

        pt = norm_scan([4.0], 0, 0, a, [21.0, 16.6, 16.3, 0.0, 1.0, 4.0], seed=22, map=spy)[0]
        assert batches == [[(0, 3), (0, 4), (0, 5)], [(0, 1), (0, 2)]]
        assert (pt.k_argmax, pt.modes_scanned) == (2, 5)
        assert pt.tail_bound == pytest.approx(0.2, rel=1e-12)


class TestBlockResolvent:
    def test_zero_maps_to_zero(self, grid40, damping_const):
        u, v = wave_resolvent_apply(1j, np.zeros(grid40.N), np.zeros(grid40.N),
                                    damping_const, 0.0)
        assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(v)) == 0.0

    @pytest.mark.parametrize("z", [1j, 2.0 + 0.0j, 0.5 + 0.3j])
    def test_identity_check(self, grid40, damping_const, rng, z):
        f = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        g = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        u, v = wave_resolvent_apply(z, f, g, damping_const, 1.0)
        w1, w2 = wave_apply(u, v, damping_const, 1.0)
        r1 = w1 - z * u
        r2 = w2 - z * v
        scale = math.sqrt(np.linalg.norm(f) ** 2 + np.linalg.norm(g) ** 2)
        assert math.sqrt(np.linalg.norm(r1 - f) ** 2 + np.linalg.norm(r2 - g) ** 2) \
            <= 1e-8 * scale

    def test_adjoint_consistency(self, grid40, damping_const, rng):
        z = 1.3 + 0.4j
        block = WaveBlockResolvent(z, damping_const, 2.0)
        f1 = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        f2 = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        g1 = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        g2 = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        u, v = block.apply(f1, f2)
        w1, w2 = block.apply_adjoint(g1, g2)
        lhs = np.vdot(g1, u) + np.vdot(g2, v)
        rhs = np.vdot(w1, f1) + np.vdot(w2, f2)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_one_mode_solve_per_application(self, grid40, damping_const, rng, monkeypatch):
        block = WaveBlockResolvent(1.3 + 0.4j, damping_const, 2.0)
        calls = {"solve": 0, "solve_adjoint": 0}
        for name in calls:
            def counted(op, f, _solve=getattr(ShiftedOperator, name), _name=name):
                calls[_name] += 1
                return _solve(op, f)
            monkeypatch.setattr(ShiftedOperator, name, counted)
        f, g = rng.standard_normal((2, grid40.N))
        block.apply(f, g)
        assert calls == {"solve": 1, "solve_adjoint": 0}
        block.apply_adjoint(f, g)
        assert calls == {"solve": 1, "solve_adjoint": 1}

    def test_energy_norm_consistent_with_component_bound(self, grid40, damping_const, rng):
        # triangle-inequality recomputation from component norms at real tau
        tau = 2.0
        lam = 1.0
        dense_r = np.linalg.inv(dense_operator(mode_operator(lam, damping_const, tau)))
        helper = EnergyNormResolvent(lam, damping_const)
        sqrt_p = sqrt_energy_matrix(grid40, lam)
        norm = lambda m: float(svdvals(m)[0])
        grad_r_grad = norm(sqrt_p @ dense_r @ sqrt_p)
        grad_r = norm(sqrt_p @ dense_r)
        r_grad = norm(dense_r @ sqrt_p)
        r_plain = norm(dense_r)
        bound = (1.0 / tau + grad_r_grad / tau + grad_r
                 + r_grad + tau * r_plain)
        measured = helper.op_norm(tau, 7)
        assert measured <= bound * (1 + 1e-6)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", ["constant", "hole"])
    def test_energy_norm_matches_dense_oracle(self, order, kind):
        # banded-Cholesky similarity against the eigh-scaled dense block SVD;
        # lam = 0 is Neumann mode 0
        g = Grid1D(X=20.0, N=160, order=order)
        a = DampingProfile.build(g, kind, r=5.0, rho=2.0)
        for k, lam in enumerate((0.0, 1.0, 4.0)):
            helper = EnergyNormResolvent(lam, a)
            for i, tau in enumerate((0.0, -3.0, 0.5, 8.0)):
                want = dense_energy_norm(lam, a, tau)
                assert helper.op_norm(tau, [15, i, k]) == pytest.approx(want, rel=1e-10)

    def test_energy_norm_rejects_indefinite(self, grid40, damping_const):
        # -D2 - 1 has negative eigenvalues on this box: no Cholesky factor
        with pytest.raises(SolveError):
            EnergyNormResolvent(-1.0, DampingProfile.build(dataclasses.replace(grid40, order=2),
                                                           "constant"))

    def test_solver_failure_reported(self):
        # undamped operator probed exactly at a cap eigenvalue is singular
        g = Grid1D(X=10.0, N=64, order=2)
        a0 = DampingProfile.build(g, "constant", level=0.0)
        nu1 = (2.0 - 2.0 * math.cos(math.pi / (g.N + 1))) / g.h ** 2
        op = mode_operator(0.0, a0, math.sqrt(nu1))
        f = np.ones(g.N)
        with pytest.raises(SolveError):
            op.solve(f)


@settings(max_examples=40, deadline=None)
@given(case=mode_cases(n_z=2), seed=st.integers(0, 2**32 - 1))
def test_resolvent_identity(case, seed):
    # R(z1) - R(z2) = R(z1) (A(z2) - A(z1)) R(z2), A(z2) - A(z1) = (z1 - z2)(ia + z1 + z2)
    g, a, (z1, z2), lam, _ = case
    f = [1.0, 1j] @ np.random.default_rng(seed).standard_normal((2, g.N))
    res = resolvent_identity_residual(z1, z2, a, lam, f)
    assert res <= 1e-8


@settings(max_examples=40, deadline=None)
@given(case=mode_cases(), seed=st.integers(0, 2**32 - 1))
def test_adjoint_reflection(case, seed):
    # R(z)^* = R(-conj z): the adjoint solve equals the solve at the reflected shift
    g, a, (z,), lam, _ = case
    f = [1.0, 1j] @ np.random.default_rng(seed).standard_normal((2, g.N))
    adj = mode_operator(lam, a, z).solve_adjoint(f)
    refl = mode_operator(lam, a, -np.conj(z)).solve(f)
    assert np.linalg.norm(adj - refl) <= 1e-10 * np.linalg.norm(refl)


@settings(max_examples=40, deadline=None)
@given(case=mode_cases(), seed=st.integers(0, 2**32 - 1))
def test_banded_solve_matches_dense(case, seed):
    g, a, (z,), lam, _ = case
    f = [1.0, 1j] @ np.random.default_rng(seed).standard_normal((2, g.N))
    op = mode_operator(lam, a, z)
    dense = -dense_laplacian(g) + np.diag(lam - 1j * z * a.samples - z * z)
    for got, mat in ((op.solve(f), dense), (op.solve_adjoint(f), dense.conj().T)):
        want = np.linalg.solve(mat, f)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_heat_resolvent_norm_on_rays():
    # ||(-Lap_N - i z)^{-1}|| = 1/|z| within 2% on arg z in {pi/4, pi/2}
    g = Grid1D(X=200.0, N=512)
    lap = dense_laplacian(g)
    eye = np.eye(g.N)
    for arg in (math.pi / 4, math.pi / 2):
        for mod in (0.1, 1.0, 10.0):
            z = mod * cmath.exp(1j * arg)
            sigma = 1.0 / svdvals(-lap - 1j * z * eye)[-1]
            assert sigma == pytest.approx(1.0 / mod, rel=0.02)


class TestHeatModelResolvent:
    def test_row_structure(self, damping_const, grid40, rng):
        # row 2 of the heat-model blocks is z times row 1, on a probe vector
        heat = heat_model_operator(grid40, 0.1j)
        x = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        blocks = theta_blocks(0.1j, damping_const.samples)
        assert heat_structure_residual(heat, blocks, x) <= 1e-12

    def test_heat_blocks_match_dense_oracle(self, grid40, rng):
        a = DampingProfile.build(grid40, "hole", r=5.0, rho=2.0)
        z = 0.3 + 0.4j
        dense = HeatModelResolvent.build(z, a)
        heat = heat_model_operator(grid40, z)
        x = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        for j, h in zip((1, 2, 3, 4), (dense.h11, dense.h12, dense.h21, dense.h22)):
            want = h @ x
            got = heat.solve(theta_blocks(z, a.samples)[j][2] * x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["constant", "longrange", "hole"])
    def test_theta_probe_matches_dense_oracle(self, kind):
        g = Grid1D(X=40.0, N=192)
        a = DampingProfile.build(g, kind, r=5.0, rho=2.0)
        zs = [0.1j, 0.01j, 0.3 + 0.4j]
        lambdas = [0.0, 1.0, 4.0]
        rows = theta_probe(zs, a, lambdas, delta1=1.05, delta2=0.6,
                           seed=12)
        oracle = dense_theta_probe(zs, a, lambdas, delta1=1.05, delta2=0.6)
        for row, want in zip(rows, oracle):
            for j in (1, 2, 3, 4):
                assert row[f"theta{j}"] == pytest.approx(want[j], rel=1e-10)
            assert row["structure_residual"] <= 1e-12

    def test_theta_probe_blocks_bounded(self):
        g = Grid1D(X=100.0, N=512)
        a = DampingProfile.build(g, "constant")
        rows = theta_probe([0.1j, 0.01j], a, [0.0, 1.0], delta1=1.05, delta2=1.05,
                           seed=0)
        for j in (1, 2, 3):
            vals = [r[f"theta{j}"] for r in rows]
            assert max(vals) <= 3.0 * vals[0]
        # theta4 must not grow toward z -> 0 (it actually decays like |z|)
        assert rows[1]["theta4"] <= 3.0 * rows[0]["theta4"]
        assert all(r["structure_residual"] <= 1e-12 for r in rows)

    def test_theta_probe_preconditions(self, grid40, damping_const):
        for z in (2.0 + 1j, 0.5 - 0.1j):
            with pytest.raises(ValueError):
                theta_probe([z], damping_const, [0.0], 1.0, 1.0,
                            seed=0)


class TestSemiclassical:
    def test_constant_damping_matches_fourier_oracle(self):
        g = Grid1D(X=40.0, N=2048)
        a = DampingProfile.build(g, "constant")
        rows = semiclassical_scan([0.2, 0.1], a, seed=10)
        for row in rows:
            h = row["h"]
            xi = np.linspace(0.0, 4.0 / h, 400000)
            oracle = 1.0 / np.min(np.abs(h * h * xi * xi - 1.0 - 1j * h))
            assert row["norm"] == pytest.approx(oracle, rel=0.02)
            assert row["h_norm"] <= 1.05

    def test_control_diverges(self):
        ctrl = pure_laplacian_control([0.2, 0.1, 0.05, 0.025], X=200.0)
        norms = [c["norm"] for c in ctrl]
        assert max(norms) / min(norms) >= 4.0

    def test_h_range_validated(self, grid40, damping_const):
        with pytest.raises(ValueError):
            semiclassical_scan([1.5], damping_const, seed=0)


class TestEstimators:
    def test_power_iteration_matches_svd_on_clean_gap(self, rng):
        mat = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        mat[0, 0] += 30.0  # isolate the top singular value
        sigma, res, _ = power_iteration_norm(lambda x: mat @ x,
                                             lambda x: mat.conj().T @ x, 40, rng)
        assert sigma == pytest.approx(svdvals(mat)[0], rel=1e-6)

    def test_iterative_vs_dense_within_one_percent(self):
        g = Grid1D(X=40.0, N=384)
        scaler = SobolevScaler(g)
        for kind in ("constant", "hole"):
            a = DampingProfile.build(g, kind, r=5.0, rho=2.0)
            for i, (z, b1, b2) in enumerate(((4.0, 0, 0), (4.0, 1, 1), (0.5, 0, 1))):
                op = mode_operator(1.0, a, z)
                sigma, _ = _mode_sobolev_norm(op, scaler, b1, b2, [1234, i])
                oracle = dense_sobolev_norm(op, b1, b2)
                assert sigma == pytest.approx(oracle, rel=0.01)

    def test_operator_errors_propagate(self):
        # a solver failure inside the operator is not retried, even when a
        # retry would succeed
        mat = np.diag(np.linspace(1.0, 2.0, 64)).astype(complex)
        calls = []

        def flaky(x):
            calls.append(1)
            if len(calls) == 1:
                raise SolveError("near-singular solve")
            return mat @ x

        with pytest.raises(SolveError):
            iterative_norm(flaky, flaky, 64, 0)

    def test_budget_exhausted_without_bound_raises(self, monkeypatch):
        import guidewave.resolvent as resolvent

        monkeypatch.setattr(resolvent, "LANCZOS_MAX_STEPS", 1)
        mat = np.diag(np.linspace(1.0, 2.0, 64)).astype(complex)
        mat[0, 0] = 5.0
        for kwargs in ({}, {"upper": math.inf}):
            with pytest.raises(ConvergenceError, match=r"in 1 steps .*, inf\]"):
                iterative_norm(lambda x: mat @ x, lambda x: mat @ x, 64, 0, **kwargs)

    def test_rectangular_matches_svdvals(self, rng):
        n = 48
        mat = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        sigma, _ = iterative_norm(lambda x: mat @ x, lambda y: mat.conj().T @ y, n, 0)
        assert sigma == pytest.approx(svdvals(mat)[0], rel=1e-12)

    def test_rectangular_operator_errors_propagate(self):
        mat = np.vstack([np.eye(32), np.diag(np.linspace(1.0, 2.0, 32))]).astype(complex)

        def failing(x):
            raise SolveError("near-singular solve")

        with pytest.raises(SolveError):
            iterative_norm(failing, lambda y: mat.conj().T @ y, 32, 0)

    def test_rectangular_budget_exhausted_without_bound_raises(self, monkeypatch):
        import guidewave.resolvent as resolvent

        monkeypatch.setattr(resolvent, "LANCZOS_MAX_STEPS", 1)
        mat = np.vstack([np.eye(32), np.diag(np.linspace(1.0, 2.0, 32))]).astype(complex)
        mat[0, 0] = 5.0
        with pytest.raises(ConvergenceError, match="in 1 steps"):
            iterative_norm(lambda x: mat @ x, lambda y: mat.conj().T @ y, 32, 0)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["square", "tall"]), n=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_svdvals_on_every_shape(self, shape, n, seed):
        # T^*T on the domain of n columns
        rows = {"square": n, "tall": 2 * n}[shape]
        gen = np.random.default_rng(seed)
        mat = gen.standard_normal((rows, n)) + 1j * gen.standard_normal((rows, n))
        sigma, residual = iterative_norm(lambda x: mat @ x, lambda y: mat.conj().T @ y, n,
                                         [seed, 1])
        assert residual <= 1e-14
        assert sigma == pytest.approx(svdvals(mat)[0], rel=1e-12)

    def test_residual_is_measured_not_requested(self, rng):
        mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        for tol in (1e-7, 1e-4):
            _, residual = iterative_norm(lambda x: mat @ x, lambda y: mat.conj().T @ y,
                                         64, 0, tol=tol)
            assert 0.0 <= residual <= tol ** 2
            assert residual != tol

    @pytest.mark.parametrize("budget", [None, 20])
    def test_clustered_top_values_never_unconverged_lanczos(self, monkeypatch, budget):
        # top singular values 1e-9 apart (relative) inside a tight cluster:
        # a converged Lanczos run, or ConvergenceError when the budget cuts it
        # short and no bound is given
        import guidewave.resolvent as resolvent

        if budget is not None:
            monkeypatch.setattr(resolvent, "LANCZOS_MAX_STEPS", budget)
        n = 400
        d = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.99, 0.999, n - 2)]).astype(complex)
        if budget is not None:
            with pytest.raises(ConvergenceError, match=f"in {budget} steps"):
                iterative_norm(lambda x: d * x, lambda y: d * y, n, 0)
            return
        sigma, residual = iterative_norm(lambda x: d * x, lambda y: d * y, n, 0)
        assert residual <= 1e-14
        assert sigma == pytest.approx(1.0, rel=2e-9)

    @pytest.mark.parametrize("upper, closes", [(1.0, True), (1.0 + 1e-6, False)])
    def test_bound_certifies_ritz_value_at_budget(self, monkeypatch, upper, closes):
        # the same cluster cut at 20 steps: the Ritz value is returned when the
        # upper bound lies within tol of it, and raises when it does not
        import guidewave.resolvent as resolvent

        monkeypatch.setattr(resolvent, "LANCZOS_MAX_STEPS", 20)
        n = 400
        d = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.99, 0.999, n - 2)]).astype(complex)
        # iterative_norm draws its start vector from the generator of key 8 as well
        gen = np.random.default_rng(8)
        v0 = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        theta, _, converged = _lanczos_top(lambda x: d * (d * x), v0, 1e-14)
        assert not converged
        if not closes:
            with pytest.raises(ConvergenceError, match=r"in 20 steps .*1\.000001\]"):
                iterative_norm(lambda x: d * x, lambda y: d * y, n, 8, upper=upper)
            return
        sigma, residual = iterative_norm(lambda x: d * x, lambda y: d * y, n, 8, upper=upper)
        assert sigma == math.sqrt(theta)
        assert (1.0 - 1e-7) * upper <= sigma <= 1.0
        assert residual > 1e-14

    @pytest.mark.parametrize("case", ["random_psd", "clustered_budget", "invariant_subspace"])
    def test_lanczos_matches_list_recurrence_bit_for_bit(self, monkeypatch, case):
        # the preallocated, in-place recurrence performs the list-based one's
        # operations, so (theta, residual, converged) agree exactly
        import guidewave.resolvent as resolvent

        gen = np.random.default_rng(21)
        n, rtol = 60, 1e-14
        if case == "random_psd":
            mat = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            mat = mat.conj().T @ mat
            normal = lambda x: mat @ x
        elif case == "clustered_budget":
            monkeypatch.setattr(resolvent, "LANCZOS_MAX_STEPS", 20)
            n = 400
            d = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.99, 0.999, n - 2)])
            normal = lambda x: d * (d * x)
        else:
            # v0 spans an invariant subspace of dimension 2, where beta reaches 0
            d = np.concatenate([[4.0, 1.0], np.linspace(0.1, 0.5, n - 2)])
            normal = lambda x: d * x
            rtol = 0.0
        v0 = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        if case == "invariant_subspace":
            v0[2:] = 0.0
        before = v0.copy()
        got = _lanczos_top(normal, v0, rtol)
        assert got == lanczos_top_lists(normal, v0, rtol)
        assert np.array_equal(v0, before)
        converged = case != "clustered_budget"
        assert got[2] is converged
        if case == "invariant_subspace":
            assert got[1] == 0.0

    def test_top_eigenpair_matches_eigh_tridiagonal(self, rng):
        for k in (1, 2, 3, 17, 60):
            d, e = rng.standard_normal(k), rng.standard_normal(k - 1)
            theta, s_last = _top_eigenpair_tridiagonal(d, e)
            w, s = eigh_tridiagonal(d, e, select="i", select_range=(k - 1, k - 1))
            assert theta == w[0]
            assert abs(s_last) == pytest.approx(abs(s[-1, 0]), rel=1e-12, abs=1e-15)

    def test_non_finite_operator_output_raises(self):
        def nan_op(x):
            return np.full_like(x, np.nan)

        with pytest.raises(ConvergenceError):
            iterative_norm(nan_op, nan_op, 16, 0)

    def test_sobolev_scaler_inverts(self, rng):
        # U M^{-1} U^T = I, since U^T U = M = 1 - D2, with M^{-1} from the dense matrix
        for order in (2, 4):
            g = Grid1D(X=40.0, N=256, order=order)
            scaler = SobolevScaler(g)
            m = np.eye(g.N) - dense_laplacian(g)
            x = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
            back = scaler.apply(lambda u: np.linalg.solve(m, u), x, 1, 1)
            assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)
