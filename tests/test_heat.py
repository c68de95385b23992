import math

import numpy as np
import pytest

from guidewave.discretize import DampingProfile, Grid1D
from guidewave.evolve import WaveState
from guidewave.heat import (HeatSolution, compare, comparison_table, heat_apply,
                            heat_kernel, heat_weighted_norm, p0_heat_data)

from dense_oracles import toeplitz_heat_apply


def dense_weighted_norm(t, beta, s, s1, s2, kappa):
    """Assembled weighted kernel on the default window and a full SVD (test oracle)."""
    derivative = {0: "none", 1: "dx", "lap": "lap"}[beta]
    xw = max(10.0 * math.sqrt(t), 10.0)
    n = int(min(1600, max(256, round(2.0 * xw / 0.1))))
    xs = np.linspace(-xw, xw, n)
    hw = xs[1] - xs[0]
    wl = (1.0 + xs ** 2) ** (-(kappa * s1 + s) / 2.0)
    wr = (1.0 + xs ** 2) ** (-(kappa * s2 + s) / 2.0)
    kern = heat_kernel(t, xs[:, None] - xs[None, :], derivative)
    mat = (wl[:, None] * kern * wr[None, :]) * hw
    return float(np.linalg.svd(mat, compute_uv=False)[0])


class TestKernelPropagator:
    def test_gaussian_closed_form(self):
        g = Grid1D(X=30.0, N=1200)
        w0 = np.exp(-g.xs ** 2 / 4.0)
        for t in (0.5, 1.0, 4.0):
            v = heat_apply(w0, g, t)
            exact = (1 + t) ** -0.5 * np.exp(-g.xs ** 2 / (4 * (1 + t)))
            assert np.max(np.abs(v - exact)) <= 1e-10

    def test_unit_spike_reproduces_kernel(self):
        g = Grid1D(X=20.0, N=799)  # h = 0.05, center node at x = 0
        w0 = np.zeros(g.N)
        w0[g.N // 2] = 1.0 / g.h
        v = heat_apply(w0, g, 1.0)
        assert np.max(np.abs(v - heat_kernel(1.0, g.xs))) <= 1e-4

    def test_mass_conservation(self):
        g = Grid1D(X=60.0, N=1200)
        w0 = np.exp(-g.xs ** 2 / 2.0) * (1 + 0.3 * np.sin(g.xs))
        # support + 6 sqrt(t) stays inside the box for these times
        for t in (1.0, 4.0, 25.0):
            v = heat_apply(w0, g, t)
            assert g.h * np.sum(v) == pytest.approx(g.h * np.sum(w0), abs=1e-8)

    def test_semigroup_property(self):
        g = Grid1D(X=60.0, N=1200)
        w0 = np.exp(-g.xs ** 2 / 2.0)
        v1 = heat_apply(heat_apply(w0, g, 1.5), g, 2.5)
        v2 = heat_apply(w0, g, 4.0)
        assert np.linalg.norm(v1 - v2) <= 1e-8 * np.linalg.norm(v2)

    def test_time_derivative_is_laplacian(self):
        g = Grid1D(X=60.0, N=1200)
        w0 = np.exp(-g.xs ** 2 / 2.0)
        lap = heat_apply(w0, g, 2.0, "lap")

        def resid(eps):
            fd = (heat_apply(w0, g, 2.0 + eps) - heat_apply(w0, g, 2.0 - eps)) / (2 * eps)
            return np.linalg.norm(fd - lap)

        assert resid(0.02) / resid(0.01) == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("n", [4096, 1001])
    @pytest.mark.parametrize("derivative", ["none", "dx", "lap"])
    def test_matches_toeplitz_oracle(self, n, derivative):
        # 2N - 1 = 8191 is prime; the fast length must not change the quadrature
        g = Grid1D(X=200.0, N=n)
        rng = np.random.default_rng(n)
        w0 = np.exp(-g.xs ** 2 / 32.0) * (1.0 + 0.3 * rng.standard_normal(n))
        for t in (0.5, 10.0, 500.0):
            ref = toeplitz_heat_apply(w0, g, t, derivative)
            got = heat_apply(w0, g, t, derivative)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), t

    def test_rejects_bad_arguments(self):
        g = Grid1D(X=10.0, N=64)
        with pytest.raises(ValueError):
            heat_apply(np.zeros(g.N), g, -1.0)
        with pytest.raises(ValueError):
            heat_apply(np.zeros(g.N), g, 1.0, "curl")
        with pytest.raises(ValueError):
            heat_apply(np.zeros(g.N + 2), g, 1.0)


class TestWeightedNorm:
    def test_unweighted_contraction(self):
        # operator norm of e^{t Lap} is 1; the windowed estimate sits just
        # below it by the O(sqrt(t)/Xw) edge effect
        for t in (1.0, 50.0):
            sigma = heat_weighted_norm(t, 0, 0.0, 0.0, 0.0, 1.2)
            assert sigma <= 1.0 + 1e-9
            assert abs(sigma - 1.0) <= 0.03

    def test_dx_slope_decays_at_least_like_bound(self):
        # upper bound t^{-1}: the measured norm decays at least that fast;
        # two-sided sharpness is not attained (see the acceptance module),
        # so the fitted value is additionally frozen as a regression pin.
        ts = np.geomspace(1.0, 100.0, 13)
        ys = [heat_weighted_norm(t, 1, 1.0, 0.0, 0.0, 1.2) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(ys), 1)[0]
        assert slope <= -1.0 + 0.05
        assert slope == pytest.approx(-1.074, abs=0.02)

    def test_lap_slope_kappa4_hits_sharp_rate(self):
        ts = np.geomspace(1.0, 100.0, 13)
        ys = [heat_weighted_norm(t, "lap", 0.0, 0.5, 0.5, 4.0) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(ys), 1)[0]
        assert -1.6 <= slope <= -1.4

    def test_lap_slope_kappa12_regression(self):
        # the op example's kappa = 1.2 sits in the pre-asymptotic blend;
        # recorded, not asserted against the asymptotic -3/2
        ts = np.geomspace(1.0, 100.0, 13)
        ys = [heat_weighted_norm(t, "lap", 0.0, 0.5, 0.5, 1.2) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(ys), 1)[0]
        assert slope == pytest.approx(-1.254, abs=0.03)

    @pytest.mark.parametrize("beta, s, s1, s2, kappa", [
        (0, 0.0, 0.1, 0.4, 1.5),      # s1 != s2: the weighted kernel is not normal
        (1, 1.0, 0.0, 0.0, 1.2),      # the ACCEPT-06a weights
        (1, 0.5, 0.0, 0.5, 1.2),
        ("lap", 0.0, 0.5, 0.5, 4.0),  # the ACCEPT-06b weights
    ])
    def test_matches_dense_svd_oracle(self, beta, s, s1, s2, kappa):
        for t in (1.0, 10.0, 100.0):
            want = dense_weighted_norm(t, beta, s, s1, s2, kappa)
            assert heat_weighted_norm(t, beta, s, s1, s2, kappa) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_weight_exponent(self):
        base = heat_weighted_norm(4.0, 0, 0.0, 0.1, 0.1, 1.5)
        heavier = heat_weighted_norm(4.0, 0, 0.0, 0.3, 0.1, 1.5)
        heaviest = heat_weighted_norm(4.0, 0, 0.0, 0.3, 0.3, 1.5)
        assert heaviest <= heavier <= base

    def test_window_too_small_detected(self):
        with pytest.raises(ValueError, match="boundary-column mass"):
            heat_weighted_norm(100.0, 0, 0.0, 0.0, 0.0, 1.2, xw=20.0)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            heat_weighted_norm(1.0, "lap", 0.5, 0.0, 0.0, 1.2)
        with pytest.raises(ValueError):
            heat_weighted_norm(1.0, 1, 2.0, 0.0, 0.0, 1.2)
        with pytest.raises(ValueError):
            heat_weighted_norm(1.0, 0, 0.0, 0.9, 0.0, 1.2)
        with pytest.raises(ValueError):
            heat_weighted_norm(1.0, 0, 0.0, 0.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            heat_weighted_norm(-1.0, 0, 0.0, 0.0, 0.0, 1.2)


class TestCompare:
    def _snapshots_from_heat(self, grid, heat, lambdas, yfactor, times):
        snaps = []
        for t in times:
            modes = np.zeros((len(lambdas), grid.N))
            vmodes = np.zeros((len(lambdas), grid.N))
            modes[0] = yfactor * heat.value(t)
            vmodes[0] = yfactor * heat.dt(t)
            snaps.append(WaveState(t=t, grid=grid, lambdas=lambdas, modes=modes, vmodes=vmodes))
        return snaps

    def test_identical_fields_give_zero(self):
        grid = Grid1D(X=60.0, N=1024)
        w0 = np.exp(-grid.xs ** 2 / 4.0)
        heat = HeatSolution(grid=grid, w0=w0)
        lambdas = np.array([0.0, 1.0])
        yfactor = math.sqrt(math.pi)
        snaps = self._snapshots_from_heat(grid, heat, lambdas, yfactor, [1.0, 4.0, 16.0])
        table = comparison_table(compare(s, heat, yfactor) for s in snaps)
        # u is built from v itself; only the FD-vs-kernel gradient error remains
        assert np.max(table["norm_dt_diff"]) <= 1e-12
        assert np.max(table["norm_grad_diff"] / table["norm_grad_v"]) <= 1e-5

    def test_zero_heat_data_returns_wave_norms(self):
        grid = Grid1D(X=60.0, N=512)
        lambdas = np.array([0.0, 1.0])
        heat = HeatSolution(grid=grid, w0=np.zeros(grid.N))
        g = np.exp(-grid.xs ** 2 / 4.0)
        modes = np.stack([np.zeros(grid.N), g])
        vmodes = np.stack([np.zeros(grid.N), 0.5 * g])
        snaps = [WaveState(t=2.0, grid=grid, lambdas=lambdas, modes=modes, vmodes=vmodes)]
        table = comparison_table(compare(s, heat, math.sqrt(math.pi)) for s in snaps)
        expected_dt = math.sqrt(grid.h * np.sum((0.5 * g) ** 2))
        assert table["norm_dt_diff"][0] == pytest.approx(expected_dt, rel=1e-12)
        assert np.isinf(table["ratio_dt"][0])

    def test_p0_heat_data_mode0_mean(self):
        grid = Grid1D(X=20.0, N=128)
        a = DampingProfile.build(grid, "constant").samples
        modes0 = np.stack([np.cos(grid.xs), np.sin(grid.xs)])
        vmodes0 = np.stack([0.5 * np.ones(grid.N), grid.xs])
        yf = math.sqrt(math.pi)
        w0 = p0_heat_data(modes0, vmodes0, a, yf)
        assert np.allclose(w0, (np.cos(grid.xs) + 0.5) / yf)

    def test_reads_the_grid_of_the_heat_solution(self):
        # the norms use heat.grid; a state sampled on another grid is rejected,
        # also one with the same N and another X
        grid = Grid1D(X=20.0, N=128)
        heat = HeatSolution(grid=grid, w0=np.exp(-grid.xs ** 2))
        for other in (Grid1D(X=20.0, N=64), Grid1D(X=40.0, N=128)):
            state = WaveState(t=1.0, grid=other, lambdas=[0.0], modes=np.zeros((1, other.N)),
                              vmodes=np.zeros((1, other.N)))
            with pytest.raises(ValueError, match="sampled on"):
                compare(state, heat, 1.0)

    def test_skips_t_zero(self):
        grid = Grid1D(X=20.0, N=128)
        heat = HeatSolution(grid=grid, w0=np.exp(-grid.xs ** 2))
        snaps = [WaveState(t=t, grid=grid, lambdas=[0.0], modes=np.zeros((1, grid.N)),
                           vmodes=np.zeros((1, grid.N))) for t in (0.0, 1.0)]
        table = comparison_table(compare(s, heat, 1.0) for s in snaps)
        assert table["t"].tolist() == [1.0]
