import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from guidewave.discretize import DampingProfile, Grid1D, laplacian_1d
from guidewave.evolve import (Stepper, WaveState, assemble_initial_state, energy,
                              gaussian_envelope, geometric_schedule, powerlaw_envelope,
                              run, smooth_initial_data)


def reference_step(stepper, state):
    """Per-mode midpoint step by a dense solve of each midpoint matrix."""
    tau, a, h = stepper.tau, stepper.a, stepper.grid.h
    neg_lap = -stepper.lap.as_dense()
    eye = np.eye(stepper.grid.N)
    new_u, new_v, diss = [], [], 0.0
    for lam, u, v in zip(stepper.lambdas, state.modes, state.vmodes):
        p = neg_lap + (lam + stepper.mass ** 2) * eye
        mid = eye + tau * np.diag(a) + tau ** 2 * p
        vp = np.linalg.solve(mid, v - tau * a * v - tau ** 2 * p @ v - 2.0 * tau * p @ u)
        new_u.append(u + tau * (v + vp))
        new_v.append(vp)
        diss += 2.0 * stepper.dt * h * float(np.sum(a * (0.5 * (v + vp)) ** 2))
    return np.array(new_u), np.array(new_v), diss


@settings(max_examples=40, deadline=None)
@given(k_count=st.integers(1, 4), n=st.integers(16, 48),
       kind=st.sampled_from(["constant", "longrange", "hole"]),
       level=st.floats(0.0, 2.0), order=st.sampled_from([2, 4]),
       mass=st.floats(0.0, 2.0), dt=st.floats(1e-3, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_step_matches_per_mode_reference(k_count, n, kind, level, order, mass, dt,
                                                 seed):
    rng = np.random.default_rng(seed)
    g = Grid1D(X=10.0, N=n)
    # only the constant profile takes a level; the others reject any but 1
    a = DampingProfile.build(g, kind, rho=1.5, r=3.0,
                             level=level if kind == "constant" else 1.0)
    lambdas = np.sort(rng.uniform(0.0, 20.0, k_count))
    stepper = Stepper(g, lambdas, a, dt=dt, order=order, mass=mass)
    state = WaveState(t=0.0, modes=rng.standard_normal((k_count, n)),
                      vmodes=rng.standard_normal((k_count, n)), mass=mass)
    for _ in range(3):
        ref_u, ref_v, ref_diss = reference_step(stepper, state)
        new, diss = stepper.step(state)
        scale = np.linalg.norm(ref_u) + np.linalg.norm(ref_v)
        assert np.linalg.norm(new.modes - ref_u) <= 1e-10 * scale
        assert np.linalg.norm(new.vmodes - ref_v) <= 1e-10 * scale
        assert diss == pytest.approx(ref_diss, rel=1e-10, abs=1e-300)
        # the discrete energy law holds step by step, mode by mode summed
        e_old = stepper.mode_energies(state).sum()
        e_new = stepper.mode_energies(new).sum()
        assert abs(e_new - e_old + diss) <= 1e-12 * e_old
        state = new


def make_state(grid, n_modes=2, u0=None, u1=None, **kw):
    env = gaussian_envelope(grid, sigma=3.0)
    if u0 is None:
        u0 = {0: 1.0, 1: 0.5}
    if u1 is None:
        u1 = {0: 0.3}
    return assemble_initial_state(grid, n_modes, env, u0, u1, **kw)


def test_conservative_run_holds_energy(grid40):
    a0 = DampingProfile.build(grid40, "constant", level=0.0)
    lambdas = np.array([0.0, 1.0])
    state = make_state(grid40)
    stepper = Stepper(grid40, lambdas, a0, dt=0.05)
    e0 = stepper.mode_energies(state).sum()
    for _ in range(2000):
        state, diss = stepper.step(state)
        assert diss == 0.0
    assert abs(stepper.mode_energies(state).sum() - e0) <= 1e-11 * e0


def test_energy_identity_exact_per_step(grid40, damping_const):
    lambdas = np.array([0.0, 1.0, 4.0])
    state = make_state(grid40, n_modes=3, u0={0: 1.0, 2: 0.4}, u1={1: 0.2})
    result = run(state, grid40, lambdas, damping_const, dt=0.05, t_end=30.0)
    assert result.identity_max_step_residual <= 1e-12 * result.E0
    assert result.identity_cumulative_residual <= 1e-10 * result.E0
    e = [r.E_total for r in result.records]
    assert all(np.diff(e) <= 1e-12)


def test_contraction_for_any_damping(grid40):
    lr = DampingProfile.build(grid40, "longrange", rho=1.5)
    lambdas = np.array([0.0])
    state = make_state(grid40, n_modes=1, u0={0: 1.0}, u1={})
    result = run(state, grid40, lambdas, lr, dt=0.1, t_end=20.0)
    norms = [r.E_total for r in result.records]
    assert norms[-1] <= norms[0]


def test_matches_dense_exponential_oracle():
    g = Grid1D(X=20.0, N=64)
    a = DampingProfile.build(g, "constant", level=1.0)
    u0 = gaussian_envelope(g, sigma=3.0)
    state = WaveState(t=0.0, modes=u0[None, :], vmodes=np.zeros((1, g.N)))
    lap = laplacian_1d(g, order=4).as_dense()
    n = g.N
    comp = np.zeros((2 * n, 2 * n))
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = lap
    comp[n:, n:] = -np.diag(a.samples)
    w_exact = expm(comp) @ np.concatenate([u0, np.zeros(n)])

    def advance(dt, steps):
        stepper = Stepper(g, np.array([0.0]), a, dt=dt, order=4)
        s = state
        for _ in range(steps):
            s, _ = stepper.step(s)
        return np.concatenate([s.modes[0], s.vmodes[0]])

    err1 = np.linalg.norm(advance(1e-2, 100) - w_exact) / np.linalg.norm(w_exact)
    assert err1 <= 1e-6
    err2 = np.linalg.norm(advance(5e-3, 200) - w_exact) / np.linalg.norm(w_exact)
    assert err1 / err2 == pytest.approx(4.0, rel=0.15)


def test_discrete_companion_roots_to_second_order():
    # the order-2 cap eigenmode evolves as an exact 2x2 system with
    # mu^2 + mu + nu = 0; the midpoint map must reproduce those roots to O(dt^2)
    g = Grid1D(X=10.0, N=127)
    a = DampingProfile.build(g, "constant", level=1.0)
    m = 3
    nu = (2.0 - 2.0 * math.cos(m * math.pi / (g.N + 1))) / g.h ** 2
    mode = np.sin(m * math.pi * (g.xs + g.X) / (2 * g.X))
    mode /= math.sqrt(g.h) * np.linalg.norm(mode)
    roots = np.roots([1.0, 1.0, nu])

    def amp_eigs(dt):
        b = np.array([[0.0, 1.0], [-nu, -1.0]])
        amp = np.linalg.solve(np.eye(2) - dt / 2 * b, np.eye(2) + dt / 2 * b)
        return np.sort_complex(np.log(np.linalg.eigvals(amp)) / dt)

    exact = np.sort_complex(roots.astype(complex))
    e1 = np.max(np.abs(amp_eigs(0.02) - exact))
    e2 = np.max(np.abs(amp_eigs(0.01) - exact))
    assert e1 / e2 == pytest.approx(4.0, rel=0.1)
    # and the stepper's actual action on the cap mode matches that 2x2 model
    dt = 0.02
    stepper = Stepper(g, np.array([0.0]), a, dt=dt, order=2)
    state = WaveState(t=0.0, modes=mode[None, :], vmodes=np.zeros((1, g.N)))
    s1, _ = stepper.step(state)
    b = np.array([[0.0, 1.0], [-nu, -1.0]])
    amp = np.linalg.solve(np.eye(2) - dt / 2 * b, np.eye(2) + dt / 2 * b)
    pred = amp @ np.array([1.0, 0.0])
    got_u = g.h * np.dot(mode, s1.modes[0]) / (g.h * np.dot(mode, mode))
    got_v = g.h * np.dot(mode, s1.vmodes[0]) / (g.h * np.dot(mode, mode))
    assert got_u == pytest.approx(pred[0], rel=1e-10)
    assert got_v == pytest.approx(pred[1], rel=1e-10)


class TestEnergyRecord:
    def test_zero_state(self, grid40, damping_const):
        lambdas = np.array([0.0, 1.0])
        state = WaveState(t=0.0, modes=np.zeros((2, grid40.N)), vmodes=np.zeros((2, grid40.N)))
        stepper = Stepper(grid40, lambdas, damping_const, dt=0.1)
        rec = energy(state, grid40, stepper)
        assert rec.E_total == 0.0 and rec.E_local == 0.0 and rec.grad_w == 0.0

    def test_mode1_energy_identity(self, grid40, damping_const):
        # u = phi_1 (x) g, v = 0, L = pi: E = ||g'||^2 + ||g||^2
        lambdas = np.array([0.0, 1.0])
        g = gaussian_envelope(grid40, sigma=2.0)
        state = WaveState(t=0.0, modes=np.stack([np.zeros(grid40.N), g]),
                          vmodes=np.zeros((2, grid40.N)))
        stepper = Stepper(grid40, lambdas, damping_const, dt=0.1)
        rec = energy(state, grid40, stepper)
        dg = -grid40.xs / 4.0 * g
        expected = grid40.h * (np.sum(dg ** 2) + np.sum(g ** 2))
        assert rec.E_total == pytest.approx(expected, rel=1e-6)

    def test_full_window_local_equals_total(self, grid40, damping_const, rng):
        lambdas = np.array([0.0, 1.0])
        state = WaveState(t=0.0, modes=rng.standard_normal((2, grid40.N)),
                          vmodes=rng.standard_normal((2, grid40.N)))
        stepper = Stepper(grid40, lambdas, damping_const, dt=0.1)
        rec = energy(state, grid40, stepper, R=grid40.X)
        assert rec.E_local == rec.E_total
        rec_half = energy(state, grid40, stepper, R=grid40.X / 2)
        assert 0.0 < rec_half.E_local < rec.E_total
        with pytest.raises(ValueError):
            energy(state, grid40, stepper, R=2 * grid40.X)


def test_mode0_data_keeps_p0perp_zero(grid40, damping_const):
    lambdas = np.array([0.0, 1.0, 4.0])
    state = make_state(grid40, n_modes=3, u0={0: 1.0}, u1={0: 0.5})
    result = run(state, grid40, lambdas, damping_const, dt=0.1, t_end=20.0)
    assert all(r.E_p0perp == 0.0 for r in result.records)
    assert all(r.E_p0 == r.E_total for r in result.records)


def test_cross_mode_leakage_is_zero(grid40, damping_const):
    lambdas = np.array([0.0, 1.0, 4.0])
    state = make_state(grid40, n_modes=3, u0={1: 1.0}, u1={})
    stepper = Stepper(grid40, lambdas, damping_const, dt=0.1)
    for _ in range(50):
        state, _ = stepper.step(state)
    assert np.max(np.abs(state.modes[[0, 2]])) <= 1e-12
    assert np.max(np.abs(state.vmodes[[0, 2]])) <= 1e-12


def test_smoothing_stays_real_and_damps_gradients(grid40, damping_const, rng):
    lambdas = np.array([0.0, 1.0])
    rough = rng.standard_normal((2, grid40.N))
    state = WaveState(t=0.0, modes=rough, vmodes=np.zeros((2, grid40.N)))
    m, v = smooth_initial_data(state.modes, state.vmodes, grid40, lambdas,
                               damping_const, 2)
    assert m.dtype == np.float64 and v.dtype == np.float64
    stepper = Stepper(grid40, lambdas, damping_const, dt=0.1)
    raw = energy(state, grid40, stepper).E_total
    smoothed = energy(WaveState(t=0.0, modes=m, vmodes=v), grid40, stepper).E_total
    assert smoothed < 0.1 * raw


def test_geometric_schedule():
    ts = geometric_schedule(1.0, 1.1, 500.0)
    assert ts[0] == 1.0
    assert np.allclose(np.diff(np.log(ts)), math.log(1.1))
    assert ts[-1] <= 500.0 * (1 + 1e-9)
    with pytest.raises(ValueError):
        geometric_schedule(0.0, 1.1, 10.0)


def test_powerlaw_envelope_tail():
    g = Grid1D(X=100.0, N=1023)  # odd N puts a node at x = 0
    env = powerlaw_envelope(g, q=0.5)
    assert env[g.N // 2] == pytest.approx(1.0, rel=1e-12)
    edge = np.abs(g.xs) > 50
    assert np.all(env[edge] <= (1 + 50.0 ** 2) ** -0.25 + 1e-12)


def test_assemble_rejects_bad_mode_index(grid40):
    env = gaussian_envelope(grid40)
    with pytest.raises(ValueError):
        assemble_initial_state(grid40, 2, env, {5: 1.0}, {})


def test_state_shape_validation(grid40):
    with pytest.raises(ValueError):
        WaveState(t=0.0, modes=np.zeros((2, 10)), vmodes=np.zeros((3, 10)))
    with pytest.raises(ValueError):
        WaveState(t=0.0, modes=np.zeros((2, 10)), vmodes=np.zeros((2, 10)), flavor="maxwell")
