import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded, expm

from guidewave.discretize import BandedLaplacian, DampingProfile, Grid1D, weight
from guidewave.errors import SolveError
from guidewave.evolve import (FLAVORS, KLEIN_GORDON, WAVE_NEUMANN, EnergyRecord, Stepper,
                              WaveState, assemble_initial_state, energy, gaussian_envelope,
                              geometric_schedule, powerlaw_envelope, run,
                              smooth_initial_data)

from dense_oracles import dense_laplacian


def reference_step(stepper, state):
    """Per-mode midpoint step by a dense solve of each midpoint matrix."""
    tau, a, h = stepper.tau, stepper.a, stepper.grid.h
    neg_lap = -dense_laplacian(stepper.grid)
    eye = np.eye(stepper.grid.N)
    new_u, new_v, diss = [], [], 0.0
    for lam, u, v in zip(stepper.lambdas, state.modes, state.vmodes):
        p = neg_lap + lam * eye
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
    g = Grid1D(X=10.0, N=n, order=order)
    # only the constant profile takes a level; the others reject any but 1
    a = DampingProfile.build(g, kind, rho=1.5, r=3.0,
                             level=level if kind == "constant" else 1.0)
    lambdas = np.sort(rng.uniform(0.0, 20.0, k_count)) + mass ** 2
    stepper = Stepper(lambdas, a, dt=dt)
    state = WaveState(t=0.0, grid=g, lambdas=lambdas, modes=rng.standard_normal((k_count, n)),
                      vmodes=rng.standard_normal((k_count, n)))
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


def reference_run(state0, damping, dt, t_end, t0, sample_ratio, delta1, R):
    """``run`` as a plain loop of ``Stepper`` steps and ``energy`` records."""
    stepper = Stepper(state0.lambdas, damping, dt)
    schedule = geometric_schedule(t0, sample_ratio, t_end)
    state, diss_cum, max_res, idx = state0, 0.0, 0.0, 0
    w2 = weight(damping.grid, -delta1) ** 2
    records = [energy(state0, w2=w2, R=R)]
    snapshots = [state0]
    e0 = e_prev = float(np.sum(stepper.mode_energies(state0)))
    for _ in range(int(round(t_end / dt))):
        state, diss = stepper.step(state)
        diss_cum += diss
        e_now = float(np.sum(stepper.mode_energies(state)))
        max_res = max(max_res, abs(e_now - e_prev + diss))
        e_prev = e_now
        while idx < len(schedule) and state.t >= schedule[idx] - 1e-9:
            records.append(energy(state, w2=w2, R=R, dissipation_cum=diss_cum))
            snapshots.append(state)
            idx += 1
    return records, snapshots, max_res, abs(e_prev - e0 + diss_cum)


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 5), n=st.integers(16, 40), flavor=st.sampled_from(FLAVORS),
       kind=st.sampled_from(["constant", "longrange", "hole"]), level=st.floats(0.0, 2.0),
       order=st.sampled_from([2, 4]), dt=st.floats(0.05, 0.5),
       delta1=st.sampled_from([0.0, 0.5]), half_window=st.booleans(),
       data=st.data())
def test_compact_run_matches_full_block_reference(k_count, n, flavor, kind, level, order,
                                                  dt, delta1, half_window, data):
    # data on any subset of the modes: non-prefix, mode 0 inert, or none at all;
    # the compact state holds mode 0 and the modes with data, the full one all K
    u_rows = data.draw(st.sets(st.integers(0, k_count - 1)), label="u rows")
    v_rows = data.draw(st.sets(st.integers(0, k_count - 1)), label="v rows")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    g = Grid1D(X=10.0, N=n, order=order)
    a = DampingProfile.build(g, kind, rho=1.5, r=3.0,
                             level=level if kind == "constant" else 1.0)
    mass = 1.3 if flavor == KLEIN_GORDON else 0.0
    lambdas = np.sort(rng.uniform(0.0, 20.0, k_count)) + mass ** 2
    modes, vmodes = np.zeros((k_count, n)), np.zeros((k_count, n))
    modes[sorted(u_rows)] = rng.standard_normal((len(u_rows), n))
    vmodes[sorted(v_rows)] = rng.standard_normal((len(v_rows), n))
    full = WaveState(t=0.0, grid=g, lambdas=lambdas, modes=modes, vmodes=vmodes, flavor=flavor)
    rows = sorted({0} | u_rows | v_rows)
    compact = replace(full, lambdas=lambdas[rows], modes=modes[rows], vmodes=vmodes[rows])
    kw = dict(dt=dt, t_end=12 * dt, t0=dt, sample_ratio=1.3, delta1=delta1,
              R=g.X / 2 if half_window else None)

    samples = []
    result = run(compact, a, on_sample=samples.append, **kw)
    records, snapshots, max_res, cum_res = reference_run(full, a, **kw)

    # the compact block groups the sums of a record without the inert rows
    series = result.series()
    for name in EnergyRecord.COLUMNS:
        ref = np.array([getattr(r, name) for r in records])
        np.testing.assert_allclose(series[name], ref, rtol=1e-14,
                                   atol=1e-14 * float(np.max(np.abs(ref))), err_msg=name)
    scale = 1e-14 * max(result.E0, 1e-300)
    assert result.identity_max_step_residual == pytest.approx(max_res, rel=1e-14, abs=scale)
    assert result.identity_cumulative_residual == pytest.approx(cum_res, rel=1e-14, abs=scale)

    assert len(samples) == len(snapshots)
    for got, ref in zip(samples, snapshots):
        assert got.t == ref.t
        for mine, theirs in ((got.modes, ref.modes), (got.vmodes, ref.vmodes)):
            assert mine.shape == (len(rows), n)
            np.testing.assert_allclose(mine, theirs[rows], rtol=1e-14,
                                       atol=1e-14 * float(np.max(np.abs(theirs), initial=0.0)))


def elementwise_d2(lap, u):
    """D2 as a general banded product: elementwise with each diagonal stored
    as an array built from the stencil coefficients."""
    n = u.shape[-1]
    diags = [np.full(n - m, c) for m, c in enumerate(lap.coeffs)]
    out = diags[0] * u
    for m in range(1, len(diags)):
        out[..., :-m] += diags[m] * u[..., m:]
        out[..., m:] += diags[m] * u[..., :-m]
    return out


def one_line_step(stepper, state):
    """The midpoint step as one expression: P applied to u and to v, and a
    ``cho_solve_banded`` solve with its finiteness checks."""
    tau, u, v = stepper.tau, state.modes, state.vmodes

    def p(w):
        return -elementwise_d2(stepper.grid.laplacian, w) + stepper.lam_eff * w

    rhs = v - tau * (stepper.a * v) - tau ** 2 * p(v) - 2.0 * tau * p(u)
    vp = cho_solve_banded((stepper._factor.ab, False), rhs.ravel()).reshape(v.shape)
    vm = 0.5 * (v + vp)
    diss = 2.0 * stepper.dt * stepper.grid.h * float(np.sum(stepper.a * vm ** 2))
    return replace(state, t=state.t + stepper.dt, modes=u + tau * (v + vp), vmodes=vp), diss


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", ["constant", "longrange", "hole"])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_run_is_bit_identical_to_one_line_step(order, kind, mass, monkeypatch):
    g = Grid1D(X=10.0, N=48, order=order)
    a = DampingProfile.build(g, kind, rho=1.5, r=3.0)
    lambdas = np.array([0.0, 1.0, 4.0]) + mass ** 2
    rng = np.random.default_rng(order + 10 * int(mass))
    state0 = WaveState(t=0.0, grid=g, lambdas=lambdas, modes=rng.standard_normal((3, g.N)),
                       vmodes=rng.standard_normal((3, g.N)),
                       flavor=KLEIN_GORDON if mass else WAVE_NEUMANN)
    dt, t_end, t0, ratio = 0.1, 3.0, 0.1, 1.3
    n_steps = int(round(t_end / dt))

    calls = []
    apply = BandedLaplacian.apply

    def counted_apply(self, u):
        calls.append(u.shape)
        return apply(self, u)

    monkeypatch.setattr(BandedLaplacian, "apply", counted_apply)
    samples = []
    result = run(state0, a, dt=dt, t_end=t_end, t0=t0,
                 sample_ratio=ratio, on_sample=samples.append)
    monkeypatch.undo()
    # P u_0 for the identity baseline, P v_n and P u_{n+1} per step, one per record
    assert len(calls) == 1 + 2 * n_steps + len(result.records)

    stepper = Stepper(lambdas, a, dt)
    schedule = geometric_schedule(t0, ratio, t_end)
    state, diss_cum, idx = state0, 0.0, 0
    records, snapshots = [energy(state0)], [state0]
    for _ in range(n_steps):
        state, diss = one_line_step(stepper, state)
        diss_cum += diss
        while idx < len(schedule) and state.t >= schedule[idx] - 1e-9:
            records.append(energy(state, dissipation_cum=diss_cum))
            snapshots.append(state)
            idx += 1

    series = result.series()
    for name in EnergyRecord.COLUMNS:
        assert np.array_equal(series[name], [getattr(r, name) for r in records]), name
    assert len(samples) == len(snapshots)
    for got, ref in zip(samples, snapshots):
        assert got.t == ref.t
        assert np.array_equal(got.modes, ref.modes)
        assert np.array_equal(got.vmodes, ref.vmodes)


def test_step_bits_do_not_depend_on_the_energy_check():
    g = Grid1D(X=10.0, N=48)
    a = DampingProfile.build(g, "hole", rho=1.5, r=3.0)
    lambdas = np.array([0.0, 2.0]) + 0.5 ** 2
    rng = np.random.default_rng(5)
    checked = Stepper(lambdas, a, dt=0.2)
    unchecked = Stepper(lambdas, a, dt=0.2)
    other = WaveState(t=0.0, grid=g, lambdas=lambdas, modes=rng.standard_normal((2, g.N)),
                      vmodes=rng.standard_normal((2, g.N)))
    state = WaveState(t=0.0, grid=g, lambdas=lambdas, modes=rng.standard_normal((2, g.N)),
                      vmodes=rng.standard_normal((2, g.N)))
    for n in range(6):
        # every other step, the last form energy was of another state
        checked.mode_energies(state if n % 2 else other)
        new, diss = checked.step(state)
        ref, ref_diss = unchecked.step(state)
        assert np.array_equal(new.modes, ref.modes)
        assert np.array_equal(new.vmodes, ref.vmodes)
        assert diss == ref_diss
        state = new


@pytest.mark.parametrize("level", [1.0, 0.0])
@pytest.mark.parametrize("field", ["modes", "vmodes"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("checked", [False, True])
def test_step_rejects_non_finite_data(level, field, bad, checked):
    g = Grid1D(X=10.0, N=32)
    a = DampingProfile.build(g, "constant", level=level)
    stepper = Stepper(np.array([0.0, 1.0]), a, dt=0.1)
    rng = np.random.default_rng(0)
    data = {"modes": rng.standard_normal((2, g.N)), "vmodes": rng.standard_normal((2, g.N))}
    data[field][1, 7] = bad
    state = WaveState(t=0.0, grid=g, lambdas=stepper.lambdas, **data)
    with np.errstate(all="ignore"), pytest.raises(SolveError):
        if checked:     # the step then takes P u from the form energy
            stepper.mode_energies(state)
        stepper.step(state)


def make_state(grid, lambdas=(0.0, 1.0), u0=None, u1=None, **kw):
    env = gaussian_envelope(grid, sigma=3.0, center=0.0, amplitude=1.0)
    if u0 is None:
        u0 = {0: 1.0, 1: 0.5}
    if u1 is None:
        u1 = {0: 0.3}
    return assemble_initial_state(grid, np.array(lambdas), env, u0, u1, **kw)


def test_conservative_run_holds_energy(grid40):
    a0 = DampingProfile.build(grid40, "constant", level=0.0)
    state = make_state(grid40)
    stepper = Stepper(state.lambdas, a0, dt=0.05)
    e0 = stepper.mode_energies(state).sum()
    for _ in range(2000):
        state, diss = stepper.step(state)
        assert diss == 0.0
    assert abs(stepper.mode_energies(state).sum() - e0) <= 1e-11 * e0


def test_energy_identity_exact_per_step(grid40, damping_const):
    state = make_state(grid40, [0.0, 1.0, 4.0], u0={0: 1.0, 2: 0.4}, u1={1: 0.2})
    result = run(state, damping_const, dt=0.05, t_end=30.0)
    assert result.identity_max_step_residual <= 1e-12 * result.E0
    assert result.identity_cumulative_residual <= 1e-10 * result.E0
    e = [r.E_total for r in result.records]
    assert all(np.diff(e) <= 1e-12)


def test_contraction_for_any_damping(grid40):
    lr = DampingProfile.build(grid40, "longrange", rho=1.5)
    state = make_state(grid40, [0.0], u0={0: 1.0}, u1={})
    result = run(state, lr, dt=0.1, t_end=20.0)
    norms = [r.E_total for r in result.records]
    assert norms[-1] <= norms[0]


def test_matches_dense_exponential_oracle():
    g = Grid1D(X=20.0, N=64)
    a = DampingProfile.build(g, "constant", level=1.0)
    u0 = gaussian_envelope(g, sigma=3.0, center=0.0, amplitude=1.0)
    state = WaveState(t=0.0, grid=g, lambdas=[0.0], modes=u0[None, :], vmodes=np.zeros((1, g.N)))
    lap = dense_laplacian(g)
    n = g.N
    comp = np.zeros((2 * n, 2 * n))
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = lap
    comp[n:, n:] = -np.diag(a.samples)
    w_exact = expm(comp) @ np.concatenate([u0, np.zeros(n)])

    def advance(dt, steps):
        stepper = Stepper(np.array([0.0]), a, dt=dt)
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
    g = Grid1D(X=10.0, N=127, order=2)
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
    stepper = Stepper(np.array([0.0]), a, dt=dt)
    state = WaveState(t=0.0, grid=g, lambdas=[0.0], modes=mode[None, :],
                      vmodes=np.zeros((1, g.N)))
    s1, _ = stepper.step(state)
    b = np.array([[0.0, 1.0], [-nu, -1.0]])
    amp = np.linalg.solve(np.eye(2) - dt / 2 * b, np.eye(2) + dt / 2 * b)
    pred = amp @ np.array([1.0, 0.0])
    got_u = g.h * np.dot(mode, s1.modes[0]) / (g.h * np.dot(mode, mode))
    got_v = g.h * np.dot(mode, s1.vmodes[0]) / (g.h * np.dot(mode, mode))
    assert got_u == pytest.approx(pred[0], rel=1e-10)
    assert got_v == pytest.approx(pred[1], rel=1e-10)


class TestEnergyRecord:
    def test_zero_state(self, grid40):
        lambdas = np.array([0.0, 1.0])
        state = WaveState(t=0.0, grid=grid40, lambdas=lambdas, modes=np.zeros((2, grid40.N)),
                          vmodes=np.zeros((2, grid40.N)))
        rec = energy(state)
        assert rec.E_total == 0.0 and rec.E_local == 0.0 and rec.grad_w == 0.0

    def test_mode1_energy_identity(self, grid40):
        # u = phi_1 (x) g, v = 0, L = pi: E = ||g'||^2 + ||g||^2
        lambdas = np.array([0.0, 1.0])
        g = gaussian_envelope(grid40, sigma=2.0, center=0.0, amplitude=1.0)
        state = WaveState(t=0.0, grid=grid40, lambdas=lambdas,
                          modes=np.stack([np.zeros(grid40.N), g]), vmodes=np.zeros((2, grid40.N)))
        rec = energy(state)
        dg = -grid40.xs / 4.0 * g
        expected = grid40.h * (np.sum(dg ** 2) + np.sum(g ** 2))
        assert rec.E_total == pytest.approx(expected, rel=1e-6)

    def test_full_window_local_equals_total(self, grid40, rng):
        lambdas = np.array([0.0, 1.0])
        state = WaveState(t=0.0, grid=grid40, lambdas=lambdas,
                          modes=rng.standard_normal((2, grid40.N)),
                          vmodes=rng.standard_normal((2, grid40.N)))
        rec = energy(state, R=grid40.X)
        assert rec.E_local == rec.E_total
        rec_half = energy(state, R=grid40.X / 2)
        assert 0.0 < rec_half.E_local < rec.E_total
        with pytest.raises(ValueError):
            energy(state, R=2 * grid40.X)


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 9), n=st.integers(16, 300), flavor=st.sampled_from(FLAVORS),
       order=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1))
def test_record_total_is_the_identity_energy(k_count, n, flavor, order, seed):
    # E_total is the sum the identity check of ``run`` tracks, bit for bit
    rng = np.random.default_rng(seed)
    g = Grid1D(X=10.0, N=n, order=order)
    a = DampingProfile.build(g, "hole", rho=1.5, r=3.0)
    mass = 1.3 if flavor == KLEIN_GORDON else 0.0
    lambdas = np.sort(rng.uniform(0.0, 20.0, k_count)) + mass ** 2
    state0 = WaveState(t=0.0, grid=g, lambdas=lambdas, modes=rng.standard_normal((k_count, n)),
                       vmodes=rng.standard_normal((k_count, n)), flavor=flavor)
    stepper = Stepper(lambdas, a, dt=0.1)
    assert (energy(state0).E_total
            == float(np.sum(stepper.mode_energies(state0))))


def test_mode0_data_keeps_p0perp_zero(grid40, damping_const):
    state = make_state(grid40, [0.0, 1.0, 4.0], u0={0: 1.0}, u1={0: 0.5})
    result = run(state, damping_const, dt=0.1, t_end=20.0)
    assert all(r.E_p0perp == 0.0 for r in result.records)
    assert all(r.E_p0 == r.E_total for r in result.records)


def test_cross_mode_leakage_is_zero(grid40, damping_const):
    state = make_state(grid40, [0.0, 1.0, 4.0], u0={1: 1.0}, u1={})
    stepper = Stepper(state.lambdas, damping_const, dt=0.1)
    for _ in range(50):
        state, _ = stepper.step(state)
    assert np.max(np.abs(state.modes[[0, 2]])) <= 1e-12
    assert np.max(np.abs(state.vmodes[[0, 2]])) <= 1e-12


def test_smoothing_stays_real_and_damps_gradients(grid40, damping_const, rng):
    rough = rng.standard_normal((2, grid40.N))
    state = WaveState(t=0.0, grid=grid40, lambdas=[0.0, 1.0], modes=rough,
                      vmodes=np.zeros((2, grid40.N)))
    smoothed = smooth_initial_data(state, damping_const, 2)
    assert smoothed.modes.dtype == np.float64 and smoothed.vmodes.dtype == np.float64
    assert smoothed.lambdas is state.lambdas
    assert energy(smoothed).E_total < 0.1 * energy(state).E_total


def test_run_validates_inputs_without_data(grid40, damping_const):
    # a state without data is stepped like any other, after the same checks
    state = make_state(grid40, u0={}, u1={})
    with pytest.raises(ValueError, match="time step"):
        run(state, damping_const, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="eigenvalues"):
        replace(state, lambdas=np.array([0.0]))


def test_geometric_schedule():
    ts = geometric_schedule(1.0, 1.1, 500.0)
    assert ts[0] == 1.0
    assert np.allclose(np.diff(np.log(ts)), math.log(1.1))
    assert ts[-1] <= 500.0 * (1 + 1e-9)
    with pytest.raises(ValueError):
        geometric_schedule(0.0, 1.1, 10.0)


def test_powerlaw_envelope_tail():
    g = Grid1D(X=100.0, N=1023)  # odd N puts a node at x = 0
    env = powerlaw_envelope(g, q=0.5, amplitude=1.0)
    assert env[g.N // 2] == pytest.approx(1.0, rel=1e-12)
    edge = np.abs(g.xs) > 50
    assert np.all(env[edge] <= (1 + 50.0 ** 2) ** -0.25 + 1e-12)


def test_assemble_rejects_bad_mode_index(grid40):
    env = gaussian_envelope(grid40, sigma=4.0, center=0.0, amplitude=1.0)
    with pytest.raises(ValueError):
        assemble_initial_state(grid40, np.array([0.0, 1.0]), env, {5: 1.0}, {})


def test_state_shape_validation(grid40):
    n, lambdas = grid40.N, np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        WaveState(t=0.0, grid=grid40, lambdas=lambdas, modes=np.zeros((2, n)),
                  vmodes=np.zeros((3, n)))
    with pytest.raises(ValueError):
        WaveState(t=0.0, grid=grid40, lambdas=lambdas, modes=np.zeros((2, n)),
                  vmodes=np.zeros((2, n)), flavor="maxwell")
    # the rows are the eigenvalues' modes and the columns the grid's nodes
    for shape in ((3, n), (2, n - 1)):
        with pytest.raises(ValueError, match="eigenvalues, grid.N"):
            WaveState(t=0.0, grid=grid40, lambdas=lambdas, modes=np.zeros(shape),
                      vmodes=np.zeros(shape))


def test_state_meets_a_damping_only_on_its_own_grid(grid40, damping_const):
    # same N, another X: the node count agrees, the nodes do not
    other = Grid1D(X=2 * grid40.X, N=grid40.N)
    state = make_state(other)
    with pytest.raises(ValueError, match="sampled on"):
        run(state, damping_const, dt=0.1, t_end=1.0)
    with pytest.raises(ValueError, match="sampled on"):
        smooth_initial_data(state, damping_const, 1)


def test_step_rejects_a_state_with_other_eigenvalues(grid40, damping_const):
    state = make_state(grid40, [0.0, 1.0])
    stepper = Stepper(np.array([0.0, 4.0]), damping_const, dt=0.1)
    with pytest.raises(ValueError, match="eigenvalues"):
        stepper.step(state)
    # equal eigenvalues in another array are the same modes
    new, _ = Stepper(np.array([0.0, 1.0]), damping_const, dt=0.1).step(state)
    assert new.lambdas is state.lambdas
