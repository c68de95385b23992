"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  The golden
configs are executed once per session through the real pipeline and shared.

Criterion 6's first probe (the two-sided sharpness of the dx heat-kernel
slope) is implemented exactly as stated and fails honestly.  The claimed
t^-1 rate is an upper bound and is not sharp for this weight pair: the
measured operator norm (dense values converged to 10 digits under window
doubling and mesh refinement) fits -1.074 on t in [1, 100] and its local
slope runs from -0.91 through -1 near t = 3 toward -5/4, so no window-wide
fit can sit inside -1 +/- 0.05.  The one-sided bound direction is asserted
alongside and passes.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm

import guidewave.configs
from guidewave.config import load
from guidewave.discretize import DampingProfile, Grid1D, mode_operator
from guidewave.evolve import Stepper, WaveState, gaussian_envelope
from guidewave.fit import fit_power
from guidewave.heat import heat_weighted_norm
from guidewave.pipeline import cmd_evolve, cmd_heat_compare, cmd_resolvent, cmd_semiclassical
from guidewave.resolvent import norm_scan

from dense_oracles import dense_laplacian, dense_sobolev_norm

CONFIG_DIR = resources.files(guidewave.configs)


def config(name):
    return load(str(CONFIG_DIR / f"{name}.json"))


def report(code, name, ok, detail):
    print(f"\nACCEPT-{code:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def outdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance"))


@pytest.fixture(scope="session")
def golden_neumann_a1(outdir):
    return cmd_evolve(config("neumann_a1"), outdir)


@pytest.fixture(scope="session")
def golden_neumann_hole(outdir):
    return cmd_evolve(config("neumann_hole"), outdir)


@pytest.fixture(scope="session")
def golden_dirichlet_hole(outdir):
    return cmd_evolve(config("dirichlet_hole"), outdir)


@pytest.fixture(scope="session")
def golden_diffusion(outdir):
    return cmd_heat_compare(config("diffusion_a1"), outdir)


def test_criterion_01_energy_identity(golden_neumann_a1, golden_neumann_hole,
                                      golden_dirichlet_hole, golden_diffusion):
    worst_step = 0.0
    worst_cum = 0.0
    worst_wall = 0.0
    for run in (golden_neumann_a1, golden_neumann_hole, golden_dirichlet_hole,
                golden_diffusion["evolved"]):
        res = run["result"]
        worst_step = max(worst_step, res.identity_max_step_residual / res.E0)
        worst_cum = max(worst_cum, res.identity_cumulative_residual / res.E0)
        worst_wall = max(worst_wall, res.wall_seconds)
    ok = worst_step <= 1e-9 and worst_cum <= 1e-6 and worst_wall <= 120.0
    assert report(1, "energy-identity", ok,
                  f"max step residual {worst_step:.2e} E0, cumulative {worst_cum:.2e} E0, "
                  f"slowest run {worst_wall:.0f}s")


def test_criterion_02_conservative_control(outdir):
    cfg = config("conservative_a0")
    steps = round(cfg.time.t_end / cfg.time.dt)
    out = cmd_evolve(cfg, outdir)
    res = out["result"]
    drift = res.identity_cumulative_residual / res.E0
    ok = steps >= 10_000 and drift <= 1e-10
    assert report(2, "conservative-control", ok,
                  f"|E(t_end) - E0| = {drift:.2e} E0 over {steps} steps")


def test_criterion_03_global_decay_a1(golden_neumann_a1):
    fits = {f["series"]: f for f in golden_neumann_a1["fits"] if "exponent" in f}
    grad = fits["grad_w"]["exponent"]
    dtu = fits["dtu_w"]["exponent"]
    ok = grad <= -0.5 + 0.15 and dtu <= -1.0 + 0.15 and abs(dtu + 1.0) <= 0.15
    assert report(3, "global-decay-neumann-a1", ok,
                  f"grad exponent {grad:.3f} (<= -0.35), dtu {dtu:.3f} (-1 +/- 0.15)")


def test_criterion_04_localized_decay(golden_diffusion):
    series = golden_diffusion["evolved"]["series"]
    fit = fit_power(series["t"], series["dtu_w"], window=(20.0, 500.0))
    ok = fit.exponent <= -1.25 + 0.15
    assert report(4, "localized-data-decay", ok,
                  f"Gaussian-data dtu exponent {fit.exponent:.3f} <= -1.10")


def test_criterion_05_diffusion_phenomenon(golden_diffusion):
    table = golden_diffusion["table"]
    ts = table["t"]
    ratio = table["ratio_dt"]
    final = ratio[-1]
    tail = ratio[ts >= 50.0]
    monotone = bool(np.all(np.diff(tail) < 0.0))
    ok = final <= 0.3 and monotone
    assert report(5, "diffusion-phenomenon", ok,
                  f"ratio at t=500 {final:.4f} <= 0.3, monotone for t >= 50: {monotone}")


def test_criterion_06a_heat_kernel_dx_slope():
    ts = np.geomspace(1.0, 100.0, 13)
    t0 = time.perf_counter()
    ys = [heat_weighted_norm(t, 1, 1.0, 0.0, 0.0, 1.2) for t in ts]
    wall = time.perf_counter() - t0
    slope = float(np.polyfit(np.log(ts), np.log(ys), 1)[0])
    one_sided = slope <= -1.0 + 0.05
    ok = abs(slope + 1.0) <= 0.05
    report(6, "heat-kernel-dx-slope", ok,
           f"fit {slope:.4f} vs -1 +/- 0.05 as stated; one-sided bound "
           f"holds: {one_sided}; {wall:.0f}s; true norm decays faster "
           f"than the (non-sharp) bound")
    assert one_sided, "the upper-bound direction must hold"
    assert ok, (f"criterion 6 first probe as stated: fitted slope {slope:.4f} is outside "
                f"-1 +/- 0.05; the stated rate is an upper bound and is not sharp here, "
                f"see the module docstring")


def test_criterion_06b_heat_kernel_lap_slope():
    ts = np.geomspace(1.0, 100.0, 13)
    t0 = time.perf_counter()
    ys = [heat_weighted_norm(t, "lap", 0.0, 0.5, 0.5, 4.0) for t in ts]
    wall = time.perf_counter() - t0
    slope = float(np.polyfit(np.log(ts), np.log(ys), 1)[0])
    ok = abs(slope + 1.5) <= 0.1 and wall <= 60.0
    assert report(6, "heat-kernel-lap-slope", ok,
                  f"fit {slope:.4f} vs -3/2 +/- 0.1 (kappa=4), {wall:.0f}s <= 60s")


def test_criterion_07_high_frequency(outdir):
    a1 = cmd_resolvent(config("highfreq_a1"), outdir)
    slope = a1["payload"]["slope"]
    ok_a1 = abs(slope + 1.0) <= 0.1
    hole = cmd_resolvent(config("highfreq_hole"), outdir)
    taus = [abs(p.z.real) for p in hole["points"]]
    norms = [p.norm_est for p in hole["points"]]
    hole_slope = hole["payload"]["slope"]
    c_bound = max(n / t ** 3 for n, t in zip(norms, taus))
    ok_hole = hole_slope <= 3.0 and all(n <= c_bound * t ** 3 * (1 + 1e-9)
                                        for n, t in zip(norms, taus))
    ok = ok_a1 and ok_hole
    assert report(7, "high-frequency-resolvent", ok,
                  f"a=1 slope {slope:.3f} (-1 +/- 0.1); hole H1 slope {hole_slope:.2f} <= 3, "
                  f"single C = {c_bound:.3g} across the scan")


def test_criterion_08_intermediate_frequencies():
    g = Grid1D(X=200.0, N=2048)
    lambdas = np.arange(4, dtype=float) ** 2
    details = []
    ok = True
    for kind, kw in (("constant", {}), ("longrange", {"rho": 2.0}),
                     ("hole", {"r": 5.0, "rho": 2.0})):
        dp = DampingProfile.build(g, kind, **kw)
        pts = norm_scan([0.25, 0.5, 1.0, 2.0], 0, 0, dp, lambdas,
                        seed=3, truncation_guard=True)
        finite = all(np.isfinite(p.norm_est) for p in pts)
        stable = all(p.flag != "truncation-limited" for p in pts)
        ok = ok and finite and stable
        details.append(f"{kind}: finite={finite} stable={stable}")
    assert report(8, "intermediate-frequencies", ok, "; ".join(details))


def test_criterion_09_low_frequency_theta(outdir):
    out = cmd_resolvent(config("lowfreq_theta"), outdir)
    rows = out["rows"]
    mus = [abs(r["z"]) for r in rows]
    largest = int(np.argmax(mus))
    ok = True
    details = []
    for j in (1, 2, 3, 4):
        vals = [r[f"theta{j}"] for r in rows]
        growth = max(vals) / vals[largest]
        ok = ok and growth <= 3.0
        details.append(f"theta{j} growth {growth:.2f}")
    struct = max(r["structure_residual"] for r in rows)
    ok = ok and struct <= 1e-12
    assert report(9, "low-frequency-theta", ok,
                  "; ".join(details) + f"; heat-model row structure {struct:.1e} <= 1e-12")


def test_criterion_10_semiclassical(outdir):
    out = cmd_semiclassical(config("semiclassical_hole"), outdir)
    payload = out["payload"]
    variation = payload["variation"]
    growth = payload["control_growth"]
    ok = variation <= 2.0 and growth >= 4.0
    assert report(10, "semiclassical-bound", ok,
                  f"hole h*norm variation {variation:.2f} <= 2; pure-Laplacian control "
                  f"grows {growth:.1f}x >= 4x")


def test_criterion_11_dirichlet_real_axis(outdir):
    out = cmd_resolvent(config("dirichlet_realaxis"), outdir)
    payload = out["payload"]
    taus = [0.0] + [-32.0, 32.0]
    scanned = [complex(z).real for z in config("dirichlet_realaxis").scan.z_list]
    covers = all(t in scanned for t in taus)
    ok = payload["all_finite"] and covers and math.isfinite(payload["empirical_C"])
    assert report(11, "dirichlet-real-axis", ok,
                  f"norms finite on [-32, 32] incl 0; ||(A_D - tau)^-1|| <= C<tau>^2 "
                  f"with C = {payload['empirical_C']:.3g}")


def test_criterion_12_p0_split_and_klein_gordon(golden_neumann_a1, outdir):
    p0fit = next(f for f in golden_neumann_a1["fits"] if f["series"] == "E_p0perp")
    split_ok = p0fit["better_model"] == "exponential"
    kg = cmd_evolve(config("klein_gordon_a1"), outdir)
    kgfit = next(f for f in kg["fits"] if f["series"] == "E_total")
    rate, stderr = kgfit["exponent"], kgfit["stderr"]
    kg_ok = rate < 0.0 and stderr < 0.1 * abs(rate)
    ok = split_ok and kg_ok
    assert report(12, "p0-split-and-klein-gordon", ok,
                  f"P0-perp better model {p0fit['better_model']} (rate {p0fit['exponent']:.3f}); "
                  f"KG rate {rate:.3f}, stderr/|rate| {stderr / abs(rate):.3f} < 0.1")


def test_criterion_13_oracle_equivalence(rng=None):
    # stepper vs dense matrix exponential at N = 64
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
    stepper = Stepper(np.array([0.0]), a, dt=1e-2)
    s = state
    for _ in range(100):
        s, _ = stepper.step(s)
    err = np.linalg.norm(np.concatenate([s.modes[0], s.vmodes[0]]) - w_exact) \
        / np.linalg.norm(w_exact)

    # scan norms vs the dense-SVD test oracle on a validation subsample
    gv = Grid1D(X=40.0, N=384)
    worst = 0.0
    for kind in ("constant", "hole"):
        dp = DampingProfile.build(gv, kind, r=5.0, rho=2.0)
        for z, b1, b2 in ((4.0, 0, 0), (8.0, 1, 1), (0.5, 1, 0)):
            sigma = norm_scan([z], b1, b2, dp, [1.0], seed=13)[0].norm_est
            oracle = dense_sobolev_norm(mode_operator(1.0, dp, z), b1, b2)
            worst = max(worst, abs(sigma - oracle) / oracle)
    ok = err <= 1e-6 and worst <= 0.01
    assert report(13, "oracle-equivalence", ok,
                  f"stepper vs expm {err:.2e} <= 1e-6; iterative vs dense SVD "
                  f"max rel dev {worst:.2e} <= 1%")
