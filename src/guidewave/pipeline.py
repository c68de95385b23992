"""Experiment runner: builds module objects from a config and emits artifacts.

Each run command writes its files through ``write_artifacts`` into a directory
named by the config hash: every CSV and JSON file there names the artifact
version, the config hash and the experiment id, and ``config.json`` is the
canonical config the hash is taken of.  Writes are atomic (temp file +
rename).  Every scan runs serially in the calling thread (``scan_modes``):
each point runs its modes by decreasing certified bound, exact with constant
damping, and skips the modes whose bound is below the max its runs found.
Each Lanczos run draws its start vector from ``np.random.default_rng(key)``
with the key [seed, point, mode, block], the config's seed first, so a start
vector depends on its key alone.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
# no longer used; kept while perfbench/tracing.py looks it up by name
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import (INIT_FAMILIES, ExperimentConfig, canonical_json, check_fit_window,
                     config_hash, parse_scan_z, read_input)
from .discretize import DampingProfile, Grid1D, weight
from .errors import ConfigError
from .evolve import (KLEIN_GORDON, WAVE_DIRICHLET, WAVE_EUCLIDEAN, WAVE_NEUMANN,
                     assemble_initial_state, gaussian_envelope,
                     powerlaw_envelope, run, smooth_initial_data)
from .fit import compare_models, fit_exponential, fit_power, predict_exponent
from .heat import HeatSolution, compare, comparison_table, p0_heat_data
from .resolvent import (energy_norm_scan, norm_scan, pure_laplacian_control,
                        semiclassical_scan, theta_probe)
from .transverse import DIRICHLET, NEUMANN, transverse_eigenvalues


# the scans run in one thread; kept while perfbench/run.py looks it up by name
def max_threads() -> int:
    """The threads a scan runs on: always 1."""
    return 1


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_csv(columns: dict, header_comments: list[str]) -> str:
    names = list(columns)
    n = len(columns[names[0]])
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(names))
    for i in range(n):
        lines.append(",".join("%.17g" % float(columns[name][i]) for name in names))
    return "\n".join(lines) + "\n"


def read_csv(path: str) -> dict[str, np.ndarray]:
    names = None
    rows = []
    for line in read_input(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if names is None:
            names = line.split(",")
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise ConfigError(f"{path}: malformed CSV row {line!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed CSV value in {line!r}") from exc
    if names is None or not rows:
        raise ConfigError(f"{path}: empty CSV")
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(names)}


def write_artifacts(cfg: ExperimentConfig, out_base: str, files: dict) -> str:
    """Write ``files``, in order, and then ``config.json`` into
    ``out_base/<config_hash>``; return that directory.

    ``files`` maps a file name to CSV columns (``.csv``), written under three
    ``#`` lines, or to a JSON payload (``.json``), written inside an envelope;
    both name the artifact version, the config hash and the experiment id.
    ``config.json`` is ``canonical_json(cfg)``, the form the hash is taken of.
    """
    digest = config_hash(cfg)
    outdir = os.path.join(out_base, digest)
    header = [f"guidewave {__version__}", f"config {digest}", f"experiment {cfg.experiment_id}"]
    envelope = {"artifact_version": __version__, "config_hash": digest,
                "experiment_id": cfg.experiment_id}
    for name, content in files.items():
        if name.endswith(".csv"):
            text = format_csv(content, header)
        else:
            text = json.dumps({**envelope, **content}, sort_keys=True, indent=2) + "\n"
        atomic_write(os.path.join(outdir, name), text)
    atomic_write(os.path.join(outdir, "config.json"), canonical_json(cfg) + "\n")
    return outdir


# ---------------------------------------------------------------------------
# config -> module objects


def build_grid(cfg: ExperimentConfig) -> Grid1D:
    return Grid1D(X=cfg.grid.X, N=cfg.grid.N, order=cfg.grid.order)


def build_damping(cfg: ExperimentConfig) -> DampingProfile:
    """The config's damping profile, sampled on ``build_grid(cfg)``."""
    d = cfg.damping
    return DampingProfile.build(build_grid(cfg), kind=d.kind, rho=d.rho, r=d.r, level=d.level)


def build_basis(cfg: ExperimentConfig):
    """The transverse eigenvalues lam_k + mass^2, the one place the Klein-Gordon
    mass enters, and the mode-0 normalization factor."""
    lambdas, yfactor = np.array([0.0]), 1.0
    if cfg.flavor in (WAVE_NEUMANN, WAVE_DIRICHLET):
        bc = NEUMANN if cfg.flavor == WAVE_NEUMANN else DIRICHLET
        lambdas = transverse_eigenvalues(bc, L=cfg.domain.L, K=cfg.domain.K)
        yfactor = math.sqrt(cfg.domain.L)
    return lambdas + cfg.mass ** 2, yfactor


def build_envelope(cfg: ExperimentConfig, grid: Grid1D) -> np.ndarray:
    """The family's envelope, its ``INIT_FAMILIES`` defaults overridden by ``init.params``."""
    envelope = gaussian_envelope if cfg.init.family == "gaussian" else powerlaw_envelope
    return envelope(grid, **{**INIT_FAMILIES[cfg.init.family], **cfg.init.params})


def evolved_modes(cfg: ExperimentConfig) -> np.ndarray:
    """The modes an evolution carries, ascending: mode 0 and every mode named in
    the initial data.  Row 0 of an evolved state is mode 0; any other mode stays zero."""
    named = {int(k) for modes in (cfg.init.u0_modes, cfg.init.u1_modes) for k in modes}
    return np.array(sorted(named | {0}))


def build_initial_state(cfg: ExperimentConfig, damping: DampingProfile):
    """The initial state on ``damping.grid`` and the ``evolved_modes``."""
    env = build_envelope(cfg, damping.grid)
    evolved = evolved_modes(cfg)
    row = {k: i for i, k in enumerate(evolved)}
    u0 = {row[int(k)]: float(v) for k, v in cfg.init.u0_modes.items()}
    u1 = {row[int(k)]: float(v) for k, v in cfg.init.u1_modes.items()}
    state = assemble_initial_state(damping.grid, build_basis(cfg)[0][evolved], env, u0, u1,
                                   flavor=cfg.flavor)
    if cfg.init.smoothing_k > 0:
        state = smooth_initial_data(state, damping, cfg.init.smoothing_k)
    return state


def _rho_for_fit(cfg: ExperimentConfig) -> float:
    return math.inf if cfg.damping.kind == "constant" else cfg.damping.rho


def _informative(cfg: ExperimentConfig) -> bool:
    return cfg.damping.kind == "hole" or cfg.flavor == WAVE_DIRICHLET


def _predicted(track: str, cfg: ExperimentConfig, k: int = 1) -> float | None:
    """Predicted exponent of a decay track, or None where the weights rule it out."""
    try:
        return predict_exponent(track, cfg.weight_spec(), k=k, d=1, rho=_rho_for_fit(cfg))
    except ValueError:
        return None


def _fit_record(series: str, f, verdict: str, **extra) -> dict:
    return {"series": series, "model": f.model, "exponent": f.exponent, "stderr": f.stderr,
            "predicted": f.predicted, "verdict": verdict, "window": list(f.window),
            "curvature": f.curvature, **extra}


def _fit_entry(cfg: ExperimentConfig, series: str, model: str, t, y,
               predicted: float | None = None) -> dict:
    """Fit one series over the config's window; a failed fit is recorded, not raised."""
    try:
        f = (fit_power if model == "power" else fit_exponential)(
            t, y, window=tuple(cfg.fit_window), predicted=predicted)
    except ValueError as exc:
        return {"series": series, "model": model, "error": str(exc)}
    return _fit_record(series, f, "informative" if _informative(cfg) else f.verdict())


# ---------------------------------------------------------------------------
# subcommands


def cmd_evolve(cfg: ExperimentConfig, out_base: str, on_sample=None) -> dict:
    """Evolve the config's initial state; ``on_sample`` is passed on to ``run``."""
    damping = build_damping(cfg)
    state0 = build_initial_state(cfg, damping)
    result = run(state0, damping, dt=cfg.time.dt, t_end=cfg.time.t_end,
                 t0=cfg.time.t0, sample_ratio=cfg.time.sample_ratio,
                 delta1=cfg.weight_spec().delta1, R=cfg.local_radius, on_sample=on_sample)
    series = result.series()

    t = series["t"]
    if cfg.flavor == WAVE_DIRICHLET:
        fits = [_fit_entry(cfg, "state_norm", "power", t, np.sqrt(series["E_total"]),
                           _predicted("dirichlet_highfreq", cfg, k=max(cfg.init.smoothing_k, 1)))]
    elif cfg.flavor == KLEIN_GORDON:
        fits = [_fit_entry(cfg, "E_total", "exponential", t, series["E_total"])]
    else:
        fits = [_fit_entry(cfg, "grad_w", "power", t, series["grad_w"],
                           _predicted("energy_decay_grad", cfg)),
                _fit_entry(cfg, "dtu_w", "power", t, series["dtu_w"],
                           _predicted("energy_decay_dt", cfg))]
        if cfg.flavor == WAVE_NEUMANN and np.any(series["E_p0perp"] > 0):
            p0_window = (cfg.time.t0 * 2, min(60.0, cfg.time.t_end))
            try:
                cm = compare_models(t, series["E_p0perp"], window=p0_window)
                fits.append(_fit_record("E_p0perp", cm["exponential"], "informative",
                                        better_model=cm["better"]))
            except ValueError as exc:
                fits.append({"series": "E_p0perp", "model": "exponential", "error": str(exc)})

    outdir = write_artifacts(cfg, out_base, {"series.csv": series, "fits.json": {
        "command": "evolve",
        "fits": fits,
        "E0": result.E0,
        "identity_max_step_residual": result.identity_max_step_residual,
        "identity_cumulative_residual": result.identity_cumulative_residual,
        "damping_hypothesis_constants": damping.hypothesis_constants(),
    }})
    return {"outdir": outdir, "result": result, "series": series, "fits": fits}


def cmd_heat_compare(cfg: ExperimentConfig, out_base: str) -> dict:
    if cfg.flavor not in (WAVE_NEUMANN, WAVE_EUCLIDEAN):
        raise ConfigError(f"flavor: heat comparison needs wave_neumann or wave_euclidean, got {cfg.flavor!r}")
    damping = build_damping(cfg)
    yfactor = build_basis(cfg)[1]
    w = weight(damping.grid, -cfg.weight_spec().delta1)
    heat = None
    rows = []

    def on_sample(state):
        # the first sample is the smoothed initial state, which the heat data
        # needs; each later one is compared as it comes and then dropped
        nonlocal heat
        if heat is None:
            heat = HeatSolution(grid=damping.grid, w0=p0_heat_data(
                state.modes, state.vmodes, damping.samples, yfactor))
        else:
            rows.append(compare(state, heat, yfactor, w=w))

    evolved = cmd_evolve(cfg, out_base, on_sample=on_sample)
    table = comparison_table(rows)

    zero_heat = float(np.max(np.abs(heat.w0))) == 0.0
    fits = [_fit_entry(cfg, name, "power", table["t"], table[name], _predicted(track, cfg))
            for name, track in (("norm_grad_diff", "heat_compare_grad_diff"),
                                ("norm_dt_diff", "heat_compare_dt_diff"))]

    finite = np.isfinite(table["ratio_dt"])
    payload = {"command": "heat-compare", "fits": fits, "zero_heat_data": zero_heat,
               "heat_mass": heat.mass()}
    if np.any(finite):
        ts = table["t"][finite]
        ratios = table["ratio_dt"][finite]
        payload["ratio_dt_final"] = float(ratios[-1])
        tail = ratios[ts >= 50.0]
        payload["ratio_dt_monotone_tail"] = bool(np.all(np.diff(tail) < 0)) if tail.size > 1 else False

    outdir = write_artifacts(cfg, out_base, {"compare.csv": table, "compare_fits.json": payload})
    return {"outdir": outdir, "table": table, "fits": fits, "heat": heat,
            "payload": payload, "evolved": evolved}


def _fit_loglog_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def cmd_resolvent(cfg: ExperimentConfig, out_base: str) -> dict:
    damping = build_damping(cfg)
    lambdas, _ = build_basis(cfg)
    kind = cfg.scan.kind
    if cfg.flavor == KLEIN_GORDON and kind != "highfreq":
        raise ConfigError(f"mass: scan kind {kind!r} has no mass term, got mass={cfg.mass}")
    zs = parse_scan_z(cfg.scan.z_list)
    if not zs:
        raise ConfigError(f"scan.z_list: {kind} scan needs at least one z")
    payload = {"command": "resolvent-scan", "kind": kind}

    if kind == "theta":
        rows = theta_probe(zs, damping, lambdas,
                           delta1=cfg.weight_spec().delta1, delta2=cfg.weight_spec().delta2,
                           seed=cfg.seed)
        cols = {"re_z": [r["z"].real for r in rows], "im_z": [r["z"].imag for r in rows]}
        for j in (1, 2, 3, 4):
            cols[f"theta{j}"] = [r[f"theta{j}"] for r in rows]
        cols["structure_residual"] = [r["structure_residual"] for r in rows]
        payload["variation"] = {
            f"theta{j}": (max(c) / min(c) if min(c := cols[f"theta{j}"]) > 0 else math.inf)
            for j in (1, 2, 3, 4)}
        payload["max_structure_residual"] = max(cols["structure_residual"])
        result = {"rows": rows}

    elif kind == "realaxis":
        taus = [z.real for z in zs]
        norms = energy_norm_scan(taus, damping, lambdas, seed=cfg.seed)
        constants = [n / (1.0 + t * t) for n, t in zip(norms, taus)]
        cols = {"re_z": taus, "im_z": [0.0] * len(taus),
                "beta1": [0.0] * len(taus), "beta2": [0.0] * len(taus),
                "norm_est": norms, "bound_constant": constants}
        payload["empirical_C"] = max(constants)
        payload["all_finite"] = bool(np.all(np.isfinite(norms)))
        result = {"norms": norms}

    else:
        # high/intermediate frequency norm scan, max over modes per point
        points = norm_scan(zs, cfg.scan.beta1, cfg.scan.beta2, damping, lambdas,
                           seed=cfg.seed, truncation_guard=cfg.scan.truncation_guard)

        cols = {"re_z": [p.z.real for p in points], "im_z": [p.z.imag for p in points],
                "beta1": [float(p.beta1) for p in points],
                "beta2": [float(p.beta2) for p in points],
                "norm_est": [p.norm_est for p in points],
                "method": [1.0] * len(points),
                "flag": [1.0 if p.flag == "truncation-limited" else 0.0 for p in points],
                "k_argmax": [float(p.k_argmax) for p in points]}
        ok = [p for p in points if p.flag != "truncation-limited" and abs(p.z.real) > 0]
        payload["n_points"] = len(points)
        payload["n_truncation_limited"] = sum(p.flag == "truncation-limited" for p in points)
        if len(ok) >= 2:
            payload["slope"] = _fit_loglog_slope([abs(p.z.real) for p in ok],
                                                 [p.norm_est for p in ok])
            power = 1 + cfg.scan.beta1 + cfg.scan.beta2
            payload["bound_power"] = power
            payload["bound_constant"] = max(p.norm_est / abs(p.z.real) ** power for p in ok)
        result = {"points": points}

    outdir = write_artifacts(cfg, out_base, {"scan.csv": cols, "scan.json": payload})
    return {"outdir": outdir, "payload": payload, **result}


def cmd_semiclassical(cfg: ExperimentConfig, out_base: str) -> dict:
    damping = build_damping(cfg)
    hs = [float(h) for h in cfg.scan.h_list]
    if cfg.flavor == KLEIN_GORDON:
        raise ConfigError(f"mass: the semiclassical operator has no mass term, got mass={cfg.mass}")
    if not hs:
        raise ConfigError("scan.h_list: semiclassical scan needs at least one h")

    rows = semiclassical_scan(hs, damping, seed=cfg.seed)
    control = pure_laplacian_control(hs, X=damping.grid.X)
    hnorms = [r["h_norm"] for r in rows]
    payload = {"command": "semiclassical", "points": rows, "control": control,
               "max_h_norm": max(hnorms), "variation": max(hnorms) / min(hnorms),
               "control_growth": max(c["norm"] for c in control) / min(c["norm"] for c in control)}
    outdir = write_artifacts(cfg, out_base, {"semiclassical.json": payload})
    return {"outdir": outdir, "payload": payload}


def cmd_fit(csv_path: str, column: str, model: str, window: tuple[float, float],
            predicted: float | None, out_path: str | None) -> dict:
    data = read_csv(csv_path)
    if column not in data:
        raise ConfigError(f"{csv_path}: no column {column!r} (have {sorted(data)})")
    if "t" not in data:
        raise ConfigError(f"{csv_path}: no t column")
    check_fit_window(window, "--window")
    fitter = fit_power if model == "power" else fit_exponential
    f = fitter(data["t"], data[column], window=window, predicted=predicted)
    report = _fit_record(column, f, f.verdict(), experiment_id=os.path.basename(csv_path),
                         artifact_version=__version__)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        atomic_write(out_path, text)
    return report
