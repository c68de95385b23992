"""Workloads, the outputs they are checked on, and the correctness gate.

Each workload is a list of operations run back to back: one pipeline call on
a golden config, or one heat-kernel sweep of the acceptance suite.  Only the
probe lists (``scan.z_list``, ``scan.h_list``) are trimmed so that a workload
fits a run; grid, modes, order, damping, Sobolev pair and time stepping stay
golden.  The seed reaches the program only as the config ``seed`` field.

Outputs are the numbers an operation writes (every CSV column, every JSON
number and flag except ``config.json``) or, for a sweep, its values and fitted
slope.  They are compared with references captured at the benchmark's seed
commit:

* deterministic numbers to a relative 1e-12 of the column's magnitude;
* Lanczos estimates, and numbers derived from them, to LANCZOS_RTOL, a stated
  multiple of the tolerance ``iterative_norm`` is asked for, on any seed;
* roundoff-level residuals and estimator labels are not compared (UNGATED);
  the invariants below bound the residuals.  Nor is ``k_argmax``, the mode
  that attains a scan point's maximum: with constant damping the propagating
  modes' norms nearly tie (all close to 1/tau), so Lanczos noise may pick
  another mode on another seed; the maximum itself, ``norm_est``, is gated.
  ``flag`` and ``n_truncation_limited`` stay gated exactly: no golden config
  enables the truncation guard, so they do not depend on an estimate.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

ESTIMATOR_TOL = 1e-7                    # tolerance iterative_norm is run at
LANCZOS_RTOL = 1e3 * ESTIMATOR_TOL
DETERMINISTIC_RTOL = 1e-12              # ROADMAP's bound for reordered sums

#: times of the ACCEPT-06 heat-kernel sweeps
SWEEP_TIMES = tuple(float(t) for t in np.geomspace(1.0, 100.0, 13))


@dataclass(frozen=True)
class Op:
    """One operation: a pipeline call on a golden config, or a heat sweep."""

    name: str
    command: str                        # pipeline cmd_* name, or "heat_sweep"
    config: str | None = None           # golden config file stem
    probes: tuple | None = None         # trimmed scan.z_list or scan.h_list
    tiny: tuple | None = None           # smaller probe list for the self-tests
    sweep: dict = field(default_factory=dict)   # heat_weighted_norm arguments
    lanczos: tuple = ()                 # output keys (fnmatch) from Lanczos

    def probe_key(self) -> str:
        return "h_list" if self.command == "cmd_semiclassical" else "z_list"


_SCAN_LANCZOS = ("scan.csv:norm_est", "scan.csv:bound_constant", "scan.json:slope",
                 "scan.json:bound_constant", "scan.json:empirical_C")

WORKLOADS: dict[str, list[Op]] = {
    # ~90% of the time is the stepper and its per-step energy-identity check;
    # no resolvent, DST or LU solve runs, so scan changes must leave it flat.
    "evolve_diffusion": [
        Op("diffusion_a1", "cmd_heat_compare", "diffusion_a1"),
    ],
    # Every scan-side layer, no evolve work.  First the matrix-free resolvent
    # path: banded LU + ARPACK (a1), DST-bound Sobolev scaling (hole), 2N block
    # Lanczos (real axis), thread pool active, vectors stay in L2.  Then dense
    # LAPACK: inv + full SVDs of the theta probe and the ACCEPT-06 weighted
    # heat-kernel norms, whose 16 MiB blocks spill L2 and set the peak RSS.
    # The per-layer metrics tell the two halves apart.  They share one workload
    # so that a run measures one ~45 s iteration of both, long enough for the
    # host's speed swings to average out.
    "scans": [
        Op("highfreq_a1", "cmd_resolvent", "highfreq_a1", (16.0, 32.0, 64.0), (64.0,),
           lanczos=_SCAN_LANCZOS),
        Op("highfreq_hole", "cmd_resolvent", "highfreq_hole", (8.0,), (8.0,),
           lanczos=_SCAN_LANCZOS),
        Op("dirichlet_realaxis", "cmd_resolvent", "dirichlet_realaxis", (-32.0, 0.0, 32.0),
           (32.0,), lanczos=_SCAN_LANCZOS),
        Op("semiclassical_hole", "cmd_semiclassical", "semiclassical_hole",
           lanczos=("semiclassical.json:points.*.norm", "semiclassical.json:points.*.h_norm",
                    "semiclassical.json:max_h_norm", "semiclassical.json:variation")),
        Op("lowfreq_theta", "cmd_resolvent", "lowfreq_theta", ((0.0, 0.1),), ((0.0, 0.1),)),
        Op("heat_dx_sweep", "heat_sweep",
           sweep={"beta": 1, "s": 1.0, "s1": 0.0, "s2": 0.0, "kappa": 1.2}),
        Op("heat_lap_sweep", "heat_sweep",
           sweep={"beta": "lap", "s": 0.0, "s1": 0.5, "s2": 0.5, "kappa": 4.0}),
    ],
}

#: outputs never compared to a reference (fnmatch): roundoff-level residuals,
#: which the invariants bound, labels of how an estimate was computed
#: (method, requested tolerance) rather than numbers it produced, and the
#: argmax mode among nearly tied Lanczos estimates
UNGATED = ("fits.json:identity_max_step_residual", "fits.json:identity_cumulative_residual",
           "scan.csv:structure_residual", "scan.json:max_structure_residual",
           "scan.csv:method", "semiclassical.json:points.*.residual", "scan.csv:k_argmax")


# ---------------------------------------------------------------------------
# running one operation


def load_config(op: Op, config_dir: str, seed: int, tiny: bool, config_mod):
    cfg = config_mod.load(os.path.join(config_dir, f"{op.config}.json"))
    cfg.seed = seed
    probes = op.tiny if tiny and op.tiny is not None else op.probes
    if probes is not None:
        setattr(cfg.scan, op.probe_key(), [list(p) if isinstance(p, tuple) else p for p in probes])
    return cfg


def run_op(op: Op, cfg, out_base: str, pipeline, heat):
    """Run one operation; returns what ``outputs`` needs.  Callables are looked
    up at call time so that the tracer's wrappers are the ones called."""
    if op.command == "heat_sweep":
        norm = heat.heat_weighted_norm
        return [norm(t, op.sweep["beta"], op.sweep["s"], op.sweep["s1"], op.sweep["s2"],
                     op.sweep["kappa"]) for t in SWEEP_TIMES]
    return getattr(pipeline, op.command)(cfg, out_base)["outdir"]


def _flatten(node, prefix, out):
    if isinstance(node, bool):
        out[prefix] = node
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)
    elif isinstance(node, dict):
        for k in sorted(node):
            _flatten(node[k], f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(node, list):
        if node and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node):
            out[prefix] = [float(x) for x in node]
        else:
            for i, x in enumerate(node):
                _flatten(x, f"{prefix}.{i}", out)
    # strings (hash, version, ids, verdict labels) are not numbers to gate


def _read_csv(path: str) -> dict[str, list[float]]:
    # parsed here, not with pipeline.read_csv, so the gate does not trust the
    # program to read back what it wrote
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return {name: [r[j] for r in rows] for j, name in enumerate(names)}


def outputs(op: Op, result) -> dict:
    """The numbers an operation produced, flattened to ``file:path`` keys."""
    if op.command == "heat_sweep":
        values = [float(v) for v in result]
        slope = float(np.polyfit(np.log(SWEEP_TIMES), np.log(values), 1)[0])
        return {"values": values, "slope": slope}
    out = {}
    for fname in sorted(os.listdir(result)):
        path = os.path.join(result, fname)
        if fname.endswith(".csv"):
            for col, vals in _read_csv(path).items():
                out[f"{fname}:{col}"] = vals
        elif fname.endswith(".json") and fname != "config.json":
            with open(path, encoding="utf-8") as fh:
                flat = {}
                _flatten(json.load(fh), "", flat)
            out.update({f"{fname}:{k}": v for k, v in flat.items()})
    return out


# ---------------------------------------------------------------------------
# the gate


def invariants(op: Op, out: dict) -> list[str]:
    """The hard invariants the acceptance suite relies on."""
    bad = []
    if op.name == "diffusion_a1":
        e0 = out["fits.json:E0"]
        step = out["fits.json:identity_max_step_residual"] / e0
        cum = out["fits.json:identity_cumulative_residual"] / e0
        if not step <= 1e-9:
            bad.append(f"ACCEPT-01 max step energy residual {step:.3e} E0 > 1e-9")
        if not cum <= 1e-6:
            bad.append(f"ACCEPT-01 cumulative energy residual {cum:.3e} E0 > 1e-6")
        if not out["compare_fits.json:ratio_dt_final"] <= 0.3:
            bad.append(f"ACCEPT-05 ratio_dt_final {out['compare_fits.json:ratio_dt_final']} > 0.3")
    elif op.name == "lowfreq_theta":
        worst = max(out["scan.csv:structure_residual"])
        if not worst <= 1e-12:
            bad.append(f"ACCEPT-09 theta structure residual {worst:.3e} > 1e-12")
    elif op.name == "heat_dx_sweep":
        # the two-sided -1 +/- 0.05 fails by design; the bound direction holds
        if not out["slope"] <= -1.0 + 0.05:
            bad.append(f"ACCEPT-06a slope {out['slope']:.4f} breaks the one-sided bound -0.95")
    elif op.name == "heat_lap_sweep":
        if not abs(out["slope"] + 1.5) <= 0.1:
            bad.append(f"ACCEPT-06b slope {out['slope']:.4f} outside -3/2 +/- 0.1")
    return bad


def compare(op: Op, out: dict, ref: dict) -> list[str]:
    """Mismatches between an operation's outputs and its reference."""
    bad = []
    if set(out) != set(ref):
        missing, extra = sorted(set(ref) - set(out)), sorted(set(out) - set(ref))
        bad.append(f"output keys differ: missing {missing[:5]}, unexpected {extra[:5]}")
    for key in sorted(set(out) & set(ref)):
        if any(fnmatch.fnmatchcase(key, pat) for pat in UNGATED):
            continue
        got, want = out[key], ref[key]
        if isinstance(want, bool) or isinstance(got, bool):
            if got is not want:
                bad.append(f"{key}: {got} != reference {want}")
            continue
        got_l = got if isinstance(got, list) else [got]
        want_l = want if isinstance(want, list) else [want]
        if len(got_l) != len(want_l):
            bad.append(f"{key}: {len(got_l)} values, reference has {len(want_l)}")
            continue
        lanczos = any(fnmatch.fnmatchcase(key, pat) for pat in op.lanczos)
        rtol = LANCZOS_RTOL if lanczos else DETERMINISTIC_RTOL
        finite = [abs(w) for w in want_l if math.isfinite(w)]
        scale = max(finite, default=0.0) if not lanczos else None
        for i, (g, w) in enumerate(zip(got_l, want_l)):
            if not (math.isfinite(g) and math.isfinite(w)):
                ok = g == w
            else:
                tol = rtol * (abs(w) if lanczos else scale)
                ok = abs(g - w) <= tol
            if not ok:
                where = f"{key}[{i}]" if isinstance(want, list) else key
                bad.append(f"{where}: {g!r} vs reference {w!r} "
                           f"({'Lanczos' if lanczos else 'deterministic'} rtol {rtol:g})")
    return bad


def check(op: Op, out: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return [f"no reference output for {op.name}"]
    return compare(op, out, ref) + invariants(op, out)


def reference_path(ref_dir: str, workload: str) -> str:
    return os.path.join(ref_dir, f"{workload}.json")


def load_reference(ref_dir: str, workload: str, tiny: bool) -> dict:
    with open(reference_path(ref_dir, workload), encoding="utf-8") as fh:
        return json.load(fh)["tiny" if tiny else "full"]
