"""guidewave benchmark: golden experiments through the real pipeline, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: the workload's operations run back to back in this
process, each after the previous one returns, and whole iterations repeat
while another one fits in ``--seconds`` (at least one always runs).  The
program keeps its own thread defaults (``GUIDEWAVE_THREADS`` pool, OpenBLAS
threads); both are recorded with every result, never pinned.

``--trace 0`` reports the end-to-end metrics of untraced iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see tracing.py), plus the tracing
overhead against the untraced ones; spans are written to
``.perfbench_out/trace-<workload>-<seed>.json`` when the run ends.

Every operation's outputs are checked against perfbench/reference (see
workloads.py).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
operation ran and matched.  ``--write-reference`` recaptures the references
instead; use it only when a change of outputs is intended and stated.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads as wl
from tracing import Tracer, layer_metrics, layer_targets

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(SRC, "guidewave", "configs")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")
#: run the shortest probe lists against the "tiny" references; the benchmark's
#: self-tests set this, the benchmark itself never does
TINY = False

#: fresh interpreters timed before the iterations and again after them;
#: setup_s is the median of both halves, so that it spans the whole run
SETUP_RUNS = 4
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import guidewave.pipeline; "
              "from guidewave.config import load; [load(p) for p in sys.argv[2:]]")


def import_guidewave():
    """Import the program from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "guidewave", "__init__.py")):
        raise SystemExit(f"perfbench: no guidewave sources at {SRC}")
    sys.path.insert(0, SRC)
    import guidewave
    from guidewave import config, discretize, evolve, heat, pipeline, resolvent
    if os.path.dirname(os.path.dirname(os.path.abspath(guidewave.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported guidewave from {guidewave.__file__}, not {SRC}")
    return {"config": config, "pipeline": pipeline, "evolve": evolve, "heat": heat,
            "resolvent": resolvent, "discretize": discretize}


def blas_record() -> list[dict]:
    """Each loaded OpenBLAS: library, build string and current thread count."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def machine_record(pipeline) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_record(),
        "pool_size": pipeline.max_threads(),
        "env": {k: os.environ.get(k) for k in ("GUIDEWAVE_THREADS", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
    }


def measure_setup(ops) -> list[float]:
    """Interpreter start + import + config load and validation, fresh each time."""
    configs = [os.path.join(CONFIG_DIR, f"{op.config}.json") for op in ops if op.config]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *configs], check=True,
                       cwd=ROOT, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Iterations:
    """Runs workload iterations and tallies walls, CPU and failed operations."""

    def __init__(self, ops, gw, seed: int, tiny: bool, references: dict | None):
        self.ops, self.gw = ops, gw
        self.seed, self.tiny, self.references = seed, tiny, references
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.last_outputs: dict = {}

    def run(self, out_dir: str, tracer: Tracer | None = None):
        """One iteration; returns (wall, cpu, window) of the pipeline calls."""
        if tracer is None:
            return self._run(out_dir)
        with tracer.patched(layer_targets(tracer, self.gw)):
            return self._run(out_dir)

    def _run(self, out_dir):
        gw = self.gw
        cfgs = [wl.load_config(op, CONFIG_DIR, self.seed, self.tiny, gw["config"])
                if op.config else None for op in self.ops]
        results, errors = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        for op, cfg in zip(self.ops, cfgs):
            try:
                results.append(wl.run_op(op, cfg, out_dir, gw["pipeline"], gw["heat"]))
                errors.append(None)
            except Exception:   # an operation that raises is a failed operation
                results.append(None)
                errors.append(traceback.format_exc(limit=3))
        t1, c1 = time.perf_counter(), time.process_time()
        for op, result, error in zip(self.ops, results, errors):
            self.attempted += 1
            problems = [f"raised:\n{error}"] if error else []
            if not problems:
                try:
                    out = wl.outputs(op, result)
                    self.last_outputs[op.name] = out
                    ref = None if self.references is None else self.references.get(op.name)
                    problems = [] if self.references is None else wl.check(op, out, ref)
                except Exception:   # unreadable or malformed outputs fail the operation
                    problems = [f"output check raised:\n{traceback.format_exc(limit=3)}"]
            if problems:
                self.failed += 1
                self.problems += [f"{op.name}: {p}" for p in problems]
        shutil.rmtree(out_dir, ignore_errors=True)
        return t1 - t0, c1 - c0, (t0, t1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_reference(name, ops, gw, seed):
    variants = {}
    for tiny in (False, True):
        it = Iterations(ops, gw, seed, tiny, None)
        it.run(tempfile.mkdtemp(dir=OUT_ROOT))
        variants["tiny" if tiny else "full"] = it.last_outputs
    path = wl.reference_path(REFERENCE_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "machine": machine_record(gw["pipeline"]), **variants},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    gw = import_guidewave()
    ops = wl.WORKLOADS[args.workload]
    os.makedirs(OUT_ROOT, exist_ok=True)
    if args.write_reference:
        write_reference(args.workload, ops, gw, args.seed)
        return 0
    references = wl.load_reference(REFERENCE_DIR, args.workload, TINY)

    machine = machine_record(gw["pipeline"])
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} tiny={TINY}")
    print("machine " + json.dumps(machine, sort_keys=True))
    setup = measure_setup(ops)

    iters = Iterations(ops, gw, args.seed, TINY, references)
    tracer = Tracer() if args.trace else None
    walls, cpus, traced_walls, windows = [], [], [], []
    begin = time.perf_counter()
    while True:
        wall, cpu, _ = iters.run(tempfile.mkdtemp(dir=OUT_ROOT))
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            wall, _, window = iters.run(tempfile.mkdtemp(dir=OUT_ROOT), tracer)
            traced_walls.append(wall)
            windows.append(window)
        per_round = (time.perf_counter() - begin) / len(walls)
        if time.perf_counter() - begin + per_round > args.seconds:
            break
    setup += measure_setup(ops)

    e2e = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
           "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb()}
    fail_share = iters.failed / iters.attempted
    for op_name, out in iters.last_outputs.items():
        if "slope" in out:
            print(f"record {op_name} slope {out['slope']:.6f} "
                  f"(reference {references[op_name]['slope']:.6f})")
    print(f"untraced iterations {len(walls)}: walls {[round(w, 3) for w in walls]} s")
    units = load_units()
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric fail_share {fail_share:.6g} share "
          f"({iters.failed} of {iters.attempted} operations)")
    for problem in iters.problems:
        print(f"FAIL {problem}")

    if tracer is None:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    else:
        layer = layer_metrics(tracer, windows, walls)
        print(f"traced iterations {len(traced_walls)}: walls "
              f"{[round(w, 3) for w in traced_walls]} s, {len(tracer.spans)} spans")
        for name, value in layer.items():
            print(f"layer {name} {value:.6g} {units[name]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "fields": ["id", "parent", "name", "start", "end",
                                                      "thread"],
                       "windows": windows, "spans": tracer.spans}, fh)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")

    correct = iters.failed == 0
    print(json.dumps({"correct": correct, "attempted": iters.attempted,
                      "failed": iters.failed, "metrics": metrics}))
    return 0 if correct else 1


def load_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
