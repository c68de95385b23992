"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

The end-to-end cases run every workload once in this process at its shortest
probe lists (``run.TINY``), traced and untraced, which takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.fixture
def run_tiny(monkeypatch, capsys):
    """``run.main`` on the shortest probe lists; returns (exit code, stdout lines)."""
    monkeypatch.setattr(run, "TINY", True)

    def call(*args):
        code = run.main(list(args))
        return code, capsys.readouterr().out.strip().splitlines()

    return call


# ---------------------------------------------------------------------------
# span arithmetic


def test_covered_merges_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == pytest.approx(4 + 1 + 1)
    assert covered([], 0, 1) == 0.0


def test_self_time_nested_and_overlapping_children():
    spans = [Span(1, 0, "root", 0.0, 10.0, 1),
             Span(2, 1, "a", 1.0, 4.0, 1),
             Span(3, 2, "a.child", 2.0, 3.0, 1),
             Span(4, 1, "b", 3.0, 6.0, 2),       # on another thread, overlaps a
             Span(5, 1, "c", 9.0, 12.0, 2)]      # outlives its parent: clipped
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(3.0)


def test_pool_tasks_are_children_of_the_pool_span():
    tracer = Tracer()
    pool_cls = tracer.pool_class()

    def outer():
        with pool_cls(max_workers=2) as pool:
            list(pool.map(lambda _: time.sleep(0.05), range(2)))

    tracer.wrap(outer, "outer")()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,), (pool,), tasks = by_name["outer"], by_name["pipeline.pool"], by_name["pipeline.pool.task"]
    assert pool.parent == root.id and all(t.parent == pool.id for t in tasks)
    assert len({t.thread for t in tasks}) == 2 and tasks[0].thread != root.thread
    selfs = self_times(tracer.spans)
    # the two parallel 50 ms tasks cover the pool once, not twice
    assert selfs[pool.id] >= 0.0
    assert selfs[pool.id] < (pool.end - pool.start) - 0.04
    # sleeping tasks burn next to no CPU while the pool is open
    assert 0.0 <= tracer.pool_cpu[pool.id] < pool.end - pool.start


def test_patched_restores_originals():
    class Owner:
        def f(self):
            return threading.get_ident()

    tracer = Tracer()
    original = vars(Owner)["f"]
    with tracer.patched([(Owner, "f", tracer.wrap(original, "owner.f"))]):
        Owner().f()
    assert vars(Owner)["f"] is original
    assert [s.name for s in tracer.spans] == ["owner.f"]


# ---------------------------------------------------------------------------
# the gate

OPS = {op.name: op for ops in wl.WORKLOADS.values() for op in ops}
SCAN = OPS["highfreq_a1"]


def test_gate_tolerances():
    ref = {"scan.csv:re_z": [16.0, 32.0], "scan.csv:norm_est": [0.0625, 0.03125],
           "scan.json:n_points": 2.0, "scan.json:max_structure_residual": 0.0,
           "scan.json:flag": True}

    def perturbed(key, factor, index=None):
        out = json.loads(json.dumps(ref))
        if index is None:
            out[key] *= factor
        else:
            out[key][index] *= factor
        return out

    assert wl.compare(SCAN, ref, ref) == []
    assert wl.compare(SCAN, perturbed("scan.csv:re_z", 1 + 1e-13, 1), ref) == []
    assert wl.compare(SCAN, perturbed("scan.csv:re_z", 1 + 1e-11, 1), ref)
    assert wl.compare(SCAN, perturbed("scan.csv:norm_est", 1 + 1e-5, 0), ref) == []
    assert wl.compare(SCAN, perturbed("scan.csv:norm_est", 1 + 1e-3, 0), ref)
    assert wl.compare(SCAN, perturbed("scan.json:n_points", 1.5), ref)
    roundoff = dict(ref, **{"scan.json:max_structure_residual": 1e-17})
    assert wl.compare(SCAN, roundoff, ref) == []
    assert wl.compare(SCAN, dict(ref, **{"scan.json:flag": False}), ref)
    assert wl.compare(SCAN, {k: v for k, v in ref.items() if k != "scan.json:n_points"}, ref)


def test_invariants_flag_broken_physics():
    theta = OPS["lowfreq_theta"]
    assert wl.invariants(theta, {"scan.csv:structure_residual": [0.0]}) == []
    assert wl.invariants(theta, {"scan.csv:structure_residual": [1e-11]})
    lap = OPS["heat_lap_sweep"]
    assert wl.invariants(lap, {"slope": -1.5}) == []
    assert wl.invariants(lap, {"slope": -1.3})


def test_gate_fails_run_on_perturbed_reference(tmp_path, monkeypatch, run_tiny):
    shutil.copytree(os.path.join(HERE, "reference"), tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scans.json"
    ref = json.loads(path.read_text())
    ref["tiny"]["highfreq_a1"]["scan.csv:norm_est"][0] *= 1 + 1e-3          # Lanczos
    ref["tiny"]["semiclassical_hole"]["semiclassical.json:control.0.norm"] *= 1 + 1e-10
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE_DIR", str(tmp_path))
    code, lines = run_tiny("--workload", "scans", "--seed", "5", "--seconds", "1",
                           "--trace", "0")
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 2 and result["attempted"] == 7
    assert sum(ln.startswith("FAIL ") for ln in lines) == 2


# ---------------------------------------------------------------------------
# the command


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_named_with_its_unit(workload, trace, run_tiny):
    code, lines = run_tiny("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace))
    assert code == 0, "\n".join(lines[-40:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    n_ops = len(wl.WORKLOADS[workload])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == n_ops * (1 + trace)
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                             "unit": m["unit"]} for m in section}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    printed = " ".join(lines)
    assert "machine " in printed and "metric fail_share 0 share" in printed
    if trace:
        assert result["metrics"]["trace.attributed_share"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           "scans", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)


def test_interaction_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    names = [m["name"] for m in BENCH["per_layer"]]
    assert list(per_layer) == names
    workloads = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for entry in per_layer.values():
        for target in entry["moves"]:
            workload, metric = target.split(".", 1)
            assert workload in workloads and metric in e2e, target
        assert set(entry["flat_on"]) <= workloads
