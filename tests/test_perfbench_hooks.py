"""The benchmark's layer trace (perfbench/tracing.py) looks up every traced
callable by name, and some of its hooks read the callable's arguments; its
runner (perfbench/run.py) records ``pipeline.max_threads()`` with every
result.  A refactor that renames or removes one, or changes the arguments a
hook reads, must fail here rather than in a benchmark run."""

import importlib.util
import pathlib
from importlib import resources

import guidewave.configs
from guidewave import config, discretize, evolve, heat, pipeline, resolvent

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_machine_record_reads_the_pipeline(monkeypatch):
    # run.py imports its sibling modules by their plain names, as it does when run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.machine_record(pipeline)["pool_size"] == 1


def test_layer_targets_resolve_on_the_package():
    tracing = load_tracing()
    modules = {"config": config, "pipeline": pipeline, "evolve": evolve, "heat": heat,
               "resolvent": resolvent, "discretize": discretize}
    tracer = tracing.Tracer()
    targets = tracing.layer_targets(tracer, modules)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    with tracer.patched(targets):
        for owner, attr, wrapper in targets:
            assert vars(owner)[attr] is wrapper
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_traced_pipeline_runs_call_through_every_wrapper(tmp_path):
    # a tiny heat comparison, highfreq scan, Sobolev-pair scan and heat-kernel
    # norm under the tracer: a wrapper whose argument hook no longer fits its
    # callable (the scan's z list, the norm's operator pair, the written text)
    # fails here
    tracing = load_tracing()
    tracer = tracing.Tracer()
    modules = {"config": config, "pipeline": pipeline, "evolve": evolve, "heat": heat,
               "resolvent": resolvent, "discretize": discretize}
    configs = resources.files(guidewave.configs)
    with tracer.patched(tracing.layer_targets(tracer, modules)):
        diffusion = config.load(str(configs / "diffusion_a1.json"),
                                ["grid.N=256", "grid.X=40", "time.dt=0.5", "time.t_end=20"])
        pipeline.cmd_heat_compare(diffusion, str(tmp_path / "heat"))
        scan = config.load(str(configs / "highfreq_a1.json"),
                           ["grid.N=256", "domain.K=4", "scan.z_list=[16.0]"])
        pipeline.cmd_resolvent(scan, str(tmp_path / "scan"))
        sobolev = config.load(str(configs / "highfreq_hole.json"),
                              ["grid.N=256", "domain.K=4", "scan.z_list=[8.0]"])
        pipeline.cmd_resolvent(sobolev, str(tmp_path / "sobolev"))
        heat.heat_weighted_norm(1.0, 1, 1.0, 0.0, 0.0, 1.2)
    names = {span.name for span in tracer.spans}
    assert {"config.load", "pipeline.cmd_heat_compare", "pipeline.cmd_evolve", "evolve.run",
            "evolve.stepper_init", "evolve.step", "evolve.mode_energies", "evolve.energy",
            "heat.compare", "heat.heat_apply", "pipeline.cmd_resolvent",
            "resolvent.norm_scan", "resolvent.iterative_norm", "resolvent.matvec",
            "discretize.solve", "resolvent.sobolev_apply", "heat.weighted_norm", "pipeline.io",
            "fit"} <= names, names
    assert tracer.counters["pipeline.io.bytes"] > 0
    assert tracer.counters["resolvent.norm_scan.points"] == 2
