"""The benchmark's layer trace (perfbench/tracing.py) looks up every traced
callable by name; a refactor that renames or removes one must fail here
rather than in a ``perfbench --trace 1`` run."""

import importlib.util
import pathlib

from guidewave import config, discretize, evolve, heat, pipeline, resolvent

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
