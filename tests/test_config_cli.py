import dataclasses
import json
import math
import re
import tracemalloc
import typing
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guidewave.configs
from guidewave import __version__
from guidewave.cli import main
from guidewave.config import (FIELD_TYPES, FLOAT_FIELDS, INTEGER_FIELDS, MAX_MODE_NODES,
                              MAX_NODES, ExperimentConfig, apply_overrides, canonical_json,
                              config_hash, from_dict, load, parse_scan_z)
from guidewave.discretize import WeightSpec
from guidewave.errors import ConfigError
from guidewave.evolve import gaussian_envelope, powerlaw_envelope
from guidewave.fit import fit_power
from guidewave.pipeline import (build_damping, build_envelope, build_grid, cmd_resolvent,
                                read_csv)
from guidewave.resolvent import norm_scan
from guidewave.svgplot import render_plot

CONFIG_DIR = resources.files(guidewave.configs)

TINY = {
    "experiment_id": "tiny",
    "flavor": "wave_neumann",
    "domain": {"K": 2},
    "grid": {"X": 20.0, "N": 64, "order": 4},
    "damping": {"kind": "constant", "level": 1.0},
    "init": {"family": "gaussian", "params": {"sigma": 2.0},
             "u0_modes": {"0": 1.0}, "u1_modes": {"1": 0.5}, "smoothing_k": 1},
    "time": {"t_end": 20.0, "dt": 0.1, "t0": 1.0, "sample_ratio": 1.12},
    "fit_window": [2.0, 20.0],
    "local_radius": 5.0,
    "seed": 3,
}


def write_tiny(tmp_path, **mutations):
    data = json.loads(json.dumps(TINY))
    data.update(mutations)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    return str(path)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


#: valid values for ``--set`` overrides of TINY; the ranges keep every
#: cross-field rule (t0 <= t_end, local_radius <= X, mode 1 < K) satisfied
VALID_OVERRIDES = {
    "grid.N": st.integers(16, 8192),
    "grid.order": st.sampled_from([2, 4]),
    "grid.X": finite(5.0, 500.0),
    "domain.K": st.integers(2, 64),
    "domain.L": finite(0.1, 10.0),
    "damping.level": finite(0.0, 5.0),
    "init.smoothing_k": st.integers(0, 6),
    "time.dt": finite(1e-3, 1.0),
    "time.t0": finite(1e-3, 20.0),
    "time.sample_ratio": finite(1.001, 4.0),
    "local_radius": finite(1e-3, 5.0),
    "seed": st.integers(0, 2 ** 63),
    "experiment_id": st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
        lambda name: name not in ("true", "false", "null")),
}


def lookup(cfg, path):
    for key in path.split("."):
        cfg = getattr(cfg, key)
    return cfg


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(VALID_OVERRIDES)), unique=True).flatmap(
    lambda paths: st.tuples(*(st.tuples(st.just(p), VALID_OVERRIDES[p]) for p in paths))))
def test_set_overrides_round_trip(overrides):
    # CLI spelling: numbers as JSON literals, the name as a bare word
    items = [f"{path}={value if isinstance(value, str) else json.dumps(value)}"
             for path, value in overrides]
    cfg = from_dict(apply_overrides(json.loads(json.dumps(TINY)), items))
    for path, value in overrides:
        assert lookup(cfg, path) == value
    text = canonical_json(cfg)
    again = from_dict(json.loads(text))
    assert canonical_json(again) == text
    assert config_hash(again) == config_hash(cfg)


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(INTEGER_FIELDS),
       value=st.one_of(finite(-1e18, 1e18), st.booleans(), st.just("sixty-four")))
def test_integer_fields_reject_non_integers(path, value):
    item = f"{path}={json.dumps(value) if not isinstance(value, str) else value}"
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        from_dict(apply_overrides(json.loads(json.dumps(TINY)), [item]))


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(FLOAT_FIELDS + ("weights.delta1", "weights.kappa",
                                            "fit_window.0", "fit_window.1")),
       value=st.one_of(st.booleans(), st.none(), st.text(max_size=6), st.just([1.0])))
def test_number_fields_reject_non_numbers(path, value):
    data = json.loads(json.dumps(TINY))
    *keys, last = path.split(".")
    node = data
    for key in keys:
        node = node.setdefault(key, {})
    node[int(last) if isinstance(node, list) else last] = value
    with pytest.raises(ConfigError, match=path.replace(".", r"\.") + ": must be a number"):
        from_dict(data)


def schema_paths(cls=ExperimentConfig, prefix=""):
    """(field path, checked path, JSON type, wrap) for every field below ``cls``,
    sections included, and for entry 0 of every ``dict[str, T]`` or ``list[T]``
    field, read from the dataclass annotations; ``wrap`` puts a value at the
    checked path when it is placed at the field path."""
    for name, kind in typing.get_type_hints(cls).items():
        path = prefix + name
        if dataclasses.is_dataclass(kind):
            yield path, path, dict, lambda v: v
            yield from schema_paths(kind, f"{path}.")
            continue
        origin = typing.get_origin(kind)
        yield path, path, origin or kind, lambda v: v
        if origin is not None:
            wrap = (lambda v: {"0": v}) if origin is dict else (lambda v: [v])
            yield path, f"{path}.0", typing.get_args(kind)[-1], wrap


SCHEMA_PATHS = list(schema_paths())
JSON_VALUES = {type(None): st.none(), bool: st.booleans(), int: st.integers(),
               float: finite(-1e6, 1e6), str: st.text(max_size=4),
               list: st.lists(finite(-1e6, 1e6), max_size=2),
               dict: st.dictionaries(st.text(max_size=3), finite(-1e6, 1e6), max_size=2)}


def wrong_values(json_type):
    """Any JSON value whose type ``json_type`` does not admit; a number admits an integer."""
    admitted = {json_type, int} if json_type is float else {json_type}
    return st.one_of(*(values for t, values in JSON_VALUES.items() if t not in admitted))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_every_schema_path_rejects_a_wrong_json_type(data):
    # every field and entry path of the dataclasses, so a field added later is covered
    assert {checked for _, checked, _, _ in SCHEMA_PATHS} >= set(FIELD_TYPES)
    root = data.draw(wrong_values(dict), label="root")
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        from_dict(root)
    for field, checked, json_type, wrap in SCHEMA_PATHS:
        value = data.draw(wrong_values(json_type), label=checked)
        config = json.loads(json.dumps(TINY))
        *keys, last = field.split(".")
        node = config
        for key in keys:
            node = node.setdefault(key, {})
        node[last] = wrap(value)
        with pytest.raises(ConfigError, match=f"^{re.escape(checked)}: "):
            from_dict(config)


#: (field path, checked path, wrap) of every float field and every float dict or list entry
FLOAT_PATHS = [(field, checked, wrap) for field, checked, json_type, wrap in SCHEMA_PATHS
               if json_type is float]


@settings(max_examples=60, deadline=None)
@given(where=st.sampled_from(FLOAT_PATHS), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_float_fields_and_entries_reject_non_finite_numbers(where, value):
    # JSON parses NaN, Infinity and -Infinity as floats, and NaN and Infinity pass `x <= 0`
    assert {checked for _, checked, _ in FLOAT_PATHS} >= set(FLOAT_FIELDS)
    field, checked, wrap = where
    data = json.loads(json.dumps(TINY))
    *keys, last = field.split(".")
    node = data
    for key in keys:
        node = node.setdefault(key, {})
    node[last] = wrap(value)
    with pytest.raises(ConfigError, match=f"^{re.escape(checked)}: must be a finite number"):
        from_dict(json.loads(json.dumps(data)))


class TestConfig:
    def test_roundtrip_is_byte_identical(self):
        cfg = from_dict(json.loads(json.dumps(TINY)))
        text = canonical_json(cfg)
        again = canonical_json(from_dict(json.loads(text)))
        assert text == again

    def test_hash_stable_and_sensitive(self):
        cfg = from_dict(json.loads(json.dumps(TINY)))
        h1 = config_hash(cfg)
        assert h1 == config_hash(from_dict(json.loads(canonical_json(cfg))))
        other = json.loads(json.dumps(TINY))
        other["seed"] = 4
        assert config_hash(from_dict(other)) != h1

    @pytest.mark.parametrize("path,value,fragment", [
        ("flavor", "maxwell", "flavor"),
        ("grid", {"N": 8}, "grid.N"),
        ("grid", {"order": 3}, "grid.order"),
        ("damping", {"kind": "nowhere"}, "damping.kind"),
        ("init", {"u0_modes": {"7": 1.0}}, "init.u0_modes.7"),
        ("init", {"family": "chirp"}, "init.family"),
        ("time", {"dt": -0.1}, "time.dt"),
        ("scan", {"kind": "rainbow"}, "scan.kind"),
        ("fit_window", [0.5, 10.0], "fit_window"),
        ("damping", {"kind": "hole", "level": 0.5}, "damping.level"),
        ("damping", {"kind": "hole", "rho": -1.0}, "damping.rho"),
        ("damping", {"kind": "hole", "r": -1.0}, "damping.r"),
        ("damping", {"kind": "constant", "level": -0.5}, "damping.level"),
        ("scan", {"kind": "gap"}, "scan.kind"),
        ("scan", {"gamma": 0.1}, "scan.gamma: unknown field"),
        ("scan", {"kind": "theta", "beta1": 1}, "scan.beta1"),
        ("scan", {"kind": "realaxis", "beta2": 1}, "scan.beta2"),
        ("scan", {"kind": "theta", "truncation_guard": True}, "scan.truncation_guard"),
        ("scan", {"kind": "realaxis", "truncation_guard": True}, "scan.truncation_guard"),
        ("scan", {"kind": "realaxis", "z_list": [1.0, [2.0, 0.5]]}, "scan.z_list.1"),
        ("grid", {"N": 64.0}, "grid.N"),
        ("grid", {"order": 4.0}, "grid.order"),
        ("domain", {"K": 2.0}, "domain.K"),
        ("init", {"smoothing_k": 1.5}, "init.smoothing_k"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
        ("time", {"t0": 0.0}, "time.t0"),
        ("local_radius", -1.0, "local_radius"),
        ("scan", {"beta1": 1.0}, "scan.beta1"),
        ("init", {"params": {"sigmaa": 3.0}}, "init.params.sigmaa: unknown parameter"),
        ("init", {"family": "powerlaw", "params": {"sigma": 3.0}}, "init.params.sigma: unknown"),
        ("weights", {"delta9": 1.0}, "weights.delta9: unknown field"),
        ("mass", 2.0, "mass"),
        ("scan", {"kind": "theta", "z_list": [[0.0, 0.1], [0.0, -0.1]]}, "scan.z_list.1"),
        ("scan", {"kind": "theta", "z_list": [[2.0, 0.5]]}, "scan.z_list.0"),
        ("scan", {"kind": "theta", "z_list": [0.5]}, "scan.z_list.0"),
        ("scan", {"h_list": [0.5, 1.5]}, "scan.h_list.1"),
        ("scan", {"h_list": [0.0]}, "scan.h_list.0"),
        ("seed", -1, "seed: must be >= 0"),
    ])
    def test_validation_reports_field_path(self, path, value, fragment):
        data = json.loads(json.dumps(TINY))
        if isinstance(value, dict):
            data.setdefault(path, {}).update(value)
        else:
            data[path] = value
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            from_dict(data)

    def test_budget_bounds_nodes_and_modes(self):
        # the largest N, and the largest K at that N, load; one more fails
        data = json.loads(json.dumps(TINY))
        data["grid"]["N"] = MAX_NODES
        data["domain"]["K"] = MAX_MODE_NODES // MAX_NODES
        from_dict(json.loads(json.dumps(data)))
        for path, key in (("grid", "N"), ("domain", "K")):
            bad = json.loads(json.dumps(data))
            bad[path][key] += 1
            with pytest.raises(ConfigError, match=f"{path}\\.{key}: need"):
                from_dict(bad)

    def test_unknown_fields_rejected(self):
        data = json.loads(json.dumps(TINY))
        data["grid"]["spacing"] = 1.0
        with pytest.raises(ConfigError, match="grid.spacing"):
            from_dict(data)

    def test_overrides(self):
        data = json.loads(json.dumps(TINY))
        apply_overrides(data, ["time.dt=0.2", "experiment_id=renamed", "grid.N=128"])
        cfg = from_dict(data)
        assert cfg.time.dt == 0.2 and cfg.grid.N == 128
        assert cfg.experiment_id == "renamed"
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no-equals-sign"])

    def test_load_applies_overrides(self, tmp_path):
        path = write_tiny(tmp_path)
        assert load(path).grid.N == 64
        assert load(path, ["grid.N=128", "time.dt=0.2"]).grid.N == 128
        with pytest.raises(ConfigError, match=r"grid\.N"):
            load(path, ["grid.N=8"])

    def test_parse_scan_z(self):
        assert parse_scan_z([1.0, [0.0, 0.5]]) == [complex(1.0), 0.5j]
        for bad in (["one"], [True], [[1.0, False]], [["a", 1.0]], [math.nan],
                    [[1.0, math.inf]], [[-math.inf, 0.5]]):
            with pytest.raises(ConfigError, match=r"scan\.z_list\.0"):
                parse_scan_z(bad)

    def test_envelope_defaults_come_from_the_family_table(self):
        data = json.loads(json.dumps(TINY))
        data["init"]["params"] = {"amplitude": 2.0}
        cfg = from_dict(data)
        grid = build_grid(cfg)
        want = gaussian_envelope(grid, sigma=4.0, center=0.0, amplitude=2.0)
        assert np.array_equal(build_envelope(cfg, grid), want)
        data["init"].update(family="powerlaw", params={})
        want = powerlaw_envelope(grid, q=0.5, amplitude=1.0)
        assert np.array_equal(build_envelope(from_dict(data), grid), want)

    def test_klein_gordon_needs_mass(self):
        data = json.loads(json.dumps(TINY))
        data["flavor"] = "klein_gordon"
        with pytest.raises(ConfigError, match="mass"):
            from_dict(data)

    def test_all_shipped_goldens_validate(self):
        names = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".json"))
        assert len(names) == 12
        for name in names:
            cfg = load(str(CONFIG_DIR / name))
            assert isinstance(cfg, ExperimentConfig)


class TestCli:
    def test_evolved_state_holds_mode0_and_the_data_modes(self, tmp_path):
        # modes 3 and 1 carry data, mode 0 none, modes 2 and 4 none and are not evolved
        from guidewave.pipeline import cmd_evolve
        data = json.loads(json.dumps(TINY))
        data["domain"]["K"] = 5
        data["init"].update(u0_modes={"3": 1.0}, u1_modes={"1": 0.5}, smoothing_k=0)
        samples = []
        cmd_evolve(from_dict(data), str(tmp_path), on_sample=samples.append)
        first, last = samples[0], samples[-1]
        assert all(s.modes.shape == (3, 64) for s in samples)
        assert not np.any(first.modes[[0, 1]]) and not np.any(first.vmodes[[0, 2]])
        assert np.any(first.modes[2]) and np.any(first.vmodes[1])
        assert not np.any(last.modes[0]) and not np.any(last.vmodes[0])

    def test_evolve_is_deterministic(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        assert main(["evolve", cfgp, "--out", str(tmp_path / "o1")]) == 0
        assert main(["evolve", cfgp, "--out", str(tmp_path / "o2")]) == 0
        run1 = next((tmp_path / "o1").iterdir())
        run2 = next((tmp_path / "o2").iterdir())
        for fname in ("series.csv", "fits.json", "config.json"):
            assert (run1 / fname).read_bytes() == (run2 / fname).read_bytes()

    def test_outputs_embed_hash_and_version(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        assert main(["evolve", cfgp, "--out", str(tmp_path / "out")]) == 0
        cfg = load(cfgp)
        rundir = tmp_path / "out" / config_hash(cfg)
        head = (rundir / "series.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# guidewave ")
        assert config_hash(cfg) in head[1]
        fits = json.loads((rundir / "fits.json").read_text())
        assert fits["config_hash"] == config_hash(cfg)
        assert fits["artifact_version"]

    def test_series_csv_schema(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        main(["evolve", cfgp, "--out", str(tmp_path / "out")])
        rundir = next((tmp_path / "out").iterdir())
        data = read_csv(str(rundir / "series.csv"))
        assert list(data) == ["t", "E_total", "E_local", "E_w", "grad_w", "dtu_w",
                              "E_p0", "E_p0perp", "dissipation_cum"]
        assert np.all(np.diff(data["t"]) > 0)

    def test_heat_compare_emits_ratio_columns(self, tmp_path):
        cfgp = write_tiny(tmp_path, time={"t_end": 30.0, "dt": 0.1, "t0": 1.0,
                                          "sample_ratio": 1.12},
                          fit_window=[2.0, 30.0])
        assert main(["heat-compare", cfgp, "--out", str(tmp_path / "out")]) == 0
        rundir = next((tmp_path / "out").iterdir())
        data = read_csv(str(rundir / "compare.csv"))
        assert list(data) == ["t", "norm_grad_diff", "norm_dt_diff", "norm_grad_v",
                              "norm_dt_v", "ratio_grad", "ratio_dt"]

    def test_heat_compare_rejects_dirichlet(self, tmp_path):
        cfgp = write_tiny(tmp_path, flavor="wave_dirichlet")
        assert main(["heat-compare", cfgp, "--out", str(tmp_path / "out")]) == 2

    def test_resolvent_scan_and_semiclassical(self, tmp_path):
        cfgp = write_tiny(tmp_path, grid={"X": 20.0, "N": 128, "order": 4},
                          scan={"kind": "highfreq", "z_list": [2.0, 4.0, 8.0],
                                "beta1": 0, "beta2": 0})
        assert main(["resolvent-scan", cfgp, "--out", str(tmp_path / "out")]) == 0
        rundir = next((tmp_path / "out").iterdir())
        scan = json.loads((rundir / "scan.json").read_text())
        assert "slope" in scan and scan["n_points"] == 3
        data = read_csv(str(rundir / "scan.csv"))
        assert list(data)[:5] == ["re_z", "im_z", "beta1", "beta2", "norm_est"]

        cfgp2 = write_tiny(tmp_path, grid={"X": 20.0, "N": 256, "order": 4},
                           scan={"kind": "highfreq", "h_list": [0.2, 0.1]})
        assert main(["semiclassical", cfgp2, "--out", str(tmp_path / "out2")]) == 0
        rundir2 = next((tmp_path / "out2").iterdir())
        payload = json.loads((rundir2 / "semiclassical.json").read_text())
        assert "max_h_norm" in payload and len(payload["control"]) == 2

    def test_klein_gordon_scan_carries_the_mass(self, tmp_path):
        # A = -D2 + lam + m^2 - i z a - z^2: the scan must see the config's mass
        data = json.loads(json.dumps(TINY))
        data.update(flavor="klein_gordon", scan={"kind": "highfreq", "z_list": [2.0, 4.0]})
        data["init"]["u1_modes"] = {}
        norms = {}
        for mass in (1.0, 3.0):
            cfg = from_dict({**data, "mass": mass})
            points = cmd_resolvent(cfg, str(tmp_path / f"m{mass}"))["points"]
            norms[mass] = [p.norm_est for p in points]
            want = norm_scan([2.0, 4.0], 0, 0, build_damping(cfg), [mass ** 2], seed=cfg.seed)
            assert norms[mass] == [p.norm_est for p in want]
        assert norms[1.0] != norms[3.0]

    @pytest.mark.parametrize("command, kind", [("resolvent-scan", "theta"),
                                               ("resolvent-scan", "realaxis"),
                                               ("semiclassical", "highfreq")])
    def test_massless_scans_reject_a_mass(self, tmp_path, command, kind, capsys):
        cfgp = write_tiny(tmp_path, flavor="klein_gordon", mass=1.0,
                          init={"family": "gaussian", "u0_modes": {"0": 1.0}},
                          scan={"kind": kind, "h_list": [0.5],
                                "z_list": [0.5] if kind == "realaxis" else [[0.0, 0.5]]})
        assert main([command, cfgp, "--out", str(tmp_path / "out")]) == 2
        assert "mass:" in capsys.readouterr().err

    def test_exit_code_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evolve", str(bad), "--out", str(tmp_path / "o")]) == 2
        # numerics would fail (exit 3) on a negative absorption; validation comes first
        for command, mutation in (("evolve", {"flavor": "maxwell"}),
                                  ("evolve", {"damping": {"kind": "hole", "rho": -1.0}}),
                                  ("resolvent-scan", {"scan": {"kind": "gap", "z_list": [4.0]}})):
            cfgp = write_tiny(tmp_path, **mutation)
            assert main([command, cfgp, "--out", str(tmp_path / "o")]) == 2
        # values of the wrong type and non-positive t0 / local_radius fail at load, naming
        # the field, not later as an uncaught TypeError (exit 1) or a numerical failure
        # (exit 3), nor run under a new hash (exit 0)
        cfgp = write_tiny(tmp_path, scan={"kind": "highfreq", "z_list": [2.0]})
        for command, override in (("resolvent-scan", "grid.N=64.0"),
                                  ("resolvent-scan", "domain.K=2.0"),
                                  ("resolvent-scan", "seed=1.5"),
                                  ("evolve", "init.smoothing_k=1.5"),
                                  ("evolve", "grid.order=4.0"),
                                  ("evolve", "time.t0=0"),
                                  ("evolve", "local_radius=-1"),
                                  ("evolve", "time.dt=abc"),
                                  ("evolve", "mass=null"),
                                  # a mass on a flavor without one would run unchanged
                                  # under a new hash
                                  ("evolve", "mass=3.0"),
                                  ("resolvent-scan", 'scan.truncation_guard="yes"'),
                                  ("evolve", "init.params.sigma=abc"),
                                  ("evolve", "init.params.sigmaa=3"),
                                  ("evolve", "init.u0_modes.0=abc"),
                                  # one spelling per mode index: "01" alone would run
                                  # mode 1 under a new hash, and beside "1" one of the
                                  # two would be dropped
                                  ("evolve", "init.u0_modes.01=1.0"),
                                  ("evolve", "init.u1_modes.01=5.0"),
                                  ("evolve", "init.u1_modes.+1=5.0"),
                                  ("semiclassical", 'scan.h_list=["a"]'),
                                  ("resolvent-scan", "scan.z_list=[true]"),
                                  # JSON's NaN and Infinity: a NaN radius ran with
                                  # E_local = 0, the others failed as numerical (exit 3)
                                  ("evolve", "local_radius=NaN"),
                                  ("evolve", "grid.X=NaN"),
                                  ("evolve", "time.dt=NaN"),
                                  ("evolve", "damping.level=NaN"),
                                  ("evolve", "init.params.sigma=NaN"),
                                  ("evolve", "time.t_end=Infinity"),
                                  ("resolvent-scan", "scan.z_list=[[2.0, NaN]]"),
                                  # numpy takes no negative seed: a scan exited 3, and
                                  # an evolution ran under a new hash
                                  ("resolvent-scan", "seed=-1"),
                                  ("evolve", "seed=-1"),
                                  # beyond the input budget: the K eigenvalues were
                                  # built until stopped, and N exited 3
                                  ("evolve", "domain.K=1" + "0" * 30),
                                  ("evolve", "grid.N=1" + "0" * 30)):
            capsys.readouterr()
            assert main([command, cfgp, "--set", override, "--out", str(tmp_path / "o")]) == 2
            assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "heat-compare", "resolvent-scan"])
    def test_partial_weights_section_takes_the_defaults(self, tmp_path, command):
        # a weights section that names some fields runs with the others at their
        # WeightSpec defaults, and writes what the full spelling writes
        cfgp = write_tiny(tmp_path, scan={"kind": "theta", "z_list": [[0.3, 0.4]]})
        artifacts = []
        for weights in ({"kappa": 1.2}, {**dataclasses.asdict(WeightSpec()), "kappa": 1.2}):
            out = tmp_path / f"w{len(weights)}"
            assert main([command, cfgp, "--set", f"weights={json.dumps(weights)}",
                         "--out", str(out)]) == 0
            rundir = next(out.iterdir())
            artifacts.append({p.name: p.read_text().replace(rundir.name, "HASH")
                              for p in sorted(rundir.iterdir()) if p.name != "config.json"})
        assert artifacts[0] == artifacts[1]

    def test_missing_input_file_is_a_config_error(self, tmp_path, capsys):
        # an input file that is missing, or that is not UTF-8 text, exits 2 naming its path
        (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "latin1.csv").write_bytes(b"t,y\n1,\xff\n")
        for stem in (str(tmp_path / "nowhere"), str(tmp_path / "latin1")):
            for argv in (["evolve", f"{stem}.json", "--out", str(tmp_path / "o")],
                         ["fit", f"{stem}.csv", "--column", "t"],
                         ["plot", f"{stem}.csv"]):
                assert main(argv) == 2
                assert stem in capsys.readouterr().err

    def test_fit_subcommand_and_assert_exit(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        main(["evolve", cfgp, "--out", str(tmp_path / "out")])
        csv = str(next((tmp_path / "out").iterdir()) / "series.csv")
        report_path = tmp_path / "fit.json"
        code = main(["fit", csv, "--column", "E_total", "--model", "power",
                     "--window", "2", "20", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["series"] == "E_total"
        # an absurd predicted rate must trip the --assert gate
        code = main(["fit", csv, "--column", "E_total", "--model", "power",
                     "--window", "2", "20", "--predicted", "-50.0", "--assert"])
        assert code == 4

    def test_fit_numerical_failure_exit(self, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text("t,y\n" + "\n".join(f"{t},0.0" for t in range(1, 40)) + "\n")
        code = main(["fit", str(csv), "--column", "y", "--window", "1", "40"])
        assert code == 3

    @pytest.mark.parametrize("window", [("0.5", "10"), ("5", "2"), ("nan", "10")])
    def test_fit_window_follows_the_config_rule(self, tmp_path, capsys, window):
        # the config's fit_window rule, t_min >= 1 and t_max > t_min: these exited 3
        csv = tmp_path / "decay.csv"
        csv.write_text("t,y\n" + "\n".join(f"{t},{1.0 / t}" for t in range(1, 40)) + "\n")
        assert main(["fit", str(csv), "--column", "y", "--window", *window]) == 2
        assert "--window" in capsys.readouterr().err

    def test_fit_report_is_the_fit_record(self, tmp_path):
        # the report is _fit_record's fields plus the file name and the version, in the
        # bytes of the report that listed those fields by hand; t_max = inf is allowed
        ts = np.arange(1.0, 60.0)
        ys = ts ** -0.7 * (1.0 + 0.01 * np.sin(ts))
        csv = tmp_path / "decay.csv"
        csv.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in zip(ts.tolist(), ys.tolist())))
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--column", "y", "--window", "2", "inf",
                     "--predicted", "-0.5", "--out", str(out)]) == 0
        f = fit_power(ts, ys, window=(2.0, math.inf), predicted=-0.5)
        expected = {"experiment_id": "decay.csv", "series": "y", "model": f.model,
                    "exponent": f.exponent, "stderr": f.stderr, "predicted": -0.5,
                    "verdict": f.verdict(), "window": list(f.window),
                    "curvature": f.curvature, "artifact_version": __version__}
        assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("override, path", [("grid.X={big}", "grid.X"),
                                                ("scan.z_list=[{big}]", "scan.z_list.0"),
                                                ("fit_window=[2.0, {big}]", "fit_window.1")])
    def test_integers_beyond_the_float_range_are_config_errors(self, tmp_path, capsys,
                                                               override, path):
        # JSON integers have no size limit; these exited 3 or ran under a new hash
        big = 10 ** 400
        assert main(["resolvent-scan", str(CONFIG_DIR / "highfreq_a1.json"), "--set",
                     override.format(big=big), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: must be " in err and "finite" in err

    def test_integer_literals_beyond_the_digit_limit_are_config_errors(self, tmp_path, capsys):
        # Python parses at most 4300 digits of an integer literal; json.loads raises
        # ValueError, not JSONDecodeError, beyond that, which exited 3
        digits = "1" + "0" * 5000
        cfgp = tmp_path / "big.json"
        cfgp.write_text('{"grid": {"X": ' + digits + "}}")
        assert main(["evolve", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        assert main(["evolve", str(CONFIG_DIR / "conservative_a0.json"), "--set",
                     f"time.dt={digits}", "--out", str(tmp_path / "o")]) == 2
        assert "time.dt: must be a number" in capsys.readouterr().err

    def test_plot_svg_deterministic_and_errors(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        main(["evolve", cfgp, "--out", str(tmp_path / "out")])
        csv = str(next((tmp_path / "out").iterdir()) / "series.csv")
        out1 = tmp_path / "p1"
        out2 = tmp_path / "p2"
        args = ["plot", csv, "--y", "E_total", "--y", "dtu_w", "--mode", "loglog",
                "--fit", "E_total", "--guide-slope", "-1.0"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        svg1 = (out1 / "series.svg").read_bytes()
        assert svg1 == (out2 / "series.svg").read_bytes()
        assert svg1.startswith(b"<?xml")
        assert b"polyline" in svg1

        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["plot", str(empty)]) == 2
        malformed = tmp_path / "bad.csv"
        malformed.write_text("t,y\n1.0\n")
        assert main(["plot", str(malformed)]) == 2

    def test_linear_plot_draws_a_guide_that_crosses_zero(self):
        # y = 5 - 0.3 x spans [2, 5] over x in [0, 10], so the y axis maps 2 to
        # pixel 430 and 5 to 36; the slope -1 guide from (0, 5) ends at y = -5,
        # pixel 430 + 7/3 * 394, below the frame, not clamped flat onto y = 0
        x = np.linspace(0.0, 10.0, 11)
        svg = render_plot(x, {"y": 5.0 - 0.3 * x}, mode="linear", guide_slope=-1.0)
        guide = re.search(r'<polyline points="([^"]*)"[^>]*stroke="gray"', svg).group(1)
        assert guide == "70.000,36.000 700.000,1349.333"

    def test_set_override_changes_output_dir(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        main(["evolve", cfgp, "--out", str(tmp_path / "a")])
        main(["evolve", cfgp, "--set", "seed=9", "--out", str(tmp_path / "b")])
        da = {p.name for p in (tmp_path / "a").iterdir()}
        db = {p.name for p in (tmp_path / "b").iterdir()}
        assert da != db

    @pytest.mark.parametrize("kind", ["theta", "realaxis", "highfreq"])
    def test_empty_z_list_is_a_config_error(self, tmp_path, capsys, kind):
        # with no z a scan has no max to take and no row to write
        cfgp = write_tiny(tmp_path, scan={"kind": kind, "z_list": []})
        assert main(["resolvent-scan", cfgp, "--out", str(tmp_path / "o")]) == 2
        assert "scan.z_list" in capsys.readouterr().err


class TestGoldenStructuralChecks:
    def test_highfreq_a1_runs_one_mode_per_point(self, tmp_path):
        # constant damping: each mode's spectral bound exceeds its norm by at most a
        # relative 7e-8 (2 delta / |Im w|, delta = 1.3e-7, |Im w| = tau >= 4), so the
        # run of the mode of largest bound finds a max above every other mode's
        # bound, and no other mode runs
        points = cmd_resolvent(load(str(CONFIG_DIR / "highfreq_a1.json")),
                               str(tmp_path))["points"]
        assert [p.modes_scanned for p in points] == [1] * len(points)
        assert all(0.0 < p.tail_bound < p.norm_est for p in points)

    def test_heat_zero_data_golden(self, tmp_path):
        from guidewave.pipeline import cmd_heat_compare
        cfg = load(str(CONFIG_DIR / "heat_zero_data.json"))
        out = cmd_heat_compare(cfg, str(tmp_path))
        assert out["payload"]["zero_heat_data"] is True
        assert out["heat"].mass() == 0.0
        table = out["table"]
        # with v = 0 the difference norms are the wave norms themselves
        series = out["evolved"]["series"]
        wave_dtu = np.interp(table["t"], series["t"], series["dtu_w"])
        assert np.allclose(table["norm_dt_diff"], wave_dtu, rtol=1e-10)
        assert np.all(np.isinf(table["ratio_dt"]))

    def test_heat_compare_memory_does_not_grow_with_run_length(self, tmp_path):
        # 42 and 63 sampled states: a comparison that kept them until the end
        # would peak about 45% higher on the longer run
        from guidewave.pipeline import cmd_heat_compare
        peaks = []
        for t_end in (50.0, 400.0):
            cfg = load(str(CONFIG_DIR / "diffusion_a1.json"),
                       ["grid.N=512", "grid.X=60", "time.dt=0.2", f"time.t_end={t_end}"])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = cmd_heat_compare(cfg, str(tmp_path / str(t_end)))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert len(out["table"]["t"]) == (42 if t_end == 50.0 else 63)
        assert peaks[1] < 1.10 * peaks[0], peaks

    def test_euclidean_flavor_runs(self, tmp_path):
        cfgp = write_tiny(tmp_path, flavor="wave_euclidean",
                          init={"family": "gaussian", "params": {"sigma": 2.0},
                                "u0_modes": {"0": 1.0}, "u1_modes": {"0": 0.5},
                                "smoothing_k": 0},
                          domain={"K": 1})
        assert main(["evolve", cfgp, "--out", str(tmp_path / "out")]) == 0
        rundir = next((tmp_path / "out").iterdir())
        data = read_csv(str(rundir / "series.csv"))
        # the whole solution is cross-section constant: E_p0 carries everything
        assert np.allclose(data["E_p0"], data["E_total"])
        assert np.max(data["E_p0perp"]) == 0.0
