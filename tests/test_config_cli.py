import json
from importlib import resources

import numpy as np
import pytest

import guidewave.configs
from guidewave.cli import main
from guidewave.config import (ExperimentConfig, apply_overrides, canonical_json,
                              config_hash, from_dict, load, parse_scan_z)
from guidewave.errors import ConfigError
from guidewave.pipeline import build_damping, build_grid, cmd_resolvent, read_csv
from guidewave.resolvent import norm_scan

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
    ])
    def test_validation_reports_field_path(self, path, value, fragment):
        data = json.loads(json.dumps(TINY))
        if isinstance(value, dict):
            data.setdefault(path, {}).update(value)
        else:
            data[path] = value
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            from_dict(data)

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
        with pytest.raises(ConfigError):
            parse_scan_z(["one"])

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
            grid = build_grid(cfg)
            want = [norm_scan([z], 0, 0, build_damping(cfg, grid), grid, [0.0], mass=mass,
                              rng=np.random.default_rng([cfg.seed, i]))[0].norm_est
                    for i, z in enumerate((2.0, 4.0))]
            assert norms[mass] == want
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

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evolve", str(bad), "--out", str(tmp_path / "o")]) == 2
        # numerics would fail (exit 3) on a negative absorption; validation comes first
        for command, mutation in (("evolve", {"flavor": "maxwell"}),
                                  ("evolve", {"damping": {"kind": "hole", "rho": -1.0}}),
                                  ("resolvent-scan", {"scan": {"kind": "gap", "z_list": [4.0]}})):
            cfgp = write_tiny(tmp_path, **mutation)
            assert main([command, cfgp, "--out", str(tmp_path / "o")]) == 2

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

    def test_set_override_changes_output_dir(self, tmp_path):
        cfgp = write_tiny(tmp_path)
        main(["evolve", cfgp, "--out", str(tmp_path / "a")])
        main(["evolve", cfgp, "--set", "seed=9", "--out", str(tmp_path / "b")])
        da = {p.name for p in (tmp_path / "a").iterdir()}
        db = {p.name for p in (tmp_path / "b").iterdir()}
        assert da != db

    def test_threads_env_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GUIDEWAVE_THREADS", "two")
        cfgp = write_tiny(tmp_path, scan={"kind": "highfreq", "z_list": [2.0]})
        assert main(["resolvent-scan", cfgp, "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setenv("GUIDEWAVE_THREADS", "2")
        assert main(["resolvent-scan", cfgp, "--out", str(tmp_path / "o2")]) == 0


class TestGoldenStructuralChecks:
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
