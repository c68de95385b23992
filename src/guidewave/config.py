"""Experiment configuration: JSON schema, validation, hashing, overrides.

Configs round-trip byte-identically through ``canonical_json`` (sorted keys,
repr floats); the first 12 hex digits of the sha256 of that form name the
output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

from .discretize import WeightSpec
from .errors import ConfigError

FLAVORS = ("wave_neumann", "wave_dirichlet", "wave_euclidean", "klein_gordon")
DAMPING_KINDS = ("constant", "longrange", "hole")
INIT_FAMILIES = ("gaussian", "powerlaw")


@dataclass
class DomainCfg:
    L: float = math.pi
    K: int = 16


@dataclass
class GridCfg:
    X: float = 200.0
    N: int = 4096
    order: int = 4


@dataclass
class DampingCfg:
    kind: str = "constant"
    rho: float = 2.0
    r: float = 5.0
    level: float = 1.0


@dataclass
class InitCfg:
    family: str = "gaussian"
    params: dict = field(default_factory=lambda: {"sigma": 4.0, "center": 0.0, "amplitude": 1.0})
    u0_modes: dict = field(default_factory=dict)
    u1_modes: dict = field(default_factory=lambda: {"0": 1.0})
    smoothing_k: int = 0


@dataclass
class TimeCfg:
    t_end: float = 500.0
    dt: float = 0.1
    t0: float = 1.0
    sample_ratio: float = 1.1


SCAN_KINDS = ("highfreq", "theta", "realaxis")


@dataclass
class ScanCfg:
    kind: str = "highfreq"
    z_list: list = field(default_factory=list)        # [re, im] pairs or reals
    h_list: list = field(default_factory=list)
    beta1: int = 0
    beta2: int = 0
    truncation_guard: bool = False


@dataclass
class ExperimentConfig:
    experiment_id: str = "experiment"
    flavor: str = "wave_neumann"
    mass: float = 0.0
    domain: DomainCfg = field(default_factory=DomainCfg)
    grid: GridCfg = field(default_factory=GridCfg)
    damping: DampingCfg = field(default_factory=DampingCfg)
    init: InitCfg = field(default_factory=InitCfg)
    time: TimeCfg = field(default_factory=TimeCfg)
    weights: dict = field(default_factory=lambda: {"delta1": 0.0, "delta2": 0.0,
                                                   "s1": 0.0, "s2": 0.0, "s": 0.0,
                                                   "kappa": 1.1})
    scan: ScanCfg = field(default_factory=ScanCfg)
    fit_window: list = field(default_factory=lambda: [20.0, 500.0])
    local_radius: float = 10.0
    seed: int = 0

    def weight_spec(self) -> WeightSpec:
        return WeightSpec(**self.weights)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTION_TYPES = {"domain": DomainCfg, "grid": GridCfg, "damping": DampingCfg,
                  "init": InitCfg, "time": TimeCfg, "scan": ScanCfg}


def _build_section(cls, data: dict, path: str):
    valid = {f for f in cls.__dataclass_fields__}
    for key in data:
        if key not in valid:
            raise ConfigError(f"{path}.{key}: unknown field")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config; errors carry the offending field path."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"{name}: expected an object")
            kwargs[name] = _build_section(cls, section, name)
    valid = {f for f in ExperimentConfig.__dataclass_fields__}
    for key in data:
        if key not in valid:
            raise ConfigError(f"{key}: unknown field")
    try:
        cfg = ExperimentConfig(**data, **kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    if cfg.flavor not in FLAVORS:
        raise ConfigError(f"flavor: {cfg.flavor!r} not one of {FLAVORS}")
    if cfg.flavor == "klein_gordon" and cfg.mass <= 0:
        raise ConfigError(f"mass: Klein-Gordon needs mass > 0, got {cfg.mass}")
    if cfg.domain.L <= 0:
        raise ConfigError(f"domain.L: must be positive, got {cfg.domain.L}")
    if cfg.domain.K < 1:
        raise ConfigError(f"domain.K: need at least one mode, got {cfg.domain.K}")
    if cfg.grid.N < 16:
        raise ConfigError(f"grid.N: need N >= 16, got {cfg.grid.N}")
    if cfg.grid.X <= 0:
        raise ConfigError(f"grid.X: must be positive, got {cfg.grid.X}")
    if cfg.grid.order not in (2, 4):
        raise ConfigError(f"grid.order: must be 2 or 4, got {cfg.grid.order}")
    if cfg.damping.kind not in DAMPING_KINDS:
        raise ConfigError(f"damping.kind: {cfg.damping.kind!r} not one of {DAMPING_KINDS}")
    if cfg.damping.kind != "constant" and cfg.damping.level != 1.0:
        raise ConfigError(f"damping.level: used by kind 'constant' only, got "
                          f"{cfg.damping.level} for kind {cfg.damping.kind!r}")
    if cfg.damping.kind != "constant" and cfg.damping.rho <= 0:
        raise ConfigError(f"damping.rho: must be positive, got {cfg.damping.rho}")
    if cfg.damping.kind == "hole" and cfg.damping.r <= 0:
        raise ConfigError(f"damping.r: hole radius must be positive, got {cfg.damping.r}")
    if cfg.damping.kind == "constant" and cfg.damping.level < 0:
        raise ConfigError(f"damping.level: must be >= 0, got {cfg.damping.level}")
    if cfg.init.family not in INIT_FAMILIES:
        raise ConfigError(f"init.family: {cfg.init.family!r} not one of {INIT_FAMILIES}")
    if cfg.init.smoothing_k < 0:
        raise ConfigError(f"init.smoothing_k: must be >= 0, got {cfg.init.smoothing_k}")
    n_modes = cfg.domain.K if cfg.flavor in ("wave_neumann", "wave_dirichlet") else 1
    for section in ("u0_modes", "u1_modes"):
        for key in getattr(cfg.init, section):
            try:
                idx = int(key)
            except ValueError as exc:
                raise ConfigError(f"init.{section}.{key}: mode index must be an integer") from exc
            if not 0 <= idx < n_modes:
                raise ConfigError(f"init.{section}.{key}: mode index outside 0..{n_modes - 1}")
    if cfg.time.dt <= 0:
        raise ConfigError(f"time.dt: must be positive, got {cfg.time.dt}")
    if cfg.time.t_end < cfg.time.t0:
        raise ConfigError(f"time.t_end: must be >= t0={cfg.time.t0}, got {cfg.time.t_end}")
    if cfg.time.sample_ratio <= 1.0:
        raise ConfigError(f"time.sample_ratio: must exceed 1, got {cfg.time.sample_ratio}")
    try:
        WeightSpec(**cfg.weights)
    except TypeError as exc:
        raise ConfigError(f"weights: {exc}") from exc
    if cfg.scan.kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind: {cfg.scan.kind!r} not one of {SCAN_KINDS}")
    if cfg.scan.beta1 not in (0, 1) or cfg.scan.beta2 not in (0, 1):
        raise ConfigError(f"scan.beta1/beta2: must lie in {{0,1}}, got "
                          f"{cfg.scan.beta1}/{cfg.scan.beta2}")
    for name in ("beta1", "beta2", "truncation_guard"):   # theta, realaxis: fixed, unguarded
        if cfg.scan.kind != "highfreq" and getattr(cfg.scan, name):
            raise ConfigError(f"scan.{name}: used by kind 'highfreq' only, got "
                              f"{getattr(cfg.scan, name)} for kind {cfg.scan.kind!r}")
    for i, z in enumerate(parse_scan_z(cfg.scan.z_list) if cfg.scan.kind == "realaxis" else ()):
        if z.imag:
            raise ConfigError(f"scan.z_list.{i}: kind 'realaxis' needs real z, got {z}")
    if not (len(cfg.fit_window) == 2 and cfg.fit_window[0] >= 1.0
            and cfg.fit_window[1] > cfg.fit_window[0]):
        raise ConfigError(f"fit_window: need [t_min >= 1, t_max > t_min], got {cfg.fit_window}")
    if cfg.local_radius > cfg.grid.X:
        raise ConfigError(f"local_radius: {cfg.local_radius} exceeds grid.X={cfg.grid.X}")


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:12]


def load(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config, apply ``--set``-style ``overrides``, build and validate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return from_dict(apply_overrides(data, overrides))


def parse_scan_z(entries) -> list[complex]:
    """z entries are reals or [re, im] pairs."""
    out = []
    for e in entries:
        if isinstance(e, (int, float)):
            out.append(complex(e))
        elif isinstance(e, (list, tuple)) and len(e) == 2:
            out.append(complex(e[0], e[1]))
        else:
            raise ConfigError(f"scan.z_list: entries must be numbers or [re, im] pairs, got {e!r}")
    return out


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply --key.path=value overrides onto a raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key.path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {key} is not an object")
        node[keys[-1]] = value
    return data
