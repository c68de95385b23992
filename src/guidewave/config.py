"""Experiment configuration: JSON schema, validation, hashing, overrides.

The dataclass annotations are the schema: one builder walks the root and each
section, and an unknown key, a value whose JSON type its annotation does not
admit, or a ``float`` that is NaN or infinite fails naming the dotted path.
``validate`` adds the range and cross-field rules.

Configs round-trip byte-identically through ``canonical_json`` (sorted keys,
repr floats); the first 12 hex digits of the sha256 of that form name the
output directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

from .discretize import WeightSpec
from .errors import ConfigError
from .evolve import FLAVORS, KLEIN_GORDON, WAVE_DIRICHLET, WAVE_NEUMANN

DAMPING_KINDS = ("constant", "longrange", "hole")
#: The input budget: a run keeps about one complex vector of grid.N nodes, 16
#: bytes a node, per transverse mode (an evolved state's rows, a real-axis scan's
#: band factors).  N <= 2**20 (16 MiB a vector) and K * N <= 2**24 (256 MiB), so
#: a typo of a few digits fails at load, not after filling the memory.
MAX_NODES = 2 ** 20
MAX_MODE_NODES = 2 ** 24
#: envelope family -> the parameters it takes, with their defaults
INIT_FAMILIES = {"gaussian": {"sigma": 4.0, "center": 0.0, "amplitude": 1.0},
                 "powerlaw": {"q": 0.5, "amplitude": 1.0}}


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
    params: dict[str, float] = field(default_factory=lambda: dict(INIT_FAMILIES["gaussian"]))
    u0_modes: dict[str, float] = field(default_factory=dict)
    u1_modes: dict[str, float] = field(default_factory=lambda: {"0": 1.0})
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
    h_list: list[float] = field(default_factory=list)
    beta1: int = 0
    beta2: int = 0
    truncation_guard: bool = False


@dataclass
class ExperimentConfig:
    experiment_id: str = "experiment"
    flavor: str = WAVE_NEUMANN
    mass: float = 0.0
    domain: DomainCfg = field(default_factory=DomainCfg)
    grid: GridCfg = field(default_factory=GridCfg)
    damping: DampingCfg = field(default_factory=DampingCfg)
    init: InitCfg = field(default_factory=InitCfg)
    time: TimeCfg = field(default_factory=TimeCfg)
    weights: dict[str, float] = field(default_factory=lambda: asdict(WeightSpec()))
    scan: ScanCfg = field(default_factory=ScanCfg)
    fit_window: list[float] = field(default_factory=lambda: [20.0, 500.0])
    local_radius: float = 10.0
    seed: int = 0

    def weight_spec(self) -> WeightSpec:
        return WeightSpec(**self.weights)

    def to_dict(self) -> dict:
        return asdict(self)


#: field name -> resolved annotation of a config dataclass, read once per class
_hints = functools.cache(typing.get_type_hints)


def _build(cls, data, path: str = ""):
    """``cls(**data)``, each value checked against its annotation; errors name the field path."""
    if type(data) is not dict:
        raise ConfigError(f"{path}: expected an object" if path else
                          "config root must be a JSON object")
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        kind = _hints(cls).get(key)
        if kind is None:
            raise ConfigError(f"{where}: unknown field")
        kwargs[key] = _build(kind, value, where) if is_dataclass(kind) else _check(kind, value, where)
    return cls(**kwargs)


#: what a JSON value of each annotated type must be; ``float`` admits integers
_KINDS = {int: ("an integer", (int,)), float: ("a number", (int, float)),
          bool: ("true or false", (bool,)), str: ("a string", (str,)),
          dict: ("an object", (dict,)), list: ("a list", (list,))}


def _finite(x) -> bool:
    """Whether a JSON number is a finite float; an integer whose ``float`` overflows is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check(kind, value, path: str):
    """``value``, if its type and each entry's (``dict[str, T]``, ``list[T]``) is exact
    and a ``float`` field's number is finite."""
    name, types = _KINDS[typing.get_origin(kind) or kind]
    if type(value) not in types:
        raise ConfigError(f"{path}: must be {name}, got {value!r}")
    if kind is float and not _finite(value):
        # JSON admits NaN and Infinity, and a NaN passes every `x <= 0` rule of ``validate``
        shown = repr(value) if type(value) is float else "an integer beyond the float range"
        raise ConfigError(f"{path}: must be a finite number, got {shown}")
    if args := typing.get_args(kind):
        for key, entry in (value.items() if type(value) is dict else enumerate(value)):
            _check(args[-1], entry, f"{path}.{key}")
    return value


def from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config; errors carry the offending field path."""
    cfg = _build(ExperimentConfig, data)
    validate(cfg)
    return cfg


def _leaves(cls, prefix: str = ""):
    for name, kind in _hints(cls).items():
        if is_dataclass(kind):
            yield from _leaves(kind, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", kind


#: dotted path -> annotation of every field that is not a section: the schema ``_build`` checks
FIELD_TYPES = dict(_leaves(ExperimentConfig))
#: the fields that take a JSON integer, and those that take any JSON number
INTEGER_FIELDS = tuple(path for path, kind in FIELD_TYPES.items() if kind is int)
FLOAT_FIELDS = tuple(path for path, kind in FIELD_TYPES.items() if kind is float)


def validate(cfg: ExperimentConfig) -> None:
    """The range and cross-field rules; the types were checked as the config was built."""
    if cfg.flavor not in FLAVORS:
        raise ConfigError(f"flavor: {cfg.flavor!r} not one of {FLAVORS}")
    if not (cfg.mass > 0 if cfg.flavor == KLEIN_GORDON else cfg.mass == 0):
        raise ConfigError(f"mass: must be > 0 for flavor {KLEIN_GORDON!r} and 0 for any "
                          f"other, got {cfg.mass} for {cfg.flavor!r}")
    if cfg.domain.L <= 0:
        raise ConfigError(f"domain.L: must be positive, got {cfg.domain.L}")
    if not 16 <= cfg.grid.N <= MAX_NODES:
        raise ConfigError(f"grid.N: need 16 <= N <= {MAX_NODES}, got {cfg.grid.N}")
    if not 1 <= cfg.domain.K <= MAX_MODE_NODES // cfg.grid.N:
        raise ConfigError(f"domain.K: need 1 <= K <= {MAX_MODE_NODES} / grid.N = "
                          f"{MAX_MODE_NODES // cfg.grid.N}, got {cfg.domain.K}")
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
        raise ConfigError(f"init.family: {cfg.init.family!r} not one of {tuple(INIT_FAMILIES)}")
    for key in cfg.init.params:
        if key not in INIT_FAMILIES[cfg.init.family]:
            raise ConfigError(f"init.params.{key}: unknown parameter of {cfg.init.family!r}, "
                              f"not one of {tuple(INIT_FAMILIES[cfg.init.family])}")
    if cfg.init.smoothing_k < 0:
        raise ConfigError(f"init.smoothing_k: must be >= 0, got {cfg.init.smoothing_k}")
    n_modes = cfg.domain.K if cfg.flavor in (WAVE_NEUMANN, WAVE_DIRICHLET) else 1
    for section in ("u0_modes", "u1_modes"):
        for key in getattr(cfg.init, section):
            # one spelling per index: "01" or "+1" would name mode 1 under a new hash
            if not key.isascii() or not key.isdigit() or key != str(int(key)):
                raise ConfigError(f"init.{section}.{key}: mode index must be written as a "
                                  f"plain decimal integer, such as 0 or 12")
            idx = int(key)
            if not 0 <= idx < n_modes:
                raise ConfigError(f"init.{section}.{key}: mode index outside 0..{n_modes - 1}")
    if cfg.time.dt <= 0:
        raise ConfigError(f"time.dt: must be positive, got {cfg.time.dt}")
    if cfg.time.t0 <= 0:
        raise ConfigError(f"time.t0: must be positive, got {cfg.time.t0}")
    if cfg.time.t_end < cfg.time.t0:
        raise ConfigError(f"time.t_end: must be >= t0={cfg.time.t0}, got {cfg.time.t_end}")
    if cfg.time.sample_ratio <= 1.0:
        raise ConfigError(f"time.sample_ratio: must exceed 1, got {cfg.time.sample_ratio}")
    for key in cfg.weights:
        if key not in WeightSpec.__dataclass_fields__:
            raise ConfigError(f"weights.{key}: unknown field")
    if cfg.scan.kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind: {cfg.scan.kind!r} not one of {SCAN_KINDS}")
    if cfg.scan.beta1 not in (0, 1) or cfg.scan.beta2 not in (0, 1):
        raise ConfigError(f"scan.beta1/beta2: must lie in {{0,1}}, got "
                          f"{cfg.scan.beta1}/{cfg.scan.beta2}")
    for name in ("beta1", "beta2", "truncation_guard"):   # theta, realaxis: fixed, unguarded
        if cfg.scan.kind != "highfreq" and getattr(cfg.scan, name):
            raise ConfigError(f"scan.{name}: used by kind 'highfreq' only, got "
                              f"{getattr(cfg.scan, name)} for kind {cfg.scan.kind!r}")
    for i, z in enumerate(parse_scan_z(cfg.scan.z_list)):
        if cfg.scan.kind == "realaxis" and z.imag:
            raise ConfigError(f"scan.z_list.{i}: kind 'realaxis' needs real z, got {z}")
        if cfg.scan.kind == "theta" and not (z.imag > 0 and abs(z) <= 1 + 1e-12):
            raise ConfigError(f"scan.z_list.{i}: kind 'theta' needs Im z > 0, |z| <= 1, got {z}")
    for i, h in enumerate(cfg.scan.h_list):
        if not 0.0 < h <= 1.0:
            raise ConfigError(f"scan.h_list.{i}: semiclassical h must lie in (0, 1], got {h}")
    check_fit_window(cfg.fit_window, "fit_window")
    if cfg.local_radius <= 0:
        raise ConfigError(f"local_radius: must be positive, got {cfg.local_radius}")
    if cfg.local_radius > cfg.grid.X:
        raise ConfigError(f"local_radius: {cfg.local_radius} exceeds grid.X={cfg.grid.X}")
    if cfg.seed < 0:
        # a scan keys its start vectors by [seed, point, mode, block], and numpy
        # takes only non-negative integers as a key
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:12]


def load(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config, apply ``--set``-style ``overrides``, build and validate."""
    try:
        data = json.loads(read_input(path))
    except ValueError as exc:   # also an integer literal beyond Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return from_dict(apply_overrides(data, overrides))


def read_input(path) -> str:
    """The text of ``path``; a file that cannot be read or is not UTF-8 is a ``ConfigError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot open input file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: input file is not UTF-8 text: {exc}") from exc


def parse_scan_z(entries) -> list[complex]:
    """z entries are finite reals or [re, im] pairs of them; a bool is no number."""
    out = []
    for i, e in enumerate(entries):
        parts = e if isinstance(e, (list, tuple)) and len(e) == 2 else [e]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
            raise ConfigError(f"scan.z_list.{i}: must be a number or an [re, im] pair, got {e!r}")
        if not all(_finite(p) for p in parts):
            raise ConfigError(f"scan.z_list.{i}: must be finite, got {e!r}")
        out.append(complex(*parts))
    return out


def check_fit_window(window, path: str) -> None:
    """A fit window is [t_min >= 1, t_max > t_min]; a NaN fails both comparisons."""
    if not (len(window) == 2 and 1.0 <= window[0] < window[1]):
        raise ConfigError(f"{path}: need [t_min >= 1, t_max > t_min], got {list(window)}")


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply --key.path=value overrides onto a raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key.path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:      # also an integer literal beyond Python's digit limit
            value = raw
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {key} is not an object")
        node[keys[-1]] = value
    return data
