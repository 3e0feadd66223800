"""Run configuration: JSON-backed, validated, hashable.

One RunConfig drives every CLI stage. It alone gives each run parameter
its default and its check; library functions take run parameters without
defaults. Unknown keys in a config file are an error rather than a silent
ignore, so typos never masquerade as defaults.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError, DataError
from .evaluation import MATCH_MODES
from .textio import Reader, read_bytes, read_json

# Which cluster each map round splits: the globally largest, or the chain
# of clusters in which every pivot chosen so far is present.
SPLIT_POLICIES = ("largest", "head-containing-chain")

# The JSON types each scalar field annotation accepts, and how an error
# names them. A float field takes any number and stores it as a float.
_SCALARS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def read_json_object(path: str | Path, what: str, read: Reader = read_bytes) -> dict:
    """The JSON object in path; ConfigError when it is unreadable, not
    standard JSON (read_json) or not an object. what names the file in
    errors."""
    try:
        raw = read_json(path, read)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return raw


def is_scalar(value, kind: str) -> bool:
    """Whether a JSON value has the scalar type kind (a key of _SCALARS)."""
    return not isinstance(value, bool) and isinstance(value, _SCALARS[kind][0])


def read_fields(raw: dict, cls, what: str) -> dict:
    """The entries of a JSON object as keyword arguments of dataclass cls,
    whose fields take no default_factory.

    Raises ConfigError for a key that is not a field of cls, a missing
    field without a default, and a scalar field (annotated int, float, str
    or str | None) of the wrong type. Float fields come back as floats;
    other fields pass unchecked, for the caller to check their shape.
    """
    known = {f.name: f for f in fields(cls)}
    extra = set(raw) - set(known)
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    missing = [n for n, f in known.items() if n not in raw and f.default is MISSING]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    for name, value in raw.items():
        kind = known[name].type
        if kind in _SCALARS and not is_scalar(value, kind):
            raise ConfigError(f"{name} must be {_SCALARS[kind][1]}")
    return {n: float(v) if known[n].type == "float" else v for n, v in raw.items()}


@dataclass(frozen=True)
class RunConfig:
    """Every run parameter, checked when the config is built: a RunConfig
    that exists is valid, and none can be changed (dataclasses.replace
    builds, and so checks, a new one)."""

    sigma: float = 6.0
    window: int = 20
    k: int = 100
    n_min: int = 2
    n_max: int = 6
    top: int = 10
    min_count: int = 10
    em_iterations: int = 5
    diagonal_tension: float = 4.0
    null_prob: float = 0.08
    coverage_target: int = 7958
    min_shared_verses: int = 7000
    jsd_threshold: float = 0.5
    map_rounds: int = 4
    map_policy: str = "largest"
    match_mode: str = "both"
    seed: int = 0
    corpus_dir: str | None = None
    queries: str | None = None
    allowlist: str | None = None
    gold: str | None = None
    families: str | None = None
    cache_dir: str | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.window < 0:
            raise ConfigError("window must be >= 0")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError("need 1 <= n_min <= n_max")
        if self.top < 1:
            raise ConfigError("top must be >= 1")
        if self.min_count < 1:
            raise ConfigError("min_count must be >= 1")
        if self.em_iterations < 1:
            raise ConfigError("em_iterations must be >= 1")
        if self.diagonal_tension < 0:
            raise ConfigError("diagonal_tension must be >= 0")
        if not 0 <= self.null_prob < 1:
            raise ConfigError("null_prob must lie in [0, 1)")
        if self.coverage_target < 1:
            raise ConfigError("coverage_target must be >= 1")
        if self.min_shared_verses < 0:
            raise ConfigError("min_shared_verses must be >= 0")
        if not 0 <= self.jsd_threshold <= 1:
            raise ConfigError("jsd_threshold must lie in [0, 1]")
        if self.map_rounds < 0:
            raise ConfigError("map_rounds must be >= 0")
        if self.map_policy not in SPLIT_POLICIES:
            raise ConfigError(f"unknown map_policy {self.map_policy!r}")
        if self.match_mode not in MATCH_MODES:
            raise ConfigError(f"unknown match_mode {self.match_mode!r}")

    def path(self, name: str) -> str:
        """The path field name, which a stage needs; ConfigError if unset."""
        value = getattr(self, name)
        if not value:
            raise ConfigError(f"no {name} configured")
        return value


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config (see read_fields); unknown keys, bad types and
    bad values raise ConfigError."""
    return RunConfig(**read_fields(read_json_object(path, "config"), RunConfig, "config"))
