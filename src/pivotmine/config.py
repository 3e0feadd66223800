"""Run configuration: JSON-backed, validated, hashable.

One RunConfig drives every CLI stage. Defaults match the reference
operating point; unknown keys in a config file are an error rather than a
silent ignore, so typos never masquerade as defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .aligner import AlignerConfig
from .errors import ConfigError, DataError
from .evaluation import MATCH_MODES
from .maps import SPLIT_POLICIES
from .textio import read_text

_TYPE_NOUNS = {float: "a number", int: "an integer", str: "a string"}


@dataclass
class RunConfig:
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

    def validate(self) -> None:
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
        try:
            self.aligner().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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

    def aligner(self) -> AlignerConfig:
        return AlignerConfig(
            em_iterations=self.em_iterations,
            diagonal_tension=self.diagonal_tension,
            null_prob=self.null_prob,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def sha256(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config; unknown keys or bad values raise ConfigError.

    Each field's expected type comes from its default: float fields take
    any number (stored as float), int fields an integer, str fields a
    string, and fields defaulting to None a string or null.
    """
    try:
        raw = json.loads(read_text(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    try:
        cfg = RunConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None and f.default is None:
            continue
        kind = str if f.default is None else type(f.default)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"{f.name} must be {_TYPE_NOUNS[kind]}")
        if kind is float:
            setattr(cfg, f.name, float(value))
    cfg.validate()
    return cfg
