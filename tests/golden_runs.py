"""The commands whose artifacts tests/data/golden.json pins, byte for byte.

For a fixed config and seed the pipeline writes the same bytes. The
golden file maps the relative path of every file these commands write
(manifests aside, as they carry timings) to its sha256, together with
the Python and numpy versions that produced it: float bytes follow
numpy's summation order. tests/test_golden.py reruns the commands and
compares; tests/regen_golden.py rewrites the file. Both take the commands
from here.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from helpers import file_sha256
from pivotmine.cli import main
from pivotmine.manifest import MANIFEST_NAME

GOLDEN = Path(__file__).parent / "data" / "golden.json"

FEATURES = ("past", "present", "future")


def _config(corpus: str, **params) -> dict:
    """A config over the synth output directory corpus, relative to the
    output root (the caller makes the paths absolute)."""
    return {
        "corpus_dir": f"{corpus}/corpus",
        "queries": f"{corpus}/queries.tsv",
        "allowlist": f"{corpus}/allowlist.txt",
        "gold": f"{corpus}/gold.tsv",
        "families": f"{corpus}/families.tsv",
        "min_count": 5,
        "seed": 7,
        **params,
    }


# name -> config; each path-valued entry is relative to the output root
CONFIGS = {
    # min_shared_verses low enough for cluster-languages on 400 verses
    "tiny8": _config(
        "tiny8", coverage_target=400, k=6, map_rounds=3, min_shared_verses=50,
        cache_dir="tiny8_cache",
    ),
    "marking24": _config("marking24", coverage_target=3000, k=12, cache_dir="marking24_cache"),
}

# Each command, its paths relative to the output root and "@name" standing
# for the path of config name.
COMMANDS = (
    ("synth", "--preset", "tiny8", "--out", "tiny8"),
    *(
        ("pipeline", "--config", "@tiny8", "--feature", f, "--out", f"tiny8_runs/{f}")
        for f in FEATURES
    ),
    (
        "cluster-languages", "--config", "@tiny8", "--features", ",".join(FEATURES),
        "--from", "tiny8_runs", "--out", "tiny8_languages",
    ),
    (
        "eval-family", "--config", "@tiny8",
        "--distances", "tiny8_languages/languages_distance.tsv", "--out", "tiny8_family",
    ),
    # the standalone mining command the wide-mine benchmark times, on the
    # past pipeline's pivots
    (
        "mine-ngrams", "--config", "@tiny8", "--feature", "past",
        "--pivots", "tiny8_runs/past/pivots.tsv", "--head", "tiny8_runs/past/head.json",
        "--out", "tiny8_mine",
    ),
    # a past cluster into a translation that lacks 2 of its 53 verses
    (
        "project", "--config", "@tiny8", "--verses", "tiny8_runs/past/clusters/1011.txt",
        "--translation", "saa_synth", "--out", "tiny8_project",
    ),
    ("synth", "--preset", "marking24", "--out", "marking24"),
    ("pipeline", "--config", "@marking24", "--feature", "past", "--out", "marking24_run"),
)

PATH_KEYS = ("corpus_dir", "queries", "allowlist", "gold", "families", "cache_dir")
PATH_FLAGS = ("--out", "--from", "--distances", "--pivots", "--head", "--verses")


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_commands(root: Path) -> dict[str, str]:
    """Run COMMANDS with outputs under root/out and configs under
    root/configs; {relative path: sha256} of every file under root/out
    but the manifests. Raises AssertionError naming the first command
    that exits non-zero."""
    out, configs = root / "out", root / "configs"
    configs.mkdir(parents=True)
    config_paths = {}
    for name, cfg in CONFIGS.items():
        path = configs / f"{name}.json"
        cfg = {k: str(out / v) if k in PATH_KEYS else v for k, v in cfg.items()}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        config_paths[name] = str(path)
    for command in COMMANDS:
        argv = list(command)
        for i, arg in enumerate(argv):
            if arg.startswith("@"):
                argv[i] = config_paths[arg[1:]]
            elif i and argv[i - 1] in PATH_FLAGS:
                argv[i] = str(out / arg)
        code = main(argv)
        assert code == 0, f"pivotmine {' '.join(command)} exited {code}"
    return {
        path.relative_to(out).as_posix(): file_sha256(path)
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != MANIFEST_NAME
    }


def read_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def write_golden(hashes: dict[str, str]) -> None:
    doc = {"versions": versions(), "files": dict(sorted(hashes.items()))}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
