"""Run manifests: what ran, on which inputs, producing which bytes.

The manifest is the one artifact allowed to differ between reruns (it
records start and finish times and stage durations); every other output
of a stage is byte-reproducible given the same config and inputs.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .textio import write_json

MANIFEST_NAME = "manifest.json"


def canonical_sha256(doc: dict) -> str:
    """sha256 of doc as canonical JSON: keys sorted, default separators."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunRecorder:
    """Collects inputs, outputs and stage timings for one CLI invocation."""

    def __init__(self, command: str):
        self.command = command
        self.config_dict: dict = {}
        self.config_hash = ""
        self.started = time.time()
        self.inputs: dict[str, str] = {}
        self.outputs: list[Path] = []
        self.timings: dict[str, float] = {}
        self.peak_rss_kib: dict[str, int] = {}

    def set_config(self, config_dict: dict) -> None:
        """Record config_dict as the run's configuration, with its
        canonical_sha256."""
        self.config_dict = config_dict
        self.config_hash = canonical_sha256(config_dict)

    def add_input(self, path: str | Path | None) -> None:
        if path is None:
            return
        p = Path(path)
        if p.is_file():
            self.inputs[str(p)] = file_sha256(p)
        elif p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file():
                    self.inputs[str(child)] = file_sha256(child)

    def add_outputs(self, paths) -> None:
        self.outputs.extend(Path(p) for p in paths)

    @contextmanager
    def time_stage(self, name: str):
        """Record the monotonic duration of the with-block as timing name,
        and the process's peak RSS so far (ru_maxrss, KiB on Linux) at its
        end as peak_rss_kib name."""
        started = time.perf_counter()
        yield
        self.timings[name] = round(time.perf_counter() - started, 6)
        self.peak_rss_kib[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def write(self, out_dir: str | Path) -> Path:
        from . import __version__

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        finished = time.time()
        outputs = {}
        for p in sorted(set(self.outputs)):
            if p.is_file():
                try:
                    rel = str(p.relative_to(out_dir))
                except ValueError:
                    rel = str(p)
                outputs[rel] = file_sha256(p)
        # numpy's version if this run imported numpy, else None; reading
        # the installed package's metadata would itself slow start-up
        numpy = sys.modules.get("numpy")
        doc = {
            "command": self.command,
            "started": self.started,
            "finished": finished,
            "duration_s": round(finished - self.started, 6),
            "config": self.config_dict,
            "config_sha256": self.config_hash,
            "inputs": self.inputs,
            "outputs": outputs,
            "timings": self.timings,
            "peak_rss_kib": self.peak_rss_kib,
            "versions": {
                "python": platform.python_version(),
                "numpy": None if numpy is None else numpy.__version__,
                "pivotmine": __version__,
            },
        }
        return write_json(out_dir / MANIFEST_NAME, doc)
