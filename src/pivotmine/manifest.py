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

from .textio import read_bytes, write_json

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
        self.outputs: set[Path] = set()
        self.timings: dict[str, float] = {}
        self.peak_rss_kib: dict[str, int] = {}
        self.minor_faults: dict[str, int] = {}
        self.sys_s: dict[str, float] = {}

    def set_config(self, config_dict: dict) -> None:
        """Record config_dict as the run's configuration, with its
        canonical_sha256."""
        self.config_dict = config_dict
        self.config_hash = canonical_sha256(config_dict)

    def read(self, path: str | Path) -> bytes:
        """The bytes of the file at path (textio.read_bytes), with their
        sha256 recorded unless this run wrote the file (an output). It is
        the one way a run reads and records an input: each reader takes it
        as its read function."""
        data = read_bytes(path)
        p = Path(path)
        if p not in self.outputs:
            self.inputs[str(p)] = hashlib.sha256(data).hexdigest()
        return data

    def add_outputs(self, paths) -> None:
        self.outputs.update(Path(p) for p in paths)

    @contextmanager
    def time_stage(self, name: str):
        """Record the monotonic duration of the with-block as timing name;
        from the process's resource usage, its peak RSS so far (ru_maxrss,
        KiB on Linux) at the block's end as peak_rss_kib name, and the
        block's minor page faults (ru_minflt) and system CPU time
        (ru_stime) as minor_faults and sys_s name."""
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        yield
        self.timings[name] = round(time.perf_counter() - started, 6)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.peak_rss_kib[name] = usage.ru_maxrss
        self.minor_faults[name] = usage.ru_minflt - before.ru_minflt
        self.sys_s[name] = round(usage.ru_stime - before.ru_stime, 6)

    def write(self, out_dir: str | Path) -> Path:
        from . import __version__

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        finished = time.time()
        outputs = {}
        for p in sorted(self.outputs):
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
            "minor_faults": self.minor_faults,
            "sys_s": self.sys_s,
            "versions": {
                "python": platform.python_version(),
                "numpy": None if numpy is None else numpy.__version__,
                "pivotmine": __version__,
            },
        }
        return write_json(out_dir / MANIFEST_NAME, doc)
