"""Rewrite tests/data/golden.json from a fresh run of its commands.

    PYTHONPATH=src python3 tests/regen_golden.py

Run it only when a change alters the pipeline's bytes on purpose, and
list each changed path, and why, beside the change. It prints the paths
whose hashes changed, appeared or went, and the old and the new Python
and numpy versions when they differ: the golden bytes follow numpy's
summation order, so a rewrite under another numpy can hide what
tests/test_golden.py checks.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import golden_runs  # noqa: E402


def _versions(versions: dict[str, str]) -> str:
    return ", ".join(f"{name} {versions[name]}" for name in ("python", "numpy"))


def main() -> int:
    golden = golden_runs.read_golden() if golden_runs.GOLDEN.is_file() else {}
    old = golden.get("files", {})
    with tempfile.TemporaryDirectory() as tmp:
        new = golden_runs.run_commands(Path(tmp))
    for rel in sorted(old.keys() | new.keys()):
        if old.get(rel) != new.get(rel):
            state = "new" if rel not in old else "gone" if rel not in new else "changed"
            print(f"{state}: {rel}")
    versions = golden_runs.versions()
    if golden and golden["versions"] != versions:
        print(f"versions: {_versions(golden['versions'])} -> {_versions(versions)}")
    golden_runs.write_golden(new)
    print(f"wrote {len(new)} hashes to {golden_runs.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
