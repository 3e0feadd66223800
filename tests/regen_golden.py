"""Rewrite tests/data/golden.json from a fresh run of its commands.

    PYTHONPATH=src python3 tests/regen_golden.py

Run it only when a change alters the pipeline's bytes on purpose, and
list each changed path, and why, beside the change. It prints the paths
whose hashes changed, appeared or went.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import golden_runs  # noqa: E402


def main() -> int:
    old = golden_runs.read_golden()["files"] if golden_runs.GOLDEN.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = golden_runs.run_commands(Path(tmp))
    for rel in sorted(old.keys() | new.keys()):
        if old.get(rel) != new.get(rel):
            state = "new" if rel not in old else "gone" if rel not in new else "changed"
            print(f"{state}: {rel}")
    golden_runs.write_golden(new)
    print(f"wrote {len(new)} hashes to {golden_runs.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
