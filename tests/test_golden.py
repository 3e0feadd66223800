"""The pipeline's bytes, pinned across commits.

Acceptance 10 checks that two runs of the same code agree; this checks
that a run of this code writes what tests/data/golden.json records. A
change that alters any artifact on purpose reruns tests/regen_golden.py
and says which files changed and why. The same runs also show that each
manifest lists what its run wrote.
"""

from __future__ import annotations

import json
from pathlib import PurePosixPath

import pytest

from golden_runs import CONFIGS, read_golden, run_commands, versions
from pivotmine.manifest import MANIFEST_NAME


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output root of one run of the golden commands, and the sha256
    of each file under it but the manifests, read from disk."""
    root = tmp_path_factory.mktemp("golden")
    return root / "out", run_commands(root)


def test_artifacts_match_the_golden_hashes(golden_run):
    golden = read_golden()
    assert golden["versions"] == versions(), (
        f"golden hashes were made with {golden['versions']}, this is {versions()}; "
        "float bytes follow numpy's summation order, so check the differences "
        "and rerun tests/regen_golden.py"
    )
    (_, got), want = golden_run, golden["files"]
    problems = [
        f"{'new' if rel not in want else 'gone' if rel not in got else 'changed'}: {rel}"
        for rel in sorted(got.keys() | want.keys())
        if got.get(rel) != want.get(rel)
    ]
    assert not problems, "artifacts differ from tests/data/golden.json:\n" + "\n".join(problems)


def test_manifests_list_every_file_their_runs_wrote(golden_run):
    """The manifests' outputs, together, are every file under the output
    root but the manifests and the alignment-cache tables, each with the
    sha256 of its bytes on disk. A writer that does not write through
    run.rec.write_output leaves its file unlisted."""
    out, on_disk = golden_run
    listed = {}
    for manifest in sorted(out.rglob(MANIFEST_NAME)):
        outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        for rel, digest in outputs.items():
            listed[(manifest.parent / rel).relative_to(out).as_posix()] = digest
    caches = {cfg["cache_dir"] for cfg in CONFIGS.values()}
    written = {
        rel: digest for rel, digest in on_disk.items()
        if PurePosixPath(rel).parts[0] not in caches
    }
    assert len(written) < len(on_disk)  # the cache tables are there, unlisted
    assert listed == written
