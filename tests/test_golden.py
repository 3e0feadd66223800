"""The pipeline's bytes, pinned across commits.

Acceptance 10 checks that two runs of the same code agree; this checks
that a run of this code writes what tests/data/golden.json records. A
change that alters any artifact on purpose reruns tests/regen_golden.py
and says which files changed and why. The same runs also show that each
manifest lists what its run wrote.
"""

from __future__ import annotations

import json
import shutil
from pathlib import PurePosixPath

import pytest

from golden_runs import CONFIGS, PATH_KEYS, read_golden, run_commands, versions
from helpers import file_sha256
from pivotmine.cli import main
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


def _flip_digest_byte(data: bytes) -> bytes:
    at = data.index(b" digest=") + len(b" digest=")
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


def _flip_body_bit(data: bytes) -> bytes:
    """The low bit of the middle probability's first byte flipped: its
    lowest mantissa bit, which moves its row sum by about 1e-16."""
    header = data.index(b"\n") + 1
    at = header + 8 * ((len(data) - header) // 16)
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


# Damage to alignment-cache tables, each of a kind the cache must notice
CACHE_DAMAGE = {
    "cut-in-half": lambda data: data[: len(data) // 2],
    "emptied": lambda data: b"",
    "digest-byte-flipped": _flip_digest_byte,
    "body-bit-flipped": _flip_body_bit,
}


def test_damaged_cache_tables_are_retrained_to_the_golden_bytes(golden_run, tmp_path):
    """A tiny8 past pipeline over a copy of the golden corpus and cache,
    four of whose tables the run reads are damaged, exits 0 and writes
    the golden bytes: its outputs, and the four tables retrained."""
    out, _ = golden_run
    root = tmp_path / "out"
    cfg = CONFIGS["tiny8"]
    for name in ("tiny8", cfg["cache_dir"]):
        shutil.copytree(out / name, root / name)
    # the head pairs: expand-pivots aligns the head's translation with every other
    head = json.loads((out / "tiny8_runs" / "past" / "head.json").read_text(encoding="utf-8"))
    tables = sorted((root / cfg["cache_dir"]).glob(f"{head['translation_id']}__*.lex"))
    for path, damage in zip(tables, CACHE_DAMAGE.values()):
        path.write_bytes(damage(path.read_bytes()))
    config = tmp_path / "tiny8.json"
    config.write_text(json.dumps(
        {k: str(root / v) if k in PATH_KEYS else v for k, v in cfg.items()}
    ), encoding="utf-8")
    run = root / "tiny8_runs" / "past"
    argv = ["pipeline", "--config", str(config), "--feature", "past", "--out", str(run)]
    assert main(argv) == 0
    golden = read_golden()["files"]
    written = {
        path.relative_to(root).as_posix(): file_sha256(path)
        for path in [*run.rglob("*"), *tables[: len(CACHE_DAMAGE)]]
        if path.is_file() and path.name != MANIFEST_NAME
    }
    want = {
        rel: digest for rel, digest in golden.items()
        if rel.startswith("tiny8_runs/past/") or rel in written
    }
    assert len(written) > len(CACHE_DAMAGE)
    assert written == want
