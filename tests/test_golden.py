"""The pipeline's bytes, pinned across commits.

Acceptance 10 checks that two runs of the same code agree; this checks
that a run of this code writes what tests/data/golden.json records. A
change that alters any artifact on purpose reruns tests/regen_golden.py
and says which files changed and why.
"""

from __future__ import annotations

from golden_runs import read_golden, run_commands, versions


def test_artifacts_match_the_golden_hashes(tmp_path):
    golden = read_golden()
    assert golden["versions"] == versions(), (
        f"golden hashes were made with {golden['versions']}, this is {versions()}; "
        "float bytes follow numpy's summation order, so check the differences "
        "and rerun tests/regen_golden.py"
    )
    got, want = run_commands(tmp_path), golden["files"]
    problems = [
        f"{'new' if rel not in want else 'gone' if rel not in got else 'changed'}: {rel}"
        for rel in sorted(got.keys() | want.keys())
        if got.get(rel) != want.get(rel)
    ]
    assert not problems, "artifacts differ from tests/data/golden.json:\n" + "\n".join(problems)
