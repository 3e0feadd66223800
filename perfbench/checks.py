"""Output checks for the benchmark workloads.

Each check recomputes a value from the inputs or tests a property the
method must have; none compares with a stored copy of earlier output.
Every function returns a list of error strings, empty when the output
is correct.  Nothing here imports pivotmine.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

MRR_FLOOR = 0.9
SUFFIX_TOP = 3  # planted suffix must rank this high at n = len(suffix)
_NEWICK_LEAF = re.compile(r"(?:^|[(,])\s*('(?:[^']|'')*'|[^(),:;']+)\s*:")


def read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_pivots(pivots_tsv: Path, head_json: Path, truth: dict, feature: str) -> list[str]:
    """Head and members: distinct languages, each surface a planted marker."""
    errors = []
    rows = read_tsv(pivots_tsv)[1:]
    langs = truth["languages"]
    isos = [r[1] for r in rows]
    if len(set(isos)) != len(isos):
        errors.append(f"pivots.tsv repeats a language: {isos}")
    head = json.loads(head_json.read_text(encoding="utf-8"))
    members = [(r[1], r[3]) for r in rows] + [(head["iso3"], head["surface"])]
    for iso, surface in members:
        planted = langs.get(iso, {}).get("markers", {}).get(feature, [])
        if surface not in planted:
            errors.append(f"pivot {iso}:{surface} is not a planted {feature} marker {planted}")
    if (head["iso3"], head["surface"]) not in members[:-1]:
        errors.append(f"head {head['iso3']}:{head['surface']} is not a pivots.tsv member")
    return errors


def read_ngrams(path: Path) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for row in read_tsv(path)[1:]:
        gram = row[2].replace("\\t", "\t").replace("␣", " ")
        out.setdefault(int(row[0]), []).append(gram)
    return out


def recompute_mrr(ngram_dir: Path, gold_tsv: Path, feature: str) -> float:
    """Mean over gold translations of the reciprocal rank of the first
    gram that contains, or is contained in, a gold form, averaged over n."""
    gold = {}
    for tid, feat, forms in read_tsv(gold_tsv):
        if feat == feature:
            gold.setdefault(tid, set()).update(f for f in forms.split(",") if f)
    per = []
    for path in sorted(ngram_dir.glob("*.tsv")):
        forms = gold.get(path.stem)
        if not forms:
            continue
        by_n = read_ngrams(path)
        rrs = []
        for n in sorted(by_n):
            hit = next(
                (r for r, g in enumerate(by_n[n], 1) if any(f in g or g in f for f in forms)),
                None,
            )
            rrs.append(1.0 / hit if hit else 0.0)
        per.append(sum(rrs) / len(rrs) if rrs else 0.0)
    return sum(per) / len(per) if per else 0.0


def check_mrr(ngram_dir: Path, gold_tsv: Path, mrr_json: Path, feature: str) -> tuple[list[str], float]:
    value = recompute_mrr(ngram_dir, gold_tsv, feature)
    reported = json.loads(mrr_json.read_text(encoding="utf-8"))["aggregates"][feature]
    errors = []
    if abs(value - reported) > 1e-9:
        errors.append(f"mrr.json says {reported}, recomputed {value}")
    if value < MRR_FLOOR:
        errors.append(f"mrr {value} below {MRR_FLOOR}")
    return errors, value


def check_map(map_dir: Path, selected: list[str]) -> list[str]:
    """The signature clusters partition the selection, and clusters.tsv
    gives each cluster's size."""
    errors = []
    seen: list[str] = []
    sizes = {}
    for path in sorted((map_dir / "clusters").glob("*.txt")):
        vids = path.read_text(encoding="utf-8").split()
        sizes[path.stem] = len(vids)
        seen += vids
    if len(seen) != len(set(seen)):
        errors.append("a verse sits in two clusters")
    if set(seen) != set(selected):
        errors.append(
            f"clusters cover {len(set(seen))} verses, selection has {len(selected)}"
        )
    summary = {r[0]: int(r[1]) for r in read_tsv(map_dir / "clusters.tsv")[1:]}
    if summary != sizes:
        errors.append("clusters.tsv sizes differ from the cluster files")
    return errors


def check_distances(dist_tsv: Path, newick: Path) -> list[str]:
    """Symmetric, zero diagonal, values in [0, 1]; tree leaves = labels."""
    rows = read_tsv(dist_tsv)
    labels = rows[0][1:]
    values = [[float(x) for x in r[1:]] for r in rows[1:]]
    errors = []
    if [r[0] for r in rows[1:]] != labels or any(len(r) != len(labels) for r in values):
        errors.append(f"{dist_tsv.name} is not a square labelled matrix")
        return errors
    for i, row in enumerate(values):
        if row[i] != 0.0:
            errors.append(f"{dist_tsv.name}: diagonal {labels[i]} is {row[i]}")
        for j, v in enumerate(row):
            if not 0.0 <= v <= 1.0:
                errors.append(f"{dist_tsv.name}: {labels[i]},{labels[j]} = {v} outside [0, 1]")
            if v != values[j][i]:
                errors.append(f"{dist_tsv.name}: asymmetric at {labels[i]},{labels[j]}")
    leaves = [
        m.strip("'").replace("''", "'")
        for m in _NEWICK_LEAF.findall(newick.read_text(encoding="utf-8"))
    ]
    if sorted(leaves) != sorted(labels) or len(leaves) != len(set(leaves)):
        errors.append(f"newick leaves {sorted(leaves)} differ from matrix labels")
    return errors


def check_mining(
    ngram_dir: Path,
    summary_json: Path,
    truth: dict,
    corpus: dict[str, dict[str, str]],
    selected: list[str],
    feature: str,
) -> list[str]:
    """Each suffix-style target ranks its planted suffix near the top at
    n = len(suffix), and scored every non-empty selected verse."""
    errors = []
    summary = json.loads(summary_json.read_text(encoding="utf-8"))
    suffix_targets = 0
    for info in truth["languages"].values():
        tid = info["translation_id"]
        path = ngram_dir / f"{tid}.tsv"
        if info["style"] != "suffix" or not path.exists():
            continue
        suffix_targets += 1
        by_n = read_ngrams(path)
        for form in info["markers"][feature]:
            if form not in by_n.get(len(form), [])[:SUFFIX_TOP]:
                errors.append(f"{tid}: planted suffix {form!r} not in top {SUFFIX_TOP}")
        verses = corpus[tid]
        expected = sum(1 for vid in selected if verses.get(vid))
        got = summary.get(tid, {}).get("verses_scored")
        if got != expected:
            errors.append(f"{tid}: verses_scored {got}, expected {expected}")
    if suffix_targets == 0:
        errors.append("no suffix-style target was mined")
    return errors


def cache_state(cache_dir: Path) -> dict[str, int]:
    """Modification time of every alignment cache file, by name."""
    if not cache_dir.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()}


def check_identical(a: Path, b: Path, skip: str = "manifest.json") -> list[str]:
    """Every file under a and b other than the manifests is byte-identical."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file() and p.name != skip}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file() and p.name != skip}
    if files_a != files_b:
        return [f"file sets differ: {sorted(map(str, files_a ^ files_b))[:5]}"]
    return [
        f"{rel} differs between {a.name} and {b.name}" for rel in sorted(files_a)
        if (a / rel).read_bytes() != (b / rel).read_bytes()
    ]
