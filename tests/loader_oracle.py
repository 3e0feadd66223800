"""The dict-per-translation corpus loader that corpus.load_corpus replaced.

It reads a file line by line and keeps {verse_id: text} per translation,
with one string per verse id shared by every translation. load_corpus is
tested against it: the same verses in the same order, the same universe,
malformed count and warnings. Like load_corpus, it raises DataError for
a file whose name matches but that holds no verse line.
"""

from __future__ import annotations

import logging
from pathlib import Path

from helpers import read_lines
from pivotmine.corpus import FILENAME_RE, is_verse_id
from pivotmine.errors import DataError

logger = logging.getLogger("pivotmine.corpus")


def load_corpus(root: str | Path) -> tuple[dict[str, tuple[str, dict[str, str]]], tuple, int]:
    """{translation_id: (iso3, {verse_id: text})}, the sorted verse-id
    universe and the malformed line count of the corpus under root,
    logging what load_corpus logs."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus directory not found: {root}")
    translations: dict[str, tuple[str, dict[str, str]]] = {}
    universe: dict[str, str] = {}
    malformed = 0
    for path in sorted(root.glob("*.txt")):
        m = FILENAME_RE.match(path.name)
        if not m:
            logger.warning("skipping %s: name does not match iso3_name.txt", path.name)
            continue
        translation_id = path.stem
        verses: dict[str, str] = {}
        duplicates = 0
        for raw in read_lines(path):
            if not raw:
                continue
            vid, sep, text = raw.partition("\t")
            if not sep:
                malformed += 1
                continue
            shared = universe.get(vid)
            if shared is None:
                if not is_verse_id(vid):
                    malformed += 1
                    continue
                shared = universe[vid] = vid
            vid = shared
            if vid in verses:
                duplicates += 1
                continue
            verses[vid] = text
        if duplicates:
            logger.warning(
                "%s: %d duplicate verse ids, first occurrence kept", translation_id, duplicates
            )
        if not verses:
            raise DataError(f"{path}: no well-formed verse line")
        translations[translation_id] = (m.group("iso3"), verses)
    if not translations:
        raise DataError(f"no usable translation files under {root}")
    if malformed:
        logger.warning("skipped %d malformed lines while loading %s", malformed, root)
    return translations, tuple(sorted(universe)), malformed
