"""Deterministic synthetic multiparallel corpora with planted markers.

Every language renders the same per-verse concept sequence in its own
disjoint vocabulary; labeled verses get a feature marker according to the
language's marking style. The verb concept is verse-final in every
language, particles sit immediately before it and suffixes attach to it,
so the linear-alignment assumption of the mining stage holds by
construction. Marker strings are built from a syllable alphabet content
words never use, which makes the planted marker the unique best-associated
surface.
"""

from __future__ import annotations

import hashlib
import logging
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import is_scalar, read_fields, read_json_object
from .corpus import MultiCorpus, build_corpus, write_verses
from .errors import ConfigError
from .textio import Reader, Writer, read_bytes, write_bytes, write_json, write_lines

logger = logging.getLogger(__name__)

CONTENT_CONSONANTS = "bdfghjlmnprstvwz"
MARKER_CONSONANTS = "ckqxy"
VOWELS = "aeiou"

STYLES = ("particle", "suffix", "none")

_ISO3_RE = re.compile(r"^[a-z]{3}$")


@dataclass(frozen=True)
class LanguageSpec:
    """One synthetic language: how (and whether) it marks features."""

    iso3: str
    style: str
    family: str
    markers: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def marker_map(self) -> dict[str, tuple[str, ...]] | None:
        return dict(self.markers) if self.markers is not None else None


@dataclass(frozen=True)
class SynthSpec:
    """Full recipe for one synthetic corpus; the seed fixes everything.

    A SynthSpec is checked when it is built, dataclasses.replace included:
    a bad value raises ConfigError.
    """

    n_verses: int
    features: tuple[tuple[str, float], ...]
    languages: tuple[LanguageSpec, ...]
    query_iso3: str
    query_forms: int = 2
    marker_drop: float = 0.0
    jitter: float = 1.0
    family_keep: float = 1.0
    verse_missing: float = 0.0
    min_words: int = 5
    max_words: int = 9
    vocabulary_size: int = 60  # concepts, and content words per language
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_verses < 1:
            raise ConfigError("n_verses must be >= 1")
        if not self.features:
            raise ConfigError("features must name at least one feature")
        total = sum(p for _, p in self.features)
        if any(p <= 0 for _, p in self.features) or total > 1.0 + 1e-9:
            raise ConfigError("features' probabilities must be positive and sum to <= 1")
        if len({f for f, _ in self.features}) != len(self.features):
            raise ConfigError("features names a feature twice")
        if not self.languages:
            raise ConfigError("languages must hold at least one language")
        if len(self.languages) > len(CONTENT_CONSONANTS) * len(VOWELS):
            raise ConfigError(
                f"languages has more than {len(CONTENT_CONSONANTS) * len(VOWELS)} entries, "
                "too many for distinct word prefixes"
            )
        seen = set()
        for lang in self.languages:
            if not _ISO3_RE.match(lang.iso3):
                raise ConfigError(f"bad iso3 code {lang.iso3!r}")
            if lang.iso3 in seen:
                raise ConfigError(f"duplicate language {lang.iso3!r}")
            seen.add(lang.iso3)
            if lang.style not in STYLES:
                raise ConfigError(f"unknown style {lang.style!r}")
        query = next(
            (l for l in self.languages if l.iso3 == self.query_iso3), None
        )
        if query is None:
            raise ConfigError(f"query_iso3 {self.query_iso3!r} is not in languages")
        if query.style != "particle":
            raise ConfigError("query language must be particle-style")
        if not 1 <= self.min_words <= self.max_words:
            raise ConfigError("need 1 <= min_words <= max_words")
        if self.vocabulary_size < self.max_words:
            raise ConfigError("vocabulary_size must be >= max_words")
        if not 0.0 <= self.marker_drop < 1.0:
            raise ConfigError("marker_drop must lie in [0, 1)")
        if not 0.0 < self.family_keep <= 1.0:
            raise ConfigError("family_keep must lie in (0, 1]")
        if not 0.0 <= self.verse_missing < 1.0:
            raise ConfigError("verse_missing must lie in [0, 1)")
        if self.query_forms < 1:
            raise ConfigError("query_forms must be >= 1")
        auto_particle = any(
            l.style == "particle" and l.markers is None for l in self.languages
        )
        if auto_particle and len(self.features) > len(VOWELS):
            raise ConfigError("auto particle markers need one vowel per feature")
        if auto_particle and self.query_forms > len(MARKER_CONSONANTS):
            raise ConfigError("query_forms exceeds the marker consonant pool")
        if self.jitter < 0:
            raise ConfigError("jitter must be >= 0")


def _sub_rng(seed: int, *tags: str) -> random.Random:
    digest = hashlib.sha256(
        ("|".join([str(seed), *tags])).encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draws(rng: random.Random, count: int) -> np.ndarray:
    """The next count values of rng.random(), in order, built in bulk.

    random() takes two consecutive 32-bit outputs w0, w1 of the generator
    and returns ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53. getrandbits(64 *
    count) draws the same 2 * count outputs and returns them least
    significant first, so the values and the generator's state after them
    are those of count calls to random().
    """
    bits = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(bits, dtype="<u4").astype(np.uint64).reshape(count, 2)
    mantissas = (words[:, 0] >> 5 << 26) | (words[:, 1] >> 6)
    return mantissas * 2.0**-53


def translation_id_for(iso3: str) -> str:
    return f"{iso3}_synth"


def generate(spec: SynthSpec) -> tuple[MultiCorpus, dict]:
    """Build the corpus and its ground-truth ledger.

    The ledger records verse labels, each language's style, family and
    marker forms, the verses it actually marked (after family subsetting
    and drop noise), and the query definition.
    """
    verses, truth = _generate(spec)
    languages = truth["languages"]
    iso3 = {info["translation_id"]: code for code, info in languages.items()}
    families = {code: info["family"] for code, info in languages.items()}
    return build_corpus(verses, iso3, families), truth


def _generate(spec: SynthSpec) -> tuple[dict[str, dict[str, str]], dict]:
    """generate's corpus as {translation_id: {verse_id: text}} (ids
    ascending), and its ledger, which holds each language's code, family
    and translation id.

    Each random choice comes from its own stream seeded by the spec's seed
    and a tag (_sub_rng), and each stream is drawn in verse order, so the
    streams can be drawn one after another. A language's streams are its
    lexicon and markers, then one missing draw per verse (outside the query
    language, when verse_missing > 0), one jitter draw per word of each
    present verse but its final verb (when jitter > 0), and for each verse
    it marks a drop draw (when marker_drop > 0) followed by a form draw
    (when it has several forms). The verses of one length are reordered
    together by one stable argsort over their jitter keys.
    """
    feature_names = [f for f, _ in spec.features]

    label_rng = _sub_rng(spec.seed, "labels")
    content_rng = _sub_rng(spec.seed, "content")
    plans: list[tuple[str, str | None, list[int]]] = []
    for i in range(spec.n_verses):
        vid = f"{i + 1:08d}"
        r = label_rng.random()
        label = None
        acc = 0.0
        for name, prob in spec.features:
            acc += prob
            if r < acc:
                label = name
                break
        length = content_rng.randint(spec.min_words, spec.max_words)
        concepts = content_rng.sample(range(spec.vocabulary_size), length)
        plans.append((vid, label, concepts))

    labeled = {
        f: [vid for vid, lab, _ in plans if lab == f] for f in feature_names
    }
    keep: dict[tuple[str, str], set[str]] = {}
    for fam in sorted({l.family for l in spec.languages}):
        for f in feature_names:
            rng = _sub_rng(spec.seed, "family", fam, f)
            keep[(fam, f)] = {
                vid for vid in labeled[f] if rng.random() < spec.family_keep
            }

    vids = [vid for vid, _, _ in plans]
    labels = [label for _, label, _ in plans]
    lengths = np.array([len(concepts) for _, _, concepts in plans])
    # (verse indices, their concept rows) for each verse length
    of_length: dict[int, list[int]] = {}
    for k, (_, _, concepts) in enumerate(plans):
        of_length.setdefault(len(concepts), []).append(k)
    by_length = [
        (np.array(ks), np.array([plans[k][2] for k in ks])) for ks in of_length.values()
    ]
    jitter_lo, jitter_span = -spec.jitter, spec.jitter - -spec.jitter

    prefixes = [c + v for c in CONTENT_CONSONANTS for v in VOWELS]
    marker_sylls = [c + v for c in MARKER_CONSONANTS for v in VOWELS]

    translations: dict[str, dict[str, str]] = {}
    truth_langs: dict[str, dict] = {}
    query_truth: dict | None = None
    for li, lang in enumerate(spec.languages):
        rng = _sub_rng(spec.seed, "lang", lang.iso3)
        prefix = prefixes[li]
        lexicon: list[str] = []
        seen: set[str] = set()
        for _ in range(spec.vocabulary_size):
            while True:
                # variable word length keeps boundary grams aperiodic, so
                # no window phase can correlate with them systematically
                body = rng.randint(1, 3)
                word = prefix + "".join(
                    rng.choice(prefixes) for _ in range(body)
                )
                if word not in seen:
                    break
            seen.add(word)
            lexicon.append(word)

        forms: dict[str, tuple[str, ...]] = {}
        if lang.style != "none":
            given = lang.marker_map()
            if given is not None:
                forms = {f: tuple(v) for f, v in given.items()}
            else:
                n_forms = (
                    spec.query_forms if lang.iso3 == spec.query_iso3 else 1
                )
                if lang.style == "particle":
                    # one consonant per form slot shared across features plus
                    # one vowel per feature: boundary grams then spread over
                    # every feature while the syllable stays feature-clean
                    slots = rng.sample(MARKER_CONSONANTS, n_forms)
                    feature_vowels = rng.sample(VOWELS, len(feature_names))
                    for f, vowel in zip(feature_names, feature_vowels):
                        forms[f] = tuple(c + vowel for c in slots)
                else:
                    used: set[str] = set()
                    for f in feature_names:
                        out = []
                        for _ in range(n_forms):
                            while True:
                                m = rng.choice(marker_sylls)
                                if m not in used:
                                    break
                            used.add(m)
                            out.append(m)
                        forms[f] = tuple(out)

        noise_rng = _sub_rng(spec.seed, "noise", lang.iso3)
        order_rng = _sub_rng(spec.seed, "order", lang.iso3)
        miss_rng = _sub_rng(spec.seed, "missing", lang.iso3)
        if spec.verse_missing and lang.iso3 != spec.query_iso3:
            present = _draws(miss_rng, spec.n_verses) >= spec.verse_missing
        else:
            present = np.ones(spec.n_verses, dtype=bool)
        if spec.jitter > 0:
            n_draws = np.where(present, lengths - 1, 0)
            first_draw = np.cumsum(n_draws) - n_draws
            # random.uniform(lo, hi) is lo + (hi - lo) * random()
            shift = jitter_lo + jitter_span * _draws(order_rng, int(n_draws.sum()))
        words_of: list[list[str] | None] = [None] * spec.n_verses
        lexicon_of = np.array(lexicon, dtype=object)
        for ks, rows in by_length:
            here = present[ks]
            ks, rows = ks[here], rows[here]
            width = rows.shape[1] - 1
            if width and spec.jitter > 0:
                pos = np.arange(width)
                keys = pos + shift[first_draw[ks][:, None] + pos]
                order = np.argsort(keys, axis=1, kind="stable")
                rows[:, :-1] = np.take_along_axis(rows[:, :-1], order, axis=1)
            for k, words in zip(ks.tolist(), lexicon_of[rows].tolist()):
                words_of[k] = words

        noise, pick = noise_rng.random, noise_rng.randrange
        drop = spec.marker_drop
        suffix = lang.style == "suffix"
        # the verses this language marks per label: none unlabeled, none
        # in an unmarked language
        kept: dict[str | None, set[str] | tuple] = dict.fromkeys([None, *feature_names], ())
        if lang.style != "none":
            kept.update((f, keep[(lang.family, f)]) for f in feature_names)
        verses: dict[str, str] = {}
        marked: dict[str, list[str]] = {f: [] for f in feature_names}
        for vid, label, words in zip(vids, labels, words_of):
            if words is None:
                continue
            if vid in kept[label] and (drop == 0 or noise() >= drop):
                options = forms[label]
                mark = options[0] if len(options) == 1 else options[pick(len(options))]
                if suffix:
                    words[-1] += mark
                else:
                    words.insert(-1, mark)
                marked[label].append(vid)
            verses[vid] = " ".join(words)
        tid = translation_id_for(lang.iso3)
        translations[tid] = verses
        truth_langs[lang.iso3] = {
            "style": lang.style,
            "family": lang.family,
            "translation_id": tid,
            "markers": {f: list(v) for f, v in forms.items()},
            "marked": marked,
        }
        if lang.iso3 == spec.query_iso3:
            query_truth = {
                "iso3": lang.iso3,
                "translation_id": tid,
                "forms": {f: list(v) for f, v in forms.items()},
            }

    truth = {
        "seed": spec.seed,
        "n_verses": spec.n_verses,
        "features": {f: p for f, p in spec.features},
        "labels": {vid: (lab or "") for vid, lab, _ in plans},
        "languages": truth_langs,
        "query": query_truth,
    }
    return translations, truth


# --- on-disk form ----------------------------------------------------------


def write_synth(spec: SynthSpec, out_dir: str | Path, write: Writer = write_bytes) -> None:
    """Generate and write corpus plus companion files under out_dir,
    through write; it builds no MultiCorpus (generate does).

    Layout: corpus/{iso3}_synth.txt, ground_truth.json, queries.tsv,
    allowlist.txt (non-query particle languages), gold.tsv (planted
    marker forms per marking translation and feature), families.tsv.
    """
    verses, truth = _generate(spec)
    out_dir = Path(out_dir)
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for tid in sorted(verses):
        texts = verses[tid]
        write_verses(corpus_dir / f"{tid}.txt", ((vid, texts[vid]) for vid in sorted(texts)), write)
    write_json(out_dir / "ground_truth.json", truth, write)
    feature_names = [f for f, _ in spec.features]
    query = truth["query"]
    qlines = [
        f"{f}\t{query['translation_id']}\t{','.join(query['forms'][f])}"
        for f in feature_names
    ]
    write_lines(out_dir / "queries.tsv", qlines, write)
    allow = [
        l.iso3
        for l in spec.languages
        if l.style == "particle" and l.iso3 != spec.query_iso3
    ]
    write_lines(out_dir / "allowlist.txt", allow, write)
    glines = []
    for lang in spec.languages:
        info = truth["languages"][lang.iso3]
        for f in feature_names:
            forms = info["markers"].get(f)
            if forms:
                glines.append(f"{info['translation_id']}\t{f}\t{','.join(forms)}")
    write_lines(out_dir / "gold.tsv", glines, write)
    flines = [f"{l.iso3}\t{l.family}" for l in spec.languages]
    write_lines(out_dir / "families.tsv", flines, write)


def _iso_series(letter: str, count: int) -> list[str]:
    if count > 26:
        raise ConfigError("series limited to 26 codes")
    return [f"{letter}{chr(ord('a') + i)}a" for i in range(count)]


def preset_marking24(seed: int = 11) -> SynthSpec:
    """24 languages, 3000 verses: 16 particle (one is the query),
    4 suffix, 4 unmarked; 5% marker drop."""
    langs = [LanguageSpec("qaa", "particle", "fam_query")]
    langs += [
        LanguageSpec(iso, "particle", f"fam_p{i}")
        for i, iso in enumerate(_iso_series("p", 15))
    ]
    langs += [
        LanguageSpec(iso, "suffix", f"fam_s{i}")
        for i, iso in enumerate(_iso_series("s", 4))
    ]
    langs += [
        LanguageSpec(iso, "none", f"fam_n{i}")
        for i, iso in enumerate(_iso_series("n", 4))
    ]
    return SynthSpec(
        n_verses=3000,
        features=(("past", 0.3), ("present", 0.3), ("future", 0.25)),
        languages=tuple(langs),
        query_iso3="qaa",
        query_forms=2,
        marker_drop=0.05,
        jitter=1.0,
        seed=seed,
    )


def preset_families28(seed: int = 13) -> SynthSpec:
    """28 particle languages: 4 families of 5 sharing marking subsets,
    plus 8 isolates with independent subsets."""
    langs = [LanguageSpec("qaa", "particle", "famA")]
    series = _iso_series("b", 4) + _iso_series("c", 5) + _iso_series("d", 5) + _iso_series("e", 5)
    fams = ["famA"] * 4 + ["famB"] * 5 + ["famC"] * 5 + ["famD"] * 5
    langs += [
        LanguageSpec(iso, "particle", fam) for iso, fam in zip(series, fams)
    ]
    langs += [
        LanguageSpec(iso, "particle", f"iso_{iso}")
        for iso in _iso_series("z", 8)
    ]
    return SynthSpec(
        n_verses=2000,
        features=(("past", 0.3), ("present", 0.3), ("future", 0.25)),
        languages=tuple(langs),
        query_iso3="qaa",
        query_forms=2,
        marker_drop=0.02,
        jitter=1.0,
        family_keep=0.4,
        seed=seed,
    )


def preset_tiny8(seed: int = 7) -> SynthSpec:
    """Small fast corpus for CLI and determinism checks."""
    langs = [LanguageSpec("qaa", "particle", "famA")]
    langs += [LanguageSpec(iso, "particle", "famA") for iso in _iso_series("p", 4)]
    langs += [LanguageSpec(iso, "suffix", "famB") for iso in _iso_series("s", 2)]
    langs.append(LanguageSpec("naa", "none", "famC"))
    return SynthSpec(
        n_verses=400,
        features=(("past", 0.3), ("present", 0.3), ("future", 0.25)),
        languages=tuple(langs),
        query_iso3="qaa",
        query_forms=2,
        marker_drop=0.03,
        jitter=1.0,
        verse_missing=0.02,
        vocabulary_size=40,
        seed=seed,
    )


PRESETS = {
    "marking24": preset_marking24,
    "families28": preset_families28,
    "tiny8": preset_tiny8,
}


def spec_from_json(path: str | Path, read: Reader = read_bytes) -> SynthSpec:
    """Load a SynthSpec from JSON; a bad key or value type is a config error.

    The keys are the fields of SynthSpec and of LanguageSpec, read with
    config.read_fields. features is a list of [name, probability] pairs,
    languages a list of objects, and a language's markers map each feature
    to a list of forms. SynthSpec checks the values' ranges.
    """
    raw = read_fields(read_json_object(path, "synth spec", read), SynthSpec, "synth spec")
    features, langs = raw["features"], raw["languages"]
    if not isinstance(features, list) or not all(
        isinstance(f, list) and len(f) == 2 and is_scalar(f[0], "str") and is_scalar(f[1], "float")
        for f in features
    ):
        raise ConfigError("features must be a list of [name, probability] pairs")
    if not isinstance(langs, list) or not all(isinstance(entry, dict) for entry in langs):
        raise ConfigError("languages must be a list of objects")
    langs = [read_fields(entry, LanguageSpec, "language") for entry in langs]
    for lang in langs:
        markers = lang.get("markers")
        if markers is None:
            continue
        if not isinstance(markers, dict) or not all(
            isinstance(forms, list) and all(is_scalar(m, "str") for m in forms)
            for forms in markers.values()
        ):
            raise ConfigError("markers must map each feature to a list of forms")
        lang["markers"] = tuple((f, tuple(forms)) for f, forms in sorted(markers.items()))
    return SynthSpec(**{
        **raw,
        "features": tuple((f, float(p)) for f, p in features),
        "languages": tuple(LanguageSpec(**lang) for lang in langs),
    })
