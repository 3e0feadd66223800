"""The per-verse synthetic corpus generator that synth._generate replaced.

It draws each verse's word jitter with one random.uniform call per word
and sorts every verse's words on its own. synth._generate must make the
same draws from the same sub-streams in the same order, so it is tested
against this: the same verses in the same order, language codes,
families and ledger.
"""

from __future__ import annotations

from pivotmine.synth import (
    CONTENT_CONSONANTS,
    MARKER_CONSONANTS,
    VOWELS,
    SynthSpec,
    _sub_rng,
    translation_id_for,
)


def generate(
    spec: SynthSpec,
) -> tuple[dict[str, dict[str, str]], dict[str, str], dict[str, str], dict]:
    """synth._generate's result: the corpus as {translation_id: {verse_id:
    text}} (ids ascending), the language code of each translation, the
    language families and the ledger."""
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

    prefixes = [c + v for c in CONTENT_CONSONANTS for v in VOWELS]
    marker_sylls = [c + v for c in MARKER_CONSONANTS for v in VOWELS]

    translations: dict[str, dict[str, str]] = {}
    iso3_of: dict[str, str] = {}
    truth_langs: dict[str, dict] = {}
    families: dict[str, str] = {}
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
        verses: dict[str, str] = {}
        marked: dict[str, list[str]] = {f: [] for f in feature_names}
        for vid, label, concepts in plans:
            if (
                spec.verse_missing
                and lang.iso3 != spec.query_iso3
                and miss_rng.random() < spec.verse_missing
            ):
                continue
            body = list(concepts)
            if len(body) > 1 and spec.jitter > 0:
                head = body[:-1]
                keys = [
                    idx + order_rng.uniform(-spec.jitter, spec.jitter)
                    for idx in range(len(head))
                ]
                head = [c for _, c in sorted(zip(keys, head), key=lambda t: t[0])]
                body = head + [body[-1]]
            words = [lexicon[c] for c in body]
            mark = None
            if (
                label is not None
                and lang.style != "none"
                and vid in keep[(lang.family, label)]
            ):
                if spec.marker_drop == 0 or noise_rng.random() >= spec.marker_drop:
                    options = forms[label]
                    mark = (
                        options[0]
                        if len(options) == 1
                        else options[noise_rng.randrange(len(options))]
                    )
            if mark is not None:
                if lang.style == "particle":
                    words = words[:-1] + [mark, words[-1]]
                else:
                    words = words[:-1] + [words[-1] + mark]
                marked[label].append(vid)
            verses[vid] = " ".join(words)
        tid = translation_id_for(lang.iso3)
        translations[tid] = verses
        iso3_of[tid] = lang.iso3
        families[lang.iso3] = lang.family
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
    return translations, iso3_of, families, truth
