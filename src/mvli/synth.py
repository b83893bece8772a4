"""Synthetic KB and benchmark generator.

Produces a closed knowledge base of invented entities whose bodies are
relation sentences over sampled neighbor entities, guaranteeing dictionary
linkability, plus benchmark splits mixing two sample styles:

* shortcut samples pair the question with an image of the ground-truth
  document's own main entity (legacy-benchmark style), while
* shortcut-free samples run the full qualifying-entity pipeline, so the query
  image always shows a related, non-main entity.

Both styles are drafted by `datagen.draft_pool`, the loop `mvli datagen`
runs without shortcut drafts; this module partitions the drafted pool into
the splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .augment import AugmentedDocument, RawDocument, augment_kb, image_key_for_entity
from .core import ConfigError, DataError, GenerationError, Rng
from .datagen import DEFAULT_SYNONYMS, QaSample, RejectedSample, draft_pool, split_seen_unseen

VERB_PHRASES: tuple[str, ...] = (
    "feeds upon", "guards", "borders", "orbits", "rivals", "mirrors",
    "shelters", "trades with", "venerates", "patrols", "summons", "banishes",
    "cultivates", "harvests", "echoes", "governs", "defends", "follows",
    "contains", "surrounds", "overlooks", "supplies", "escorts", "signals",
    "stores", "repels", "welcomes", "avoids", "joins", "crosses", "shadows",
)

TYPE_NOUNS: tuple[str, ...] = (
    "creature", "plant", "region", "city", "river", "temple", "vessel",
    "garden", "market", "tower", "bridge", "forest", "island", "castle",
    "valley", "harbor",
)

_TEMPLATE_WORDS = {"which", "this", "given", "that", "it", "name", "the"}
_RESERVED = (
    _TEMPLATE_WORDS
    | {w for phrase in VERB_PHRASES for w in phrase.split()}
    | set(DEFAULT_SYNONYMS)
    | set(DEFAULT_SYNONYMS.values())
    | set(TYPE_NOUNS)
)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale benchmark knobs.

    entities_per_doc is the mean number of related-entity mentions per body
    (the full-scale corpora this emulates average about 4.3).  Split sizes
    that are not set default to 2 * n_docs training and n_docs // 4 per test
    split, each capped at the samples that can reach its split; a size that is
    set and cannot be met is a GenerationError naming its knob.
    """

    n_docs: int = 200
    entities_per_doc: float = 4.3
    fraction_shortcut: float = 0.0
    typemap_size: int = 12
    seed: int = 0
    samples_per_doc: int = 8
    unseen_doc_fraction: float = 0.25
    n_train: int | None = None
    n_test_seen: int | None = None
    n_test_unseen: int | None = None

    def __post_init__(self):
        if self.n_docs < 2:
            raise ConfigError("n_docs must be >= 2")
        if not 0.0 <= self.fraction_shortcut <= 1.0:
            raise ConfigError("fraction_shortcut must lie in [0, 1]")
        if not (math.isfinite(self.entities_per_doc) and self.entities_per_doc >= 1.0):
            raise ConfigError("entities_per_doc must be finite and >= 1")
        if not 1 <= self.typemap_size <= len(TYPE_NOUNS):
            raise ConfigError(f"typemap_size must lie in [1, {len(TYPE_NOUNS)}]")
        if self.samples_per_doc < 1:
            raise ConfigError("samples_per_doc must be >= 1")
        if not 0.0 < self.unseen_doc_fraction < 1.0:
            raise ConfigError("unseen_doc_fraction must lie in (0, 1)")
        for knob in ("n_train", "n_test_seen", "n_test_unseen"):
            if (getattr(self, knob) or 0) < 0:
                raise ConfigError(f"{knob} must be >= 0")


def _entity_names(rng: Rng, count: int) -> list[str]:
    """Distinct capitalized two-word names outside the reserved vocabulary.

    Every 6-letter word is globally unique across all names, so no entity
    surface can occur inside another and dictionary matching never produces
    partial collisions.
    """
    gen = rng.generator()
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < 2 * count:
        letters = []
        for i in range(6):
            pool = _CONSONANTS if i % 2 == 0 else _VOWELS
            letters.append(pool[int(gen.integers(len(pool)))])
        word = "".join(letters)
        if word in seen or word in _RESERVED:
            continue
        seen.add(word)
        words.append(word)
    return [
        f"{words[2 * i].capitalize()} {words[2 * i + 1].capitalize()}"
        for i in range(count)
    ]


def assign_typemap(titles: Sequence[str], cfg: SynthConfig) -> dict[str, str]:
    gen = Rng(cfg.seed).split("typemap").generator()
    nouns = TYPE_NOUNS[: cfg.typemap_size]
    return {title: nouns[int(gen.integers(len(nouns)))] for title in sorted(titles)}


def generate_kb(cfg: SynthConfig) -> dict[str, RawDocument]:
    """Closed KB: every mentioned entity is itself a document title."""
    rng = Rng(cfg.seed).split("kb")
    titles = _entity_names(rng.split("names"), cfg.n_docs)
    gen = rng.split("structure").generator()
    kb: dict[str, RawDocument] = {}
    width = len(str(cfg.n_docs - 1))
    for i, title in enumerate(titles):
        others = titles[:i] + titles[i + 1:]
        mean_extra = cfg.entities_per_doc - 1.0
        count = 1 + (int(gen.poisson(mean_extra)) if mean_extra > 0 else 0)
        count = min(count, len(others))
        neighbor_idx = gen.choice(len(others), size=count, replace=False)
        sentences = []
        for j in sorted(int(x) for x in neighbor_idx):
            vp = VERB_PHRASES[int(gen.integers(len(VERB_PHRASES)))]
            sentences.append(f"{title} {vp} {others[j]}.")
        doc_id = f"d{i:0{width}d}"
        kb[doc_id] = RawDocument(
            doc_id=doc_id,
            title=title,
            body=" ".join(sentences),
            main_image_key=image_key_for_entity(title),
        )
    return kb


@dataclass(frozen=True)
class BenchmarkSplits:
    train: tuple[QaSample, ...]
    test_seen: tuple[QaSample, ...]
    test_unseen: tuple[QaSample, ...]
    rejected: tuple[RejectedSample, ...]


def generate_benchmark(
    kb: Mapping[str, RawDocument],
    cfg: SynthConfig,
    typemap: Mapping[str, str] | None = None,
    *,
    augmented: Mapping[str, AugmentedDocument] | None = None,
) -> BenchmarkSplits:
    """Train/seen/unseen splits with the configured shortcut mixing ratio.

    Unseen-test documents contribute no training samples, so unseen split
    ground truths are disjoint from training ground truths by construction.
    The pool comes from `draft_pool`.  `augmented` is `augment_kb(kb)`, for
    callers that already hold it; it is computed here when not given, and a
    given one whose documents are not `kb`'s is a DataError.
    """
    if typemap is None:
        typemap = assign_typemap([doc.title for doc in kb.values()], cfg)
    if augmented is None:
        augmented = augment_kb(kb)
    elif set(augmented) != set(kb):
        raise DataError("augmented KB does not cover the same documents as the KB")
    else:
        for doc_id in sorted(kb):
            if augmented[doc_id].raw != kb[doc_id]:
                raise DataError(f"augmented KB holds another version of document {doc_id!r}")
    rng = Rng(cfg.seed).split("benchmark")

    doc_ids = sorted(kb)
    shuffled = list(doc_ids)
    rng.split("doc-partition").generator().shuffle(shuffled)
    n_unseen_docs = max(1, round(cfg.unseen_doc_fraction * len(doc_ids)))
    unseen_docs = set(shuffled[:n_unseen_docs])

    pool, rejected = draft_pool(augmented, typemap, rng, cfg.samples_per_doc,
                                cfg.fraction_shortcut)

    train_pool: list[QaSample] = []
    seen_candidates: list[QaSample] = []
    unseen_pool: list[QaSample] = []
    by_doc: dict[str, list[QaSample]] = {}
    for sample in pool:
        by_doc.setdefault(sample.gt_doc_id, []).append(sample)
    for doc_id in sorted(by_doc):
        doc_samples = by_doc[doc_id]
        if doc_id in unseen_docs:
            unseen_pool.extend(doc_samples)
        elif len(doc_samples) == 1:
            train_pool.extend(doc_samples)
        else:
            train_pool.extend(doc_samples[:-1])
            seen_candidates.append(doc_samples[-1])

    pick_rng = rng.split("split-selection")
    seen_target = _target(cfg.n_test_seen, cfg.n_docs // 4, seen_candidates)
    unseen_target = _target(cfg.n_test_unseen, cfg.n_docs // 4, unseen_pool)
    test_seen = _take(seen_candidates, seen_target, pick_rng.split("seen"), "n_test_seen")
    test_unseen = _take(unseen_pool, unseen_target, pick_rng.split("unseen"), "n_test_unseen")
    train_target = _target(cfg.n_train, 2 * cfg.n_docs, train_pool)

    required_docs = sorted({s.gt_doc_id for s in test_seen})
    if train_target < len(required_docs):
        raise GenerationError(f"synth.n_train ({train_target}) cannot cover the "
                              f"{len(required_docs)} seen-test documents")
    chosen: list[QaSample] = []
    remaining: list[QaSample] = []
    covered: set[str] = set()
    for sample in train_pool:
        if sample.gt_doc_id in required_docs and sample.gt_doc_id not in covered:
            covered.add(sample.gt_doc_id)
            chosen.append(sample)
        else:
            remaining.append(sample)
    fill = _take(remaining, train_target - len(chosen), pick_rng.split("train"), "n_train")
    train = sorted(chosen + fill, key=lambda s: s.sample_id)

    train_gt_ids = {s.gt_doc_id for s in train}
    train = split_seen_unseen(train, train_gt_ids)
    test_seen = split_seen_unseen(test_seen, train_gt_ids)
    test_unseen = split_seen_unseen(test_unseen, train_gt_ids)
    if any(s.split != "seen" for s in test_seen):
        raise GenerationError("seen-test construction failed to overlap training")
    if any(s.split != "unseen" for s in test_unseen):
        raise GenerationError("unseen-test construction leaked into training")
    return BenchmarkSplits(
        train=tuple(train),
        test_seen=tuple(test_seen),
        test_unseen=tuple(test_unseen),
        rejected=tuple(rejected),
    )


def _target(explicit: int | None, default: int, pool: list[QaSample]) -> int:
    """A split size that was set, or the default capped at the split's pool."""
    return explicit if explicit is not None else min(default, len(pool))


def _take(samples: list[QaSample], count: int, rng: Rng, knob: str) -> list[QaSample]:
    if count > len(samples):
        raise GenerationError(
            f"insufficient eligible samples for synth.{knob}: wanted {count}, "
            f"pool has {len(samples)}"
        )
    order = rng.generator().permutation(len(samples))
    picked = [samples[int(i)] for i in order[:count]]
    return sorted(picked, key=lambda s: s.sample_id)
