"""Retrieval evaluation: Recall@K, distractor analysis, ablations, probes.

Rankings are produced once per sample and shared by the ground-truth and
distractor metrics.  Reports render both as an aligned text table and as CSV
with the schema benchmark, split, config_flags, metric, k, value.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .augment import AugmentedDocument, RawDocument, entity_from_image_key
from .core import ConfigError, DataError, InputError
from .datagen import QaSample
from .encoder import EncoderConfig, EncoderFlags, EncoderParams, encode_corpus, encode_query
from .encoder import QueryInput, SeededEmbeddingProvider, init_encoder_params
from .index import RetrievalIndex, SearchParams, search
from .scoring import rank_exact
from .train import TrainConfig, train


def recall_at_k(ranked: Sequence[str], gt: str, k: int) -> int:
    """1 iff the ground-truth document appears within the first k results."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not ranked:
        raise InputError("empty ranking")
    return 1 if gt in ranked[:k] else 0


def build_distractor_map(
    kb: Mapping[str, RawDocument], samples: Sequence[QaSample]
) -> dict[str, frozenset[str]]:
    """Per sample: documents whose main entity matches the query image's
    entity, excluding the ground truth."""
    by_title: dict[str, list[str]] = {}
    for doc_id in sorted(kb):
        by_title.setdefault(kb[doc_id].title.lower(), []).append(doc_id)
    out: dict[str, frozenset[str]] = {}
    for sample in samples:
        entity = entity_from_image_key(sample.query_image_key).lower()
        matches = by_title.get(entity, [])
        out[sample.sample_id] = frozenset(d for d in matches if d != sample.gt_doc_id)
    return out


def distractor_recall(
    rankings: Mapping[str, Sequence[str]],
    distractor_map: Mapping[str, frozenset[str]],
    k: int,
) -> float:
    """Fraction of samples with at least one distractor in the top k."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not rankings:
        return 0.0
    hits = 0
    for sample_id, ranked in rankings.items():
        distractors = distractor_map.get(sample_id, frozenset())
        if distractors and any(doc in distractors for doc in ranked[:k]):
            hits += 1
    return hits / len(rankings)


@dataclass(frozen=True)
class ReportRow:
    benchmark: str
    split: str
    config_flags: str
    metric: str
    k: int
    value: float


@dataclass
class EvalReport:
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, benchmark: str, split: str, flags: str, metric: str, k: int, value: float):
        if metric.startswith("recall") and not 0.0 <= value <= 1.0 + 1e-12:
            raise DataError(f"recall value {value} outside [0, 1]")
        self.rows.append(ReportRow(benchmark, split, flags, metric, k, float(value)))

    def value(self, metric: str, k: int, split: str, flags: str | None = None) -> float:
        for row in self.rows:
            if (
                row.metric == metric and row.k == k and row.split == split
                and (flags is None or row.config_flags == flags)
            ):
                return row.value
        raise KeyError(f"no report row for metric={metric} k={k} split={split} flags={flags}")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["benchmark", "split", "config_flags", "metric", "k", "value"])
        for row in self.rows:
            writer.writerow(
                [row.benchmark, row.split, row.config_flags, row.metric, row.k,
                 f"{row.value:.6f}"]
            )
        return buf.getvalue()

    def to_table_text(self) -> str:
        headers = ["benchmark", "split", "config_flags", "metric", "k", "value"]
        cells = [
            [r.benchmark, r.split, r.config_flags, r.metric, str(r.k), f"{r.value:.4f}"]
            for r in self.rows
        ]
        widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
                  for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
        return "\n".join(lines) + "\n"


DEFAULT_KS = (1, 5, 10)


def rank_samples(
    samples: Sequence[QaSample],
    corpus,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    image_only: bool = False,
    index: RetrievalIndex | None = None,
    search_params: SearchParams | None = None,
    depth: int = 10,
) -> dict[str, list[str]]:
    """One ranking pass per sample, reused by every downstream metric."""
    rankings: dict[str, list[str]] = {}
    for sample in samples:
        query = encode_query(
            QueryInput(sample.question, sample.query_image_key),
            params, config, provider, image_only=image_only,
        )
        if index is not None:
            sp = search_params or SearchParams(k=depth, candidate_doc_cap=max(256, depth))
            ranked = search(index, query, sp)
        else:
            ranked = rank_exact(query, corpus, depth)
        rankings[sample.sample_id] = [s.doc_id for s in ranked]
    return rankings


def _split_groups(samples: Sequence[QaSample]) -> list[tuple[str, list[QaSample]]]:
    """Samples grouped by split, plus every sample under "all", by split name."""
    by_split: dict[str, list[QaSample]] = {}
    for s in samples:
        by_split.setdefault(s.split or "all", []).append(s)
    by_split["all"] = list(samples)
    return [(split, by_split[split]) for split in sorted(by_split) if by_split[split]]


def evaluate_model(
    kb_raw: Mapping[str, RawDocument],
    kb_aug: Mapping[str, AugmentedDocument],
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    test_samples: Sequence[QaSample],
    flags: EncoderFlags,
    benchmark: str = "synthetic",
    image_only: bool = False,
    ks: Sequence[int] = DEFAULT_KS,
    with_distractors: bool = True,
    *,
    index: RetrievalIndex | None = None,
    search_params: SearchParams | None = None,
) -> EvalReport:
    """Rank every sample and report recalls per split.

    Without an index the corpus is encoded under `flags` and scored exactly;
    with one, samples are ranked by `search` and `flags` only labels the rows.
    """
    corpus = None if index is not None else encode_corpus(kb_aug, params, config, provider, flags)
    rankings = rank_samples(
        test_samples, corpus, params, config, provider, image_only=image_only,
        index=index, search_params=search_params, depth=max(ks),
    )
    report = EvalReport()
    label = flags.label() + ("|image-only" if image_only else "")
    groups = _split_groups(test_samples)
    for split, group in groups:
        for k in ks:
            value = sum(
                recall_at_k(rankings[s.sample_id], s.gt_doc_id, k) for s in group
            ) / len(group)
            report.add(benchmark, split, label, "recall", k, value)
    if with_distractors:
        dmap = build_distractor_map(kb_raw, test_samples)
        for split, group in groups:
            sub = {s.sample_id: rankings[s.sample_id] for s in group}
            for k in ks:
                report.add(
                    benchmark, split, label, "distractor_recall", k,
                    distractor_recall(sub, dmap, k),
                )
    return report


def train_and_evaluate(
    kb_raw: Mapping[str, RawDocument],
    kb_aug: Mapping[str, AugmentedDocument],
    train_samples: Sequence[QaSample],
    test_samples: Sequence[QaSample],
    flags: EncoderFlags,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    provider=None,
    benchmark: str = "synthetic",
    image_only: bool = False,
    ks: Sequence[int] = DEFAULT_KS,
) -> tuple[EvalReport, EncoderParams]:
    provider = provider or SeededEmbeddingProvider(encoder_config)
    params = init_encoder_params(encoder_config, train_config.seed)
    cfg = replace(train_config, flags=flags, image_only=image_only)
    params, _ = train(train_samples, kb_aug, cfg, params, encoder_config, provider)
    report = evaluate_model(
        kb_raw, kb_aug, params, encoder_config, provider, test_samples,
        flags, benchmark=benchmark, image_only=image_only, ks=ks,
    )
    return report, params


def run_ablation(
    kb_raw: Mapping[str, RawDocument],
    kb_aug: Mapping[str, AugmentedDocument],
    train_samples: Sequence[QaSample],
    test_samples: Sequence[QaSample],
    rows: Sequence[EncoderFlags],
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    provider=None,
    benchmark: str = "synthetic",
    ks: Sequence[int] = DEFAULT_KS,
) -> EvalReport:
    """One trained model per flag row (shared seed), merged into one report."""
    report = EvalReport()
    for flags in rows:
        row_report, _ = train_and_evaluate(
            kb_raw, kb_aug, train_samples, test_samples, flags,
            encoder_config, train_config, provider, benchmark, ks=ks,
        )
        report.rows.extend(row_report.rows)
    return report


def run_shortcut_probe(
    kb_raw: Mapping[str, RawDocument],
    kb_aug: Mapping[str, AugmentedDocument],
    train_samples: Sequence[QaSample],
    test_samples: Sequence[QaSample],
    mode: str,
    flags: EncoderFlags,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    provider=None,
    benchmark: str = "synthetic",
    ks: Sequence[int] = DEFAULT_KS,
) -> EvalReport:
    """Train and evaluate with full or image-only queries.

    mode "image_only" drops projected text tokens from the query feature set
    at both training and evaluation time; "image_text" is the standard path.
    """
    if mode not in ("image_only", "image_text"):
        raise ConfigError(f"unknown probe mode {mode!r}")
    report, _ = train_and_evaluate(
        kb_raw, kb_aug, train_samples, test_samples, flags,
        encoder_config, train_config, provider, benchmark,
        image_only=(mode == "image_only"), ks=ks,
    )
    return report
