"""Exact late-interaction relevance scoring between feature sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import ConfigError, FeatureSet, InputError, ShapeError


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float


def late_interaction_score(query: FeatureSet, doc: FeatureSet) -> float:
    """Sum over query tokens of the maximum similarity to any document token."""
    if query.dim != doc.dim:
        raise ShapeError(f"dimension mismatch: query {query.dim} vs document {doc.dim}")
    return float((query.vectors @ doc.vectors.T).max(axis=1).sum())


def rank_exact(
    query: FeatureSet, corpus: Mapping[str, FeatureSet], k: int
) -> list[ScoredDoc]:
    """Brute-force top-k ranking; ties broken by ascending doc_id.

    Serves as the exact oracle for the compressed index.
    """
    if not corpus:
        raise InputError("cannot rank over an empty corpus")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scored = [
        ScoredDoc(doc_id, late_interaction_score(query, doc))
        for doc_id, doc in corpus.items()
    ]
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    return scored[:k]
