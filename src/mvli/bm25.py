"""Okapi BM25 over an inverted index, used by the lexical-leak filter.

Uses the classic Robertson idf log((N - df + 0.5) / (df + 0.5)), which can be
negative for terms occurring in more than half the corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

from .core import InputError, tokenize

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class Bm25Index:
    """Inverted index over tokenized document bodies."""

    def __init__(self, bodies: Mapping[str, str], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        if not bodies:
            raise InputError("cannot index an empty corpus")
        self.k1 = k1
        self.b = b
        self.doc_count = len(bodies)
        self.doc_len: dict[str, int] = {}
        self.postings: dict[str, dict[str, int]] = {}  # term -> doc_id -> term frequency
        for doc_id in sorted(bodies):
            terms = tokenize(bodies[doc_id])
            self.doc_len[doc_id] = len(terms)
            for term, f in Counter(terms).items():
                self.postings.setdefault(term, {})[doc_id] = f
        self.avgdl = sum(self.doc_len.values()) / self.doc_count

    def top_k(self, query_text: str | Iterable[str], k: int) -> list[tuple[str, float]]:
        """Top-k (doc_id, score) pairs, descending score then ascending id.

        Only documents containing at least one query term are scored; absent
        terms contribute exactly zero.
        """
        terms = tokenize(query_text) if isinstance(query_text, str) else list(query_text)
        scores: dict[str, float] = {}
        for term, qtf in Counter(terms).items():
            posting = self.postings.get(term)
            if not posting:
                continue
            df = len(posting)
            idf = math.log((self.doc_count - df + 0.5) / (df + 0.5))
            for doc_id, f in posting.items():
                dl = self.doc_len[doc_id]
                norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
                contrib = idf * f * (self.k1 + 1.0) / (f + norm)
                scores[doc_id] = scores.get(doc_id, 0.0) + qtf * contrib
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]
