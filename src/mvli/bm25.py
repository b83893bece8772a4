"""Okapi BM25 over an inverted index, used by the lexical-leak filter.

Uses the classic Robertson idf log((N - df + 0.5) / (df + 0.5)), which can be
negative for terms occurring in more than half the corpus.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Iterable, Mapping

from .core import ConfigError, InputError, tokenize

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class Bm25Index:
    """Inverted index over tokenized document bodies; each posting holds its
    doc's Okapi contribution idf * tf * (k1 + 1) / (tf + norm), computed once."""

    def __init__(self, bodies: Mapping[str, str], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        if not bodies:
            raise InputError("cannot index an empty corpus")
        self.doc_count = len(bodies)
        doc_len: dict[str, int] = {}
        tfs: dict[str, dict[str, int]] = {}  # term -> doc_id -> term frequency
        for doc_id in sorted(bodies):
            terms = tokenize(bodies[doc_id])
            doc_len[doc_id] = len(terms)
            for term, f in Counter(terms).items():
                tfs.setdefault(term, {})[doc_id] = f
        avgdl = sum(doc_len.values()) / self.doc_count
        norm = {doc_id: k1 * (1.0 - b + b * dl / avgdl) for doc_id, dl in doc_len.items()}
        # term -> (its doc ids ascending, their contributions)
        self.postings: dict[str, tuple[tuple[str, ...], array]] = {}
        while tfs:  # each term's tf dict is dropped as its contributions are stored
            term, posting = tfs.popitem()
            df = len(posting)
            idf = math.log((self.doc_count - df + 0.5) / (df + 0.5))
            self.postings[term] = (tuple(posting), array("d", (
                idf * f * (k1 + 1.0) / (f + norm[doc_id]) for doc_id, f in posting.items())))

    def top_k(self, query_text: str | Iterable[str], k: int) -> list[tuple[str, float]]:
        """Top-k (doc_id, score) pairs, descending score then ascending id.

        Only documents containing at least one query term are scored; absent
        terms contribute exactly zero.  A doc's score sums qtf * contribution
        over the distinct query terms in order of first occurrence.
        """
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        terms = tokenize(query_text) if isinstance(query_text, str) else list(query_text)
        scores: dict[str, float] = {}
        for term, qtf in Counter(terms).items():
            doc_ids, contribs = self.postings.get(term, ((), ()))
            for doc_id, contrib in zip(doc_ids, contribs):
                scores[doc_id] = scores.get(doc_id, 0.0) + qtf * contrib
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
