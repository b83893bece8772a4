"""Exact late-interaction relevance scoring between feature sets.

`rank_exact` ranks in two passes.  A float32 screen scores every document
over one stacked copy of the corpus, in blocks; every document whose screen
score could still reach the top k under a proven error bound is then
rescored with `late_interaction_score` in float64.  The ranking therefore
equals a per-document float64 loop in ids, order and score bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

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


def _maxsim_sums(
    sizes: np.ndarray, block_sims: Callable[[int], np.ndarray], n_rows: int, width: int
) -> np.ndarray:
    """Late-interaction sums of docs whose columns are consecutive runs of
    `sizes` columns: per doc, the sum over the n_rows query rows of the max
    over its columns.

    block_sims(start) returns the similarities of columns start onwards, at
    least up to start + width or the last column; columns beyond are
    ignored.  One maximum.reduceat per block cuts it at the doc starts inside
    it, and a second joins the pieces of docs that cross a block edge.  The
    maxima are summed in float64, each doc's over one contiguous row, so for
    float64 similarities its bits equal sims[:, doc].max(axis=1).sum().
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    total = int(ends[-1])
    block_starts = np.arange(0, total, width)
    cuts = np.union1d(starts, block_starts)  # each piece starts at a cut
    edges = np.append(np.searchsorted(cuts, block_starts), cuts.size)
    pieces = np.empty((n_rows, cuts.size))
    for b, start in enumerate(block_starts):
        sims = block_sims(start)[:, :min(width, total - start)]
        first, last = edges[b], edges[b + 1]
        pieces[:, first:last] = np.maximum.reduceat(sims, cuts[first:last] - start, axis=1)
    maxima = np.maximum.reduceat(pieces, np.searchsorted(cuts, starts), axis=1)
    return np.ascontiguousarray(maxima.T).sum(axis=1)


# Corpus rows per block of the screen: one (m, 2048) float32 product each.
_SCREEN_BLOCK_ROWS = 2048


class StackedCorpus(Mapping[str, FeatureSet]):
    """A corpus with its rows copied once, doc by doc in doc_id order, into
    one float32 (N, dim) matrix for `rank_exact`'s screen.  It reads as the
    mapping it was built from, whose float64 feature sets stay the source of
    every reported score."""

    def __init__(self, corpus: Mapping[str, FeatureSet]):
        if not corpus:
            raise InputError("cannot rank over an empty corpus")
        self._docs = corpus
        self.doc_ids = sorted(corpus)
        dims = {corpus[d].dim for d in self.doc_ids}
        if len(dims) != 1:
            raise ShapeError(f"corpus mixes vector dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        self.sizes = np.array([len(corpus[d]) for d in self.doc_ids], dtype=np.int64)
        self.rows = np.empty((int(self.sizes.sum()), self.dim), dtype=np.float32)
        start = 0
        for doc_id, size in zip(self.doc_ids, self.sizes.tolist()):
            self.rows[start:start + size] = corpus[doc_id].vectors
            start += size

    def __getitem__(self, doc_id: str) -> FeatureSet:
        return self._docs[doc_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def error_bound(self, n_query_rows: int) -> float:
        """E, with |screen - late_interaction_score| <= E for every doc.

        Rounding both unit vectors to float32 and taking their float32 dot
        product errs by at most (dim + 2) * 2**-24 to first order, whatever
        the summation order; a max over doc rows errs no more than its worst
        row, and the sum over m query rows adds m such errors.  The factor 2
        covers the second-order terms, norms within UNIT_ATOL of 1 and the
        float64 rounding of both the screen's sum and the exact score.
        """
        return 2.0 * n_query_rows * (self.dim + 2) * 2.0 ** -24

    def screen(self, query: FeatureSet) -> np.ndarray:
        """Every doc's late-interaction score from float32 products over
        blocks of _SCREEN_BLOCK_ROWS corpus rows, maxima summed in float64;
        docs in doc_id order."""
        q = query.vectors.astype(np.float32)
        width = _SCREEN_BLOCK_ROWS
        return _maxsim_sums(
            self.sizes, lambda start: q @ self.rows[start:start + width].T, len(q), width)

    def top_k(self, query: FeatureSet, k: int) -> list[ScoredDoc]:
        """The k best docs by late_interaction_score, ties by doc_id.

        With t_k the k-th best screen score, every doc of the true top k has
        a screen score >= t_k - 2E: one below it scores under t_k - E, below
        the k docs screened at t_k or more.  Only those docs are rescored.
        """
        if query.dim != self.dim:
            raise ShapeError(f"dimension mismatch: query {query.dim} vs corpus {self.dim}")
        screened = self.screen(query)
        kth = max(len(screened) - k, 0)  # the lowest screen score when k >= N
        t_k = np.partition(screened, kth)[kth]
        kept = np.flatnonzero(screened >= t_k - 2.0 * self.error_bound(len(query)))
        ids = [self.doc_ids[i] for i in kept.tolist()]
        scored = [ScoredDoc(d, late_interaction_score(query, self._docs[d])) for d in ids]
        scored.sort(key=lambda s: (-s.score, s.doc_id))
        return scored[:k]


def rank_exact(
    query: FeatureSet, corpus: Mapping[str, FeatureSet], k: int
) -> list[ScoredDoc]:
    """Exact top-k ranking by late_interaction_score; ties broken by
    ascending doc_id.  A StackedCorpus is screened as it is; any other
    mapping is stacked first.

    Serves as the exact oracle for the compressed index.
    """
    if not corpus:
        raise InputError("cannot rank over an empty corpus")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    stacked = corpus if isinstance(corpus, StackedCorpus) else StackedCorpus(corpus)
    return stacked.top_k(query, k)
