"""Exact late-interaction relevance scoring between feature sets.

`StackedCorpus.top_k`, and `rank_exact` through it, rank in two passes.  A
float32 `_screen` scores every document over one stacked copy of the corpus,
in blocks of whole documents, each block serving a group of queries;
`_two_pass` then rescores with `late_interaction_score` in float64 every
document whose screen score could still reach a query's top k under the
proven bound `_screen_bound`.  The index's re-rank shares all three.  Each
ranking therefore equals a per-document float64 loop in ids, order and score
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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


def _run_blocks(starts: np.ndarray, width: int) -> list[tuple[int, int]]:
    """(a, b) of each block of whole runs, for runs given by their ascending
    first positions: runs a to b - 1 are those whose first position falls in
    one `width`-wide window, so a block spans at most width plus the longest
    run."""
    firsts = np.flatnonzero(np.diff(starts // width, prepend=-1)).tolist()
    return list(zip(firsts, firsts[1:] + [len(starts)]))


def _maxsim_sums(
    sizes: np.ndarray, width: int, block_sims: Callable[[int, int], np.ndarray],
    row_bounds: Sequence[int],
) -> np.ndarray:
    """Late-interaction sums of docs laid out as consecutive runs of `sizes`
    columns (each >= 1), for every query whose rows are row_bounds[g] to
    row_bounds[g + 1] of the similarities: a (len(row_bounds) - 1, n_docs)
    array of, per query and doc, the sum over the query's rows of the max
    over the doc's columns.

    The columns are walked in the `_run_blocks` of whole docs at `width`.
    block_sims(lo, hi) returns the similarities of columns lo to hi, and one
    maximum.reduceat cuts them at the block's doc starts; the maxima keep the
    similarities' dtype, which a max does not round.  They are summed in
    float64, each query's per doc over one contiguous row, so for float64
    similarities its bits equal sims[rows, doc].max(axis=1).sum(), whatever
    the other queries.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    maxima = None
    for a, b in _run_blocks(starts, width):
        lo = starts[a]
        # no name holds a block's similarities, so the next block's product
        # does not run while they are still alive
        reduced = np.maximum.reduceat(block_sims(lo, ends[b - 1]), starts[a:b] - lo, axis=1)
        if maxima is None:
            maxima = np.empty((reduced.shape[0], len(sizes)), dtype=reduced.dtype)
        maxima[:, a:b] = reduced
    return np.stack([
        np.ascontiguousarray(maxima[a:b].T, dtype=np.float64).sum(axis=1)
        for a, b in zip(row_bounds[:-1], row_bounds[1:])])


def _two_pass(screened: np.ndarray, k: int, bound: float,
              rescore: Callable[[int], float]) -> list[tuple[int, float]]:
    """The k best (doc index, exact score) pairs, ties to the lower index,
    from screen scores within `bound` of the exact ones: rescore(i) is called
    once for each doc whose screen score is >= t_k - 2 * bound, t_k the k-th
    best screen score, and for no other.

    The true top k (ties in any order) is among those docs: the k docs
    screened at t_k or more score exactly >= t_k - bound, so the k-th best
    exact score is too, and a doc screened below t_k - 2 * bound scores
    exactly under it.  The callers' bounds carry a factor 2 of slack, which
    also covers rounding the threshold.  With k >= len(screened) every doc
    is rescored."""
    kth = max(len(screened) - k, 0)  # the lowest screen score when k >= N
    t_k = np.partition(screened, kth)[kth]
    scored = [(i, rescore(i)) for i in np.flatnonzero(screened >= t_k - 2.0 * bound).tolist()]
    scored.sort(key=lambda s: (-s[1], s[0]))
    return scored[:k]


def stack_rows(
    corpus: Mapping[str, FeatureSet], dtype, what: str
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The corpus's sorted doc ids, its rows copied doc by doc in that order
    into one (N, dim) matrix of `dtype` (allocated once, so no temporary of
    another dtype is made), and each doc's row count.  `what` names the
    caller's use in the empty-corpus error."""
    if not corpus:
        raise InputError(f"cannot {what} an empty corpus")
    doc_ids = sorted(corpus)
    dims = {corpus[d].dim for d in doc_ids}
    if len(dims) != 1:
        raise ShapeError(f"corpus mixes vector dimensions: {sorted(dims)}")
    sizes = np.array([len(corpus[d]) for d in doc_ids], dtype=np.int64)
    rows = np.empty((int(sizes.sum()), dims.pop()), dtype=dtype)
    start = 0
    for doc_id, size in zip(doc_ids, sizes.tolist()):
        rows[start:start + size] = corpus[doc_id].vectors
        start += size
    return doc_ids, rows, sizes


# Width of the window in which the docs of one screen block start, so a block
# is at most 2048 rows plus the largest doc's; the index's prefilter cuts its
# blocks of centroid columns at the same width.
_SCREEN_BLOCK_ROWS = 2048

# Queries screened together: each block is loaded once for all of them.
_SCREEN_GROUP = 4


def _run_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + sizes[i] concatenated; built in
    place as a running sum of steps, so the output is the only array of its
    length.  At least one size must be positive."""
    keep = sizes > 0
    starts, sizes = starts[keep], sizes[keep]
    steps = np.ones(int(sizes.sum()), dtype=np.int64)
    steps[0] = starts[0]
    steps[np.cumsum(sizes[:-1])] = starts[1:] - (starts[:-1] + sizes[:-1] - 1)
    return np.cumsum(steps, out=steps)


def _screen(rows32: np.ndarray, offsets: np.ndarray, docs: np.ndarray, q32: np.ndarray,
            row_bounds: Sequence[int]) -> np.ndarray:
    """Late-interaction sums, (len(row_bounds) - 1, len(docs)), of the
    ascending doc indices `docs` for each query: doc d is rows offsets[d] to
    offsets[d + 1] of rows32, query g rows row_bounds[g] to row_bounds[g + 1]
    of q32.  One float32 product of all the query rows per block of whole
    docs (see _SCREEN_BLOCK_ROWS), maxima summed in float64 by
    `_maxsim_sums`.  A block of consecutive docs is one run of rows, read as
    a view; any other gathers only its own rows, to the same values."""
    starts = offsets[docs]
    sizes = offsets[docs + 1] - starts
    cols = np.cumsum(sizes) - sizes  # each doc's first column

    def block_sims(lo: int, hi: int) -> np.ndarray:
        a, b = np.searchsorted(cols, (lo, hi)).tolist()
        if docs[b - 1] - docs[a] == b - 1 - a:
            return q32 @ rows32[starts[a]:starts[b - 1] + sizes[b - 1]].T
        return q32 @ rows32.take(_run_positions(starts[a:b], sizes[a:b]), axis=0).T

    return _maxsim_sums(sizes, _SCREEN_BLOCK_ROWS, block_sims, row_bounds)


def _screen_bound(m: int, dim: int, magnitude: float) -> float:
    """E, with |screen - rescored score| <= E for every doc `_screen` scores
    against m query rows, whatever the BLAS summation order, if each float32
    row element is within 3u * a[d] of the float64 row that the rescoring
    reads (u = 2**-24), with sum |q[d]| * a[d] <= |q| * magnitude for every
    query row q.  To first order in u, a query row and a doc row err by:
    - the float32 row: 3u * sum |q[d]| * a[d];
    - rounding q to float32: u * the same sum;
    - the float32 dot product: dim * u * the same sum;
    - the float64 rescoring's product and any dequantization before it,
      (dim + 3) * 2**-53 of the same sum, and the float64 sums of the row
      maxima on both sides, 2 * 2**-53 per row: below u together.
    So (dim + 5) * u * |q| * magnitude.  A max over a doc's rows errs no
    more than its worst row, and m query rows add m such errors; the factor
    2 covers the second-order terms, norms within UNIT_ATOL of 1 and the
    float64 rounding of magnitude.  Screening queries together changes
    none of this: each similarity is still one float32 dot product."""
    return 2.0 * m * (dim + 5) * 2.0 ** -24 * magnitude


class StackedCorpus:
    """A corpus with its rows copied once, doc by doc in doc_id order, into
    one float32 (N, dim) matrix for the screen of `top_k`, doc d being
    rows[offsets[d]:offsets[d + 1]].  The float64 feature sets of the
    mapping it was built from stay the source of every reported score."""

    def __init__(self, corpus: Mapping[str, FeatureSet]):
        self._docs = corpus
        self.doc_ids, self.rows, sizes = stack_rows(corpus, np.float32, "rank over")
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.dim = self.rows.shape[1]

    def error_bound(self, n_query_rows: int) -> float:
        """E, with |screen - late_interaction_score| <= E for every doc:
        `_screen_bound` at magnitude 1.  Casting a row v to float32 errs by
        u * |v[d]| <= 3u * |v[d]| per element, and sum |q[d]| * |v[d]| <=
        |q| * |v|, with |v| within UNIT_ATOL of 1."""
        return _screen_bound(n_query_rows, self.dim, 1.0)

    def screen(self, queries: Sequence[FeatureSet]) -> np.ndarray:
        """Every doc's late-interaction score for each query, (len(queries),
        n_docs) with docs in doc_id order: `_screen` over every doc, all the
        queries' rows in one float32 product per block."""
        q = np.concatenate([query.vectors for query in queries]).astype(np.float32)
        bounds = np.cumsum([0] + [len(query) for query in queries])
        return _screen(self.rows, self.offsets, np.arange(len(self.doc_ids)), q, bounds)

    def top_k(self, queries: Sequence[FeatureSet], k: int) -> list[list[ScoredDoc]]:
        """Per query, the k best docs by late_interaction_score, ties by
        doc_id.  The queries are screened in groups of _SCREEN_GROUP, and
        `_two_pass` rescores each query's survivors under its own bound."""
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        for query in queries:
            if query.dim != self.dim:
                raise ShapeError(f"dimension mismatch: query {query.dim} vs corpus {self.dim}")
        ranked = []
        for g in range(0, len(queries), _SCREEN_GROUP):
            group = queries[g:g + _SCREEN_GROUP]
            for query, screened in zip(group, self.screen(group)):
                top = _two_pass(screened, k, self.error_bound(len(query)), lambda i: (
                    late_interaction_score(query, self._docs[self.doc_ids[i]])))
                ranked.append([ScoredDoc(self.doc_ids[i], score) for i, score in top])
        return ranked


def rank_exact(
    query: FeatureSet, corpus: Mapping[str, FeatureSet], k: int
) -> list[ScoredDoc]:
    """Exact top-k ranking by late_interaction_score; ties broken by
    ascending doc_id.  The corpus is stacked for this one query;
    `StackedCorpus.top_k` ranks many queries over one stacking.

    Serves as the exact oracle for the compressed index.
    """
    return StackedCorpus(corpus).top_k([query], k)[0]
