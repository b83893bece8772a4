"""Centroid-based compressed multi-vector index.

All document token vectors are clustered with spherical k-means (cosine
geometry, centroids renormalized every iteration).  Each vector is stored as
its centroid id plus a per-dimension 8-bit uniform quantization of the
residual; nbits=0 selects the lossless mode that stores raw float64 vectors.
Search runs centroid-probing candidate generation followed by exact
late-interaction re-ranking on reconstructed vectors.  The re-rank screens
every candidate in float32 over column blocks of whole docs, then rescores in
float64, doc by doc, only the docs a proven error bound cannot rule out: the
same two passes, by the same screen, bound and helper, as the exact ranker's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    ConfigError,
    CorruptionError,
    FeatureSet,
    FormatError,
    Rng,
    ShapeError,
    UNIT_ATOL,
    read_sections,
    write_sections,
)
from . import scoring
from .scoring import ScoredDoc, _maxsim_sums, _run_positions, _screen, _two_pass, stack_rows

@dataclass(frozen=True)
class SearchParams:
    k: int
    nprobe: int = 4
    candidate_doc_cap: int = 256

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.nprobe < 1:
            raise ConfigError("nprobe must be >= 1")
        if self.candidate_doc_cap < self.k:
            raise ConfigError("candidate_doc_cap must be >= k")

    @classmethod
    def at_depth(cls, k: int, **settings) -> SearchParams:
        """Params of a top-k search from the given settings, the given or
        default candidate cap raised to k."""
        cap = max(settings.pop("candidate_doc_cap", cls.candidate_doc_cap), k)
        return cls(k=k, candidate_doc_cap=cap, **settings)


@dataclass
class RetrievalIndex:
    """Compressed vectors of a corpus, each document a contiguous run of rows.

    Only assignments and doc_sizes describe the layout; the per-doc vector
    ranges and the per-centroid doc lists are derived from them on
    construction, the lists as one flat array in CSR form (values plus K + 1
    offsets), and so are the float32 rows of search's screen, every vector
    dequantized once; the stored arrays must not change afterwards, and the
    derived ones are read-only.
    """

    dim: int
    nbits: int
    centroids: np.ndarray  # (K, dim) unit rows
    assignments: np.ndarray  # (N,) centroid id per vector, docs in doc_ids order
    codes: np.ndarray  # (N, dim) uint8, or float64 vectors when nbits == 0
    code_min: np.ndarray  # (dim,) per-dimension codebook scalars
    code_max: np.ndarray
    doc_ids: list[str]  # strictly ascending
    doc_sizes: np.ndarray  # (n_docs,) vector count per doc
    objective_trace: list[float] = field(default_factory=list)
    doc_offsets: np.ndarray = field(init=False)  # (n_docs + 1,) doc d: rows off[d]..off[d+1]
    # centroid c's sorted doc indices: centroid_doc_ids[centroid_doc_offsets[c]:...[c + 1]]
    centroid_doc_ids: np.ndarray = field(init=False)
    centroid_doc_offsets: np.ndarray = field(init=False)  # (K + 1,)
    # (N, dim) float32 rows of the screen: float32(step[d]) * c + float32(centroids[a, d]
    # + code_min[d]) for code c of dimension d in centroid a; the stored rows cast if nbits == 0
    rows32: np.ndarray = field(init=False)
    magnitude: float = field(init=False)  # bound on any dequantized vector's terms, see error_bound
    step: np.ndarray = field(init=False)  # (dim,) _codebook_step, for reconstruct

    def __post_init__(self):
        self.doc_offsets, self.centroid_doc_ids, self.centroid_doc_offsets = _derive_layout(
            self.assignments, self.doc_sizes, self.centroids.shape[0])
        for a, b in zip(self.doc_ids, self.doc_ids[1:]):
            if a >= b:  # doc index order is doc_id order: search breaks ties by index
                raise CorruptionError(f"document ids are not strictly ascending: {a!r}, {b!r}")
        step = self.step = _codebook_step(self.code_min, self.code_max)
        rows32 = self.rows32 = self.codes.astype(np.float32)
        if self.nbits == 0:
            self.magnitude = float(np.sqrt(np.einsum("ij,ij->i", self.codes, self.codes).max()))
        else:
            rows32 *= step.astype(np.float32)
            table = (self.centroids + self.code_min).astype(np.float32)
            rows = _block_rows(4 * self.dim)
            for lo in range(0, self.n_vectors, rows):
                rows32[lo:lo + rows] += table.take(self.assignments[lo:lo + rows], axis=0)
            self.magnitude = float(np.linalg.norm(self.centroids, axis=1).max()
                                   + np.linalg.norm(np.abs(self.code_min) + 255.0 * step))
        for derived in (self.doc_offsets, self.centroid_doc_ids, self.centroid_doc_offsets,
                        rows32, step):
            derived.flags.writeable = False

    @property
    def n_vectors(self) -> int:
        return self.assignments.shape[0]

    def error_bound(self, n_query_rows: int) -> float:
        """E, with |screen - re-rank score| <= E for every doc a search with
        n_query_rows query rows screens: `scoring._screen_bound` at magnitude.

        Let v = c + code_min + code * step be a stored vector in exact
        arithmetic (the stored row when nbits == 0), s[d] = |code_min[d]| +
        255 * step[d], and a[d] = |c[d]| + s[d], which bounds v's terms in
        dimension d.  The screen's dequantization rounds step, the float64
        c + code_min, their product with code and the sum to float32: 3u *
        a[d] per element, u = 2**-24.  By Cauchy-Schwarz sum |q[d]| * a[d] <= |q| * (|c|
        + |s|) <= |q| * magnitude, the largest centroid norm plus |s|.  No
        unit centroid or row is assumed: magnitude is read off the stored
        arrays.
        """
        return scoring._screen_bound(n_query_rows, self.dim, self.magnitude)


def _derive_layout(
    assignments: np.ndarray, doc_sizes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Doc offsets, then each centroid's sorted doc list in CSR form (values,
    offsets), for docs stored as contiguous runs of `doc_sizes` vectors."""
    n = assignments.shape[0]
    n_docs = doc_sizes.shape[0]
    if k < 1 or n_docs < 1:
        raise CorruptionError("index needs at least one centroid and one document")
    if np.any(doc_sizes < 1) or np.any(doc_sizes > n):
        raise CorruptionError("index has a document size outside [1, vector count]")
    offsets = np.concatenate(([0], np.cumsum(doc_sizes, dtype=np.int64)))
    if offsets[-1] != n:
        raise CorruptionError(f"document sizes sum to {offsets[-1]}, not the {n} vectors")
    if assignments.min() < 0 or assignments.max() >= k:
        raise CorruptionError("index assignment references a missing centroid")
    owners = np.repeat(np.arange(n_docs, dtype=np.int64), doc_sizes)
    # centroid-major pairs, so each centroid's docs come out ascending
    cents, docs = np.divmod(np.unique(assignments * n_docs + owners), n_docs)
    cent_doc_offsets = np.concatenate(([0], np.cumsum(np.bincount(cents, minlength=k))))
    return offsets, docs, cent_doc_offsets


# Bytes of one block of the build's temporaries (similarities, gathered
# members, gathered centroid rows): the build holds one float64 copy of the
# vectors plus one such block, whatever the centroid count; 1 MB stays in cache.
_ASSIGN_BLOCK_BYTES = 1_000_000


def _block_rows(row_bytes: int) -> int:
    """Rows of row_bytes each in one block of _ASSIGN_BLOCK_BYTES, at least one."""
    return max(1, _ASSIGN_BLOCK_BYTES // row_bytes)


def _assign(vectors: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every vector and its cosine similarity, computed
    over row blocks of at most _ASSIGN_BLOCK_BYTES of similarities."""
    n, rows = vectors.shape[0], _block_rows(8 * centroids.shape[0])
    assignments = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for lo in range(0, n, rows):
        sims = vectors[lo:lo + rows] @ centroids.T
        assignments[lo:lo + rows] = sims.argmax(axis=1)
        best[lo:lo + rows] = sims.max(axis=1)
        del sims  # so the next block's product does not run while it is alive
    return assignments, best


_PAIRWISE_ROWS = 128  # the rows numpy's pairwise sum adds up alone


def _pairwise_sum(vectors: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """numpy's pairwise column sums of vectors[ids], which a reduceat adds to
    a segment's first row: runs of at most _PAIRWISE_ROWS rows summed alone,
    longer ones cut in halves, the first a multiple of 8 rows.  At most
    _PAIRWISE_ROWS rows are gathered at a time."""
    n = len(ids)
    if n > _PAIRWISE_ROWS:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(vectors, ids[:half]) + _pairwise_sum(vectors, ids[half:])
    rows = np.full((n + 1, vectors.shape[1]), -0.0)  # a first row of -0.0 adds nothing
    vectors.take(ids, axis=0, out=rows[1:])
    return np.add.reduceat(rows, [0], axis=0)[0]


def _update_centroids(
    vectors: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Renormalized member means by segment sums; a centroid whose cluster is
    empty or whose member sum is near zero keeps its previous value.  Members
    are gathered in blocks of whole clusters, each reduced alone on its own
    rows, and a cluster longer than a block (the last of its block) is summed
    by `_pairwise_sum`, so the sums equal one reduceat over all of them."""
    counts = np.bincount(assignments, minlength=centroids.shape[0])
    order = np.argsort(assignments, kind="stable")
    used = np.flatnonzero(counts)
    sizes = counts[used]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sums = np.empty((used.size, vectors.shape[1]))
    width = _block_rows(8 * vectors.shape[1])
    for a, b in scoring._run_blocks(starts, width):
        if sizes[b - 1] > width:
            b -= 1
            ids = order[starts[b]:ends[b]]
            sums[b] = vectors[ids[0]] + _pairwise_sum(vectors, ids[1:])
            if a == b:
                continue
        lo = starts[a]
        # unnamed, so a block is freed before the next one is gathered
        sums[a:b] = np.add.reduceat(vectors.take(order[lo:ends[b - 1]], axis=0),
                                    starts[a:b] - lo, axis=0)
    means = sums / sizes[:, None]
    norms = np.linalg.norm(means, axis=1)
    moved = norms > 1e-12
    updated = centroids.copy()
    updated[used[moved]] = means[moved] / norms[moved, None]
    return updated


def _spherical_kmeans(
    vectors: np.ndarray, k: int, iters: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """K-means under cosine distance; returns centroids, assignments, and the
    mean cosine-distance objective recorded at the start of each iteration."""
    n = vectors.shape[0]
    init_idx = rng.split("kmeans-init").generator().choice(n, size=k, replace=False)
    centroids = vectors[np.sort(init_idx)].copy()
    trace: list[float] = []
    for _ in range(iters):
        assignments, best = _assign(vectors, centroids)
        trace.append(float(np.mean(1.0 - best)))
        centroids = _update_centroids(vectors, assignments, centroids)
        del assignments, best  # freed before the next pass allocates its own
    assignments, best = _assign(vectors, centroids)
    trace.append(float(np.mean(1.0 - best)))
    return centroids, assignments, trace


def default_k_centroids(n_vectors: int) -> int:
    return max(1, round(2.0 * np.sqrt(n_vectors)))


def build_index(
    corpus: Mapping[str, FeatureSet],
    k_centroids: int | None = None,
    kmeans_iters: int = 20,
    nbits: int = 8,
    seed: int = 0,
) -> RetrievalIndex:
    """Cluster and quantize all document token vectors.

    nbits=8 stores per-dimension uniform residual codes; nbits=0 stores exact
    float64 vectors (lossless mode).  Deterministic for a fixed seed.
    """
    if nbits not in (0, 8):
        raise ConfigError(f"nbits must be 0 (lossless) or 8, got {nbits}")
    if kmeans_iters < 0:
        raise ConfigError(f"kmeans_iters must be >= 0, got {kmeans_iters}")
    n = sum(len(features) for features in corpus.values())
    k = default_k_centroids(n) if k_centroids is None else k_centroids
    if k < 1:
        raise ConfigError("k_centroids must be >= 1")
    if k > n > 0:  # an empty corpus is stack_rows's InputError
        raise ConfigError(f"k_centroids ({k}) exceeds the vector count ({n})")
    doc_ids, vectors, doc_sizes = stack_rows(corpus, np.float64, "index")
    dim = vectors.shape[1]

    centroids, assignments, trace = _spherical_kmeans(vectors, k, kmeans_iters, Rng(seed))
    if nbits == 0:
        codes, code_min, code_max = vectors, np.zeros(dim), np.zeros(dim)
    else:
        # the residuals, then their codes, are formed in place in the stacked copy
        rows = _block_rows(8 * dim)
        for lo in range(0, n, rows):
            vectors[lo:lo + rows] -= centroids.take(assignments[lo:lo + rows], axis=0)
        code_min, code_max = vectors.min(axis=0), vectors.max(axis=0)
        spread = code_max - code_min
        vectors -= code_min
        vectors *= np.where(spread > 0, 255.0 / np.where(spread > 0, spread, 1.0), 0.0)
        codes = np.clip(np.rint(vectors, out=vectors), 0, 255, out=vectors).astype(np.uint8)
    del vectors  # with nbits 8, freed before the screen rows are derived
    return RetrievalIndex(
        dim=dim,
        nbits=nbits,
        centroids=centroids,
        assignments=assignments,
        codes=codes,
        code_min=code_min,
        code_max=code_max,
        doc_ids=doc_ids,
        doc_sizes=doc_sizes,
        objective_trace=trace,
    )


def _codebook_step(code_min: np.ndarray, code_max: np.ndarray) -> np.ndarray:
    """Per-dimension width of one of the 255 quantization steps."""
    spread = code_max - code_min
    return np.where(spread > 0, spread / 255.0, 0.0)


def reconstruct(index: RetrievalIndex, vec_ids: np.ndarray) -> np.ndarray:
    """Dequantized vectors for the given vector ids: centroid plus residual,
    centroids[a] + (code_min + codes * step), accumulated in place."""
    if index.nbits == 0:
        return index.codes[vec_ids]
    rows = index.codes.take(vec_ids, axis=0).astype(np.float64)
    rows *= index.step
    rows += index.code_min
    rows += index.centroids.take(index.assignments.take(vec_ids), axis=0)
    return rows


def search(index: RetrievalIndex, query: FeatureSet, params: SearchParams) -> list[ScoredDoc]:
    """Two-stage search: centroid-probed candidates, then exact re-ranking.

    Stage 1 probes the nprobe nearest centroids per query token, pools the
    documents holding a vector in any of them, and keeps at most
    candidate_doc_cap of them by a centroid-level approximation of the
    late-interaction score: each doc's score over its probed centroids.
    Stage 2 re-scores candidates exactly on dequantized vectors; ties break
    by doc_id.  It runs in two passes, by the exact ranker's helpers: the
    float32 `_screen` of every candidate over index.rows32, then `_two_pass`,
    a float64 rescoring of the docs whose screen score is within 2 *
    index.error_bound of the k-th best, among which the true top k provably
    lies.

    The prefilter and the screen do not loop over documents: each walks the
    candidates' concatenated columns (their probed centroids, then their
    vectors) in blocks of whole docs, cut at scoring._SCREEN_BLOCK_ROWS, and
    reduces each block at the doc edges with _maxsim_sums, so a query holds
    a few blocks of similarities rather than all candidates' at once.  The
    rescoring takes one surviving doc at a time, in the form of
    late_interaction_score on its reconstructed rows, so a doc's score does
    not depend on the other candidates: ids, order and score bits equal a
    float64 re-rank of every candidate.  The prefilter keeps the same docs, ties to the lower doc
    index, as a per-doc loop would.
    """
    if query.dim != index.dim:
        raise ShapeError(f"query dim {query.dim} does not match index dim {index.dim}")
    q = query.vectors
    nprobe = min(params.nprobe, index.centroids.shape[0])
    cent_sims = q @ index.centroids.T  # (m, K)
    probed = np.unique(np.argpartition(-cent_sims, nprobe - 1, axis=1)[:, :nprobe])
    offsets = index.centroid_doc_offsets
    sizes = offsets[probed + 1] - offsets[probed]
    if not sizes.any():  # every probed centroid is empty
        return []
    docs = index.centroid_doc_ids[_run_positions(offsets[probed], sizes)]
    ordered, counts = np.unique(docs, return_counts=True)

    if ordered.size > params.candidate_doc_cap:
        # each doc's probed centroids, docs in index order
        cents = np.repeat(probed, sizes)[np.argsort(docs, kind="stable")]
        approx = _maxsim_sums(counts, scoring._SCREEN_BLOCK_ROWS,
                              lambda lo, hi: cent_sims.take(cents[lo:hi], axis=1),
                              (0, len(q)))[0]
        ordered = np.sort(ordered[np.lexsort((ordered, -approx))[:params.candidate_doc_cap]])

    def rescore(i: int) -> float:
        d = ordered[i]
        rows = reconstruct(index, np.arange(index.doc_offsets[d], index.doc_offsets[d + 1]))
        return float((q @ rows.T).max(axis=1).sum())

    screened = _screen(index.rows32, index.doc_offsets, ordered, q.astype(np.float32),
                       (0, len(q)))[0]
    top = _two_pass(screened, params.k, index.error_bound(len(q)), rescore)
    return [ScoredDoc(index.doc_ids[ordered[i]], score) for i, score in top]


# ---------------------------------------------------------------------------
# Index file in core's section framing: each stored RetrievalIndex field in the
# section of its name, nbits the codes' type (|u1 for 8, <f8 for 0).
# ---------------------------------------------------------------------------

_INDEX_FILE = (b"MVLI", 3, "index")  # magic, version, kind
_INDEX_LAYOUT = {
    "centroids": ("<f8", "K dim"), "code_min": ("<f8", "dim"), "code_max": ("<f8", "dim"),
    "codes": ("|u1 <f8", "N dim"), "assignments": ("<u4", "N"),
    "doc_sizes": ("<u8", "D"), "doc_ids": ("str", "D"),
}


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    codes_type = "<f8" if index.nbits == 0 else "|u1"
    write_sections(path, *_INDEX_FILE, [
        (name, codes_type if name == "codes" else types, getattr(index, name))
        for name, (types, _) in _INDEX_LAYOUT.items()])


def _check_values(path, centroids: np.ndarray, code_min: np.ndarray, code_max: np.ndarray,
                  vectors: np.ndarray | None) -> None:
    """Reject values no build writes: a build stores unit centroids (and
    unit vectors when lossless), and residuals of unit vectors from unit
    centroids, so code_min <= code_max within [-2, 2].  These limits also
    keep search's float32 screen far from overflow."""
    if np.any(code_max < code_min):
        raise CorruptionError(f"{path}: codebook has code_max < code_min")
    if np.any(np.abs(code_min) > 2.0) or np.any(np.abs(code_max) > 2.0):
        raise CorruptionError(f"{path}: codebook values outside [-2, 2]")
    for name, rows in (("centroid", centroids), ("stored vector", vectors)):
        if rows is None:
            continue
        with np.errstate(over="ignore"):  # a huge finite value: an infinite norm
            norms = np.linalg.norm(rows, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_ATOL):
            raise CorruptionError(f"{path}: {name} rows are not unit length")


def load_index(path: str | Path) -> RetrievalIndex:
    arrays = read_sections(path, *_INDEX_FILE, _INDEX_LAYOUT)
    centroids, code_min, code_max, codes = (
        arrays[name] for name in ("centroids", "code_min", "code_max", "codes"))
    (k_cent, dim), nbits = centroids.shape, 8 if codes.dtype == np.uint8 else 0
    if min(dim, k_cent, len(arrays["doc_ids"])) < 1:
        raise FormatError(f"{path}: dim, centroid and document counts must be >= 1")
    finite = [centroids, code_min, code_max] + ([codes] if nbits == 0 else [])
    if not all(np.isfinite(a).all() for a in finite):
        raise CorruptionError(f"{path}: non-finite centroid, codebook or vector values")
    _check_values(path, centroids, code_min, code_max, codes if nbits == 0 else None)
    for name in ("assignments", "doc_sizes"):
        arrays[name] = arrays[name].astype(np.int64)
    return RetrievalIndex(dim=dim, nbits=nbits, **arrays)
