"""Centroid-based compressed multi-vector index.

All document token vectors are clustered with spherical k-means (cosine
geometry, centroids renormalized every iteration).  Each vector is stored as
its centroid id plus a per-dimension 8-bit uniform quantization of the
residual; nbits=0 selects the lossless mode that stores raw float64 vectors.
Search runs centroid-probing candidate generation followed by exact
late-interaction re-ranking on reconstructed vectors, both over fixed-width
column blocks; the re-rank screens every candidate in float32 first and
rescores in float64 only the docs a proven error bound cannot rule out.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    ConfigError,
    CorruptionError,
    FeatureSet,
    FormatError,
    InputError,
    Rng,
    ShapeError,
    UNIT_ATOL,
    UnsupportedVersionError,
    encode_utf8,
    read_exact,
)
from .scoring import ScoredDoc, _maxsim_sums, _survivors

INDEX_MAGIC = b"MVLI"
INDEX_VERSION = 2


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


@dataclass
class RetrievalIndex:
    """Compressed vectors of a corpus, each document a contiguous run of rows.

    Only assignments and doc_sizes describe the layout; the per-doc vector
    ranges and the per-centroid doc lists are derived from them on
    construction, the lists as one flat array in CSR form (values plus K + 1
    offsets), and so are the float32 tables of search's screen; the stored
    arrays must not change afterwards.
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
    # the screen dequantizes code c of dimension d to step32[d] * c + base32[a, d]
    step32: np.ndarray = field(init=False)  # (dim,) float32 of _codebook_step
    base32: np.ndarray = field(init=False)  # (K, dim) centroids + code_min in float64, cast
    magnitude: float = field(init=False)  # bound on any dequantized vector's terms, see error_bound

    def __post_init__(self):
        self.doc_offsets, self.centroid_doc_ids, self.centroid_doc_offsets = _derive_layout(
            self.assignments, self.doc_sizes, self.centroids.shape[0])
        for a, b in zip(self.doc_ids, self.doc_ids[1:]):
            if a >= b:  # doc index order is doc_id order: search breaks ties by index
                raise CorruptionError(f"document ids are not strictly ascending: {a!r}, {b!r}")
        step = _codebook_step(self.code_min, self.code_max)
        self.step32 = step.astype(np.float32)
        self.base32 = (self.centroids + self.code_min).astype(np.float32)
        if self.nbits == 0:
            self.magnitude = float(np.sqrt(np.einsum("ij,ij->i", self.codes, self.codes).max()))
        else:
            self.magnitude = float(np.linalg.norm(self.centroids, axis=1).max()
                                   + np.linalg.norm(np.abs(self.code_min) + 255.0 * step))

    @property
    def n_vectors(self) -> int:
        return self.assignments.shape[0]

    def error_bound(self, n_query_rows: int) -> float:
        """E, with |screen - re-rank score| <= E for every doc a search with
        n_query_rows query rows screens, whatever the BLAS summation order.

        With u = 2**-24, let v = c + code_min + code * step be a stored
        vector in exact arithmetic (the stored row when nbits == 0), s[d] =
        |code_min[d]| + 255 * step[d], and a[d] = |c[d]| + s[d], which bounds
        v's terms in dimension d.  To first order in u, a query row q and a
        doc row have these errors:
        - the screen's dequantization rounds step, the float64 c + code_min,
          their product with code and the sum to float32: 3u * a[d] per
          element;
        - rounding q to float32: u * |q[d]| * a[d] per element;
        - the float32 dot product: dim * u * sum |q[d]| * a[d];
        - the float64 re-rank's reconstruct and product, (dim + 3) * 2**-53
          of the same sum, and the float64 sums of the row maxima on both
          sides, 2 * 2**-53 per row: below u together.
        So a pair errs by at most (dim + 5) * u * sum |q[d]| * a[d], and by
        Cauchy-Schwarz sum |q[d]| * a[d] <= |q| * (|c| + |s|) <= |q| *
        magnitude, the largest centroid norm plus |s|.  A max over a doc's
        rows errs no more than its worst row, and m query rows add m such
        errors.  The factor 2 covers the second-order terms, query norms
        within UNIT_ATOL of 1 and the float64 rounding of magnitude.  No
        unit centroid or row is assumed: magnitude is read off the stored
        arrays.
        """
        return 2.0 * n_query_rows * (self.dim + 5) * 2.0 ** -24 * self.magnitude


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


# Bytes of one block of the assign step's similarity matrix; the build's
# memory is O(N * dim) plus one such block, whatever the centroid count.
_ASSIGN_BLOCK_BYTES = 16_000_000


def _assign(vectors: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every vector and its cosine similarity, computed
    over row blocks of at most _ASSIGN_BLOCK_BYTES of similarities."""
    n = vectors.shape[0]
    rows = max(1, _ASSIGN_BLOCK_BYTES // (8 * centroids.shape[0]))
    assignments = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        sims = vectors[start:stop] @ centroids.T
        assignments[start:stop] = sims.argmax(axis=1)
        best[start:stop] = sims[np.arange(stop - start), assignments[start:stop]]
    return assignments, best


def _update_centroids(
    vectors: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Renormalized member means by segment sums; a centroid whose cluster is
    empty or whose member sum is near zero keeps its previous value."""
    counts = np.bincount(assignments, minlength=centroids.shape[0])
    order = np.argsort(assignments, kind="stable")
    used = np.flatnonzero(counts)
    starts = np.concatenate(([0], np.cumsum(counts[used])[:-1]))
    means = np.add.reduceat(vectors[order], starts, axis=0) / counts[used, None]
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
    if not corpus:
        raise InputError("cannot index an empty corpus")
    if nbits not in (0, 8):
        raise ConfigError(f"nbits must be 0 (lossless) or 8, got {nbits}")
    if kmeans_iters < 0:
        raise ConfigError(f"kmeans_iters must be >= 0, got {kmeans_iters}")
    doc_ids = sorted(corpus)
    dims = {corpus[d].dim for d in doc_ids}
    if len(dims) != 1:
        raise ShapeError(f"corpus mixes vector dimensions: {sorted(dims)}")
    dim = dims.pop()
    vectors = np.vstack([corpus[d].vectors for d in doc_ids])
    doc_sizes = np.array([len(corpus[d]) for d in doc_ids], dtype=np.int64)
    n = vectors.shape[0]
    k = default_k_centroids(n) if k_centroids is None else k_centroids
    if k < 1:
        raise ConfigError("k_centroids must be >= 1")
    if k > n:
        raise ConfigError(f"k_centroids ({k}) exceeds the vector count ({n})")

    centroids, assignments, trace = _spherical_kmeans(vectors, k, kmeans_iters, Rng(seed))
    residuals = vectors - centroids[assignments]
    if nbits == 0:
        codes = vectors.astype(np.float64)
        code_min = np.zeros(dim)
        code_max = np.zeros(dim)
    else:
        code_min = residuals.min(axis=0)
        code_max = residuals.max(axis=0)
        spread = code_max - code_min
        scale = np.where(spread > 0, 255.0 / np.where(spread > 0, spread, 1.0), 0.0)
        codes = np.clip(np.rint((residuals - code_min) * scale), 0, 255).astype(np.uint8)
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
    rows *= _codebook_step(index.code_min, index.code_max)
    rows += index.code_min
    rows += index.centroids.take(index.assignments.take(vec_ids), axis=0)
    return rows


# Columns of one block of search's similarity matrices (query rows x
# candidate vectors in the re-rank, x probed (centroid, doc) pairs in the
# prefilter); a query's working memory is a few such blocks plus one int64
# row id per candidate vector, whatever the corpus size.
_SEARCH_BLOCK_COLS = 2048


def _run_positions(starts: np.ndarray, sizes: np.ndarray, pad_to: int = 1) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + sizes[i] concatenated, then padded
    to a multiple of pad_to by repeating the last position; built in place as
    a running sum of steps, so the output is the only array of its length.
    At least one size must be positive."""
    keep = sizes > 0
    starts, sizes = starts[keep], sizes[keep]
    total = int(sizes.sum())
    steps = np.ones(-(-total // pad_to) * pad_to, dtype=np.int64)
    steps[total:] = 0
    steps[0] = starts[0]
    steps[np.cumsum(sizes[:-1])] = starts[1:] - (starts[:-1] + sizes[:-1] - 1)
    return np.cumsum(steps, out=steps)


def _screen(index: RetrievalIndex, q: np.ndarray, docs: np.ndarray,
            sizes: np.ndarray) -> np.ndarray:
    """Late-interaction scores of the given docs from their rows dequantized
    in float32 (the stored rows cast when nbits == 0) and one float32
    product per block of _SEARCH_BLOCK_COLS rows, maxima summed in float64;
    within index.error_bound of the re-rank's scores."""
    ids = _run_positions(index.doc_offsets[docs], sizes)
    q32 = q.astype(np.float32)
    width = _SEARCH_BLOCK_COLS
    # step32 repeated per row: a same-shape product is faster than a broadcast
    # along rows only dim long
    steps = np.tile(index.step32, (min(width, len(ids)), 1))

    def block_sims(start: int) -> np.ndarray:
        rows = ids[start:start + width]
        vecs = index.codes.take(rows, axis=0).astype(np.float32)
        if index.nbits != 0:
            vecs *= steps[:len(rows)]
            vecs += index.base32.take(index.assignments.take(rows), axis=0)
        return q32 @ vecs.T

    return _maxsim_sums(sizes, block_sims, len(q), width)


def search(index: RetrievalIndex, query: FeatureSet, params: SearchParams) -> list[ScoredDoc]:
    """Two-stage search: centroid-probed candidates, then exact re-ranking.

    Stage 1 probes the nprobe nearest centroids per query token, pools the
    documents holding a vector in any of them, and keeps at most
    candidate_doc_cap of them by a centroid-level approximation of the
    late-interaction score: each doc's score over its probed centroids.
    Stage 2 re-scores candidates exactly on dequantized vectors; ties break
    by doc_id.  It runs in two passes: a float32 `_screen` of every
    candidate, then the float64 re-rank of the `_survivors`, the docs whose
    screen score is within 2 * index.error_bound of the k-th best, among
    which the true top k provably lies.

    Neither stage loops over documents: each walks the candidates'
    concatenated columns (their probed centroids, then their vectors) in blocks
    of _SEARCH_BLOCK_COLS and reduces each block at the doc edges with
    _maxsim_sums, so a query holds a few blocks of similarities rather than
    all candidates' at once.  The float64 pass pads the survivors' row ids
    to whole blocks and runs one reconstruct and one product of the same
    shape per block, so a doc's score does not depend on the other
    candidates: ids, order and score bits equal a float64 re-rank of every
    candidate.  The prefilter keeps the same docs, ties to the lower doc
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
        approx = _maxsim_sums(
            counts,
            lambda start: cent_sims.take(cents[start:start + _SEARCH_BLOCK_COLS], axis=1),
            len(q), _SEARCH_BLOCK_COLS)
        ordered = np.sort(ordered[np.lexsort((ordered, -approx))[:params.candidate_doc_cap]])

    screened = _screen(index, q, ordered, index.doc_sizes[ordered])
    ordered = ordered[_survivors(screened, params.k, index.error_bound(len(q)))]
    sizes = index.doc_sizes[ordered]
    ids = _run_positions(index.doc_offsets[ordered], sizes, _SEARCH_BLOCK_COLS)
    scores = _maxsim_sums(
        sizes,
        lambda start: q @ reconstruct(index, ids[start:start + _SEARCH_BLOCK_COLS]).T,
        len(q), _SEARCH_BLOCK_COLS)
    top = np.lexsort((ordered, -scores))[:params.k]
    return [ScoredDoc(index.doc_ids[ordered[i]], float(scores[i])) for i in top]


# ---------------------------------------------------------------------------
# Binary file format v2, little-endian: magic "MVLI", version u32, header
# (dim u32, K u32, N u64, n_docs u32, nbits u8), centroids (K x dim f64),
# codebook (code_min, code_max: dim f64 each), codes (N x dim u8, or f64 when
# nbits == 0), assignments (N u32), doc sizes (n_docs u64), then per doc its
# id (u16 length + utf-8).  Everything else is derived on load.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IIQIB")


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    names = [encode_utf8(doc_id, "document id") for doc_id in index.doc_ids]
    for doc_id, name in zip(index.doc_ids, names):  # checked before the file is opened
        if len(name) > 0xFFFF:
            raise InputError(f"document id {doc_id[:40]!r}... is {len(name)} UTF-8 bytes; "
                             "an index stores at most 65535")
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<I", INDEX_VERSION))
        fh.write(_HEADER.pack(
            index.dim, index.centroids.shape[0], index.n_vectors,
            len(index.doc_ids), index.nbits,
        ))
        fh.write(np.ascontiguousarray(index.centroids, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(index.code_min, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(index.code_max, dtype="<f8").tobytes())
        code_dtype = "<f8" if index.nbits == 0 else np.uint8
        fh.write(np.ascontiguousarray(index.codes, dtype=code_dtype).tobytes())
        fh.write(np.ascontiguousarray(index.assignments, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(index.doc_sizes, dtype="<u8").tobytes())
        for name in names:
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)


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
    with open(path, "rb") as fh:

        def block(count: int, dtype) -> np.ndarray:
            dt = np.dtype(dtype)
            return np.frombuffer(read_exact(fh, count * dt.itemsize, "index"), dtype=dt).copy()

        magic = read_exact(fh, 4, "index")
        if magic != INDEX_MAGIC:
            raise FormatError(f"{path}: not an index file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "index"))
        if version != INDEX_VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported index version {version}")
        dim, k_cent, n_vec, n_docs, nbits = _HEADER.unpack(read_exact(fh, _HEADER.size, "index"))
        if nbits not in (0, 8):
            raise FormatError(f"{path}: nbits must be 0 or 8, got {nbits}")
        if min(dim, k_cent, n_docs) < 1:
            raise FormatError(f"{path}: dim, centroid and document counts must be >= 1")
        code_bytes = 8 if nbits == 0 else 1
        # the smallest file this header allows: every doc id empty
        need = (fh.tell() + 8 * (k_cent + 2) * dim + n_vec * (code_bytes * dim + 4)
                + n_docs * (8 + 2))
        have = os.fstat(fh.fileno()).st_size
        if need > have:
            raise CorruptionError(f"{path}: header needs at least {need} bytes, file has {have}")
        centroids = block(k_cent * dim, "<f8").reshape(k_cent, dim)
        code_min = block(dim, "<f8")
        code_max = block(dim, "<f8")
        codes = block(n_vec * dim, "<f8" if nbits == 0 else np.uint8).reshape(n_vec, dim)
        assignments = block(n_vec, "<u4").astype(np.int64)
        doc_sizes = block(n_docs, "<u8")
        doc_ids = []
        for _ in range(n_docs):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, "index"))
            try:
                doc_ids.append(read_exact(fh, name_len, "index").decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CorruptionError(f"{path}: document id is not utf-8") from exc
        if fh.read(1):
            raise CorruptionError(f"{path}: trailing bytes after document table")
    finite = [centroids, code_min, code_max] + ([codes] if nbits == 0 else [])
    if not all(np.isfinite(a).all() for a in finite):
        raise CorruptionError(f"{path}: non-finite centroid, codebook or vector values")
    _check_values(path, centroids, code_min, code_max, codes if nbits == 0 else None)
    return RetrievalIndex(
        dim=dim,
        nbits=nbits,
        centroids=centroids,
        assignments=assignments,
        codes=codes,
        code_min=code_min,
        code_max=code_max,
        doc_ids=doc_ids,
        doc_sizes=doc_sizes.astype(np.int64),
    )
