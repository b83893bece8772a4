"""Centroid-based compressed multi-vector index.

All document token vectors are clustered with spherical k-means (cosine
geometry, centroids renormalized every iteration).  Each vector is stored as
its centroid id plus a per-dimension 8-bit uniform quantization of the
residual; nbits=0 selects the lossless mode that stores raw float64 vectors.
Search runs centroid-probing candidate generation followed by exact
late-interaction re-ranking on reconstructed vectors.
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
    UnsupportedVersionError,
    read_exact,
)
from .scoring import ScoredDoc

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
    ranges, per-doc centroid sets and per-centroid doc lists are derived from
    them on construction.
    """

    dim: int
    nbits: int
    centroids: np.ndarray  # (K, dim) unit rows
    assignments: np.ndarray  # (N,) centroid id per vector, docs in doc_ids order
    codes: np.ndarray  # (N, dim) uint8, or float64 vectors when nbits == 0
    code_min: np.ndarray  # (dim,) per-dimension codebook scalars
    code_max: np.ndarray
    doc_ids: list[str]
    doc_sizes: np.ndarray  # (n_docs,) vector count per doc
    objective_trace: list[float] = field(default_factory=list)
    doc_offsets: np.ndarray = field(init=False)  # (n_docs + 1,) doc d: rows off[d]..off[d+1]
    doc_centroids: list[np.ndarray] = field(init=False)  # sorted centroid ids per doc
    centroid_docs: list[np.ndarray] = field(init=False)  # sorted doc indices per centroid

    def __post_init__(self):
        self.doc_offsets, self.doc_centroids, self.centroid_docs = _derive_layout(
            self.assignments, self.doc_sizes, self.centroids.shape[0]
        )

    @property
    def n_vectors(self) -> int:
        return self.assignments.shape[0]


def _derive_layout(
    assignments: np.ndarray, doc_sizes: np.ndarray, k: int
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Doc offsets, each doc's sorted centroid set and each centroid's sorted
    doc list, for docs stored as contiguous runs of `doc_sizes` vectors."""
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
    docs, cents = np.divmod(np.unique(owners * k + assignments), k)  # doc-major pairs
    doc_centroids = np.split(cents, np.cumsum(np.bincount(docs, minlength=n_docs))[:-1])
    by_centroid = np.argsort(cents, kind="stable")  # docs stay ascending per centroid
    centroid_docs = np.split(docs[by_centroid], np.cumsum(np.bincount(cents, minlength=k))[:-1])
    return offsets, doc_centroids, centroid_docs


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


def reconstruct(index: RetrievalIndex, vec_ids: np.ndarray) -> np.ndarray:
    """Dequantized vectors for the given vector ids."""
    if index.nbits == 0:
        return index.codes[vec_ids]
    spread = index.code_max - index.code_min
    step = np.where(spread > 0, spread / 255.0, 0.0)
    residuals = index.code_min + index.codes[vec_ids].astype(np.float64) * step
    return index.centroids[index.assignments[vec_ids]] + residuals


def search(index: RetrievalIndex, query: FeatureSet, params: SearchParams) -> list[ScoredDoc]:
    """Two-stage search: centroid-probed candidates, then exact re-ranking.

    Stage 1 probes the nprobe nearest centroids per query token, pools the
    documents holding a vector in any of them, and keeps at most
    candidate_doc_cap of them by a centroid-level approximation of the
    late-interaction score.  Stage 2 re-scores candidates exactly on
    dequantized vectors; ties break by doc_id.
    """
    if query.dim != index.dim:
        raise ShapeError(f"query dim {query.dim} does not match index dim {index.dim}")
    nprobe = min(params.nprobe, index.centroids.shape[0])
    cent_sims = query.vectors @ index.centroids.T  # (m, K)
    probed = np.unique(np.argpartition(-cent_sims, nprobe - 1, axis=1)[:, :nprobe])
    ordered = np.unique(np.concatenate([index.centroid_docs[c] for c in probed])).tolist()
    if not ordered:
        return []

    if len(ordered) > params.candidate_doc_cap:
        approx = []
        for d in ordered:
            clist = index.doc_centroids[d]
            approx.append(float(cent_sims[:, clist].max(axis=1).sum()))
        ranked = sorted(zip(ordered, approx), key=lambda t: (-t[1], t[0]))
        ordered = sorted(d for d, _ in ranked[: params.candidate_doc_cap])

    results: list[ScoredDoc] = []
    for d in ordered:
        rows = reconstruct(index, np.arange(index.doc_offsets[d], index.doc_offsets[d + 1]))
        score = float((query.vectors @ rows.T).max(axis=1).sum())
        results.append(ScoredDoc(index.doc_ids[d], score))
    results.sort(key=lambda s: (-s.score, s.doc_id))
    return results[: params.k]


# ---------------------------------------------------------------------------
# Binary file format v2, little-endian: magic "MVLI", version u32, header
# (dim u32, K u32, N u64, n_docs u32, nbits u8), centroids (K x dim f64),
# codebook (code_min, code_max: dim f64 each), codes (N x dim u8, or f64 when
# nbits == 0), assignments (N u32), doc sizes (n_docs u64), then per doc its
# id (u16 length + utf-8).  Everything else is derived on load.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IIQIB")


def save_index(index: RetrievalIndex, path: str | Path) -> None:
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
        for doc_id in index.doc_ids:
            encoded = doc_id.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)


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
