"""Foundational numerics: deterministic vectors, similarity kernels, shared errors.

Everything here is pure and reentrant; no module-level mutable state.
"""

from __future__ import annotations

import hashlib
import math
import string
from dataclasses import dataclass

import numpy as np

UNIT_ATOL = 1e-6


# ---------------------------------------------------------------------------
# Error taxonomy.  The CLI maps these onto process exit codes:
# ConfigError -> 2, DataError (and subclasses) -> 3, NumericError -> 4.
# ---------------------------------------------------------------------------


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EngineError):
    """Invalid configuration value or inconsistent parameter combination."""


class DataError(EngineError):
    """Invalid input data, state, or file contents."""


class NumericError(EngineError):
    """Non-finite values where finite ones are required."""


class ShapeError(DataError):
    """Dimension mismatch between arrays that must agree."""


class DomainError(DataError):
    """Value outside the mathematical domain of an operation (e.g. zero vector)."""


class InputError(DataError):
    """Empty or otherwise unusable operation input."""


class SpanError(DataError):
    """Token index outside the valid token range."""


class StateError(DataError):
    """Operation attempted on an object in an unusable state."""


class GenerationError(DataError):
    """Sample generation could not satisfy its construction rules."""


class DocumentError(DataError):
    """Document violates a structural requirement (e.g. missing main image)."""


class MissingEmbeddingError(DataError):
    """Embedding provider has no record for a requested key."""


class FormatError(DataError):
    """Malformed binary or text file."""


class UnsupportedVersionError(FormatError):
    """File carries a version this build does not read."""


class CorruptionError(DataError):
    """File is truncated or internally inconsistent."""


def read_exact(fh, n: int, kind: str) -> bytes:
    """Exactly n bytes from a binary file of the named kind, or CorruptionError."""
    data = fh.read(n)
    if len(data) != n:
        raise CorruptionError(f"{kind} file is truncated")
    return data


# ---------------------------------------------------------------------------
# Deterministic randomness.
#
# Two mechanisms, both platform-independent:
#   * seeded_unit_vector: stateless, hash-counter based (blake2b + Box-Muller),
#     used for all stub backbone features.  Pure function of its arguments.
#   * Rng: splittable label tree over a Philox counter-based generator, used
#     wherever a consumable random stream is needed (sampling, shuffling).
# ---------------------------------------------------------------------------


def _hash_uniforms(material: bytes, n: int) -> np.ndarray:
    """n deterministic floats in (0, 1], derived from hashing counter blocks."""
    blocks = (n + 7) // 8
    raw = bytearray()
    for counter in range(blocks):
        h = hashlib.blake2b(material + counter.to_bytes(8, "little"), digest_size=64)
        raw.extend(h.digest())
    words = np.frombuffer(bytes(raw), dtype="<u8")[:n]
    # map [0, 2^64) to (0, 1]; avoids log(0) in Box-Muller
    return 1.0 - words.astype(np.float64) / 2.0**64


def _hash_gaussians(material: bytes, n: int) -> np.ndarray:
    u = _hash_uniforms(material, 2 * n)
    u1, u2 = u[:n], u[n:]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def seeded_unit_vector(key: str | bytes, dim: int, rng_domain: str) -> np.ndarray:
    """Unit vector fully determined by (key, dim, rng_domain).

    Stands in for frozen backbone features: the same key always yields the
    same vector, distinct keys yield near-orthogonal vectors at moderate dim.
    """
    if dim < 2:
        raise ConfigError(f"vector dimension must be >= 2, got {dim}")
    key_bytes = key.encode("utf-8") if isinstance(key, str) else bytes(key)
    material = b"\x1f".join([rng_domain.encode("utf-8"), key_bytes, str(dim).encode()])
    for salt in range(8):
        z = _hash_gaussians(material + salt.to_bytes(2, "little"), dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-12:
            return z / norm
    raise NumericError("could not draw a non-degenerate vector")  # pragma: no cover


class Rng:
    """Splittable deterministic random stream.

    Children are derived by hashing a label path, so streams handed to
    different consumers are independent of each other's call order.  The
    underlying bit generator is counter-based (Philox), giving identical
    output for identical seeds on every platform.
    """

    def __init__(self, seed: int, _material: bytes | None = None):
        self.seed = int(seed)
        self._material = _material if _material is not None else b"rng:%d" % self.seed

    def split(self, label: str | int) -> "Rng":
        material = hashlib.blake2b(
            self._material + b"/" + str(label).encode("utf-8"), digest_size=32
        ).digest()
        return Rng(self.seed, material)

    def generator(self) -> np.random.Generator:
        """A fresh generator for this node; repeated calls replay the stream."""
        key = np.frombuffer(
            hashlib.blake2b(self._material, digest_size=16).digest(), dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Vector kernels.
# ---------------------------------------------------------------------------


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= 0.0 or not math.isfinite(norm):
        raise DomainError("cannot normalize a zero or non-finite vector")
    return v / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; equals the dot product for unit inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"cosine needs equal-length 1-D vectors, got {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= 0.0 or nb <= 0.0:
        raise DomainError("cosine is undefined for zero vectors")
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """A set of unit-norm token vectors representing one query or document.

    vectors: (n, dim) float64, every row unit-norm.
    provenance: per-row tag, one of "textual", "global-image:<r>",
        "multimodal:<r>,<j>".
    """

    vectors: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vecs)
        if vecs.ndim != 2 or vecs.shape[0] == 0:
            raise InputError("feature set must be a non-empty (n, dim) array")
        if len(self.provenance) != vecs.shape[0]:
            raise ShapeError("provenance length must match the number of vectors")
        if not np.all(np.isfinite(vecs)):
            raise NumericError("feature set contains non-finite entries")
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_ATOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise DomainError(f"feature vectors must be unit-norm (max deviation {worst:.2e})")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# ---------------------------------------------------------------------------
# Shared text helpers.  Tokenization is whitespace splitting after lowercasing,
# with attached punctuation stripped from token edges; the text embedder, the
# entity linker, and BM25 all use the same function, so "kobipa." and
# "kobipa?" denote the same term.
# ---------------------------------------------------------------------------

_EDGE_CHARS = string.punctuation


def normalize_token(token: str) -> str:
    """Token with surrounding punctuation stripped, for surface matching."""
    stripped = token.strip(_EDGE_CHARS)
    return stripped if stripped else token


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with edge punctuation removed.

    Token count matches plain whitespace splitting, so token indices line up
    with character offsets of the raw words.
    """
    return [normalize_token(tok) for tok in text.lower().split()]
