"""Foundational numerics: deterministic vectors, feature sets, shared errors;
and the file helpers every format uses, among them the one binary framing.

Everything here is reentrant; no module-level mutable state.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import string
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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


def read_exact(fh, n: int, where: str) -> bytearray:
    """Exactly n bytes from a binary file, or a CorruptionError saying where.

    n is checked against the bytes left in the file first, so a corrupt length
    field cannot make the read allocate a buffer larger than the file.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CorruptionError(f"{where} is truncated: needs {n} bytes, {left} remain")
    data = bytearray(n)
    if fh.readinto(data) != n:
        raise CorruptionError(f"{where} is truncated")
    return data


@contextmanager
def _replacing(path: str | Path):
    """A binary file on path + ".tmp", moved onto path by os.replace at the
    end of the block; if the block raises, an earlier file is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 to path + ".tmp", then move it onto path."""
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# The framing of the binary files, little-endian: a 4-byte magic, version u32,
# section count u32; per section its name (u8 length + ASCII), type (u8 index
# into _SECTION_TYPES), ndim (u8), shape (ndim x u64), the zlib.crc32 of its
# bytes (u32) and the bytes, for a "str" section n u64 UTF-8 lengths and then
# the n joined names.
# ---------------------------------------------------------------------------

_SECTION_TYPES = ("<f8", "<f4", "<u8", "<u4", "|u1", "str")


def write_sections(path: str | Path, magic: bytes, version: int, kind: str,
                   sections: Sequence[tuple[str, str, object]]) -> None:
    """Write (name, type, value) sections in the framing above, by way of
    path + ".tmp" and os.replace.  Names ("str" values) are encoded before
    the file opens, one with no UTF-8 form (a lone surrogate) an InputError
    naming its repr; arrays are converted one section at a time."""
    try:
        names = {name: [item.encode("utf-8") for item in value]
                 for name, type_code, value in sections if type_code == "str"}
    except UnicodeEncodeError as exc:
        raise InputError(f"{kind} name {exc.object!r} cannot be encoded as UTF-8: "
                         f"{exc.reason}") from exc
    with _replacing(path) as fh:
        fh.write(magic + struct.pack("<II", version, len(sections)))
        for name, type_code, value in sections:
            if type_code == "str":
                lengths = np.array([len(item) for item in names[name]], dtype="<u8")
                shape, data = lengths.shape, lengths.tobytes() + b"".join(names[name])
            else:
                data = np.ascontiguousarray(value, dtype=type_code)
                shape = data.shape
            fh.write(struct.pack(f"<B{len(name)}sBB{len(shape)}QI", len(name),
                                 name.encode("ascii"), _SECTION_TYPES.index(type_code),
                                 len(shape), *shape, zlib.crc32(data)))
            fh.write(data)


def read_sections(path: str | Path, magic: bytes, version: int, kind: str,
                  layout: Mapping[str, tuple[str, str]]) -> dict[str, np.ndarray | list[str]]:
    """Name -> value of every section of a file in the framing above: an
    array, or a list of names for a "str" section.

    layout maps each section name to its allowed types and its axes, both
    space-separated (e.g. "codes": ("|u1 <f8", "N dim")); an axis named by a
    number has that size.  A wrong magic is a FormatError, another version an
    UnsupportedVersionError.  A CorruptionError is a section that is unknown,
    repeated or missing, of a type or ndim the layout does not give it, sized
    past the end of the file or failing its checksum; an axis whose size
    differs between sections; a name that is not UTF-8; and trailing bytes.
    No length is trusted before read_exact checks it against the file.
    """
    found, axes = {}, {}
    where = f"{path}: {kind} file"
    with open(path, "rb") as fh:
        got = bytes(read_exact(fh, 4, where))
        if got != magic:
            raise FormatError(f"{path}: bad {kind} file magic {got!r}")
        got_version, count = struct.unpack("<II", read_exact(fh, 8, where))
        if got_version != version:
            raise UnsupportedVersionError(f"{path}: unsupported {kind} version {got_version}")
        if count != len(layout):
            raise CorruptionError(f"{where} has {count} sections, not {len(layout)}")
        for _ in range(count):
            name = read_exact(fh, read_exact(fh, 1, where)[0], where).decode("latin-1")
            if name not in layout or name in found:
                raise CorruptionError(f"{path}: unknown or repeated {kind} section {name!r}")
            section = f"{path}: {kind} section {name!r}"
            types, axis_names = (part.split() for part in layout[name])
            code, ndim = read_exact(fh, 2, where)
            type_code = _SECTION_TYPES[code] if code < len(_SECTION_TYPES) else f"code {code}"
            if type_code not in types:
                raise CorruptionError(f"{section} has type {type_code}, not {' or '.join(types)}")
            if ndim != len(axis_names):  # before the shape is read or used
                raise CorruptionError(f"{section} has {ndim} dimensions, not {len(axis_names)}")
            *shape, crc = struct.unpack(f"<{ndim}QI", read_exact(fh, 8 * ndim + 4, where))
            for axis, size in zip(axis_names, shape):
                if axes.setdefault(axis, int(axis) if axis.isdigit() else size) != size:
                    raise CorruptionError(f"{section} gives axis {axis} size {size}, "
                                          f"not {axes[axis]}")
            if type_code == "str":
                data = read_exact(fh, 8 * shape[0], section)
                sizes = np.frombuffer(data, dtype="<u8").tolist()  # Python ints: no wrap
                data += read_exact(fh, sum(sizes), section)
            else:
                data = read_exact(fh, math.prod(shape) * np.dtype(type_code).itemsize, section)
            if zlib.crc32(data) != crc:
                raise CorruptionError(f"{section} fails its checksum")
            try:  # a name that is not UTF-8; an empty array claiming an axis no array can have
                if type_code == "str":
                    ends = (8 * len(sizes) + np.cumsum([0, *sizes])).tolist()
                    found[name] = [data[a:b].decode("utf-8") for a, b in zip(ends, ends[1:])]
                else:
                    found[name] = np.frombuffer(data, dtype=type_code).reshape(shape)
            except ValueError as exc:
                raise CorruptionError(f"{section} does not decode: {exc}") from exc
        if fh.read(1):
            raise CorruptionError(f"{where} has trailing bytes after its last section")
    return found


def iter_jsonl(path: str | Path, kind: str) -> Iterator[tuple[str, dict]]:
    """("path:line", record) for every non-blank line of a JSON-lines file.

    A line that is not UTF-8, not JSON, or not a JSON object, or a string in
    it that does not encode back to UTF-8, is a FormatError.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                # a lone surrogate escape ("\ud800") is valid JSON but not text
                json.dumps(rec, ensure_ascii=False).encode("utf-8")
            except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON; deep nesting
                raise FormatError(f"{where}: bad {kind} record ({exc})") from exc
            if not isinstance(rec, dict):
                raise FormatError(f"{where}: bad {kind} record (not a JSON object)")
            yield where, rec


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted; what iter_jsonl reads back."""
    write_text(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def str_fields(rec, names: Sequence[str], where: str, kind: str) -> list[str]:
    """The values of `names` in a JSON object; a missing or non-string one, or
    a record that is no object, is a FormatError."""
    values = [rec.get(name) if isinstance(rec, dict) else None for name in names]
    for name, value in zip(names, values):
        if not isinstance(value, str):
            raise FormatError(f"{where}: bad {kind} record ({name!r} is not a string)")
    return values


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
