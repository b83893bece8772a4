"""Query and document encoders.

Backbone features are frozen deterministic stubs (or file-backed, precomputed
vectors); the trainable surface is the projection MLPs, one cross-attention
transformer block, the entity token embedding, and a null-text token.

Every forward helper returns a cache alongside its output so the training
module can run reverse-mode differentiation through the exact same code path.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .augment import AugmentedDocument
from .core import (
    ConfigError,
    CorruptionError,
    DocumentError,
    FeatureSet,
    InputError,
    MissingEmbeddingError,
    NumericError,
    Rng,
    SpanError,
    read_sections,
    seeded_unit_vector,
    tokenize,
    write_sections,
)

# ---------------------------------------------------------------------------
# Configuration and parameters.
# ---------------------------------------------------------------------------

# Trainable scalars an EncoderConfig may ask for: 2 GiB of float64 weights,
# about 7x the dim-128 full-size set-up (38.4M) and 233x the default (1.15M).
_MAX_PARAMETERS = 2**28


@dataclass(frozen=True)
class EncoderConfig:
    """Engine shape configuration.

    dim is the shared output embedding dimension (16 at desk scale, 128 for
    full-size runs).  n_mm_tokens is the number of fused multimodal tokens
    emitted per image (32 full-size, 4 in fast tests).
    """

    dim: int = 16
    text_dim: int = 64
    image_dim: int = 64
    n_patches: int = 9
    n_heads: int = 4
    attn_dim: int = 64
    ff_dim: int | None = None
    n_mm_tokens: int = 32

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        for name in ("text_dim", "image_dim", "n_patches", "n_heads", "attn_dim", "n_mm_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.attn_dim % self.n_heads != 0:
            raise ConfigError("attn_dim must be divisible by n_heads")
        if self.ff_dim is not None and self.ff_dim < 1:
            raise ConfigError("ff_dim must be >= 1")
        total = sum(math.prod(shape) for shape in param_shapes(self).values())
        if total > _MAX_PARAMETERS:
            raise ConfigError(f"encoder shape needs {total} parameters, "
                              f"more than the {_MAX_PARAMETERS} allowed")

    @property
    def ffn_dim(self) -> int:
        return self.ff_dim if self.ff_dim is not None else 2 * self.attn_dim


@dataclass(frozen=True)
class EncoderFlags:
    """Document-encoder ablation switches.

    mi: attach related-entity images (not just the main image).
    mmf: compute fused multimodal tokens for related images.
    ete: add the entity token embedding to each image's entity span before
        cross-attention.
    """

    mi: bool = True
    mmf: bool = True
    ete: bool = True

    def label(self) -> str:
        parts = [name.upper() for name in ("mi", "mmf", "ete") if getattr(self, name)]
        return "+".join(parts) if parts else "none"

    @staticmethod
    def parse(text: str) -> "EncoderFlags":
        cleaned = text.strip().lower()
        if cleaned in ("", "none"):
            return EncoderFlags(False, False, False)
        wanted = {part.strip() for part in cleaned.replace("+", ",").split(",") if part.strip()}
        unknown = wanted - {"mi", "mmf", "ete"}
        if unknown:
            raise ConfigError(f"unknown encoder flags: {sorted(unknown)}")
        return EncoderFlags("mi" in wanted, "mmf" in wanted, "ete" in wanted)


ABLATION_ROWS: tuple[EncoderFlags, ...] = (
    EncoderFlags(False, False, False),
    EncoderFlags(True, False, False),
    EncoderFlags(True, True, False),
    EncoderFlags(True, True, True),
)


@dataclass
class MlpParams:
    """Two-layer projection with a smooth GELU nonlinearity."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class AttnParams:
    """One cross-attention transformer block (no normalization layers).

    The query map doubles as the input projection, so the residual around the
    attention sublayer is well defined for any patch dimension.
    """

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    f1: np.ndarray
    f1b: np.ndarray
    f2: np.ndarray
    f2b: np.ndarray


@dataclass
class EncoderParams:
    text_proj: MlpParams
    global_proj: MlpParams
    xattn: AttnParams
    mm_proj: MlpParams
    ete: np.ndarray
    null_text: np.ndarray


_MLP_FIELDS = ("w1", "b1", "w2", "b2")
_ATTN_FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "f1", "f1b", "f2", "f2b")


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, derived without allocating."""
    c = config
    shapes: dict[str, tuple[int, ...]] = {}
    for block, d_in, d_out in (
        ("text_proj", c.text_dim, c.dim),
        ("global_proj", c.image_dim, c.dim),
        ("mm_proj", c.n_patches * c.attn_dim, c.n_mm_tokens * c.dim),
    ):
        width = 2 * d_out
        shapes.update({f"{block}.w1": (d_in, width), f"{block}.b1": (width,),
                       f"{block}.w2": (width, d_out), f"{block}.b2": (d_out,)})
    a, f = c.attn_dim, c.ffn_dim
    xattn = {"wq": (c.image_dim, a), "bq": (a,), "wk": (c.text_dim, a), "bk": (a,),
             "wv": (c.text_dim, a), "bv": (a,), "wo": (a, a), "bo": (a,),
             "f1": (a, f), "f1b": (f,), "f2": (f, a), "f2b": (a,)}
    shapes.update({f"xattn.{name}": shape for name, shape in xattn.items()})
    shapes["ete"] = shapes["null_text"] = (c.text_dim,)
    return shapes


def _params_from_tensors(tensors: Mapping[str, np.ndarray]) -> EncoderParams:
    def _mlp(block: str) -> MlpParams:
        return MlpParams(*(tensors[f"{block}.{f}"] for f in _MLP_FIELDS))

    return EncoderParams(
        text_proj=_mlp("text_proj"),
        global_proj=_mlp("global_proj"),
        xattn=AttnParams(*(tensors[f"xattn.{f}"] for f in _ATTN_FIELDS)),
        mm_proj=_mlp("mm_proj"),
        ete=tensors["ete"],
        null_text=tensors["null_text"],
    )


def init_encoder_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Matrices ~ N(0, 1/rows), zero biases, N(0, 0.02^2) ete and null-text
    tokens; each tensor draws from its own stream, named after it."""
    rng = Rng(seed).split("encoder-init")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        gen = rng.split(name).generator()
        if name in ("ete", "null_text"):
            tensors[name] = gen.standard_normal(shape) * 0.02
        elif len(shape) == 2:
            tensors[name] = gen.standard_normal(shape) / math.sqrt(shape[0])
        else:
            tensors[name] = np.zeros(shape)
    return _params_from_tensors(tensors)


def named_tensors(params: EncoderParams) -> dict[str, np.ndarray]:
    """Stable name -> array views over every trainable tensor."""
    out = {f"{block}.{f}": getattr(getattr(params, block), f)
           for block in ("text_proj", "global_proj", "mm_proj") for f in _MLP_FIELDS}
    out.update({f"xattn.{f}": getattr(params.xattn, f) for f in _ATTN_FIELDS})
    return {**out, "ete": params.ete, "null_text": params.null_text}


def zero_grads(params: EncoderParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in named_tensors(params).items()}


def params_checksum(params: EncoderParams) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, arr in sorted(named_tensors(params).items()):
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_params_finite(params: EncoderParams) -> None:
    for name, arr in named_tensors(params).items():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in parameter tensor {name!r}")


# ---------------------------------------------------------------------------
# Parameter checkpoint file, version 2, in core's section framing: the encoder
# shape header (the 8 EncoderConfig fields, ff_dim resolved), then the tensors.
# ---------------------------------------------------------------------------

_PARAMS_FILE = (b"MPRM", 2, "checkpoint")  # magic, version, kind
# a tensor's ndim does not depend on the config; load_params checks each axis's size
_PARAMS_LAYOUT = {"encoder_shape": ("<u8", "8"), **{
    name: ("<f8", " ".join(f"{name}:{axis}" for axis in range(len(shape))))
    for name, shape in param_shapes(EncoderConfig()).items()}}


def save_params(params: EncoderParams, config: EncoderConfig, path: str | Path) -> None:
    tensors = named_tensors(params)
    header = astuple(replace(config, ff_dim=config.ffn_dim))
    write_sections(path, *_PARAMS_FILE, [("encoder_shape", "<u8", header)]
                   + [(name, "<f8", tensors[name]) for name in sorted(tensors)])


def load_params(path: str | Path) -> tuple[EncoderParams, EncoderConfig]:
    tensors = read_sections(path, *_PARAMS_FILE, _PARAMS_LAYOUT)
    try:  # the header holds the fields in declaration order
        config = EncoderConfig(*tensors.pop("encoder_shape").tolist())
    except ConfigError as exc:
        raise CorruptionError(f"{path}: bad encoder shape header: {exc}") from exc
    if {name: arr.shape for name, arr in tensors.items()} != param_shapes(config):
        raise CorruptionError(f"{path}: tensor table does not match the shape header")
    params = _params_from_tensors(tensors)
    check_params_finite(params)
    return params, config


# ---------------------------------------------------------------------------
# Backbone feature stubs and providers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageFeatures:
    global_vec: np.ndarray  # (image_dim,)
    patches: np.ndarray  # (n_patches, image_dim)


@dataclass(frozen=True)
class QueryInput:
    text: str
    image_key: str


class SeededEmbeddingProvider:
    """Deterministic stand-in for frozen text/image backbones."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    def _vector(self, domain: str, key: str, dim: int) -> np.ndarray:
        cached = self._cache.get((domain, key))
        if cached is None:
            cached = seeded_unit_vector(key, dim, domain)
            cached.flags.writeable = False
            self._cache[(domain, key)] = cached
        return cached

    def text_vector(self, token: str) -> np.ndarray:
        return self._vector("text", token, self.config.text_dim)

    def image_global(self, image_key: str) -> np.ndarray:
        return self._vector("img-g", image_key, self.config.image_dim)

    def image_patch(self, image_key: str, patch_index: int) -> np.ndarray:
        return self._vector("img-p", f"{image_key}:{patch_index}", self.config.image_dim)


class FileEmbeddingProvider:
    """Precomputed backbone features: a float32 vector per key, from a file
    written by write_embedding_file.  Keys follow the convention
    "text:<token>", "img-g:<image key>", "img-p:<patch index>:<image key>".
    """

    def __init__(self, path: str | Path, config: EncoderConfig):
        self.config = config
        self.records = read_embedding_file(path)

    def _lookup(self, key: str, dim: int) -> np.ndarray:
        vec = self.records.get(key)
        if vec is None:
            raise MissingEmbeddingError(f"no embedding record for key {key!r}")
        if vec.shape[0] != dim:
            raise CorruptionError(
                f"embedding {key!r} has dim {vec.shape[0]}, expected {dim}"
            )
        return vec

    def text_vector(self, token: str) -> np.ndarray:
        return self._lookup(f"text:{token}", self.config.text_dim)

    def image_global(self, image_key: str) -> np.ndarray:
        return self._lookup(f"img-g:{image_key}", self.config.image_dim)

    def image_patch(self, image_key: str, patch_index: int) -> np.ndarray:
        return self._lookup(f"img-p:{patch_index}:{image_key}", self.config.image_dim)


# Embedding file, version 1, in core's section framing: the keys, ascending,
# each key's vector length, and the vectors' values in key order.
_EMBEDDING_FILE = (b"MEMB", 1, "embedding")  # magic, version, kind
_EMBEDDING_LAYOUT = {"keys": ("str", "records"), "dims": ("<u4", "records"),
                     "values": ("<f4", "values")}


def write_embedding_file(records: Mapping[str, np.ndarray], path: str | Path) -> None:
    keys = sorted(records)
    vectors = [np.asarray(records[key], dtype="<f4") for key in keys]
    write_sections(path, *_EMBEDDING_FILE, [
        ("keys", "str", keys), ("dims", "<u4", [len(v) for v in vectors]),
        ("values", "<f4", np.concatenate([np.empty(0, dtype="<f4"), *vectors]))])


def read_embedding_file(path: str | Path) -> dict[str, np.ndarray]:
    sections = read_sections(path, *_EMBEDDING_FILE, _EMBEDDING_LAYOUT)
    keys, dims, values = sections["keys"], sections["dims"], sections["values"]
    for a, b in zip(keys, keys[1:]):
        if a >= b:
            raise CorruptionError(f"{path}: embedding keys are not strictly ascending: "
                                  f"{a!r}, {b!r}")
    total = int(dims.sum(dtype=np.int64))
    if total != len(values):
        raise CorruptionError(f"{path}: embedding dims sum to {total}, not {len(values)}")
    return dict(zip(keys, np.split(values.astype(np.float64), np.cumsum(dims)[:-1])))


def embed_tokens(tokens: Sequence[str], provider, config: EncoderConfig) -> np.ndarray:
    """Text features (N_t, text_dim): one backbone vector per token."""
    if not tokens:
        raise InputError("cannot embed an empty token sequence")
    return np.stack([provider.text_vector(tok) for tok in tokens])


def embed_image(image_key: str, provider, config: EncoderConfig) -> ImageFeatures:
    """Global and patch-level image features for a symbolic image key."""
    global_vec = provider.image_global(image_key)
    patches = np.stack(
        [provider.image_patch(image_key, j) for j in range(config.n_patches)]
    )
    return ImageFeatures(global_vec, patches)


def apply_ete(text: np.ndarray, span: Iterable[int], theta: np.ndarray) -> np.ndarray:
    """Copy of the text features (N_t, text_dim) with `theta` added to the
    rows at `span` (0-based)."""
    indices = sorted(set(int(i) for i in span))
    n = text.shape[0]
    for i in indices:
        if i < 0 or i >= n:
            raise SpanError(f"token index {i} outside range [0, {n})")
    shifted = text.copy()
    if indices:
        shifted[indices] += np.asarray(theta, dtype=np.float64)
    return shifted


# ---------------------------------------------------------------------------
# Differentiable kernels (forward passes with caches).
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)

# Height of the zero-padded row tiles every tiled product runs in.
TILE_ROWS = 16


def tile_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`a @ w` for a 2-D `a`, computed in zero-padded tiles of TILE_ROWS rows.

    Every tile is one BLAS product of the same shape, so a row's bits depend
    only on the row and `w`: not on how many rows are stacked with it, nor on
    its position among them.
    """
    n, d = a.shape
    n_tiles = -(-n // TILE_ROWS)
    padded = np.zeros((n_tiles * TILE_ROWS, d))
    padded[:n] = a
    out = padded.reshape(n_tiles, TILE_ROWS, d) @ w
    return out.reshape(-1, w.shape[1])[:n]


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    sq = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (sq * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * sq)


def mlp_forward(x: np.ndarray, p: MlpParams) -> tuple[np.ndarray, dict]:
    """x: (n, d_in) -> (n, d_out), both products in row tiles."""
    pre = tile_matmul(x, p.w1) + p.b1
    act = gelu(pre)
    out = tile_matmul(act, p.w2) + p.b2
    return out, {"x": x, "pre": pre, "act": act}


def rownorm_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms <= 1e-300):
        raise NumericError("projection produced a zero vector; cannot normalize")
    y = x / norms
    return y, {"y": y, "norms": norms}


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., n, d) -> (..., n_heads, n, d // n_heads)."""
    *lead, n, d = x.shape
    return x.reshape(*lead, n, n_heads, d // n_heads).swapaxes(-2, -3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., n_heads, n, hd) -> (..., n, n_heads * hd)."""
    *lead, h, n, hd = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, h * hd)


def stack_text_rows(rows: np.ndarray, fresh: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The (..., N_t, width) stack of per-text rows `cross_attend_forward` keeps
    as distinct rows: the first text's N_t rows repeated over the stack, and
    rows[N_t:] where `fresh` (S - 1, N_t) marks a later text's row as its own."""
    n_t = shape[-1]
    out = np.repeat(rows[None, :n_t], len(fresh) + 1, axis=0)
    out[1:][fresh] = rows[n_t:]
    return out.reshape(*shape, rows.shape[-1])


def cross_attend_forward(
    patches: np.ndarray, text_emb: np.ndarray, p: AttnParams, config: EncoderConfig
) -> tuple[np.ndarray, dict]:
    """One transformer block: patches attend to text tokens.

    Patches provide the queries, text tokens the keys and values; both the
    multi-head attention sublayer and the position-wise feed-forward carry a
    residual connection.  Leading axes stack independent images: patches
    (..., n_patches, image_dim) attend to text_emb (..., N_t, text_dim).
    Output: (..., n_patches, attn_dim).

    Keys and values are projected in row tiles, once for the first stacked
    text and once more only for the rows where a later text differs from it
    (a document's ETE spans); tiles give those rows the bits they would get
    projected with all the others.
    """
    head_dim = config.attn_dim // config.n_heads
    scale = 1.0 / math.sqrt(head_dim)
    x = patches @ p.wq + p.bq  # (..., N_p, attn_dim): query projection, residual base
    stack = text_emb.reshape(-1, *text_emb.shape[-2:])
    fresh = np.any(stack[1:] != stack[0], axis=-1)  # rows that differ from the first text
    rows = np.concatenate([stack[0], stack[1:][fresh]])
    k_rows = tile_matmul(rows, p.wk) + p.bk
    v_rows = tile_matmul(rows, p.wv) + p.bv
    qh = split_heads(x, config.n_heads)
    kh = split_heads(stack_text_rows(k_rows, fresh, text_emb.shape[:-1]), config.n_heads)
    vh = split_heads(stack_text_rows(v_rows, fresh, text_emb.shape[:-1]), config.n_heads)
    logits = (qh @ kh.swapaxes(-1, -2)) * scale
    logits -= logits.max(axis=-1, keepdims=True)  # stability shift, gradient-neutral
    weights = np.exp(logits)
    weights /= weights.sum(axis=-1, keepdims=True)
    heads = weights @ vh
    concat = merge_heads(heads)
    attn_out = concat @ p.wo + p.bo
    h1 = x + attn_out
    ff_pre = h1 @ p.f1 + p.f1b
    ff_act = gelu(ff_pre)
    ff_out = ff_act @ p.f2 + p.f2b
    h2 = h1 + ff_out
    # keys and values are kept as their distinct rows; the backward restacks them
    cache = {
        "patches": patches, "rows": rows, "fresh": fresh, "k_rows": k_rows, "v_rows": v_rows,
        "x": x, "qh": qh, "weights": weights, "concat": concat,
        "h1": h1, "ff_pre": ff_pre, "ff_act": ff_act, "scale": scale,
    }
    return h2, cache


# ---------------------------------------------------------------------------
# Feature-set assembly.
#
# Encoding runs in two steps.  The per-item step embeds one query or one
# document and runs cross-attention, the one part that mixes its text with
# its images.  It returns the item's unprojected source rows: text embeddings
# (none for an image-only query), image globals and fused rows (n_patches *
# attn_dim wide, one per image that gets fused tokens), with `order`, the
# source row of each feature row.  Sources count text rows first, then
# globals, then fused tokens, n_mm_tokens per fused row.  The batch step,
# `project_batch`, runs `text_proj`, `global_proj` and `mm_proj` once each
# over the source rows of any number of items and gathers each item's unit
# vectors and provenance tags by its `order`.  Tiles keep each row's bits
# whatever the batch, so a document encodes to the same bytes alone, in a
# corpus chunk or in a training batch.
# ---------------------------------------------------------------------------

# Fused rows per batch step in `encode_corpus`: many tiles per `mm_proj`
# product, a few MB of activations per chunk.
CORPUS_CHUNK_ROWS = 256

# Fused rows per batch step in `encode_queries`: one `mm_proj` tile.  A query
# keeps far fewer rows than a chunk's activations hold, and with 256-row
# chunks 500 kept queries pinned about 6 MB more of the heap after the
# activations were freed; from 16 rows up the encoding is no faster.
QUERY_CHUNK_ROWS = TILE_ROWS

# Each kind of source row and the projection it runs through, in source order.
SOURCES = (("text", "text_proj"), ("globals", "global_proj"), ("fused", "mm_proj"))


def _project_unit(rows: np.ndarray, p: MlpParams, dim: int) -> tuple[np.ndarray, dict]:
    """rows (n, d_in) -> unit vectors (n * d_out // dim, dim): every output row
    split into dim-wide vectors, each normalized."""
    raw, mlp_cache = mlp_forward(rows, p)
    unit, norm_cache = rownorm_forward(raw.reshape(-1, dim))
    return unit, {"mlp": mlp_cache, "norm": norm_cache}


def _item(
    text_rows: np.ndarray, image_keys: Sequence[str], texts: np.ndarray, order: np.ndarray,
    at: tuple[np.ndarray, np.ndarray], target: str, params: EncoderParams,
    config: EncoderConfig, provider,
) -> dict:
    """The per-item step: the source rows of one query or one document.

    Every image gives its global vector; the first M = len(texts) images also
    attend to their own text rows texts[r], in one cross-attention call.  The
    gradient of texts at the (image, row) positions `at` goes to the tensor
    named `target`.
    """
    images = [embed_image(key, provider, config) for key in image_keys]
    patches = np.stack([image.patches for image in images[:len(texts)]])
    fused, x_cache = cross_attend_forward(patches, texts, params.xattn, config)
    return {"text": text_rows, "globals": np.stack([image.global_vec for image in images]),
            "fused": fused.reshape(len(texts), -1), "order": order,
            "xattn": x_cache, "at": at, "target": target}


@functools.lru_cache(maxsize=1024)
def _image_tags(n_globals: int, n_fused: int, n_mm: int) -> tuple[str, ...]:
    """The provenance tags of an item's global rows, then its fused rows:
    one cached tuple per shape, of interned strings, so every feature set
    shares one string object per tag value."""
    return tuple(sys.intern(tag) for tag in (
        [f"global-image:{r}" for r in range(n_globals)]
        + [f"multimodal:{r},{j}" for r in range(n_fused) for j in range(n_mm)]))


def project_batch(
    items: Sequence[dict], params: EncoderParams, config: EncoderConfig
) -> tuple[list[FeatureSet], dict]:
    """The batch step: one `text_proj`, one `global_proj` and one `mm_proj`
    call over the source rows of every item, each item's features gathered
    from the stacked unit outputs by its `order`.

    Returns the feature sets and the cache: each projection's activations
    under its source name, the items, "index", the stacked unit rows each
    item's features took, and "bounds", where each source kind starts and
    ends in the stack.
    """
    n_mm = config.n_mm_tokens
    cache: dict = {"items": items}
    units = []
    for key, name in SOURCES:
        rows = np.concatenate([item[key] for item in items])
        unit, cache[key] = _project_unit(rows, getattr(params, name), config.dim)
        units.append(unit)
    stacked = np.concatenate(units)
    # units per (source kind, item), and where each block starts in the stack
    sizes = np.array([[len(item[key]) for item in items] for key, _ in SOURCES])
    sizes[2] *= n_mm
    starts = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    cache["bounds"] = np.cumsum([0, *sizes.sum(axis=1)])
    features, cache["index"] = [], []
    for item, first, size in zip(items, starts.T, sizes.T):
        order = item["order"]
        index = np.concatenate([np.arange(a, a + n) for a, n in zip(first, size)])[order]
        tags = (("textual",) * len(item["text"])
                + _image_tags(len(item["globals"]), len(item["fused"]), n_mm))
        features.append(FeatureSet(stacked[index], tuple(tags[k] for k in order.tolist())))
        cache["index"].append(index)
    return features, cache


def encode_query_forward(
    query: QueryInput,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    image_only: bool = False,
) -> dict:
    """The per-item step of `encode_query`: its source rows, for
    `project_batch` to project alone or with those of other items."""
    tokens = tokenize(query.text)
    if not tokens and not image_only:
        raise InputError("query text is empty; only image-only mode allows that")
    if tokens:
        text_emb = embed_tokens(tokens, provider, config)
    else:
        text_emb = params.null_text[None, :]  # learned null-text token stands in for absent text
    text_rows = text_emb[:0] if image_only else text_emb
    # rows: global, text (unless image-only), then the fused tokens
    n_text = len(text_rows)
    order = np.concatenate([[n_text], np.arange(n_text),
                            n_text + 1 + np.arange(config.n_mm_tokens)])
    at = (np.zeros(int(not tokens), dtype=int),) * 2  # the null-text row, if used
    return _item(text_rows, [query.image_key], text_emb[None], order, at, "null_text",
                 params, config, provider)


def encode_query(
    query: QueryInput,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    image_only: bool = False,
) -> FeatureSet:
    """Query feature set: projected global image, text, and fused tokens.

    Standard mode yields 1 + N_t + n_mm_tokens members; image-only mode drops
    the projected text tokens (they still drive cross-attention keys/values).
    """
    item = encode_query_forward(query, params, config, provider, image_only)
    return project_batch([item], params, config)[0][0]


def encode_document_forward(
    doc: AugmentedDocument,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    flags: EncoderFlags,
) -> dict:
    """The per-item step of `encode_document`, as `encode_query_forward`."""
    if not doc.raw.main_image_key:
        raise DocumentError(f"document {doc.doc_id!r} has no main image")
    if not doc.text_tokens:
        raise InputError(f"document {doc.doc_id!r} has an empty body")
    text = embed_tokens(doc.text_tokens, provider, config)

    images: list[tuple[str, tuple[int, ...]]] = [(doc.raw.main_image_key, ())]
    if flags.mi:
        images.extend((rel.image_key, rel.span) for rel in doc.related)
    spans = [span if flags.ete else () for _, span in images]
    # apply_ete range-checks every span, also those of images without fused tokens
    texts = [apply_ete(text, span, params.ete) if span else text for span in spans]
    n_fused = len(images) if flags.mmf else 1  # the main image always gets fused tokens

    # rows: text, then per image its global vector followed by its fused tokens
    n_text, n_mm = len(doc.text_tokens), config.n_mm_tokens
    blocks = [np.arange(n_text)]
    for r in range(len(images)):
        blocks.append([n_text + r])
        if r < n_fused:
            blocks.append(n_text + len(images) + r * n_mm + np.arange(n_mm))
    pairs = [(r, s) for r, span in enumerate(spans[:n_fused]) for s in sorted(set(span))]
    at = tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)  # the ETE-shifted text rows
    return _item(text, [key for key, _ in images], np.stack(texts[:n_fused]),
                 np.concatenate(blocks), at, "ete", params, config, provider)


def encode_document(
    doc: AugmentedDocument,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    flags: EncoderFlags = EncoderFlags(),
) -> FeatureSet:
    """Document feature set: text union per-image global + fused tokens.

    All flags on: |D| = N_t + (R + 1) * (1 + n_mm_tokens).  mi off drops the
    related images entirely; mmf off keeps fused tokens only for the main
    image, so each related image contributes just its projected global
    feature; ete off (or a zero embedding) leaves the text unperturbed.
    """
    item = encode_document_forward(doc, params, config, provider, flags)
    return project_batch([item], params, config)[0][0]


def _project_chunks(items: Iterable[dict], params: EncoderParams, config: EncoderConfig,
                    chunk_rows: int) -> list[FeatureSet]:
    """The items' feature sets, the batch step run over chunks of about
    chunk_rows fused rows; each item's cross-attention cache, the
    backward's activations, is dropped as the item is made."""
    out: list[FeatureSet] = []
    chunk: list[dict] = []
    n_rows = 0
    for item in items:
        del item["xattn"]
        chunk.append(item)
        n_rows += len(item["fused"])
        if n_rows >= chunk_rows:
            out.extend(project_batch(chunk, params, config)[0])
            chunk, n_rows = [], 0
    if chunk:
        out.extend(project_batch(chunk, params, config)[0])
    return out


def encode_queries(
    queries: Sequence[QueryInput],
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    image_only: bool = False,
) -> list[FeatureSet]:
    """Every query's feature set, with the batch step run over chunks of
    about QUERY_CHUNK_ROWS fused rows, one per query; the bytes equal
    `encode_query`'s."""
    check_params_finite(params)
    items = (encode_query_forward(q, params, config, provider, image_only) for q in queries)
    return _project_chunks(items, params, config, QUERY_CHUNK_ROWS)


def encode_corpus(
    kb: Mapping[str, AugmentedDocument],
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    flags: EncoderFlags = EncoderFlags(),
) -> dict[str, FeatureSet]:
    """Every document's feature set, with the batch step run over chunks of
    about CORPUS_CHUNK_ROWS fused rows; the bytes equal `encode_document`'s."""
    check_params_finite(params)
    doc_ids = sorted(kb)
    items = (encode_document_forward(kb[d], params, config, provider, flags) for d in doc_ids)
    return dict(zip(doc_ids, _project_chunks(items, params, config, CORPUS_CHUNK_ROWS)))
