"""Query and document encoders.

Backbone features are frozen deterministic stubs (or file-backed, precomputed
vectors); the trainable surface is the projection MLPs, one cross-attention
transformer block, the entity token embedding, and a null-text token.

Every forward helper returns a cache alongside its output so the training
module can run reverse-mode differentiation through the exact same code path.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .augment import AugmentedDocument
from .core import (
    ConfigError,
    CorruptionError,
    DocumentError,
    FeatureSet,
    FormatError,
    InputError,
    MissingEmbeddingError,
    NumericError,
    Rng,
    SpanError,
    UnsupportedVersionError,
    read_exact,
    seeded_unit_vector,
    tokenize,
)

# ---------------------------------------------------------------------------
# Configuration and parameters.
# ---------------------------------------------------------------------------


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
# Parameter checkpoint file: magic "MPRM", version, encoder shape header,
# then a tensor table of (name, shape, float64 values), all little-endian.
# ---------------------------------------------------------------------------

_PARAMS_MAGIC = b"MPRM"
_PARAMS_VERSION = 1


def save_params(params: EncoderParams, config: EncoderConfig, path: str | Path) -> None:
    tensors = named_tensors(params)
    with open(path, "wb") as fh:
        fh.write(_PARAMS_MAGIC)
        fh.write(struct.pack("<I", _PARAMS_VERSION))
        fh.write(struct.pack(
            "<8I", config.dim, config.text_dim, config.image_dim, config.n_patches,
            config.n_heads, config.attn_dim, config.ffn_dim, config.n_mm_tokens,
        ))
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_params(path: str | Path) -> tuple[EncoderParams, EncoderConfig]:
    with open(path, "rb") as fh:
        if read_exact(fh, 4, "checkpoint") != _PARAMS_MAGIC:
            raise FormatError(f"{path}: not a parameter checkpoint (bad magic)")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
        if version != _PARAMS_VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported checkpoint version {version}")
        dims = struct.unpack("<8I", read_exact(fh, 32, "checkpoint"))
        try:
            config = EncoderConfig(
                dim=dims[0], text_dim=dims[1], image_dim=dims[2], n_patches=dims[3],
                n_heads=dims[4], attn_dim=dims[5], ff_dim=dims[6], n_mm_tokens=dims[7],
            )
        except ConfigError as exc:
            raise CorruptionError(f"{path}: bad encoder shape header: {exc}") from exc
        (count,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, "checkpoint"))
            try:
                name = read_exact(fh, name_len, "checkpoint").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptionError(f"{path}: tensor name is not utf-8") from exc
            (ndim,) = struct.unpack("<B", read_exact(fh, 1, "checkpoint"))
            if ndim > 2:  # every parameter is a vector or a matrix
                raise CorruptionError(f"{path}: tensor {name!r} has {ndim} dimensions")
            shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, "checkpoint"))
            data = np.frombuffer(read_exact(fh, 8 * math.prod(shape), "checkpoint"), dtype="<f8")
            tensors[name] = data.reshape(shape).copy()
        if fh.read(1):
            raise CorruptionError(f"{path}: trailing bytes after tensor table")

    if {name: arr.shape for name, arr in tensors.items()} != param_shapes(config):
        raise CorruptionError(f"{path}: tensor table does not match the shape header")
    params = _params_from_tensors(tensors)
    check_params_finite(params)
    return params, config


# ---------------------------------------------------------------------------
# Backbone feature stubs and providers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TextFeatures:
    tokens: tuple[str, ...]
    embeddings: np.ndarray  # (N_t, text_dim)


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
    """Precomputed backbone features from a binary record file.

    Record layout (little-endian): key length u32, key bytes (UTF-8), dim u32,
    then dim float32 values.  Keys follow the convention "text:<token>",
    "img-g:<image key>", "img-p:<patch index>:<image key>".
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


def write_embedding_file(records: Mapping[str, np.ndarray], path: str | Path) -> None:
    with open(path, "wb") as fh:
        for key in sorted(records):
            encoded = key.encode("utf-8")
            values = np.ascontiguousarray(records[key], dtype="<f4")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", values.shape[0]))
            fh.write(values.tobytes())


def read_embedding_file(path: str | Path) -> dict[str, np.ndarray]:
    records: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CorruptionError(f"{path}: truncated record header")
            (key_len,) = struct.unpack("<I", head)
            try:
                key = read_exact(fh, key_len, "embedding").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptionError(f"{path}: embedding key is not utf-8") from exc
            (dim,) = struct.unpack("<I", read_exact(fh, 4, "embedding"))
            data = np.frombuffer(read_exact(fh, 4 * dim, "embedding"), dtype="<f4")
            records[key] = data.astype(np.float64)
    return records


def embed_tokens(tokens: Sequence[str], provider, config: EncoderConfig) -> TextFeatures:
    if not tokens:
        raise InputError("cannot embed an empty token sequence")
    embeddings = np.stack([provider.text_vector(tok) for tok in tokens])
    return TextFeatures(tuple(tokens), embeddings)


def embed_text(text: str, provider, config: EncoderConfig) -> TextFeatures:
    """Token-level text features: lowercased whitespace tokens, one vector each."""
    tokens = tokenize(text)
    if not tokens:
        raise InputError("text is empty after tokenization")
    return embed_tokens(tokens, provider, config)


def embed_image(image_key: str, provider, config: EncoderConfig) -> ImageFeatures:
    """Global and patch-level image features for a symbolic image key."""
    global_vec = provider.image_global(image_key)
    patches = np.stack(
        [provider.image_patch(image_key, j) for j in range(config.n_patches)]
    )
    return ImageFeatures(global_vec, patches)


def apply_ete(text: TextFeatures, span: Iterable[int], theta: np.ndarray) -> TextFeatures:
    """Copy of `text` with `theta` added to the embeddings at `span` (0-based)."""
    indices = sorted(set(int(i) for i in span))
    n = text.embeddings.shape[0]
    for i in indices:
        if i < 0 or i >= n:
            raise SpanError(f"token index {i} outside range [0, {n})")
    shifted = text.embeddings.copy()
    if indices:
        shifted[indices] += np.asarray(theta, dtype=np.float64)
    return TextFeatures(text.tokens, shifted)


# ---------------------------------------------------------------------------
# Differentiable kernels (forward passes with caches).
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    u = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def mlp_forward(x: np.ndarray, p: MlpParams) -> tuple[np.ndarray, dict]:
    """x: (n, d_in) -> (n, d_out)."""
    pre = x @ p.w1 + p.b1
    act = gelu(pre)
    out = act @ p.w2 + p.b2
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


def cross_attend_forward(
    patches: np.ndarray, text_emb: np.ndarray, p: AttnParams, config: EncoderConfig
) -> tuple[np.ndarray, dict]:
    """One transformer block: patches attend to text tokens.

    Patches provide the queries, text tokens the keys and values; both the
    multi-head attention sublayer and the position-wise feed-forward carry a
    residual connection.  Leading axes stack independent images: patches
    (..., n_patches, image_dim) attend to text_emb (..., N_t, text_dim).
    Output: (..., n_patches, attn_dim).
    """
    head_dim = config.attn_dim // config.n_heads
    scale = 1.0 / math.sqrt(head_dim)
    x = patches @ p.wq + p.bq  # (..., N_p, attn_dim): query projection, residual base
    k = text_emb @ p.wk + p.bk
    v = text_emb @ p.wv + p.bv
    qh = split_heads(x, config.n_heads)
    kh = split_heads(k, config.n_heads)
    vh = split_heads(v, config.n_heads)
    logits = np.einsum("...hqd,...hkd->...hqk", qh, kh) * scale
    logits -= logits.max(axis=-1, keepdims=True)  # stability shift, gradient-neutral
    weights = np.exp(logits)
    weights /= weights.sum(axis=-1, keepdims=True)
    heads = np.einsum("...hqk,...hkd->...hqd", weights, vh)
    concat = merge_heads(heads)
    attn_out = concat @ p.wo + p.bo
    h1 = x + attn_out
    ff_pre = h1 @ p.f1 + p.f1b
    ff_act = gelu(ff_pre)
    ff_out = ff_act @ p.f2 + p.f2b
    h2 = h1 + ff_out
    cache = {
        "patches": patches, "text_emb": text_emb, "x": x,
        "qh": qh, "kh": kh, "vh": vh, "weights": weights, "concat": concat,
        "h1": h1, "ff_pre": ff_pre, "ff_act": ff_act, "scale": scale,
    }
    return h2, cache


def cross_attend(
    patches: np.ndarray, text: TextFeatures, params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """Public fused-feature map; validates weight finiteness first."""
    for name in _ATTN_FIELDS:
        if not np.all(np.isfinite(getattr(params.xattn, name))):
            raise NumericError(f"non-finite values in cross-attention tensor {name!r}")
    out, _ = cross_attend_forward(patches, text.embeddings, params.xattn, config)
    return out


# ---------------------------------------------------------------------------
# Feature-set assembly.
# ---------------------------------------------------------------------------


def _project_unit(rows: np.ndarray, p: MlpParams) -> tuple[np.ndarray, dict]:
    raw, mlp_cache = mlp_forward(rows, p)
    unit, norm_cache = rownorm_forward(raw)
    return unit, {"mlp": mlp_cache, "norm": norm_cache}


def _images_forward(
    image_keys: Sequence[str], text_emb: np.ndarray, params: EncoderParams,
    config: EncoderConfig, provider,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Stacked features of the R images of one query or one document.

    Every image gets a projected global vector; the first M = len(text_emb)
    images also attend to their own text rows text_emb[r] and get fused
    tokens.  Each product runs over the leading image axis, one image at a
    time, so an image's features do not depend on how many are stacked.
    Returns ghat (R, dim) and mhat (M, n_mm_tokens, dim).
    """
    images = [embed_image(key, provider, config) for key in image_keys]
    n_fused = text_emb.shape[0]
    globals_ = np.stack([image.global_vec for image in images])[:, None, :]
    ghat, g_cache = _project_unit(globals_, params.global_proj)
    patches = np.stack([image.patches for image in images[:n_fused]])
    fused, x_cache = cross_attend_forward(patches, text_emb, params.xattn, config)
    mm_raw, mm_cache = mlp_forward(fused.reshape(n_fused, 1, -1), params.mm_proj)
    mhat, mm_norm = rownorm_forward(mm_raw.reshape(n_fused, config.n_mm_tokens, config.dim))
    cache = {"g": g_cache, "xattn": x_cache, "mm_mlp": mm_cache, "mm_norm": mm_norm}
    return ghat[:, 0], mhat, cache


def encode_query_forward(
    query: QueryInput,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    image_only: bool = False,
) -> tuple[FeatureSet, dict]:
    tokens = tokenize(query.text)
    if not tokens and not image_only:
        raise InputError("query text is empty; only image-only mode allows that")
    if tokens:
        text_emb = embed_tokens(tokens, provider, config).embeddings
    else:
        text_emb = params.null_text[None, :]  # learned null-text token stands in for absent text
    ghat, mhat, img_cache = _images_forward(
        [query.image_key], text_emb[None], params, config, provider
    )

    rows = [ghat]
    provenance: list[str] = ["global-image:0"]
    text_cache = None
    if not image_only:
        that, text_cache = _project_unit(text_emb, params.text_proj)
        rows.append(that)
        provenance.extend(["textual"] * text_emb.shape[0])
    rows.append(mhat[0])
    provenance.extend(f"multimodal:0,{j}" for j in range(config.n_mm_tokens))
    features = FeatureSet(np.vstack(rows), tuple(provenance))
    cache = {"images": img_cache, "text_cache": text_cache, "used_null": not tokens}
    return features, cache


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
    check_params_finite(params)
    features, _ = encode_query_forward(query, params, config, provider, image_only)
    return features


def encode_document_forward(
    doc: AugmentedDocument,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    flags: EncoderFlags,
) -> tuple[FeatureSet, dict]:
    if not doc.raw.main_image_key:
        raise DocumentError(f"document {doc.doc_id!r} has no main image")
    if not doc.text_tokens:
        raise InputError(f"document {doc.doc_id!r} has an empty body")
    text = embed_tokens(doc.text_tokens, provider, config)
    that, text_cache = _project_unit(text.embeddings, params.text_proj)

    images: list[tuple[str, tuple[int, ...]]] = [(doc.raw.main_image_key, ())]
    if flags.mi:
        images.extend((rel.image_key, rel.span) for rel in doc.related)
    spans = [span if flags.ete else () for _, span in images]
    # apply_ete range-checks every span, also those of images without fused tokens
    texts = [apply_ete(text, span, params.ete).embeddings if span else text.embeddings
             for span in spans]
    n_fused = len(images) if flags.mmf else 1  # the main image always gets fused tokens
    ghat, mhat, img_cache = _images_forward(
        [key for key, _ in images], np.stack(texts[:n_fused]), params, config, provider
    )

    # rows: text, then per image its global vector followed by its fused tokens
    fused_rows = np.concatenate([ghat[:n_fused, None], mhat], axis=1).reshape(-1, config.dim)
    provenance = ["textual"] * len(doc.text_tokens)
    for r in range(len(images)):
        provenance.append(f"global-image:{r}")
        if r < n_fused:
            provenance.extend(f"multimodal:{r},{j}" for j in range(config.n_mm_tokens))
    features = FeatureSet(np.vstack([that, fused_rows, ghat[n_fused:]]), tuple(provenance))
    cache = {"text_cache": text_cache, "images": img_cache, "spans": spans[:n_fused],
             "n_text": len(doc.text_tokens)}
    return features, cache


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
    check_params_finite(params)
    features, _ = encode_document_forward(doc, params, config, provider, flags)
    return features


def encode_corpus(
    kb: Mapping[str, AugmentedDocument],
    params: EncoderParams,
    config: EncoderConfig,
    provider,
    flags: EncoderFlags = EncoderFlags(),
) -> dict[str, FeatureSet]:
    check_params_finite(params)
    out: dict[str, FeatureSet] = {}
    for doc_id in sorted(kb):
        features, _ = encode_document_forward(kb[doc_id], params, config, provider, flags)
        out[doc_id] = features
    return out
