"""Contrastive training of the encoder parameters.

The trainable surface is small (three projection MLPs, one cross-attention
block, the entity token embedding, and the null-text token), so gradients are
hand-written reverse-mode passes mirroring the forward caches in `encoder`.
The MaxSim subgradient routes each query token's gradient through its
arg-max document token, ties resolved to the lowest token index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .augment import AugmentedDocument
from .core import ConfigError, DataError, FeatureSet, NumericError, Rng
from .encoder import (
    AttnParams,
    EncoderConfig,
    EncoderFlags,
    EncoderParams,
    MlpParams,
    QueryInput,
    check_params_finite,
    encode_document_forward,
    encode_query_forward,
    gelu_grad,
    merge_heads,
    named_tensors,
    params_checksum,
    split_heads,
    zero_grads,
)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 1e-3
    epochs: int = 1
    seed: int = 0
    flags: EncoderFlags = field(default_factory=EncoderFlags)
    adam: bool = False
    image_only: bool = False

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 for in-batch negatives")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


@dataclass
class TrainStats:
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    final_checksum: str = ""


# ---------------------------------------------------------------------------
# Loss over a batch of encoded feature sets.
# ---------------------------------------------------------------------------


def score_matrix(queries: Sequence[FeatureSet], docs: Sequence[FeatureSet]):
    """Pairwise late-interaction scores plus arg-max token indices."""
    b = len(queries)
    scores = np.zeros((b, b))
    argmax: list[list[np.ndarray]] = []
    for i, q in enumerate(queries):
        row = []
        for j, d in enumerate(docs):
            sims = q.vectors @ d.vectors.T
            best = sims.argmax(axis=1)  # ties -> lowest index
            row.append(best)
            scores[i, j] = sims[np.arange(sims.shape[0]), best].sum()
        argmax.append(row)
    return scores, argmax


def softmax_cross_entropy(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of -log softmax at the diagonal, with d loss / d scores."""
    b = scores.shape[0]
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(b), np.arange(b)])))
    dscores = (probs - np.eye(b)) / b
    return loss, dscores


def contrastive_loss(queries: Sequence[FeatureSet], docs: Sequence[FeatureSet]) -> float:
    """In-batch softmax cross-entropy: positives sit on the diagonal."""
    if len(queries) != len(docs):
        raise ConfigError("queries and documents must be aligned")
    if len(queries) < 2:
        raise ConfigError("batch size must be >= 2")
    scores, _ = score_matrix(queries, docs)
    loss, _ = softmax_cross_entropy(scores)
    return loss


# ---------------------------------------------------------------------------
# Backward passes, mirroring the encoder forward caches.
# ---------------------------------------------------------------------------


def _flat(a: np.ndarray) -> np.ndarray:
    """Fold every leading axis of a stack into rows: (..., d) -> (n, d)."""
    return a.reshape(-1, a.shape[-1])


def _mlp_backward(dy: np.ndarray, cache: dict, p: MlpParams, grads: dict, prefix: str):
    x, pre, act = _flat(cache["x"]), _flat(cache["pre"]), _flat(cache["act"])
    dy = _flat(dy)
    grads[prefix + ".w2"] += act.T @ dy
    grads[prefix + ".b2"] += dy.sum(axis=0)
    dpre = (dy @ p.w2.T) * gelu_grad(pre)
    grads[prefix + ".w1"] += x.T @ dpre
    grads[prefix + ".b1"] += dpre.sum(axis=0)
    return (dpre @ p.w1.T).reshape(cache["x"].shape)


def _rownorm_backward(dy: np.ndarray, cache: dict) -> np.ndarray:
    y, norms = cache["y"], cache["norms"]
    return (dy - (dy * y).sum(axis=-1, keepdims=True) * y) / norms


def _project_unit_backward(dy, cache, p: MlpParams, grads, prefix) -> np.ndarray:
    draw = _rownorm_backward(dy, cache["norm"])
    return _mlp_backward(draw, cache["mlp"], p, grads, prefix)


def _cross_attend_backward(
    dh2: np.ndarray, cache: dict, p: AttnParams, config: EncoderConfig, grads: dict
) -> np.ndarray:
    """Returns the gradient w.r.t. the text embeddings fed as keys/values.

    Position-wise products run on the stack folded into rows; attention
    keeps the stack's leading axes.
    """
    h1, ff_pre, ff_act = _flat(cache["h1"]), _flat(cache["ff_pre"]), _flat(cache["ff_act"])
    weights, qh, kh, vh = cache["weights"], cache["qh"], cache["kh"], cache["vh"]
    patches, text_emb = _flat(cache["patches"]), _flat(cache["text_emb"])
    scale = cache["scale"]

    # feed-forward sublayer with residual
    dh2 = _flat(dh2)
    grads["xattn.f2"] += ff_act.T @ dh2
    grads["xattn.f2b"] += dh2.sum(axis=0)
    dff_pre = (dh2 @ p.f2.T) * gelu_grad(ff_pre)
    grads["xattn.f1"] += h1.T @ dff_pre
    grads["xattn.f1b"] += dff_pre.sum(axis=0)
    dh1 = dh2 + dff_pre @ p.f1.T

    # output projection of the attention sublayer, with residual into x
    grads["xattn.wo"] += _flat(cache["concat"]).T @ dh1
    grads["xattn.bo"] += dh1.sum(axis=0)
    dheads = split_heads((dh1 @ p.wo.T).reshape(cache["x"].shape), config.n_heads)

    dweights = np.einsum("...hqd,...hkd->...hqk", dheads, vh)
    dvh = np.einsum("...hqk,...hqd->...hkd", weights, dheads)
    dlogits = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dqh = np.einsum("...hqk,...hkd->...hqd", dlogits, kh) * scale
    dkh = np.einsum("...hqk,...hqd->...hkd", dlogits, qh) * scale

    dx = dh1 + _flat(merge_heads(dqh))  # residual path plus query-projection path
    dk = _flat(merge_heads(dkh))
    dv = _flat(merge_heads(dvh))

    grads["xattn.wq"] += patches.T @ dx
    grads["xattn.bq"] += dx.sum(axis=0)
    grads["xattn.wk"] += text_emb.T @ dk
    grads["xattn.bk"] += dk.sum(axis=0)
    grads["xattn.wv"] += text_emb.T @ dv
    grads["xattn.bv"] += dv.sum(axis=0)
    return (dk @ p.wk.T + dv @ p.wv.T).reshape(cache["text_emb"].shape)


def _images_backward(
    dghat: np.ndarray, dmhat: np.ndarray, cache: dict, params: EncoderParams,
    config: EncoderConfig, grads: dict,
) -> np.ndarray:
    """Mirror of `encoder._images_forward`: dghat (R, dim), dmhat (M, n_mm_tokens,
    dim) -> d loss / d text rows of the M fused images, (M, N_t, text_dim)."""
    _project_unit_backward(dghat[:, None], cache["g"], params.global_proj, grads, "global_proj")
    n_fused = dmhat.shape[0]
    draw = _rownorm_backward(dmhat, cache["mm_norm"])
    dflat = _mlp_backward(draw.reshape(n_fused, 1, -1), cache["mm_mlp"], params.mm_proj,
                          grads, "mm_proj")
    dfused = dflat.reshape(n_fused, config.n_patches, config.attn_dim)
    return _cross_attend_backward(dfused, cache["xattn"], params.xattn, config, grads)


def _query_backward(
    dq: np.ndarray, cache: dict, params: EncoderParams, config: EncoderConfig, grads: dict
):
    n_mm = config.n_mm_tokens  # rows: global, text (unless image-only), fused tokens
    if cache["text_cache"] is not None:
        _project_unit_backward(dq[1:-n_mm], cache["text_cache"], params.text_proj, grads,
                               "text_proj")
    dtext = _images_backward(dq[:1], dq[None, -n_mm:], cache["images"], params, config, grads)
    if cache["used_null"]:
        grads["null_text"] += dtext.sum(axis=(0, 1))


def _document_backward(
    dd: np.ndarray, cache: dict, params: EncoderParams, config: EncoderConfig, grads: dict
):
    n_text, spans = cache["n_text"], cache["spans"]
    _project_unit_backward(dd[:n_text], cache["text_cache"], params.text_proj, grads, "text_proj")
    end = n_text + len(spans) * (1 + config.n_mm_tokens)
    fused = dd[n_text:end].reshape(len(spans), 1 + config.n_mm_tokens, -1)
    dghat = np.concatenate([fused[:, 0], dd[end:]])
    dtext = _images_backward(dghat, fused[:, 1:], cache["images"], params, config, grads)
    for r, span in enumerate(spans):
        if span:
            grads["ete"] += dtext[r, np.unique(span)].sum(axis=0)


def loss_and_grads(
    params: EncoderParams,
    queries: Sequence[QueryInput],
    docs: Sequence[AugmentedDocument],
    config: EncoderConfig,
    provider,
    flags: EncoderFlags = EncoderFlags(),
    image_only: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive loss over aligned (query, positive document) pairs and the
    gradient for every trainable tensor."""
    if len(queries) != len(docs):
        raise ConfigError("queries and documents must be aligned")
    if len(queries) < 2:
        raise ConfigError("batch size must be >= 2")
    q_feats, q_caches = [], []
    for q in queries:
        feats, cache = encode_query_forward(q, params, config, provider, image_only)
        q_feats.append(feats)
        q_caches.append(cache)
    d_feats, d_caches = [], []
    for d in docs:
        feats, cache = encode_document_forward(d, params, config, provider, flags)
        d_feats.append(feats)
        d_caches.append(cache)

    scores, argmax = score_matrix(q_feats, d_feats)
    loss, dscores = softmax_cross_entropy(scores)

    grads = zero_grads(params)
    dq_rows = [np.zeros_like(f.vectors) for f in q_feats]
    dd_rows = [np.zeros_like(f.vectors) for f in d_feats]
    b = len(queries)
    for i in range(b):
        qv = q_feats[i].vectors
        for j in range(b):
            w = dscores[i, j]
            if w == 0.0:
                continue
            best = argmax[i][j]
            dq_rows[i] += w * d_feats[j].vectors[best]
            np.add.at(dd_rows[j], best, w * qv)
    for i in range(b):
        _query_backward(dq_rows[i], q_caches[i], params, config, grads)
    for j in range(b):
        _document_backward(dd_rows[j], d_caches[j], params, config, grads)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for tensor {name!r}")
    return loss, grads


def grad_params(
    params: EncoderParams,
    queries: Sequence[QueryInput],
    docs: Sequence[AugmentedDocument],
    config: EncoderConfig,
    provider,
    flags: EncoderFlags = EncoderFlags(),
    image_only: bool = False,
) -> dict[str, np.ndarray]:
    """Gradient structure only; see loss_and_grads."""
    return loss_and_grads(params, queries, docs, config, provider, flags, image_only)[1]


# ---------------------------------------------------------------------------
# Optimizer loop.
# ---------------------------------------------------------------------------


class _Adam:
    def __init__(self, tensors: Mapping[str, np.ndarray], lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.t = 0

    def step(self, tensors: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]):
        self.t += 1
        for name, tensor in tensors.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / (1 - self.beta1**self.t)
            vhat = self.v[name] / (1 - self.beta2**self.t)
            tensor -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def train(
    samples: Sequence,
    kb: Mapping[str, AugmentedDocument],
    cfg: TrainConfig,
    params: EncoderParams,
    config: EncoderConfig,
    provider,
) -> tuple[EncoderParams, TrainStats]:
    """Train in place over (question, ground-truth document) pairs.

    Batches use in-batch negatives; documents are re-encoded each step with
    the current parameters.  Fully deterministic for a fixed seed.
    """
    for sample in samples:
        if sample.gt_doc_id not in kb:
            raise DataError(f"sample {sample.sample_id!r} references missing "
                            f"document {sample.gt_doc_id!r}")
    check_params_finite(params)
    stats = TrainStats()
    tensors = named_tensors(params)
    optimizer = _Adam(tensors, cfg.learning_rate) if cfg.adam else None
    order_rng = Rng(cfg.seed).split("batch-order")
    n = len(samples)
    for epoch in range(cfg.epochs):
        perm = order_rng.split(epoch).generator().permutation(n)
        for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
            batch = [samples[perm[i]] for i in range(start, start + cfg.batch_size)]
            queries = [QueryInput(s.question, s.query_image_key) for s in batch]
            docs = [kb[s.gt_doc_id] for s in batch]
            loss, grads = loss_and_grads(
                params, queries, docs, config, provider, cfg.flags, cfg.image_only
            )
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            stats.losses.append(loss)
            stats.grad_norms.append(norm)
            if optimizer is not None:
                optimizer.step(tensors, grads)
            else:
                for name, tensor in tensors.items():
                    tensor -= cfg.learning_rate * grads[name]
    stats.final_checksum = params_checksum(params)
    return params, stats
