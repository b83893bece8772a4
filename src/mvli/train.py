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
    SOURCES,
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
    project_batch,
    split_heads,
    stack_text_rows,
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


@dataclass
class TrainStats:
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)


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


def _grad_buffers(params: EncoderParams) -> dict[str, np.ndarray]:
    """One gradient buffer per tensor, in `named_tensors` order.  Each
    projection's buffers start unfilled: `_mlp_backward` writes them whole.
    The rest accumulate over a batch's items from zero."""
    written = tuple(f"{name}." for _, name in SOURCES)
    return {name: (np.empty_like if name.startswith(written) else np.zeros_like)(tensor)
            for name, tensor in named_tensors(params).items()}


def _mlp_backward(dy: np.ndarray, cache: dict, p: MlpParams, grads: dict, prefix: str):
    """Each projection runs once per batch, so its gradients are written, not
    accumulated.  The products are plain GEMMs: no step needs a row's input
    gradient to carry the bits it would get in another batch."""
    x, pre, act = cache["x"], cache["pre"], cache["act"]
    np.matmul(act.T, dy, out=grads[prefix + ".w2"])
    dy.sum(axis=0, out=grads[prefix + ".b2"])
    dpre = dy @ p.w2.T
    dpre *= gelu_grad(pre)
    np.matmul(x.T, dpre, out=grads[prefix + ".w1"])
    dpre.sum(axis=0, out=grads[prefix + ".b1"])
    return dpre @ p.w1.T


def _rownorm_backward(dy: np.ndarray, cache: dict) -> np.ndarray:
    y, norms = cache["y"], cache["norms"]
    return (dy - (dy * y).sum(axis=-1, keepdims=True) * y) / norms


def _project_unit_backward(dy, cache, p: MlpParams, grads, prefix) -> np.ndarray:
    """Mirror of `encoder._project_unit`: d loss / d its input rows."""
    draw = _rownorm_backward(dy, cache["norm"]).reshape(len(cache["mlp"]["x"]), -1)
    return _mlp_backward(draw, cache["mlp"], p, grads, prefix)


def _fold_rows(d: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Transpose of `encoder.stack_text_rows`: the gradient of each stacked
    text row summed into the distinct row it was copied from."""
    d = d.reshape(-1, *d.shape[-2:])
    shared = d[0] + np.where(fresh[..., None], 0.0, d[1:]).sum(axis=0)
    return np.concatenate([shared, d[1:][fresh]])


def _cross_attend_backward(
    dh2: np.ndarray, cache: dict, p: AttnParams, config: EncoderConfig, grads: dict,
    at: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Returns d loss / d text_emb summed over the (image, row) positions `at`.

    Position-wise products run on the stack folded into rows; attention
    keeps the stack's leading axes.  Keys and values are restacked from the
    distinct text rows, and their weight gradients folded back onto them.
    """
    h1, ff_pre, ff_act = _flat(cache["h1"]), _flat(cache["ff_pre"]), _flat(cache["ff_act"])
    weights, qh, fresh, scale = cache["weights"], cache["qh"], cache["fresh"], cache["scale"]
    text_shape = (*cache["x"].shape[:-2], fresh.shape[-1])
    kh = split_heads(stack_text_rows(cache["k_rows"], fresh, text_shape), config.n_heads)
    vh = split_heads(stack_text_rows(cache["v_rows"], fresh, text_shape), config.n_heads)

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

    dweights = dheads @ vh.swapaxes(-1, -2)
    dvh = weights.swapaxes(-1, -2) @ dheads
    dlogits = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dqh = (dlogits @ kh) * scale
    dkh = (dlogits.swapaxes(-1, -2) @ qh) * scale

    dx = dh1 + _flat(merge_heads(dqh))  # residual path plus query-projection path
    dk = merge_heads(dkh).reshape(-1, *text_shape[-1:], config.attn_dim)
    dv = merge_heads(dvh).reshape(dk.shape)

    grads["xattn.wq"] += _flat(cache["patches"]).T @ dx
    grads["xattn.bq"] += dx.sum(axis=0)
    for name, d in (("wk", dk), ("wv", dv)):
        d_rows = _fold_rows(d, fresh)
        grads[f"xattn.{name}"] += cache["rows"].T @ d_rows
        grads[f"xattn.b{name[1]}"] += d_rows.sum(axis=0)
    return dk[at].sum(axis=0) @ p.wk.T + dv[at].sum(axis=0) @ p.wv.T


def _batch_backward(
    drows: Sequence[np.ndarray], cache: dict, params: EncoderParams, config: EncoderConfig,
    grads: dict,
) -> None:
    """Mirror of `encoder.project_batch` and of each item's cross-attention:
    drows[i] is d loss / d item i's feature rows."""
    bounds, items = cache["bounds"], cache["items"]
    dunits = np.zeros((bounds[-1], config.dim))
    dunits[np.concatenate(cache["index"])] = np.concatenate(drows)
    dsource = {key: _project_unit_backward(dunits[a:b], cache[key], getattr(params, name),
                                           grads, name)
               for (key, name), a, b in zip(SOURCES, bounds, bounds[1:])}
    fused_bounds = np.cumsum([0] + [len(item["fused"]) for item in items])
    for item, a, b in zip(items, fused_bounds, fused_bounds[1:]):
        dfused = dsource["fused"][a:b].reshape(b - a, config.n_patches, config.attn_dim)
        grads[item["target"]] += _cross_attend_backward(
            dfused, item["xattn"], params.xattn, config, grads, item["at"])


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
    gradient for every trainable tensor.  Each projection runs once forward
    and once backward over the source rows of the whole batch."""
    if len(queries) != len(docs):
        raise ConfigError("queries and documents must be aligned")
    if len(queries) < 2:
        raise ConfigError("batch size must be >= 2")
    items = ([encode_query_forward(q, params, config, provider, image_only) for q in queries]
             + [encode_document_forward(d, params, config, provider, flags) for d in docs])
    b = len(queries)
    features, cache = project_batch(items, params, config)
    q_feats, d_feats = features[:b], features[b:]

    scores, argmax = score_matrix(q_feats, d_feats)
    loss, dscores = softmax_cross_entropy(scores)

    grads = _grad_buffers(params)
    dq_rows = [np.zeros_like(f.vectors) for f in q_feats]
    dd_rows = [np.zeros_like(f.vectors) for f in d_feats]
    for i in range(b):
        qv = q_feats[i].vectors
        for j in range(b):
            w = dscores[i, j]
            if w == 0.0:
                continue
            best = argmax[i][j]
            dq_rows[i] += w * d_feats[j].vectors[best]
            np.add.at(dd_rows[j], best, w * qv)
    _batch_backward(dq_rows + dd_rows, cache, params, config, grads)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for tensor {name!r}")
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer loop.
# ---------------------------------------------------------------------------


def _sgd_step(tensors: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
              lr: float) -> None:
    """tensor -= lr * grad, scaling each gradient in place."""
    for name, tensor in tensors.items():
        g = grads[name]
        g *= lr
        tensor -= g


class _Adam:
    def __init__(self, tensors: Mapping[str, np.ndarray], lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.t = 0

    def step(self, tensors: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]):
        """m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        tensor -= lr * m_hat / (sqrt(v_hat) + eps), with m, v and each
        gradient updated in place and one scratch buffer per tensor."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, tensor in tensors.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            scratch = (1 - b1) * g
            m += scratch
            v *= b2
            np.multiply(1 - b2, g, out=scratch)
            scratch *= g
            v += scratch
            np.divide(v, 1 - b2**self.t, out=scratch)  # v_hat
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, 1 - b1**self.t, out=g)  # m_hat
            np.multiply(self.lr, g, out=g)
            g /= scratch
            tensor -= g


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
    if cfg.epochs >= 1 and len(samples) < cfg.batch_size:
        raise DataError(f"{len(samples)} training samples cannot fill one batch of "
                        f"{cfg.batch_size}")
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
            norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
            stats.losses.append(loss)
            stats.grad_norms.append(norm)
            if optimizer is not None:
                optimizer.step(tensors, grads)
            else:
                _sgd_step(tensors, grads, cfg.learning_rate)
    return params, stats
