"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops, separate from the
library's vectorized code paths.
"""

from __future__ import annotations

import math

import numpy as np


def naive_late_interaction(query_rows: np.ndarray, doc_rows: np.ndarray) -> float:
    """Exhaustive pairwise cosine + max + sum over unit vectors."""
    total = 0.0
    for q in query_rows:
        best = -math.inf
        for d in doc_rows:
            best = max(best, float(np.dot(q, d)))
        total += best
    return total


def naive_rank(query_rows: np.ndarray, corpus: dict[str, np.ndarray], k: int):
    scored = [
        (doc_id, naive_late_interaction(query_rows, rows)) for doc_id, rows in corpus.items()
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def _gelu(z: np.ndarray) -> np.ndarray:
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (z + 0.044715 * z**3)))


def naive_cross_attention(
    patches: np.ndarray, text: np.ndarray, p, n_heads: int
) -> np.ndarray:
    """Per-head, per-patch loop reference for the fused transformer block."""
    d_h = p.wq.shape[1]
    hd = d_h // n_heads
    x = patches @ p.wq + p.bq
    k = text @ p.wk + p.bk
    v = text @ p.wv + p.bv
    n_p, n_t = patches.shape[0], text.shape[0]
    concat = np.zeros((n_p, d_h))
    for h in range(n_heads):
        cols = slice(h * hd, (h + 1) * hd)
        for i in range(n_p):
            logits = np.array([float(x[i, cols] @ k[j, cols]) for j in range(n_t)])
            logits /= math.sqrt(hd)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            out = np.zeros(hd)
            for j in range(n_t):
                out += weights[j] * v[j, cols]
            concat[i, cols] = out
    attn = concat @ p.wo + p.bo
    h1 = x + attn
    h2 = h1 + _gelu(h1 @ p.f1 + p.f1b) @ p.f2 + p.f2b
    return h2


def finite_diff(loss_fn, arr: np.ndarray, flat_index: int, eps: float = 1e-4) -> float:
    """Central finite difference of loss_fn w.r.t. one tensor coordinate."""
    orig = arr.flat[flat_index]
    arr.flat[flat_index] = orig + eps
    plus = loss_fn()
    arr.flat[flat_index] = orig - eps
    minus = loss_fn()
    arr.flat[flat_index] = orig
    return (plus - minus) / (2.0 * eps)


def grad_rel_error(fd: float, analytic: float, floor: float = 1e-6) -> float:
    """Relative error with a small floor so exact-zero gradients compare sanely."""
    return abs(fd - analytic) / max(abs(fd), abs(analytic), floor)


def maxsim_margin(query_sets, doc_sets) -> float:
    """Smallest gap between each row's best and best non-duplicate similarity.

    Central differences are only valid where the max-similarity selection is
    locally stable; batches whose margin is within the finite-difference step
    sit on a kink of the piecewise-smooth loss and must not be used for
    gradient checks.  Bitwise-duplicate tokens (gap exactly zero) move
    together under perturbation and are ignored.
    """
    worst = math.inf
    for q in query_sets:
        for d in doc_sets:
            sims = q.vectors @ d.vectors.T
            for row in sims:
                top = row.max()
                others = row[row < top]
                if others.size:
                    worst = min(worst, float(top - others.max()))
    return worst


def naive_bm25(query_terms, doc_terms, all_doc_terms, k1=1.2, b=0.75) -> float:
    """Direct Okapi formula over explicit token lists."""
    n_docs = len(all_doc_terms)
    avgdl = sum(len(d) for d in all_doc_terms) / n_docs
    dl = len(doc_terms)
    score = 0.0
    for term in query_terms:
        tf = sum(1 for t in doc_terms if t == term)
        if tf == 0:
            continue
        df = sum(1 for d in all_doc_terms if term in d)
        idf = math.log((n_docs - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return score


def naive_centroid_update(
    vectors: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Per-centroid loop over member scans: renormalized member means, and an
    unchanged centroid where the cluster is empty or its mean is near zero."""
    updated = centroids.copy()
    for c in range(centroids.shape[0]):
        members = np.flatnonzero(assignments == c)
        if members.size == 0:
            continue
        mean = vectors[members].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm > 1e-12:
            updated[c] = mean / norm
    return updated


def naive_link(doc, kb_titles):
    """Per-document dictionary scan that re-tokenizes every KB title.

    Returns (entity, span, source_doc_id) triples in order of first mention:
    longest match first, then leftmost; the document's own title is skipped;
    when titles share a token tuple the first one in `kb_titles` wins.
    """
    from mvli.core import normalize_token, tokenize

    by_tokens = {}
    for title, doc_id in kb_titles.items():
        key = tuple(normalize_token(t) for t in tokenize(title))
        if key and key not in by_tokens:
            by_tokens[key] = (title, doc_id)
    max_len = max((len(key) for key in by_tokens), default=0)
    tokens = [normalize_token(t) for t in tokenize(doc.body)]
    own = tuple(normalize_token(t) for t in tokenize(doc.title))

    candidates = []
    for start in range(len(tokens)):
        for length in range(min(max_len, len(tokens) - start), 0, -1):
            window = tuple(tokens[start:start + length])
            if window in by_tokens and window != own:
                candidates.append((start, length) + by_tokens[window])
    candidates.sort(key=lambda c: (-c[1], c[0]))

    taken = [False] * len(tokens)
    selected = []
    for start, length, title, doc_id in candidates:
        if not any(taken[start:start + length]):
            for i in range(start, start + length):
                taken[i] = True
            selected.append((start, length, title, doc_id))

    merged = {}
    for start, length, title, doc_id in sorted(selected):
        entity, span = merged.get(doc_id, (title, ()))
        merged[doc_id] = (entity, span + tuple(range(start, start + length)))
    return [(entity, span, doc_id) for doc_id, (entity, span) in merged.items()]
