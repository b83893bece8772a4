"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops, separate from the
library's vectorized code paths.
"""

from __future__ import annotations

import math

import numpy as np

from mvli.scoring import ScoredDoc, late_interaction_score


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


def per_doc_rank(query, corpus, k: int) -> list[ScoredDoc]:
    """The exact ranking as a per-doc loop: one late_interaction_score call
    per document, sorted by (-score, doc_id), the first k kept."""
    scored = [ScoredDoc(doc_id, late_interaction_score(query, doc))
              for doc_id, doc in corpus.items()]
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    return scored[:k]


def _gelu(z: np.ndarray) -> np.ndarray:
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (z + 0.044715 * z**3)))


def gelu_grad_expression(x: np.ndarray) -> np.ndarray:
    """d gelu / dx as one out-of-place expression, in the operation order
    `encoder.gelu_grad` keeps in place: its byte reference."""
    c = math.sqrt(2.0 / math.pi)
    sq = x * x
    t = np.tanh(c * (x + 0.044715 * (sq * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * sq)


def sgd_update(tensor: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One out-of-place SGD step."""
    return tensor - lr * grad


def adam_updates(tensor, grads, lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> np.ndarray:
    """The tensor after one out-of-place Adam step per gradient in `grads`."""
    m = v = np.zeros_like(tensor)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        tensor = tensor - lr * mhat / (np.sqrt(vhat) + eps)
    return tensor


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


def _naive_unit_rows(rows, p, dim: int) -> list[np.ndarray]:
    """A projection MLP applied row by row; each output row is cut into
    dim-wide pieces, each normalized."""
    out = []
    for x in rows:
        y = _gelu(x @ p.w1 + p.b1) @ p.w2 + p.b2
        for start in range(0, len(y), dim):
            piece = y[start:start + dim]
            out.append(piece / np.linalg.norm(piece))
    return out


def _naive_fused_tokens(image_key, text, params, config, provider, r: int):
    """(tag, vector) of each fused token of image r attending to `text`."""
    patches = np.array([provider.image_patch(image_key, j) for j in range(config.n_patches)])
    fused = naive_cross_attention(patches, text, params.xattn, config.n_heads).reshape(-1)
    tokens = _naive_unit_rows([fused], params.mm_proj, config.dim)
    return [(f"multimodal:{r},{j}", vec) for j, vec in enumerate(tokens)]


def _naive_global(image_key, params, config, provider, r: int):
    vec = _naive_unit_rows([provider.image_global(image_key)], params.global_proj, config.dim)[0]
    return (f"global-image:{r}", vec)


def naive_query_features(query, params, config, provider, image_only: bool):
    """Tags and vectors of a query, row by row: its global image, then its
    text unless image-only, then its image's fused tokens.  An empty text
    attends to the null-text token."""
    from mvli.core import tokenize

    tokens = tokenize(query.text)
    if tokens:
        text = np.array([provider.text_vector(tok) for tok in tokens])
    else:
        text = params.null_text[None, :]
    rows = [_naive_global(query.image_key, params, config, provider, 0)]
    if not image_only:
        for vec in _naive_unit_rows(text, params.text_proj, config.dim):
            rows.append(("textual", vec))
    rows.extend(_naive_fused_tokens(query.image_key, text, params, config, provider, 0))
    return [tag for tag, _ in rows], np.array([vec for _, vec in rows])


def naive_document_features(doc, params, config, provider, flags):
    """Tags and vectors of a document, row by row: its text, then each image's
    global vector followed by that image's fused tokens when it gets them (the
    main image always, a related image with mmf).  Related images come only
    with mi; with ete an image's text has `ete` added on its entity span."""
    text = np.array([provider.text_vector(tok) for tok in doc.text_tokens])
    rows = [("textual", vec) for vec in _naive_unit_rows(text, params.text_proj, config.dim)]
    images = [(doc.raw.main_image_key, ())]
    if flags.mi:
        images += [(rel.image_key, rel.span) for rel in doc.related]
    for r, (image_key, span) in enumerate(images):
        rows.append(_naive_global(image_key, params, config, provider, r))
        if r == 0 or flags.mmf:
            shifted = text.copy()
            if flags.ete:
                for i in set(span):
                    shifted[i] += params.ete
            rows.extend(_naive_fused_tokens(image_key, shifted, params, config, provider, r))
    return [tag for tag, _ in rows], np.array([vec for _, vec in rows])


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


def per_posting_top_k(bodies, query_terms, k: int, k1=1.2, b=0.75):
    """BM25 top-k by a loop over tf postings, each contribution computed when
    its posting is read: per distinct query term in order of first
    occurrence, per doc in ascending id order, score += qtf * contribution.
    Docs sharing no term with the query are not scored; the ranking is by
    descending score then ascending id."""
    from collections import Counter

    from mvli.core import tokenize

    doc_len, postings = {}, {}
    for doc_id in sorted(bodies):
        terms = tokenize(bodies[doc_id])
        doc_len[doc_id] = len(terms)
        for term, f in Counter(terms).items():
            postings.setdefault(term, {})[doc_id] = f
    avgdl = sum(doc_len.values()) / len(bodies)
    scores = {}
    for term, qtf in Counter(query_terms).items():
        posting = postings.get(term)
        if not posting:
            continue
        df = len(posting)
        idf = math.log((len(bodies) - df + 0.5) / (df + 0.5))
        for doc_id, f in posting.items():
            norm = k1 * (1.0 - b + b * doc_len[doc_id] / avgdl)
            contrib = idf * f * (k1 + 1.0) / (f + norm)
            scores[doc_id] = scores.get(doc_id, 0.0) + qtf * contrib
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


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


def one_shot_centroid_update(
    vectors: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """The centroid update as one segment sum over every member row, gathered
    at once in cluster order: np.add.reduceat(vectors[order], starts)."""
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


def one_shot_codes(vectors: np.ndarray, centroids: np.ndarray, assignments: np.ndarray):
    """8-bit residual codes and codebook of the given clustering, each step
    one whole-array expression: clip(rint((v - c[a] - code_min) * scale))."""
    residuals = vectors - centroids[assignments]
    code_min, code_max = residuals.min(axis=0), residuals.max(axis=0)
    spread = code_max - code_min
    scale = np.where(spread > 0, 255.0 / np.where(spread > 0, spread, 1.0), 0.0)
    codes = np.clip(np.rint((residuals - code_min) * scale), 0, 255).astype(np.uint8)
    return codes, code_min, code_max


def one_shot_rows32(index) -> np.ndarray:
    """The screen rows of an index with every centroid row gathered in one
    take: codes * float32 step + float32(centroids + code_min)[assignments]
    (the stored rows cast when nbits == 0)."""
    rows = index.codes.astype(np.float32)
    if index.nbits != 0:
        spread = index.code_max - index.code_min
        rows *= np.where(spread > 0, spread / 255.0, 0.0).astype(np.float32)
        rows += (index.centroids + index.code_min).astype(np.float32).take(
            index.assignments, axis=0)
    return rows


def naive_link(doc, kb_titles):
    """Per-document dictionary scan that re-tokenizes every KB title.

    Returns (entity, span, source_doc_id) triples in order of first mention:
    longest match first, then leftmost; the document's own title is skipped;
    when titles share a token tuple the first one in `kb_titles` wins.
    """
    from mvli.core import tokenize

    by_tokens = {}
    for title, doc_id in kb_titles.items():
        key = tuple(tokenize(title))
        if key and key not in by_tokens:
            by_tokens[key] = (title, doc_id)
    max_len = max((len(key) for key in by_tokens), default=0)
    tokens = tokenize(doc.body)
    own = tuple(tokenize(doc.title))

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


def naive_dequantize(index, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of a compressed index, one vector at a time: its
    centroid plus code_min + code * step per dimension (the stored vectors
    themselves when nbits == 0)."""
    if index.nbits == 0:
        return np.array([index.codes[i] for i in range(start, stop)])
    spread = index.code_max - index.code_min
    step = np.where(spread > 0, spread / 255.0, 0.0)
    return np.array([
        index.centroids[index.assignments[i]]
        + (index.code_min + index.codes[i].astype(np.float64) * step)
        for i in range(start, stop)
    ])


def decode_rows32(index, ids: np.ndarray) -> np.ndarray:
    """The float32 screen rows of the given vector ids, decoded on the spot:
    codes cast to float32, times the float32 step, plus the float32 of
    centroid + code_min summed in float64 (the stored rows cast when
    nbits == 0)."""
    rows = index.codes.take(ids, axis=0).astype(np.float32)
    if index.nbits != 0:
        spread = index.code_max - index.code_min
        rows *= np.where(spread > 0, spread / 255.0, 0.0).astype(np.float32)
        rows += (index.centroids + index.code_min).astype(np.float32)[index.assignments[ids]]
    return rows


def per_block_screen(index, q: np.ndarray, docs: np.ndarray, width: int) -> np.ndarray:
    """The index screen of the given ascending doc indices with each block's
    rows decoded by decode_rows32 when the block is scored, the blocks as
    `_maxsim_sums` cuts them at `width`."""
    from mvli import index as index_mod

    ids = np.concatenate([np.arange(index.doc_offsets[d], index.doc_offsets[d + 1])
                          for d in docs])
    q32 = q.astype(np.float32)
    return index_mod._maxsim_sums(
        index.doc_sizes[docs], width,
        lambda lo, hi: q32 @ decode_rows32(index, ids[lo:hi]).T, (0, len(q)))[0]


def naive_search(index, query_rows: np.ndarray, k: int, nprobe: int, cap: int):
    """Two-stage search as a per-doc loop, from the stored assignments and doc
    sizes alone.

    Each query row probes its nprobe most similar centroids; a doc is a
    candidate if any of its vectors sits in a probed centroid.  Past `cap`
    candidates, each doc's centroid-level score (sum over query rows of the
    max over the probed centroids among the doc's distinct centroids) picks
    the cap best, ties to the lower doc index; with every centroid probed
    that is the max over all the doc's centroids, which is asserted.  Each
    candidate is then dequantized and scored exactly on its own.  Returns
    the sorted candidate doc ids and the top k (doc_id, score) pairs, ties
    broken by doc_id.
    """
    n_docs = len(index.doc_ids)
    nprobe = min(nprobe, index.centroids.shape[0])
    cent_sims = query_rows @ index.centroids.T
    probed = set()
    for row in cent_sims:
        probed.update(np.argsort(-row, kind="stable")[:nprobe].tolist())
    bounds = [0]
    for size in index.doc_sizes:
        bounds.append(bounds[-1] + int(size))
    cents = [sorted(set(index.assignments[bounds[d]:bounds[d + 1]].tolist()))
             for d in range(n_docs)]
    candidates = [d for d in range(n_docs) if probed & set(cents[d])]
    if len(candidates) > cap:
        approx = []
        for d in candidates:
            score = float(cent_sims[:, sorted(probed & set(cents[d]))].max(axis=1).sum())
            if nprobe == index.centroids.shape[0]:
                assert score == float(cent_sims[:, cents[d]].max(axis=1).sum())
            approx.append(score)
        ranked = sorted(zip(candidates, approx), key=lambda t: (-t[1], t[0]))
        candidates = sorted(d for d, _ in ranked[:cap])
    scored = []
    for d in candidates:
        rows = naive_dequantize(index, bounds[d], bounds[d + 1])
        scored.append((index.doc_ids[d], float((query_rows @ rows.T).max(axis=1).sum())))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return sorted(index.doc_ids[d] for d in candidates), scored[:k]


def single_pass_search(index, query, params):
    """Index search with a one-pass re-rank: every candidate dequantized and
    scored in float64, with one reconstruct and one product per block of
    whole docs.  The prefilter is the library's; `search` must equal this in
    ids, order and score bits."""
    from mvli import index as index_mod, scoring as scoring_mod

    q = query.vectors
    width = scoring_mod._SCREEN_BLOCK_ROWS
    nprobe = min(params.nprobe, index.centroids.shape[0])
    cent_sims = q @ index.centroids.T
    probed = np.unique(np.argpartition(-cent_sims, nprobe - 1, axis=1)[:, :nprobe])
    offsets = index.centroid_doc_offsets
    sizes = offsets[probed + 1] - offsets[probed]
    if not sizes.any():
        return []
    docs = index.centroid_doc_ids[index_mod._run_positions(offsets[probed], sizes)]
    ordered, counts = np.unique(docs, return_counts=True)
    if ordered.size > params.candidate_doc_cap:
        cents = np.repeat(probed, sizes)[np.argsort(docs, kind="stable")]
        approx = index_mod._maxsim_sums(
            counts, width, lambda lo, hi: cent_sims.take(cents[lo:hi], axis=1), (0, len(q)))[0]
        ordered = np.sort(ordered[np.lexsort((ordered, -approx))[:params.candidate_doc_cap]])
    sizes = index.doc_sizes[ordered]
    ids = index_mod._run_positions(index.doc_offsets[ordered], sizes)
    scores = index_mod._maxsim_sums(
        sizes, width, lambda lo, hi: q @ index_mod.reconstruct(index, ids[lo:hi]).T,
        (0, len(q)))[0]
    top = np.lexsort((ordered, -scores))[:params.k]
    return [ScoredDoc(index.doc_ids[ordered[i]], float(scores[i])) for i in top]


def naive_enumerate_target_subgraphs(graph, rng, limit: int):
    """Up to `limit` distinct subgraphs from at most max(4 * limit, 8) uniform
    draws, with no stop at the graph's pair count."""
    from mvli.datagen import extract_target_subgraph

    found, seen = [], set()
    for attempt in range(max(4 * limit, 8)):
        if len(found) >= limit:
            break
        sg = extract_target_subgraph(graph, rng.split(attempt))
        if sg is None:
            break
        key = (sg.query_entity, sg.qualifying_entity)
        if key not in seen:
            seen.add(key)
            found.append(sg)
    return found
