"""Correctness checks on the engine's outputs.

Every check derives its verdict from the benchmark's own computation or from
a property the method must have, never from stored output.  Each returns a
list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

UNIT_TOL = 1e-6
OVERLAP_BAR = 0.95  # top-10 overlap of the index with exhaustive scoring
# Screening margin for float32 MaxSim: a 16-dim float32 dot product of unit
# vectors errs by ~1e-6, so a sum over at most a few hundred query rows stays
# well inside it; rows within the margin are rescored in float64.
SCREEN_MARGIN = 1e-3


class BruteForce:
    """Exhaustive MaxSim over an encoded corpus, in plain numpy.

    Document rows are stacked in doc_id order; scores come from blocked
    GEMMs with a per-document max and a per-query sum.
    """

    def __init__(self, corpus: Mapping[str, object], docs_per_block: int = 25):
        self.doc_ids = sorted(corpus)
        blocks = [np.asarray(corpus[d].vectors, dtype=np.float64) for d in self.doc_ids]
        sizes = np.array([len(b) for b in blocks])
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.ends = np.cumsum(sizes)
        self.rows64 = np.vstack(blocks)
        self.rows32 = self.rows64.astype(np.float32)
        self.docs_per_block = docs_per_block

    def scores(self, queries: Sequence[np.ndarray], dtype=np.float64) -> np.ndarray:
        """(n_queries, n_docs) MaxSim scores, eight queries per GEMM."""
        rows = self.rows64 if dtype == np.float64 else self.rows32
        n_docs = len(self.doc_ids)
        out = np.empty((len(queries), n_docs))
        for q0 in range(0, len(queries), 8):
            group = [np.asarray(q, dtype=np.float64) for q in queries[q0:q0 + 8]]
            stacked = np.vstack(group).astype(dtype)
            q_starts = np.concatenate([[0], np.cumsum([len(q) for q in group])[:-1]])
            for d0 in range(0, n_docs, self.docs_per_block):
                d1 = min(d0 + self.docs_per_block, n_docs)
                lo, hi = self.starts[d0], self.ends[d1 - 1]
                best = np.maximum.reduceat(stacked @ rows[lo:hi].T, self.starts[d0:d1] - lo,
                                           axis=1)
                out[q0:q0 + len(group), d0:d1] = np.add.reduceat(
                    best.astype(np.float64), q_starts, axis=0)
        return out

    def exact(self, query: np.ndarray, doc: int) -> float:
        rows = self.rows64[self.starts[doc]:self.ends[doc]]
        return float((np.asarray(query, dtype=np.float64) @ rows.T).max(axis=1).sum())

    def top_k(self, queries: Sequence[np.ndarray], k: int) -> list[list[str]]:
        """Exact top-k doc ids per query; ties broken by ascending doc_id."""
        scores = self.scores(queries, np.float64)
        order = np.lexsort((np.broadcast_to(np.arange(scores.shape[1]), scores.shape),
                            -scores), axis=1)
        return [[self.doc_ids[j] for j in row[:k]] for row in order]

    def hits(self, queries: Sequence[np.ndarray], gt_doc_ids: Sequence[str], k: int) -> list[bool]:
        """Whether each query's ground-truth document ranks within the top k.

        Scores are screened in float32; every document within the screening
        margin of the ground truth is rescored in float64, so the rank is exact.
        """
        approx = self.scores(queries, np.float32)
        position = {d: j for j, d in enumerate(self.doc_ids)}
        out = []
        for i, gt in enumerate(gt_doc_ids):
            g = position[gt]
            above = int(np.count_nonzero(approx[i] > approx[i, g] + SCREEN_MARGIN))
            if above >= k:
                out.append(False)
                continue
            near = np.flatnonzero(np.abs(approx[i] - approx[i, g]) <= SCREEN_MARGIN)
            gt_score = self.exact(queries[i], g)
            for j in near:
                if j == g:
                    continue
                s = self.exact(queries[i], int(j))
                if s > gt_score or (s == gt_score and j < g):
                    above += 1
            out.append(above < k)
        return out


# ---------------------------------------------------------------------------
# search-200
# ---------------------------------------------------------------------------


def check_ranking(results: Sequence, k: int, corpus_ids: set[str]) -> list[str]:
    """k distinct corpus ids, scores non-increasing, equal scores by doc_id."""
    problems = []
    ids = [r.doc_id for r in results]
    if len(ids) != k:
        problems.append(f"ranking holds {len(ids)} results, expected {k}")
    if len(set(ids)) != len(ids):
        problems.append("ranking repeats a document")
    if not set(ids) <= corpus_ids:
        problems.append("ranking names a document outside the corpus")
    for a, b in zip(results, results[1:]):
        if not math.isfinite(a.score) or b.score > a.score:
            problems.append(f"scores increase or are not finite: {a.score} then {b.score}")
            break
        if b.score == a.score and b.doc_id < a.doc_id:
            problems.append(f"tie between {a.doc_id} and {b.doc_id} not broken by doc_id")
            break
    return problems


def check_overlap(index_top: Sequence[Sequence[str]], exact_top: Sequence[Sequence[str]],
                  k: int, bar: float = OVERLAP_BAR) -> tuple[float, list[str]]:
    """Mean top-k overlap of index results with exhaustive results."""
    overlaps = [len(set(a[:k]) & set(b[:k])) / k for a, b in zip(index_top, exact_top)]
    mean = float(np.mean(overlaps)) if overlaps else 0.0
    if not overlaps or mean < bar:
        return mean, [f"top-{k} overlap with brute force {mean:.4f} is below {bar}"]
    return mean, []


def check_round_trip(in_memory: Sequence, loaded: Sequence) -> list[str]:
    """The index read back from its file ranks as the index it was saved from."""
    same = [r.doc_id for r in in_memory] == [r.doc_id for r in loaded]
    return [] if same else ["loaded index ranks differently from the in-memory index"]


def _unit_rows(vectors: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= UNIT_TOL))


def check_document_shape(vectors: np.ndarray, body: str, n_related: int,
                         n_mm_tokens: int) -> list[str]:
    """All flags on: N_t + (R + 1)(1 + n_mm_tokens) unit rows."""
    expected = len(body.split()) + (n_related + 1) * (1 + n_mm_tokens)
    problems = []
    if len(vectors) != expected:
        problems.append(f"document has {len(vectors)} feature rows, expected {expected}")
    if not _unit_rows(vectors):
        problems.append("document feature rows are not unit-norm")
    return problems


def check_query_shape(vectors: np.ndarray, question: str, n_mm_tokens: int) -> list[str]:
    """1 + N_t + n_mm_tokens unit rows."""
    expected = 1 + len(question.split()) + n_mm_tokens
    problems = []
    if len(vectors) != expected:
        problems.append(f"query has {len(vectors)} feature rows, expected {expected}")
    if not _unit_rows(vectors):
        problems.append("query feature rows are not unit-norm")
    return problems


# ---------------------------------------------------------------------------
# train-200
# ---------------------------------------------------------------------------


def check_finite(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=np.float64)
    return [] if np.all(np.isfinite(arr)) else [f"{label} holds non-finite values"]


def check_gradient(update: float, central_difference: Callable[[float], float],
                   label: str, steps: Sequence[float] = (1e-6, 1e-7, 1e-8)) -> list[str]:
    """The applied update (theta_before - theta_after) / lr against central
    differences of the loss.  A MaxSim arg-max flip inside +-eps bends the
    difference, so the coordinate passes if any of the step sizes agrees."""
    seen = []
    for eps in steps:
        fd = central_difference(eps)
        if abs(fd - update) <= 1e-7 + 1e-4 * max(abs(fd), abs(update)):
            return []
        seen.append(f"{fd:.9g}@{eps:g}")
    return [f"{label}: update {update:.9g} disagrees with central differences {seen}"]


# ---------------------------------------------------------------------------
# eval-1000
# ---------------------------------------------------------------------------

SPLITS = ("all", "seen", "unseen")


def check_report_shape(rows: Sequence, ks: Sequence[int]) -> list[str]:
    """Recall rows per split, each non-decreasing in k; distractor rows present."""
    table: dict[tuple[str, str], dict[int, float]] = {}
    for row in rows:
        table.setdefault((row.metric, row.split), {})[row.k] = row.value
    problems = []
    for split in SPLITS:
        recall = table.get(("recall", split), {})
        if sorted(recall) != sorted(ks):
            problems.append(f"recall rows for split {split!r} cover k={sorted(recall)}")
            continue
        values = [recall[k] for k in sorted(ks)]
        if any(not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"recall for split {split!r} leaves [0, 1]: {values}")
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"recall for split {split!r} decreases in k: {values}")
        if not table.get(("distractor_recall", split)):
            problems.append(f"no distractor_recall rows for split {split!r}")
    return problems


def check_recall(reported: Mapping[str, float], hits: Mapping[str, Sequence[bool]]) -> list[str]:
    """Reported recall per split equals recall from the brute-force ranking."""
    problems = []
    for split, flags in hits.items():
        expected = sum(flags) / len(flags)
        got = reported.get(split)
        if got is None or abs(got - expected) > 1e-9:
            problems.append(f"recall for split {split!r} is {got}, brute force gives {expected}")
    return problems
