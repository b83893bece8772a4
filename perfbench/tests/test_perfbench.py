"""Tests of the benchmark itself: every workload on a tiny world, the traced
run, and every correctness check against a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from mvli.core import FeatureSet  # noqa: E402
from mvli.scoring import ScoredDoc, rank_exact  # noqa: E402

TINY_DOCS = 40
SEED = 1
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: bool = False) -> dict:
    return workloads.run(workload, SEED, 0.3, trace, n_docs=TINY_DOCS)


def unit_rows(rng, n: int, dim: int = 16) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Whole workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_on_a_tiny_world(workload):
    result = tiny_run(workload)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names == set(workloads.END_TO_END)
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload):
    first, second = tiny_run(workload, trace=True), tiny_run(workload, trace=True)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(first["metrics"]) == names == list(workloads.PER_LAYER)
    counts = [n for n in names if workloads.PER_LAYER[n] in ("count", "bytes")]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})
    trace = json.loads((workloads.OUT_DIR / f"trace-{workload}-seed{SEED}.json").read_text())
    spans = trace["spans"]
    assert spans["synth.generate_benchmark"]["parents"] == {"<run>": 1}
    for layer in spans.values():
        assert 0 <= layer["self_s"] <= layer["time_s"] + 1e-9
    parent = {"search-200": "encoder.encode_corpus", "train-200": "train.loss_and_grads",
              "eval-1000": "encoder.encode_corpus"}[workload]
    assert parent in spans["encoder.encode_document_forward"]["parents"]
    reached = {"search-200": "index.search.time_s", "train-200": "train.loss_and_grads.time_s",
               "eval-1000": "scoring.rank_exact.time_s"}
    for name, metric in reached.items():  # each layer is reached by its own workload only
        assert (first["metrics"][metric]["value"] > 0) == (name == workload)


def _corrupting(monkeypatch, module, name, corrupt):
    original = getattr(module, name)

    def corrupted(*args, **kwargs):
        return corrupt(original(*args, **kwargs), *args)

    monkeypatch.setattr(module, name, corrupted)


def test_search_rejects_a_shuffled_ranking(monkeypatch):
    _corrupting(monkeypatch, workloads.index_mod, "search", lambda res, *a: res[::-1])
    assert tiny_run("search-200")["correct"] is False


def test_search_rejects_a_wrong_feature_count(monkeypatch):
    def drop_row(corpus, *args):
        doc_id = sorted(corpus)[0]
        features = corpus[doc_id]
        corpus[doc_id] = FeatureSet(features.vectors[1:], features.provenance[1:])
        return corpus

    _corrupting(monkeypatch, workloads.encoder_mod, "encode_corpus", drop_row)
    assert tiny_run("search-200")["correct"] is False


def test_train_rejects_a_wrong_update(monkeypatch):
    def overshoot(result, samples, kb, cfg, params, *rest):
        for tensor in workloads.flat_tensors(params).values():
            tensor *= 1.0001
        return result

    _corrupting(monkeypatch, workloads.train_mod, "train", overshoot)
    assert tiny_run("train-200")["correct"] is False


def test_eval_rejects_a_wrong_recall(monkeypatch):
    def inflate(report, *args):
        report.rows = [dataclasses.replace(r, value=min(1.0, r.value + 0.25))
                       if r.metric == "recall" and r.k == workloads.K else r
                       for r in report.rows]
        return report

    _corrupting(monkeypatch, workloads.evaluation_mod, "evaluate_model", inflate)
    assert tiny_run("eval-1000")["correct"] is False


def test_run_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def test_brute_force_agrees_with_the_engine_oracle():
    rng = np.random.default_rng(3)
    corpus = {}
    for i in range(60):
        rows = unit_rows(rng, int(rng.integers(5, 40)))
        corpus[f"d{i:02d}"] = FeatureSet(rows, ("textual",) * len(rows))
    queries = [FeatureSet(r, ("textual",) * len(r))
               for r in (unit_rows(rng, int(rng.integers(3, 20))) for _ in range(12))]
    vectors = [q.vectors for q in queries]
    full = [[s.doc_id for s in rank_exact(q, corpus, 60)] for q in queries]
    brute = checks.BruteForce(corpus, docs_per_block=7)
    assert brute.top_k(vectors, 10) == [ranking[:10] for ranking in full]
    for rank in (0, 9, 10, 30):
        gts = [ranking[rank] for ranking in full]
        assert brute.hits(vectors, gts, 10) == [rank < 10] * len(queries)


def test_check_ranking_rejects_disorder_duplicates_and_short_lists():
    good = [ScoredDoc("a", 3.0), ScoredDoc("b", 2.0), ScoredDoc("c", 2.0)]
    ids = {"a", "b", "c", "d"}
    assert checks.check_ranking(good, 3, ids) == []
    assert checks.check_ranking(good[::-1], 3, ids)
    assert checks.check_ranking([good[0], good[2], good[1]], 3, ids)  # tie out of order
    assert checks.check_ranking([good[0], good[0], good[1]], 3, ids)
    assert checks.check_ranking(good[:2], 3, ids)
    assert checks.check_ranking([ScoredDoc("z", 3.0)] + good[1:], 3, ids)


def test_check_overlap_and_round_trip():
    exact = [["a", "b"], ["c", "d"]]
    assert checks.check_overlap(exact, exact, 2)[1] == []
    assert checks.check_overlap([["a", "x"], ["c", "d"]], exact, 2)[1]
    ranking = [ScoredDoc("a", 2.0), ScoredDoc("b", 1.0)]
    assert checks.check_round_trip(ranking, list(ranking)) == []
    assert checks.check_round_trip(ranking, ranking[::-1])


def test_shape_checks_reject_a_wrong_count_or_a_non_unit_row():
    rng = np.random.default_rng(0)
    body, n_related, n_mm = "w1 w2 w3", 2, 4
    doc = unit_rows(rng, 3 + 3 * 5)
    assert checks.check_document_shape(doc, body, n_related, n_mm) == []
    assert checks.check_document_shape(doc[1:], body, n_related, n_mm)
    assert checks.check_document_shape(doc * 1.1, body, n_related, n_mm)
    query = unit_rows(rng, 1 + 2 + n_mm)
    assert checks.check_query_shape(query, "two words", n_mm) == []
    assert checks.check_query_shape(query[:-1], "two words", n_mm)


def test_check_finite_and_gradient():
    assert checks.check_finite("x", [1.0, 2.0]) == []
    assert checks.check_finite("x", [1.0, math.nan])
    x = 0.3

    def central(eps):
        return (math.sin(x + eps) - math.sin(x - eps)) / (2 * eps)

    assert checks.check_gradient(math.cos(x), central, "sin") == []
    assert checks.check_gradient(1.5 * math.cos(x), central, "sin")


def _report_rows(values: dict[str, list[float]]):
    row = workloads.evaluation_mod.ReportRow
    rows = []
    for split, recalls in values.items():
        rows += [row("b", split, "f", "recall", k, v) for k, v in zip((1, 5, 10), recalls)]
        rows.append(row("b", split, "f", "distractor_recall", 10, 0.1))
    return rows


def test_check_report_shape_and_recall():
    good = {s: [0.2, 0.5, 0.8] for s in checks.SPLITS}
    assert checks.check_report_shape(_report_rows(good), (1, 5, 10)) == []
    assert checks.check_report_shape(_report_rows({**good, "seen": [0.5, 0.2, 0.8]}),
                                     (1, 5, 10))
    assert checks.check_report_shape(_report_rows({"all": good["all"]}), (1, 5, 10))
    hits = {"all": [True, False, True, True]}
    assert checks.check_recall({"all": 0.75}, hits) == []
    assert checks.check_recall({"all": 0.5}, hits)
