"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All experiments run at desk scale with pinned seeds; tolerances are asserted
exactly as stated.  The trend criteria (3 and 4) use a 200-document synthetic
benchmark with 400 training and 100 test samples.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from _oracles import finite_diff, grad_rel_error, maxsim_margin
from conftest import random_feature_set
from mvli.augment import RawDocument, RelatedEntity, AugmentedDocument, augment_kb
from mvli.bm25 import Bm25Index
from mvli.core import FeatureSet, Rng, tokenize
from mvli.datagen import (
    build_onehop_graph,
    enforce_unique_gt,
    generate_samples,
    validate_sample,
)
from mvli.encoder import (
    EncoderConfig,
    EncoderFlags,
    QueryInput,
    SeededEmbeddingProvider,
    encode_document,
    encode_query,
    init_encoder_params,
    load_params,
    named_tensors,
    save_params,
)
from mvli.evaluation import recall_at_k, train_and_evaluate
from mvli.index import SearchParams, build_index, load_index, reconstruct, save_index, search
from mvli.scoring import late_interaction_score, rank_exact
from mvli.synth import SynthConfig, assign_typemap, generate_benchmark, generate_kb
from mvli.train import TrainConfig, loss_and_grads


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Shared benchmark worlds (criteria 3 and 4).
# ---------------------------------------------------------------------------

BENCH_ENCODER = EncoderConfig(dim=24, text_dim=32, image_dim=32, n_patches=4,
                              n_heads=2, attn_dim=16, n_mm_tokens=4)
BENCH_TRAIN = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=1, seed=11)


def _bench_cfg(fraction: float) -> SynthConfig:
    return SynthConfig(
        n_docs=200, entities_per_doc=12.0, samples_per_doc=8, seed=7,
        fraction_shortcut=fraction, n_train=400, n_test_seen=50, n_test_unseen=50,
    )


@pytest.fixture(scope="module")
def world_free():
    cfg = _bench_cfg(0.0)
    kb = generate_kb(cfg)
    typemap = assign_typemap([d.title for d in kb.values()], cfg)
    kb_aug = augment_kb(kb)
    return kb, kb_aug, generate_benchmark(kb, cfg, typemap, augmented=kb_aug)


@pytest.fixture(scope="module")
def world_shortcut():
    cfg = _bench_cfg(1.0)
    kb = generate_kb(cfg)
    typemap = assign_typemap([d.title for d in kb.values()], cfg)
    kb_aug = augment_kb(kb)
    return kb, kb_aug, generate_benchmark(kb, cfg, typemap, augmented=kb_aug)


@pytest.fixture(scope="module")
def trained_free(world_free):
    """MI-off (legacy single-image) and MI-on reports on the shortcut-free world."""
    kb, kb_aug, splits = world_free
    test = list(splits.test_seen) + list(splits.test_unseen)
    start = time.monotonic()
    off, _ = train_and_evaluate(kb, kb_aug, splits.train, test,
                                EncoderFlags(False, False, False),
                                BENCH_ENCODER, BENCH_TRAIN)
    on, _ = train_and_evaluate(kb, kb_aug, splits.train, test,
                               EncoderFlags(True, False, False),
                               BENCH_ENCODER, BENCH_TRAIN)
    full, _ = train_and_evaluate(kb, kb_aug, splits.train, test,
                                 EncoderFlags(True, True, True),
                                 BENCH_ENCODER, BENCH_TRAIN)
    return off, on, full, time.monotonic() - start


class TestCriterion1ScoringOracleEquivalence:
    def test_index_matches_exact_oracle(self):
        start = time.monotonic()
        rng = Rng(42)
        gen = rng.split("docs").generator()
        corpus = {
            f"doc{i:03d}": random_feature_set(rng.split(i), int(gen.integers(20, 80)), 16)
            for i in range(50)
        }
        queries = [
            random_feature_set(rng.split(f"q{i}"),
                               int(rng.split(f"qn{i}").generator().integers(8, 32)), 16)
            for i in range(100)
        ]

        lossless = build_index(corpus, nbits=0, seed=3)
        k_cent = lossless.centroids.shape[0]
        identical = all(
            [s.doc_id for s in rank_exact(q, corpus, 50)]
            == [s.doc_id for s in search(
                lossless, q, SearchParams(k=50, nprobe=k_cent, candidate_doc_cap=50))]
            for q in queries
        )

        compressed = build_index(corpus, nbits=8, seed=3)
        overlaps = []
        for q in queries:
            exact = {s.doc_id for s in rank_exact(q, corpus, 10)}
            got = {s.doc_id for s in search(compressed, q, SearchParams(k=10))}
            overlaps.append(len(exact & got) / 10)
        overlap = float(np.mean(overlaps))
        elapsed = time.monotonic() - start

        ok = identical and overlap >= 0.95 and elapsed < 30
        report(1, ok, f"lossless exhaustive identical={identical}, compressed "
                      f"top-10 overlap={overlap:.3f} (>=0.95), {elapsed:.1f}s (<30s)")
        assert identical
        assert overlap >= 0.95
        assert elapsed < 30


class TestCriterion2GradientVerification:
    CONFIG = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=3, n_heads=2,
                           attn_dim=8, n_mm_tokens=2)
    ROWS = (EncoderFlags(False, False, False), EncoderFlags(True, False, False),
            EncoderFlags(True, True, False), EncoderFlags(True, True, True))

    def _batch(self, seed):
        cfg = SynthConfig(n_docs=8, entities_per_doc=3.0, seed=seed, samples_per_doc=2,
                          n_train=4, n_test_seen=1, n_test_unseen=1)
        kb = generate_kb(cfg)
        kb_aug = augment_kb(kb)
        doc_ids = sorted(kb_aug)[:3]
        queries = [
            QueryInput("which creature dines on this plant given "
                       + kb[d].title.lower(), kb[d].main_image_key)
            for d in doc_ids
        ]
        docs = [kb_aug[d] for d in doc_ids]
        params = init_encoder_params(self.CONFIG, seed=seed + 50)
        return queries, docs, params

    def _margin(self, queries, docs, params, provider, flags) -> float:
        qf = [encode_query(q, params, self.CONFIG, provider) for q in queries]
        df = [encode_document(d, params, self.CONFIG, provider, flags) for d in docs]
        return maxsim_margin(qf, df)

    def test_analytic_matches_central_differences(self):
        start = time.monotonic()
        provider = SeededEmbeddingProvider(self.CONFIG)

        # first ten seeds whose batches sit clear of MaxSim kinks: central
        # differences at eps=1e-4 are only defined away from the argmax flips
        seeds = []
        candidate = 0
        while len(seeds) < 10 and candidate < 60:
            queries, docs, params = self._batch(candidate)
            if all(self._margin(queries, docs, params, provider, f) > 1.5e-3
                   for f in self.ROWS):
                seeds.append(candidate)
            candidate += 1
        assert len(seeds) == 10, "not enough kink-free seeds below 60"

        worst = 0.0
        for seed in seeds:
            queries, docs, params = self._batch(seed)
            for flags in self.ROWS:
                _, grads = loss_and_grads(params, queries, docs, self.CONFIG,
                                          provider, flags)

                def loss_fn():
                    loss, _ = loss_and_grads(params, queries, docs, self.CONFIG,
                                             provider, flags)
                    return loss

                pick = Rng(seed).split(flags.label()).generator()
                for name, arr in named_tensors(params).items():
                    for idx in pick.choice(arr.size, size=min(2, arr.size),
                                           replace=False):
                        fd = finite_diff(loss_fn, arr, int(idx), eps=1e-4)
                        worst = max(worst, grad_rel_error(fd, grads[name].flat[int(idx)]))
        elapsed = time.monotonic() - start
        ok = worst < 1e-3 and elapsed < 120
        report(2, ok, f"max relative error {worst:.2e} (<1e-3) over 10 seeds x 4 "
                      f"flag rows, every tensor, {elapsed:.1f}s (<120s)")
        assert worst < 1e-3
        assert elapsed < 120


class TestCriterion3MultiImageBenefit:
    def test_mi_row_gap(self, world_free, trained_free):
        off, on, _, train_elapsed = trained_free
        r_off = off.value("recall", 5, "all", "none")
        r_on = on.value("recall", 5, "all", "MI")
        gap = r_on - r_off
        ok = gap >= 0.20 and train_elapsed < 300
        report(3, ok, f"multi-image recall@5 {r_on:.2f} vs single-image {r_off:.2f} "
                      f"(gap {100 * gap:.0f} pts, required >=20) on 200 docs / 400 "
                      f"train / 100 test, trained+evaluated in {train_elapsed:.0f}s "
                      f"(<300s)")
        assert gap >= 0.20
        assert train_elapsed < 300


class TestCriterion4ShortcutProbe:
    def _probe(self, world, mode):
        kb, kb_aug, splits = world
        test = list(splits.test_seen) + list(splits.test_unseen)
        rep, _ = train_and_evaluate(
            kb, kb_aug, splits.train, test, EncoderFlags(False, False, False),
            BENCH_ENCODER, BENCH_TRAIN, image_only=(mode == "image_only"),
        )
        return rep

    def test_image_only_close_on_shortcut_split(self, world_shortcut):
        it = self._probe(world_shortcut, "image_text").value("recall", 5, "all")
        io_ = self._probe(world_shortcut, "image_only").value("recall", 5, "all")
        ok = abs(it - io_) <= 0.10
        report(4, ok, f"shortcut split: image-only recall@5 {io_:.2f} vs image+text "
                      f"{it:.2f} (|diff| {100 * abs(it - io_):.0f} pts, allowed <=10)")
        assert ok

    def test_image_only_collapses_on_shortcut_free_split(self, world_free):
        it = self._probe(world_free, "image_text").value("recall", 5, "all")
        io_ = self._probe(world_free, "image_only").value("recall", 5, "all")
        ok = it - io_ >= 0.20
        report(4, ok, f"shortcut-free split: image-only recall@5 {io_:.2f} vs "
                      f"image+text {it:.2f} (gap {100 * (it - io_):.0f} pts, "
                      f"required >=20)")
        assert ok

    def test_distractor_flip_on_unseen_split(self, trained_free):
        off, _, full, _ = trained_free
        off_gt = off.value("recall", 1, "unseen", "none")
        off_d = off.value("distractor_recall", 1, "unseen", "none")
        on_gt = full.value("recall", 1, "unseen", "MI+MMF+ETE")
        on_d = full.value("distractor_recall", 1, "unseen", "MI+MMF+ETE")
        ok = off_d >= off_gt and on_gt > on_d
        report(4, ok, f"unseen distractors: single-image GT@1 {off_gt:.2f} <= "
                      f"distractor@1 {off_d:.2f}; multi-image GT@1 {on_gt:.2f} > "
                      f"distractor@1 {on_d:.2f}")
        assert off_d >= off_gt
        assert on_gt > on_d


class TestCriterion5FeatureSetCardinality:
    def test_union_formula_and_degenerate_identities(self):
        rng = Rng(505)
        total = 0
        groups = 20
        docs_per_group = 50
        for g in range(groups):
            gen = rng.split(f"group{g}").generator()
            n_v = int(gen.integers(1, 5))
            config = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=2,
                                   n_heads=2, attn_dim=8, n_mm_tokens=n_v)
            provider = SeededEmbeddingProvider(config)
            params = init_encoder_params(config, seed=g)
            zeroed = init_encoder_params(config, seed=g)
            zeroed.ete[...] = 0.0
            for i in range(docs_per_group):
                n_t = int(gen.integers(1, 14))
                r = int(gen.integers(0, 6))
                body = " ".join(f"tok{g}x{i}x{j}" for j in range(n_t))
                related = tuple(
                    RelatedEntity(f"E{j}", (int(gen.integers(0, n_t)),),
                                  f"img::E{g}.{i}.{j}", f"s{j}")
                    for j in range(r)
                )
                raw = RawDocument(f"d{g}.{i}", "Title", body, f"img::main{g}.{i}")
                doc = AugmentedDocument(raw=raw, text_tokens=tuple(tokenize(body)),
                                        related=related)
                all_on = encode_document(
                    doc, params, config, provider, EncoderFlags(True, True, True))
                assert len(all_on) == n_t + (r + 1) * (1 + n_v)

                # mi off == encoding the document with related images stripped
                mi_off = encode_document(
                    doc, params, config, provider, EncoderFlags(False, True, True))
                stripped = AugmentedDocument(raw=raw, text_tokens=doc.text_tokens,
                                             related=())
                stripped_on = encode_document(
                    stripped, params, config, provider, EncoderFlags(True, True, True))
                assert mi_off.vectors.tobytes() == stripped_on.vectors.tobytes()

                # mmf off == all-on rows minus related multimodal rows
                mmf_off = encode_document(
                    doc, params, config, provider, EncoderFlags(True, False, True))
                assert len(mmf_off) == n_t + (1 + n_v) + r
                keep = [
                    k for k, tag in enumerate(all_on.provenance)
                    if not (tag.startswith("multimodal:")
                            and int(tag.split(":")[1].split(",")[0]) >= 1)
                ]
                assert mmf_off.vectors.tobytes() == all_on.vectors[keep].tobytes()

                # ete zero == ete flag off, bit-exact
                ete_on = encode_document(
                    doc, zeroed, config, provider, EncoderFlags(True, True, True))
                ete_off = encode_document(
                    doc, zeroed, config, provider, EncoderFlags(True, True, False))
                assert ete_on.vectors.tobytes() == ete_off.vectors.tobytes()
                total += 1
        report(5, True, f"union cardinality and mi/mmf/ete degenerate identities "
                        f"bit-exact on {total} random documents")
        assert total == groups * docs_per_group


class TestCriterion6DatagenValidity:
    def test_generated_samples_all_valid(self):
        cfg = SynthConfig(n_docs=300, entities_per_doc=12.0, samples_per_doc=8, seed=17)
        kb = generate_kb(cfg)
        typemap = assign_typemap([d.title for d in kb.values()], cfg)
        kb_aug = augment_kb(kb)
        samples, rejected = generate_samples(kb_aug, typemap, seed=17, samples_per_doc=8)
        n = len(samples)
        assert n >= 1000, f"only {n} samples generated"

        nouns = set(typemap.values())
        by_image = {a.raw.main_image_key: a.raw.title for a in kb_aug.values()}
        invariant_failures = 0
        for s in samples:
            query_entity = by_image[s.query_image_key]
            if validate_sample(s.question, s.answer, query_entity, nouns) is not None:
                invariant_failures += 1
            if s.query_image_key == kb_aug[s.gt_doc_id].raw.main_image_key:
                invariant_failures += 1

        index = Bm25Index({d: kb_aug[d].raw.body for d in kb_aug})
        leaks = sum(
            1 for s in samples
            if any(doc_id == s.gt_doc_id for doc_id, _ in index.top_k(s.question, 5))
        )

        graphs = enforce_unique_gt(
            {d: build_onehop_graph(kb_aug[d]) for d in sorted(kb_aug)}
        )
        mutual = 0
        mentions = {d: {x.source_doc_id for x in g.neighbors} for d, g in graphs.items()}
        for d, g in graphs.items():
            for nb in g.neighbors:
                if d in mentions.get(nb.source_doc_id, set()):
                    mutual += 1
        again = enforce_unique_gt(graphs)
        idempotent = again == graphs

        bench_cfg = _bench_cfg(0.0)
        bench_kb = generate_kb(bench_cfg)
        splits = generate_benchmark(bench_kb, bench_cfg)
        train_gts = {s.gt_doc_id for s in splits.train}
        unseen_gts = {s.gt_doc_id for s in splits.test_unseen}
        disjoint = not (train_gts & unseen_gts)

        ok = (invariant_failures == 0 and leaks == 0 and mutual == 0
              and idempotent and disjoint)
        report(6, ok, f"{n} samples: invariant failures={invariant_failures}, "
                      f"post-filter leak rate={leaks}/{n}, mutual-mention pairs="
                      f"{mutual}, unique-gt idempotent={idempotent}, splits "
                      f"disjoint={disjoint} ({len(rejected)} drafts rejected)")
        assert invariant_failures == 0
        assert leaks == 0
        assert mutual == 0
        assert idempotent
        assert disjoint


PIPELINE_INI = (
    "[engine]\n"
    "dim = 8\ntext_dim = 12\nimage_dim = 12\nn_patches = 2\n"
    "n_heads = 2\nattn_dim = 8\nn_mm_tokens = 2\n"
    "[synth]\n"
    "n_docs = 40\nentities_per_doc = 6.0\nsamples_per_doc = 8\n"
    "n_train = 30\nn_test_seen = 5\nn_test_unseen = 5\n"
    "[train]\nbatch_size = 4\nepochs = 1\n"
    "[run]\nseed = 13\n"
)

PIPELINE_FILES = (
    "world/kb.jsonl", "world/typemap.json", "world/train.jsonl",
    "world/test_seen.jsonl", "world/test_unseen.jsonl", "world/rejected.jsonl",
    "augmented.jsonl", "generated.jsonl", "generated.rejected.jsonl", "params.mprm",
    "stats.json",
    "kb.mvli", "report.csv",
)


def run_pipeline(root, threads: int = 1) -> None:
    cfg = root / "run.ini"
    cfg.write_text(PIPELINE_INI)
    env = dict(
        os.environ,
        OMP_NUM_THREADS=str(threads),
        OPENBLAS_NUM_THREADS=str(threads),
        MKL_NUM_THREADS=str(threads),
    )

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "mvli.cli", "--config", str(cfg), *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    cli("synth", "--out-dir", str(root / "world"))
    cli("augment", "--kb", str(root / "world/kb.jsonl"),
        "--out", str(root / "augmented.jsonl"))
    cli("--set", "synth.samples_per_doc=2", "datagen", "--kb", str(root / "augmented.jsonl"),
        "--typemap", str(root / "world/typemap.json"),
        "--out", str(root / "generated.jsonl"))
    cli("train", "--kb", str(root / "augmented.jsonl"),
        "--samples", str(root / "world/train.jsonl"),
        "--out", str(root / "params.mprm"), "--stats", str(root / "stats.json"))
    cli("index", "--kb", str(root / "augmented.jsonl"),
        "--params", str(root / "params.mprm"), "--out", str(root / "kb.mvli"))
    cli("eval", "--kb", str(root / "augmented.jsonl"),
        "--params", str(root / "params.mprm"),
        "--samples", str(root / "world/test_seen.jsonl"),
        "--report-out", str(root / "report.csv"))


class TestCriterion7DeterminismAndPersistence:
    def test_pipeline_rerun_byte_identical(self, tmp_path):
        start = time.monotonic()
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_c = tmp_path / "c"
        for d in (run_a, run_b, run_c):
            d.mkdir()
        run_pipeline(run_a, threads=1)
        run_pipeline(run_b, threads=1)
        run_pipeline(run_c, threads=4)  # worker-thread count must not matter

        mismatch = []
        for name in PIPELINE_FILES:
            a = (run_a / name).read_bytes()
            if a != (run_b / name).read_bytes():
                mismatch.append(f"rerun:{name}")
            if a != (run_c / name).read_bytes():
                mismatch.append(f"threads:{name}")

        # round trips are exact
        index = load_index(run_a / "kb.mvli")
        copy_path = tmp_path / "copy.mvli"
        save_index(index, copy_path)
        index_rt = copy_path.read_bytes() == (run_a / "kb.mvli").read_bytes()

        params, config = load_params(run_a / "params.mprm")
        copy_params_path = tmp_path / "copy.mprm"
        save_params(params, config, copy_params_path)
        params_rt = copy_params_path.read_bytes() == (run_a / "params.mprm").read_bytes()

        elapsed = time.monotonic() - start
        ok = not mismatch and index_rt and params_rt
        report(7, ok, f"pipeline rerun and 4-thread run byte-identical over "
                      f"{len(PIPELINE_FILES)} files (mismatches={mismatch}), index "
                      f"round-trip exact={index_rt}, checkpoint round-trip exact="
                      f"{params_rt}, {elapsed:.0f}s")
        assert not mismatch
        assert index_rt
        assert params_rt


class TestCriterion8InvariantSuites:
    N_CASES = 1000

    def test_scoring_properties(self):
        rng = Rng(808)
        for case in range(self.N_CASES):
            sub = rng.split(case)
            gen = sub.split("sizes").generator()
            dim = int(gen.integers(3, 9))
            q = random_feature_set(sub.split("q"), int(gen.integers(1, 7)), dim)
            d = random_feature_set(sub.split("d"), int(gen.integers(1, 9)), dim)
            extra = random_feature_set(sub.split("x"), 1, dim)
            base = late_interaction_score(q, d)
            bigger = FeatureSet(np.vstack([d.vectors, extra.vectors]),
                                d.provenance + extra.provenance)
            assert late_interaction_score(q, bigger) >= base - 1e-12  # superset
            perm_q = FeatureSet(q.vectors[gen.permutation(len(q))], q.provenance)
            perm_d = FeatureSet(d.vectors[gen.permutation(len(d))], d.provenance)
            assert late_interaction_score(perm_q, perm_d) == pytest.approx(
                base, abs=1e-12)
            assert base <= len(q) + 1e-9
        report(8, True, f"scoring monotonicity/superset/permutation/bound over "
                        f"{self.N_CASES} random cases")

    def test_quantizer_error_bound(self):
        rng = Rng(809)
        checked = 0
        build = 0
        while checked < self.N_CASES:
            sub = rng.split(build)
            build += 1
            gen = sub.split("sizes").generator()
            corpus = {
                f"d{i}": random_feature_set(sub.split(i), int(gen.integers(3, 9)), 6)
                for i in range(int(gen.integers(2, 6)))
            }
            index = build_index(corpus, seed=build)
            vectors = np.vstack([corpus[d].vectors for d in sorted(corpus)])
            rebuilt = reconstruct(index, np.arange(vectors.shape[0]))
            spread = index.code_max - index.code_min
            half = np.where(spread > 0, spread / 255.0 / 2.0, 0.0)
            assert np.all(np.abs(rebuilt - vectors) <= half + 1e-12)
            checked += vectors.shape[0]
        report(8, True, f"quantizer per-component error within half bucket width "
                        f"over {checked} vectors")

    def test_kmeans_objective_monotone(self):
        rng = Rng(810)
        runs = 0
        cases = 0
        while cases < self.N_CASES:
            sub = rng.split(runs)
            runs += 1
            gen = sub.split("sizes").generator()
            corpus = {
                f"d{i}": random_feature_set(sub.split(i), int(gen.integers(4, 10)), 6)
                for i in range(int(gen.integers(2, 5)))
            }
            index = build_index(corpus, kmeans_iters=20, seed=runs)
            trace = np.array(index.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)
            cases += len(trace) - 1
        report(8, True, f"k-means objective non-increasing across {cases} iteration "
                        f"steps ({runs} builds)")

    def test_recall_monotone_in_k(self):
        rng = Rng(811)
        for case in range(self.N_CASES):
            gen = rng.split(case).generator()
            n = int(gen.integers(1, 12))
            ranking = [f"d{i}" for i in gen.permutation(n)]
            gt = f"d{int(gen.integers(0, n + 2))}"  # sometimes absent
            values = [recall_at_k(ranking, gt, k) for k in range(1, n + 1)]
            assert values == sorted(values)
        report(8, True, f"recall@k monotone in k over {self.N_CASES} random rankings")
