import csv
import io

import pytest

from mvli.augment import RawDocument, augment_kb
from mvli.core import ConfigError, InputError
from mvli.datagen import QaSample
from mvli.encoder import EncoderConfig, EncoderFlags, SeededEmbeddingProvider
from mvli.evaluation import (
    EvalReport,
    build_distractor_map,
    distractor_recall,
    evaluate_model,
    recall_at_k,
    run_ablation,
    run_shortcut_probe,
    train_and_evaluate,
)
from mvli.synth import SynthConfig, assign_typemap, generate_benchmark, generate_kb
from mvli.train import TrainConfig


class TestRecallAtK:
    def test_hit_within_k(self):
        assert recall_at_k(["a", "b", "gt", "c"], "gt", 5) == 1

    def test_miss_outside_k(self):
        assert recall_at_k(["a", "b", "gt"], "gt", 2) == 0

    def test_absent_gt_always_zero(self):
        for k in (1, 3, 10):
            assert recall_at_k(["a", "b", "c"], "gt", k) == 0

    def test_empty_ranking_rejected(self):
        with pytest.raises(InputError):
            recall_at_k([], "gt", 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError):
            recall_at_k(["a"], "a", 0)


def _kb():
    docs = [
        RawDocument("d0", "Alpha Site", "Alpha Site guards Beta Hall.", "img::Alpha Site"),
        RawDocument("d1", "Beta Hall", "Beta Hall shelters Gama Keep.", "img::Beta Hall"),
        RawDocument("d2", "Gama Keep", "Gama Keep rivals Alpha Site.", "img::Gama Keep"),
    ]
    return {d.doc_id: d for d in docs}


class TestDistractors:
    def test_sole_distractor_is_image_entity_doc(self):
        samples = [QaSample("s0", "q", "img::Beta Hall", "Alpha Site", "d0")]
        dmap = build_distractor_map(_kb(), samples)
        assert dmap["s0"] == frozenset({"d1"})

    def test_unknown_entity_gives_empty_set(self):
        samples = [QaSample("s0", "q", "img::Nobody Here", "Alpha Site", "d0")]
        assert build_distractor_map(_kb(), samples)["s0"] == frozenset()

    def test_gt_itself_excluded(self):
        samples = [QaSample("s0", "q", "img::Alpha Site", "Alpha Site", "d0")]
        assert build_distractor_map(_kb(), samples)["s0"] == frozenset()

    def test_unresolvable_key_is_data_error(self):
        from mvli.core import DataError

        samples = [QaSample("s0", "q", "not-a-key", "x", "d0")]
        with pytest.raises(DataError):
            build_distractor_map(_kb(), samples)

    def test_distractor_recall_values(self):
        dmap = {"s0": frozenset({"d1"}), "s1": frozenset({"d2"}), "s2": frozenset()}
        rankings = {"s0": ["d1", "d0"], "s1": ["d0", "d2"], "s2": ["d0", "d1"]}
        assert distractor_recall(rankings, dmap, 1) == pytest.approx(1 / 3)
        assert distractor_recall(rankings, dmap, 2) == pytest.approx(2 / 3)

    def test_empty_distractor_sets_give_zero(self):
        dmap = {"s0": frozenset(), "s1": frozenset()}
        rankings = {"s0": ["d0"], "s1": ["d1"]}
        assert distractor_recall(rankings, dmap, 1) == 0.0

    def test_all_rankings_headed_by_distractor(self):
        dmap = {"s0": frozenset({"d1"}), "s1": frozenset({"d2"})}
        rankings = {"s0": ["d1", "d0"], "s1": ["d2", "d0"]}
        assert distractor_recall(rankings, dmap, 1) == 1.0

    def test_distractor_recall_monotone_in_k(self):
        dmap = {"s0": frozenset({"d1"}), "s1": frozenset({"d9"})}
        rankings = {"s0": ["d0", "d1", "d2"], "s1": ["d2", "d0", "d9"]}
        values = [distractor_recall(rankings, dmap, k) for k in (1, 2, 3)]
        assert values == sorted(values)


class TestReport:
    def test_csv_schema(self):
        report = EvalReport()
        report.add("bench", "seen", "MI", "recall", 5, 0.5)
        rows = list(csv.reader(io.StringIO(report.to_csv_text())))
        assert rows[0] == ["benchmark", "split", "config_flags", "metric", "k", "value"]
        assert rows[1] == ["bench", "seen", "MI", "recall", "5", "0.500000"]

    def test_recall_out_of_range_rejected(self):
        from mvli.core import DataError

        report = EvalReport()
        with pytest.raises(DataError):
            report.add("b", "s", "f", "recall", 5, 1.5)

    def test_table_text_aligned(self):
        report = EvalReport()
        report.add("bench", "all", "none", "recall", 1, 0.25)
        table = report.to_table_text()
        lines = table.splitlines()
        assert lines[0].startswith("benchmark")
        assert len(lines) == 3


def _world(fraction=0.0, seed=31):
    cfg = SynthConfig(n_docs=40, entities_per_doc=6.0, samples_per_doc=5, seed=seed,
                      fraction_shortcut=fraction, n_train=30, n_test_seen=5,
                      n_test_unseen=5)
    kb = generate_kb(cfg)
    typemap = assign_typemap([d.title for d in kb.values()], cfg)
    kb_aug = augment_kb(kb)
    return kb, kb_aug, generate_benchmark(kb, cfg, typemap, augmented=kb_aug)


SMALL = EncoderConfig(dim=8, text_dim=12, image_dim=12, n_patches=2, n_heads=2,
                      attn_dim=8, n_mm_tokens=2)


class TestHarness:
    def test_report_recall_monotone_in_k(self):
        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        report, _ = train_and_evaluate(
            kb, kb_aug, splits.train, test, EncoderFlags(True, True, True), SMALL,
            TrainConfig(batch_size=4, epochs=1, seed=3), ks=(1, 5, 10),
        )
        for split in ("all", "seen", "unseen"):
            values = [report.value("recall", k, split) for k in (1, 5, 10)]
            assert values == sorted(values)

    def test_aggregate_recall_is_mean_of_indicators(self):
        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        from mvli.encoder import encode_corpus, init_encoder_params
        from mvli.evaluation import rank_samples

        provider = SeededEmbeddingProvider(SMALL)
        params = init_encoder_params(SMALL, seed=3)
        flags = EncoderFlags(True, True, True)
        corpus = encode_corpus(kb_aug, params, SMALL, provider, flags)
        rankings = rank_samples(test, corpus, params, SMALL, provider, depth=10)
        report = evaluate_model(kb, kb_aug, params, SMALL, provider, test, flags)
        expected = sum(
            recall_at_k(rankings[s.sample_id], s.gt_doc_id, 5) for s in test
        ) / len(test)
        assert report.value("recall", 5, "all") == pytest.approx(expected)

    def test_rank_samples_stacks_the_corpus_once(self, monkeypatch):
        """One StackedCorpus per call, and each ranking is the per-doc
        oracle's."""
        import mvli.evaluation as evaluation_mod
        from _oracles import per_doc_rank
        from mvli.encoder import QueryInput, encode_corpus, encode_query, init_encoder_params
        from mvli.evaluation import rank_samples

        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        provider = SeededEmbeddingProvider(SMALL)
        params = init_encoder_params(SMALL, seed=3)
        corpus = encode_corpus(kb_aug, params, SMALL, provider, EncoderFlags(True, True, True))
        built = []
        real = evaluation_mod.StackedCorpus

        def counting(c):
            built.append(c)
            return real(c)

        monkeypatch.setattr(evaluation_mod, "StackedCorpus", counting)
        rankings = rank_samples(test, corpus, params, SMALL, provider, depth=10)
        assert built == [corpus]
        for s in test:
            q = encode_query(QueryInput(s.question, s.query_image_key), params, SMALL, provider)
            assert rankings[s.sample_id] == [r.doc_id for r in per_doc_rank(q, corpus, 10)]

    def test_shallow_search_params_are_config_error(self):
        """A search depth below the ranking depth would truncate every
        ranking: with k = 3, recall@5 and recall@10 would both read recall@3."""
        from mvli.encoder import encode_corpus, init_encoder_params
        from mvli.evaluation import rank_samples
        from mvli.index import SearchParams, build_index

        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        provider = SeededEmbeddingProvider(SMALL)
        params = init_encoder_params(SMALL, seed=3)
        flags = EncoderFlags(True, True, True)
        index = build_index(encode_corpus(kb_aug, params, SMALL, provider, flags), seed=0)
        with pytest.raises(ConfigError, match="depth"):
            evaluate_model(kb, kb_aug, params, SMALL, provider, test, flags, ks=(1, 5, 10),
                           index=index, search_params=SearchParams(k=3))
        with pytest.raises(ConfigError, match="depth"):
            rank_samples(test, None, params, SMALL, provider, index=index,
                         search_params=SearchParams(k=9), depth=10)
        report = evaluate_model(kb, kb_aug, params, SMALL, provider, test, flags, ks=(1, 3),
                                index=index, search_params=SearchParams(k=3))
        assert report.value("recall", 3, "all") >= report.value("recall", 1, "all")

    def test_index_rankings_take_the_batch_encoded_queries(self):
        """The index path ranks each sample as `search` ranks encode_query's
        features, in ids and order."""
        from mvli.encoder import QueryInput, encode_corpus, encode_query, init_encoder_params
        from mvli.evaluation import rank_samples
        from mvli.index import SearchParams, build_index, search

        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        provider = SeededEmbeddingProvider(SMALL)
        params = init_encoder_params(SMALL, seed=3)
        corpus = encode_corpus(kb_aug, params, SMALL, provider, EncoderFlags(True, True, True))
        index = build_index(corpus, seed=0)
        sp = SearchParams(k=10, nprobe=2, candidate_doc_cap=12)
        for image_only in (False, True):
            rankings = rank_samples(test, None, params, SMALL, provider, image_only=image_only,
                                    index=index, search_params=sp, depth=10)
            for s in test:
                q = encode_query(QueryInput(s.question, s.query_image_key), params, SMALL,
                                 provider, image_only=image_only)
                assert rankings[s.sample_id] == [r.doc_id for r in search(index, q, sp)]

    def test_ablation_rows_and_determinism(self):
        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        rows = (EncoderFlags(False, False, False), EncoderFlags(True, True, True))
        cfg = TrainConfig(batch_size=4, epochs=1, seed=3)
        r1 = run_ablation(kb, kb_aug, splits.train, test, rows, SMALL, cfg)
        r2 = run_ablation(kb, kb_aug, splits.train, test, rows, SMALL, cfg)
        assert r1.to_csv_text() == r2.to_csv_text()
        labels = {row.config_flags for row in r1.rows}
        assert labels == {"none", "MI+MMF+ETE"}

    def test_probe_mode_validation(self):
        kb, kb_aug, splits = _world()
        with pytest.raises(ConfigError):
            run_shortcut_probe(
                kb, kb_aug, splits.train, splits.test_seen, "bogus",
                EncoderFlags(False, False, False), SMALL,
                TrainConfig(batch_size=4, epochs=1, seed=3),
            )

    def test_probe_image_only_label(self):
        kb, kb_aug, splits = _world()
        test = list(splits.test_seen) + list(splits.test_unseen)
        report = run_shortcut_probe(
            kb, kb_aug, splits.train, test, "image_only",
            EncoderFlags(False, False, False), SMALL,
            TrainConfig(batch_size=4, epochs=1, seed=3),
        )
        assert all("image-only" in row.config_flags for row in report.rows)
