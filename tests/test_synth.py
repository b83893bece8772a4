from dataclasses import replace

import numpy as np
import pytest

import mvli.augment as augment_mod
from mvli.augment import augment_kb
from mvli.core import ConfigError, DataError, GenerationError, tokenize
from mvli.datagen import validate_sample
from mvli.synth import (
    TYPE_NOUNS,
    VERB_PHRASES,
    SynthConfig,
    _RESERVED,
    assign_typemap,
    generate_benchmark,
    generate_kb,
)
from mvli.datagen import DEFAULT_SYNONYMS


class TestVocabulary:
    def test_verb_phrase_words_all_have_synonyms(self):
        words = {w for phrase in VERB_PHRASES for w in phrase.split()}
        missing = words - set(DEFAULT_SYNONYMS)
        assert not missing, f"verb-phrase words without synonyms: {missing}"

    def test_synonym_values_never_appear_in_bodies(self):
        cfg = SynthConfig(n_docs=30, seed=2)
        kb = generate_kb(cfg)
        body_words = set()
        for doc in kb.values():
            body_words.update(tokenize(doc.body))
        assert not (body_words & set(DEFAULT_SYNONYMS.values()))

    def test_type_nouns_disjoint_from_everything(self):
        nouns = set(TYPE_NOUNS)
        assert not (nouns & set(DEFAULT_SYNONYMS))
        assert not (nouns & set(DEFAULT_SYNONYMS.values()))
        vp_words = {w for phrase in VERB_PHRASES for w in phrase.split()}
        assert not (nouns & vp_words)


class TestGenerateKb:
    def test_minimal_two_doc_kb_mentions_each_other(self):
        cfg = SynthConfig(n_docs=2, entities_per_doc=1.0, seed=3)
        kb = generate_kb(cfg)
        docs = sorted(kb.values(), key=lambda d: d.doc_id)
        assert docs[0].title.lower() in docs[1].body.lower()
        assert docs[1].title.lower() in docs[0].body.lower()

    def test_deterministic(self):
        a = generate_kb(SynthConfig(n_docs=20, seed=8))
        b = generate_kb(SynthConfig(n_docs=20, seed=8))
        assert a == b

    def test_titles_do_not_collide_with_reserved_words(self):
        kb = generate_kb(SynthConfig(n_docs=50, seed=4))
        for doc in kb.values():
            for word in tokenize(doc.title):
                assert word not in _RESERVED

    def test_mean_links_calibrated(self):
        cfg = SynthConfig(n_docs=1000, entities_per_doc=4.3, seed=9)
        kb = generate_kb(cfg)
        augmented = augment_kb(kb)
        mean_links = float(np.mean([len(a.related) for a in augmented.values()]))
        assert abs(mean_links - 4.3) <= 0.5

    def test_all_mentions_are_linkable(self):
        kb = generate_kb(SynthConfig(n_docs=25, entities_per_doc=3.0, seed=6))
        augmented = augment_kb(kb)
        for doc_id, adoc in augmented.items():
            # every relation sentence names exactly one other document title
            n_sentences = adoc.raw.body.count(".")
            assert sum(len(r.span) for r in adoc.related) == 2 * n_sentences

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_docs=1)
        with pytest.raises(ConfigError):
            SynthConfig(fraction_shortcut=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(entities_per_doc=0.2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entities_per_doc_is_config_error(self, value):
        with pytest.raises(ConfigError, match="entities_per_doc"):
            SynthConfig(entities_per_doc=value)

    @pytest.mark.parametrize("knob", ["n_train", "n_test_seen", "n_test_unseen"])
    def test_negative_split_size_is_config_error(self, knob):
        with pytest.raises(ConfigError, match=knob):
            SynthConfig(**{knob: -3})
        assert getattr(SynthConfig(**{knob: 0}), knob) == 0


class TestTypemap:
    def test_covers_all_titles_deterministically(self):
        cfg = SynthConfig(n_docs=15, seed=5, typemap_size=4)
        kb = generate_kb(cfg)
        titles = [d.title for d in kb.values()]
        a = assign_typemap(titles, cfg)
        b = assign_typemap(titles, cfg)
        assert a == b
        assert set(a) == set(titles)
        assert set(a.values()) <= set(TYPE_NOUNS[:4])


def _bench_cfg(**overrides):
    base = dict(n_docs=60, entities_per_doc=8.0, samples_per_doc=6, seed=12,
                n_train=60, n_test_seen=10, n_test_unseen=10)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerateBenchmark:
    def test_shortcut_fraction_one_uses_main_image(self):
        cfg = _bench_cfg(fraction_shortcut=1.0)
        kb = generate_kb(cfg)
        splits = generate_benchmark(kb, cfg)
        for s in list(splits.train) + list(splits.test_seen) + list(splits.test_unseen):
            assert s.query_image_key == kb[s.gt_doc_id].main_image_key

    def test_shortcut_fraction_zero_never_uses_main_image(self):
        cfg = _bench_cfg(fraction_shortcut=0.0)
        kb = generate_kb(cfg)
        splits = generate_benchmark(kb, cfg)
        for s in list(splits.train) + list(splits.test_seen) + list(splits.test_unseen):
            assert s.query_image_key != kb[s.gt_doc_id].main_image_key

    def test_split_disjointness_and_tags(self):
        cfg = _bench_cfg()
        kb = generate_kb(cfg)
        splits = generate_benchmark(kb, cfg)
        train_gts = {s.gt_doc_id for s in splits.train}
        unseen_gts = {s.gt_doc_id for s in splits.test_unseen}
        assert not (train_gts & unseen_gts)
        assert all(s.split == "seen" for s in splits.test_seen)
        assert all(s.split == "unseen" for s in splits.test_unseen)
        assert {s.gt_doc_id for s in splits.test_seen} <= train_gts
        ids = [s.sample_id for s in splits.train + splits.test_seen + splits.test_unseen]
        assert len(ids) == len(set(ids))

    def test_regeneration_byte_identical(self, tmp_path):
        from mvli.datagen import save_samples

        cfg = _bench_cfg()
        kb = generate_kb(cfg)
        a = generate_benchmark(kb, cfg)
        b = generate_benchmark(kb, cfg)
        assert a == b
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_samples(a.train, pa)
        save_samples(b.train, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_passed_augmented_kb_is_used_not_recomputed(self, monkeypatch):
        cfg = _bench_cfg()
        kb = generate_kb(cfg)
        expected = generate_benchmark(kb, cfg)
        calls = []
        real = augment_mod.augment_document

        def counting(*args, **kwargs):
            calls.append(args[0].doc_id)
            return real(*args, **kwargs)

        monkeypatch.setattr(augment_mod, "augment_document", counting)
        splits = generate_benchmark(kb, cfg, augmented=augment_kb(kb))
        assert sorted(calls) == sorted(kb)
        assert splits == expected

    def test_augmented_kb_of_other_documents_rejected(self):
        cfg = _bench_cfg()
        kb = generate_kb(cfg)
        augmented = augment_kb(kb)
        del augmented[min(augmented)]
        with pytest.raises(DataError, match="augmented KB"):
            generate_benchmark(kb, cfg, augmented=augmented)

    def test_augmented_kb_of_changed_documents_rejected(self):
        # the shortcut drafts read the main image key from the augmented KB,
        # so a changed raw document there must not pass silently
        cfg = _bench_cfg(fraction_shortcut=0.5)
        kb = generate_kb(cfg)
        doc_id = sorted(kb)[3]
        other = dict(kb)
        other[doc_id] = replace(kb[doc_id], main_image_key="img::Elsewhere")
        with pytest.raises(DataError, match=repr(doc_id)):
            generate_benchmark(kb, cfg, augmented=augment_kb(other))

    def test_all_samples_pass_validators(self):
        cfg = _bench_cfg(fraction_shortcut=0.5)
        kb = generate_kb(cfg)
        typemap = assign_typemap([d.title for d in kb.values()], cfg)
        splits = generate_benchmark(kb, cfg, typemap)
        by_title = {d.title: d for d in kb.values()}
        nouns = set(typemap.values())
        for s in splits.train + splits.test_seen + splits.test_unseen:
            from mvli.augment import entity_from_image_key

            query_entity = entity_from_image_key(s.query_image_key)
            assert query_entity in by_title
            assert validate_sample(s.question, s.answer, query_entity, nouns) is None

    def test_insufficient_pool_raises(self):
        cfg = _bench_cfg(n_train=100_000)
        kb = generate_kb(cfg)
        with pytest.raises(GenerationError):
            generate_benchmark(kb, cfg)

    def test_default_targets_capped_at_reachable_pool(self):
        # the default config (the README's run.ini) reaches fewer samples than
        # 2 * n_docs training and n_docs // 4 seen-test samples
        cfg = SynthConfig(seed=0)
        splits = generate_benchmark(generate_kb(cfg), cfg)
        assert 0 < len(splits.train) < 2 * cfg.n_docs
        assert 0 < len(splits.test_seen) < cfg.n_docs // 4
        assert 0 < len(splits.test_unseen) <= cfg.n_docs // 4
        assert {s.gt_doc_id for s in splits.test_seen} <= {s.gt_doc_id for s in splits.train}

    @pytest.mark.parametrize("knob", ["n_train", "n_test_seen", "n_test_unseen"])
    def test_explicit_target_over_pool_names_knob(self, knob):
        cfg = _bench_cfg(**{knob: 100_000})
        with pytest.raises(GenerationError, match=f"synth.{knob}"):
            generate_benchmark(generate_kb(cfg), cfg)
