import math

import numpy as np
import pytest

from _oracles import finite_diff, grad_rel_error, maxsim_margin
from conftest import random_feature_set
from mvli.augment import RawDocument, augment_kb
from mvli.core import ConfigError, DataError, Rng
from mvli.encoder import (
    EncoderConfig,
    EncoderFlags,
    QueryInput,
    SeededEmbeddingProvider,
    init_encoder_params,
    named_tensors,
    params_checksum,
)
from mvli.synth import SynthConfig, assign_typemap, generate_benchmark, generate_kb
from mvli.train import TrainConfig, contrastive_loss, loss_and_grads, train


def tiny_world(n_docs=8, seed=1):
    cfg = SynthConfig(n_docs=n_docs, entities_per_doc=3.0, seed=seed,
                      samples_per_doc=2, n_train=4, n_test_seen=1, n_test_unseen=1)
    kb = generate_kb(cfg)
    kb_aug = augment_kb(kb)
    return kb, kb_aug


def grad_batch(kb, kb_aug, n=3):
    doc_ids = sorted(kb_aug)[:n]
    queries = [
        QueryInput(f"which creature dines on this plant given {kb[d].title.lower()}",
                   kb[d].main_image_key)
        for d in doc_ids
    ]
    docs = [kb_aug[d] for d in doc_ids]
    return queries, docs


GRAD_CONFIG = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=3, n_heads=2,
                            attn_dim=8, n_mm_tokens=2)

SHAPES_SEED = 0  # kink-free for stack_shapes_batch on every flag row

ALL_FLAG_ROWS = (
    EncoderFlags(False, False, False),
    EncoderFlags(True, False, False),
    EncoderFlags(True, True, False),
    EncoderFlags(True, True, True),
)


class TestContrastiveLoss:
    def _uniform_sets(self, b, seed=0):
        fs = random_feature_set(Rng(seed), 4, 6)
        return [fs] * b, [fs] * b

    def test_equal_scores_give_log_b(self):
        for b in (2, 3, 5):
            queries, docs = self._uniform_sets(b)
            assert contrastive_loss(queries, docs) == pytest.approx(math.log(b))

    def test_b2_symmetric_scores_give_log_2(self):
        queries, docs = self._uniform_sets(2)
        assert contrastive_loss(queries, docs) == pytest.approx(math.log(2))

    def test_dominant_positive_drives_loss_to_zero(self):
        dim = 6
        eye = np.eye(dim)
        qs, ds = [], []
        from mvli.core import FeatureSet

        for i in range(2):
            q = FeatureSet(np.tile(eye[i], (40, 1)), tuple("textual" for _ in range(40)))
            d = FeatureSet(eye[i][None, :], ("textual",))
            qs.append(q)
            ds.append(d)
        # positives score 40, negatives 0: softmax is nearly one-hot
        assert contrastive_loss(qs, ds) < 1e-12

    def test_batch_permutation_leaves_loss_unchanged(self):
        rng = Rng(3)
        qs = [random_feature_set(rng.split(f"q{i}"), 4, 6) for i in range(4)]
        ds = [random_feature_set(rng.split(f"d{i}"), 5, 6) for i in range(4)]
        base = contrastive_loss(qs, ds)
        perm = [2, 0, 3, 1]
        shuffled = contrastive_loss([qs[i] for i in perm], [ds[i] for i in perm])
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_small_batch_rejected(self):
        fs = random_feature_set(Rng(1), 3, 6)
        with pytest.raises(ConfigError):
            contrastive_loss([fs], [fs])


def stack_shapes_batch():
    """Every image-stack shape in one batch: a document with no related entity
    (a one-image stack), a two-token entity mentioned twice (a four-token ETE
    span), a document with two related images, and an empty-text query."""
    kb = {d.doc_id: d for d in (
        RawDocument("d0", "Lema Daturaphila",
                    "Lema Daturaphila feeds upon Solan Ridge and guards Solan Ridge at dusk.",
                    "img::Lema Daturaphila"),
        RawDocument("d1", "Solan Ridge", "Solan Ridge overlooks a quiet valley.",
                    "img::Solan Ridge"),
        RawDocument("d2", "Tomat Vale", "Tomat Vale venerates Lema Daturaphila and Solan Ridge.",
                    "img::Tomat Vale"),
    )}
    docs = [augment_kb(kb)[d] for d in ("d0", "d1", "d2")]
    queries = [
        QueryInput("which creature guards the ridge", "img::Lema Daturaphila"),
        QueryInput("", "img::Solan Ridge"),
        QueryInput("what vale venerates the creature", "img::Tomat Vale"),
    ]
    return queries, docs


class TestGradients:
    def _check_batch(self, params, queries, docs, flags, seed, image_only=False,
                     coords_per_tensor=3):
        provider = SeededEmbeddingProvider(GRAD_CONFIG)

        # central differences are only meaningful away from MaxSim kinks:
        # require every top-2 similarity margin to exceed the step size
        from mvli.encoder import encode_document_forward, encode_query_forward

        qf = [encode_query_forward(q, params, GRAD_CONFIG, provider, image_only)[0]
              for q in queries]
        df = [encode_document_forward(d, params, GRAD_CONFIG, provider, flags)[0]
              for d in docs]
        assert maxsim_margin(qf, df) > 1e-3, "pick a kink-free seed for this check"

        _, grads = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider,
                                  flags, image_only)

        def loss_fn():
            loss, _ = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider,
                                     flags, image_only)
            return loss

        pick = Rng(seed).split("coords").generator()
        worst = 0.0
        for name, arr in named_tensors(params).items():
            n = arr.size
            for idx in pick.choice(n, size=min(coords_per_tensor, n), replace=False):
                fd = finite_diff(loss_fn, arr, int(idx), eps=1e-4)
                analytic = grads[name].flat[int(idx)]
                worst = max(worst, grad_rel_error(fd, analytic))
        assert worst < 1e-3, f"flags={flags.label()} worst rel error {worst:.2e}"
        return grads

    def _check_flags(self, flags, seed, coords_per_tensor=3, image_only=False):
        kb, kb_aug = tiny_world(seed=seed)
        params = init_encoder_params(GRAD_CONFIG, seed=seed + 50)
        queries, docs = grad_batch(kb, kb_aug)
        self._check_batch(params, queries, docs, flags, seed, image_only, coords_per_tensor)

    @pytest.mark.parametrize("flags", ALL_FLAG_ROWS, ids=lambda f: f.label())
    def test_finite_difference_all_flag_rows(self, flags):
        self._check_flags(flags, seed=0)

    def test_finite_difference_image_only_mode(self):
        self._check_flags(EncoderFlags(True, True, True), seed=2, image_only=True)

    @pytest.mark.parametrize("flags", ALL_FLAG_ROWS, ids=lambda f: f.label())
    def test_finite_difference_stack_shapes(self, flags):
        queries, docs = stack_shapes_batch()
        assert [len(d.related) for d in docs] == [1, 0, 2]
        assert len(docs[0].related[0].span) == 4
        params = init_encoder_params(GRAD_CONFIG, seed=SHAPES_SEED)
        grads = self._check_batch(params, queries, docs, flags, seed=SHAPES_SEED,
                                  image_only=True, coords_per_tensor=4)
        assert np.any(grads["null_text"] != 0.0)
        assert np.any(grads["ete"] != 0.0) == (flags.mi and flags.mmf and flags.ete)

    def test_ete_grad_zero_when_flag_off(self):
        kb, kb_aug = tiny_world(seed=2)
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=3)
        queries, docs = grad_batch(kb, kb_aug)
        _, grads = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider,
                                  EncoderFlags(True, True, False))
        assert np.all(grads["ete"] == 0.0)

    def test_ete_grad_zero_when_mi_off(self):
        # with only the main image attached there is no entity span to shift
        kb, kb_aug = tiny_world(seed=2)
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=3)
        queries, docs = grad_batch(kb, kb_aug)
        _, grads = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider,
                                  EncoderFlags(False, True, True))
        assert np.all(grads["ete"] == 0.0)

    def test_ete_grad_nonzero_when_active(self):
        kb, kb_aug = tiny_world(seed=2)
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=3)
        queries, docs = grad_batch(kb, kb_aug)
        _, grads = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider,
                                  EncoderFlags(True, True, True))
        assert np.any(grads["ete"] != 0.0)

    def test_null_text_grad_only_in_image_only_empty_text(self):
        kb, kb_aug = tiny_world(seed=4)
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=5)
        queries, docs = grad_batch(kb, kb_aug)
        _, grads = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider,
                                  EncoderFlags(True, True, True))
        assert np.all(grads["null_text"] == 0.0)
        empty = [QueryInput("", q.image_key) for q in queries]
        _, grads = loss_and_grads(params, empty, docs, GRAD_CONFIG, provider,
                                  EncoderFlags(True, True, True), image_only=True)
        assert np.any(grads["null_text"] != 0.0)

    def test_descent_step_reduces_loss(self):
        kb, kb_aug = tiny_world(seed=6)
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=7)
        queries, docs = grad_batch(kb, kb_aug)
        flags = EncoderFlags(True, True, True)
        loss0, grads = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider, flags)
        for name, arr in named_tensors(params).items():
            arr -= 1e-4 * grads[name]
        loss1, _ = loss_and_grads(params, queries, docs, GRAD_CONFIG, provider, flags)
        assert loss1 <= loss0 + 1e-12


def bench_world(seed=20):
    cfg = SynthConfig(n_docs=40, entities_per_doc=6.0, samples_per_doc=5, seed=seed,
                      n_train=24, n_test_seen=2, n_test_unseen=2)
    kb = generate_kb(cfg)
    typemap = assign_typemap([d.title for d in kb.values()], cfg)
    kb_aug = augment_kb(kb)
    return kb, kb_aug, generate_benchmark(kb, cfg, typemap, augmented=kb_aug)


class TestTrainLoop:
    def test_zero_epochs_leaves_params_unchanged(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=1)
        before = params_checksum(params)
        cfg = TrainConfig(batch_size=4, epochs=0, seed=2)
        _, stats = train(splits.train, kb_aug, cfg, params, GRAD_CONFIG, provider)
        assert params_checksum(params) == before
        assert stats.losses == []
        assert stats.final_checksum == before

    def test_same_seed_identical_checksum(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=5)
        p1 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s1 = train(splits.train, kb_aug, cfg, p1, GRAD_CONFIG, provider)
        p2 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s2 = train(splits.train, kb_aug, cfg, p2, GRAD_CONFIG, provider)
        assert s1.final_checksum == s2.final_checksum
        assert s1.losses == s2.losses

    def test_training_reduces_loss(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=3)
        cfg = TrainConfig(batch_size=4, epochs=4, learning_rate=5e-3, seed=4)
        _, stats = train(splits.train, kb_aug, cfg, params, GRAD_CONFIG, provider)
        first_epoch = np.mean(stats.losses[: len(stats.losses) // 4])
        last_epoch = np.mean(stats.losses[-len(stats.losses) // 4:])
        assert last_epoch < first_epoch

    def test_missing_gt_doc_rejected(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=3)
        import dataclasses

        bad = [dataclasses.replace(splits.train[0], gt_doc_id="missing")]
        with pytest.raises(DataError):
            train(bad, kb_aug, TrainConfig(batch_size=2, seed=1), params,
                  GRAD_CONFIG, provider)

    def test_adam_variant_runs_and_is_deterministic(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=5, adam=True)
        p1 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s1 = train(splits.train, kb_aug, cfg, p1, GRAD_CONFIG, provider)
        p2 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s2 = train(splits.train, kb_aug, cfg, p2, GRAD_CONFIG, provider)
        assert s1.final_checksum == s2.final_checksum

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
