import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvli.encoder as encoder_mod
from _oracles import (
    adam_updates,
    finite_diff,
    gelu_grad_expression,
    grad_rel_error,
    maxsim_margin,
    sgd_update,
)
from conftest import random_feature_set
from mvli.augment import RawDocument, augment_kb
from mvli.core import ConfigError, DataError, Rng
from mvli.encoder import (
    EncoderConfig,
    EncoderFlags,
    QueryInput,
    SeededEmbeddingProvider,
    gelu_grad,
    init_encoder_params,
    named_tensors,
    params_checksum,
)
from mvli.synth import SynthConfig, assign_typemap, generate_benchmark, generate_kb
from mvli.train import TrainConfig, _Adam, _sgd_step, contrastive_loss, loss_and_grads, train

TESTS = Path(__file__).resolve().parent
SRC = Path(encoder_mod.__file__).resolve().parents[1]


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
        from mvli.encoder import encode_document, encode_query

        qf = [encode_query(q, params, GRAD_CONFIG, provider, image_only) for q in queries]
        df = [encode_document(d, params, GRAD_CONFIG, provider, flags) for d in docs]
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
        out, stats = train(splits.train, kb_aug, cfg, params, GRAD_CONFIG, provider)
        assert params_checksum(params) == before
        assert stats.losses == []
        assert params_checksum(out) == before

    def test_same_seed_identical_checksum(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=5)
        p1 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s1 = train(splits.train, kb_aug, cfg, p1, GRAD_CONFIG, provider)
        p2 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s2 = train(splits.train, kb_aug, cfg, p2, GRAD_CONFIG, provider)
        assert params_checksum(p1) == params_checksum(p2)
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

    def test_fewer_samples_than_a_batch_rejected(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        params = init_encoder_params(GRAD_CONFIG, seed=3)
        with pytest.raises(DataError, match="3 training samples cannot fill one batch of 4"):
            train(splits.train[:3], kb_aug, TrainConfig(batch_size=4, seed=1), params,
                  GRAD_CONFIG, provider)
        # zero epochs need no batch
        train(splits.train[:3], kb_aug, TrainConfig(batch_size=4, epochs=0), params,
              GRAD_CONFIG, provider)

    def test_adam_variant_runs_and_is_deterministic(self):
        kb, kb_aug, splits = bench_world()
        provider = SeededEmbeddingProvider(GRAD_CONFIG)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=5, adam=True)
        p1 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s1 = train(splits.train, kb_aug, cfg, p1, GRAD_CONFIG, provider)
        p2 = init_encoder_params(GRAD_CONFIG, seed=9)
        _, s2 = train(splits.train, kb_aug, cfg, p2, GRAD_CONFIG, provider)
        assert params_checksum(p1) == params_checksum(p2)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(learning_rate=rate)


def three_step_checksum() -> str:
    """`params_checksum` after 3 SGD steps of batch 4 at the default encoder."""
    kb, kb_aug, splits = bench_world()
    config = EncoderConfig()
    params = init_encoder_params(config, seed=1)
    cfg = TrainConfig(batch_size=4, epochs=1, seed=5, flags=EncoderFlags(True, True, True))
    train(splits.train[:12], kb_aug, cfg, params, config, SeededEmbeddingProvider(config))
    return params_checksum(params)


def test_training_bits_at_four_threads():
    """The backward's products are plain GEMMs; trained in a child process
    whose BLAS runs 4 threads, the parameters carry this process's bits."""
    code = "import test_train as t; print(t.three_step_checksum())"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4",
               MKL_NUM_THREADS="4", PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == three_step_checksum(), "4 threads change the trained bits"


class TestInPlaceBits:
    """The backward and the optimizers run in place; each keeps the bits of
    its out-of-place formula."""

    def test_gelu_grad_bytes_equal_the_expression(self):
        tiny, big = np.finfo(float).tiny, np.finfo(float).max
        edges = np.array([0.0, 5e-324, tiny / 3, tiny, 1e-300, 1e-8, 20.0, 20.5, 1e3,
                          1e154, 1.5e154, 1e300, big, np.inf])
        magnitudes = np.concatenate([edges, np.geomspace(5e-324, 1e308, 4001)])
        x = np.concatenate([magnitudes, -magnitudes, np.linspace(-60.0, 60.0, 300_001)])
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            want = gelu_grad_expression(x)
            assert gelu_grad(x).tobytes() == want.tobytes()
            rows = x[:300_000].reshape(300, 1000)  # the backward passes (rows, width)
            assert gelu_grad(rows).tobytes() == want[:300_000].tobytes()
        assert x.tobytes() == before

    @staticmethod
    def _tensors_and_grads(seed):
        rng = np.random.default_rng(seed)
        tensors = {"w": rng.standard_normal((37, 19)) * 1e3, "b": rng.standard_normal(23) * 1e-5}
        grads = [{name: rng.standard_normal(t.shape) * 10.0 ** rng.integers(-12, 6, t.shape)
                  for name, t in tensors.items()} for _ in range(3)]
        return tensors, grads

    @staticmethod
    def _hex(a):
        return [v.hex() for v in a.ravel().tolist()]

    def test_sgd_step_equals_the_out_of_place_update(self):
        tensors, grads = self._tensors_and_grads(4)
        for g in grads:
            want = {name: sgd_update(t, g[name], 3e-3) for name, t in tensors.items()}
            _sgd_step(tensors, {name: a.copy() for name, a in g.items()}, 3e-3)
            for name, t in tensors.items():
                assert self._hex(t) == self._hex(want[name]), name

    def test_adam_steps_equal_the_out_of_place_updates(self):
        tensors, grads = self._tensors_and_grads(5)
        want = {name: adam_updates(t, [g[name] for g in grads], 2e-3)
                for name, t in tensors.items()}
        adam = _Adam(tensors, 2e-3)
        for g in grads:
            adam.step(tensors, {name: a.copy() for name, a in g.items()})
        for name, t in tensors.items():
            assert self._hex(t) == self._hex(want[name]), name
