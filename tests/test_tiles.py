"""Row tiles: a row's bits do not depend on the rows computed beside it.

The encoder runs its row-wise projections through `tile_matmul`, so a
document encodes to the same bytes alone, inside an `encode_corpus` chunk and
inside a training batch.  A BLAS whose fixed-height products change a row's
bits with its neighbours fails `test_tile_rows_are_stack_invariant` (or its
4-thread twin) by name, before ACCEPTANCE 5 fails for no visible reason.
"""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvli.encoder as encoder_mod
from _oracles import _gelu
from mvli.augment import augment_kb
from mvli.encoder import (
    TILE_ROWS,
    EncoderConfig,
    QueryInput,
    SeededEmbeddingProvider,
    cross_attend_forward,
    encode_corpus,
    encode_document,
    encode_query,
    gelu,
    gelu_grad,
    init_encoder_params,
    param_shapes,
    tile_matmul,
)
from mvli.synth import SynthConfig, generate_kb
from mvli.train import loss_and_grads

train_mod = importlib.import_module("mvli.train")  # the package re-exports `train` by name

TESTS = Path(__file__).resolve().parent
SRC = Path(encoder_mod.__file__).resolve().parents[1]

# ACCEPTANCE 5's encoders (n_mm_tokens 1-4) and the default one.
CONFIGS = [EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=2, n_heads=2, attn_dim=8,
                         n_mm_tokens=n) for n in (1, 2, 3, 4)] + [EncoderConfig()]
TILED = ("text_proj.w1", "text_proj.w2", "global_proj.w1", "global_proj.w2",
         "mm_proj.w1", "mm_proj.w2", "xattn.wk", "xattn.wv")


def tiled_shapes() -> list[tuple[int, int]]:
    """(d_in, d_out) of every forward product the encoders run in tiles."""
    return sorted({param_shapes(c)[name] for c in CONFIGS for name in TILED})


def tile_invariance_failures(seed: int = 0) -> tuple[list[str], str]:
    """The checks each shape fails, and a digest of every tiled row."""
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    digest = hashlib.blake2b(digest_size=16)
    for d_in, d_out in tiled_shapes():
        w = rng.standard_normal((d_in, d_out))
        rows = rng.standard_normal((3 * TILE_ROWS + 5, d_in))
        filler = rng.standard_normal((3 * TILE_ROWS, d_in))
        full = tile_matmul(rows, w)
        digest.update(full.tobytes())
        perm = rng.permutation(len(rows))
        checks = {
            "alone": np.vstack([tile_matmul(row[None], w) for row in rows]),
            "order": tile_matmul(rows[perm], w)[np.argsort(perm)],
        }
        for k in (2, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 3):
            checks[f"stack of {k}"] = np.vstack([tile_matmul(rows[:k], w), full[k:]])
        for p in (0, 5, TILE_ROWS - 1, TILE_ROWS, 2 * TILE_ROWS + 1):
            checks[f"position {p}"] = np.vstack([
                tile_matmul(np.vstack([filler[:p], row[None], filler[p:]]), w)[p]
                for row in rows[::7]
            ])
        for name, got in checks.items():
            want = full[::7] if name.startswith("position") else full
            if got.tobytes() != want.tobytes():
                failures.append(f"({d_in}x{d_out}) {name}")
    return failures, digest.hexdigest()


def test_tile_rows_are_stack_invariant():
    failures, _ = tile_invariance_failures()
    assert not failures, f"rows change bits with their neighbours: {failures}"


def test_tile_rows_are_stack_invariant_at_four_threads():
    """The same checks in a child process whose BLAS runs 4 threads; its rows
    must also carry this process's bits."""
    code = ("import test_tiles as t; failures, digest = t.tile_invariance_failures(); "
            "print(failures); print(digest)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4",
               MKL_NUM_THREADS="4", PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    failures, digest = proc.stdout.split("\n")[:2]
    assert failures == "[]", f"4 threads: rows change bits with their neighbours: {failures}"
    assert digest == tile_invariance_failures()[1], "4 threads change the tiled rows' bits"


def test_tile_matmul_is_the_product():
    rng = np.random.default_rng(3)
    for n in (1, TILE_ROWS, 2 * TILE_ROWS + 1):
        a, w = rng.standard_normal((n, 24)), rng.standard_normal((24, 10))
        got = tile_matmul(a, w)
        assert got.shape == (n, 10)
        np.testing.assert_allclose(got, a @ w, rtol=0, atol=1e-12)


def test_stacked_cross_attention_matches_each_image_alone(tiny_config, tiny_params):
    """Keys and values of the first text are shared by the stack and only the
    rows where a later text differs (ETE spans) are projected again; each
    image still gets the bits it gets alone."""
    rng = np.random.default_rng(8)
    texts = np.repeat(rng.standard_normal((1, 11, tiny_config.text_dim)), 5, axis=0)
    theta = rng.standard_normal(tiny_config.text_dim)
    texts[1, [1, 4]] += theta
    texts[3, [0, 10]] += theta
    texts[4, 4] += 2 * theta
    patches = rng.standard_normal((5, tiny_config.n_patches, tiny_config.image_dim))
    stacked, _ = cross_attend_forward(patches, texts, tiny_params.xattn, tiny_config)
    for r in range(len(texts)):
        alone, _ = cross_attend_forward(patches[r], texts[r], tiny_params.xattn, tiny_config)
        assert alone.tobytes() == stacked[r].tobytes()


@pytest.mark.parametrize("config", [CONFIGS[1], CONFIGS[-1]], ids=["acceptance5", "default"])
def test_document_bytes_alone_in_corpus_chunks_and_in_a_batch(config, monkeypatch):
    kb_aug = augment_kb(generate_kb(SynthConfig(n_docs=12, entities_per_doc=4.0, seed=3)))
    doc_ids = sorted(kb_aug)
    params = init_encoder_params(config, seed=1)
    provider = SeededEmbeddingProvider(config)
    alone = [encode_document(kb_aug[d], params, config, provider).vectors.tobytes()
             for d in doc_ids]

    for chunk_rows in (1, 7, encoder_mod.CORPUS_CHUNK_ROWS):
        monkeypatch.setattr(encoder_mod, "CORPUS_CHUNK_ROWS", chunk_rows)
        corpus = encode_corpus(kb_aug, params, config, provider)
        assert [corpus[d].vectors.tobytes() for d in doc_ids] == alone

    seen = []
    score_matrix = train_mod.score_matrix
    monkeypatch.setattr(train_mod, "score_matrix",
                        lambda q, d: seen.append((q, d)) or score_matrix(q, d))
    queries = [QueryInput(f"which one is {kb_aug[d].raw.title.lower()}",
                          kb_aug[d].raw.main_image_key) for d in doc_ids]
    loss_and_grads(params, queries, [kb_aug[d] for d in doc_ids], config, provider)
    q_feats, d_feats = seen[0]
    assert [f.vectors.tobytes() for f in d_feats] == alone
    assert [f.vectors.tobytes() for f in q_feats] == [
        encode_query(q, params, config, provider).vectors.tobytes() for q in queries]

    # image-only: no query text row reaches text_proj, and an empty-text query
    # attends to the null-text token
    queries[0] = QueryInput("", queries[0].image_key)
    loss_and_grads(params, queries, [kb_aug[d] for d in doc_ids], config, provider,
                   image_only=True)
    q_feats, d_feats = seen[1]
    assert [f.vectors.tobytes() for f in d_feats] == alone
    assert [f.vectors.tobytes() for f in q_feats] == [
        encode_query(q, params, config, provider, image_only=True).vectors.tobytes()
        for q in queries]


def test_gelu_matches_oracle():
    x = np.linspace(-10.0, 10.0, 400_001)
    assert np.max(np.abs(gelu(x) - _gelu(x))) <= 1e-14
    h = 1e-5
    slope = (_gelu(x + h) - _gelu(x - h)) / (2 * h)
    np.testing.assert_allclose(gelu_grad(x), slope, rtol=0, atol=1e-8)
