import struct

import numpy as np
import pytest

from _oracles import naive_cross_attention
from conftest import random_feature_set
from mvli.augment import AugmentedDocument, RawDocument, RelatedEntity
from mvli.core import (
    ConfigError,
    CorruptionError,
    DocumentError,
    FormatError,
    InputError,
    MissingEmbeddingError,
    NumericError,
    Rng,
    SpanError,
    UnsupportedVersionError,
)
from mvli.encoder import (
    EncoderConfig,
    EncoderFlags,
    EncoderParams,
    FileEmbeddingProvider,
    QueryInput,
    SeededEmbeddingProvider,
    apply_ete,
    cross_attend,
    cross_attend_forward,
    embed_image,
    embed_text,
    embed_tokens,
    encode_document,
    encode_query,
    init_encoder_params,
    load_params,
    named_tensors,
    params_checksum,
    save_params,
    write_embedding_file,
)
from mvli.cli import main
from mvli.index import build_index, save_index


def make_augmented(doc_id, title, body, related, image_key=None):
    raw = RawDocument(doc_id, title, body,
                      f"img::{title}" if image_key is None else image_key)
    from mvli.core import tokenize

    return AugmentedDocument(raw=raw, text_tokens=tuple(tokenize(body)), related=tuple(related))


class TestEmbedText:
    def test_token_count(self, tiny_provider, tiny_config):
        feats = embed_text("Lema daturaphila", tiny_provider, tiny_config)
        assert len(feats.tokens) == 2
        assert feats.embeddings.shape == (2, tiny_config.text_dim)

    def test_deterministic(self, tiny_provider, tiny_config):
        a = embed_text("feeds upon potato", tiny_provider, tiny_config)
        b = embed_text("feeds upon potato", tiny_provider, tiny_config)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_case_folded_tokens_share_embeddings(self, tiny_provider, tiny_config):
        feats = embed_text("a A", tiny_provider, tiny_config)
        np.testing.assert_array_equal(feats.embeddings[0], feats.embeddings[1])

    def test_empty_text_rejected(self, tiny_provider, tiny_config):
        with pytest.raises(InputError):
            embed_text("   ", tiny_provider, tiny_config)


class TestEmbedImage:
    def test_patch_count_default(self):
        config = EncoderConfig()
        provider = SeededEmbeddingProvider(config)
        feats = embed_image("img::anything", provider, config)
        assert feats.patches.shape == (9, config.image_dim)

    def test_deterministic(self, tiny_provider, tiny_config):
        a = embed_image("img::x", tiny_provider, tiny_config)
        b = embed_image("img::x", tiny_provider, tiny_config)
        np.testing.assert_array_equal(a.global_vec, b.global_vec)
        np.testing.assert_array_equal(a.patches, b.patches)

    def test_distinct_keys_differ(self, tiny_provider, tiny_config):
        a = embed_image("img::x", tiny_provider, tiny_config)
        b = embed_image("img::y", tiny_provider, tiny_config)
        assert float(a.global_vec @ b.global_vec) != pytest.approx(1.0)


class TestFileProvider:
    def test_round_trip_and_missing_key(self, tmp_path, tiny_config):
        rng = Rng(1).generator()
        records = {
            "text:potato": rng.standard_normal(tiny_config.text_dim),
            "img-g:img::x": rng.standard_normal(tiny_config.image_dim),
        }
        for j in range(tiny_config.n_patches):
            records[f"img-p:{j}:img::x"] = rng.standard_normal(tiny_config.image_dim)
        path = tmp_path / "emb.bin"
        write_embedding_file(records, path)
        provider = FileEmbeddingProvider(path, tiny_config)
        np.testing.assert_allclose(
            provider.text_vector("potato"), records["text:potato"].astype(np.float32),
            rtol=1e-6,
        )
        feats = embed_image("img::x", provider, tiny_config)
        assert feats.patches.shape == (tiny_config.n_patches, tiny_config.image_dim)
        with pytest.raises(MissingEmbeddingError):
            provider.text_vector("unknown")

    def test_truncated_file(self, tmp_path, tiny_config):
        path = tmp_path / "emb.bin"
        write_embedding_file({"text:a": np.ones(tiny_config.text_dim)}, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(CorruptionError):
            FileEmbeddingProvider(path, tiny_config)


class TestCrossAttend:
    def test_single_key_gives_identical_pre_residual_outputs(self, tiny_params, tiny_config, tiny_provider):
        patches = embed_image("img::p", tiny_provider, tiny_config).patches
        text = embed_tokens(["one"], tiny_provider, tiny_config)
        _, cache = cross_attend_forward(patches, text.embeddings, tiny_params.xattn, tiny_config)
        attn_out = cache["h1"] - cache["x"]  # pre-residual attention output
        for row in attn_out:
            np.testing.assert_allclose(row, attn_out[0], atol=1e-12)

    def test_text_permutation_invariance(self, tiny_params, tiny_config, tiny_provider):
        patches = embed_image("img::p", tiny_provider, tiny_config).patches
        text = embed_tokens(["alpha", "beta", "gamma"], tiny_provider, tiny_config)
        base = cross_attend(patches, text, tiny_params, tiny_config)
        permuted = embed_tokens(["gamma", "alpha", "beta"], tiny_provider, tiny_config)
        swapped = cross_attend(patches, permuted, tiny_params, tiny_config)
        np.testing.assert_allclose(base, swapped, atol=1e-12)

    def test_zero_feedforward_is_identity_on_attention_sublayer(self, tiny_config, tiny_provider):
        params = init_encoder_params(tiny_config, seed=2)
        params.xattn.f1[...] = 0.0
        params.xattn.f1b[...] = 0.0
        params.xattn.f2[...] = 0.0
        params.xattn.f2b[...] = 0.0
        patches = embed_image("img::p", tiny_provider, tiny_config).patches
        text = embed_tokens(["alpha", "beta"], tiny_provider, tiny_config)
        out, cache = cross_attend_forward(patches, text.embeddings, params.xattn, tiny_config)
        np.testing.assert_allclose(out, cache["h1"], atol=1e-15)

    def test_matches_naive_reference(self, tiny_params, tiny_config, tiny_provider):
        rng = Rng(11)
        for trial in range(10):
            gen = rng.split(trial).generator()
            patches = gen.standard_normal((tiny_config.n_patches, tiny_config.image_dim))
            text_emb = gen.standard_normal((int(gen.integers(1, 6)), tiny_config.text_dim))
            got, _ = cross_attend_forward(patches, text_emb, tiny_params.xattn, tiny_config)
            expected = naive_cross_attention(
                patches, text_emb, tiny_params.xattn, tiny_config.n_heads
            )
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_nonfinite_weights_rejected(self, tiny_config, tiny_provider):
        params = init_encoder_params(tiny_config, seed=2)
        params.xattn.wq[0, 0] = np.nan
        patches = embed_image("img::p", tiny_provider, tiny_config).patches
        text = embed_tokens(["alpha"], tiny_provider, tiny_config)
        with pytest.raises(NumericError):
            cross_attend(patches, text, params, tiny_config)


class TestApplyEte:
    def test_zero_theta_identity(self, tiny_provider, tiny_config):
        text = embed_tokens(["a", "b", "c"], tiny_provider, tiny_config)
        out = apply_ete(text, {0, 2}, np.zeros(tiny_config.text_dim))
        np.testing.assert_array_equal(out.embeddings, text.embeddings)

    def test_empty_span_identity(self, tiny_provider, tiny_config):
        text = embed_tokens(["a", "b"], tiny_provider, tiny_config)
        theta = np.ones(tiny_config.text_dim)
        out = apply_ete(text, set(), theta)
        np.testing.assert_array_equal(out.embeddings, text.embeddings)

    def test_additive_on_span_only(self, tiny_provider, tiny_config):
        text = embed_tokens(["a", "b"], tiny_provider, tiny_config)
        theta = np.zeros(tiny_config.text_dim)
        theta[0] = 1.0
        out = apply_ete(text, {0}, theta)
        np.testing.assert_allclose(out.embeddings[0], text.embeddings[0] + theta)
        np.testing.assert_array_equal(out.embeddings[1], text.embeddings[1])

    def test_input_unmodified(self, tiny_provider, tiny_config):
        text = embed_tokens(["a"], tiny_provider, tiny_config)
        before = text.embeddings.copy()
        apply_ete(text, {0}, np.ones(tiny_config.text_dim))
        np.testing.assert_array_equal(text.embeddings, before)

    def test_out_of_range_rejected(self, tiny_provider, tiny_config):
        text = embed_tokens(["a", "b"], tiny_provider, tiny_config)
        with pytest.raises(SpanError):
            apply_ete(text, {2}, np.zeros(tiny_config.text_dim))


class TestEncodeQuery:
    def test_cardinality_standard_mode(self, tiny_provider):
        config = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=3,
                               n_heads=2, attn_dim=8, n_mm_tokens=32)
        provider = SeededEmbeddingProvider(config)
        params = init_encoder_params(config, seed=1)
        q = encode_query(QueryInput("one two three four five", "img::q"), params, config, provider)
        assert len(q) == 1 + 5 + 32

    def test_cardinality_image_only(self):
        config = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=3,
                               n_heads=2, attn_dim=8, n_mm_tokens=32)
        provider = SeededEmbeddingProvider(config)
        params = init_encoder_params(config, seed=1)
        q = encode_query(QueryInput("one two three", "img::q"), params, config, provider,
                         image_only=True)
        assert len(q) == 1 + 32
        assert all(not p.startswith("textual") for p in q.provenance)

    def test_deterministic(self, tiny_params, tiny_config, tiny_provider):
        a = encode_query(QueryInput("hello there", "img::q"), tiny_params, tiny_config, tiny_provider)
        b = encode_query(QueryInput("hello there", "img::q"), tiny_params, tiny_config, tiny_provider)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.provenance == b.provenance

    def test_unit_norm_outputs(self, tiny_params, tiny_config, tiny_provider):
        q = encode_query(QueryInput("alpha beta", "img::q"), tiny_params, tiny_config, tiny_provider)
        np.testing.assert_allclose(np.linalg.norm(q.vectors, axis=1), 1.0, atol=1e-6)

    def test_empty_text_requires_image_only(self, tiny_params, tiny_config, tiny_provider):
        with pytest.raises(InputError):
            encode_query(QueryInput("", "img::q"), tiny_params, tiny_config, tiny_provider)
        q = encode_query(QueryInput("", "img::q"), tiny_params, tiny_config, tiny_provider,
                         image_only=True)
        assert len(q) == 1 + tiny_config.n_mm_tokens

    def test_image_only_text_still_feeds_cross_attention(self, tiny_params, tiny_config, tiny_provider):
        with_text = encode_query(QueryInput("alpha beta", "img::q"), tiny_params, tiny_config,
                                 tiny_provider, image_only=True)
        null_text = encode_query(QueryInput("", "img::q"), tiny_params, tiny_config,
                                 tiny_provider, image_only=True)
        assert not np.allclose(with_text.vectors, null_text.vectors)


class TestEncodeDocument:
    def _doc(self, n_related=2):
        related = [
            RelatedEntity(f"Ent {i}", (i,), f"img::Ent {i}", f"src{i}")
            for i in range(n_related)
        ]
        return make_augmented("d0", "Main Thing", "alpha beta gamma delta", related)

    def test_cardinality_formula(self):
        config = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=3,
                               n_heads=2, attn_dim=8, n_mm_tokens=32)
        provider = SeededEmbeddingProvider(config)
        params = init_encoder_params(config, seed=1)
        doc = self._doc(n_related=2)
        out = encode_document(doc, params, config, provider, EncoderFlags(True, True, True))
        assert len(out) == 4 + 3 * 33  # N_t + (R+1)(1+N_v)

    def test_mi_off_cardinality(self):
        config = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=3,
                               n_heads=2, attn_dim=8, n_mm_tokens=32)
        provider = SeededEmbeddingProvider(config)
        params = init_encoder_params(config, seed=1)
        doc = self._doc(n_related=2)
        out = encode_document(doc, params, config, provider, EncoderFlags(False, True, True))
        assert len(out) == 4 + 33

    def test_mmf_off_related_contribute_global_only(self, tiny_params, tiny_config, tiny_provider):
        doc = self._doc(n_related=2)
        out = encode_document(doc, tiny_params, tiny_config, tiny_provider,
                              EncoderFlags(True, False, False))
        n_t, n_v, r = 4, tiny_config.n_mm_tokens, 2
        assert len(out) == n_t + (1 + n_v) + r
        assert sum(1 for p in out.provenance if p.startswith("multimodal:1")) == 0
        assert "global-image:2" in out.provenance

    def test_r_zero_with_without_mi_identical(self, tiny_params, tiny_config, tiny_provider):
        doc = self._doc(n_related=0)
        on = encode_document(doc, tiny_params, tiny_config, tiny_provider,
                             EncoderFlags(True, True, True))
        off = encode_document(doc, tiny_params, tiny_config, tiny_provider,
                              EncoderFlags(False, True, True))
        np.testing.assert_array_equal(on.vectors, off.vectors)
        assert on.provenance == off.provenance

    def test_mi_off_equals_stripped_document(self, tiny_params, tiny_config, tiny_provider):
        doc = self._doc(n_related=3)
        stripped = AugmentedDocument(raw=doc.raw, text_tokens=doc.text_tokens, related=())
        a = encode_document(doc, tiny_params, tiny_config, tiny_provider,
                            EncoderFlags(False, True, True))
        b = encode_document(stripped, tiny_params, tiny_config, tiny_provider,
                            EncoderFlags(True, True, True))
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_ete_zero_matches_ete_off_bit_exact(self, tiny_config, tiny_provider):
        params = init_encoder_params(tiny_config, seed=3)
        params.ete[...] = 0.0
        doc = self._doc(n_related=2)
        on = encode_document(doc, params, tiny_config, tiny_provider,
                             EncoderFlags(True, True, True))
        off = encode_document(doc, params, tiny_config, tiny_provider,
                              EncoderFlags(True, True, False))
        assert on.vectors.tobytes() == off.vectors.tobytes()

    def test_ete_nonzero_changes_related_fusion_only(self, tiny_config, tiny_provider):
        params = init_encoder_params(tiny_config, seed=3)
        doc = self._doc(n_related=1)
        on = encode_document(doc, params, tiny_config, tiny_provider,
                             EncoderFlags(True, True, True))
        off = encode_document(doc, params, tiny_config, tiny_provider,
                              EncoderFlags(True, True, False))
        n_t, n_v = 4, tiny_config.n_mm_tokens
        # text, main-image block, and related global are untouched
        upto_related_global = n_t + 1 + n_v + 1
        np.testing.assert_array_equal(
            on.vectors[:upto_related_global], off.vectors[:upto_related_global]
        )
        assert not np.allclose(on.vectors[upto_related_global:], off.vectors[upto_related_global:])

    def test_unit_norm_and_provenance(self, tiny_params, tiny_config, tiny_provider):
        doc = self._doc(n_related=2)
        out = encode_document(doc, tiny_params, tiny_config, tiny_provider)
        np.testing.assert_allclose(np.linalg.norm(out.vectors, axis=1), 1.0, atol=1e-6)
        assert out.provenance[0] == "textual"
        assert f"global-image:0" in out.provenance

    def test_missing_main_image_rejected(self, tiny_params, tiny_config, tiny_provider):
        doc = make_augmented("d0", "Main", "alpha beta", (), image_key="")
        with pytest.raises(DocumentError):
            encode_document(doc, tiny_params, tiny_config, tiny_provider)

    def test_cardinality_property_random_shapes(self, tiny_provider):
        rng = Rng(77)
        for trial in range(25):
            gen = rng.split(trial).generator()
            n_v = int(gen.integers(1, 5))
            config = EncoderConfig(dim=6, text_dim=8, image_dim=8, n_patches=2,
                                   n_heads=2, attn_dim=8, n_mm_tokens=n_v)
            provider = SeededEmbeddingProvider(config)
            params = init_encoder_params(config, seed=trial)
            n_t = int(gen.integers(1, 12))
            r = int(gen.integers(0, 5))
            body = " ".join(f"tok{i}" for i in range(n_t))
            related = [
                RelatedEntity(f"E{i}", (int(gen.integers(0, n_t)),), f"img::E{i}", f"s{i}")
                for i in range(r)
            ]
            doc = make_augmented(f"d{trial}", "T", body, related)
            out = encode_document(doc, params, config, provider, EncoderFlags(True, True, True))
            assert len(out) == n_t + (r + 1) * (1 + n_v)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(attn_dim=10, n_heads=4)

    def test_flags_parse(self):
        assert EncoderFlags.parse("MI,MMF").label() == "MI+MMF"
        assert EncoderFlags.parse("none") == EncoderFlags(False, False, False)
        with pytest.raises(ConfigError):
            EncoderFlags.parse("bogus")


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, tiny_config):
        params = init_encoder_params(tiny_config, seed=9)
        path = tmp_path / "params.mprm"
        save_params(params, tiny_config, path)
        loaded, config = load_params(path)
        # the checkpoint stores the resolved feed-forward width
        assert config.ffn_dim == tiny_config.ffn_dim
        assert (config.dim, config.text_dim, config.image_dim, config.n_patches,
                config.n_heads, config.attn_dim, config.n_mm_tokens) == (
            tiny_config.dim, tiny_config.text_dim, tiny_config.image_dim,
            tiny_config.n_patches, tiny_config.n_heads, tiny_config.attn_dim,
            tiny_config.n_mm_tokens)
        for name, arr in named_tensors(params).items():
            np.testing.assert_array_equal(arr, named_tensors(loaded)[name])
        assert params_checksum(params) == params_checksum(loaded)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mprm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_params(path)

    def test_unsupported_version(self, tmp_path, tiny_config):
        params = init_encoder_params(tiny_config, seed=9)
        path = tmp_path / "params.mprm"
        save_params(params, tiny_config, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError):
            load_params(path)

    def test_truncation(self, tmp_path, tiny_config):
        params = init_encoder_params(tiny_config, seed=9)
        path = tmp_path / "params.mprm"
        save_params(params, tiny_config, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptionError):
            load_params(path)


# A checkpoint holds magic, version, 8 shape fields and a tensor count (44
# bytes), then its tensors in name order; the first is "ete" of shape
# (text_dim,): name length at 44, name at 46, ndim at 49, shape at 50, values
# from 54.  case -> (error, message fragment, CLI exit code, mutation)
CHECKPOINT_MUTATIONS = {
    "tensor_shape_huge": (CorruptionError, "needs", 3,
                          lambda d: struct.pack_into("<I", d, 50, 2**31)),
    "tensor_ndim_huge": (CorruptionError, "dimensions", 3, lambda d: d.__setitem__(49, 255)),
    "truncated_in_values": (CorruptionError, "needs", 3,
                            lambda d: d.__delitem__(slice(60, None))),
    "tensor_name_not_utf8": (CorruptionError, "utf-8", 3, lambda d: d.__setitem__(46, 0xFF)),
    "heads_not_dividing_attn_dim": (CorruptionError, "shape header", 3,
                                    lambda d: struct.pack_into("<I", d, 24, 3)),
    # non-finite parameters are a numeric error wherever they are found
    "nan_first_tensor": (NumericError, "non-finite", 4,
                         lambda d: struct.pack_into("<d", d, 54, np.nan)),
    "inf_last_tensor": (NumericError, "non-finite", 4,
                        lambda d: struct.pack_into("<d", d, len(d) - 8, np.inf)),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_MUTATIONS))
def test_mutated_checkpoint_rejected(tmp_path, tiny_config, capsys, case):
    error, message, exit_code, mutate = CHECKPOINT_MUTATIONS[case]
    path = tmp_path / "p.mprm"
    save_params(init_encoder_params(tiny_config, seed=1), tiny_config, path)
    data = bytearray(path.read_bytes())
    mutate(data)
    path.write_bytes(bytes(data))
    with pytest.raises(error, match=message):
        load_params(path)
    corpus = {f"d{i}": random_feature_set(Rng(i), 5, tiny_config.dim) for i in range(3)}
    index_path = tmp_path / "x.mvli"
    save_index(build_index(corpus, seed=1), index_path)
    capsys.readouterr()
    assert main(["search", "--index", str(index_path), "--params", str(path),
                 "--image-key", "img::x"]) == exit_code
    assert message in capsys.readouterr().err
