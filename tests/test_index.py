import struct
import tracemalloc

import numpy as np
import pytest

import mvli.index as index_mod
from _oracles import naive_centroid_update
from conftest import random_feature_set
from mvli.cli import main
from mvli.core import ConfigError, CorruptionError, FeatureSet, FormatError, InputError, Rng
from mvli.core import UnsupportedVersionError
from mvli.encoder import EncoderConfig, init_encoder_params, save_params
from mvli.index import (
    SearchParams,
    build_index,
    default_k_centroids,
    load_index,
    reconstruct,
    save_index,
    search,
)
from mvli.scoring import rank_exact


def make_corpus(seed=0, n_docs=12, dim=8, min_tokens=4, max_tokens=20):
    rng = Rng(seed)
    sizes = rng.split("sizes").generator().integers(min_tokens, max_tokens + 1, size=n_docs)
    return {
        f"doc{i:03d}": random_feature_set(rng.split(i), int(sizes[i]), dim)
        for i in range(n_docs)
    }


class TestBuild:
    def test_one_centroid_per_vector_reconstructs_exactly(self):
        corpus = make_corpus(n_docs=4, max_tokens=6)
        n_vec = sum(len(v) for v in corpus.values())
        index = build_index(corpus, k_centroids=n_vec, seed=1)
        all_vectors = np.vstack([corpus[d].vectors for d in sorted(corpus)])
        rebuilt = reconstruct(index, np.arange(n_vec))
        # residuals are all zero, so quantization is exact
        np.testing.assert_allclose(rebuilt, all_vectors, atol=1e-12)

    def test_rebuild_same_seed_identical(self):
        corpus = make_corpus()
        a = build_index(corpus, seed=3)
        b = build_index(corpus, seed=3)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.codes.tobytes() == b.codes.tobytes()
        assert a.assignments.tobytes() == b.assignments.tobytes()

    def test_quantizer_error_within_half_bucket(self):
        corpus = make_corpus(seed=5, n_docs=20)
        index = build_index(corpus, seed=2)
        all_vectors = np.vstack([corpus[d].vectors for d in sorted(corpus)])
        rebuilt = reconstruct(index, np.arange(all_vectors.shape[0]))
        spread = index.code_max - index.code_min
        half_bucket = np.where(spread > 0, spread / 255.0 / 2.0, 0.0)
        err = np.abs(rebuilt - all_vectors)
        assert np.all(err <= half_bucket + 1e-12)

    def test_kmeans_objective_non_increasing(self):
        corpus = make_corpus(seed=9, n_docs=30)
        index = build_index(corpus, kmeans_iters=20, seed=4)
        trace = np.array(index.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            build_index({})

    def test_too_many_centroids_rejected(self):
        corpus = make_corpus(n_docs=2, max_tokens=5)
        n_vec = sum(len(v) for v in corpus.values())
        with pytest.raises(ConfigError):
            build_index(corpus, k_centroids=n_vec + 1)

    def test_default_centroid_count(self):
        assert default_k_centroids(2500) == 100
        assert default_k_centroids(1) == 2


class TestKmeansSteps:
    """The blockwise assign and the segment-sum update against dense oracles."""

    @pytest.mark.parametrize("seed", range(3))
    def test_blockwise_assign_matches_dense_argmax(self, monkeypatch, seed):
        gen = Rng(seed).generator()
        vectors = gen.standard_normal((1003, 8))
        centroids = gen.standard_normal((37, 8))
        # 37 centroids x 8 B x 16 rows per block: 63 blocks, the last of 11 rows
        monkeypatch.setattr(index_mod, "_ASSIGN_BLOCK_BYTES", 16 * 8 * 37 + 5)
        assignments, best = index_mod._assign(vectors, centroids)
        sims = vectors @ centroids.T
        np.testing.assert_array_equal(assignments, sims.argmax(axis=1))
        np.testing.assert_allclose(best, sims.max(axis=1), rtol=0, atol=1e-12)

    def test_assign_block_never_below_one_row(self, monkeypatch):
        gen = Rng(7).generator()
        vectors = gen.standard_normal((5, 4))
        centroids = gen.standard_normal((3, 4))
        monkeypatch.setattr(index_mod, "_ASSIGN_BLOCK_BYTES", 1)
        assignments, _ = index_mod._assign(vectors, centroids)
        np.testing.assert_array_equal(assignments, (vectors @ centroids.T).argmax(axis=1))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", ["one", "default", "all"])
    def test_segment_update_matches_loop(self, seed, k):
        gen = Rng(seed).generator()
        n = 150
        vectors = gen.standard_normal((n, 6))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        n_cent = {"one": 1, "default": default_k_centroids(n), "all": n}[k]
        centroids = gen.standard_normal((n_cent, 6))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        # use a third of the centroids at most, so most clusters are empty
        used = gen.choice(n_cent, size=max(1, n_cent // 3), replace=False)
        assignments = used[gen.integers(0, used.size, size=n)]
        if n_cent > 1:
            # a cluster of two opposite vectors has a zero sum and stays put
            assignments[assignments == used[0]] = used[1]
            assignments[[0, 1]] = used[0]
            vectors[1] = -vectors[0]
        got = index_mod._update_centroids(vectors, assignments, centroids)
        want = naive_centroid_update(vectors, assignments, centroids)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        empty = np.setdiff1d(np.arange(n_cent), assignments)
        np.testing.assert_array_equal(got[empty], centroids[empty])
        if n_cent > 1:
            np.testing.assert_array_equal(got[used[0]], centroids[used[0]])

    def test_build_memory_bounded_by_block(self):
        n, dim, k = 40_000, 16, 400
        dense_bytes = n * k * 8
        assert dense_bytes >= 8 * index_mod._ASSIGN_BLOCK_BYTES
        vectors = Rng(3).generator().standard_normal((n, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        corpus = {
            f"doc{i:04d}": FeatureSet(rows, ("textual",) * len(rows))
            for i, rows in enumerate(np.split(vectors, 400))
        }
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            build_index(corpus, k_centroids=k, kmeans_iters=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2


class TestDerivedLayout:
    """Doc ranges, doc centroid sets and centroid doc lists against brute force."""

    @staticmethod
    def assert_matches_brute_force(index):
        n_docs = len(index.doc_ids)
        owners = np.repeat(np.arange(n_docs), index.doc_sizes)
        for d in range(n_docs):
            rows = np.arange(index.doc_offsets[d], index.doc_offsets[d + 1])
            np.testing.assert_array_equal(rows, np.flatnonzero(owners == d))
            np.testing.assert_array_equal(
                index.doc_centroids[d], np.unique(index.assignments[owners == d]))
        assert len(index.centroid_docs) == index.centroids.shape[0]
        for c, docs in enumerate(index.centroid_docs):
            np.testing.assert_array_equal(docs, np.unique(owners[index.assignments == c]))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corpora(self, seed):
        corpus = make_corpus(seed=seed, n_docs=9, max_tokens=12)
        # a doc of one repeated vector: all its vectors share one centroid
        repeated = np.tile(corpus["doc004"].vectors[0], (5, 1))
        corpus["doc004"] = FeatureSet(repeated, ("textual",) * 5)
        n_vec = sum(len(v) for v in corpus.values())
        for k in (1, 3, None, n_vec):
            index = build_index(corpus, k_centroids=k, kmeans_iters=3, seed=seed)
            self.assert_matches_brute_force(index)
            assert index.doc_centroids[4].size == 1


class TestSearch:
    def test_exhaustive_lossless_matches_rank_exact(self):
        corpus = make_corpus(seed=11, n_docs=15)
        index = build_index(corpus, nbits=0, seed=6)
        k_cent = index.centroids.shape[0]
        for i in range(20):
            q = random_feature_set(Rng(100 + i), 5, 8)
            exact = rank_exact(q, corpus, len(corpus))
            got = search(index, q, SearchParams(k=len(corpus), nprobe=k_cent,
                                                candidate_doc_cap=len(corpus)))
            assert [s.doc_id for s in exact] == [s.doc_id for s in got]

    def test_exhaustive_quantized_scores_match_dequantized_corpus(self):
        corpus = make_corpus(seed=12, n_docs=10)
        index = build_index(corpus, nbits=8, seed=6)
        doc_ids = sorted(corpus)
        q = random_feature_set(Rng(55), 6, 8)
        got = search(index, q, SearchParams(k=10, nprobe=index.centroids.shape[0],
                                            candidate_doc_cap=10))
        assert len(got) == 10
        # scores equal an exact pass over the reconstructed vectors
        for scored in got:
            d = doc_ids.index(scored.doc_id)
            start = int(np.sum(index.doc_sizes[:d]))
            rows = reconstruct(index, np.arange(start, start + index.doc_sizes[d]))
            expected = float((q.vectors @ rows.T).max(axis=1).sum())
            assert scored.score == pytest.approx(expected, abs=1e-12)

    def test_single_doc_corpus_always_returned(self):
        corpus = make_corpus(n_docs=1)
        index = build_index(corpus, seed=1)
        q = random_feature_set(Rng(77), 3, 8)
        got = search(index, q, SearchParams(k=1, nprobe=1, candidate_doc_cap=1))
        assert got[0].doc_id == "doc000"

    def test_candidate_cap_limits_rerank_set(self):
        corpus = make_corpus(seed=21, n_docs=30)
        index = build_index(corpus, seed=2)
        q = random_feature_set(Rng(31), 4, 8)
        capped = search(index, q, SearchParams(k=3, nprobe=2, candidate_doc_cap=3))
        assert len(capped) <= 3

    def test_dimension_mismatch_rejected(self):
        corpus = make_corpus()
        index = build_index(corpus, seed=2)
        from mvli.core import ShapeError

        with pytest.raises(ShapeError):
            search(index, random_feature_set(Rng(1), 3, 16), SearchParams(k=1))

    def test_search_params_validation(self):
        with pytest.raises(ConfigError):
            SearchParams(k=0)
        with pytest.raises(ConfigError):
            SearchParams(k=5, nprobe=0)
        with pytest.raises(ConfigError):
            SearchParams(k=5, candidate_doc_cap=3)


class TestPersistence:
    def test_round_trip_search_identical(self, tmp_path):
        corpus = make_corpus(seed=13, n_docs=10)
        index = build_index(corpus, seed=7)
        path = tmp_path / "x.mvli"
        save_index(index, path)
        loaded = load_index(path)
        for i in range(10):
            q = random_feature_set(Rng(200 + i), 4, 8)
            a = search(index, q, SearchParams(k=5))
            b = search(loaded, q, SearchParams(k=5))
            assert [(s.doc_id, s.score) for s in a] == [(s.doc_id, s.score) for s in b]

    def test_save_is_byte_deterministic(self, tmp_path):
        corpus = make_corpus(seed=13, n_docs=10)
        index = build_index(corpus, seed=7)
        p1, p2 = tmp_path / "a.mvli", tmp_path / "b.mvli"
        save_index(index, p1)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lossless_round_trip(self, tmp_path):
        corpus = make_corpus(seed=14, n_docs=6)
        index = build_index(corpus, nbits=0, seed=7)
        path = tmp_path / "x.mvli"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.nbits == 0
        np.testing.assert_array_equal(loaded.codes, index.codes)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvli"
        path.write_bytes(b"JUNK" + bytes(64))
        with pytest.raises(FormatError):
            load_index(path)

    def test_version_mismatch(self, tmp_path):
        corpus = make_corpus(n_docs=3)
        index = build_index(corpus, seed=1)
        path = tmp_path / "x.mvli"
        save_index(index, path)
        original = path.read_bytes()
        for version in (1, 42):  # 1: the older layout with postings and owner blocks
            data = bytearray(original)
            data[4:8] = version.to_bytes(4, "little")
            path.write_bytes(bytes(data))
            with pytest.raises(UnsupportedVersionError):
                load_index(path)

    def test_truncation_detected(self, tmp_path):
        corpus = make_corpus(n_docs=3)
        index = build_index(corpus, seed=1)
        path = tmp_path / "x.mvli"
        save_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CorruptionError):
            load_index(path)

    def test_trailing_bytes_detected(self, tmp_path):
        corpus = make_corpus(n_docs=3)
        index = build_index(corpus, seed=1)
        path = tmp_path / "x.mvli"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptionError):
            load_index(path)


def _block_offsets(index) -> dict[str, int]:
    """Byte offset of each block of a saved v2 index."""
    k, dim, n = index.centroids.shape[0], index.dim, index.n_vectors
    at = {"centroids": 29}
    at["code_min"] = at["centroids"] + 8 * k * dim
    at["code_max"] = at["code_min"] + 8 * dim
    at["codes"] = at["code_max"] + 8 * dim
    at["assignments"] = at["codes"] + n * dim * (8 if index.nbits == 0 else 1)
    at["doc_sizes"] = at["assignments"] + 4 * n
    at["doc_ids"] = at["doc_sizes"] + 8 * len(index.doc_ids)
    return at


# case -> (nbits of the saved file, expected error, message fragment)
MUTATIONS = {
    "n_vec_huge": (8, CorruptionError, "header needs at least"),
    "truncated_in_codes": (8, CorruptionError, "header needs at least"),
    "nbits_3": (8, FormatError, "nbits"),
    "k_cent_0": (8, FormatError, ">= 1"),
    "n_docs_0": (8, FormatError, ">= 1"),
    "assignment_out_of_range": (8, CorruptionError, "missing centroid"),
    "empty_doc": (8, CorruptionError, "document size"),
    "doc_size_huge": (8, CorruptionError, "document size"),
    "sizes_sum_mismatch": (8, CorruptionError, "sum to"),
    "nan_centroid": (8, CorruptionError, "non-finite"),
    "inf_codebook": (8, CorruptionError, "non-finite"),
    "nan_lossless_vector": (0, CorruptionError, "non-finite"),
    "doc_id_not_utf8": (8, CorruptionError, "utf-8"),
}


def _mutate(case: str, data: bytearray, index) -> None:
    at = _block_offsets(index)
    sizes = [int(s) for s in index.doc_sizes]
    if case == "n_vec_huge":
        struct.pack_into("<Q", data, 16, 2**40)
    elif case == "truncated_in_codes":
        del data[at["codes"] + 5:]
    elif case == "nbits_3":
        data[28] = 3
    elif case == "k_cent_0":
        struct.pack_into("<I", data, 12, 0)
    elif case == "n_docs_0":
        struct.pack_into("<I", data, 24, 0)
    elif case == "assignment_out_of_range":
        struct.pack_into("<I", data, at["assignments"], index.centroids.shape[0])
    elif case == "empty_doc":  # sizes still sum to the vector count
        struct.pack_into("<QQ", data, at["doc_sizes"], 0, sizes[0] + sizes[1])
    elif case == "doc_size_huge":
        struct.pack_into("<Q", data, at["doc_sizes"], 2**64 - 1)
    elif case == "sizes_sum_mismatch":
        struct.pack_into("<Q", data, at["doc_sizes"], sizes[0] + 1)
    elif case == "nan_centroid":
        struct.pack_into("<d", data, at["centroids"], np.nan)
    elif case == "inf_codebook":
        struct.pack_into("<d", data, at["code_max"], np.inf)
    elif case == "nan_lossless_vector":
        struct.pack_into("<d", data, at["codes"], np.nan)
    elif case == "doc_id_not_utf8":
        data[at["doc_ids"] + 2] = 0xFF
    else:
        raise AssertionError(case)


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    config = EncoderConfig(dim=8, text_dim=12, image_dim=12, n_patches=2,
                           n_heads=2, attn_dim=8, n_mm_tokens=2)
    path = tmp_path_factory.mktemp("params") / "p.mprm"
    save_params(init_encoder_params(config, seed=1), config, path)
    return path


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_mutated_file_rejected(tmp_path, params_file, case):
    nbits, error, message = MUTATIONS[case]
    index = build_index(make_corpus(n_docs=3), nbits=nbits, seed=1)
    path = tmp_path / "x.mvli"
    save_index(index, path)
    data = bytearray(path.read_bytes())
    _mutate(case, data, index)
    path.write_bytes(bytes(data))
    with pytest.raises(error, match=message):
        load_index(path)
    assert main(["search", "--index", str(path), "--params", str(params_file),
                 "--image-key", "img::x"]) == 3
