import dataclasses
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mvli.index as index_mod
import mvli.scoring as scoring_mod
from _oracles import (
    decode_rows32,
    naive_centroid_update,
    naive_search,
    one_shot_centroid_update,
    one_shot_codes,
    one_shot_rows32,
    per_block_screen,
    single_pass_search,
)
from conftest import random_feature_set, restamp_checksums, rewrite_sections, section_spans
from mvli.cli import main
from mvli.core import ConfigError, CorruptionError, FeatureSet, FormatError, InputError, Rng
from mvli.core import UnsupportedVersionError
from mvli.encoder import EncoderConfig, init_encoder_params, save_params
from mvli.index import (
    RetrievalIndex,
    SearchParams,
    build_index,
    default_k_centroids,
    load_index,
    reconstruct,
    save_index,
    search,
)
from mvli.scoring import StackedCorpus, rank_exact, stack_rows


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

    def test_negative_kmeans_iters_rejected(self):
        corpus = make_corpus(n_docs=5)
        with pytest.raises(ConfigError, match="kmeans_iters"):
            build_index(corpus, kmeans_iters=-5)
        build_index(corpus, kmeans_iters=0)  # zero iterations stay allowed

    def test_default_centroid_count(self):
        assert default_k_centroids(2500) == 100
        assert default_k_centroids(1) == 2

    @pytest.mark.parametrize("settings", [
        lambda n: {"nbits": 4}, lambda n: {"kmeans_iters": -1},
        lambda n: {"k_centroids": 0}, lambda n: {"k_centroids": n + 1}],
        ids=["nbits", "kmeans_iters", "k_zero", "k_over_n"])
    def test_bad_config_rejected_before_the_copy(self, monkeypatch, settings):
        """n is the vector count, summed over the docs."""
        corpus = make_corpus(n_docs=5)

        def copy_rows(*args):
            raise AssertionError("the vectors were stacked before the config was checked")

        monkeypatch.setattr(index_mod, "stack_rows", copy_rows)
        with pytest.raises(ConfigError):
            build_index(corpus, **settings(sum(len(v) for v in corpus.values())))


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
    def test_segment_update_matches_loop(self, monkeypatch, seed, k):
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
        # members gathered 5 rows at a time: the one cluster of k "one" spans
        # 30 windows, and the bits are those of one reduceat over all members
        monkeypatch.setattr(index_mod, "_ASSIGN_BLOCK_BYTES", 5 * 8 * 6)
        got = index_mod._update_centroids(vectors, assignments, centroids)
        assert got.tobytes() == one_shot_centroid_update(vectors, assignments, centroids).tobytes()
        want = naive_centroid_update(vectors, assignments, centroids)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        empty = np.setdiff1d(np.arange(n_cent), assignments)
        np.testing.assert_array_equal(got[empty], centroids[empty])
        if n_cent > 1:
            np.testing.assert_array_equal(got[used[0]], centroids[used[0]])

    @staticmethod
    def build_peak(k: int) -> int:
        """The tracemalloc peak of a 2-iteration build at k centroids on
        40,000 unit vectors of dim 16, in 400 docs."""
        n, dim = 40_000, 16
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
        return peak

    def test_build_memory_bounded_by_block(self):
        n, dim, k = 40_000, 16, 400
        dense_bytes = n * k * 8
        assert dense_bytes >= 8 * index_mod._ASSIGN_BLOCK_BYTES
        # one float64 copy of the vectors, half as much again for the codes,
        # screen rows and per-vector ids, and one block
        assert self.build_peak(k) <= 1.5 * n * dim * 8 + index_mod._ASSIGN_BLOCK_BYTES

    def test_one_cluster_build_memory_bounded_by_block(self):
        # the one cluster holds every vector, more than 5 times the rows of a block
        n, dim = 40_000, 16
        assert n > 5 * index_mod._block_rows(8 * dim)
        assert self.build_peak(1) <= 1.5 * n * dim * 8 + index_mod._ASSIGN_BLOCK_BYTES

    @pytest.mark.parametrize("seed", range(2))
    def test_pairwise_sum_equals_reduceat(self, seed):
        """A segment's first row plus `_pairwise_sum` of the others has the
        bits of np.add.reduceat over the segment, at every length up to
        three pairwise blocks and at a few longer ones, in any row order."""
        gen = Rng(seed).generator()
        vectors = gen.standard_normal((6_000, 5))
        vectors[:50, 2] = -0.0
        for n in [*range(1, 3 * index_mod._PAIRWISE_ROWS + 9), 1_000, 5_999]:
            ids = gen.permutation(len(vectors))[:n] if n % 2 else np.arange(n)
            got = vectors[ids[0]] + index_mod._pairwise_sum(vectors, ids[1:])
            want = np.add.reduceat(vectors[ids], [0], axis=0)[0]
            assert got.tobytes() == want.tobytes(), n


class TestBlockwiseBuild:
    """The block-wise build against the one-shot formulas it replaces,
    compared by bytes, with blocks of 5 float64 rows of dim 8: a cluster
    spans several windows and the last row block is partial."""

    BLOCK = 5 * 8 * 8 + 3

    @pytest.mark.parametrize("nbits", [8, 0])
    @pytest.mark.parametrize("seed", range(2))
    def test_build_equals_one_shot_formulas(self, monkeypatch, nbits, seed):
        corpus = make_corpus(seed=seed, n_docs=30, dim=8)
        vectors = stack_rows(corpus, np.float64, "index")[1]
        whole = build_index(corpus, k_centroids=7, kmeans_iters=4, nbits=nbits, seed=seed)
        monkeypatch.setattr(index_mod, "_ASSIGN_BLOCK_BYTES", self.BLOCK)
        assert len(vectors) % index_mod._block_rows(8 * 8) != 0
        assert len(vectors) % index_mod._block_rows(4 * 8) != 0
        index = build_index(corpus, k_centroids=7, kmeans_iters=4, nbits=nbits, seed=seed)
        assert np.bincount(index.assignments).max() > 3 * index_mod._block_rows(8 * 8)
        for name in ("centroids", "assignments", "codes", "code_min", "code_max"):
            assert getattr(index, name).tobytes() == getattr(whole, name).tobytes()
        if nbits == 0:
            codes, code_min, code_max = vectors, np.zeros(8), np.zeros(8)
        else:
            codes, code_min, code_max = one_shot_codes(vectors, index.centroids,
                                                       index.assignments)
        assert index.codes.tobytes() == codes.tobytes()
        assert index.code_min.tobytes() == code_min.tobytes()
        assert index.code_max.tobytes() == code_max.tobytes()
        assert index.rows32.tobytes() == one_shot_rows32(index).tobytes()


class TestDerivedLayout:
    """Doc ranges and centroid doc lists against brute force."""

    @staticmethod
    def assert_matches_brute_force(index):
        n_docs = len(index.doc_ids)
        owners = np.repeat(np.arange(n_docs), index.doc_sizes)
        for d in range(n_docs):
            rows = np.arange(index.doc_offsets[d], index.doc_offsets[d + 1])
            np.testing.assert_array_equal(rows, np.flatnonzero(owners == d))
        assert len(index.centroid_doc_offsets) == index.centroids.shape[0] + 1
        for c in range(index.centroids.shape[0]):
            docs = slice(index.centroid_doc_offsets[c], index.centroid_doc_offsets[c + 1])
            np.testing.assert_array_equal(index.centroid_doc_ids[docs],
                                          np.unique(owners[index.assignments == c]))

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
            assert np.count_nonzero(index.centroid_doc_ids == 4) == 1


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

    def test_at_depth_raises_the_cap_to_k(self):
        assert SearchParams.at_depth(10, candidate_doc_cap=4) == SearchParams(
            k=10, candidate_doc_cap=10)
        assert SearchParams.at_depth(10, nprobe=2, candidate_doc_cap=40) == SearchParams(
            k=10, nprobe=2, candidate_doc_cap=40)
        default = SearchParams.candidate_doc_cap
        assert SearchParams.at_depth(default + 7) == SearchParams(
            k=default + 7, candidate_doc_cap=default + 7)
        assert SearchParams.at_depth(10) == SearchParams(k=10)


def rerank_invariance(seed: int = 0) -> tuple[list[str], str]:
    """Docs whose exhaustive re-rank score changes bits between being scored
    among all docs and alone (in a one-doc index with the same codebook, and
    as the only candidate left by cap 1), plus a digest of every score.  The
    corpus spans three blocks of _SCREEN_BLOCK_ROWS columns."""
    corpus = make_corpus(seed=seed, n_docs=120, dim=16, min_tokens=10, max_tokens=80)
    index = build_index(corpus, kmeans_iters=5, seed=seed)
    assert index.n_vectors > 2 * scoring_mod._SCREEN_BLOCK_ROWS
    k_cent, n_docs = index.centroids.shape[0], len(index.doc_ids)
    failures: list[str] = []
    digest = []
    for i in range(3):
        q = random_feature_set(Rng(seed).split(f"q{i}"), 12, 16)
        among = {s.doc_id: s.score for s in search(
            index, q, SearchParams(k=n_docs, nprobe=k_cent, candidate_doc_cap=n_docs))}
        digest += [float.hex(among[d]) for d in index.doc_ids]
        (top,) = search(index, q, SearchParams(k=1, nprobe=k_cent, candidate_doc_cap=1))
        if top.score.hex() != among[top.doc_id].hex():
            failures.append(f"query {i} {top.doc_id} at cap 1")
        for d, doc_id in enumerate(index.doc_ids):
            rows = slice(index.doc_offsets[d], index.doc_offsets[d + 1])
            alone = RetrievalIndex(
                dim=index.dim, nbits=index.nbits, centroids=index.centroids,
                assignments=index.assignments[rows], codes=index.codes[rows],
                code_min=index.code_min, code_max=index.code_max, doc_ids=[doc_id],
                doc_sizes=index.doc_sizes[d:d + 1])
            (got,) = search(alone, q, SearchParams(k=1, nprobe=k_cent))
            if got.score.hex() != among[doc_id].hex():
                failures.append(f"query {i} {doc_id} alone")
    return failures, " ".join(digest)


class TestBlockedSearch:
    """Both stages of search score all candidates in fixed-width column
    blocks; a per-doc loop is the oracle."""

    @pytest.mark.parametrize("nbits", [0, 8])
    @pytest.mark.parametrize("block_cols", [5, 64, None])
    def test_matches_per_doc_oracle(self, monkeypatch, nbits, block_cols):
        if block_cols is not None:  # docs of 4-20 vectors: blocks of one doc, or a few
            monkeypatch.setattr(scoring_mod, "_SCREEN_BLOCK_ROWS", block_cols)
        corpus = make_corpus(seed=31, n_docs=40)
        index = build_index(corpus, k_centroids=24, nbits=nbits, kmeans_iters=5, seed=3)
        n_docs = len(corpus)
        pruned = unpruned = 0
        for i in range(8):
            q = random_feature_set(Rng(300 + i), 3 + i % 4, 8).vectors
            for nprobe, cap in ((1, 3), (2, 10), (4, 25), (24, 12), (24, n_docs)):
                k = min(5, cap)
                want_cands, want_top = naive_search(index, q, k, nprobe, cap)
                probed, _ = naive_search(index, q, k, nprobe, n_docs)
                pruned += len(probed) > cap
                unpruned += len(probed) <= cap
                query = FeatureSet(q, ("textual",) * len(q))
                cands = search(index, query, SearchParams(k=cap, nprobe=nprobe,
                                                          candidate_doc_cap=cap))
                assert sorted(s.doc_id for s in cands) == want_cands
                got = search(index, query, SearchParams(k=k, nprobe=nprobe,
                                                        candidate_doc_cap=cap))
                assert [(s.doc_id, s.score.hex()) for s in got] == [
                    (d, v.hex()) for d, v in want_top]
        assert pruned and unpruned

    def test_empty_clusters_probed(self):
        """Centroids 2 and 3 hold no vector: probing only them finds no doc,
        probing them with a used one finds that one's docs."""
        gen = Rng(12).generator()
        centroids = np.eye(4, 8)
        index = RetrievalIndex(
            dim=8, nbits=8, centroids=centroids, assignments=gen.integers(0, 2, 30),
            codes=gen.integers(0, 256, (30, 8), dtype=np.uint8),
            code_min=np.full(8, -0.2), code_max=np.full(8, 0.2),
            doc_ids=[f"doc{i}" for i in range(5)], doc_sizes=np.array([4, 8, 6, 2, 10]))
        rows = np.array([[0.0, 0.1, 1.0, 0.9, 0, 0, 0, 0], [0.3, 0.0, 0.9, 1.0, 0, 0, 0, 0]])
        query = FeatureSet(rows / np.linalg.norm(rows, axis=1, keepdims=True), ("textual",) * 2)
        assert search(index, query, SearchParams(k=3, nprobe=2)) == []
        for nprobe, cap in ((3, 5), (3, 2)):
            want_cands, want_top = naive_search(index, query.vectors, 2, nprobe, cap)
            assert want_cands
            got = search(index, query, SearchParams(k=cap, nprobe=nprobe, candidate_doc_cap=cap))
            assert sorted(s.doc_id for s in got) == want_cands
            assert [s.doc_id for s in got[:2]] == [d for d, _ in want_top]

    def test_prefilter_scores_only_probed_centroids(self, monkeypatch):
        """In a pruning search the prefilter's doc runs hold, per candidate
        doc d in index order, |C(d) & probed| columns: its probed centroids,
        not its whole centroid set C(d)."""
        corpus = make_corpus(seed=31, n_docs=40)
        index = build_index(corpus, k_centroids=24, kmeans_iters=5, seed=3)
        owners = np.repeat(np.arange(len(corpus)), index.doc_sizes)
        sets = [set(index.assignments[owners == d].tolist()) for d in range(len(corpus))]
        recorded = []
        real = scoring_mod._maxsim_sums

        def recording(sizes, width, block_sims, row_bounds):
            recorded.append(sizes.copy())
            return real(sizes, width, block_sims, row_bounds)

        monkeypatch.setattr(index_mod, "_maxsim_sums", recording)  # the prefilter's
        monkeypatch.setattr(scoring_mod, "_maxsim_sums", recording)  # the screen's
        for i in range(8):
            q = random_feature_set(Rng(300 + i), 3 + i % 4, 8)
            probed = set()
            for row in q.vectors @ index.centroids.T:
                probed.update(np.argsort(-row, kind="stable")[:2].tolist())
            want = [len(probed & c) for c in sets if probed & c]
            assert len(want) > 3 and want != [len(c) for c in sets if probed & c]
            recorded.clear()
            search(index, q, SearchParams(k=3, nprobe=2, candidate_doc_cap=3))
            assert len(recorded) == 2  # prefilter, screen
            np.testing.assert_array_equal(recorded[0], want)

    @pytest.mark.parametrize("nbits", [0, 8])
    def test_rescoring_reconstructs_each_survivor_once(self, monkeypatch, nbits):
        """Every candidate is a candidate here, so the survivors are the docs
        screened within 2E of the k-th best; `reconstruct` is asked for each
        one's rows once and for no other row."""
        corpus = make_corpus(seed=31, n_docs=40)
        index = build_index(corpus, k_centroids=24, nbits=nbits, kmeans_iters=5, seed=3)
        n_docs = len(corpus)
        asked = []
        real = index_mod.reconstruct

        def recording(index, vec_ids):
            asked.append(np.array(vec_ids))
            return real(index, vec_ids)

        monkeypatch.setattr(index_mod, "reconstruct", recording)
        every = np.arange(n_docs)
        some = 0
        for i in range(6):
            q = random_feature_set(Rng(300 + i), 3 + i % 4, 8)
            screened = screen(index, q.vectors, every)
            for k in (1, 3, n_docs):
                kth = np.sort(screened)[::-1][k - 1]
                survivors = np.flatnonzero(screened >= kth - 2.0 * index.error_bound(len(q)))
                some += len(survivors) < n_docs
                asked.clear()
                search(index, q, SearchParams(k=k, nprobe=24, candidate_doc_cap=n_docs))
                ids = np.concatenate(asked)
                assert len(np.unique(ids)) == len(ids)  # no row decompressed twice
                assert len(ids) == index.doc_sizes[survivors].sum()
                np.testing.assert_array_equal(np.sort(ids), scoring_mod._run_positions(
                    index.doc_offsets[survivors], index.doc_sizes[survivors]))
        assert some

    def test_reconstruct_bits_equal_formula(self):
        corpus = make_corpus(seed=8, n_docs=20)
        index = build_index(corpus, seed=2)
        code_max = index.code_max.copy()
        code_max[3] = index.code_min[3]  # a dimension with one bucket
        index = dataclasses.replace(index, code_max=code_max)  # re-derives the tables
        ids = Rng(4).generator().integers(0, index.n_vectors, size=300)  # unsorted, repeats
        spread = index.code_max - index.code_min
        step = np.where(spread > 0, spread / 255.0, 0.0)
        want = index.centroids[index.assignments[ids]] + (
            index.code_min + index.codes[ids].astype(np.float64) * step)
        assert reconstruct(index, ids).tobytes() == want.tobytes()

    def test_run_positions_concatenate_and_pad(self):
        got = scoring_mod._run_positions(np.array([5, 0, 9]), np.array([2, 3, 1]))
        np.testing.assert_array_equal(got, [5, 6, 0, 1, 2, 9])
        got = scoring_mod._run_positions(np.array([7]), np.array([4]))
        np.testing.assert_array_equal(got, [7, 8, 9, 10])
        # empty runs (empty clusters' doc lists) contribute nothing
        got = scoring_mod._run_positions(np.array([3, 8, 5, 1, 6]), np.array([0, 2, 0, 1, 0]))
        np.testing.assert_array_equal(got, [8, 9, 1])

    def test_score_alone_equals_score_among_all_docs(self):
        failures, _ = rerank_invariance()
        assert not failures, f"re-rank scores change bits with the other candidates: {failures}"

    def test_score_alone_equals_score_among_all_docs_at_four_threads(self):
        """The same checks in a child process whose BLAS runs 4 threads; its
        scores must also carry this process's bits."""
        tests = Path(__file__).resolve().parent
        src = Path(index_mod.__file__).resolve().parents[1]
        code = ("import test_index as t; failures, digest = t.rerank_invariance(); "
                "print(failures); print(digest)")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4",
                   MKL_NUM_THREADS="4", PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        failures, digest = proc.stdout.split("\n")[:2]
        assert failures == "[]", f"4 threads: scores change bits with the other candidates: {failures}"
        assert digest == rerank_invariance()[1], "4 threads change the re-rank scores' bits"

    def test_search_memory_bounded_by_block(self):
        """One search over 204,800 vectors, all re-ranked, and one whose
        prefilter keeps a quarter of the docs.  A one-pass re-rank would hold
        every candidate row and its similarities at once (78.6 MB here); the
        blocked one holds a block of each and its maxima."""
        n_docs, per_doc, dim, k_cent, m = 400, 512, 16, 64, 32
        n = n_docs * per_doc
        gen = Rng(9).generator()
        centroids = gen.standard_normal((k_cent, dim))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        index = RetrievalIndex(
            dim=dim, nbits=8, centroids=centroids, assignments=gen.integers(0, k_cent, n),
            codes=gen.integers(0, 256, (n, dim), dtype=np.uint8),
            code_min=np.full(dim, -0.1), code_max=np.full(dim, 0.1),
            doc_ids=[f"doc{i:04d}" for i in range(n_docs)],
            doc_sizes=np.full(n_docs, per_doc))
        query = random_feature_set(Rng(10), m, dim)
        block = scoring_mod._SCREEN_BLOCK_ROWS
        # a unit of a block's working memory; a gathered float32 block and its
        # similarities take under half of it
        block_bytes = block * (dim + 8 * 2 * dim + 8 * m)
        one_pass_bytes = n * 8 * (dim + m)
        assert one_pass_bytes > 50 * block_bytes
        for cap in (n_docs, n_docs // 4):
            params = SearchParams(k=10, nprobe=k_cent, candidate_doc_cap=cap)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                search(index, query, params)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * block_bytes, (cap, peak)


def _bits(ranked) -> list[tuple[str, str]]:
    return [(s.doc_id, s.score.hex()) for s in ranked]


def screen(index, q: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """The screen of search over the given ascending doc indices."""
    return scoring_mod._screen(index.rows32, index.doc_offsets, docs, q.astype(np.float32),
                               (0, len(q)))[0]


def _screen_errors(index, q: FeatureSet) -> np.ndarray:
    """|screen - float64 re-rank score| of every doc of the index."""
    n_docs = len(index.doc_ids)
    every = SearchParams(k=n_docs, nprobe=index.centroids.shape[0], candidate_doc_cap=n_docs)
    exact = {s.doc_id: s.score for s in single_pass_search(index, q, every)}
    screened = screen(index, q.vectors, np.arange(n_docs))
    return np.abs(screened - [exact[d] for d in index.doc_ids])


class TestTwoPassSearch:
    """search screens every candidate in float32 and rescores the survivors
    in float64; a one-pass float64 re-rank of every candidate is the oracle,
    compared in ids, order and score bits."""

    @pytest.mark.parametrize("nbits", [0, 8])
    @pytest.mark.parametrize("block_cols", [5, 64, None])
    def test_matches_single_pass_oracle_to_the_bit(self, monkeypatch, nbits, block_cols):
        if block_cols is not None:
            monkeypatch.setattr(scoring_mod, "_SCREEN_BLOCK_ROWS", block_cols)
        corpus = make_corpus(seed=31, n_docs=40)
        index = build_index(corpus, k_centroids=24, nbits=nbits, kmeans_iters=5, seed=3)
        n_docs = len(corpus)
        binding = free = 0
        for i in range(8):
            q = random_feature_set(Rng(300 + i), 3 + i % 4, 8)
            for nprobe, cap in ((1, 3), (2, 10), (4, 25), (24, 12), (24, n_docs)):
                probed = single_pass_search(index, q, SearchParams(k=n_docs, nprobe=nprobe,
                                                                   candidate_doc_cap=n_docs))
                binding += len(probed) > cap
                free += len(probed) <= cap
                for k in sorted({1, 3, cap}):  # k = cap: k >= the candidate count
                    params = SearchParams(k=k, nprobe=nprobe, candidate_doc_cap=cap)
                    assert _bits(search(index, q, params)) == _bits(
                        single_pass_search(index, q, params))
        assert binding and free

    @pytest.mark.parametrize("nbits", [0, 8])
    @pytest.mark.parametrize("dim,seed", [(4, 0), (16, 1), (64, 2)])
    def test_screen_error_is_well_inside_its_bound(self, nbits, dim, seed):
        corpus = make_corpus(seed=seed, n_docs=30, dim=dim, max_tokens=40)
        index = build_index(corpus, nbits=nbits, kmeans_iters=5, seed=seed)
        for i in range(6):
            q = random_feature_set(Rng(seed).split(f"q{i}"), 1 + 7 * i, dim)
            errors = _screen_errors(index, q)
            assert 0 < errors.max() <= index.error_bound(len(q)) / 10

    def test_screen_inversion_is_rescored(self, monkeypatch):
        """Two docs whose float32 screen order is the reverse of their
        float64 order: at k = 1 the screen's winner is not the top doc, and
        only the 2E margin keeps the true one among those rescored."""
        for seed in range(200):
            q = random_feature_set(Rng(seed).split("q"), 6, 16)
            rows = q.vectors + 1e-7 * Rng(seed).generator().standard_normal(q.vectors.shape)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            index = build_index({"a": FeatureSet(rows, q.provenance),
                                 "b": FeatureSet(q.vectors.copy(), q.provenance)},
                                k_centroids=1, nbits=0, seed=0)
            every = single_pass_search(index, q, SearchParams(k=2))
            exact = {s.doc_id: s.score for s in every}
            screened = screen(index, q.vectors, np.arange(2))
            if (exact["a"] - exact["b"]) * (screened[0] - screened[1]) < 0:
                break
        else:
            pytest.fail("no seed gives a screen inversion")
        params = SearchParams(k=1)
        assert _bits(search(index, q, params)) == _bits(every[:1])
        monkeypatch.setattr(RetrievalIndex, "error_bound", lambda self, m: 0.0)
        assert search(index, q, params)[0].doc_id != every[0].doc_id

    def test_extreme_codebook_loads_and_searches(self, tmp_path):
        """A codebook at the loadable extremes, [-2, 2] in every dimension,
        with codes at 0 and 255: dequantized rows far from unit length."""
        n_docs, per_doc, dim, k_cent = 30, 12, 16, 5
        n = n_docs * per_doc
        gen = Rng(17).generator()
        centroids = gen.standard_normal((k_cent, dim))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        codes = gen.integers(0, 256, (n, dim), dtype=np.uint8)
        codes[gen.random((n, dim)) < 0.5] = 255
        codes[: n // 3] = 0
        built = RetrievalIndex(
            dim=dim, nbits=8, centroids=centroids, assignments=gen.integers(0, k_cent, n),
            codes=codes, code_min=np.full(dim, -2.0), code_max=np.full(dim, 2.0),
            doc_ids=[f"doc{i:02d}" for i in range(n_docs)], doc_sizes=np.full(n_docs, per_doc))
        path = tmp_path / "x.mvli"
        save_index(built, path)
        index = load_index(path)
        for i in range(4):
            q = random_feature_set(Rng(18).split(i), 9, dim)
            assert _screen_errors(index, q).max() <= index.error_bound(len(q)) / 10
            for k, cap in ((1, n_docs), (5, 8), (n_docs, n_docs)):
                params = SearchParams(k=k, nprobe=2, candidate_doc_cap=cap)
                assert _bits(search(index, q, params)) == _bits(
                    single_pass_search(index, q, params))


# Ascending doc indices of a 300-doc corpus for the screen tests: one run,
# every third doc, and a run followed by every other doc.
SCREEN_PICKS = {"consecutive": np.arange(50, 250),
                "scattered": np.arange(0, 300, 3),
                "mixed": np.concatenate((np.arange(150), np.arange(150, 300, 2)))}


class TestScreenRows:
    """The screen reads float32 rows dequantized once per index, as views of
    blocks that are one run of rows and gathered otherwise; a screen that
    decodes each block's rows when it scores them is the oracle, compared
    by float.hex."""

    def test_rows32_equal_per_block_decode(self):
        """Random codes, centroid 2 holding no vector, dimension 1 a single
        quantization bucket."""
        n_docs, per_doc, dim, k_cent = 30, 9, 8, 6
        n = n_docs * per_doc
        gen = Rng(5).generator()
        centroids = gen.standard_normal((k_cent, dim))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        assignments = gen.integers(0, k_cent - 1, n)
        assignments[assignments >= 2] += 1
        code_min, code_max = np.full(dim, -0.3), np.full(dim, 0.25)
        code_max[1] = code_min[1]
        index = RetrievalIndex(
            dim=dim, nbits=8, centroids=centroids, assignments=assignments,
            codes=gen.integers(0, 256, (n, dim), dtype=np.uint8), code_min=code_min,
            code_max=code_max, doc_ids=[f"doc{i:03d}" for i in range(n_docs)],
            doc_sizes=np.full(n_docs, per_doc))
        assert index.rows32.dtype == np.float32 and index.rows32.shape == (n, dim)
        for width in (7, n):
            want = np.concatenate([decode_rows32(index, np.arange(lo, min(lo + width, n)))
                                   for lo in range(0, n, width)])
            assert index.rows32.tobytes() == want.tobytes()

    def test_lossless_rows32_are_the_rows_cast(self):
        index = build_index(make_corpus(seed=6, n_docs=10), nbits=0, seed=1)
        assert index.rows32.tobytes() == index.codes.astype(np.float32).tobytes()

    @pytest.mark.parametrize("width", [5, 2048])
    @pytest.mark.parametrize("pick", ["consecutive", "scattered", "mixed"])
    def test_screen_equals_per_block_decode(self, monkeypatch, width, pick):
        """The screen's own blocks are recorded: each block whose rows are
        one run of the index is read as a view, and only the others gather
        their rows (`_run_positions`)."""
        corpus = make_corpus(seed=23, n_docs=300, min_tokens=1, max_tokens=40)
        index = build_index(corpus, kmeans_iters=3, seed=4)
        assert index.n_vectors > 2 * 2048
        docs = SCREEN_PICKS[pick]
        ids = scoring_mod._run_positions(index.doc_offsets[docs], index.doc_sizes[docs])
        runs, gathers = [], []
        real_sums, real_positions = scoring_mod._maxsim_sums, scoring_mod._run_positions

        def recording_sums(sizes, width, block_sims, row_bounds):
            def sims(lo, hi):
                runs.append(ids[hi - 1] - ids[lo] == hi - lo - 1)
                return block_sims(lo, hi)
            return real_sums(sizes, width, sims, row_bounds)

        def recording_positions(starts, sizes):
            gathers.append(len(starts))
            return real_positions(starts, sizes)

        monkeypatch.setattr(scoring_mod, "_SCREEN_BLOCK_ROWS", width)
        monkeypatch.setattr(scoring_mod, "_maxsim_sums", recording_sums)
        monkeypatch.setattr(scoring_mod, "_run_positions", recording_positions)
        for i in range(4):
            q = random_feature_set(Rng(70 + i), 2 + 5 * i, 8).vectors
            got = screen(index, q, docs)
            want = per_block_screen(index, q, docs, width)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
        views = runs.count(True)
        assert len(gathers) == runs.count(False)
        assert {"consecutive": views and not gathers, "scattered": gathers,
                "mixed": views and gathers}[pick]

    @pytest.mark.parametrize("width", [1, 5, 2048])
    @pytest.mark.parametrize("pick", ["consecutive", "scattered", "mixed"])
    def test_both_rankers_screen_alike(self, monkeypatch, width, pick):
        """A lossless index and a stacked corpus of one corpus hold the same
        float32 rows and offsets, and the one screen gives the same bits
        over either, for one query and for a group of four."""
        corpus = make_corpus(seed=23, n_docs=300, min_tokens=1, max_tokens=40)
        index = build_index(corpus, nbits=0, kmeans_iters=3, seed=4)
        stacked = StackedCorpus(corpus)
        assert index.rows32.tobytes() == stacked.rows.tobytes()
        assert index.doc_offsets.tobytes() == stacked.offsets.tobytes()
        monkeypatch.setattr(scoring_mod, "_SCREEN_BLOCK_ROWS", width)
        docs = SCREEN_PICKS[pick]
        queries = [random_feature_set(Rng(90 + i), 2 + 5 * i, 8) for i in range(5)]
        for group in (queries[:1], queries[1:]):
            q32 = np.concatenate([q.vectors for q in group]).astype(np.float32)
            bounds = np.cumsum([0] + [len(q) for q in group])
            got = [scoring_mod._screen(rows, offsets, docs, q32, bounds)
                   for rows, offsets in ((index.rows32, index.doc_offsets),
                                         (stacked.rows, stacked.offsets))]
            assert got[0].shape == (len(group), len(docs))
            assert [x.hex() for x in got[0].ravel().tolist()] == [
                x.hex() for x in got[1].ravel().tolist()]

    @pytest.mark.parametrize("nbits", [0, 8])
    def test_derived_arrays_are_read_only(self, nbits):
        index = build_index(make_corpus(seed=7, n_docs=10), nbits=nbits, seed=1)
        for name in ("doc_offsets", "centroid_doc_ids", "centroid_doc_offsets", "rows32",
                     "step"):
            with pytest.raises(ValueError):
                getattr(index, name)[0] = 0
        assert index.codes.flags.writeable and index.assignments.flags.writeable


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

    @pytest.mark.parametrize("nbits", [0, 8])
    def test_loaded_rows32_equal_built(self, tmp_path, nbits):
        index = build_index(make_corpus(seed=13, n_docs=10), nbits=nbits, seed=7)
        path = tmp_path / "x.mvli"
        save_index(index, path)
        assert load_index(path).rows32.tobytes() == index.rows32.tobytes()

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

    def test_long_doc_id_round_trips(self, tmp_path):
        """Doc ids are stored after u64 byte counts: a 65,536-byte id, one
        past what a u16 count could hold, round-trips."""
        corpus = make_corpus(n_docs=3)
        longest = "\u00e9" * 32768
        corpus[longest] = corpus.pop("doc002")
        path = tmp_path / "x.mvli"
        save_index(build_index(corpus, seed=1), path)
        assert load_index(path).doc_ids[-1] == longest

    def test_doc_id_without_utf8_form(self, tmp_path):
        """A doc id holding a lone surrogate is an InputError naming it,
        raised before the file opens."""
        corpus = make_corpus(n_docs=3)
        corpus["\ud800x"] = corpus.pop("doc002")
        path = tmp_path / "x.mvli"
        with pytest.raises(InputError, match=r"'\\ud800x'"):
            save_index(build_index(corpus, seed=1), path)
        assert not path.exists()

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
        for version in (1, 2, 42):  # 1, 2: the older layouts, not read
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


# case -> (nbits of the saved file, expected error, message fragment)
MUTATIONS = {
    "n_vec_huge": (8, CorruptionError, "truncated"),
    "truncated_in_codes": (8, CorruptionError, "truncated"),
    "codes_type_u4": (8, CorruptionError, "has type <u4"),
    "k_cent_0": (8, FormatError, ">= 1"),
    "n_docs_0": (8, FormatError, ">= 1"),
    "assignment_out_of_range": (8, CorruptionError, "missing centroid"),
    "assignments_longer_than_codes": (8, CorruptionError, "gives axis N"),
    "empty_doc": (8, CorruptionError, "document size"),
    "doc_size_huge": (8, CorruptionError, "document size"),
    "sizes_sum_mismatch": (8, CorruptionError, "sum to"),
    "nan_centroid": (8, CorruptionError, "non-finite"),
    "inf_codebook": (8, CorruptionError, "non-finite"),
    "nan_lossless_vector": (0, CorruptionError, "non-finite"),
    "doc_id_not_utf8": (8, CorruptionError, "utf-8"),
    "duplicate_doc_id": (8, CorruptionError, "strictly ascending"),
    "doc_ids_unsorted": (8, CorruptionError, "strictly ascending"),
    "codebook_swapped": (8, CorruptionError, "code_max < code_min"),
    "codebook_out_of_range": (8, CorruptionError, r"outside \[-2, 2\]"),
    "centroid_not_unit": (8, CorruptionError, "centroid rows are not unit"),
    "lossless_vector_not_unit": (0, CorruptionError, "stored vector rows are not unit"),
}


def _mutate(case: str, path: Path, index) -> None:
    """Rewrite the saved index through write_sections, its checksums valid,
    so the check the case names is the one that fires; the cases a writer
    cannot produce edit the bytes."""
    data = bytearray(path.read_bytes())
    spans = section_spans(data)
    sizes = index.doc_sizes.astype(np.uint64)
    centroids, codes = index.centroids.copy(), index.codes.copy()
    code_min, code_max = index.code_min.copy(), index.code_max.copy()
    changes = {}
    if case == "n_vec_huge":  # the codes claim 2**40 rows
        struct.pack_into("<Q", data, spans["codes"][0], 2**40)
    elif case == "truncated_in_codes":
        del data[spans["codes"][1] + 5:]
    elif case == "doc_id_not_utf8":  # the first id's first byte
        data[spans["doc_ids"][1] + 8 * len(index.doc_ids)] = 0xFF
        data = bytearray(restamp_checksums(data))
    elif case == "codes_type_u4":
        changes["codes"] = codes.astype("<u4")
    elif case == "k_cent_0":
        changes["centroids"] = centroids[:0]
    elif case == "n_docs_0":
        changes.update(doc_sizes=sizes[:0], doc_ids=[])
    elif case == "assignment_out_of_range":
        changes["assignments"] = np.full(index.n_vectors, index.centroids.shape[0], "<u4")
    elif case == "assignments_longer_than_codes":
        changes["assignments"] = np.zeros(index.n_vectors + 1, "<u4")
    elif case == "empty_doc":  # sizes still sum to the vector count
        sizes[:2] = 0, sizes[0] + sizes[1]
        changes["doc_sizes"] = sizes
    elif case == "doc_size_huge":
        sizes[0] = 2**64 - 1
        changes["doc_sizes"] = sizes
    elif case == "sizes_sum_mismatch":
        sizes[0] += 1
        changes["doc_sizes"] = sizes
    elif case == "nan_centroid":
        centroids[0, 0] = np.nan
        changes["centroids"] = centroids
    elif case == "inf_codebook":
        code_max[0] = np.inf
        changes["code_max"] = code_max
    elif case == "nan_lossless_vector":
        codes[0, 0] = np.nan
        changes["codes"] = codes
    elif case == "duplicate_doc_id":
        changes["doc_ids"] = ["doc000", "doc001", "doc001"]
    elif case == "doc_ids_unsorted":
        changes["doc_ids"] = ["doc009", "doc001", "doc002"]
    elif case == "codebook_swapped":  # dimension 0 of the codebook
        assert index.code_min[0] < index.code_max[0]
        code_min[0], code_max[0] = index.code_max[0], index.code_min[0]
        changes.update(code_min=code_min, code_max=code_max)
    elif case == "codebook_out_of_range":
        code_max[0] = 2.5
        changes["code_max"] = code_max
    elif case == "centroid_not_unit":
        centroids[0, 0] = 2.0
        changes["centroids"] = centroids
    elif case == "lossless_vector_not_unit":
        codes[0, 0] = 2.0
        changes["codes"] = codes
    else:
        raise AssertionError(case)
    path.write_bytes(bytes(data))
    if changes:
        rewrite_sections(path, "index", **changes)


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
    _mutate(case, path, index)
    with pytest.raises(error, match=message):
        load_index(path)
    assert main(["search", "--index", str(path), "--params", str(params_file),
                 "--image-key", "img::x"]) == 3


def test_damaged_index_names_its_section(tmp_path, params_file, capsys):
    """2,000 bytes XOR-ed in the middle of a 40-doc index: `mvli search`
    exits 3 naming the section they sit in, rather than answering from the
    damaged values."""
    path = tmp_path / "x.mvli"
    save_index(build_index(make_corpus(n_docs=40), seed=1), path)
    data = bytearray(path.read_bytes())
    lo, hi = len(data) // 2 - 1000, len(data) // 2 + 1000
    [name] = [name for name, (_, start, end) in section_spans(data).items()
              if start <= lo and hi <= end]
    data[lo:hi] = bytes(b ^ 0x5A for b in data[lo:hi])
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["search", "--index", str(path), "--params", str(params_file),
                 "--image-key", "img::x"]) == 3
    assert f"index section {name!r} fails its checksum" in capsys.readouterr().err
