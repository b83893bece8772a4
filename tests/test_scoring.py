import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvli.scoring as scoring_mod
from _oracles import naive_late_interaction, naive_rank, per_doc_rank
from mvli.augment import augment_kb
from mvli.core import ConfigError, FeatureSet, InputError, Rng, ShapeError
from mvli.encoder import EncoderFlags, encode_corpus
from mvli.index import build_index
from mvli.scoring import StackedCorpus, _two_pass, late_interaction_score, rank_exact, stack_rows
from mvli.synth import SynthConfig, generate_kb

from conftest import random_feature_set


def _fs(rows):
    arr = np.array(rows, dtype=np.float64)
    return FeatureSet(arr, tuple("textual" for _ in range(arr.shape[0])))


class TestLateInteractionScore:
    def test_exact_match_dominates(self):
        q = _fs([[1.0, 0.0]])
        d = _fs([[1.0, 0.0], [0.0, 1.0]])
        assert late_interaction_score(q, d) == pytest.approx(1.0)

    def test_two_query_tokens_one_doc_token(self):
        q = _fs([[1.0, 0.0], [0.0, 1.0]])
        d = _fs([[0.6, 0.8]])
        expected = naive_late_interaction(q.vectors, d.vectors)
        assert expected == pytest.approx(1.4)
        assert late_interaction_score(q, d) == pytest.approx(expected)

    def test_one_query_token_two_doc_tokens(self):
        q = _fs([[0.6, 0.8]])
        d = _fs([[1.0, 0.0], [0.0, 1.0]])
        expected = naive_late_interaction(q.vectors, d.vectors)
        assert expected == pytest.approx(0.8)
        assert late_interaction_score(q, d) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            late_interaction_score(_fs([[1.0, 0.0]]), _fs([[1.0, 0.0, 0.0]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce_oracle(self, seed):
        rng = Rng(seed)
        gen = rng.split("sizes").generator()
        q = random_feature_set(rng.split("q"), int(gen.integers(1, 8)), 6)
        d = random_feature_set(rng.split("d"), int(gen.integers(1, 10)), 6)
        assert late_interaction_score(q, d) == pytest.approx(
            naive_late_interaction(q.vectors, d.vectors), abs=1e-12
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_adding_doc_token_never_decreases(self, seed):
        rng = Rng(seed)
        q = random_feature_set(rng.split("q"), 4, 6)
        d = random_feature_set(rng.split("d"), 5, 6)
        extra = random_feature_set(rng.split("x"), 1, 6)
        bigger = FeatureSet(
            np.vstack([d.vectors, extra.vectors]), d.provenance + extra.provenance
        )
        assert late_interaction_score(q, bigger) >= late_interaction_score(q, d) - 1e-12

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = Rng(seed)
        q = random_feature_set(rng.split("q"), 5, 6)
        d = random_feature_set(rng.split("d"), 7, 6)
        gen = rng.split("perm").generator()
        qp = FeatureSet(q.vectors[gen.permutation(5)], q.provenance)
        dp = FeatureSet(d.vectors[gen.permutation(7)], d.provenance)
        assert late_interaction_score(qp, dp) == pytest.approx(
            late_interaction_score(q, d), abs=1e-12
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_upper_bound_is_query_size(self, seed):
        rng = Rng(seed)
        q = random_feature_set(rng.split("q"), 6, 6)
        d = random_feature_set(rng.split("d"), 9, 6)
        assert late_interaction_score(q, d) <= len(q) + 1e-9

    def test_bound_tight_iff_exact_matches(self):
        q = _fs([[1.0, 0.0], [0.0, 1.0]])
        d = _fs([[0.0, 1.0], [1.0, 0.0], [0.6, 0.8]])
        assert late_interaction_score(q, d) == pytest.approx(len(q))


class TestRankExact:
    def _corpus(self, seed=3, n_docs=8):
        rng = Rng(seed)
        return {
            f"d{i:02d}": random_feature_set(rng.split(i), 5, 6) for i in range(n_docs)
        }

    def test_k_clamps_to_corpus(self):
        corpus = self._corpus()
        q = random_feature_set(Rng(1), 3, 6)
        assert len(rank_exact(q, corpus, 100)) == len(corpus)

    def test_matches_naive_oracle(self):
        corpus = self._corpus()
        q = random_feature_set(Rng(2), 3, 6)
        got = [(s.doc_id, s.score) for s in rank_exact(q, corpus, 5)]
        expected = naive_rank(q.vectors, {k: v.vectors for k, v in corpus.items()}, 5)
        assert [g[0] for g in got] == [e[0] for e in expected]
        for g, e in zip(got, expected):
            assert g[1] == pytest.approx(e[1], abs=1e-12)

    def test_duplicate_documents_rank_adjacent_by_id(self):
        base = random_feature_set(Rng(5), 4, 6)
        corpus = {"b": base, "a": base, "z": random_feature_set(Rng(6), 4, 6)}
        ranked = rank_exact(random_feature_set(Rng(7), 3, 6), corpus, 3)
        ids = [s.doc_id for s in ranked]
        assert abs(ids.index("a") - ids.index("b")) == 1
        assert ids.index("a") < ids.index("b")

    def test_single_doc_corpus(self):
        corpus = {"only": random_feature_set(Rng(8), 4, 6)}
        ranked = rank_exact(random_feature_set(Rng(9), 2, 6), corpus, 1)
        assert ranked[0].doc_id == "only"

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            rank_exact(random_feature_set(Rng(1), 2, 6), {}, 1)


def _ranked_bits(ranked) -> list[tuple[str, str]]:
    return [(s.doc_id, float.hex(s.score)) for s in ranked]


def _seeded_corpus(seed: int, n_docs: int, dim: int, max_rows: int = 40) -> dict[str, FeatureSet]:
    rng = Rng(seed)
    sizes = rng.split("sizes").generator().integers(1, max_rows + 1, size=n_docs)
    return {f"doc{i:04d}": random_feature_set(rng.split(i), int(n), dim)
            for i, n in enumerate(sizes)}


def _queries(seed: int, count: int, dim: int) -> list[FeatureSet]:
    rng = Rng(seed)
    sizes = rng.split("sizes").generator().integers(1, 30, size=count)
    return [random_feature_set(rng.split(i), int(n), dim) for i, n in enumerate(sizes)]


class TestTwoPassRanking:
    """rank_exact screens in float32 and rescores in float64; the per-doc
    float64 loop is the oracle, compared in ids, order and score bits."""

    @pytest.mark.parametrize("n_docs,dim,seed", [(1, 6, 0), (7, 4, 1), (60, 16, 2),
                                                 (300, 8, 3), (250, 16, 4)])
    def test_matches_per_doc_oracle_to_the_bit(self, n_docs, dim, seed):
        corpus = _seeded_corpus(seed, n_docs, dim)
        stacked = StackedCorpus(corpus)
        for q in _queries(seed + 100, 6, dim):
            for k in (1, 3, 10, n_docs):
                want = _ranked_bits(per_doc_rank(q, corpus, k))
                assert _ranked_bits(rank_exact(q, corpus, k)) == want
                assert _ranked_bits(stacked.top_k([q], k)[0]) == want

    @pytest.mark.parametrize("group", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("dim", [4, 16])
    def test_grouped_ranking_matches_per_doc_oracle(self, group, dim, monkeypatch):
        """top_k screens _SCREEN_GROUP queries per block product; every
        query's ranking still equals the per-doc oracle's, whatever its
        group and its place in it, for queries of 1 to 30 rows."""
        monkeypatch.setattr(scoring_mod, "_SCREEN_GROUP", group)
        corpus = _seeded_corpus(40 + dim, 150, dim)
        rng = Rng(60 + dim)
        queries = [random_feature_set(rng.split(i), n, dim)
                   for i, n in enumerate([1, 30, 7, 2, 19, 1, 12, 30, 5])]
        stacked = StackedCorpus(corpus)
        assert stacked.rows.shape[0] > scoring_mod._SCREEN_BLOCK_ROWS
        n_docs = len(corpus)
        for k in (1, 3, 10, n_docs, n_docs + 5):
            got = stacked.top_k(queries, k)
            assert len(got) == len(queries)
            for q, ranked in zip(queries, got):
                assert _ranked_bits(ranked) == _ranked_bits(per_doc_rank(q, corpus, k))

    def test_corpus_spans_several_screen_blocks(self):
        corpus = _seeded_corpus(3, 300, 8)
        assert StackedCorpus(corpus).rows.shape[0] > 2 * scoring_mod._SCREEN_BLOCK_ROWS

    def test_near_ties_inside_the_bound(self):
        """Copies of the best doc tie with it exactly; a copy whose row that
        query row 0 matches best is moved by 1e-9 differs from it by far less
        than the screen's error bound.  All four straddle every k below 4."""
        rng = Rng(21)
        corpus = _seeded_corpus(21, 40, 16)
        q = random_feature_set(rng.split("q"), 12, 16)
        best = per_doc_rank(q, corpus, 1)[0].doc_id
        rows = corpus[best].vectors.copy()
        j = int(np.argmax(rows @ q.vectors[0]))
        rows[j] += 1e-9 * rng.split("nudge").generator().standard_normal(16)
        rows[j] /= np.linalg.norm(rows[j])
        corpus["copy-a"] = corpus[best]
        corpus["copy-b"] = FeatureSet(corpus[best].vectors.copy(), corpus[best].provenance)
        corpus["nudged"] = FeatureSet(rows, corpus[best].provenance)
        gap = abs(late_interaction_score(q, corpus[best])
                  - late_interaction_score(q, corpus["nudged"]))
        assert 0 < gap < StackedCorpus(corpus).error_bound(len(q)) / 1000
        others = _queries(22, scoring_mod._SCREEN_GROUP - 1, 16)
        stacked = StackedCorpus(corpus)
        for k in range(1, 7):
            want = _ranked_bits(per_doc_rank(q, corpus, k))
            assert _ranked_bits(rank_exact(q, corpus, k)) == want
            assert _ranked_bits(stacked.top_k(others + [q], k)[-1]) == want  # last in a group
        assert {s.doc_id for s in rank_exact(q, corpus, 4)} == {
            best, "copy-a", "copy-b", "nudged"}

    def test_screen_inversion_is_rescored(self):
        """Two docs whose float32 screen order is the reverse of their
        float64 order: at k = 1 the screen's winner is not the top doc, and
        only the margin keeps the true one among those rescored."""
        for seed in range(200):
            gen = Rng(seed).generator()
            q = random_feature_set(Rng(seed).split("q"), 6, 16)
            rows = q.vectors + 1e-7 * gen.standard_normal(q.vectors.shape)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            corpus = {"a": FeatureSet(rows, q.provenance),
                      "b": FeatureSet(q.vectors.copy(), q.provenance)}
            exact = [late_interaction_score(q, corpus[d]) for d in "ab"]
            screened = StackedCorpus(corpus).screen([q])[0]
            if (exact[0] - exact[1]) * (screened[0] - screened[1]) < 0:
                break
        else:
            pytest.fail("no seed gives a screen inversion")
        want = _ranked_bits(per_doc_rank(q, corpus, 1))
        assert _ranked_bits(rank_exact(q, corpus, 1)) == want
        others = _queries(seed, scoring_mod._SCREEN_GROUP - 1, 16)
        assert _ranked_bits(StackedCorpus(corpus).top_k(others + [q], 1)[-1]) == want

    def test_exact_ties_break_by_doc_id(self):
        doc = random_feature_set(Rng(5), 4, 6)
        corpus = {name: doc for name in ("m", "c", "x", "a")}
        corpus["far"] = random_feature_set(Rng(6), 4, 6)
        q = FeatureSet(doc.vectors[:3], doc.provenance[:3])  # each row's best match is itself
        assert [s.doc_id for s in rank_exact(q, corpus, 2)] == ["a", "c"]

    def test_k_at_or_above_corpus_size(self):
        corpus = _seeded_corpus(8, 9, 6)
        q = _queries(9, 1, 6)[0]
        want = _ranked_bits(per_doc_rank(q, corpus, len(corpus)))
        for k in (len(corpus), len(corpus) + 5):
            assert _ranked_bits(rank_exact(q, corpus, k)) == want

    def test_query_dim_mismatch_is_shape_error(self):
        corpus = _seeded_corpus(10, 5, 6)
        with pytest.raises(ShapeError):
            rank_exact(random_feature_set(Rng(1), 2, 8), corpus, 3)
        with pytest.raises(ShapeError):
            StackedCorpus(corpus).top_k([random_feature_set(Rng(1), 2, 8)], 3)

    def test_mixed_dim_corpus_is_shape_error(self):
        corpus = _seeded_corpus(11, 5, 6)
        corpus["wide"] = random_feature_set(Rng(2), 3, 8)
        with pytest.raises(ShapeError):
            rank_exact(random_feature_set(Rng(1), 2, 6), corpus, 3)
        with pytest.raises(ShapeError):
            StackedCorpus(corpus)

    def test_k_below_one_is_config_error(self):
        with pytest.raises(ConfigError):
            rank_exact(random_feature_set(Rng(1), 2, 6), _seeded_corpus(12, 3, 6), 0)

    @pytest.mark.parametrize("dim,seed", [(4, 0), (16, 1), (64, 2)])
    def test_screen_error_is_well_inside_its_bound(self, dim, seed):
        """|screen - late_interaction_score| <= E / 10 on random unit data."""
        corpus = _seeded_corpus(seed, 80, dim, max_rows=60)
        stacked = StackedCorpus(corpus)
        queries = _queries(seed + 50, 8, dim)
        grouped = stacked.screen(queries)
        for q, screened in zip(queries, grouped):
            exact = np.array([late_interaction_score(q, corpus[d]) for d in stacked.doc_ids])
            for error in (np.abs(stacked.screen([q])[0] - exact), np.abs(screened - exact)):
                assert error.max() <= stacked.error_bound(len(q)) / 10


class TestTwoPassHelper:
    """`_two_pass` on a hand-made screen: which docs it rescores, and how it
    orders them."""

    def _run(self, screened, k, bound, exact):
        calls = []

        def rescore(i):
            calls.append(i)
            return exact[i]

        return _two_pass(np.array(screened), k, bound, rescore), calls

    def test_rescores_each_survivor_once_and_no_other_doc(self):
        # t_2 = 0.8, so the survivors are the docs screened >= 0.8 - 2 * 0.05
        screened = [0.5, 0.9, 0.71, 0.8, 0.69, 0.2]
        exact = [0.5, 0.88, 0.74, 0.79, 0.7, 0.2]
        top, calls = self._run(screened, 2, 0.05, exact)
        assert calls == [1, 2, 3]
        assert top == [(1, 0.88), (3, 0.79)]

    def test_k_at_or_above_doc_count_keeps_every_doc(self):
        screened = [0.3, -0.2, 0.9, 0.1]
        exact = [0.31, -0.19, 0.9, 0.12]
        for k in (4, 9):
            top, calls = self._run(screened, k, 0.0, exact)
            assert calls == [0, 1, 2, 3]
            assert top == [(2, 0.9), (0, 0.31), (3, 0.12), (1, -0.19)]

    def test_ties_go_to_the_lower_index(self):
        screened = [0.4, 0.6, 0.4, 0.6, 0.6]
        exact = [0.4, 0.6, 0.4, 0.6, 0.6]
        top, _ = self._run(screened, 3, 0.0, exact)
        assert top == [(1, 0.6), (3, 0.6), (4, 0.6)]
        top, _ = self._run(screened, 5, 0.0, exact)
        assert [i for i, _ in top] == [1, 3, 4, 0, 2]


class TestMaxsimSums:
    """`_maxsim_sums` walks the columns in blocks of whole docs; a per-doc
    float64 max-and-sum is the oracle, compared in bits."""

    @staticmethod
    def _check(sizes, width, row_bounds, seed=0):
        sizes = np.asarray(sizes, dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        sims = Rng(seed).generator().standard_normal((row_bounds[-1], int(ends[-1])))
        blocks = []

        def block_sims(lo, hi):
            blocks.append((int(lo), int(hi)))
            return sims[:, lo:hi]

        sums = scoring_mod._maxsim_sums(sizes, width, block_sims, row_bounds)
        assert sums.shape == (len(row_bounds) - 1, len(sizes))
        for g, (a, b) in enumerate(zip(row_bounds[:-1], row_bounds[1:])):
            for d in range(len(sizes)):
                want = sims[a:b, starts[d]:ends[d]].max(axis=1).sum()
                assert sums[g, d].hex() == want.hex(), (g, d)
        los, his = zip(*blocks)
        assert set(los) <= set(starts.tolist()) and set(his) <= set(ends.tolist())
        # consecutive and covering: each doc's columns are asked for once
        assert los[0] == 0 and his[-1] == ends[-1] and list(los[1:]) == list(his[:-1])
        assert max(hi - lo for lo, hi in blocks) <= width + sizes.max()
        return blocks

    @pytest.mark.parametrize("width", [1, 5, 2048])
    def test_random_layouts(self, width):
        gen = Rng(width).generator()
        sizes = gen.integers(1, 3 * width + 2, size=40)
        blocks = self._check(sizes, width, (0, 6), seed=width)
        assert len(blocks) > 1

    @pytest.mark.parametrize("width", [1, 5, 2048])
    def test_doc_of_three_widths(self, width):
        self._check([2, 3 * width, 1, width, 3], width, (0, 4), seed=1)

    @pytest.mark.parametrize("sizes", [[1], [7], [3 * 2048]])
    def test_one_doc(self, sizes):
        assert self._check(sizes, 2048, (0, 5), seed=2) == [(0, sizes[0])]

    @pytest.mark.parametrize("width", [1, 5, 2048])
    def test_several_query_groups(self, width):
        sizes = Rng(30 + width).generator().integers(1, 2 * width + 3, size=25)
        self._check(sizes, width, (0, 3, 4, 11, 30), seed=3)


class TestStackRows:
    """Both rankers stack their corpus with `stack_rows`."""

    @pytest.mark.parametrize("stack", [StackedCorpus, build_index])
    def test_empty_and_mixed_dim_corpora_rejected(self, stack):
        with pytest.raises(InputError):
            stack({})
        corpus = _seeded_corpus(17, 5, 6)
        corpus["wide"] = random_feature_set(Rng(3), 3, 8)
        with pytest.raises(ShapeError):
            stack(corpus)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_in_doc_id_order(self, dtype):
        corpus = _seeded_corpus(18, 30, 8)
        doc_ids, rows, sizes = stack_rows(corpus, dtype, "stack")
        assert doc_ids == sorted(corpus) and rows.dtype == dtype
        np.testing.assert_array_equal(sizes, [len(corpus[d]) for d in doc_ids])
        want = np.concatenate([corpus[d].vectors for d in doc_ids]).astype(dtype)
        assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_peak_is_the_stacked_rows_and_small_slack(self, dtype):
        """A copy in another dtype (say a float64 stack cast to float32)
        would add at least half the rows again; the slack is the sizes and
        the id list, a few bytes per doc."""
        corpus = _seeded_corpus(19, 400, 16, max_rows=60)
        n_rows = sum(len(fs) for fs in corpus.values())
        rows_bytes = n_rows * 16 * np.dtype(dtype).itemsize
        stack_rows(_seeded_corpus(20, 3, 16), dtype, "stack")  # lazy imports first
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rows = stack_rows(corpus, dtype, "stack")[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.nbytes == rows_bytes
        assert peak <= rows_bytes + 64 * len(corpus) + 4096, (peak, rows_bytes)


def two_pass_digest(seed: int = 0) -> str:
    """Ids and score bits of the grouped top_k over a corpus of three screen
    blocks: six queries, a full group and a partial one."""
    corpus = _seeded_corpus(seed, 300, 16)
    stacked = StackedCorpus(corpus)
    return " ".join(f"{d}:{h}" for ranked in stacked.top_k(_queries(seed + 1, 6, 16), 10)
                    for d, h in _ranked_bits(ranked))


def test_rank_exact_bits_equal_at_four_threads():
    """A child process whose BLAS runs 4 threads ranks with this process's
    ids, order and score bits."""
    tests = Path(__file__).resolve().parent
    src = Path(scoring_mod.__file__).resolve().parents[1]
    code = "import test_scoring as t; print(t.two_pass_digest())"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4",
               MKL_NUM_THREADS="4", PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == two_pass_digest()


class TestMemory:
    def test_encoded_corpus_shares_provenance_strings(self, tiny_config, tiny_params,
                                                      tiny_provider):
        kb = augment_kb(generate_kb(SynthConfig(n_docs=30, entities_per_doc=4.0, seed=6)))
        corpus = encode_corpus(kb, tiny_params, tiny_config, tiny_provider,
                               EncoderFlags(True, True, True))
        tags = [tag for fs in corpus.values() for tag in fs.provenance]
        assert len({id(tag) for tag in tags}) <= len(set(tags)) + len(corpus)
        assert len(set(tags)) > 10

    def test_stacking_allocates_one_float32_copy(self):
        corpus = _seeded_corpus(14, 400, 16, max_rows=60)
        n_rows = sum(len(fs) for fs in corpus.values())
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            stacked = StackedCorpus(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copy_bytes = n_rows * 16 * 4
        assert stacked.rows.nbytes == copy_bytes
        block_bytes = scoring_mod._SCREEN_BLOCK_ROWS * 16 * 8
        assert peak <= copy_bytes + block_bytes, (peak, copy_bytes)

    def test_ranking_holds_the_copy_and_one_group_of_blocks(self):
        """Stacking and ranking 16 queries: the peak is the float32 copy
        plus twice one group's block of similarities, which bounds its
        maxima and per-query sums too.  Screening every query in one
        product, or the whole corpus in one block, would hold twice that."""
        corpus = _seeded_corpus(15, 400, 16, max_rows=60)
        queries = _queries(16, 16, 16)
        n_rows = sum(len(fs) for fs in corpus.values())
        width, group = scoring_mod._SCREEN_BLOCK_ROWS, scoring_mod._SCREEN_GROUP
        group_rows = max(sum(len(q) for q in queries[g:g + group])
                         for g in range(0, len(queries), group))
        copy_bytes = n_rows * 16 * 4
        block_bytes = group_rows * width * 4
        all_queries = sum(len(q) for q in queries) * width * 4
        assert all_queries > 2 * block_bytes and group_rows * n_rows * 4 > 2 * block_bytes
        StackedCorpus(_seeded_corpus(16, 3, 16)).top_k(queries[:1], 1)  # lazy imports first
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            StackedCorpus(corpus).top_k(queries, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= copy_bytes + 2 * block_bytes, (peak, copy_bytes, block_bytes)
