import math

import pytest

from _oracles import naive_bm25, per_posting_top_k
from mvli.bm25 import Bm25Index
from mvli.core import ConfigError, InputError, Rng, tokenize


def all_scores(index: Bm25Index, query) -> dict[str, float]:
    """Every doc's score for `query`; docs sharing no term with it are absent."""
    return dict(index.top_k(query, index.doc_count))


class TestBm25Score:
    def test_absent_term_contributes_zero(self):
        index = Bm25Index({"a": "pear plum fig", "b": "apple tart crust"})
        assert "a" not in all_scores(index, ["apple"])
        assert all_scores(index, ["apple", "pear"])["a"] == all_scores(index, ["pear"])["a"]

    def test_single_doc_hand_computed_okapi(self):
        # one document, term present once, dl == avgdl: the tf factor is
        # exactly 1 and the score reduces to the idf ln((N-df+0.5)/(df+0.5))
        index = Bm25Index({"d": "velmo feeds tharn"})
        expected = math.log((1 - 1 + 0.5) / (1 + 0.5))
        assert all_scores(index, ["feeds"])["d"] == pytest.approx(expected)
        assert expected == pytest.approx(math.log(1.0 / 3.0))

    def test_doc_length_equal_avgdl_normalization_is_one(self):
        bodies = {f"t{i}": "term filler filler filler" for i in range(3)}
        bodies.update({f"o{i}": "other filler filler filler" for i in range(7)})
        k1, b = 1.2, 0.75
        index = Bm25Index(bodies, k1=k1, b=b)
        idf = math.log((10 - 3 + 0.5) / (3 + 0.5))
        expected = idf * (1 * (k1 + 1)) / (1 + k1)  # b-term collapses to 1
        scores = all_scores(index, ["term"])
        assert sorted(scores) == ["t0", "t1", "t2"]
        for score in scores.values():
            assert score == pytest.approx(expected)


class TestBm25Index:
    BODIES = {
        "a": "velmo feeds tharn. velmo guards koro.",
        "b": "tharn borders koro and koro again koro.",
        "c": "solen shelters velmo.",
    }

    def test_scores_match_direct_formula(self):
        index = Bm25Index(self.BODIES)
        all_terms = [tokenize(self.BODIES[d]) for d in sorted(self.BODIES)]
        scores = all_scores(index, "koro velmo")
        for doc_id in sorted(self.BODIES):
            got = scores.get(doc_id, 0.0)
            expected = naive_bm25(
                tokenize("koro velmo"), tokenize(self.BODIES[doc_id]), all_terms
            )
            assert got == pytest.approx(expected)

    def test_top_k_matches_score_ranking(self):
        index = Bm25Index(self.BODIES)
        top = index.top_k("koro velmo", 3)
        all_terms = [tokenize(self.BODIES[d]) for d in sorted(self.BODIES)]
        full = sorted(
            ((d, naive_bm25(tokenize("koro velmo"), tokenize(self.BODIES[d]), all_terms))
             for d in self.BODIES),
            key=lambda kv: (-kv[1], kv[0]),
        )
        expected = [(d, s) for d, s in full if s != 0.0][:3]
        assert [d for d, _ in top] == [d for d, _ in expected]
        for (d1, s1), (d2, s2) in zip(top, expected):
            assert s1 == pytest.approx(s2)

    def test_term_absent_from_corpus_scores_nothing(self):
        index = Bm25Index(self.BODIES)
        assert index.top_k("zzzzz", 3) == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            Bm25Index({})

    def test_random_corpora_match_oracle(self):
        rng = Rng(4)
        vocab = [f"w{i}" for i in range(20)]
        for trial in range(20):
            gen = rng.split(trial).generator()
            bodies = {
                f"d{i}": " ".join(
                    vocab[int(gen.integers(len(vocab)))]
                    for _ in range(int(gen.integers(2, 12)))
                )
                for i in range(int(gen.integers(2, 6)))
            }
            index = Bm25Index(bodies)
            all_terms = [tokenize(bodies[d]) for d in sorted(bodies)]
            query = [vocab[int(gen.integers(len(vocab)))] for _ in range(3)]
            scores = all_scores(index, query)
            for doc_id in bodies:
                assert scores.get(doc_id, 0.0) == pytest.approx(
                    naive_bm25(query, tokenize(bodies[doc_id]), all_terms), abs=1e-12
                )


def hexed(ranked):
    return [(doc_id, float.hex(score)) for doc_id, score in ranked]


class TestTopKOracle:
    """`top_k` from contributions computed at build time against the
    per-posting loop that computes each one when it is read: the same ids,
    order and score bits."""

    def check(self, bodies, query, k, **okapi):
        got = Bm25Index(bodies, **okapi).top_k(query, k)
        terms = tokenize(query) if isinstance(query, str) else list(query)
        assert hexed(got) == hexed(per_posting_top_k(bodies, terms, k, **okapi))
        return got

    @pytest.mark.parametrize("seed", range(30))
    def test_random_corpora(self, seed):
        gen = Rng(seed).split("top-k").generator()
        vocab = [f"w{i}" for i in range(int(gen.integers(3, 25)))]
        bodies = {
            f"d{i:02d}": " ".join(vocab[int(gen.integers(len(vocab)))]
                                  for _ in range(int(gen.integers(1, 30))))
            for i in range(int(gen.integers(1, 40)))
        }
        okapi = {"k1": float(gen.uniform(0.5, 2.0)), "b": float(gen.uniform(0.0, 1.0))}
        for _ in range(10):
            query = [vocab[int(gen.integers(len(vocab)))] for _ in range(int(gen.integers(1, 9)))]
            self.check(bodies, query, int(gen.integers(1, len(bodies) + 3)), **okapi)

    def test_negative_idf(self):
        bodies = {"a": "koro velmo", "b": "koro tharn", "c": "koro koro solen"}
        got = self.check(bodies, "koro", 3)
        assert [d for d, _ in got] == ["a", "b", "c"] and all(s < 0 for _, s in got)

    def test_idf_exactly_zero_lists_only_docs_with_the_term(self):
        # df = N / 2: idf = log(1) = 0, so both docs holding the term score 0.0
        bodies = {"a": "koro velmo", "b": "koro tharn", "c": "solen", "d": "tharn"}
        got = self.check(bodies, ["koro"], 4)
        assert [(d, float.hex(s)) for d, s in got] == [("a", "0x0.0p+0"), ("b", "0x0.0p+0")]

    def test_repeated_query_terms(self):
        bodies = {"a": "koro velmo koro", "b": "velmo tharn", "c": "solen", "d": "x", "e": "y"}
        once = self.check(bodies, "velmo koro", 5)
        thrice = self.check(bodies, "koro velmo koro koro", 5)
        assert dict(thrice)["a"] > dict(once)["a"] and dict(thrice)["b"] == dict(once)["b"]

    def test_k_past_the_scored_docs(self):
        bodies = {"a": "koro velmo", "b": "velmo tharn", "c": "solen"}
        assert len(self.check(bodies, "velmo", 10)) == 2

    def test_all_unknown_query(self):
        assert self.check({"a": "koro", "b": "velmo"}, "zzz yyy", 2) == []
        assert self.check({"a": "koro", "b": "velmo"}, [], 2) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        index = Bm25Index({"a": "koro velmo", "b": "velmo tharn", "c": "velmo solen"})
        with pytest.raises(ConfigError, match="k must be >= 1"):
            index.top_k("velmo", k)
