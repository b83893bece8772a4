import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvli.core import (
    ConfigError,
    DomainError,
    FeatureSet,
    FormatError,
    NumericError,
    Rng,
    ShapeError,
    normalize_token,
    seeded_unit_vector,
    iter_jsonl,
    tokenize,
)
from mvli.encoder import rownorm_forward
from mvli.scoring import late_interaction_score


def one_token(v) -> FeatureSet:
    return FeatureSet(np.asarray([v], dtype=np.float64), ("textual",))


class TestCosine:
    """MaxSim between one-token feature sets is the cosine of their vectors."""

    def test_identical_unit_vectors(self):
        assert late_interaction_score(one_token([1.0, 0.0]), one_token([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert late_interaction_score(one_token([1.0, 0.0]), one_token([0.0, 1.0])) == 0.0

    def test_hand_evaluated_dot(self):
        score = late_interaction_score(one_token([1.0, 0.0]), one_token([0.6, 0.8]))
        assert score == pytest.approx(0.6)

    def test_non_unit_inputs_are_normalized(self):
        (a, b), _ = rownorm_forward(np.array([[2.0, 0.0], [3.0, 4.0]]))
        assert late_interaction_score(one_token(a), one_token(b)) == pytest.approx(0.6)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            one_token(np.zeros(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            late_interaction_score(one_token(np.ones(3) / np.sqrt(3)), one_token(np.ones(4) / 2))

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, i, j):
        a = one_token(seeded_unit_vector(f"a{i}", 8, "t"))
        b = one_token(seeded_unit_vector(f"b{j}", 8, "t"))
        assert late_interaction_score(a, b) == pytest.approx(late_interaction_score(b, a),
                                                             abs=1e-15)


class TestNormalize:
    """The row normalization every projection ends in."""

    def test_three_four_five(self):
        np.testing.assert_allclose(rownorm_forward(np.array([[3.0, 4.0]]))[0], [[0.6, 0.8]])

    def test_unit_input_unchanged(self):
        v = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(rownorm_forward(v)[0], v, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            rownorm_forward(np.zeros((1, 4)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, i):
        v = seeded_unit_vector(f"v{i}", 12, "t")[None] * 3.7
        once, _ = rownorm_forward(v)
        np.testing.assert_allclose(rownorm_forward(once)[0], once, atol=1e-12)


class TestSeededUnitVector:
    def test_deterministic(self):
        a = seeded_unit_vector("key", 16, "text")
        b = seeded_unit_vector("key", 16, "text")
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = seeded_unit_vector("a", 16, "text")
        b = seeded_unit_vector("b", 16, "text")
        assert float(a @ b) != pytest.approx(1.0)

    def test_domains_are_independent(self):
        a = seeded_unit_vector("k", 16, "text")
        b = seeded_unit_vector("k", 16, "img-g")
        assert abs(float(a @ b)) < 0.99

    def test_unit_norm(self):
        for i in range(50):
            v = seeded_unit_vector(f"n{i}", 16, "t")
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_dim_below_two_rejected(self):
        with pytest.raises(ConfigError):
            seeded_unit_vector("k", 1, "t")

    def test_near_orthogonality_statistics(self):
        # distinct keys should almost never be strongly aligned at dim >= 16
        vectors = [seeded_unit_vector(f"s{i}", 16, "stat") for i in range(200)]
        total = 0
        good = 0
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                total += 1
                if abs(float(vectors[i] @ vectors[j])) < 0.9:
                    good += 1
        assert good / total >= 0.999


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).split("x").generator().integers(0, 1_000_000, size=10)
        b = Rng(7).split("x").generator().integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_split_streams_differ(self):
        a = Rng(7).split("x").generator().integers(0, 1_000_000, size=10)
        b = Rng(7).split("y").generator().integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_call_order_independence(self):
        root = Rng(9)
        first = root.split("a").generator().integers(0, 1 << 30)
        _ = root.split("b").generator().integers(0, 1 << 30)
        again = root.split("a").generator().integers(0, 1 << 30)
        assert first == again


class TestFeatureSet:
    def test_rejects_empty(self):
        with pytest.raises(Exception):
            FeatureSet(np.zeros((0, 4)), ())

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            FeatureSet(np.array([[2.0, 0.0]]), ("textual",))

    def test_rejects_provenance_mismatch(self):
        with pytest.raises(ShapeError):
            FeatureSet(np.array([[1.0, 0.0]]), ("textual", "textual"))

    def test_len_and_dim(self):
        fs = FeatureSet(np.eye(3), ("textual",) * 3)
        assert len(fs) == 3 and fs.dim == 3


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("Lema daturaphila") == ["lema", "daturaphila"]

    def test_case_folding(self):
        assert tokenize("a A") == ["a", "a"]

    def test_edge_punctuation_stripped(self):
        assert tokenize("feeds upon Potato.") == ["feeds", "upon", "potato"]
        assert tokenize("Potato, right?") == ["potato", "right"]

    def test_pure_punctuation_token_kept(self):
        assert tokenize("a -- b") == ["a", "--", "b"]

    def test_normalize_token(self):
        assert normalize_token("Potato.") == "Potato"
        assert normalize_token("--") == "--"


class TestIterJsonl:
    @pytest.mark.parametrize("line", [
        r'{"doc_id": "\ud800x"}',
        r'{"doc_id": "d1", "body": ["fine", {"deep": "\udfff"}]}',
        r'{"\udc00": "key"}',
    ])
    def test_lone_surrogate_is_format_error(self, tmp_path, line):
        path = tmp_path / "kb.jsonl"
        path.write_text('{"doc_id": "d0"}\n' + line + "\n", encoding="ascii")
        with pytest.raises(FormatError, match=r"kb.jsonl:2: bad KB record"):
            list(iter_jsonl(path, "KB"))

    def test_surrogate_pair_escape_is_text(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(r'{"doc_id": "\ud83d\ude00 x"}' + "\n", encoding="ascii")
        ((_, rec),) = list(iter_jsonl(path, "KB"))
        assert rec["doc_id"] == "\U0001f600 x"
