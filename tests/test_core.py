import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_feature_set, restamp_checksums, section_spans
from mvli.core import (
    ConfigError,
    CorruptionError,
    DomainError,
    FeatureSet,
    FormatError,
    NumericError,
    Rng,
    ShapeError,
    UnsupportedVersionError,
    normalize_token,
    read_sections,
    seeded_unit_vector,
    iter_jsonl,
    tokenize,
    write_sections,
)
from mvli.encoder import init_encoder_params, rownorm_forward, save_params
from mvli.index import build_index, save_index
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


# A layout of the section framing's own: rows of either type, one name per row.
LAYOUT = {"rows": ("<f8 |u1", "n dim"), "names": ("str", "n")}
ROWS = ("rows", "<f8", np.arange(6.0).reshape(3, 2))
NAMES = ("names", "str", ["a", "b\u00e9", ""])


def _save(path, *sections) -> None:
    write_sections(path, b"TEST", 1, "test", list(sections))


def _read(path):
    return read_sections(path, b"TEST", 1, "test", LAYOUT)


class TestSections:
    def test_round_trip_is_byte_exact(self, tmp_path):
        path, again = tmp_path / "a", tmp_path / "b"
        for rows in (ROWS, ("rows", "|u1", np.arange(6, dtype=np.uint8).reshape(3, 2))):
            _save(path, rows, NAMES)
            loaded = _read(path)
            assert loaded["names"] == NAMES[2]
            assert loaded["rows"].dtype == rows[2].dtype
            np.testing.assert_array_equal(loaded["rows"], rows[2])
            _save(again, ("rows", rows[1], loaded["rows"]), ("names", "str", loaded["names"]))
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("sections, message", [
        ([ROWS, ("labels", "str", NAMES[2])], "unknown or repeated test section 'labels'"),
        ([ROWS, ROWS], "unknown or repeated test section 'rows'"),
        ([ROWS], "has 1 sections, not 2"),
        ([("rows", "<f4", ROWS[2]), NAMES], r"'rows' has type <f4, not <f8 or \|u1"),
        ([("rows", "<f8", ROWS[2].ravel()), NAMES], "'rows' has 1 dimensions, not 2"),
        ([ROWS, ("names", "str", NAMES[2] + ["z"])], "'names' gives axis n size 4"),
    ])
    def test_layout_violations(self, tmp_path, sections, message):
        path = tmp_path / "a"
        _save(path, *sections)
        with pytest.raises(CorruptionError, match=message):
            _read(path)

    def test_byte_edits(self, tmp_path):
        path = tmp_path / "a"
        _save(path, ROWS, NAMES)
        data = path.read_bytes()
        spans = section_spans(data)
        rows_at = spans["rows"][1]
        names_at = spans["names"][1] + 8 * 3  # past the three lengths
        cases = [
            (b"JUNK" + data[4:], FormatError, "bad test file magic"),
            (data[:4] + (2).to_bytes(4, "little") + data[8:], UnsupportedVersionError,
             "version 2"),
            (data[:-3], CorruptionError, "'names' is truncated"),
            (data + b"\0", CorruptionError, "trailing bytes"),
            (data[:rows_at] + bytes([data[rows_at] ^ 1]) + data[rows_at + 1:],
             CorruptionError, "'rows' fails its checksum"),
            (data[:spans["rows"][0] - 1] + b"\xff" + data[spans["rows"][0]:],
             CorruptionError, "'rows' has 255 dimensions"),
            (restamp_checksums(data[:names_at + 1] + b"\xff" + data[names_at + 2:]),
             CorruptionError, "'names' does not decode: 'utf-8' codec"),
        ]
        for edited, error, message in cases:
            path.write_bytes(edited)
            with pytest.raises(error, match=message):
                _read(path)

    def test_empty_section_with_impossible_axis(self, tmp_path):
        """No rows, and 2**64 - 1 columns: no array has that shape."""
        path = tmp_path / "a"
        _save(path, ("rows", "<f8", np.zeros((0, 2))), ("names", "str", []))
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, section_spans(data)["rows"][0] + 8, 2**64 - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="'rows' does not decode"):
            _read(path)

    @pytest.mark.parametrize("kind", ["index", "checkpoint"])
    def test_save_failing_midway_leaves_earlier_file(self, tmp_path, tiny_config, kind):
        """A save that raises after some sections are written leaves the
        earlier file byte-identical and no .tmp file behind."""
        path = tmp_path / "x"
        if kind == "index":
            built = build_index({f"d{i}": random_feature_set(Rng(i), 4, 6) for i in range(3)},
                                seed=1)
            save_index(built, path)
            built.assignments = np.full(built.n_vectors, "junk")  # a section after the codes

            def save():
                save_index(built, path)
        else:
            params = init_encoder_params(tiny_config, seed=1)
            save_params(params, tiny_config, path)
            params.xattn.wv = np.full(params.xattn.wv.shape, "junk")  # the last section

            def save():
                save_params(params, tiny_config, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
