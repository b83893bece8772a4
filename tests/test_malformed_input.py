"""Malformed input files end in a typed EngineError, never in a traceback.

Every on-disk format the engine reads is covered: the index (.mvli), the
parameter checkpoint (.mprm), embedding records, the KB, augmented-KB and
sample JSON-lines files, and the typemap.  The fuzz cases run under a capped address space, so
a reader that allocates from a corrupt length field fails fast.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SECTION_FORMATS, random_feature_set, restamp_checksums, section_spans
from mvli.augment import load_augmented, load_kb, save_augmented, save_kb
from mvli.cli import main
from mvli.core import CorruptionError, EngineError, FormatError, Rng
from mvli.datagen import QaSample, load_samples, load_typemap, save_samples, save_typemap
from mvli.encoder import (
    init_encoder_params,
    load_params,
    read_embedding_file,
    save_params,
    write_embedding_file,
)
from mvli.index import build_index, load_index, save_index

SAMPLES = [
    QaSample("s0", "which creature dines on potato", "img::Lema Daturaphila", "Potato", "d1",
             "train"),
    QaSample("s1", "what overlooks tomat vale", "img::Solan Ridge", "Tomat Vale", "d3"),
]


def _write(kind: str, path, small_kb, small_kb_aug, tiny_config) -> None:
    if kind == "kb":
        save_kb(small_kb, path)
    elif kind == "augmented":
        save_augmented(small_kb_aug, path)
    elif kind == "samples":
        save_samples(SAMPLES, path)
    elif kind == "typemap":
        save_typemap({d.title: "creature" for d in small_kb.values()}, path)
    elif kind == "embedding":
        write_embedding_file({f"text:w{i}": Rng(i).generator().standard_normal(4)
                              for i in range(3)}, path)
    elif kind == "params":
        save_params(init_encoder_params(tiny_config, seed=1), tiny_config, path)
    else:
        corpus = {f"d{i}": random_feature_set(Rng(i), 4, tiny_config.dim) for i in range(3)}
        save_index(build_index(corpus, seed=1), path)


READERS = {
    "kb": load_kb,
    "augmented": load_augmented,
    "samples": load_samples,
    "typemap": load_typemap,
    "embedding": read_embedding_file,
    "params": load_params,
    "index": load_index,
}


# ---------------------------------------------------------------------------
# Text that is not UTF-8.
# ---------------------------------------------------------------------------

# kind -> (bytes replaced by 0xFF, expected error)
NON_UTF8 = {
    "kb": (b"Potato", FormatError),
    "augmented": (b"Potato", FormatError),
    "samples": (b"potato", FormatError),
    "typemap": (b"Potato", FormatError),
    "embedding": (b"text:w1", CorruptionError),
}


@pytest.mark.parametrize("kind", sorted(NON_UTF8))
def test_non_utf8_text_is_typed_error(tmp_path, small_kb, small_kb_aug, tiny_config, kind):
    needle, error = NON_UTF8[kind]
    path = tmp_path / "input"
    _write(kind, path, small_kb, small_kb_aug, tiny_config)
    data = path.read_bytes()
    assert needle in data
    data = data.replace(needle, needle[:1] + b"\xff" + needle[2:], 1)
    if kind == "embedding":  # checksums valid, so the UTF-8 check is the one that fires
        data = restamp_checksums(data)
    path.write_bytes(data)
    with pytest.raises(error, match="utf-8"):
        READERS[kind](path)


def test_embedding_dim_beyond_file_end(tmp_path, small_kb, small_kb_aug, tiny_config,
                                       capped_address_space):
    path = tmp_path / "emb.bin"
    _write("embedding", path, small_kb, small_kb_aug, tiny_config)
    data = bytearray(path.read_bytes())
    shape_at = section_spans(data)["values"][0]
    struct.pack_into("<Q", data, shape_at, 2**32 - 1)  # 16 GiB of float32 values
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptionError, match="truncated"):
        read_embedding_file(path)


# binary kind -> its section framing's kind in SECTION_FORMATS
FRAMED = {"index": "index", "params": "checkpoint", "embedding": "embedding"}


@pytest.mark.parametrize("kind", sorted(FRAMED))
def test_byte_flip_names_its_section(tmp_path, small_kb, small_kb_aug, tiny_config, kind):
    """One byte flipped at sampled offsets inside every section's bytes is a
    CorruptionError naming that section: its checksum fails, or, for a
    flipped name length, the names run past the end of the file."""
    path = tmp_path / "input"
    _write(kind, path, small_kb, small_kb_aug, tiny_config)
    data = path.read_bytes()
    spans = section_spans(data)
    assert set(spans) == set(SECTION_FORMATS[FRAMED[kind]][3])
    for name, (_, start, end) in spans.items():
        for at in sorted({start, (start + end) // 2, end - 1}):
            flipped = bytearray(data)
            flipped[at] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(CorruptionError, match=f"section {name!r} (fails|is truncated)"):
                READERS[kind](path)


@pytest.mark.parametrize("command", ["augment", "train"])
def test_cli_non_utf8_input_exits_3(tmp_path, small_kb, capsys, command):
    kb_path, samples_path = tmp_path / "kb.jsonl", tmp_path / "train.jsonl"
    save_kb(small_kb, kb_path)
    save_samples(SAMPLES, samples_path)
    bad = kb_path if command == "augment" else samples_path
    bad.write_bytes(bad.read_bytes().replace(b"otato", b"ot\xffto", 1))
    args = {"augment": ["augment", "--kb", str(kb_path), "--out", str(tmp_path / "aug.jsonl")],
            "train": ["train", "--kb", str(kb_path), "--samples", str(samples_path),
                      "--out", str(tmp_path / "p.mprm")]}[command]
    capsys.readouterr()
    assert main(args) == 3
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", '{"Potato": 3}', '"creature"'])
def test_typemap_not_object_of_strings(tmp_path, text):
    path = tmp_path / "typemap.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="typemap"):
        load_typemap(path)


@pytest.mark.parametrize("content", [b'{"Potato": "cr\xffature"}', b'{"Potato": '])
def test_cli_datagen_bad_typemap_exits_3(tmp_path, small_kb, capsys, content):
    kb_path, typemap_path = tmp_path / "kb.jsonl", tmp_path / "typemap.json"
    save_kb(small_kb, kb_path)
    typemap_path.write_bytes(content)
    capsys.readouterr()
    assert main(["datagen", "--kb", str(kb_path), "--typemap", str(typemap_path),
                 "--out", str(tmp_path / "s.jsonl")]) == 3
    assert "typemap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Byte mutations and truncations of every format.
# ---------------------------------------------------------------------------

# positions favour the first 64 bytes, where the binary headers live
EDITS = st.lists(st.tuples(st.integers(0, 63) | st.integers(0, 1 << 20), st.integers(0, 255)),
                 max_size=4)
CUTS = st.none() | st.floats(0.0, 1.0)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS, cut=CUTS)
def test_mutated_file_raises_only_engine_errors(tmp_path, small_kb, small_kb_aug, tiny_config,
                                                capped_address_space, kind, edits, cut):
    path = tmp_path / "input"
    _write(kind, path, small_kb, small_kb_aug, tiny_config)
    data = bytearray(path.read_bytes())
    for pos, value in edits:
        data[pos % len(data)] = value
    if cut is not None:
        del data[int(cut * len(data)):]
    path.write_bytes(bytes(data))
    try:
        READERS[kind](path)
    except EngineError:
        pass
