from __future__ import annotations

import math
import os
import resource
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from mvli import encoder, index
from mvli.augment import RawDocument, augment_kb
from mvli.core import FeatureSet, Rng, read_sections, write_sections
from mvli.encoder import EncoderConfig, SeededEmbeddingProvider, init_encoder_params


@pytest.fixture(scope="session")
def tiny_config() -> EncoderConfig:
    return EncoderConfig(
        dim=6, text_dim=8, image_dim=8, n_patches=3, n_heads=2, attn_dim=8, n_mm_tokens=2
    )


@pytest.fixture(scope="session")
def tiny_provider(tiny_config) -> SeededEmbeddingProvider:
    return SeededEmbeddingProvider(tiny_config)


@pytest.fixture()
def tiny_params(tiny_config):
    return init_encoder_params(tiny_config, seed=5)


@pytest.fixture(scope="session")
def small_kb() -> dict[str, RawDocument]:
    docs = [
        RawDocument("d0", "Lema Daturaphila",
                    "Lema Daturaphila feeds upon Potato. Lema Daturaphila patrols Solan Ridge.",
                    "img::Lema Daturaphila"),
        RawDocument("d1", "Potato",
                    "Potato shelters Solan Ridge. Potato borders Tomat Vale.",
                    "img::Potato"),
        RawDocument("d2", "Solan Ridge",
                    "Solan Ridge overlooks Tomat Vale. Solan Ridge guards Potato.",
                    "img::Solan Ridge"),
        RawDocument("d3", "Tomat Vale",
                    "Tomat Vale venerates Lema Daturaphila. Tomat Vale harvests Potato.",
                    "img::Tomat Vale"),
    ]
    return {d.doc_id: d for d in docs}


@pytest.fixture(scope="session")
def small_kb_aug(small_kb):
    return augment_kb(small_kb)


def random_feature_set(rng: Rng, n: int, dim: int) -> FeatureSet:
    vectors = rng.generator().standard_normal((n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return FeatureSet(vectors, tuple("textual" for _ in range(n)))


@pytest.fixture(scope="session")
def feature_set_factory():
    return random_feature_set


# Address-space cap for code under test that reads sizes from its input: a
# regression that allocates from a corrupt length field then fails fast with a
# MemoryError instead of exhausting the host's memory.
ADDRESS_SPACE_HEADROOM = 1 << 30
CLI_ADDRESS_SPACE = 3 << 30


def _capped(limit: int) -> tuple[int, int]:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return (limit if hard == resource.RLIM_INFINITY else min(limit, hard)), hard


def run_cli_capped(args: list[str]) -> subprocess.CompletedProcess:
    """`python -m mvli.cli *args` in a child process with a 3 GiB address space.

    The child sets its own limit before it imports anything, so no code runs
    between fork and exec.
    """
    soft, hard = _capped(CLI_ADDRESS_SPACE)
    code = ("import resource, runpy; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({soft}, {hard})); "
            "runpy.run_module('mvli.cli', run_name='__main__', alter_sys=True)")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture()
def capped_address_space():
    """Lower this process's soft address-space limit to its current size plus
    1 GiB for the duration of one test."""
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    before = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, _capped(size + ADDRESS_SPACE_HEADROOM))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, before)


# ---------------------------------------------------------------------------
# The binary files in core's section framing.
# ---------------------------------------------------------------------------

# kind -> the (magic, version, kind, layout) its reader passes to read_sections
SECTION_FORMATS = {
    "index": (*index._INDEX_FILE, index._INDEX_LAYOUT),
    "checkpoint": (*encoder._PARAMS_FILE, encoder._PARAMS_LAYOUT),
    "embedding": (*encoder._EMBEDDING_FILE, encoder._EMBEDDING_LAYOUT),
}


def rewrite_sections(path, kind: str, **changes) -> None:
    """Save a valid file of the given kind again through write_sections, in
    its section order, with the named sections' values replaced; a new value
    carries its type (its dtype, or "str" for a list).  Every checksum stays
    valid, so the reader's other checks decide."""
    fmt = SECTION_FORMATS[kind]
    sections = {**read_sections(path, *fmt), **changes}
    write_sections(path, *fmt[:3], [
        (name, "str" if isinstance(value, list) else value.dtype.str, value)
        for name, value in sections.items()])


def section_spans(data: bytes) -> dict[str, tuple[int, int, int]]:
    """Name -> (offset of the shape, start and end of the bytes) of every
    section of a file in core's framing, parsed here from the layout the
    README gives rather than by read_sections."""
    spans, at = {}, 12
    for _ in range(struct.unpack_from("<I", data, 8)[0]):
        name = data[at + 1:at + 1 + data[at]].decode("ascii")
        at += 1 + data[at]
        type_code, ndim = data[at], data[at + 1]
        shape = struct.unpack_from(f"<{ndim}Q", data, at + 2)
        start = at + 2 + 8 * ndim + 4
        if type_code == 5:  # str: n u64 lengths, then the joined names
            size = 8 * shape[0] + sum(struct.unpack_from(f"<{shape[0]}Q", data, start))
        else:
            size = math.prod(shape) * (8, 4, 8, 4, 1)[type_code]
        spans[name] = (at + 2, start, start + size)
        at = start + size
    return spans


def restamp_checksums(data: bytes) -> bytes:
    """The file with every section's CRC recomputed from its bytes."""
    out = bytearray(data)
    for _, start, end in section_spans(data).values():
        struct.pack_into("<I", out, start - 4, zlib.crc32(data[start:end]))
    return bytes(out)
