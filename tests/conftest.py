from __future__ import annotations

import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from mvli.augment import RawDocument, augment_kb
from mvli.core import FeatureSet, Rng
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
