"""Fixtures shared across test modules."""

import time

import pytest

from beamest import cli, montecarlo


@pytest.fixture(scope="session")
def fig3_sweep(tmp_path_factory):
    """The shipped fig3 preset swept once through the CLI with one worker.

    Returns ``{"dir": output directory, "elapsed": seconds}``.  The acceptance
    criteria read its tables and the golden digests pin its data files, so
    Tier-1 sweeps the preset's 10^4 trials once for both.
    """
    out = tmp_path_factory.mktemp("fig3") / "workers1"
    started = time.perf_counter()
    code = cli.main(["sweep", "--config", "fig3", "--out", str(out), "--workers", "1",
                     "--quiet"])
    elapsed = time.perf_counter() - started
    assert code == 0
    return {"dir": out, "elapsed": elapsed}


@pytest.fixture
def fresh_blocks():
    """``montecarlo``'s two per-trial block caches, ``(_block_words,
    _block_channels)``, emptied before the test and again after it, so that
    blocks drawn under a test's patches serve no later test."""
    caches = (montecarlo._block_words, montecarlo._block_channels)
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()
