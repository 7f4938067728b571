"""The batched trial engine against the explicit-beam reference search.

The reference sounds every stage with the synthesized ``n``-element beams
(``measure_block`` on ``h``, ``f``, ``w``), which the engine replaces with the
rank-one stage signal; the two must pick the same sub-ranges.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_search, sweep_outcomes

from beamest import cli, codebook, estimator, montecarlo
from beamest.arrays import AngleGrid, ChannelRealization, MeasurementNoise
from beamest.codebook import BeamPatternMatrix
from beamest.estimator import (
    NON_OVERLAPPED,
    OVERLAPPED,
    PILOT,
    VARIANTS,
    Design,
    EstimatorConfig,
    fuse_measurements,
    run_estimation,
    search_batch,
    select_path,
)
from beamest.montecarlo import ExperimentConfig, _sweep_chunk

FIG3 = ExperimentConfig(n=27, k=3, et_db=tuple(range(-4, 33, 2)), trials=2000,
                        master_seed=8151372)


def _noise(cfg, seeds):
    m = cfg.design.m
    return np.stack([MeasurementNoise(cfg.n0, seed).draw_blocks(cfg.design.stages, (m, m))
                     for seed in seeds])


def _assert_matches_reference(reference, receive, transmit, values):
    """The same pick at every stage, and the picked value that of the reference."""
    scale = max(float(np.abs(ref_r).max()) for _, ref_r, *_ in reference)
    for s, (_, ref_r, kr, kt) in enumerate(reference):
        assert (receive[s], transmit[s]) == (kr, kt)
        assert abs(values[s] - ref_r[kr, kt]) <= 1e-12 * scale


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(),
       geometry=st.sampled_from([(27, 3), (81, 3), (49, 7)]),
       variant=st.sampled_from(VARIANTS),
       gain=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       log_power=st.floats(-2.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_engine_matches_explicit_beam_reference(data, geometry, variant, gain, log_power,
                                                seed):
    n, k = geometry
    theta = data.draw(st.integers(0, n - 1), label="theta")
    phi = data.draw(st.integers(0, n - 1), label="phi")
    alpha = complex(*gain)
    cfg = EstimatorConfig(n=n, k=k, p_t=10.0 ** log_power, n0=1.0, var_alpha=float(n * n),
                          variant=variant)
    channel = ChannelRealization(theta=theta, phi=phi, alpha=alpha, n=n)
    reference = reference_search(channel, cfg, seed)

    # a batch of one
    trace = run_estimation(channel, cfg, seed)
    receive, transmit = zip(*trace.selections)
    _assert_matches_reference(reference, receive, transmit, trace.selected_values)

    # the same trial inside a batch: other trials around it, another power point
    thetas, phis = [(theta + 5) % n, theta, 0], [phi, phi, n - 1]
    batch = search_batch(cfg.design, [4.0 * cfg.p_t, cfg.p_t], thetas, phis, [1j, alpha, -2.0],
                         _noise(cfg, [seed + 1, seed, seed + 2]))
    _assert_matches_reference(reference, batch.receive[1, 1], batch.transmit[1, 1],
                              batch.values[1, 1])
    assert bool(batch.on_track[1, 1]) == ((trace.theta_hat, trace.phi_hat) == (theta, phi))


class TestNoise:
    def test_one_draw_equals_sequential_stage_draws(self):
        blocks = MeasurementNoise(0.8, 5).draw_blocks(4, (3, 3))
        sequential = MeasurementNoise(0.8, 5)
        for block in blocks:
            np.testing.assert_array_equal(block, sequential.draw((3, 3)))

    def test_noiseless_draw_consumes_nothing(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        assert not MeasurementNoise(0.0, rng).draw_blocks(3, (2, 2)).any()
        assert rng.bit_generator.state == state


class TestSearchBatch:
    def _batch(self, cfg, p_t, trials=40, seed=3):
        rng = np.random.default_rng(seed)
        theta, phi = rng.integers(cfg.n, size=trials), rng.integers(cfg.n, size=trials)
        alpha = rng.normal(size=trials) + 1j * rng.normal(size=trials)
        noise = _noise(cfg, [seed * 1000 + t for t in range(trials)])
        return theta, phi, search_batch(cfg.design, p_t, theta, phi, alpha, noise)

    def test_failure_is_wrong_final_pair(self):
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0)
        theta, phi, batch = self._batch(cfg, [0.01, 0.1, 1.0], trials=200)
        exact = ((batch.theta_hat == theta[:, None]) & (batch.phi_hat == phi[:, None]))
        np.testing.assert_array_equal(batch.on_track, exact)
        assert 0 < batch.on_track.sum() < batch.on_track.size

    def test_blocks_are_noise_alone_after_leaving_the_true_range(self):
        cfg = EstimatorConfig(n=27, k=3, p_t=0.01, n0=1.0, var_alpha=729.0)
        rng_seeds = [3000 + t for t in range(40)]
        theta, phi, batch = self._batch(cfg, [cfg.p_t])
        fused = fuse_measurements(_noise(cfg, rng_seeds), cfg.design.patterns)
        left = 0
        for t in range(40):
            for s in range(1, cfg.design.stages):
                digits = [(theta[t] // 3 ** (2 - j) % 3, phi[t] // 3 ** (2 - j) % 3)
                          for j in range(s)]
                picks = list(zip(batch.receive[t, 0, :s], batch.transmit[t, 0, :s]))
                if picks != digits:
                    # the pick and value of the stage's fused noise alone
                    left += 1
                    kr, kt = select_path(fused[t, s])
                    assert (batch.receive[t, 0, s], batch.transmit[t, 0, s]) == (kr, kt)
                    assert batch.values[t, 0, s] == fused[t, s, kr, kt]
        assert left > 0

    @pytest.mark.parametrize("bad, message", [
        (0.0, "power constant must be positive, got 0.0"),
        (-1.0, "power constant must be positive, got -1.0"),
        (np.nan, "power constant is NaN or infinite: nan"),
        (np.inf, "power constant is NaN or infinite: inf")])
    def test_power_array_checked(self, bad, message):
        # one bad entry among good ones rejects the whole array
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0)
        with pytest.raises(ValueError, match=message):
            search_batch(cfg.design, [1.0, bad, 2.0], [0], [0], [1.0],
                         np.zeros((1, 3, 2, 2), complex))
        with pytest.raises(ValueError, match="1-D array of power points"):
            search_batch(cfg.design, [[1.0]], [0], [0], [1.0], np.zeros((1, 3, 2, 2), complex))

    def test_noise_shape_checked(self):
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0)
        with pytest.raises(ValueError, match="noise"):
            search_batch(cfg.design, [1.0], [0, 1], [0, 1], [1.0, 1.0],
                         np.zeros((1, 3, 2, 2), complex))

    def test_angle_counts_checked(self):
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0)
        noise = np.zeros((2, 3, 2, 2), complex)
        with pytest.raises(ValueError, match="angle indices per end"):
            search_batch(cfg.design, [1.0], [4], [5, 6], [1.0, 1.0], noise)
        with pytest.raises(ValueError, match="angle indices per end"):
            search_batch(cfg.design, [1.0], [4, 5], [6], [1.0, 1.0], noise)

    @pytest.mark.parametrize("theta, phi", [(-1, 0), (27, 0), (0, -1), (0, 27)])
    def test_angle_range_checked(self, theta, phi):
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0)
        with pytest.raises(ValueError, match=r"\[0, 27\)"):
            search_batch(cfg.design, [1.0], [theta], [phi], [1.0], np.zeros((1, 3, 2, 2), complex))

    def test_non_finite_fused_values_rejected(self):
        cases = [(1, complex(np.inf, 1.0), 0.0),
                 # one non-finite noise entry in one block of a 40-trial stack
                 (40, 1.0, np.nan), (40, 1.0, complex(0.0, np.inf))]
        for variant in VARIANTS:
            cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0,
                                  variant=variant)
            for trials, gain, bad_noise in cases:
                noise = np.zeros((trials, 3, cfg.design.m, cfg.design.m), complex)
                noise[trials // 2, 1, -1, 0] = bad_noise
                with np.errstate(invalid="ignore"):
                    with pytest.raises(ValueError, match="NaN or infinite"):
                        search_batch(cfg.design, [1.0], (np.arange(trials) + 4) % 27,
                                     (np.arange(trials) + 5) % 27, np.full(trials, gain),
                                     noise)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ties_pick_first_flat_index(self, variant):
        # no gain and no noise: every score is 0, so every stage of every trial
        # and point picks hypothesis (0, 0), on and off track alike
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=0.0, var_alpha=729.0, variant=variant)
        m = cfg.design.m
        batch = search_batch(cfg.design, [1.0, 1.0], np.arange(27), np.arange(27)[::-1],
                             np.zeros(27), np.zeros((27, 3, m, m), complex))
        assert batch.receive.shape == (27, 2, 3)
        assert not batch.receive.any() and not batch.transmit.any()
        np.testing.assert_array_equal(batch.theta_hat, 0)


def full_row_search(design, patterns, p_t, theta, phi, alpha, fused):
    """``(receive, transmit, values, on_track)`` with every row of
    ``k^2`` scores picked whole: the first flat index of the largest
    magnitude, and ``ValueError`` for a NaN or infinite score anywhere."""
    k, stages = design.k, design.stages
    trials, points = len(alpha), len(p_t)
    places = k ** np.arange(stages - 1, -1, -1)
    truth = (np.asarray(theta)[:, None] // places % k * k
             + np.asarray(phi)[:, None] // places % k)                      # (T, S)
    amplitude = (np.asarray(alpha, dtype=complex)[:, None] * PILOT
                 * np.sqrt(np.asarray(p_t, dtype=float)))                    # (T, Q)
    fused = fused.reshape(trials, 1, stages, k * k)
    r_on = amplitude[:, :, None, None] * patterns.pair_gram[truth][:, None] + fused
    for scores in (r_on, fused):
        if not np.isfinite(np.abs(scores)).all():
            raise ValueError("NaN or infinite")
    picks = [np.abs(scores).argmax(axis=-1) for scores in (r_on, fused)]
    values = [np.take_along_axis(scores, pick[..., None], axis=-1)[..., 0]
              for scores, pick in zip((r_on, fused), picks)]
    correct = np.logical_and.accumulate(picks[0] == truth[:, None], axis=-1)
    on = np.concatenate([np.ones((trials, points, 1), dtype=bool), correct[..., :-1]], axis=-1)
    receive, transmit = np.divmod(np.where(on, *picks), k)
    return receive, transmit, np.where(on, *values), correct[..., -1]


class TestSplitPick:
    """With several points the non-overlapped design splits each row: the
    true pair is scored at each point and the rest of the row, fused noise,
    is picked once (``estimator._true_pair_pick``); that must select exactly
    what one pick over the whole row selects."""

    GEOMETRIES = [(27, 3), (49, 7), (343, 7)]

    def _compare(self, design, p_t, theta, phi, alpha, noise, monkeypatch=None, fused=None):
        patterns = design.patterns
        if fused is None:
            fused = fuse_measurements(noise, patterns)
        else:
            monkeypatch.setattr(estimator, "fuse_measurements", lambda *args: fused)
        expected = full_row_search(design, patterns, p_t, theta, phi, alpha, fused)
        batch = search_batch(design, p_t, theta, phi, alpha, noise)
        got = (batch.receive, batch.transmit, batch.values, batch.on_track)
        for name, a, b in zip(("receive", "transmit", "values", "on_track"), got, expected):
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        return batch

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_equals_full_row_pick(self, geometry, variant, n0):
        n, k = geometry
        cfg = EstimatorConfig(n=n, k=k, p_t=1.0, n0=n0, var_alpha=1.0, variant=variant)
        rng = np.random.default_rng(n + k + int(n0))
        trials = 60
        theta, phi = rng.integers(n, size=trials), rng.integers(n, size=trials)
        alpha = rng.normal(size=trials) + 1j * rng.normal(size=trials)
        noise = _noise(cfg, range(n, n + trials))
        for p_t in ([0.5], [0.01, 0.3, 2.0, 40.0]):
            batch = self._compare(cfg.design, p_t, theta, phi, alpha, noise)
            if n0 and len(p_t) > 1:  # the grid spans failing and succeeding trials
                assert 0 < batch.on_track.sum() < batch.on_track.size

    @staticmethod
    def _tie_geometry(cfg):
        """A true pair with noise-only pairs on both sides, and angles whose
        digits put the path in that pair at every stage."""
        patterns = cfg.design.patterns
        k2 = cfg.k ** 2
        for pair in range(k2):
            zero = np.flatnonzero(patterns.pair_gram[pair] == 0)
            if zero.size and zero.min() < pair < zero.max():
                repunit = sum(cfg.k ** s for s in range(cfg.design.stages))  # digit 1 everywhere
                angle = [digit * repunit for digit in divmod(pair, cfg.k)]
                return pair, zero.min(), zero.max(), angle
        raise AssertionError("no such pair")

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_exact_ties_pick_the_first_flat_index(self, monkeypatch, geometry, variant):
        n, k = geometry
        cfg = EstimatorConfig(n=n, k=k, p_t=1.0, n0=1.0, var_alpha=1.0, variant=variant)
        pair, below, above, (theta, phi) = self._tie_geometry(cfg)
        # unit gain: the true score is 1, 2 and 0.5 at the three points, and a
        # noise-only entry of magnitude 1 ties it at the first point, below
        # the true index in trial 0 and above it in trial 1
        fused = np.zeros((2, cfg.design.stages, k * k), complex)
        fused[0, :, below] = -1.0
        fused[1, :, above] = 1j
        noise = np.zeros((2, cfg.design.stages, cfg.design.m, cfg.design.m), complex)
        batch = self._compare(cfg.design, [1.0, 4.0, 0.25], [theta] * 2, [phi] * 2, [1.0, 1.0],
                              noise, monkeypatch, fused.reshape(2, cfg.design.stages, k, k))
        picks = batch.receive * k + batch.transmit
        assert picks[0, 0, 0] == below and picks[1, 0].tolist() == [pair] * cfg.design.stages
        assert picks[0, 1].tolist() == picks[1, 1].tolist() == [pair] * cfg.design.stages
        assert picks[0, 2, 0] == below and picks[1, 2, 0] == above

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("where", ["touched", "noise-only", "gain"])
    def test_non_finite_score_rejected(self, monkeypatch, geometry, variant, bad, where):
        # a non-finite fused noise entry, or a gain that makes the true score
        # non-finite while the fused noise is finite
        n, k = geometry
        cfg = EstimatorConfig(n=n, k=k, p_t=1.0, n0=1.0, var_alpha=1.0, variant=variant)
        pair, below, above, (theta, phi) = self._tie_geometry(cfg)
        fused = np.ones((3, cfg.design.stages, k * k), complex)
        alpha = np.ones(3, complex)
        if where == "gain":
            alpha[1] = bad
        else:
            fused[1, -1, pair if where == "touched" else above] = bad
        noise = np.zeros((3, cfg.design.stages, cfg.design.m, cfg.design.m), complex)
        monkeypatch.setattr(estimator, "fuse_measurements",
                            lambda *args: fused.reshape(3, cfg.design.stages, k, k))
        with np.errstate(invalid="ignore"):
            for p_t in ([1.0], [1.0, 3.0]):
                with pytest.raises(ValueError, match="NaN or infinite"):
                    search_batch(cfg.design, p_t, [theta] * 3, [phi] * 3, alpha, noise)

    @pytest.mark.parametrize("k", [3, 7])
    def test_designs_take_their_branch(self, k):
        # overlapped: the column with every beam on overlaps every column, so
        # the signal of that pair fills its whole row of pair_gram and whole
        # rows are the widest split; non-overlapped: the identity, whose
        # signal is the true pair alone
        overlapped = Design(k, k, OVERLAPPED).patterns
        assert (overlapped.gram > 0).all(axis=1).any()
        assert (overlapped.pair_gram > 0).all(axis=1).any()
        assert not overlapped.is_identity
        identity = Design(k, k, NON_OVERLAPPED).patterns
        assert identity.is_identity
        assert ((identity.pair_gram != 0) == np.eye(k * k, dtype=bool)).all()

    def test_partially_touched_rows(self, monkeypatch):
        # columns 1 and 2 overlap and column 0 overlaps neither: rows of
        # pair_gram have 1, 2 or 4 nonzero entries, and a matrix that is not
        # the identity is scored in whole rows
        patterns = BeamPatternMatrix(np.array([[1.0, 0.0, 0.0],
                                               [0.0, np.sqrt(0.5), 0.0],
                                               [0.0, np.sqrt(0.5), 1.0]]))
        cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=1.0, variant=NON_OVERLAPPED)
        # the non-overlapped design's constants with this matrix in place of I
        design = SimpleNamespace(**{**vars(cfg.design), "patterns": patterns})
        rng = np.random.default_rng(2)
        theta, phi = rng.integers(27, size=80), rng.integers(27, size=80)
        alpha = rng.normal(size=80) + 1j * rng.normal(size=80)
        self._compare(design, [0.1, 1.0, 10.0], theta, phi, alpha, _noise(cfg, range(80)))


def _assert_same_sweep(cfg, chunks, whole):
    """Chunk states that merge to ``whole``'s counts and rounded error sums."""
    counts = sum(c for c, _ in chunks)
    partials = montecarlo._exact_partials(np.concatenate([p for _, p in chunks], axis=-1))
    np.testing.assert_array_equal(counts, whole[0])
    assert (montecarlo._rounded_sums(partials).tobytes()
            == montecarlo._rounded_sums(whole[1]).tobytes())


def test_sweep_chunk_split_invariant():
    splits = ((0, 37), (37, 38), (38, 1001), (1001, 2000))
    whole = sweep_outcomes(FIG3, 0, 2000)
    parts = [sweep_outcomes(FIG3, lo, hi) for lo, hi in splits]
    for variant in (OVERLAPPED, NON_OVERLAPPED):
        for i, expected in enumerate(whole[variant]):
            got = np.concatenate([part[variant][i] for part in parts], axis=1)
            np.testing.assert_array_equal(got, expected)
    _assert_same_sweep(FIG3, [_sweep_chunk(FIG3, lo, hi) for lo, hi in splits],
                       _sweep_chunk(FIG3, 0, 2000))


def _chunk_peak(cfg, trials):
    tracemalloc.start()
    try:
        _sweep_chunk(cfg, 0, trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_chunk_memory_bounded():
    _chunk_peak(FIG3, 64)  # warm the caches so neither measurement pays for them
    small, large = _chunk_peak(FIG3, 1024), _chunk_peak(FIG3, 8192)
    assert large < 2 * small, (small, large)


def test_sweep_chunk_memory_bounded_along_the_grid():
    # one trial's engine arrays over the whole grid would take about 70 MiB:
    # the engine takes the grid a slice at a time
    grid = tuple(-20.0 + 0.0025 * i for i in range(20_000))
    cfg = ExperimentConfig(n=343, k=7, et_db=grid, trials=2, master_seed=3)
    _chunk_peak(ExperimentConfig(n=343, k=7, et_db=grid[:2], trials=2), 2)
    peak = _chunk_peak(cfg, 2)
    assert peak < 24 << 20, peak


def test_block_size_bounds_large_geometries(monkeypatch):
    # a tiny entry budget forces one-trial blocks over one grid point at a
    # time; no outcome and no result may change
    cfg = ExperimentConfig(n=9, k=3, et_db=(0.0, 10.0), trials=30, master_seed=4)
    expected, whole = sweep_outcomes(cfg, 0, 30), _sweep_chunk(cfg, 0, 30)
    monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 1)
    assert [(len(trials), points) for trials, points, _ in montecarlo._sweep_blocks(cfg, 0, 2)
            ] == [(1, slice(0, 1)), (1, slice(1, 2))] * 2
    got = sweep_outcomes(cfg, 0, 30)
    for variant in cfg.variants:
        for a, b in zip(got[variant], expected[variant]):
            np.testing.assert_array_equal(a, b)
    _assert_same_sweep(cfg, [_sweep_chunk(cfg, 0, 30)], whole)


def test_sweep_bound_and_trace_build_no_beam(monkeypatch, tmp_path):
    # closed-form stage gains and the Gram-matrix stage signal need neither a
    # beam nor the n x n response matrix, even at n = 2401
    def build(*args):
        raise AssertionError("built a beam or a response matrix")

    estimator._bank.cache_clear()
    monkeypatch.setattr(codebook, "synthesize_vector", build)
    monkeypatch.setattr(AngleGrid, "response_matrix", property(build))
    tables = montecarlo.run_sweep(ExperimentConfig(n=2401, k=7, et_db=(10.0, 30.0), trials=3))
    assert all(table.trials == 3 and len(table.failures) == 2 for table in tables.values())
    assert len(montecarlo.bound_table(2401, 7, (10.0, 30.0))) == 2
    config = tmp_path / "trace.cfg"
    config.write_text("n = 343\nk = 7\ntrials = 3\net_db = 20\n")
    assert cli.main(["trace", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0


def test_package_import_leaves_scipy_special_unloaded():
    # importing beamest and running every command and the engine must not
    # need scipy at all: a fresh interpreter with scipy blocked, since this
    # test process imports it for the tests' own oracles
    code = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import tempfile
from pathlib import Path
import numpy as np
import beamest, beamest.cli
from beamest.estimator import EstimatorConfig, search_batch
from beamest.montecarlo import ExperimentConfig, bound_table, run_sweep
grid = tuple(range(-4, 33, 2))
run_sweep(ExperimentConfig(n=27, k=3, et_db=grid, trials=5, master_seed=8151372))
bound_table(27, 3, grid)
cfg = EstimatorConfig(n=27, k=3, p_t=1.0, n0=1.0, var_alpha=729.0)
search_batch(cfg.design, [1.0], [4], [5], [1.0], np.zeros((1, 3, 2, 2), complex))
with tempfile.TemporaryDirectory() as out:
    config = Path(out) / "run.cfg"
    config.write_text("n = 27\\nk = 3\\ntrials = 5\\net_db = 14\\nbound = true\\n")
    for command in ("sweep", "bound", "trace", "codebook"):
        assert beamest.cli.main([command, "--config", str(config), "--out", out,
                                 "--quiet"]) == 0
assert sys.modules["scipy"] is None
assert [name for name in sys.modules if name.startswith("scipy.")] == []
"""
    _run_fresh(code)


def test_package_import_leaves_process_pool_unloaded():
    # concurrent.futures pulls in multiprocessing, socket and logging; only a
    # sweep that starts a pool may import it
    code = """
import sys
import beamest, beamest.cli
from beamest.montecarlo import ExperimentConfig, run_sweep
run_sweep(ExperimentConfig(n=9, k=3, et_db=(0.0,), trials=4), workers=1)
loaded = [name for name in ("concurrent.futures", "multiprocessing", "socket", "logging")
          if name in sys.modules]
assert not loaded, loaded
"""
    _run_fresh(code)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
