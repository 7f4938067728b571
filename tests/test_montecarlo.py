import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_channel, reference_search, sweep_outcomes
from scipy import stats

from beamest import analysis, arrays, cli, montecarlo
from beamest.analysis import _rayleigh_terms
from beamest.arrays import MeasurementNoise, substream
from beamest.estimator import (
    NON_OVERLAPPED,
    OVERLAPPED,
    PILOT,
    Design,
    EstimatorConfig,
    run_estimation,
    stage_count,
    trace_record,
)
from beamest.montecarlo import (
    BoundPoint,
    ExperimentConfig,
    _aggregate,
    _draw_block,
    _exact_partials,
    _rounded_sums,
    _sweep_chunk,
    energy_from_db,
    bound_csv,
    bound_table,
    noise_stream,
    power_for_energy,
    run_sweep,
    sample_channel,
    wilson_interval,
)


def _cfg(**kw):
    defaults = dict(n=9, k=3, et_db=(5.0, 15.0), trials=64, master_seed=77)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class _InProcessPool:
    """A pool that maps in this process and starts nothing."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestSampleChannel:
    def test_deterministic_per_trial(self):
        cfg = _cfg()
        a = sample_channel(cfg, 12)
        b = sample_channel(cfg, 12)
        assert (a.theta, a.phi, a.alpha) == (b.theta, b.phi, b.alpha)
        c = sample_channel(cfg, 13)
        assert (a.theta, a.phi, a.alpha) != (c.theta, c.phi, c.alpha)

    def test_independent_of_variant_list(self):
        # both variants must see identical channel draws (paired comparison)
        one = _cfg(variants=(OVERLAPPED,))
        both = _cfg()
        for trial in range(20):
            a = sample_channel(one, trial)
            b = sample_channel(both, trial)
            assert (a.theta, a.phi, a.alpha) == (b.theta, b.phi, b.alpha)

    def test_gain_variance_default_n_squared(self):
        cfg = _cfg(n=27)
        draws = np.array([sample_channel(cfg, t).alpha for t in range(100_000)])
        measured = np.mean(np.abs(draws) ** 2)
        assert abs(measured - 729.0) / 729.0 < 0.02
        assert abs(np.mean(draws)) < 3.0  # zero-mean within a few std errors

    def test_angle_uniformity_chi_squared(self):
        cfg = _cfg(n=27)
        thetas = np.array([sample_channel(cfg, t).theta for t in range(100_000)])
        counts = np.bincount(thetas, minlength=27)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_angles_mutually_independent_spot(self):
        cfg = _cfg(n=27)
        pairs = np.array([[sample_channel(cfg, t).theta, sample_channel(cfg, t).phi]
                          for t in range(5000)])
        corr = np.corrcoef(pairs.T)[0, 1]
        assert abs(corr) < 0.05

    def test_noise_streams_distinct_per_variant(self):
        cfg = _cfg()
        a = np.random.default_rng(noise_stream(cfg, 0, OVERLAPPED)).normal(size=4)
        b = np.random.default_rng(noise_stream(cfg, 0, NON_OVERLAPPED)).normal(size=4)
        assert not np.allclose(a, b)

    def test_block_served_by_lookup(self, monkeypatch, fresh_blocks):
        # a block's first trial draws it; its neighbours return the same objects
        draws = []
        draw = montecarlo._draw_channels

        def counting(states, n, variance, seat):
            draws.append(len(states))
            return draw(states, n, variance, seat)

        monkeypatch.setattr(montecarlo, "_draw_channels", counting)
        cfg = _cfg(n=27)
        first = [sample_channel(cfg, trial) for trial in range(300)]
        assert [sample_channel(cfg, trial) for trial in range(256, 300)] == first[256:]
        assert sample_channel(cfg, 299) is first[299]
        assert draws == [montecarlo._STREAM_BLOCK] * 2
        assert [cache.cache_info().misses for cache in fresh_blocks] == [2, 2]
        assert first == [reference_channel(cfg, trial) for trial in range(300)]

    def test_cache_keyed_by_seed_grid_and_prior(self, fresh_blocks):
        configs = [_cfg(master_seed=seed, n=n, var_alpha=prior)
                   for seed in (1, 2) for n in (9, 27) for prior in (None, 2.0)]
        for cfg in configs:
            for trial in (5, 700):
                assert sample_channel(cfg, trial) == reference_channel(cfg, trial)
        words, channels = fresh_blocks
        # a block of channels per config and block, drawn from a block of
        # seed words per seed and block
        assert channels.cache_info().misses == 2 * len(configs)
        assert words.cache_info().misses == 4
        for cache in fresh_blocks:
            assert cache.cache_info().currsize == montecarlo._CHANNEL_KEYS
        hits = channels.cache_info().hits
        for cfg in configs[-2:]:  # the last _CHANNEL_KEYS blocks drawn
            for start, trial in ((0, 5), (512, 700)):
                draws, built = montecarlo._block_channels(cfg.master_seed, cfg.n,
                                                          cfg.alpha_variance, start)
                assert len(draws) == montecarlo._STREAM_BLOCK
                assert [i for i, c in enumerate(built) if c is not None] == [trial - start]
        assert channels.cache_info().hits == hits + 4
        block = montecarlo._block_words(2, 512)
        assert block.shape == (4, 3, montecarlo._STREAM_BLOCK)
        assert not block.flags.writeable

    def test_block_hashed_once_for_channels_and_noise(self, monkeypatch, fresh_blocks):
        # one seed-word hash serves a block's channels and both noise streams
        calls = []
        seed_words = montecarlo._seed_words

        def counting(master_seed, trials, keys):
            calls.append((trials, list(keys)))
            return seed_words(master_seed, trials, keys)

        monkeypatch.setattr(montecarlo, "_seed_words", counting)
        cfg = _cfg(n=27)
        for trial in range(256):
            sample_channel(cfg, trial)
            noise_stream(cfg, trial, OVERLAPPED)
            noise_stream(cfg, trial, NON_OVERLAPPED)
        assert calls == [(range(0, 256), [0, 1, 2])]
        noise_stream(cfg, 256, NON_OVERLAPPED)
        assert calls[1:] == [(range(256, 512), [0, 1, 2])]

    def test_noise_stream_draws_no_channels(self, monkeypatch, fresh_blocks):
        # a noise seed on a fresh block hashes the block's words only; its
        # channels are drawn when a channel of the block is first asked for
        draws = []
        draw = montecarlo._draw_channels
        monkeypatch.setattr(montecarlo, "_draw_channels",
                            lambda *args: draws.append(len(args[0])) or draw(*args))
        cfg = _cfg(n=27)
        for trial in (0, 300, 2**32 - 1):
            for variant, key in montecarlo._VARIANT_KEYS.items():
                seed = noise_stream(cfg, trial, variant).generate_state(4, np.uint64)
                expected = substream(cfg.master_seed, trial, key).generate_state(4, np.uint64)
                assert seed.tolist() == expected.tolist()
        assert draws == []
        assert fresh_blocks[1].cache_info().currsize == 0
        assert sample_channel(cfg, 300) == reference_channel(cfg, 300)
        assert draws == [montecarlo._STREAM_BLOCK]

    @pytest.mark.parametrize("trial", [-1, 2**32, 2**40])
    def test_trial_outside_32_bits_rejected(self, trial):
        with pytest.raises(ValueError, match=rf"trial index {trial} outside \[0, 2\*\*32\)"):
            sample_channel(_cfg(), trial)

    def test_last_trial_index(self):
        cfg = _cfg()
        assert sample_channel(cfg, 2**32 - 1) == reference_channel(cfg, 2**32 - 1)

    def test_threads_share_the_cache(self):
        # more threads than cores, switching often, each missing and evicting
        # blocks the others read
        configs = [_cfg(master_seed=seed) for seed in range(2 * montecarlo._CHANNEL_KEYS)]

        def work(worker):
            rng = np.random.default_rng(worker)
            for _ in range(50):
                cfg, trial = configs[int(rng.integers(len(configs)))], int(rng.integers(2048))
                if sample_channel(cfg, trial) != reference_channel(cfg, trial):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(work, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 4
        for cache in (montecarlo._block_words, montecarlo._block_channels):
            assert cache.cache_info().currsize <= montecarlo._CHANNEL_KEYS


def _may_reject(cfg, trial):
    """Whether numpy's bounded-integer rule may reject a word of this trial's angles.

    ``integers(n, size=2)`` maps the low, then the high 32 bits of the
    channel stream's first word to ``(half * n) >> 32``, and may reject only
    when the product's low 32 bits fall below ``n``.
    """
    stream = substream(cfg.master_seed, trial, montecarlo._CHANNEL_KEY)
    word = np.random.PCG64(stream).random_raw()
    return any((half * cfg.n) % 2**32 < cfg.n for half in (word % 2**32, word >> 32))


class TestBlockDraws:
    """A block's seeding, and sample_channel's, against the per-trial
    reference streams."""

    def test_channels_equal_sample_channel(self):
        # both against the reference, over a block edge of sample_channel's
        cfg = _cfg(n=27, var_alpha=3.5)
        trials = range(201, 301)
        theta, phi, alpha, _ = _draw_block(cfg, trials)
        for i, trial in enumerate(trials):
            expected = reference_channel(cfg, trial)
            channel = sample_channel(cfg, trial)
            assert channel == expected
            assert np.array(channel.alpha).tobytes() == np.array(expected.alpha).tobytes()
            assert (theta[i], phi[i]) == (expected.theta, expected.phi)
            assert np.array(alpha[i]).tobytes() == np.array(expected.alpha).tobytes()

    @pytest.mark.parametrize("n0", [0.7])
    def test_noise_equals_per_trial_streams(self, n0):
        cfg = _cfg(n=27, k=3, n0=n0)
        stages = stage_count(cfg.n, cfg.k)
        *_, noises = _draw_block(cfg, range(5, 25))
        assert set(noises) == set(cfg.variants)
        for variant, noise in noises.items():
            m = cfg.designs[variant].m
            assert noise.shape == (20, stages, m, m)
            for i, trial in enumerate(range(5, 25)):
                expected = MeasurementNoise(n0, noise_stream(cfg, trial, variant))
                # bytes, not values: the sign of a zero must match too
                assert noise[i].tobytes() == expected.draw_blocks(stages, (m, m)).tobytes()
        assert not (noises[OVERLAPPED] == 0).any()

    def test_block_draws_are_the_per_trial_draws(self):
        """Byte for byte, over master seeds, trial windows, both variants and
        grids up to ``3**19``, where numpy's bounded integers may reject a
        word and the block must take its fallback."""
        fallbacks = []

        @settings(derandomize=True, deadline=None, max_examples=40)
        @given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 2**32 - 40),
               count=st.integers(1, 40), n=st.sampled_from([27, 343, 2401, 3**19]),
               n0=st.sampled_from([0.7, 2.5]))
        @example(seed=5, start=0, count=40, n=3**19, n0=2.5)
        def check(seed, start, count, n, n0):
            cfg = ExperimentConfig(n=n, k=3 if n % 3 == 0 else 7, et_db=(0.0,),
                                   master_seed=seed, n0=n0)
            trials = range(start, start + count)
            stages = stage_count(cfg.n, cfg.k)
            theta, phi, alpha, noises = _draw_block(cfg, trials)
            channels = [reference_channel(cfg, trial) for trial in trials]
            served = [sample_channel(cfg, trial) for trial in trials]
            for drawn, expected in ((theta, [c.theta for c in channels]),
                                    (phi, [c.phi for c in channels]),
                                    (alpha, [c.alpha for c in channels])):
                expected = np.array(expected)
                assert (drawn.dtype, drawn.shape) == (expected.dtype, expected.shape)
                assert drawn.tobytes() == expected.tobytes()
            assert served == channels
            assert (np.array([c.alpha for c in served]).tobytes()
                    == np.array([c.alpha for c in channels]).tobytes())
            for variant, noise in noises.items():
                m = cfg.designs[variant].m
                expected = np.stack([MeasurementNoise(n0, noise_stream(cfg, trial, variant))
                                     .draw_blocks(stages, (m, m)) for trial in trials])
                assert (noise.dtype, noise.shape) == (expected.dtype, expected.shape)
                assert noise.tobytes() == expected.tobytes()
            fallbacks.append(sum(_may_reject(cfg, trial) for trial in trials))

        check()
        assert sum(fallbacks) > 0

    def test_sweep_feeds_the_engine_the_block_draws(self, monkeypatch):
        cfg = _cfg(n=9, trials=12)
        seen = []
        engine = montecarlo.search_batch

        def recording(design, p_t, theta, phi, alpha, noise):
            seen.append((design.variant, theta.tolist(), phi.tolist(), alpha.tolist(), noise))
            return engine(design, p_t, theta, phi, alpha, noise)

        monkeypatch.setattr(montecarlo, "search_batch", recording)
        montecarlo._sweep_chunk(cfg, 3, 12)
        assert [variant for variant, *_ in seen] == list(cfg.variants)
        for variant, theta, phi, alpha, noise in seen:
            channels = [reference_channel(cfg, trial) for trial in range(3, 12)]
            assert theta == [c.theta for c in channels]
            assert phi == [c.phi for c in channels]
            assert alpha == [c.alpha for c in channels]
            m = cfg.designs[variant].m
            for i, trial in enumerate(range(3, 12)):
                expected = MeasurementNoise(cfg.n0, noise_stream(cfg, trial, variant))
                np.testing.assert_array_equal(
                    noise[i], expected.draw_blocks(stage_count(cfg.n, cfg.k), (m, m)))


class TestBlockDrawsThroughSetter(TestBlockDraws):
    """The same checks with the layout probe failed, so every stream is
    reseated through the PCG64 ``state`` setter."""

    @pytest.fixture(autouse=True)
    def _setter_path(self, monkeypatch, fresh_blocks):
        # sample_channel draws its blocks afresh, through the setter too
        monkeypatch.setattr(arrays, "_direct_reseat_works", lambda: False)


class TestFailureIndicator:
    def test_perfect_and_broken_traces(self):
        cfg = _cfg(n=9)
        ecfg = EstimatorConfig(n=9, k=3, p_t=1.0, n0=0.0, var_alpha=81.0)
        channel = sample_channel(cfg, 0)
        trace = run_estimation(channel, ecfg)
        assert trace_record(trace, channel)["correct"] is True
        # wrong transmit side alone must flag failure
        wrong_phi = type(channel)(theta=channel.theta,
                                  phi=(channel.phi + 1) % 9,
                                  alpha=channel.alpha, n=9)
        assert trace_record(trace, wrong_phi)["correct"] is False
        # and so must the wrong receive side alone
        wrong_theta = type(channel)(theta=(channel.theta + 1) % 9, phi=channel.phi,
                                    alpha=channel.alpha, n=9)
        assert trace_record(trace, wrong_theta)["correct"] is False


class TestEnergyAccounting:
    def test_stage_gains_increase(self):
        gains = Design(27, 3, OVERLAPPED).gains
        assert len(gains) == 3
        assert gains[0] < gains[1] < gains[2]

    def test_power_for_energy_roundtrip(self):
        for variant in (OVERLAPPED, NON_OVERLAPPED):
            gains = Design(27, 3, variant).gains
            slots_per_stage = {OVERLAPPED: 4, NON_OVERLAPPED: 9}[variant]
            p_t = power_for_energy(819.0, 27, 3, variant)
            total = slots_per_stage * sum(p_t / c ** 4 for c in gains)
            assert abs(total - 819.0) < 1e-9

    def test_both_variants_share_the_energy_to_power_map(self):
        # slots x sum(C^-4) coincides for the two designs on this geometry
        a = power_for_energy(100.0, 27, 3, OVERLAPPED)
        b = power_for_energy(100.0, 27, 3, NON_OVERLAPPED)
        assert abs(a - b) / a < 1e-12


class TestEnergyFromDb:
    def test_values(self):
        assert energy_from_db(20.0, 2.0) == 2.0 * 10.0 ** 2.0
        assert energy_from_db(-np.inf) == 0.0

    @pytest.mark.parametrize("db, n0", [(4000.0, 1.0), (np.inf, 1.0), (np.nan, 1.0),
                                        (300.0, 1e300)])
    def test_non_finite_energy_rejected(self, db, n0):
        with pytest.raises(ValueError, match=f"{db!r} dB"):
            energy_from_db(db, n0)

    def test_sweep_and_bound_reject_it(self):
        with pytest.raises(ValueError, match="4000.0 dB"):
            run_sweep(_cfg(et_db=(10.0, 4000.0), trials=2))
        with pytest.raises(ValueError, match="4000.0 dB"):
            bound_table(9, 3, (4000.0,))


class TestRunSweep:
    def test_zero_noise_sentinel_point(self):
        # effectively noiseless energy: no failures for either variant
        cfg = _cfg(n=27, et_db=(80.0,), trials=300)
        tables = run_sweep(cfg)
        for table in tables.values():
            assert table.pcef[0] == 0.0
            assert table.failures[0] == 0

    def test_slot_columns(self):
        cfg = _cfg(n=27, trials=16)
        tables = run_sweep(cfg)
        assert tables[OVERLAPPED].slots == 12
        assert tables[NON_OVERLAPPED].slots == 27

    def test_pcef_and_interval_sanity(self):
        cfg = _cfg(n=9, et_db=(0.0, 10.0, 20.0), trials=400)
        tables = run_sweep(cfg)
        for table in tables.values():
            assert table.trials == 400
            assert ((0.0 <= table.ci_low) & (table.ci_low <= table.pcef)
                    & (table.pcef <= table.ci_high) & (table.ci_high <= 1.0)).all()
            assert (table.failures == np.round(table.pcef * 400)).all()

    def test_error_rows_equal_per_trial_recompute(self):
        """Each table row from each trial's own search: the reference channel,
        the explicit-beam reference search on the trial's noise stream, and
        the model's gain estimates from its selected values, all ``S`` of
        them for the MMSE columns and the last stage's for the "final"
        ones; nothing here goes through the sweep's engine blocks."""
        cfg = _cfg(n=27, et_db=(4.0, 14.0, 24.0), trials=40, master_seed=31)
        tables = run_sweep(cfg)
        channels = [reference_channel(cfg, trial) for trial in range(cfg.trials)]
        var_alpha, n0 = cfg.alpha_variance, cfg.n0
        for variant in cfg.variants:
            table = tables[variant]
            for q, db in enumerate(cfg.et_db):
                p_t = power_for_energy(energy_from_db(db, n0), cfg.n, cfg.k, variant)
                ecfg = EstimatorConfig(n=cfg.n, k=cfg.k, p_t=p_t, n0=n0, var_alpha=var_alpha,
                                       variant=variant)
                fails, mmse, final = [], [], []
                for trial, channel in enumerate(channels):
                    rng = np.random.default_rng(noise_stream(cfg, trial, variant))
                    stages = reference_search(channel, ecfg, rng)
                    values = [r[kr, kt] for _, r, kr, kt in stages]
                    # the last stage's picks end on the angles found
                    theta_hat = sum(kr * cfg.k ** (len(stages) - 1 - s)
                                    for s, (*_, kr, _) in enumerate(stages))
                    phi_hat = sum(kt * cfg.k ** (len(stages) - 1 - s)
                                  for s, (*_, kt) in enumerate(stages))
                    fails.append((theta_hat, phi_hat) != (channel.theta, channel.phi))
                    # sum(values) has mean S sqrt(p_t) pilot alpha, variance S n0
                    scale = var_alpha * math.sqrt(p_t) * PILOT.conjugate()
                    for errors, picked in ((mmse, values), (final, values[-1:])):
                        alpha_hat = scale * sum(picked) / (len(picked) * var_alpha * p_t + n0)
                        errors.append(abs(alpha_hat - channel.alpha) / abs(channel.alpha))
                fails, mmse, final = map(np.array, (fails, mmse, final))
                assert table.failures[q] == fails.sum()
                assert 0 < fails.sum() < cfg.trials or db == cfg.et_db[-1]
                for got, expected in (
                        (table.relerr_mmse_all[q], mmse.mean()),
                        (table.relerr_final_all[q], final.mean()),
                        (table.relerr_mmse_success[q], mmse[~fails].mean()),
                        (table.relerr_final_success[q], final[~fails].mean())):
                    assert got == pytest.approx(expected, rel=1e-9)

    def test_worker_split_bit_identical(self):
        cfg = _cfg(n=9, et_db=(4.0, 12.0), trials=120)
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=3)
        for variant in cfg.variants:
            assert serial[variant].to_csv() == parallel[variant].to_csv()

    def test_worker_pool_capped_at_usable_cpus(self, monkeypatch):
        pools = []

        class RecordingPool(_InProcessPool):
            """Records the requested size."""

            def __init__(self, max_workers):
                pools.append(max_workers)

        monkeypatch.setattr(montecarlo, "_process_pool", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        cfg = _cfg(n=9, et_db=(4.0,), trials=40)
        capped = run_sweep(cfg, workers=10_000)
        run_sweep(_cfg(n=9, et_db=(4.0,), trials=2), workers=10_000)
        assert pools == [3, 2]
        serial = run_sweep(cfg, workers=1)
        for variant in cfg.variants:
            assert capped[variant].to_csv() == serial[variant].to_csv()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="worker count"):
            run_sweep(_cfg(trials=4), workers=workers)

    def test_csv_shape(self):
        cfg = _cfg(trials=32)
        text = run_sweep(cfg)[OVERLAPPED].to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("et_db,pcef,")
        assert len(lines) == 1 + 2
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_low_count_flag(self):
        cfg = _cfg(n=27, et_db=(60.0,), trials=200)
        table = run_sweep(cfg)[OVERLAPPED]
        assert table.failures[0] < 5
        assert table.low_count[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _cfg(et_db=(5.0, 5.0))
        with pytest.raises(ValueError):
            _cfg(trials=0)
        with pytest.raises(ValueError):
            _cfg(variants=("sideways",))
        # a repeated variant ran twice into one table and doubled the run count
        for variants in ((OVERLAPPED, OVERLAPPED), (NON_OVERLAPPED, OVERLAPPED, NON_OVERLAPPED)):
            with pytest.raises(ValueError, match="variants must not repeat"):
                _cfg(variants=variants)
        with pytest.raises(ValueError):
            _cfg(n=10)
        for key in ("n0", "var_alpha"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{key} is NaN or infinite"):
                    _cfg(**{key: value})

    @pytest.mark.parametrize("key, value", [("master_seed", 1.5), ("trials", 2.5),
                                            ("master_seed", True), ("trials", "8")])
    def test_non_integer_count_or_seed_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            _cfg(**{key: value})

    def test_numpy_integers_become_ints(self):
        cfg = _cfg(trials=np.int64(8), master_seed=np.uint32(3))
        assert (type(cfg.trials), type(cfg.master_seed)) == (int, int)

    def test_numpy_scalars_become_python_numbers(self):
        cfg = _cfg(n=np.int64(9), k=np.int64(3), n0=np.float64(0.5),
                   var_alpha=np.float64(4.0), et_db=(np.float64(5.0), 15))
        assert (type(cfg.n), type(cfg.k), type(cfg.n0), type(cfg.var_alpha)) == (
            int, int, float, float)
        assert [type(db) for db in cfg.et_db] == [float, float]

    @pytest.mark.parametrize("key, value", [
        ("n0", 10**400), ("var_alpha", 10**400), ("et_db", (10**400,))],
        ids=["n0", "var_alpha", "et_db"])
    def test_integer_beyond_float_range_rejected(self, key, value):
        # float() of such an int raised OverflowError, naming no field
        fields = dict(n=9, k=3, et_db=(1.0,))
        fields[key] = value
        with pytest.raises(ValueError, match=f"{key} is beyond the float range"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("key, value", [
        ("n", 27.0), ("k", 3.0), ("n0", True), ("n0", "1"), ("var_alpha", "2"),
        ("var_alpha", True), ("et_db", (True,))])
    def test_non_number_fields_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be (a real number|an integer), got "):
            _cfg(**{key: value})

    def test_variant_name_alone_rejected(self):
        # a bare string once split into its letters
        with pytest.raises(ValueError, match="variants must list variant names, got 'overlapped'"):
            _cfg(variants=OVERLAPPED)

    def test_negative_prior_rejected(self):
        with pytest.raises(ValueError, match="gain prior variance must be nonnegative"):
            _cfg(var_alpha=-4.0)

    def test_trial_and_seed_limits(self):
        # trial indices must fit one 32-bit word of the stream hash
        assert _cfg(trials=2**32).trials == 2**32
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):
            _cfg(trials=2**32 + 1)
        with pytest.raises(ValueError, match="master seed"):
            _cfg(master_seed=-1)

    def test_pcef_statistically_non_increasing_in_energy(self):
        cfg = _cfg(n=9, et_db=(0.0, 6.0, 12.0, 18.0, 24.0), trials=2000,
                   variants=(OVERLAPPED,))
        table = run_sweep(cfg)[OVERLAPPED]
        half = table.pcef - table.ci_low
        band = 3.0 * np.hypot(half[:-1], half[1:]) / 1.96
        assert (table.pcef[1:] <= table.pcef[:-1] + band).all()


def _wilson_reference(failures, trials):
    """The Wilson interval of one count in Python float arithmetic."""
    z2 = TestWilsonInterval.Z * TestWilsonInterval.Z
    root = TestWilsonInterval.Z * math.sqrt(z2 + 4.0 * failures * (trials - failures) / trials)
    scale = 2.0 * (trials + z2)
    pcef = failures / trials
    low = (2.0 * failures + z2 - root) / scale
    high = (2.0 * failures + z2 + root) / scale
    return max(0.0, min(low, pcef)), min(1.0, max(high, pcef))


# A table's columns, in its CSV's order.
_COLUMNS = ("et_db", "pcef", "ci_low", "ci_high", "low_count", "relerr_mmse_all",
            "relerr_mmse_success", "relerr_final_all", "relerr_final_success", "failures")


def _aggregate_reference(cfg, variant, counts, sums):
    """A table's trials, slots and columns of Python numbers, built one
    energy point at a time from its failure count and its four error sums,
    each point with its own interval."""
    trials = cfg.trials
    mmse_all, final_all, mmse_success, final_success = sums
    rows = []
    for i, db in enumerate(cfg.et_db):
        failures = int(counts[i])
        ci_low, ci_high = _wilson_reference(failures, trials)
        n_success = trials - failures

        def conditional_mean(total):
            return math.nan if n_success == 0 else total / n_success

        rows.append((db, failures / trials, ci_low, ci_high, failures < 5 or n_success < 5,
                     mmse_all[i] / trials, conditional_mean(mmse_success[i]),
                     final_all[i] / trials, conditional_mean(final_success[i]), failures))
    return {"trials": trials, "slots": Design(cfg.n, cfg.k, variant).slots,
            **{name: list(column) for name, column in zip(_COLUMNS, zip(*rows))}}


def _table_columns(table):
    """What :func:`_aggregate_reference` gives, read from a table."""
    return {"trials": table.trials, "slots": table.slots,
            **{name: getattr(table, name).tolist() for name in _COLUMNS}}


def _fsum_outcomes(fails, err_mmse, err_final):
    """Failure counts and ``math.fsum`` of every error row, from per-trial outcomes."""
    success = ~fails
    sums = [[math.fsum(row.tolist()) for row in err_mmse],
            [math.fsum(row.tolist()) for row in err_final],
            [math.fsum(row[ok].tolist()) for row, ok in zip(err_mmse, success)],
            [math.fsum(row[ok].tolist()) for row, ok in zip(err_final, success)]]
    return fails.sum(axis=1), sums


def _assert_rows_match_reference(cfg, tables, outcomes):
    for variant in cfg.variants:
        expected = _aggregate_reference(cfg, variant, *_fsum_outcomes(*outcomes[variant]))
        assert repr(_table_columns(tables[variant])) == repr(expected)


@pytest.mark.parametrize("preset", ["fig3", "fig4", "k7"])
def test_aggregate_matches_per_point_rows(preset):
    # the sweep's counts and block-by-block partials against math.fsum of the
    # whole per-trial rows
    if preset == "k7":  # the k7_n343_sweep geometry
        cfg = ExperimentConfig(n=343, k=7, et_db=(15.0, 20.0, 25.0, 30.0), trials=200,
                               master_seed=5)
    else:  # the preset's geometry, grid and seed at a smaller trial budget
        _, raw = cli.load_config(preset)
        cfg = ExperimentConfig(n=raw["n"], k=raw["k"], et_db=cli._energy_grid(raw, "sweep"),
                               trials=3000, master_seed=raw["seed"])
    counts, partials = _sweep_chunk(cfg, 0, cfg.trials)
    _assert_rows_match_reference(cfg, _aggregate(cfg, counts, partials),
                                 sweep_outcomes(cfg, 0, cfg.trials))
    # the reference also takes the counts and the partials' own fsums
    for i, variant in enumerate(cfg.variants):
        sums = [[math.fsum(row) for row in rows] for rows in partials[i].tolist()]
        expected = _aggregate_reference(cfg, variant, counts[i], sums)
        assert repr(_table_columns(_aggregate(cfg, counts, partials)[variant])) == repr(expected)


def _synthetic_outcomes(cfg, seed):
    """Random outcomes whose first row fails every trial and second none."""
    rng = np.random.default_rng(seed)
    shape = (len(cfg.et_db), cfg.trials)
    outcomes = {}
    for variant in cfg.variants:
        fails = rng.random(shape) < 0.4
        fails[0], fails[1] = True, False
        errors = rng.exponential(size=(2, *shape)) * 2.0 ** rng.integers(-40, 40, (2, *shape))
        outcomes[variant] = (fails, errors[0], errors[1])
    return outcomes


def _chunk_of(cfg, outcomes, block):
    """``_sweep_chunk``'s counts and partials of given outcomes, ``block`` trials at a time."""
    def blocks(cfg, lo, hi):
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            yield range(start, stop), slice(0, len(cfg.et_db)), {
                variant: tuple(a[:, start:stop] for a in arrays)
                for variant, arrays in outcomes.items()}

    with mock.patch.object(montecarlo, "_sweep_blocks", blocks):
        return _sweep_chunk(cfg, 0, cfg.trials)


@pytest.mark.parametrize("trials", [1, 2, 3, 50, 1000])
def test_aggregate_edge_rows_match_reference(trials):
    # an all-failure row has NaN conditional means; a no-failure row none
    cfg = _cfg(et_db=(1.0, 2.0, 3.0, 4.0), trials=trials)
    outcomes = _synthetic_outcomes(cfg, trials)
    for block in {1, 7, trials}:
        tables = _aggregate(cfg, *_chunk_of(cfg, outcomes, block))
        _assert_rows_match_reference(cfg, tables, outcomes)
        for table in tables.values():
            assert math.isnan(table.relerr_mmse_success[0])
            assert not math.isnan(table.relerr_final_success[1])


@pytest.mark.parametrize("trials", [2, 120])
def test_split_sweep_rows_match_reference(monkeypatch, trials):
    # two workers: two one-trial chunks at 2 trials, eight chunks at 120
    monkeypatch.setattr(montecarlo, "_process_pool", _InProcessPool)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    calls = []
    chunk = montecarlo._sweep_chunk
    monkeypatch.setattr(montecarlo, "_sweep_chunk",
                        lambda cfg, lo, hi: calls.append((lo, hi)) or chunk(cfg, lo, hi))
    cfg = _cfg(n=27, et_db=(0.0, 8.0, 16.0), trials=trials)
    tables = run_sweep(cfg, workers=2)
    assert len(calls) == min(trials, 8)
    _assert_rows_match_reference(cfg, tables, sweep_outcomes(cfg, 0, trials))


def test_aggregate_memory_bounded():
    # one variant's (19, 10^5) outcomes reduced in blocks of 1000 trials:
    # per-row float lists or masked copies of whole error rows would take
    # tens of MB
    cfg = _cfg(n=27, et_db=tuple(range(19)), trials=100_000, variants=(OVERLAPPED,))
    outcomes = _synthetic_outcomes(cfg, 9)
    warm = _cfg(n=27, et_db=cfg.et_db, trials=10, variants=(OVERLAPPED,))
    _aggregate(warm, *_chunk_of(warm, {OVERLAPPED: tuple(a[:, :10] for a in outcomes[OVERLAPPED])},
                                1000))
    tracemalloc.start()
    try:
        counts, partials = _chunk_of(cfg, outcomes, 1000)
        table = _aggregate(cfg, counts, partials)[OVERLAPPED]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.pcef) == 19
    assert peak < 4 << 20, peak
    # 100 merges leave no more partials per row than one block of all trials
    assert partials.shape[-1] <= _chunk_of(cfg, outcomes, cfg.trials)[1].shape[-1]


def test_sweep_memory_does_not_grow_with_trials():
    # the per-trial outcomes of 15,000 trials would add about 4 MB
    def peak(trials):
        cfg = _cfg(et_db=tuple(range(19)), trials=trials, variants=(OVERLAPPED,))
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # warm the caches so neither measurement pays for them
    few, many = peak(3000), peak(15_000)
    assert many <= few + (1 << 19), (few, many)


def test_fallback_rows_match_across_splits(monkeypatch):
    # gain estimates scaled to infinity make every gain error inf, so every
    # block takes the kernel's fsum fallback; one worker, two and one-trial
    # one-point blocks must write the same rows.  A config whose estimates
    # overflow (n0 = 1e-320) is rejected when built, so the estimate is scaled
    estimate = montecarlo.estimate_alpha_mmse
    monkeypatch.setattr(montecarlo, "estimate_alpha_mmse",
                        lambda *args: estimate(*args) * math.inf)
    cfg = _cfg(n=27, et_db=(0.0, 10.0, 20.0), trials=60)
    one = run_sweep(cfg)
    assert all(np.isinf(table.relerr_mmse_all).all() and np.isinf(table.relerr_final_all).all()
               for table in one.values())
    monkeypatch.setattr(montecarlo, "_process_pool", _InProcessPool)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    two = run_sweep(cfg, workers=2)
    monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 1)
    small = run_sweep(cfg)
    for variant in cfg.variants:
        assert one[variant].to_csv() == two[variant].to_csv() == small[variant].to_csv()
    _assert_rows_match_reference(cfg, one, sweep_outcomes(cfg, 0, cfg.trials))


def test_fallback_takes_only_the_rows_that_need_it(monkeypatch):
    # a (2, 4, 19, 1000) block of relative errors with one inf, -inf, NaN or
    # near-overflow entry in four rows: only those rows go through
    # _fsum_floats, and every other row rounds to the sum it has reduced alone
    rng = np.random.default_rng(11)
    rows = rng.exponential(size=(2, 4, 19, 1000)) * 2.0 ** rng.integers(-30, 4, (2, 4, 19, 1000))
    mixed = rows.copy()
    finite = np.ones(rows.shape[:-1], dtype=bool)
    for index, value in (((0, 0, 3, 17), math.inf), ((0, 1, 5, 500), -math.inf),
                         ((1, 2, 0, 999), math.nan), ((1, 3, 18, 0), 1e308)):
        mixed[index] = value
        finite[index[:-1]] = False
    calls = []
    fsum_floats = montecarlo._fsum_floats
    monkeypatch.setattr(montecarlo, "_fsum_floats",
                        lambda row: calls.append(row) or fsum_floats(row))
    sums = _rounded_sums(_exact_partials(mixed.copy()))
    assert len(calls) == 4
    alone = _rounded_sums(_exact_partials(rows[finite]))
    assert [repr(x) for x in sums[finite].tolist()] == [repr(x) for x in alone.tolist()]
    assert [repr(x) for x in sums.reshape(-1).tolist()] == _fsum_rows(mixed.reshape(-1, 1000))


def _fsum_rows(rows):
    """Each row's ``math.fsum`` by ``repr``, or the exception it raises."""
    out = []
    for row in rows.tolist():
        try:
            out.append(repr(math.fsum(row)))
        except (OverflowError, ValueError) as exc:
            out.append((type(exc), str(exc)))
    return out


def _merged(rows, cuts, chunk=None):
    """Running partials of ``rows`` merged block by block at the columns
    ``cuts``, and the partial count after each merge.  With ``chunk``, the
    blocks before and from that cut merge on their own, as two workers'
    chunks do, and their partials merge last."""
    if chunk is not None:
        (head, head_counts), (tail, tail_counts) = (
            _merged(rows[:, :cuts[chunk]], cuts[:chunk]),
            _merged(rows[:, cuts[chunk]:], [c - cuts[chunk] for c in cuts[chunk + 1:]]))
        partials = _exact_partials(np.concatenate([head, tail], axis=1))
        return partials, head_counts + tail_counts + [partials.shape[1]]
    partials, counts = np.zeros((len(rows), 0)), []
    for block in np.split(rows, cuts, axis=1):
        partials = _exact_partials(np.concatenate([partials, block], axis=1))
        counts.append(partials.shape[1])
    return partials, counts


def _count_bound(rows):
    """A partial count no merge exceeds, whatever the cuts: one per pass,
    and a pass takes at least ``52 - M`` of the bits between the largest
    running sum and the lowest bit set, or up to three markers for
    infinities and NaN and the exact floats of the rest."""
    values = rows[np.isfinite(rows) & (rows != 0)]
    if not values.size:
        return 3
    mantissas, exponents = np.frexp(values)
    whole = np.abs(np.ldexp(mantissas, 53)).astype(np.int64)
    lowest = int((exponents - 53 + np.log2(whole & -whole).astype(int)).min())
    m = (rows.shape[1] + 64).bit_length()
    span = int(exponents.max()) + rows.shape[1].bit_length() + 1 - lowest
    return 3 + -(-span // (52 - m)) + 1


def _assert_fsum_bytes(rows, cuts=(), chunk=None):
    expected = _fsum_rows(rows)
    partials, counts = _merged(rows, list(cuts), chunk)
    assert max(counts) <= _count_bound(rows), counts
    errors = [e for e in expected if not isinstance(e, str)]
    if errors:
        # rows round in order, so the first raising row's error surfaces
        with pytest.raises(errors[0][0]) as raised:
            _rounded_sums(partials)
        assert str(raised.value) == errors[0][1]
    else:
        assert [repr(x) for x in _rounded_sums(partials).tolist()] == expected


# ties, subnormals and extremes a random draw seldom gives
_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                   1e300, -1e300, 1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-106, 3 * 2.0**-53,
                   2.0**53, -(2.0**53), 2.0**1000, 1.7976931348623157e308,
                   -1.7976931348623157e308)


def _random_rows(rng, pool, rows, width):
    out = np.empty((rows, width))
    for row in out:
        mode = rng.integers(3)
        if mode == 0:  # values drawn from the pool, ties and repeats included
            row[:] = rng.choice(pool, width)
        elif mode == 1:  # the pool's magnitudes with random mantissas
            row[:] = rng.choice(pool, width) * rng.random(width)
        else:  # mixed signs over an exponent range from subnormal to near overflow
            low = rng.integers(-1080, 1020)
            exponents = rng.integers(low, min(1024, low + rng.integers(1, 1200)), width)
            row[:] = np.ldexp(0.5 + rng.random(width) / 2, exponents) * rng.choice([-1, 1], width)
    return out


class TestExactRowSums:
    """Rows cut into blocks and merged through the running partials, against
    ``math.fsum`` of the whole row, by ``repr``."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(width=st.one_of(st.integers(1, 6), st.sampled_from([50, 1000, 10_000])),
           rows=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           pool=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                   st.sampled_from(_SPECIAL_FLOATS)), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1), masked=st.lists(st.booleans(), min_size=3, max_size=3),
           nonfinite=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3),
           blocks=st.integers(1, 12), chunked=st.booleans())
    def test_rows_equal_fsum(self, width, rows, pool, seed, masked, nonfinite, blocks, chunked):
        rng = np.random.default_rng(seed)
        parts = []
        for count, mask in zip(rows, masked):
            values = _random_rows(rng, np.array(pool), count, width)
            for value in nonfinite:
                if rng.random() < 0.5:
                    values[rng.integers(count), rng.integers(width)] = value
            if mask:  # zeroed entries, as a failed trial's in a success row
                values[rng.random(values.shape) < 0.3] = 0.0
            parts.append(values)
        cuts = sorted(rng.integers(0, width + 1, blocks - 1).tolist())
        chunk = int(rng.integers(len(cuts))) if chunked and cuts else None
        _assert_fsum_bytes(np.vstack(parts), cuts, chunk)

    @pytest.mark.parametrize("row", [
        [1.0, 2.0**-53, 2.0**-106],          # three partials: plain adds tie to 1.0
        [2.0**-53, 1.0, -(2.0**-106)],
        [0.0, -0.0, 0.0], [-0.0], [0.0],     # all zero: fsum gives +0.0
        [5e-324], [5e-324, -5e-324, 5e-324], [2.2250738585072014e-308, -5e-324],
        [1e300, 1e-300, -1e300], [1e-300, 1e300, 1.0, -1e300],
        [1.7976931348623157e308, -1.7976931348623157e308, 1.0],  # fallback, finite sum
        [1.7976931348623157e308, 1.7976931348623157e308],         # OverflowError
        [2.0**1021, 2.0**1021, 2.0**1022],                        # OverflowError
        [math.inf, 1.0], [-math.inf, -math.inf], [math.inf, -math.inf],  # ValueError
        [math.nan, 1.0], [1.0, math.nan, math.inf], [math.nan, math.inf, 1.0, -math.inf],
        [-1.0, -2.0, -(2.0**-60)], [-(2.0**-60), 3.0, -4.0 * 2.0**-60],
    ])
    def test_edge_rows(self, row):
        width = len(row)
        # whole, and cut at every column (every entry a block of its own)
        for cuts in ([], range(1, width)):
            _assert_fsum_bytes(np.array([row]), cuts)
            # the same row behind a finite one, and zeroed where odd
            rows = np.array([[1.0] * width, row, row])
            rows[2, 1::2] = 0.0
            _assert_fsum_bytes(rows, cuts)

    def test_near_overflow_blocks_stay_exact(self):
        # each fallback block keeps its exact sum, not its rounded one: the
        # small entries outlive a block whose fsum rounds them away
        rows = np.array([[1e308, 1e-300, -1e308, 2.0**-1074],
                         [1.7976931348623157e308, 1.0, -1.7976931348623157e308, 2.0**-60],
                         [1e308, 1e308, -1e308, -1e308]])  # OverflowError
        for cuts in ([1], [2], [1, 2, 3], [3]):
            _assert_fsum_bytes(rows, cuts)
        assert [repr(x) for x in _rounded_sums(_merged(rows[:2], [2])[0]).tolist()] == [
            repr(1e-300), repr(1.0)]

    def test_long_rows(self):
        rng = np.random.default_rng(4)
        width = 10_000
        rows = np.vstack([rng.exponential(size=(3, width)),
                          rng.standard_normal((3, width)) * 2.0 ** rng.integers(-80, 80, (3, width)),
                          np.full((1, width), 0.1), np.zeros((1, width))])
        rows[-2, ::2] = -0.1
        zeroed = np.where(rng.random(rows.shape) < 0.5, 0.0, rows)
        for cuts in ([], sorted(rng.integers(0, width, 30).tolist())):
            _assert_fsum_bytes(rows, cuts)
            _assert_fsum_bytes(zeroed, cuts)

    def test_partial_count_does_not_grow_with_blocks(self):
        # 10^4 relative errors in one block, then in 1,000 blocks of 10
        rng = np.random.default_rng(5)
        rows = rng.exponential(size=(8, 10_000)) * 2.0 ** rng.integers(-20, 4, (8, 10_000))
        one = _merged(rows, [])[1]
        many = _merged(rows, list(range(10, 10_000, 10)))[1]
        assert len(many) == 1000
        assert max(many) <= max(one) <= 3, (one, max(many))
        assert (_rounded_sums(_merged(rows, list(range(10, 10_000, 10)))[0]).tobytes()
                == np.array([math.fsum(row) for row in rows.tolist()]).tobytes())


class TestWilsonInterval:
    Z = 1.959963984540054

    def test_arrays_match_scalar_calls(self):
        cases = [(trials, range(trials + 1)) for trials in range(1, 61)]
        cases += [(trials, (0, 1, 5, trials // 2, trials - 1, trials))
                  for trials in (10_000, 2**32)]
        for trials, counts in cases:
            lows, highs = wilson_interval(np.array(counts), trials)
            for count, low, high in zip(counts, lows.tolist(), highs.tolist()):
                scalar = wilson_interval(count, trials)
                assert tuple(map(type, scalar)) == (float, float)
                assert repr((low, high)) == repr(scalar)
                assert repr(scalar) == repr(_wilson_reference(count, trials))

    def _textbook(self, failures, trials):
        # centre and half-width form: (p + z^2/2n) / (1 + z^2/n) +- ...
        p, z = failures / trials, self.Z
        denom = 1.0 + z * z / trials
        centre = (p + z * z / (2 * trials)) / denom
        half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
        return centre - half, centre + half

    def test_hand_computed_value(self):
        # 10 failures in 100 trials: the 95% Wilson interval is [0.0552, 0.1744]
        low, high = wilson_interval(10, 100)
        assert (round(low, 4), round(high, 4)) == (0.0552, 0.1744)
        np.testing.assert_allclose((low, high), self._textbook(10, 100), rtol=1e-12)

    def test_zero_failures_has_width(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high > 0.0
        assert abs(high - self.Z ** 2 / (100 + self.Z ** 2)) < 1e-15

    def test_all_failures_has_width(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0
        assert low < 1.0
        assert abs(low - 100 / (100 + self.Z ** 2)) < 1e-15

    @pytest.mark.parametrize("trials", [1, 2, 7, 50, 10_000])
    def test_contains_estimate(self, trials):
        for failures in range(0, trials + 1, max(1, trials // 50)):
            low, high = wilson_interval(failures, trials)
            assert 0.0 <= low <= failures / trials <= high <= 1.0
            np.testing.assert_allclose((low, high), np.clip(self._textbook(failures, trials), 0, 1),
                                       rtol=1e-9, atol=1e-15)

    def test_sweep_rows_use_it(self):
        cfg = _cfg(n=27, et_db=(80.0,), trials=200)
        table = run_sweep(cfg)[OVERLAPPED]
        assert table.failures[0] == 0
        assert (table.ci_low[0], table.ci_high[0]) == wilson_interval(0, 200)
        assert table.ci_high[0] > 0.0


def _bound_point_reference(n, k, db, var_alpha=None):
    """One grid point on its own ``(k^2, k^2)`` term matrix, summed whole."""
    p_t = power_for_energy(energy_from_db(db), n, k)
    terms = np.zeros((k * k, k * k))
    terms[~np.eye(k * k, dtype=bool)] = _rayleigh_terms(
        Design(n, k, OVERLAPPED).patterns.pair_correlations, p_t, 1.0,
        float(n * n) if var_alpha is None else var_alpha)
    per_stage = float(terms.sum() / (k * k))
    raw_total = stage_count(n, k) * per_stage
    return BoundPoint(et_db=float(db), per_stage=per_stage, raw_total=raw_total,
                      bound=min(raw_total, 1.0), clamped=raw_total > 1.0)


class TestBoundTable:
    @pytest.mark.parametrize("n, k", [(27, 3), (343, 7), (2401, 7)])
    @pytest.mark.parametrize("entries", [None, 7 * 81, 1 << 16],
                             ids=["default-blocks", "small-blocks", "large-blocks"])
    def test_grid_equals_per_point_evaluation(self, monkeypatch, n, k, entries):
        if entries:
            monkeypatch.setattr(analysis, "_BOUND_ENTRIES", entries)
        grid = (float("-inf"),) + tuple(-20.0 + 0.5 * i for i in range(100))
        expected = [_bound_point_reference(n, k, db) for db in grid]
        assert [repr(p) for p in bound_table(n, k, grid)] == [repr(p) for p in expected]

    def test_grid_memory_bounded(self):
        # a (points, k^4) array of all terms at once would take 960 MB here
        grid = tuple(-20.0 + 0.001 * i for i in range(50_000))
        bound_table(49, 7, grid[:2])  # warm the caches
        tracemalloc.start()
        try:
            points = bound_table(49, 7, grid)
            output, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == len(grid)
        assert peak < 2 * output, (output, peak)

    def test_rows_and_clamping(self):
        points = bound_table(27, 3, et_db=(float("-inf"), 0.0, 30.0))
        assert points[0].bound == 1.0 and points[0].clamped
        # zero power: every non-self pairwise term is 1/2
        assert abs(points[0].raw_total - 12.0) < 1e-12
        assert points[-1].bound < 0.1
        assert not points[-1].clamped

    def test_prior_past_the_closed_form_rejected(self):
        # (gap / 2)^2 overflowed, so every pairwise term read 1/2: per_stage 4.0
        with pytest.raises(ValueError, match="var_alpha: gain prior variance 1e[+]308"):
            bound_table(27, 3, (0.0, 10.0), var_alpha=1e308)

    def test_large_prior_within_the_closed_form(self):
        grid = (float("-inf"), 0.0, 10.0, 20.0, 30.0)
        points = bound_table(27, 3, grid, var_alpha=1e100)
        expected = [_bound_point_reference(27, 3, db, var_alpha=1e100) for db in grid]
        assert [repr(p) for p in points] == [repr(p) for p in expected]
        assert all(0.0 <= p.per_stage <= 1.0 for p in points[1:])

    def test_monotone_tail(self):
        values = [p.bound for p in bound_table(27, 3, et_db=tuple(range(10, 42, 4)))]
        assert all(x >= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("key, value", [
        ("n", 27.0), ("k", 3.0), ("n0", True), ("var_alpha", "2"), ("var_alpha", True),
        ("et_db", (True,))])
    def test_non_number_inputs_rejected(self, key, value):
        inputs = dict(n=27, k=3, et_db=(10.0,))
        inputs[key] = value
        with pytest.raises(ValueError, match=f"{key} must be (a real number|an integer), got "):
            bound_table(**inputs)

    def test_csv_format(self):
        text = bound_csv(bound_table(27, 3, et_db=(10.0, 20.0)))
        lines = text.strip().split("\n")
        assert lines[0] == "et_db,bound,per_stage,raw_total,clamped"
        assert len(lines) == 3
