import math
import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence, ISpawnableSeedSequence
from reference import grid_angles, reference_channel, response_matrix, steering_vector

from beamest import arrays, montecarlo
from beamest.arrays import (
    AngleGrid,
    ChannelRealization,
    MeasurementNoise,
    _seed_words,
    build_channel,
    measure_block,
    stream_generators,
    substream,
)
from beamest.estimator import NON_OVERLAPPED, OVERLAPPED
from beamest.montecarlo import ExperimentConfig, noise_stream, sample_channel


class TestSteeringVector:
    def test_broadside_all_ones(self):
        # sin(0) = 0 zeroes every phase
        v = steering_vector(0.0, 4)
        np.testing.assert_allclose(v, 0.5 * np.ones(4), atol=1e-15)

    def test_endfire_alternating(self):
        # sin(pi/2) = 1: phases 0, pi
        v = steering_vector(np.pi / 2, 2)
        np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)

    def test_generic_angle_phases_and_norm(self):
        eps, n = np.pi / 27, 27
        v = steering_vector(eps, n)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        expected_phases = np.pi * np.arange(n) * np.sin(eps)
        np.testing.assert_allclose(np.angle(v * np.exp(-1j * expected_phases)),
                                   np.zeros(n), atol=1e-12)

    def test_zero_antennas_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(0.3, 0)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            eps = rng.uniform(-np.pi, np.pi)
            n = int(rng.integers(1, 80))
            assert abs(np.linalg.norm(steering_vector(eps, n)) - 1.0) < 1e-12


class TestAngleGrid:
    def test_basic_shape_and_monotonicity(self):
        grid = AngleGrid(27)
        assert grid.sines.shape == (27,)
        assert np.all(np.diff(grid.sines) > 0)
        assert np.all(np.diff(grid_angles(grid)) > 0)
        assert grid.sines[0] == -1.0
        assert np.all(grid.sines < 1.0)

    def test_responses_match_steering_vector(self):
        grid = AngleGrid(9)
        for i in range(9):
            np.testing.assert_allclose(grid.response(i),
                                       steering_vector(grid_angles(grid)[i], 9),
                                       atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 27, 49])
    def test_response_matrix_orthonormal(self, n):
        u = response_matrix(AngleGrid(n))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-13)

    def test_bad_sizes_and_indices(self):
        with pytest.raises(ValueError):
            AngleGrid(0)
        with pytest.raises(ValueError):
            AngleGrid(4).response(4)
        with pytest.raises(ValueError):
            AngleGrid(4).response(-1)


class TestBuildChannel:
    def test_zero_gain_gives_zero_matrix(self):
        h = build_channel(ChannelRealization(theta=1, phi=2, alpha=0.0, n=4))
        assert np.all(h == 0)

    def test_unit_gain_at_broadside_index(self):
        # n = 2 has sines (-1, 0); index 1 is broadside, so u = [1, 1]/sqrt(2)
        # and the channel is constant 1/2
        h = build_channel(ChannelRealization(theta=1, phi=1, alpha=1.0, n=2))
        np.testing.assert_allclose(h, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_frobenius_norm_is_gain_magnitude(self):
        h = build_channel(ChannelRealization(theta=20, phi=3, alpha=3 + 4j, n=27))
        assert abs(np.linalg.norm(h) - 5.0) < 1e-12

    def test_rank_one_nullspace(self):
        real = ChannelRealization(theta=5, phi=11, alpha=1.5 - 0.5j, n=16)
        h = build_channel(real)
        grid = AngleGrid(16)
        u_phi = grid.response(11)
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            v -= (u_phi.conj() @ v) * u_phi  # project out the departure response
            assert np.linalg.norm(h @ v) < 1e-9

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ChannelRealization(theta=4, phi=0, alpha=1.0, n=4)
        with pytest.raises(ValueError):
            ChannelRealization(theta=0, phi=-1, alpha=1.0, n=4)

    @pytest.mark.parametrize("key, value", [("theta", True), ("theta", 2.5), ("phi", "1")])
    def test_non_integer_index_rejected(self, key, value):
        # the search takes the indices' digits unchecked
        with pytest.raises(ValueError, match=f"{key} must be an integer, got "):
            ChannelRealization(**{"theta": 1, "phi": 2, key: value}, alpha=1.0, n=4)

    @pytest.mark.parametrize("key, value, message", [
        ("n", 2.5, "n must be an integer"), ("n", True, "n must be an integer"),
        ("n", 0, "n: antenna count must be at least 1"),
        ("alpha", "x", "alpha must be a complex number"),
        ("alpha", True, "alpha must be a complex number"),
        ("alpha", np.nan, "alpha is NaN or infinite"),
        ("alpha", complex(1.0, np.inf), "alpha is NaN or infinite"),
        ("alpha", 10**400, "alpha is beyond the float range")],
        ids=["n-float", "n-bool", "n-zero", "alpha-str", "alpha-bool", "alpha-nan",
             "alpha-inf", "alpha-huge-int"])
    def test_invalid_field_rejected_naming_it(self, key, value, message):
        # each once surfaced later, inside run_estimation, with a message
        # that did not name the field
        with pytest.raises(ValueError, match=message):
            ChannelRealization(**{"theta": 0, "phi": 0, "alpha": 1.0, "n": 4, key: value})

    def test_fields_stored_as_int_and_complex(self):
        channel = ChannelRealization(theta=1, phi=2, alpha=np.float32(1.5), n=np.int64(4))
        assert type(channel.n) is int and channel.n == 4
        assert type(channel.alpha) is complex and channel.alpha == 1.5

    def test_numpy_integer_index_stored_as_int(self):
        channel = ChannelRealization(theta=np.int64(3), phi=np.uint8(1), alpha=1.0, n=4)
        assert type(channel.theta) is int and type(channel.phi) is int


def _unit_columns(rng, n, m):
    mat = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return mat / np.linalg.norm(mat, axis=0)


class TestMeasureBlock:
    def test_zero_noise_zero_channel(self):
        rng = np.random.default_rng(0)
        f = _unit_columns(rng, 8, 2)
        w = _unit_columns(rng, 8, 2)
        y = measure_block(np.zeros((8, 8), dtype=complex), f, w, 2.0, 1.0,
                          MeasurementNoise(0.0))
        assert np.all(y == 0)

    def test_noiseless_matches_dense_product(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        f = _unit_columns(rng, 8, 3)
        w = _unit_columns(rng, 8, 3)
        pilot = np.exp(0.7j)
        y = measure_block(h, f, w, 4.0, pilot, MeasurementNoise(0.0))
        expected = np.array([[2.0 * w[:, a].conj() @ h @ f[:, b] * pilot
                              for b in range(3)] for a in range(3)])
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_noise_variance(self):
        # zero channel isolates the noise; 1e5 scalar entries estimate N0 to ~0.4%.
        # Each call draws its one sample from the source in stream order, so
        # one draw_blocks call gives the samples of 1e5 calls
        draws = MeasurementNoise(0.7, seed=123).draw_blocks(100_000, (1, 1))[:, 0, 0]
        noise = MeasurementNoise(0.7, seed=123)
        f = w = np.ones((1, 1), dtype=complex)
        calls = [measure_block(np.zeros((1, 1), dtype=complex), f, w, 1.0, 1.0, noise)[0, 0]
                 for _ in range(1000)]
        assert np.array_equal(calls, draws[:1000])
        measured = np.mean(np.abs(draws) ** 2)
        assert abs(measured - 0.7) / 0.7 < 0.02
        # circular symmetry: both quadratures carry half the power
        assert abs(np.var(draws.real) - 0.35) / 0.35 < 0.03
        assert abs(np.mean(draws)) < 0.01

    def test_each_slot_consumes_independent_draw(self):
        f = w = np.eye(3, dtype=complex)
        y = measure_block(np.zeros((3, 3), dtype=complex), f, w, 1.0, 1.0,
                          MeasurementNoise(1.0, seed=5))
        assert len({complex(v) for v in y.ravel()}) == 9

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 6)) + 0j
        f = _unit_columns(rng, 6, 2)
        w = _unit_columns(rng, 6, 2)
        a = measure_block(h, f, w, 1.0, 1.0, MeasurementNoise(0.5, seed=99))
        b = measure_block(h, f, w, 1.0, 1.0, MeasurementNoise(0.5, seed=99))
        assert np.array_equal(a, b)

    def test_preconditions(self):
        rng = np.random.default_rng(4)
        h = np.zeros((5, 5), dtype=complex)
        f = _unit_columns(rng, 5, 2)
        w = _unit_columns(rng, 5, 2)
        noise = MeasurementNoise(0.0)
        with pytest.raises(ValueError):
            measure_block(h, 2.0 * f, w, 1.0, 1.0, noise)
        with pytest.raises(ValueError):
            measure_block(h, f, w, 1.0, 0.5, noise)
        with pytest.raises(ValueError):
            measure_block(h, f, w, 0.0, 1.0, noise)
        with pytest.raises(ValueError):
            measure_block(h, f, _unit_columns(rng, 4, 2), 1.0, 1.0, noise)
        with pytest.raises(ValueError):
            measure_block(h, f, _unit_columns(rng, 5, 3), 1.0, 1.0, noise)


class TestMeasurementNoise:
    @pytest.mark.parametrize("n0", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, n0):
        with pytest.raises(ValueError, match="n0 is NaN or infinite"):
            MeasurementNoise(n0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="noise variance must be nonnegative"):
            MeasurementNoise(-0.5)

    @pytest.mark.parametrize("n0", [0.7, 2.5])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (7, 7)])
    def test_draws_are_numpys_normal(self, n0, shape):
        # bytes, not values: the sign of a zero must match too
        parts = np.random.default_rng(41).normal(scale=np.sqrt(n0 / 2), size=(5, 2, *shape))
        expected = parts[:, 0] + 1j * parts[:, 1]
        drawn = MeasurementNoise(n0, 41).draw_blocks(5, shape)
        assert (drawn.dtype, drawn.shape) == (expected.dtype, expected.shape)
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("variance", [0.0, 0.7, 3.5, 729.0])
    def test_gain_rule_is_the_scaled_pair_view(self, variance):
        # each row's two normals are a gain's real and imaginary parts
        z = np.random.default_rng(8).standard_normal((300, 2))
        z[:3] = [[0.0, -0.0], [-0.0, 0.0], [-1.5, 2.0]]
        s = np.sqrt(variance / 2)
        expected = (0.0 + s * z).view(complex)[:, 0]
        gains = arrays._complex_gaussian(z, variance)
        assert (gains.dtype, gains.shape) == (expected.dtype, expected.shape)
        assert gains.tobytes() == expected.tobytes()


class TestSubstream:
    def test_distinct_keys_distinct_streams(self):
        a = np.random.default_rng(substream(7, 0, 1)).normal(size=4)
        b = np.random.default_rng(substream(7, 0, 2)).normal(size=4)
        c = np.random.default_rng(substream(7, 1, 1)).normal(size=4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_same_key_reproduces(self):
        a = np.random.default_rng(substream(7, 3, 1)).normal(size=4)
        b = np.random.default_rng(substream(7, 3, 1)).normal(size=4)
        assert np.array_equal(a, b)


def _state_words(state: dict) -> list[int]:
    """A PCG64 ``state`` dict as the words ``[state_lo, state_hi, inc_lo, inc_hi]``."""
    words = state["state"]
    return [words["state"] & (2**64 - 1), words["state"] >> 64,
            words["inc"] & (2**64 - 1), words["inc"] >> 64]


def _generator_states(master_seed, trials, keys) -> list[list[list[int]]]:
    """``[key][trial]`` start states, as :func:`_state_words`, of the generators
    that :func:`stream_generators` makes from :func:`_seed_words`' rows."""
    words = _seed_words(master_seed, trials, keys)
    return [[_state_words(rng.bit_generator.state) for rng in stream_generators(words[:, j].T)]
            for j in range(len(keys))]


class TestSubstreamStates:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(master_seed=st.integers(0, 2**130 - 1),
           trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
           keys=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3))
    # one, two and five 32-bit seed words, and the word boundaries
    @example(master_seed=0, trials=[0], keys=[0, 1, 2])
    @example(master_seed=2**32 - 1, trials=[2**32 - 1], keys=[2])
    @example(master_seed=2**32, trials=[1, 0], keys=[0])
    @example(master_seed=2**128, trials=[7], keys=[1])
    @example(master_seed=2**130 - 1, trials=[123456789], keys=[2, 0])
    def test_equals_seeding_through_seed_sequence(self, master_seed, trials, keys):
        # the 32-bit hash arithmetic must wrap silently, never warn of
        # overflow or promote to another dtype
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = _seed_words(master_seed, trials, keys)
            states = _generator_states(master_seed, trials, keys)
        assert (words.dtype, words.shape) == (np.dtype(np.uint64), (4, len(keys), len(trials)))
        for key, rows in zip(keys, states):
            assert rows == [
                _state_words(np.random.PCG64(substream(master_seed, trial, key)).state)
                for trial in trials]

    def test_generator_draws_the_stream(self):
        rng, = stream_generators(_seed_words(7, [3], [1])[:, 0].T)
        np.testing.assert_array_equal(rng.normal(size=5),
                                      np.random.default_rng(substream(7, 3, 1)).normal(size=5))

    def test_accepts_ranges_and_empty_blocks(self):
        from_range = _seed_words(5, range(2, 4), (0,))
        from_list = _seed_words(5, [2, 3], [0])
        assert from_range.dtype == from_list.dtype == np.uint64
        np.testing.assert_array_equal(from_range, from_list)
        empty = _seed_words(5, [], [0, 1])
        assert (empty.dtype, empty.shape) == (np.dtype(np.uint64), (4, 2, 0))
        assert _generator_states(5, [], [0, 1]) == [[], []]

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master seed"):
            _seed_words(-1, [0], [0])

    @pytest.mark.parametrize("trials, keys", [([2**32], [0]), ([-1], [0]), ([0], [-1]),
                                              ([0.5], [0]), ([[0]], [0])])
    def test_words_must_fit_32_bits(self, trials, keys):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            _seed_words(3, trials, keys)


class TestSeedPool:
    """The master seed's pool, read from numpy's SeedSequence by every call."""

    # one zero word, then one, two, four, five and seven 32-bit words: the
    # spawn-key words' hash steps start at 16, 20 and 28
    SEEDS = [0, 7, 2**32 + 5, 2**128 - 3, 2**130 - 1, 2**200 + 99]

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_hit_and_miss_give_the_seed_sequence_rows(self, master_seed):
        # a first and a repeated call with one seed: nothing a call leaves
        # behind may change the next one's rows
        trials, keys = [0, 5, 2**32 - 1], [0, 1, 2]
        expected = [[_state_words(np.random.PCG64(substream(master_seed, trial, key)).state)
                     for trial in trials] for key in keys]
        first = _generator_states(master_seed, trials, keys)
        again = _generator_states(master_seed, trials, keys)
        assert first == again == expected


# The noise streams' substream keys, written out so that the oracle does not
# read them from the package.
NOISE_KEYS = {OVERLAPPED: 1, NON_OVERLAPPED: 2}


def _experiment(master_seed):
    return ExperimentConfig(n=9, k=3, et_db=(0.0,), master_seed=master_seed)


class TestStreamSeed:
    """The StreamSeed that montecarlo.noise_stream serves from its cache of
    seed-word blocks, against numpy's SeedSequence for the same (seed, trial, key)."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(master_seed=st.integers(0, 2**128 - 1), trial=st.integers(0, 2**32 - 1),
           variant=st.sampled_from(sorted(NOISE_KEYS)))
    # either side of a block boundary, and the last trial a word holds
    @example(master_seed=5, trial=255, variant=OVERLAPPED)
    @example(master_seed=5, trial=256, variant=NON_OVERLAPPED)
    @example(master_seed=2**128 - 1, trial=2**32 - 1, variant=NON_OVERLAPPED)
    def test_equals_seed_sequence(self, master_seed, trial, variant):
        seed = noise_stream(_experiment(master_seed), trial, variant)
        expected = substream(master_seed, trial, NOISE_KEYS[variant])
        got = seed.generate_state(4, np.uint64)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, expected.generate_state(4, np.uint64))
        rng = np.random.default_rng(seed)
        assert rng.bit_generator.state == np.random.default_rng(expected).bit_generator.state
        rng.normal(size=3)
        copy = pickle.loads(pickle.dumps(rng))
        np.testing.assert_array_equal(copy.normal(size=5), rng.normal(size=5))

    def test_words_are_a_copy(self):
        cfg = _experiment(3)
        words = noise_stream(cfg, 7, OVERLAPPED).generate_state(4, np.uint64)
        words[:] = 0
        assert noise_stream(cfg, 7, OVERLAPPED).generate_state(4, np.uint64).tolist() == (
            substream(3, 7, 1).generate_state(4, np.uint64).tolist())

    def test_other_requests_refused(self):
        seed = noise_stream(_experiment(3), 7, OVERLAPPED)
        assert isinstance(seed, ISeedSequence)
        assert not isinstance(seed, ISpawnableSeedSequence)
        assert not hasattr(seed, "spawn")
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64), (624, np.uint32)):
            with pytest.raises(TypeError, match=r"generate_state\(4, np\.uint64\) only"):
                seed.generate_state(n_words, dtype)
        # bit generators that ask for other words than PCG64's four
        for bit_generator in (np.random.MT19937, np.random.Philox, np.random.SFC64):
            with pytest.raises(TypeError, match=r"generate_state\(4, np\.uint64\) only"):
                bit_generator(seed)

    def test_pickled_seed_does_not_spawn(self):
        copy = pickle.loads(pickle.dumps(noise_stream(_experiment(9), 300, NON_OVERLAPPED)))
        rng = np.random.default_rng(copy)
        assert rng.bit_generator.state == (
            np.random.default_rng(substream(9, 300, 2)).bit_generator.state)
        assert not hasattr(copy, "spawn")
        if hasattr(rng, "spawn"):  # numpy releases with Generator.spawn ask the seed to spawn
            for spawner in (rng, rng.bit_generator):
                with pytest.raises(TypeError, match="does not implement spawning"):
                    spawner.spawn(2)

    def test_fresh_interpreter_takes_it_after_a_block(self):
        # unpickling does not register the class: a generator refuses the
        # seed until the process makes a block of seeds
        code = ("import pickle, sys, numpy\n"
                "seed = pickle.loads(sys.stdin.buffer.read())\n"
                "try:\n"
                "    numpy.random.default_rng(seed)\n"
                "except TypeError:\n"
                "    print('refused')\n"
                "from beamest.montecarlo import ExperimentConfig, noise_stream\n"
                "noise_stream(ExperimentConfig(n=9, k=3, et_db=(0.0,)), 0, 'overlapped')\n"
                "print(numpy.random.default_rng(seed).integers(2**62))")
        src = Path(__file__).resolve().parents[1] / "src"
        seed = noise_stream(_experiment(9), 300, NON_OVERLAPPED)
        done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(seed),
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        refused, drawn = done.stdout.split()
        assert refused == b"refused"
        assert int(drawn) == np.random.default_rng(substream(9, 300, 2)).integers(2**62)

    @pytest.mark.parametrize("trial", [-1, 2**32, 2**40])
    def test_trial_outside_32_bits_rejected(self, trial):
        with pytest.raises(ValueError, match=rf"trial index {trial} outside \[0, 2\*\*32\)"):
            noise_stream(_experiment(3), trial, OVERLAPPED)

    @pytest.mark.parametrize("variant", ["foo", "", None])
    def test_unknown_variant_rejected(self, variant):
        with pytest.raises(ValueError, match=f"unknown variant {variant!r}; expected one of"):
            noise_stream(_experiment(3), 0, variant)

    def test_cache_stays_bounded(self, fresh_blocks):
        words = fresh_blocks[0]
        seeds = 3 * montecarlo._CHANNEL_KEYS
        for seed in range(seeds):
            for trial in (0, 1000):
                noise_stream(_experiment(seed), trial, NON_OVERLAPPED)
        assert (words.cache_info().misses, words.cache_info().currsize) == (
            2 * seeds, montecarlo._CHANNEL_KEYS)
        # the last blocks asked for are kept, the first are not
        for seed in range(seeds - montecarlo._CHANNEL_KEYS // 2, seeds):
            for trial in (0, 1000):
                noise_stream(_experiment(seed), trial, OVERLAPPED)
        assert words.cache_info().misses == 2 * seeds
        noise_stream(_experiment(0), 1000, OVERLAPPED)
        assert words.cache_info().misses == 2 * seeds + 1
        block = montecarlo._block_words(seeds - 1, 768)
        assert block.shape == (4, 3, montecarlo._STREAM_BLOCK)
        assert not block.flags.writeable

    def test_threads_share_the_cache(self):
        # more threads than cores, switching often, each missing and evicting
        # blocks the others read, for channels and noise seeds alike
        configs = [_experiment(seed) for seed in range(2 * montecarlo._CHANNEL_KEYS)]

        def work(worker):
            rng = np.random.default_rng(worker)
            for _ in range(100):
                seed, trial = int(rng.integers(len(configs))), int(rng.integers(4096))
                variant = (OVERLAPPED, NON_OVERLAPPED)[int(rng.integers(2))]
                got = noise_stream(configs[seed], trial, variant).generate_state(4, np.uint64)
                expected = substream(seed, trial, NOISE_KEYS[variant])
                if got.tolist() != expected.generate_state(4, np.uint64).tolist():
                    return False
                if sample_channel(configs[seed], trial) != reference_channel(configs[seed], trial):
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
