import json
import math
import pickle
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from reference import reference_search
from test_golden import _integers

from beamest import estimator, montecarlo
from beamest.arrays import ChannelRealization, MeasurementNoise, substream
from beamest.codebook import identity_pattern_matrix, overlapped_pattern_matrix
from beamest.estimator import (
    NON_OVERLAPPED,
    OVERLAPPED,
    PILOT,
    Design,
    EstimatorConfig,
    estimate_alpha_mmse,
    fuse_measurements,
    run_estimation,
    search_batch,
    VARIANTS,
    codebook_bank,
    select_path,
    stage_count,
    trace_record,
    write_trace_records,
)

SQ2 = 1.0 / np.sqrt(2.0)


def _config(n=27, k=3, p_t=1.0, n0=0.0, var_alpha=729.0, **kw):
    return EstimatorConfig(n=n, k=k, p_t=p_t, n0=n0, var_alpha=var_alpha, **kw)


class TestCounts:
    def test_stage_count(self):
        assert stage_count(27, 3) == 3
        assert stage_count(3, 3) == 1
        assert stage_count(2401, 7) == 4

    def test_stage_count_rejects_non_powers(self):
        for n in (10, 28, 2, 26):
            with pytest.raises(ValueError):
                stage_count(n, 3)

    def test_patterns_per_end(self):
        assert Design(3, 3, OVERLAPPED).m == 2
        assert Design(7, 7, OVERLAPPED).m == 3
        assert Design(3, 3, NON_OVERLAPPED).m == 3
        with pytest.raises(ValueError):
            Design(4, 4, OVERLAPPED)

    def test_slot_counts(self):
        # overlapped needs log2(k+1)^2 slots a stage instead of k^2
        assert Design(27, 3, OVERLAPPED).slots == 12
        assert Design(27, 3, NON_OVERLAPPED).slots == 27
        assert Design(2401, 7, OVERLAPPED).slots == 36
        assert Design(2401, 7, NON_OVERLAPPED).slots == 196


class TestFuseMeasurements:
    def test_zero_block(self):
        r = fuse_measurements(np.zeros((2, 2), dtype=complex), overlapped_pattern_matrix(2))
        assert np.all(r == 0)
        assert r.shape == (3, 3)

    def test_identity_block_entry(self):
        r = fuse_measurements(np.eye(2, dtype=complex), overlapped_pattern_matrix(2))
        assert abs(r[0, 0] - 1.0) < 1e-15

    def test_matches_kron_signature_correlation(self):
        rng = np.random.default_rng(11)
        b = overlapped_pattern_matrix(3)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        r = fuse_measurements(y, b)
        vec_y = y.reshape(-1, order="F")
        for kr in range(7):
            for kt in range(7):
                sig = np.kron(b.values[:, kt], b.values[:, kr])
                assert abs(r[kr, kt] - sig @ vec_y) < 1e-12

    def test_identity_patterns_pass_block_through(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        r = fuse_measurements(y, identity_pattern_matrix(3))
        np.testing.assert_allclose(r, y, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fuse_measurements(np.zeros((3, 3), dtype=complex), overlapped_pattern_matrix(2))

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("n0", [0.7, 0.0])
    def test_identity_patterns_match_product(self, k, n0):
        # P = I fuses to a copy of the blocks, which must carry exactly the
        # bytes of the generic (P^T y) P at every stack shape
        patterns = identity_pattern_matrix(k)
        p = patterns.values
        source = MeasurementNoise(n0, k)
        for shape in [(50, 3), (1, 4), ()]:
            y = source.draw_blocks(1, (*shape, k, k))[0]
            fused = fuse_measurements(y, patterns)
            expected = np.array([p.T @ block @ p for block in y.reshape(-1, k, k)])
            assert fused.shape == y.shape
            assert fused.dtype == expected.dtype
            assert fused.tobytes() == expected.tobytes()
            assert not np.shares_memory(fused, y)

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("variant", [OVERLAPPED, NON_OVERLAPPED])
    def test_stack_matches_block_by_block(self, k, variant):
        # the whole stack goes through two 2-D products; every block must get
        # exactly the bytes of its own (P^T y) P
        patterns = Design(k, k, variant).patterns
        p, m = patterns.values, patterns.m
        rng = np.random.default_rng(k)
        for shape in [(1, 3), (40, 3), (7, 4), (5,)]:
            y = rng.normal(size=(*shape, m, m)) + 1j * rng.normal(size=(*shape, m, m))
            fused = fuse_measurements(y, patterns)
            expected = np.array([p.T @ block @ p for block in y.reshape(-1, m, m)])
            assert fused.shape == (*shape, k, k)
            assert fused.tobytes() == expected.tobytes()


class TestSelectPath:
    def test_single_peak(self):
        r = np.zeros((4, 4), dtype=complex)
        r[2, 3] = 5.0 - 1.0j
        assert select_path(r) == (2, 3)

    def test_tie_break_lexicographic(self):
        assert select_path(np.ones((3, 3), dtype=complex)) == (0, 0)
        # on a stack, every block keeps its first flat index among equal magnitudes
        r = np.zeros((6, 5, 3, 3), dtype=complex)
        r[..., 2, 1] = r[..., 1, 2] = 4.0
        r[2, 3, 0, 2] = r[2, 3, 2, 0] = -5.0j
        kr, kt = select_path(r)
        assert kr.shape == kt.shape == (6, 5)
        expected_kr, expected_kt = np.ones((6, 5), int), np.full((6, 5), 2)
        expected_kr[2, 3], expected_kt[2, 3] = 0, 2
        np.testing.assert_array_equal(kr, expected_kr)
        np.testing.assert_array_equal(kt, expected_kt)

    def test_nan_rejected(self):
        r = np.zeros((2, 2), dtype=complex)
        r[0, 1] = np.nan
        with pytest.raises(ValueError):
            select_path(r)
        # a non-finite entry off its block's peak, in one block of many
        for bad in (np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)):
            r = np.ones((40, 3, 3, 3), dtype=complex)
            r[..., 0, 0] = 10.0
            r[-1, -1, 0, 1] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                select_path(r)

    def test_magnitude_not_real_part(self):
        r = np.array([[1.0 + 0j, -3.0j], [0.5, 0.1]])
        assert select_path(r) == (0, 1)


class TestAlphaEstimators:
    def test_closed_form_value(self):
        # three stages of clean measurements, alpha = 2:
        # var * sqrt(p) * sum / (s * var * p + n0) = 4 * 6 / 13
        values = [2.0 + 0j] * 3
        est = estimate_alpha_mmse(values, p_t=1.0, pilot=1.0, n0=1.0, var_alpha=4.0)
        assert abs(est - 24.0 / 13.0) < 1e-14

    def test_matches_full_matrix_inverse(self):
        rng = np.random.default_rng(21)
        s, p_t, n0, var = 4, 2.5, 0.7, 3.0
        pilot = np.exp(0.3j)
        values = rng.normal(size=s) + 1j * rng.normal(size=s)
        ones = np.ones((s, 1))
        cov = var * p_t * (ones @ ones.conj().T) + n0 * np.eye(s)
        expected = (var * np.sqrt(p_t) * np.conj(pilot)
                    * (ones.conj().T @ np.linalg.solve(cov, values.reshape(-1, 1))))[0, 0]
        est = estimate_alpha_mmse(values, p_t, pilot, n0, var)
        assert abs(est - expected) < 1e-12

    def test_noiseless_single_stage_limit(self):
        alpha = 1.3 - 0.4j
        value = np.sqrt(2.0) * alpha  # sqrt(p_t) * pilot * alpha
        est = estimate_alpha_mmse([value], p_t=2.0, pilot=1.0, n0=0.0, var_alpha=5.0)
        assert abs(est - alpha) < 1e-14

    def test_zero_prior_gives_zero(self):
        est = estimate_alpha_mmse([3.0 + 1j], p_t=1.0, pilot=1.0, n0=1.0, var_alpha=0.0)
        assert est == 0

    def test_degenerate_prior_and_noise_rejected(self):
        for p_t in (1.0, np.array([1.0, 2.0])):  # one power, and a batch of them
            with pytest.raises(ValueError, match="cannot both be zero"):
                estimate_alpha_mmse([1.0], p_t=p_t, pilot=1.0, n0=0.0, var_alpha=0.0)

    @pytest.mark.parametrize("p_t", [np.nan, np.inf])
    def test_non_finite_power_rejected(self, p_t):
        with pytest.raises(ValueError, match="power constant is NaN or infinite"):
            estimate_alpha_mmse([1.0], p_t=p_t, pilot=1.0, n0=1.0, var_alpha=2.0)

    def test_final_stage_is_single_value_mmse(self):
        # the sweeps' last-stage estimate is the MMSE estimate of the last value alone
        value = 0.3 + 2.0j
        a = estimate_alpha_mmse(np.array([1.0 - 1.0j, value])[..., -1:], 1.5, 1.0, 0.4, 2.0)
        b = estimate_alpha_mmse([value], 1.5, 1.0, 0.4, 2.0)
        assert a == b

    def test_shrinkage_bound(self):
        value, p_t = 4.0 - 3.0j, 2.0
        est = estimate_alpha_mmse([value], p_t, 1.0, 0.8, 6.0)
        assert abs(est) <= abs(value) / np.sqrt(p_t) + 1e-12

    def test_mmse_beats_final_stage_on_average(self):
        # synthetic selected measurements: value_s = sqrt(p) alpha + noise
        rng = np.random.default_rng(31)
        trials, s, p_t, n0, var = 10_000, 3, 10.0, 1.0, 1.0
        alpha = np.sqrt(var / 2) * (rng.normal(size=trials) + 1j * rng.normal(size=trials))
        noise = np.sqrt(n0 / 2) * (rng.normal(size=(trials, s)) + 1j * rng.normal(size=(trials, s)))
        values = np.sqrt(p_t) * alpha[:, None] + noise
        err_mmse = np.empty(trials)
        err_final = np.empty(trials)
        for t in range(trials):
            mm = estimate_alpha_mmse(values[t], p_t, 1.0, n0, var)
            fi = estimate_alpha_mmse(values[t, -1:], p_t, 1.0, n0, var)
            err_mmse[t] = abs(mm - alpha[t]) / abs(alpha[t])
            err_final[t] = abs(fi - alpha[t]) / abs(alpha[t])
        assert err_mmse.mean() < err_final.mean()


class TestRunEstimation:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(41)
        cfg = _config()
        for _ in range(100):
            ch = ChannelRealization(theta=int(rng.integers(27)), phi=int(rng.integers(27)),
                                    alpha=complex(rng.normal(), rng.normal()), n=27)
            trace = run_estimation(ch, cfg)
            assert (trace.theta_hat, trace.phi_hat) == (ch.theta, ch.phi)

    def test_trace_structure(self):
        ch = ChannelRealization(theta=4, phi=22, alpha=1.0 + 1j, n=27)
        trace = run_estimation(ch, _config())
        assert len(trace.selections) == len(trace.selected_values) == 3
        for kr, kt in trace.selections:
            assert 0 <= kr < 3 and 0 <= kt < 3
        assert Design(27, 3, OVERLAPPED).slots == 12

    def test_stage_structure_large_grid(self):
        assert stage_count(2401, 7) == 4
        assert Design(2401, 7, OVERLAPPED).m ** 2 == 9
        assert Design(2401, 7, OVERLAPPED).slots == 36

    def test_alpha_recovered_noiseless(self):
        ch = ChannelRealization(theta=9, phi=13, alpha=2.0 - 1.0j, n=27)
        trace = run_estimation(ch, _config())
        assert abs(trace.alpha_hat - ch.alpha) < 1e-9

    def test_index_reconstruction_matches_selected_path(self):
        rng = np.random.default_rng(43)
        cfg = _config(n0=5.0, p_t=0.05)  # noisy enough to scatter selections
        for trial in range(50):
            ch = ChannelRealization(theta=int(rng.integers(27)), phi=int(rng.integers(27)),
                                    alpha=complex(rng.normal(), rng.normal()), n=27)
            trace = run_estimation(ch, cfg, substream(5, trial))
            places = [3 ** (3 - s) for s in range(1, 4)]
            receive, transmit = zip(*trace.selections)
            assert np.dot(receive, places) == trace.theta_hat
            assert np.dot(transmit, places) == trace.phi_hat

    def test_correct_value_matches_link_budget(self):
        # noiseless fused value of the true pair: alpha sqrt(p_s) C_s^2 = alpha sqrt(p_t)
        alpha = 1.7 - 0.3j
        ch = ChannelRealization(theta=12, phi=25, alpha=alpha, n=27)
        cfg = _config(p_t=4.0)
        trace = run_estimation(ch, cfg)
        for value in trace.selected_values:
            assert abs(value - alpha * np.sqrt(4.0)) < 1e-9

    def test_mismatch_attenuation_noiseless(self):
        rng = np.random.default_rng(44)
        cfg = _config()
        for _ in range(20):
            ch = ChannelRealization(theta=int(rng.integers(27)), phi=int(rng.integers(27)),
                                    alpha=complex(rng.normal(), rng.normal()), n=27)
            for _, r, kr, kt in reference_search(ch, cfg, 0):
                magnitudes = np.abs(r)
                correct = magnitudes[kr, kt]
                magnitudes[kr, kt] = 0.0
                assert magnitudes.max() <= correct * (SQ2 + 1e-9)

    def test_noiseless_fused_magnitudes_follow_correlation_products(self):
        # |r[kr, kt]| = |alpha| sqrt(p_t) * gram[kr, kr'] * gram[kt', kt] exactly
        gram = overlapped_pattern_matrix(2).gram
        rng = np.random.default_rng(45)
        cfg = _config(p_t=2.0)
        for _ in range(10):
            ch = ChannelRealization(theta=int(rng.integers(27)), phi=int(rng.integers(27)),
                                    alpha=complex(rng.normal(), rng.normal()), n=27)
            scale = abs(ch.alpha) * np.sqrt(2.0)
            for _, r, kr_true, kt_true in reference_search(ch, cfg, 0):
                expected = scale * np.outer(gram[:, kr_true], gram[kt_true, :])
                np.testing.assert_allclose(np.abs(r), expected, atol=1e-9)

    def test_noise_seed_reproducibility(self):
        ch = ChannelRealization(theta=3, phi=18, alpha=0.5 + 0.5j, n=27)
        cfg = _config(n0=1.0, p_t=0.1)
        a = run_estimation(ch, cfg, substream(7, 0))
        b = run_estimation(ch, cfg, substream(7, 0))
        assert a.selections == b.selections
        assert a.selected_values == b.selected_values

    def test_channel_config_size_mismatch(self):
        ch = ChannelRealization(theta=0, phi=0, alpha=1.0, n=9)
        with pytest.raises(ValueError):
            run_estimation(ch, _config(n=27))


class TestSingleTrialEntry:
    """``run_estimation`` skips the checks ``search_batch`` makes on raw
    arrays; it must still pick and estimate exactly what ``search_batch``
    does on one trial and one power point."""

    @pytest.mark.parametrize("geometry", [(27, 3), (343, 7)])
    @pytest.mark.parametrize("variant", [OVERLAPPED, NON_OVERLAPPED])
    @pytest.mark.parametrize("n0", [0.0, 1.0])
    def test_equals_search_batch(self, geometry, variant, n0):
        n, k = geometry
        # 10 dB: some trials find the true pair and some leave it
        p_t = montecarlo.power_for_energy(montecarlo.energy_from_db(10.0), n, k, variant)
        cfg = _config(n=n, k=k, p_t=p_t, n0=n0, var_alpha=float(n * n), variant=variant)
        m = cfg.design.m
        rng = np.random.default_rng(n + k)
        found = 0
        for trial in range(40):
            ch = ChannelRealization(theta=int(rng.integers(n)), phi=int(rng.integers(n)),
                                    alpha=complex(*rng.normal(scale=n / np.sqrt(2), size=2)),
                                    n=n)
            trace = run_estimation(ch, cfg, substream(11, trial))
            noise = MeasurementNoise(n0, substream(11, trial)).draw_blocks(cfg.design.stages,
                                                                           (m, m))
            batch = search_batch(cfg.design, [p_t], [ch.theta], [ch.phi], [ch.alpha], noise[None])
            assert trace.selections == tuple(zip(batch.receive[0, 0].tolist(),
                                                 batch.transmit[0, 0].tolist()))
            assert (trace.theta_hat, trace.phi_hat) == (batch.theta_hat[0, 0],
                                                        batch.phi_hat[0, 0])
            values = batch.values[0, 0]
            assert np.array(trace.selected_values).tobytes() == values.tobytes()
            expected = estimate_alpha_mmse(values, p_t, PILOT, n0, cfg.var_alpha)
            assert np.array(trace.alpha_hat).tobytes() == np.array(expected).tobytes()
            found += bool(batch.on_track[0, 0])
        assert 0 < found < 40 if n0 else found == 40

    def test_cached_arrays_are_read_only(self):
        cfg = _config()
        ch = ChannelRealization(theta=4, phi=20, alpha=3 - 2j, n=27)
        run_estimation(ch, cfg)
        batch = search_batch(cfg.design, [1.0], [4], [20], [3 - 2j],
                             np.zeros((1, 3, 2, 2), complex))
        assert batch.places is cfg.design.places
        for array in (cfg.design.places, cfg.design.patterns.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestRunBaseline:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(51)
        cfg = replace(_config(), variant=NON_OVERLAPPED)
        for _ in range(100):
            ch = ChannelRealization(theta=int(rng.integers(27)), phi=int(rng.integers(27)),
                                    alpha=complex(rng.normal(), rng.normal()), n=27)
            trace = run_estimation(ch, cfg)
            assert (trace.theta_hat, trace.phi_hat) == (ch.theta, ch.phi)

    def test_uses_k_squared_slots(self):
        ch = ChannelRealization(theta=1, phi=2, alpha=1.0, n=27)
        baseline = replace(_config(), variant=NON_OVERLAPPED)
        trace = run_estimation(ch, baseline)
        assert len(trace.selections) == baseline.design.stages == 3
        assert baseline.design.m ** 2 == 9
        assert baseline.design.slots == 27

    def test_fused_equals_raw_block(self):
        ch = ChannelRealization(theta=7, phi=16, alpha=1.0 - 2.0j, n=27)
        cfg = _config(n0=0.3, variant=NON_OVERLAPPED)
        reference = reference_search(ch, cfg, substream(9))
        for y, r, _, _ in reference:
            np.testing.assert_allclose(r, y, atol=1e-13)
        trace = run_estimation(ch, replace(_config(n0=0.3), variant=NON_OVERLAPPED), substream(9))
        assert list(trace.selections) == [(kr, kt) for _, _, kr, kt in reference]

    def test_off_path_entries_vanish_noiseless(self):
        ch = ChannelRealization(theta=7, phi=16, alpha=1.0 - 2.0j, n=27)
        for _, r, kr, kt in reference_search(ch, _config(variant=NON_OVERLAPPED), 0):
            magnitudes = np.abs(r)
            correct = magnitudes[kr, kt]
            magnitudes[kr, kt] = 0.0
            assert magnitudes.max() < 1e-9 * correct


class TestDesign:
    """The constants of every table1 geometry, n = k .. k^4 at k = 3 and 7."""

    GEOMETRIES = [(k ** s, k) for k in (3, 7) for s in range(1, 5)]

    def test_slots_are_the_table1_rows(self):
        rows = ["k,n,overlapped,non_overlapped"] + [
            f"{k},{n},{Design(n, k, OVERLAPPED).slots},{Design(n, k, NON_OVERLAPPED).slots}"
            for n, k in self.GEOMETRIES]
        golden = json.loads(Path(__file__).with_name("golden.json").read_text())
        pinned = golden["runs"]["sweep_table1"]["slot_counts.csv"]["integers"]
        assert _integers("\n".join(rows).encode()) == pinned

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n, k", GEOMETRIES)
    def test_constants(self, n, k, variant):
        design = Design(n, k, variant)
        m = {3: 2, 7: 3}[k] if variant == OVERLAPPED else k
        stages = round(math.log(n, k))
        assert (design.n, design.k, design.variant) == (n, k, variant)
        assert (design.m, design.stages, design.slots) == (m, stages, stages * m * m)
        assert design.patterns.values.shape == (m, k)
        assert design.gains == tuple(math.sqrt(m * k ** (s - 1) / n) for s in range(1, stages + 1))
        assert design.places.tolist() == [k ** (stages - s) for s in range(1, stages + 1)]
        # the weight power_for_energy divided by: slots per stage times sum C_s^-4
        weight = m * m * sum(math.sqrt(m * k ** s / n) ** -4 for s in range(stages))
        energies = np.array([1e-3, 1.0, 819.0, 1e6])
        powers = montecarlo.power_for_energy(energies, n, k, variant)
        assert powers.tobytes() == (energies / weight).tobytes()
        assert montecarlo.power_for_energy(819.0, n, k, variant) == 819.0 / weight

    def test_memoized_frozen_and_pickled_as_its_triple(self):
        design = Design(27, 3)
        assert Design(np.int64(27), np.int64(3), OVERLAPPED) is design
        assert pickle.loads(pickle.dumps(design)) is design
        with pytest.raises(FrozenInstanceError):
            design.m = 3
        for array in (design.places, design.patterns.values):
            assert not array.flags.writeable


# One case per geometry rejection: (n, k, variant, message naming the field).
GEOMETRY_REJECTIONS = {
    "k-below-2": (9, 1, OVERLAPPED, "sub-range count must be at least 2, got 1"),
    "n-below-k": (2, 3, OVERLAPPED, "antenna count 2 must be at least k = 3"),
    "n-not-a-power-of-k": (26, 3, NON_OVERLAPPED, "antenna count 26 is not a power of 3"),
    "overlapped-k-not-2^m-1": (16, 4, OVERLAPPED,
                               r"overlapped design needs k = 2\^m - 1 sub-ranges, got k = 4"),
    "unknown-variant": (27, 3, "diagonal", "unknown variant 'diagonal'"),
    "bool-n": (True, 3, OVERLAPPED, "n must be an integer, got True"),
    "bool-k": (27, True, OVERLAPPED, "k must be an integer, got True"),
    "float-n": (27.0, 3, OVERLAPPED, r"n must be an integer, got 27\.0"),
    "float-k": (27, 3.0, OVERLAPPED, r"k must be an integer, got 3\.0"),
}

# Everything that builds a geometry from (n, k, variant); bound_table is the
# overlapped design's alone.
GEOMETRY_BUILDERS = {
    "EstimatorConfig": lambda n, k, variant: EstimatorConfig(
        n=n, k=k, p_t=1.0, n0=1.0, var_alpha=1.0, variant=variant),
    "ExperimentConfig": lambda n, k, variant: montecarlo.ExperimentConfig(
        n=n, k=k, et_db=(10.0,), variants=(variant,)),
    "bound_table": lambda n, k, variant: montecarlo.bound_table(n, k, (10.0,)),
    "codebook_bank": codebook_bank,
}


class TestConfigValidation:
    @pytest.mark.parametrize("case, builder", [
        pytest.param(case, builder, id=f"{case}-{builder}")
        for case in GEOMETRY_REJECTIONS for builder in GEOMETRY_BUILDERS
        if (case, builder) != ("unknown-variant", "bound_table")])
    def test_geometry_rejected(self, case, builder):
        n, k, variant, message = GEOMETRY_REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            GEOMETRY_BUILDERS[builder](n, k, variant)

    def test_overlapped_needs_power_of_two_minus_one(self):
        with pytest.raises(ValueError):
            _config(n=16, k=4)

    def test_baseline_accepts_any_k(self):
        cfg = _config(n=16, k=4, variant=NON_OVERLAPPED)
        assert cfg.design.m == 4

    def test_grid_must_be_power_of_k(self):
        with pytest.raises(ValueError):
            _config(n=26, k=3)

    @pytest.mark.parametrize("key", ["n0", "var_alpha"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_noise_and_prior_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} is NaN or infinite"):
            _config(**{key: value})

    def test_bad_variant_names(self):
        with pytest.raises(ValueError):
            _config(variant="diagonal")

    @pytest.mark.parametrize("key, value", [
        ("p_t", [1.0, 2.0]), ("p_t", np.array([2.0])), ("p_t", "3"), ("p_t", True),
        ("n0", True), ("var_alpha", True), ("n", 27.0), ("k", 3.0), ("k", True)])
    def test_non_scalar_or_bool_numbers_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be (a real number|an integer), got "):
            _config(**{key: value})

    def test_numpy_scalars_accepted(self):
        ch = ChannelRealization(theta=4, phi=20, alpha=3 - 2j, n=27)
        plain = _config(k=3, p_t=2.0, n0=0.5, var_alpha=9.0)
        scalars = _config(k=np.int64(3), p_t=np.float64(2.0), n0=np.float64(0.5),
                          var_alpha=np.float64(9.0))
        assert vars(run_estimation(ch, plain, 3)) == vars(run_estimation(ch, scalars, 3))

    def test_geometry_computed_once(self, monkeypatch):
        calls = []

        def counting_stage_count(n, k):
            calls.append((n, k))
            return stage_count(n, k)

        monkeypatch.setattr(estimator, "stage_count", counting_stage_count)
        estimator._design.cache_clear()  # designs are memoized per process
        cfg = _config(n0=1.0)
        channel = ChannelRealization(theta=4, phi=20, alpha=3 - 2j, n=27)
        for seed in range(3):
            run_estimation(channel, cfg, seed)
        assert _config(p_t=2.0).design is cfg.design
        assert cfg.design.slots == 12
        assert calls == [(27, 3)]


class TestTraceRecords:
    def test_record_roundtrip(self, tmp_path):
        ch = ChannelRealization(theta=5, phi=6, alpha=1.0 + 2.0j, n=9)
        cfg = _config(n=9, var_alpha=81.0)
        trace = run_estimation(ch, cfg)
        record = trace_record(trace, ch, trial=7, seed=42)
        assert record["correct"] is True
        assert record["theta"] == 5 and record["phi_hat"] == 6
        assert complex(record["alpha"]) == 1.0 + 2.0j
        path = tmp_path / "traces.jsonl"
        write_trace_records(path, [record])
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded == [json.loads(json.dumps(record))]

    def test_gain_estimate_is_all_stage_mmse(self):
        ch = ChannelRealization(theta=2, phi=3, alpha=0.7 + 0.1j, n=9)
        cfg = _config(n=9, var_alpha=81.0, n0=1.0, p_t=0.5)
        trace = run_estimation(ch, cfg, substream(1))
        expected = estimate_alpha_mmse(trace.selected_values, 0.5, PILOT, 1.0, 81.0)
        assert trace.alpha_hat == expected
        assert trace.alpha_hat != estimate_alpha_mmse(trace.selected_values[-1:], 0.5,
                                                      PILOT, 1.0, 81.0)
