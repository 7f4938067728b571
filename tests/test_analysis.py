import math
import sys

import numpy as np
import pytest
from scipy import integrate

from beamest.analysis import _rayleigh_terms, pcef_upper_bound
from beamest.codebook import identity_pattern_matrix, overlapped_pattern_matrix
from reference import pairwise_exceedance


def _pair_exceedance_mc(rho, n0, mean_mag, samples, seed):
    """Monte Carlo oracle for P(|r_mis| > |r_cor|) of the correlated pair."""
    rng = np.random.default_rng(seed)

    def cnormal(var):
        return (rng.normal(scale=np.sqrt(var / 2), size=samples)
                + 1j * rng.normal(scale=np.sqrt(var / 2), size=samples))

    shared = cnormal(n0 * rho)
    r_mis = rho * mean_mag + shared + cnormal(n0 * (1 - rho))
    r_cor = mean_mag + shared + cnormal(n0 * (1 - rho))
    p = float(np.mean(np.abs(r_mis) > np.abs(r_cor)))
    return p, math.sqrt(p * (1 - p) / samples)


class TestPairwiseFixedAlpha:
    def test_zero_gain_is_half(self):
        assert abs(pairwise_exceedance(0.3, 1.0, 1.0, 0.0) - 0.5) < 1e-14

    def test_uncorrelated_high_snr_vanishes(self):
        assert pairwise_exceedance(0.0, 1.0, 1.0, 12.0) < 1e-10

    def test_matches_monte_carlo(self):
        for seed, (rho, snr) in enumerate([(0.0, 0.5), (0.5, 2.0), (1 / np.sqrt(2), 8.0)]):
            predicted = pairwise_exceedance(rho, 1.0, 1.0, math.sqrt(snr))
            estimate, se = _pair_exceedance_mc(rho, 1.0, math.sqrt(snr),
                                               400_000, 100 + seed)
            assert abs(predicted - estimate) < 4 * se, (rho, snr)

    def test_monotone_decreasing_in_gain(self):
        values = [pairwise_exceedance(0.5, 1.0, 1.0, a) for a in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestPairwiseRayleigh:
    def test_equal_params_degenerate_half(self):
        # rho -> 1 would force the two squared parameters together; p_t = 0 does
        # the same through zero signal power
        assert _rayleigh_terms(0.4, 0.0, 1.0, 9.0) == 0.5

    def test_uncorrelated_high_snr_limit(self):
        assert _rayleigh_terms(0.0, 1e8, 1.0, 1.0) < 1e-7

    def test_in_half_open_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            value = _rayleigh_terms(float(rng.uniform(0, 0.999)), float(rng.uniform(0, 50)),
                                    1.0, float(rng.uniform(0, 50)))
            assert 0.0 < value <= 0.5

    def test_decreasing_as_rho_drops(self):
        values = [_rayleigh_terms(rho, 10.0, 1.0, 1.0) for rho in (0.9, 0.7, 0.5, 0.2, 0.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_matches_quadrature_of_fixed_alpha(self):
        for rho in (0.0, 0.5, 1 / np.sqrt(2)):
            for u in (1.0, 10.0, 100.0):
                def integrand(x):
                    density = (2 * x / u) * math.exp(-x * x / u)
                    return pairwise_exceedance(rho, 1.0, 1.0, x) * density

                expected, _ = integrate.quad(integrand, 0.0, 12.0 * math.sqrt(u), limit=200)
                assert abs(_rayleigh_terms(rho, 1.0, 1.0, u) - expected) < 1e-3, (rho, u)


class TestPcefUpperBound:
    def test_zero_power_clamps_to_one(self):
        # every non-self term is exactly 1/2
        b = overlapped_pattern_matrix(2)
        result = pcef_upper_bound(b, stages=3, p_t=0.0, n0=1.0, var_alpha=9.0)
        k = 3
        expected_raw = 3 / k ** 2 * (k ** 4 - k ** 2) * 0.5
        assert abs(result.raw_total - expected_raw) < 1e-12
        assert result.total == 1.0
        assert result.clamped

    def test_vanishes_at_high_snr(self):
        b = overlapped_pattern_matrix(2)
        result = pcef_upper_bound(b, stages=3, p_t=1e9, n0=1.0, var_alpha=1.0)
        assert result.total < 1e-6
        assert not result.clamped

    def test_total_is_stages_times_per_stage(self):
        b = overlapped_pattern_matrix(3)
        result = pcef_upper_bound(b, stages=4, p_t=5.0, n0=1.0, var_alpha=2.0)
        assert abs(result.raw_total - 4 * result.per_stage) < 1e-14

    def test_terms_grid_structure(self):
        b = overlapped_pattern_matrix(2)
        result = pcef_upper_bound(b, stages=1, p_t=2.0, n0=1.0, var_alpha=3.0)
        assert result.terms.shape == (9, 9)
        assert np.all(np.diag(result.terms) == 0)
        off = result.terms[~np.eye(9, dtype=bool)]
        assert np.all((off > 0) & (off <= 0.5))
        # spot-check one term against the closed form at that pair's rho
        gram = b.gram
        rho = gram[0, 1] * gram[2, 2]  # true pair (1, 2), candidate (0, 2)
        scalar = _rayleigh_terms(float(rho), 2.0, 1.0, 3.0)
        assert abs(result.terms[1 * 3 + 2, 0 * 3 + 2] - scalar) < 1e-14

    def test_union_structure_matches_manual_sum(self):
        b = identity_pattern_matrix(3)
        result = pcef_upper_bound(b, stages=2, p_t=1.0, n0=1.0, var_alpha=4.0)
        term_rho0 = _rayleigh_terms(0.0, 1.0, 1.0, 4.0)
        # identity patterns: every one of the 72 non-self pairs has rho = 0
        assert abs(result.per_stage - 72 * term_rho0 / 9) < 1e-12

    def test_grid_rows_are_single_points(self):
        # one power is a grid of one point; its per-stage bound is its term
        # matrix summed whole, diagonal zeros included
        b = overlapped_pattern_matrix(3)
        powers = [0.0, 0.5, 2.0, 1e9]
        grid = pcef_upper_bound(b, stages=3, p_t=np.array(powers), n0=1.0, var_alpha=4.0)
        assert grid.terms is None
        for i, p_t in enumerate(powers):
            one = pcef_upper_bound(b, stages=3, p_t=p_t, n0=1.0, var_alpha=4.0)
            assert one.per_stage == float(one.terms.sum() / 49)
            assert repr((one.per_stage, one.raw_total, one.total, one.clamped)) == repr((
                grid.per_stage[i].item(), grid.raw_total[i].item(), grid.total[i].item(),
                grid.clamped[i].item()))

    @pytest.mark.parametrize("patterns", [
        overlapped_pattern_matrix(2), identity_pattern_matrix(3), overlapped_pattern_matrix(3),
        identity_pattern_matrix(7)], ids=["k3-overlapped", "k3-identity", "k7-overlapped",
                                          "k7-identity"])
    def test_cached_correlation_layout_is_a_fresh_unique(self, patterns):
        # the bound reads rho's distinct values and their layout from the
        # pattern matrix, made once; they must be what np.unique gives afresh
        k2 = patterns.k ** 2
        rho, inverse = np.unique(patterns.pair_correlations, return_inverse=True)
        layout = np.full(k2 * k2, len(rho))
        layout[~np.eye(k2, dtype=bool).reshape(-1)] = inverse.reshape(-1)
        cached_rho, cached_layout = patterns.distinct_correlations
        for cached, fresh in ((cached_rho, rho), (cached_layout, layout)):
            assert (cached.dtype, cached.shape) == (fresh.dtype, fresh.shape)
            assert cached.tobytes() == fresh.tobytes()
            assert not cached.flags.writeable
        assert patterns.distinct_correlations[1] is cached_layout

    def test_largest_prior_the_closed_form_takes(self):
        # p_t var_alpha / n0 / 2 at the largest float whose square is finite
        # gives finite terms below 1/2; one float more is rejected
        largest = 2.0 * math.sqrt(sys.float_info.max)
        patterns = overlapped_pattern_matrix(2)
        result = pcef_upper_bound(patterns, stages=3, p_t=1.0, n0=1.0, var_alpha=largest)
        off = result.terms[~np.eye(len(result.terms), dtype=bool)]
        assert np.isfinite(off).all() and (off < 0.5).all()
        with pytest.raises(ValueError, match="var_alpha: gain prior variance .* too large"):
            pcef_upper_bound(patterns, stages=3, p_t=1.0, n0=1.0,
                             var_alpha=math.nextafter(largest, math.inf))
        with pytest.raises(ValueError, match="var_alpha"):
            pcef_upper_bound(patterns, stages=3, p_t=[0.0, 1e-300, 4.0], n0=0.5,
                             var_alpha=largest / 4.0)

    def test_bad_stage_count(self):
        with pytest.raises(ValueError):
            pcef_upper_bound(overlapped_pattern_matrix(2), stages=0, p_t=1.0,
                             n0=1.0, var_alpha=1.0)

    @pytest.mark.parametrize("key, value", [
        ("n0", 0.0), ("n0", -1.0), ("n0", np.nan), ("p_t", np.nan), ("p_t", np.inf),
        ("p_t", -1.0), ("p_t", np.array([1.0, np.nan])), ("var_alpha", -5.0),
        ("var_alpha", np.inf), ("var_alpha", 1e308), ("stages", 2.5), ("stages", True)])
    def test_inputs_that_make_the_bound_nan_rejected(self, key, value):
        # each once gave a NaN total, a clamped 1.0, a silently used stage
        # count or, at var_alpha = 1e308, pairwise terms of 1/2 from an
        # overflowed square
        inputs = dict(stages=3, p_t=1.0, n0=1.0, var_alpha=4.0)
        inputs[key] = value
        with pytest.raises(ValueError, match=key):
            pcef_upper_bound(overlapped_pattern_matrix(2), **inputs)
