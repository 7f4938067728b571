import math

import numpy as np
import pytest
from scipy import integrate

from beamest.analysis import (
    PairwiseContext,
    SelfTermError,
    bessel_i0,
    marcum_q1,
    pairwise_error_fixed_alpha,
    pairwise_error_rayleigh,
    pcef_upper_bound,
)
from beamest.codebook import identity_pattern_matrix, overlapped_pattern_matrix

# high-precision references computed from the defining power series / integral
# with mpmath (dps = 40)
I0_REFERENCE = {
    0.0: 1.0,
    1.0: 1.2660658777520083356,
    20.5: 70922869.834317006649,
}
Q1_REFERENCE = {
    (1.0, 2.0): 0.26901206003590999668,
    (0.5, 0.1): 0.99559715387918155395,
    (10.0, 11.0): 0.17047921351305235396,
    (40.0, 45.0): 3.0468977496680865648e-7,
    (50.0, 50.0): 0.50398962232005424592,
    (3.0, 1.0): 0.98917055017845214902,
}


def _marcum_quadrature(a, b):
    """Independent oracle: numerically integrate the defining Rician tail.

    The interval is subdivided near the lower limit because most of the mass
    sits within a few units of it; accuracy degrades in the extreme tail, so
    callers only use this oracle where the value is not astronomically small.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a, b = mp.mpf(a), mp.mpf(b)
    integrand = lambda x: x * mp.exp(-(x * x + a * a) / 2) * mp.besseli(0, a * x)
    nodes = [b, b + mp.mpf(1) / 4, b + 1, b + 2, b + 4, b + 8, b + 60]
    return float(mp.quad(integrand, nodes))


def _marcum_poisson_mixture(a, b):
    """Second independent oracle: Poisson-weighted chi-square tail mixture.

    Exact representation built from exponentials and factorials only, so it
    shares no machinery with the Bessel-series implementation under test.
    The term count covers the Poisson bulk (mean a^2/2) with a wide margin.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    a, b = mp.mpf(a), mp.mpf(b)
    half_a2, half_b2 = a * a / 2, b * b / 2
    terms = int(half_a2 + 30 * mp.sqrt(half_a2 + 1) + 100)
    total = mp.mpf(0)
    pois = mp.e ** (-half_a2)            # Poisson(n; a^2/2) weight, n = 0
    chi_term = mp.e ** (-half_b2)        # (b^2/2)^n e^{-b^2/2} / n!
    chi_tail = chi_term                  # P(chi2_{2(n+1)} > b^2)
    for n in range(terms):
        total += pois * chi_tail
        pois = pois * half_a2 / (n + 1)
        chi_term = chi_term * half_b2 / (n + 1)
        chi_tail += chi_term
    return float(total)


class TestBesselI0:
    def test_reference_values(self):
        for z, expected in I0_REFERENCE.items():
            assert abs(bessel_i0(z) - expected) <= 1e-12 * expected

    def test_power_series_agreement(self):
        # sum_k (z^2/4)^k / (k!)^2, summed exactly enough at small z
        for z in (0.25, 1.0, 3.0, 7.5):
            term, total = 1.0, 0.0
            for k in range(80):
                total += term
                term *= (z * z / 4.0) / ((k + 1) ** 2)
            assert abs(bessel_i0(z) - total) <= 1e-12 * total

    def test_even_function(self):
        for z in (0.3, 2.0, 11.0, 600.0):
            assert bessel_i0(-z) == bessel_i0(z)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i0(700.5)
        bessel_i0(700.0)  # boundary still in range

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0(float("nan"))


class TestMarcumQ1:
    def test_exact_edges(self):
        assert marcum_q1(0.0, 0.0) == 1.0
        assert marcum_q1(5.0, 0.0) == 1.0

    def test_zero_noncentrality_is_gaussian_tail(self):
        for b in (0.1, 1.0, 3.0, 10.0):
            assert abs(marcum_q1(0.0, b) - math.exp(-b * b / 2)) < 1e-14

    def test_frozen_references(self):
        for (a, b), expected in Q1_REFERENCE.items():
            assert abs(marcum_q1(a, b) - expected) <= 1e-10 * expected

    def test_against_poisson_mixture_oracle(self):
        grid = [(0.3, 0.7), (1.0, 2.0), (2.0, 1.0), (5.0, 5.5), (12.0, 10.0),
                (20.0, 25.0), (35.0, 30.0), (49.0, 50.0), (2.0, 20.0)]
        for a, b in grid:
            expected = _marcum_poisson_mixture(a, b)
            assert abs(marcum_q1(a, b) - expected) <= 1e-10 * expected, (a, b)

    def test_against_quadrature_oracle(self):
        # defining-integral cross-check where the quadrature itself is accurate
        grid = [(0.3, 0.7), (1.0, 2.0), (2.0, 1.0), (5.0, 5.5), (12.0, 10.0),
                (20.0, 25.0), (35.0, 30.0), (49.0, 50.0)]
        for a, b in grid:
            expected = _marcum_quadrature(a, b)
            assert abs(marcum_q1(a, b) - expected) <= 1e-10 * expected, (a, b)

    def test_against_noncentral_chi2(self):
        # second independent route: Q1(a, b) is the tail of a 2-dof noncentral chi^2
        from scipy import stats
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = float(rng.uniform(0, 30))
            b = float(rng.uniform(0.01, 30))
            expected = float(stats.ncx2.sf(b * b, 2, a * a))
            if expected > 1e-12:
                assert abs(marcum_q1(a, b) - expected) <= 1e-9 * expected

    def test_monotone_in_arguments(self):
        assert marcum_q1(2.0, 1.0) > marcum_q1(1.0, 1.0) > marcum_q1(0.5, 1.0)
        assert marcum_q1(1.0, 0.5) > marcum_q1(1.0, 1.0) > marcum_q1(1.0, 2.0)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            val = marcum_q1(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)))
            assert 0.0 <= val <= 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, float("inf"))


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
        ctx = PairwiseContext(rho=0.3, n0=1.0, p_t=1.0, var_alpha=1.0)
        assert abs(pairwise_error_fixed_alpha(ctx, 0.0) - 0.5) < 1e-14

    def test_uncorrelated_high_snr_vanishes(self):
        ctx = PairwiseContext(rho=0.0, n0=1.0, p_t=1.0, var_alpha=1.0)
        assert pairwise_error_fixed_alpha(ctx, 12.0) < 1e-10

    def test_matches_monte_carlo(self):
        for seed, (rho, snr) in enumerate([(0.0, 0.5), (0.5, 2.0), (1 / np.sqrt(2), 8.0)]):
            ctx = PairwiseContext(rho=rho, n0=1.0, p_t=1.0, var_alpha=1.0)
            predicted = pairwise_error_fixed_alpha(ctx, math.sqrt(snr))
            estimate, se = _pair_exceedance_mc(rho, 1.0, math.sqrt(snr),
                                               400_000, 100 + seed)
            assert abs(predicted - estimate) < 4 * se, (rho, snr)

    def test_monotone_decreasing_in_gain(self):
        ctx = PairwiseContext(rho=0.5, n0=1.0, p_t=1.0, var_alpha=1.0)
        values = [pairwise_error_fixed_alpha(ctx, a) for a in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_self_term_rejected(self):
        ctx = PairwiseContext(rho=1.0, n0=1.0, p_t=1.0, var_alpha=1.0)
        with pytest.raises(SelfTermError):
            pairwise_error_fixed_alpha(ctx, 1.0)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            PairwiseContext(rho=1.2, n0=1.0, p_t=1.0, var_alpha=1.0)
        with pytest.raises(ValueError):
            PairwiseContext(rho=0.5, n0=0.0, p_t=1.0, var_alpha=1.0)
        ctx = PairwiseContext(rho=0.25, n0=2.0, p_t=1.0, var_alpha=1.0)
        assert ctx.sigma == 0.5


class TestPairwiseRayleigh:
    def test_equal_params_degenerate_half(self):
        # rho -> 1 would force the two squared parameters together; p_t = 0 does
        # the same through zero signal power
        ctx = PairwiseContext(rho=0.4, n0=1.0, p_t=0.0, var_alpha=9.0)
        assert pairwise_error_rayleigh(ctx) == 0.5

    def test_uncorrelated_high_snr_limit(self):
        ctx = PairwiseContext(rho=0.0, n0=1.0, p_t=1e8, var_alpha=1.0)
        assert pairwise_error_rayleigh(ctx) < 1e-7

    def test_in_half_open_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            ctx = PairwiseContext(rho=float(rng.uniform(0, 0.999)), n0=1.0,
                                  p_t=float(rng.uniform(0, 50)), var_alpha=float(rng.uniform(0, 50)))
            value = pairwise_error_rayleigh(ctx)
            assert 0.0 < value <= 0.5

    def test_decreasing_as_rho_drops(self):
        values = [pairwise_error_rayleigh(
            PairwiseContext(rho=rho, n0=1.0, p_t=10.0, var_alpha=1.0))
            for rho in (0.9, 0.7, 0.5, 0.2, 0.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_matches_quadrature_of_fixed_alpha(self):
        for rho in (0.0, 0.5, 1 / np.sqrt(2)):
            for u in (1.0, 10.0, 100.0):
                ctx = PairwiseContext(rho=rho, n0=1.0, p_t=1.0, var_alpha=u)

                def integrand(x):
                    density = (2 * x / u) * math.exp(-x * x / u)
                    return pairwise_error_fixed_alpha(ctx, x) * density

                expected, _ = integrate.quad(integrand, 0.0, 12.0 * math.sqrt(u), limit=200)
                assert abs(pairwise_error_rayleigh(ctx) - expected) < 1e-3, (rho, u)

    def test_self_term_rejected(self):
        with pytest.raises(SelfTermError):
            pairwise_error_rayleigh(PairwiseContext(rho=1.0, n0=1.0, p_t=1.0, var_alpha=1.0))


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
        # spot-check one term against the scalar implementation
        gram = b.gram
        rho = gram[0, 1] * gram[2, 2]  # true pair (1, 2), candidate (0, 2)
        scalar = pairwise_error_rayleigh(
            PairwiseContext(rho=float(rho), n0=1.0, p_t=2.0, var_alpha=3.0))
        assert abs(result.terms[1 * 3 + 2, 0 * 3 + 2] - scalar) < 1e-14

    def test_union_structure_matches_manual_sum(self):
        b = identity_pattern_matrix(3)
        result = pcef_upper_bound(b, stages=2, p_t=1.0, n0=1.0, var_alpha=4.0)
        term_rho0 = pairwise_error_rayleigh(
            PairwiseContext(rho=0.0, n0=1.0, p_t=1.0, var_alpha=4.0))
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

    def test_bad_stage_count(self):
        with pytest.raises(ValueError):
            pcef_upper_bound(overlapped_pattern_matrix(2), stages=0, p_t=1.0,
                             n0=1.0, var_alpha=1.0)

    @pytest.mark.parametrize("key, value", [
        ("n0", 0.0), ("n0", -1.0), ("n0", np.nan), ("p_t", np.nan), ("p_t", np.inf),
        ("p_t", -1.0), ("p_t", np.array([1.0, np.nan])), ("var_alpha", -5.0),
        ("var_alpha", np.inf), ("stages", 2.5), ("stages", True)])
    def test_inputs_that_make_the_bound_nan_rejected(self, key, value):
        # each once gave a NaN total, a clamped 1.0 or a silently used stage count
        inputs = dict(stages=3, p_t=1.0, n0=1.0, var_alpha=4.0)
        inputs[key] = value
        with pytest.raises(ValueError, match=key):
            pcef_upper_bound(overlapped_pattern_matrix(2), **inputs)
