from itertools import product

import numpy as np
import pytest
from reference import reference_bank

from beamest import estimator
from beamest.arrays import AngleGrid
from beamest.cli import _gain_flatness_csv
from beamest.codebook import (
    BeamPatternMatrix,
    IndexRange,
    StageCodebookCache,
    format_complex,
    identity_pattern_matrix,
    overlapped_pattern_matrix,
    read_beam_matrix,
    synthesize_vector,
    target_profile,
    write_beam_matrix,
)
from beamest.estimator import (
    NON_OVERLAPPED,
    OVERLAPPED,
    VARIANTS,
    Design,
    codebook_bank,
    leftmost_path,
)

SQ2 = 1.0 / np.sqrt(2.0)
SQ3 = 1.0 / np.sqrt(3.0)


class TestOverlappedPatternMatrix:
    def test_two_beams(self):
        expected = np.array([[1.0, SQ2, 0.0],
                             [0.0, SQ2, 1.0]])
        np.testing.assert_allclose(overlapped_pattern_matrix(2).values, expected)

    def test_three_beams(self):
        expected = np.array([[1.0, SQ2, SQ3, SQ2, 0.0, 0.0, 0.0],
                             [0.0, 0.0, SQ3, SQ2, 1.0, SQ2, 0.0],
                             [0.0, SQ2, SQ3, 0.0, 0.0, SQ2, 1.0]])
        np.testing.assert_allclose(overlapped_pattern_matrix(3).values, expected)

    def test_single_beam(self):
        np.testing.assert_allclose(overlapped_pattern_matrix(1).values, [[1.0]])

    @pytest.mark.parametrize("m", [0, 17, -3])
    def test_bad_beam_count(self, m):
        with pytest.raises(ValueError):
            overlapped_pattern_matrix(m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_columns_are_all_nonzero_supports(self, m):
        b = overlapped_pattern_matrix(m)
        assert b.k == 2 ** m - 1
        np.testing.assert_allclose(np.linalg.norm(b.values, axis=0),
                                   np.ones(b.k), atol=1e-12)
        supports = {tuple((b.values[:, j] > 0).astype(int)) for j in range(b.k)}
        assert len(supports) == b.k
        assert tuple([0] * m) not in supports

    def test_adjacent_columns_differ_in_one_beam(self):
        # Gray ordering property
        for m in (2, 3, 4):
            b = overlapped_pattern_matrix(m)
            onoff = (b.values > 0).astype(int)
            flips = np.abs(np.diff(onoff, axis=1)).sum(axis=0)
            assert np.all(flips == 1)

    def test_two_beam_column_correlations(self):
        gram = overlapped_pattern_matrix(2).gram
        off_diagonal = gram[~np.eye(3, dtype=bool)]
        assert np.all(np.isin(np.round(off_diagonal, 12), np.round([0.0, SQ2], 12)))

    def test_pair_correlation_at_most_inv_sqrt2(self):
        # product of the two link-end correlations for any non-identical pair
        gram = overlapped_pattern_matrix(2).gram
        for kr, kt, kr2, kt2 in product(range(3), repeat=4):
            if (kr, kt) == (kr2, kt2):
                continue
            rho = gram[kr, kr2] * gram[kt2, kt]
            assert rho ** 2 <= 0.5 + 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_kron_signatures_unit_norm(self, m):
        b = overlapped_pattern_matrix(m)
        for kt, kr in product(range(b.k), repeat=2):
            sig = np.kron(b.values[:, kt], b.values[:, kr])
            assert abs(np.linalg.norm(sig) - 1.0) < 1e-12


class TestPatternMatrixValidation:
    def test_identity(self):
        np.testing.assert_allclose(identity_pattern_matrix(3).values, np.eye(3))

    def test_rejects_zero_column(self):
        with pytest.raises(ValueError):
            BeamPatternMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            BeamPatternMatrix(np.array([[1.0, 0.5], [0.0, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BeamPatternMatrix(np.array([[1.0, -SQ2], [0.0, SQ2]]))


class TestPartition:
    """The partition ``StageCodebookCache.refine`` returns with each codebook."""

    BANK = StageCodebookCache(AngleGrid(27), overlapped_pattern_matrix(2))

    def test_full_grid_thirds(self):
        part, _ = self.BANK.refine(IndexRange(0, 27), IndexRange(0, 27), 3, stage=1)
        assert part.transmit == (IndexRange(0, 9), IndexRange(9, 18), IndexRange(18, 27))
        assert part.receive == part.transmit

    def test_nested_block(self):
        part, _ = self.BANK.refine(IndexRange(0, 9), IndexRange(9, 18), 3, stage=2)
        assert part.transmit == (IndexRange(0, 3), IndexRange(3, 6), IndexRange(6, 9))
        assert part.receive == (IndexRange(9, 12), IndexRange(12, 15), IndexRange(15, 18))
        assert part.stage == 2

    def test_singleton_resolution(self):
        part, _ = self.BANK.refine(IndexRange(0, 3), IndexRange(0, 3), 3, stage=1)
        assert all(len(block) == 1 for block in part.transmit)

    def test_indivisible_parent_rejected(self):
        with pytest.raises(ValueError):
            self.BANK.refine(IndexRange(0, 8), IndexRange(0, 8), 3, stage=1)

    def test_blocks_disjoint_cover_parent(self):
        cache = StageCodebookCache(AngleGrid(17), identity_pattern_matrix(4))
        part, _ = cache.refine(IndexRange(5, 17), IndexRange(5, 17), 4, stage=1)
        seen = []
        for block in part.transmit:
            seen.extend(range(block.start, block.stop))
        assert seen == list(range(5, 17))

    def test_parent_outside_grid_rejected(self):
        # splits evenly, but a shifted bank would wrap it around the grid
        cache = StageCodebookCache(AngleGrid(17), identity_pattern_matrix(4))
        with pytest.raises(ValueError, match="grid size 17"):
            cache.refine(IndexRange(10, 22), IndexRange(10, 22), 4, stage=1)


class TestTargetProfile:
    def test_full_grid_first_beam_layout(self):
        b = overlapped_pattern_matrix(2)
        blocks = IndexRange(0, 27).split(3)
        g = target_profile(b, 0, blocks, 27)
        np.testing.assert_allclose(g[0:9], np.ones(9))
        np.testing.assert_allclose(g[9:18], SQ2 * np.ones(9))
        np.testing.assert_allclose(g[18:27], np.zeros(9))

    def test_refined_block_support_containment(self):
        b = overlapped_pattern_matrix(2)
        blocks = IndexRange(0, 9).split(3)
        g = target_profile(b, 0, blocks, 27)
        assert np.all(g[9:] == 0)
        assert g[:9].any()

    def test_overlapping_blocks_rejected(self):
        b = overlapped_pattern_matrix(2)
        with pytest.raises(ValueError):
            target_profile(b, 0, (IndexRange(0, 4), IndexRange(3, 6), IndexRange(6, 9)), 9)

    def test_out_of_grid_block_rejected(self):
        b = overlapped_pattern_matrix(2)
        with pytest.raises(ValueError):
            target_profile(b, 0, (IndexRange(0, 3), IndexRange(3, 6), IndexRange(6, 12)), 9)

    def test_zero_profile_rejected(self):
        # a beam with no coverage cannot occur from a valid pattern matrix,
        # but the guard must hold for hand-built inputs
        b = identity_pattern_matrix(2)
        with pytest.raises(ValueError):
            target_profile(b, 0, (IndexRange(5, 6), IndexRange(0, 1)), 4)


class TestSynthesizeVector:
    def test_single_antenna(self):
        beam = synthesize_vector(np.array([0.4]), AngleGrid(1))
        np.testing.assert_allclose(beam.vector, [1.0 + 0j], atol=1e-15)
        assert abs(beam.gain - 2.5) < 1e-12

    def test_stage_one_residual_tiny(self):
        grid = AngleGrid(27)
        g = target_profile(overlapped_pattern_matrix(2), 0, IndexRange(0, 27).split(3), 27)
        beam = synthesize_vector(g, grid)
        assert abs(np.linalg.norm(beam.vector) - 1.0) < 1e-12
        assert beam.residual <= 1e-6  # orthonormal grid responses solve exactly

    def test_realized_profile_matches_scaled_target(self):
        grid = AngleGrid(27)
        g = target_profile(overlapped_pattern_matrix(2), 1, IndexRange(0, 27).split(3), 27)
        beam = synthesize_vector(g, grid)
        realized = grid.response_matrix.conj().T @ beam.vector
        np.testing.assert_allclose(realized, beam.gain * g, atol=1e-12)

    def test_same_stage_beams_share_gain(self):
        grid = AngleGrid(27)
        blocks = IndexRange(0, 27).split(3)
        b = overlapped_pattern_matrix(2)
        gains = [synthesize_vector(target_profile(b, m, blocks, 27), grid).gain
                 for m in range(2)]
        assert abs(gains[0] - gains[1]) < 1e-12

    def test_zero_profile_rejected(self):
        with pytest.raises(ValueError):
            synthesize_vector(np.zeros(8), AngleGrid(8))


class TestClosedFormGains:
    """Equal pattern row norms give every beam of stage s the gain sqrt(m k^(s-1) / n)."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_overlapped_row_norms(self, m):
        p = overlapped_pattern_matrix(m)
        np.testing.assert_allclose((p.values ** 2).sum(axis=1), p.k / m, rtol=1e-14)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_identity_row_norms(self, k):
        p = identity_pattern_matrix(k)
        np.testing.assert_array_equal((p.values ** 2).sum(axis=1), np.full(k, p.k / p.m))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n, k", [(27, 3), (81, 3), (243, 3), (49, 7), (343, 7),
                                      (2401, 7)])
    def test_stage_gains_equal_synthesized_gains(self, n, k, variant):
        try:
            bank = codebook_bank(n, k, variant)
            u = bank.grid.response_matrix
            values = bank.patterns.values
            path = list(leftmost_path(n, k, variant))
            gains = Design(n, k, variant).gains
            assert len(gains) == len(path)
            for gain, (_, partition, cb) in zip(gains, path):
                assert abs(cb.gain - gain) <= 1e-14 * gain
                # realized gains carry the rounding of an n-term sum (4e-13 at n = 2401)
                for beams, blocks in ((cb.f, partition.transmit), (cb.w, partition.receive)):
                    realized = np.abs(u.T @ beams.conj())  # |U^H v|, U^H never copied
                    for j, block in enumerate(blocks):
                        covered = values[:, j] > 0
                        np.testing.assert_allclose(
                            realized[block.start:block.stop, covered] / values[covered, j],
                            gain, rtol=1e-12, atol=0)
        finally:
            if n > 343:
                estimator._bank.cache_clear()  # drop the 92 MB response matrix


class TestFFTSynthesis:
    """The FFT beams and realized gains against the explicit response matrix."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n, k", [(27, 3), (343, 7), (2401, 7)])
    def test_matches_response_matrix_along_leftmost_path(self, n, k, variant):
        grid = AngleGrid(n)
        u = grid.response_matrix  # this grid's own copy, freed with it
        patterns = codebook_bank(n, k, variant).patterns
        rows = iter(_gain_flatness_csv(n, k, variant).splitlines()[1:])
        for stage, partition, cb in leftmost_path(n, k, variant):
            for m in range(patterns.m):
                profile = target_profile(patterns, m, partition.transmit, n)
                oracle = u @ (profile / np.linalg.norm(profile))
                beam = synthesize_vector(profile, grid)
                assert np.linalg.norm(beam.vector - oracle) <= 1e-12 * np.linalg.norm(oracle)
                assert beam.residual <= 1e-12
            # the audit's in-range error and leakage, recomputed from |U^H f|
            realized = np.abs(u.T @ cb.f.conj())
            covered = np.zeros(n, dtype=bool)
            target = np.zeros((n, patterns.m))
            for j, block in enumerate(partition.transmit):
                covered[block.start:block.stop] = True
                target[block.start:block.stop] = cb.gain * patterns.values[:, j]
            for m in range(patterns.m):
                fields = next(rows).split(",")
                assert fields[:2] == [str(stage), str(m)]
                in_err = np.abs(realized[covered, m] - target[covered, m]).max()
                out_gain = realized[~covered, m].max() if (~covered).any() else 0.0
                assert abs(float(fields[-2]) - in_err) <= 1e-12
                assert abs(float(fields[-1]) - out_gain) <= 1e-12


class TestStageCodebook:
    def test_small_stage_shape_and_norms(self):
        cache = StageCodebookCache(AngleGrid(3), overlapped_pattern_matrix(2))
        _, cb = cache.refine(IndexRange(0, 3), IndexRange(0, 3), 3, stage=1)
        assert cb.f.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(cb.f, axis=0), np.ones(2), atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(cb.w, axis=0), np.ones(2), atol=1e-9)

    def test_symmetric_ends_identical_banks(self):
        cache = StageCodebookCache(AngleGrid(9), overlapped_pattern_matrix(2))
        _, cb = cache.refine(IndexRange(0, 9), IndexRange(0, 9), 3, stage=1)
        np.testing.assert_array_equal(cb.f, cb.w)

    def test_gain_grows_with_stage_depth(self):
        cache = StageCodebookCache(AngleGrid(27), overlapped_pattern_matrix(2))
        gains = []
        parent = IndexRange(0, 27)
        for stage in (1, 2, 3):
            part, cb = cache.refine(parent, parent, 3, stage=stage)
            gains.append(cb.gain)
            expected = Design(27, 3, OVERLAPPED).gains[stage - 1]
            assert abs(cb.gain - expected) <= 1e-14 * expected
            parent = part.transmit[0]
        assert gains[0] < gains[1] < gains[2]

    @staticmethod
    def _assert_flat_at_stage_gain(transmit, receive):
        # every column of f and w realizes cb.gain * pattern on its sub-ranges
        # and leaks nothing outside them
        grid = AngleGrid(27)
        b = overlapped_pattern_matrix(2)
        part, cb = StageCodebookCache(grid, b).refine(transmit, receive, 3, stage=2)
        for bank, blocks in ((cb.f, part.transmit), (cb.w, part.receive)):
            realized = np.abs(grid.response_matrix.conj().T @ bank)
            covered = np.zeros(27, dtype=bool)
            for j, block in enumerate(blocks):
                covered[block.start:block.stop] = True
                np.testing.assert_allclose(realized[block.start:block.stop],
                                           np.broadcast_to(cb.gain * b.values[:, j],
                                                           (len(block), 2)), atol=1e-12)
            assert realized[~covered].max() < 1e-9

    def test_gain_flatness_on_and_off_range(self):
        self._assert_flat_at_stage_gain(IndexRange(0, 9), IndexRange(0, 9))

    def test_per_beam_gains_give_realized_gains(self):
        # unequal parents: each beam's realized gain is still the one stage gain
        self._assert_flat_at_stage_gain(IndexRange(9, 18), IndexRange(0, 9))

    def test_cache_reuses_end_banks(self):
        cache = StageCodebookCache(AngleGrid(9), overlapped_pattern_matrix(2))
        _, a = cache.refine(IndexRange(0, 9), IndexRange(0, 9), 3, stage=1)
        _, c = cache.refine(IndexRange(0, 9), IndexRange(0, 9), 3, stage=1)
        assert a.f is c.f

    def test_rejects_partitions_without_one_stage_gain(self):
        # one gain per stage needs equal, evenly split parents on both ends
        cache = StageCodebookCache(AngleGrid(9), overlapped_pattern_matrix(2))
        with pytest.raises(ValueError):
            cache.refine(IndexRange(0, 9), IndexRange(0, 3), 3, stage=1)
        with pytest.raises(ValueError):
            cache.refine(IndexRange(0, 8), IndexRange(0, 8), 4, stage=1)


class TestShiftedBanks:
    """Banks shifted from each stage's one synthesis against every parent's own."""

    @pytest.mark.parametrize("n, k, variant", [
        (27, 3, OVERLAPPED), (27, 3, NON_OVERLAPPED), (343, 7, OVERLAPPED),
        (343, 7, NON_OVERLAPPED), (2401, 7, OVERLAPPED)])
    def test_match_per_parent_synthesis(self, n, k, variant):
        grid = AngleGrid(n)
        patterns = Design(n, k, variant).patterns
        cache = StageCodebookCache(grid, patterns)
        size = n
        for stage in (1, 2, 3):
            parents = [IndexRange(start, start + size) for start in range(0, n, size)]
            # reversed on the receive end, so each end takes every parent,
            # the last one included, mostly against another parent
            for transmit, receive in zip(parents, parents[::-1]):
                part, cb = cache.refine(transmit, receive, k, stage)
                for parent, children, beams in ((transmit, part.transmit, cb.f),
                                                (receive, part.receive, cb.w)):
                    blocks, oracle, gain, residual = reference_bank(grid, patterns, parent)
                    assert children == blocks
                    assert residual <= 1e-14 and cb.residual <= 1e-14
                    if parent.start == 0:
                        # the synthesis itself, signed zeros included
                        assert beams.tobytes() == oracle.tobytes()
                        assert cb.gain == gain
                    else:
                        assert np.abs(beams - oracle).max() <= 1e-14
                        assert abs(cb.gain - gain) <= 1e-15 * gain
            size //= k


class TestComplexFormat:
    @pytest.mark.parametrize("z", [1.5 + 0.25j, -2.0 - 3.5j, 0.0 + 0j, 1e-17 - 1e3j,
                                   complex(3e-17, -0.0)])
    def test_roundtrip(self, z):
        assert complex(format_complex(z)) == z

    def test_shape(self):
        assert format_complex(1.5 + 0.25j) == "1.5+0.25j"
        assert format_complex(1.5 - 0.25j) == "1.5-0.25j"

    def test_beam_matrix_file_roundtrip(self, tmp_path):
        cache = StageCodebookCache(AngleGrid(9), overlapped_pattern_matrix(2))
        _, cb = cache.refine(IndexRange(0, 9), IndexRange(0, 9), 3, stage=1)
        path = tmp_path / "stage.txt"
        write_beam_matrix(path, cb.f, stage=1, gain=cb.gain)
        matrix, stage, gain = read_beam_matrix(path)
        assert stage == 1
        assert gain == cb.gain
        np.testing.assert_array_equal(matrix, cb.f)
        header = path.read_text().splitlines()[0].split()
        assert header[:3] == ["9", "2", "1"]


class TestClosedFormOracle:
    """The closed form agrees with a generic least-squares solve of the same system."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n, k", [(27, 3), (81, 3), (243, 3), (49, 7), (343, 7)])
    def test_matches_lstsq_along_leftmost_path(self, n, k, variant):
        bank = codebook_bank(n, k, variant)
        u = bank.grid.response_matrix
        path = list(leftmost_path(n, k, variant))
        profiles = [np.stack([target_profile(bank.patterns, m, partition.transmit, n)
                              for m in range(bank.patterns.m)], axis=1)
                    for _, partition, _ in path]
        # one solve of U^H v = p for every beam on the path
        solutions = np.linalg.lstsq(u.conj().T, np.hstack(profiles).astype(complex),
                                    rcond=None)[0]
        norms = np.linalg.norm(solutions, axis=0)
        for stage, (_, _, cb) in enumerate(path):
            columns = slice(stage * bank.patterns.m, (stage + 1) * bank.patterns.m)
            oracle_gain = float(np.exp(np.mean(np.log(1.0 / norms[columns]))))
            assert abs(cb.gain - oracle_gain) <= 1e-12 * oracle_gain
            np.testing.assert_allclose(cb.f, solutions[:, columns] / norms[columns],
                                       rtol=0, atol=1e-12)
            realized = np.abs(u.conj().T @ cb.f)
            np.testing.assert_allclose(realized, cb.gain * profiles[stage], rtol=0, atol=1e-12)
