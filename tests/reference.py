"""The staged search sounded with the explicit ``n``-element beams, and each
parent's bank of beams synthesized on its own.

The engine replaces the search with the rank-one stage signal; the tests use
it as the oracle for the engine's picks and values and as the source of the
raw and fused blocks whose properties they check.  ``StageCodebookCache``
replaces the per-parent synthesis with one synthesis per stage, shifted; the
tests use :func:`reference_bank` as the oracle for its banks.  The shipped
bound averages the pairwise exceedance over the Rayleigh gain in closed form;
:func:`pairwise_exceedance` is the fixed-gain form it averages, the oracle
for that closed form.  Sweeps reduce each block of trials from the one engine
loop (``montecarlo._engine_blocks``) to counts and exact partials as it is
made; :func:`sweep_outcomes` keeps the per-trial outcomes of that loop
instead, for the tests that pin or sum them row by row, so it shares any
error in how the loop forms them (``test_montecarlo.py``'s per-trial
recompute of the error rows does not).  Sweeps and traces draw channels a block
at a time, and ``sample_channel`` reads them from a cache of such blocks;
:func:`reference_channel` draws one trial's from a generator seeded with
numpy's own ``SeedSequence``, the oracle for those blocks.

The package never builds a steering vector, the grid's angles, its ``n x n``
response matrix or a target profile from a list of sub-ranges, and never reads
a beam file back: :func:`steering_vector`, :func:`grid_angles`,
:func:`response_matrix`, :func:`target_profile` and :func:`read_beam_matrix`
are those oracles.
"""

import math

import numpy as np
from scipy import special, stats

from beamest.arrays import (
    ChannelRealization,
    MeasurementNoise,
    build_channel,
    measure_block,
    substream,
)
from beamest.codebook import IndexRange, synthesize_vector
from beamest.estimator import PILOT, codebook_bank, fuse_measurements, select_path
from beamest.montecarlo import _CHANNEL_KEY, _sweep_blocks


def steering_vector(epsilon, n):
    """Response of an n-element half-wavelength ULA to a plane wave at angle ``epsilon``.

    Element ``m`` carries phase ``pi * m * sin(epsilon)``; the vector is scaled
    by ``1/sqrt(n)`` so it always has unit Euclidean norm.
    """
    if n < 1:
        raise ValueError(f"antenna count must be at least 1, got {n}")
    return np.exp(1j * np.pi * np.sin(epsilon) * np.arange(n)) / np.sqrt(n)


def grid_angles(grid):
    """Direction of every point of an ``AngleGrid`` in radians."""
    return np.arcsin(grid.sines)


def response_matrix(grid):
    """n-by-n matrix whose column ``i`` is ``grid.response(i)``; orthonormal columns."""
    return np.exp(1j * np.pi * np.outer(np.arange(grid.n), grid.sines)) / np.sqrt(grid.n)


def target_profile(patterns, m, blocks, n):
    """Desired per-grid-point gain of beam ``m``: ``values[m, k]`` on block ``k``.

    Points outside every block get zero gain; the profile is returned
    unscaled.  Checks the beam index, the block count, and that the blocks lie
    on the grid and do not overlap.
    """
    if not 0 <= m < patterns.m:
        raise ValueError(f"beam index {m} outside [0, {patterns.m})")
    if len(blocks) != patterns.k:
        raise ValueError(f"expected {patterns.k} sub-ranges, got {len(blocks)}")
    occupied = np.zeros(n, dtype=bool)
    profile = np.zeros(n)
    for k, block in enumerate(blocks):
        if block.stop > n:
            raise ValueError(f"sub-range {block} exceeds grid size {n}")
        if occupied[block.start:block.stop].any():
            raise ValueError("sub-ranges overlap")
        occupied[block.start:block.stop] = True
        profile[block.start:block.stop] = patterns.values[m, k]
    if not profile.any():
        raise ValueError("target profile is identically zero")
    return profile


def read_beam_matrix(path):
    """Inverse of ``write_beam_matrix``; returns ``(matrix, stage, gain)``."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        n, m, stage = int(header[0]), int(header[1]), int(header[2])
        gain = float(header[3])
        rows = [[complex(cell) for cell in fh.readline().split()] for _ in range(n)]
    matrix = np.array(rows, dtype=complex)
    if matrix.shape != (n, m):
        raise ValueError(f"beam matrix file is inconsistent: header {n}x{m}, "
                         f"body {matrix.shape}")
    return matrix, stage, gain


def reference_channel(cfg, trial):
    """Trial ``trial``'s channel from a generator seeded with numpy's own
    ``SeedSequence`` for its stream: two scalar ``integers(n)`` and one
    ``normal(size=2)`` for the gain."""
    rng = np.random.default_rng(substream(cfg.master_seed, trial, _CHANNEL_KEY))
    theta, phi = int(rng.integers(cfg.n)), int(rng.integers(cfg.n))
    real, imag = rng.normal(scale=math.sqrt(cfg.alpha_variance / 2.0), size=2).tolist()
    return ChannelRealization(theta=theta, phi=phi, alpha=complex(real, imag), n=cfg.n)


def reference_search(channel, cfg, rng):
    """Per-stage ``(y, r, kr, kt)`` of the search sounded with the explicit beams."""
    bank = codebook_bank(cfg.n, cfg.k, cfg.variant)
    h = build_channel(channel)
    noise = MeasurementNoise(cfg.n0, rng)
    parent_t = parent_r = IndexRange(0, cfg.n)
    stages = []
    for s in range(1, cfg.design.stages + 1):
        partition, cb = bank.refine(parent_t, parent_r, cfg.k, stage=s)
        y = measure_block(h, cb.f, cb.w, cfg.p_t / cb.gain ** 4, PILOT, noise)
        r = fuse_measurements(y, bank.patterns)
        kr, kt = select_path(r)
        stages.append((y, r, kr, kt))
        parent_t, parent_r = partition.transmit[kt], partition.receive[kr]
    return stages


def reference_bank(grid, patterns, parent):
    """``(children, beams as columns, gain, worst residual)`` of ``parent``,
    each beam synthesized from the parent's own target profile."""
    blocks = parent.split(patterns.k)
    beams = [synthesize_vector(target_profile(patterns, m, blocks, grid.n), grid)
             for m in range(patterns.m)]
    return (blocks, np.stack([b.vector for b in beams], axis=1), beams[0].gain,
            max(b.residual for b in beams))


def pairwise_exceedance(rho, n0, p_t, alpha_mag):
    """P(|mismatched measurement| > |correct measurement|) at fixed ``|alpha|``.

    Decorrelating the pair reduces the comparison to two independent
    unit-variance Rician envelopes, so it equals ``Q1(A, B) - I0(AB)
    exp(-(A^2+B^2)/2) / 2`` with ``A, B = (sqrt(1+rho) -/+ sqrt(1-rho))
    |alpha| sqrt(p_t) / (2 sqrt(n0))``, clamped to [0, 1].  ``Q1(a, b)`` is
    the tail of a 2-dof noncentral chi^2, ``ncx2.sf(b^2, 2, a^2)``.
    """
    mean = alpha_mag * math.sqrt(p_t)
    root_plus, root_minus = math.sqrt(1.0 + rho), math.sqrt(1.0 - rho)
    a = mean * (root_plus - root_minus) / (2.0 * math.sqrt(n0))
    b = mean * (root_plus + root_minus) / (2.0 * math.sqrt(n0))
    q1 = float(stats.ncx2.sf(b * b, 2, a * a))
    correction = 0.5 * float(special.i0e(a * b)) * math.exp(-0.5 * (a - b) ** 2)
    return min(max(q1 - correction, 0.0), 1.0)


def sweep_outcomes(cfg, lo, hi):
    """``{variant: (fails, err_mmse, err_final)}`` of trials [lo, hi), each
    ``(points, trials)``, assembled from the sweep's engine blocks."""
    shape = (len(cfg.et_db), hi - lo)
    out = {variant: (np.zeros(shape, dtype=bool), np.zeros(shape), np.zeros(shape))
           for variant in cfg.variants}
    for trials, points, outcomes in _sweep_blocks(cfg, lo, hi):
        columns = slice(trials.start - lo, trials.stop - lo)
        for variant, arrays in outcomes.items():
            for whole, part in zip(out[variant], arrays):
                whole[points, columns] = part
    return out
