"""The staged search sounded with the explicit ``n``-element beams, and each
parent's bank of beams synthesized on its own.

The engine replaces the search with the rank-one stage signal; the tests use
it as the oracle for the engine's picks and values and as the source of the
raw and fused blocks whose properties they check.  ``StageCodebookCache``
replaces the per-parent synthesis with one synthesis per stage, shifted; the
tests use :func:`reference_bank` as the oracle for its banks.
"""

import numpy as np

from beamest.arrays import MeasurementNoise, build_channel, measure_block
from beamest.codebook import IndexRange, synthesize_vector, target_profile
from beamest.estimator import PILOT, codebook_bank, fuse_measurements, select_path


def reference_search(channel, cfg, rng):
    """Per-stage ``(y, r, kr, kt)`` of the search sounded with the explicit beams."""
    bank = codebook_bank(cfg.n, cfg.k, cfg.variant)
    h = build_channel(channel)
    noise = MeasurementNoise(cfg.n0, rng)
    parent_t = parent_r = IndexRange(0, cfg.n)
    stages = []
    for s in range(1, cfg.stages + 1):
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
