"""The staged search sounded with the explicit ``n``-element beams, and each
parent's bank of beams synthesized on its own.

The engine replaces the search with the rank-one stage signal; the tests use
it as the oracle for the engine's picks and values and as the source of the
raw and fused blocks whose properties they check.  ``StageCodebookCache``
replaces the per-parent synthesis with one synthesis per stage, shifted; the
tests use :func:`reference_bank` as the oracle for its banks.  The shipped
bound averages the pairwise exceedance over the Rayleigh gain in closed form;
:func:`pairwise_exceedance` is the fixed-gain form it averages, the oracle
for that closed form.  Sweeps reduce each block of trials to counts and
exact partials as it is made; :func:`sweep_outcomes` keeps the per-trial
outcomes instead, for the tests that pin or sum them row by row.
"""

import math

import numpy as np
from scipy import special, stats

from beamest.arrays import MeasurementNoise, build_channel, measure_block
from beamest.codebook import IndexRange, synthesize_vector, target_profile
from beamest.estimator import PILOT, codebook_bank, fuse_measurements, select_path
from beamest.montecarlo import _sweep_blocks


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
