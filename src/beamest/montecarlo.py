"""Seeded Monte Carlo experiments over a pilot-energy sweep.

Every trial draws a channel from a stream keyed by ``(master_seed, trial)``
and both search variants consume that same draw, so curve comparisons are
paired.  Noise streams are keyed per ``(trial, variant)`` and reused across
energy points: one draw of all ``S`` stages' ``m x m`` slot noise per
``(trial, variant)`` yields exactly the numbers ``S`` per-stage draws would.
A block of trials hashes the seed words of all its streams at once
(:func:`~beamest.arrays._seed_words`) and seeds numpy's own generator on
each (:func:`~beamest.arrays.stream_generators`), so :func:`_draw_block`
draws exactly what a generator seeded per trial with
:func:`~beamest.arrays.substream` gives; :func:`_draw_channels` is its channel
half.  The per-trial calls :func:`sample_channel` and :func:`noise_stream`
read 256-trial blocks from two caches, of seed words (:func:`_block_words`)
and of the channels drawn from them (:func:`_block_channels`).  Sweeps and
``beamest trace`` run one engine loop (:func:`_engine_blocks`), which calls
the search core :func:`~beamest.estimator._search` on the block draw's own
arrays (:func:`~beamest.estimator.search_batch` is the checked entry for
arrays from outside) and synthesizes no ``n``-element beam: every stage's
noiseless block is the same rank-one product of pattern columns, and the
stage gains have a closed form (:attr:`~beamest.estimator.Design.gains`).
:class:`ExperimentConfig` builds each variant's
:class:`~beamest.estimator.Design` and the grid's powers once and is the
sweep's one gate.  Each block of trials is reduced where it is
made, for all variants at once: failures add to one count per grid point, and
one exact-sum pass (:func:`_exact_partials`) merges the error rows into a few
running partials per row, so memory does not grow with the trial count.
Failure counts are exact integers and each error sum is the exactly rounded
``math.fsum`` of its row, so results are bit-identical for any worker split or
execution order.  Each variant's :class:`ResultTable` holds them as columns
over the energy grid.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._output import csv_text
from .analysis import _noise_and_prior, pcef_upper_bound
from .arrays import (
    ChannelRealization,
    StreamSeed,
    _complex_gaussian,
    _integer,
    _real,
    _seed_interface,
    _seed_words,
    stream_generators,
    substream,  # noqa: F401 -- benchmarks/workloads.py wraps montecarlo.substream
)
from .codebook import format_complex
from .estimator import (
    NON_OVERLAPPED,
    OVERLAPPED,
    PILOT,
    Design,
    SearchBatch,
    _check_gain_range,
    _check_variant,
    _mmse,
    _record,
    _search,
    run_estimation,  # noqa: F401 -- benchmarks/workloads.py wraps montecarlo.run_estimation
    stage_count,  # noqa: F401 -- benchmarks/workloads.py wraps montecarlo.stage_count
)

__all__ = [
    "BOUND_CSV_HEADER",
    "BoundPoint",
    "ExperimentConfig",
    "RESULT_CSV_HEADER",
    "ResultTable",
    "bound_csv",
    "bound_table",
    "energy_from_db",
    "power_for_energy",
    "run_sweep",
    "sample_channel",
    "usable_cpus",
    "wilson_interval",
]

# Substream keys: 0 reserves the channel draw, variants get their own noise key.
_CHANNEL_KEY = 0
_VARIANT_KEYS = {OVERLAPPED: 1, NON_OVERLAPPED: 2}

# Trial indices enter the stream hash as one 32-bit word each.
_MAX_TRIALS = 1 << 32

_CONFIDENCE_Z = 1.959963984540054  # two-sided 95% normal quantile

# Cap on the entries of the engine's largest arrays, shaped (trials, points,
# stages, k, k), met by blocks of trials or, if one trial exceeds it, of grid
# points; the fig3 grid gets about 1000 trials per block.
_BLOCK_ENTRIES = 1 << 19


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description: geometry, energy grid, trial budget and seeding.

    ``et_db`` lists total pilot energy relative to ``n0`` in dB, strictly
    increasing; ``var_alpha = None`` selects the prior variance ``n**2``.
    Construction is the run's one gate.  It checks every field (integers
    stored as ``int``, reals as ``float``), builds each variant's ``Design``
    (``designs``), the prior variance in use (``alpha_variance``) and
    read-only powers over the grid (``powers``), and checks that the gain
    estimate stays in float range at every grid power
    (:func:`~beamest.estimator._check_gain_range`, the rule
    :class:`~beamest.estimator.EstimatorConfig` applies too).  At
    ``var_alpha = 0`` every gain is 0, so its relative errors are
    ``0/0 = nan``.  Each ``ValueError`` names the field.
    """

    n: int
    k: int
    et_db: tuple[float, ...]
    trials: int = 10_000
    master_seed: int = 0
    n0: float = 1.0
    var_alpha: float | None = None
    variants: tuple[str, ...] = (OVERLAPPED, NON_OVERLAPPED)
    designs: dict = field(init=False, repr=False, compare=False)
    alpha_variance: float = field(init=False, repr=False, compare=False)
    powers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "et_db", tuple(_real("et_db", x) for x in self.et_db))
        if isinstance(self.variants, str):
            raise ValueError(f"variants must list variant names, got {self.variants!r}")
        object.__setattr__(self, "variants", tuple(self.variants))
        for key in ("n", "k", "trials", "master_seed"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        if self.trials < 1:
            raise ValueError(f"trials: trial count must be at least 1, got {self.trials}")
        if self.trials > _MAX_TRIALS:
            raise ValueError(f"trials: trial count must be at most 2**32, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed: master seed must be nonnegative, "
                             f"got {self.master_seed}")
        if not self.et_db:
            raise ValueError("et_db: energy sweep is empty")
        if any(b <= a for a, b in zip(self.et_db, self.et_db[1:])):
            raise ValueError("et_db: energy sweep must be strictly increasing")
        n0, var_alpha = _noise_and_prior(self.n0, self.var_alpha)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "var_alpha", var_alpha)
        if not self.variants:
            raise ValueError("variants: no variants selected")
        if len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants must not repeat, got {self.variants}")
        for variant in self.variants:
            _check_variant(variant, "variants")
        designs = {variant: Design(self.n, self.k, variant) for variant in self.variants}
        object.__setattr__(self, "alpha_variance",
                           designs[self.variants[0]].gain_prior(var_alpha))
        energies = np.fromiter((energy_from_db(db, n0) for db in self.et_db), float,
                               len(self.et_db))
        powers = {variant: power_for_energy(energies, self.n, self.k, variant)
                  for variant in self.variants}
        for variant, design in designs.items():
            # the grid's first energy, its lowest, gives the least power
            if not powers[variant][0] > 0:
                raise ValueError(f"et_db: power constant must be positive, got "
                                 f"{float(powers[variant][0])} at {self.et_db[0]!r} dB")
            powers[variant].setflags(write=False)
            _check_gain_range(design.stages, powers[variant], n0, self.alpha_variance,
                              [f"{db!r} dB" for db in self.et_db])
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "powers", powers)


# sample_channel and noise_stream read aligned _STREAM_BLOCK-trial blocks from
# two caches, each keeping its last _CHANNEL_KEYS blocks
_STREAM_BLOCK = 256
_CHANNEL_KEYS = 4


@functools.lru_cache(maxsize=_CHANNEL_KEYS)
def _block_words(master_seed: int, start: int) -> np.ndarray:
    """Read-only seed words ``[:, key, offset]`` of the block of trials from
    ``start``: one :func:`~beamest.arrays._seed_words` call over keys 0, 1 and 2."""
    _seed_interface()
    words = _seed_words(master_seed, range(start, start + _STREAM_BLOCK),
                        [_CHANNEL_KEY, *_VARIANT_KEYS.values()])
    words.setflags(write=False)
    return words


@functools.lru_cache(maxsize=_CHANNEL_KEYS)
def _block_channels(master_seed: int, n: int, variance: float, start: int):
    """``(draws, channels)`` of that block: its :func:`_draw_channels` draw per
    trial, and a slot per trial for its ``ChannelRealization``, built on demand."""
    theta, phi, alpha = _draw_channels(_block_words(master_seed, start)[:, _CHANNEL_KEY].T,
                                       n, variance)
    return tuple(zip(theta.tolist(), phi.tolist(), alpha.tolist())), [None] * _STREAM_BLOCK


def _block_start(trial_index: int) -> tuple[int, int]:
    """The start of the aligned block holding ``trial_index``, and its offset there."""
    trial = _integer("trial index", trial_index)
    if not 0 <= trial < _MAX_TRIALS:
        raise ValueError(f"trial index {trial} outside [0, 2**32)")
    return trial - trial % _STREAM_BLOCK, trial % _STREAM_BLOCK


def sample_channel(cfg: ExperimentConfig, trial_index: int) -> ChannelRealization:
    """One trial's channel: angles uniform on the grid, gain complex Gaussian.

    Fully determined by ``(master_seed, trial_index)``, ``n`` and the prior,
    so trials can run in any order, and it is the channel a sweep or a trace
    gives that trial.  Served from the trial's block (:func:`_block_channels`),
    so a trial asked for again, by another variant, gets the same object.
    ``ValueError`` for a trial index outside ``[0, 2**32)``.
    """
    start, offset = _block_start(trial_index)
    draws, channels = _block_channels(cfg.master_seed, cfg.n, cfg.alpha_variance, start)
    channel = channels[offset]
    if channel is None:
        channel = channels[offset] = ChannelRealization(*draws[offset], n=cfg.n)
    return channel


def noise_stream(cfg: ExperimentConfig, trial_index: int, variant: str) -> StreamSeed:
    """Noise substream for one (trial, variant), shared across energy points: the
    seed of ``substream(master_seed, trial_index, key)`` from the trial's block
    (:func:`_block_words`; no channel is drawn).  ``ValueError`` for an unknown
    variant or a trial index outside ``[0, 2**32)``."""
    _check_variant(variant)
    start, offset = _block_start(trial_index)
    return StreamSeed(_block_words(cfg.master_seed, start)[:, _VARIANT_KEYS[variant], offset])


def energy_from_db(db: float, n0: float = 1.0) -> float:
    """Total pilot energy ``n0 * 10^(db / 10)``; ``ValueError`` unless it is finite."""
    db = float(db)
    try:
        energy = n0 * 10.0 ** (db / 10.0)
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise ValueError(f"et_db: pilot energy at {db!r} dB (n0 = {n0!r}) is not finite")
    return energy


def power_for_energy(total_energy, n: int, k: int, variant: str = OVERLAPPED):
    """Invert ``E_T = (beams per end)^2 * sum_s p_s`` with ``p_s = p_t / C_s^4``: a
    float or an array of energies over the design's ``power_weight``."""
    return total_energy / Design(n, k, variant).power_weight


RESULT_CSV_HEADER = ("et_db,pcef,pcef_ci_low,pcef_ci_high,pcef_low_count,"
                     "relerr_mmse_all_trials,relerr_mmse_successes,"
                     "relerr_final_all_trials,relerr_final_successes,"
                     "trials,failures,slots")


@dataclass(frozen=True, eq=False)
class ResultTable:
    """One variant's sweep results, each column an array over ``et_db``.

    ``ci_low`` and ``ci_high`` bound the PCEF with the 95% Wilson score
    interval (:func:`wilson_interval`); ``low_count`` flags fewer than five
    failures or successes.  Relative gain errors are reported both over all
    trials and conditioned on successful angle estimation (the conditioning
    the downstream consumer wants is not knowable here, so both ship).
    """

    variant: str
    n: int
    k: int
    trials: int
    slots: int
    et_db: np.ndarray
    pcef: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    low_count: np.ndarray
    relerr_mmse_all: np.ndarray
    relerr_mmse_success: np.ndarray
    relerr_final_all: np.ndarray
    relerr_final_success: np.ndarray
    failures: np.ndarray

    def to_csv(self) -> str:
        trials, slots = np.full(len(self.et_db), self.trials), np.full(len(self.et_db), self.slots)
        return csv_text(RESULT_CSV_HEADER, (
            self.et_db, self.pcef, self.ci_low, self.ci_high, self.low_count,
            self.relerr_mmse_all, self.relerr_mmse_success, self.relerr_final_all,
            self.relerr_final_success, trials, self.failures, slots))


# Lemire's rule keeps a product's low 32 bits (a uint64 scalar: a Python int
# would let numpy < 2 promote the words to float64)
_LOW32 = np.uint64(0xFFFFFFFF)


def _draw_channels(channel_words: np.ndarray, n: int, variance: float):
    """Channels ``(theta, phi, alpha)`` of the trials whose channel streams
    have the seed words ``channel_words`` ``(trials, 4)`` (key 0 of
    :func:`~beamest.arrays._seed_words`): angles uniform on the ``n``-point
    grid, gains complex Gaussian of variance ``variance``.

    Trial for trial the numbers of a generator seeded with
    ``substream(master_seed, trial, 0)``: ``integers(n, size=2)``, then
    ``normal(scale=sqrt(variance / 2), size=2)`` for the gain's real and
    imaginary parts, drawn through :func:`~beamest.arrays.stream_generators`."""
    count = len(channel_words)
    # each stream fills its row of a block buffer, scaled once per block
    raw = np.empty(count, dtype=np.uint64)
    gains = np.empty((count, 2))
    for i, rng in enumerate(stream_generators(channel_words)):
        raw[i] = rng.bit_generator.random_raw()
        rng.standard_normal(out=gains[i])
    # integers(n, size=2) with n <= 2**32 - 1 maps the low, then the high
    # 32 bits of one raw word by Lemire's multiply-shift; it may reject and
    # redraw only when a product's low half is below n, so such trials (and
    # every trial at larger n) draw their channel again through numpy itself
    if n < 1 << 32:
        products = np.stack([raw & _LOW32, raw >> np.uint64(32)], axis=1) * np.uint64(n)
        angles = (products >> np.uint64(32)).astype(np.int64)
        redraw = np.flatnonzero(((products & _LOW32) < n).any(axis=1))
    else:
        angles = np.empty((count, 2), dtype=np.int64)
        redraw = np.arange(count)
    for i, rng in zip(redraw, stream_generators(channel_words[redraw])):
        angles[i] = rng.integers(n, size=2)
        rng.standard_normal(out=gains[i])
    theta, phi = angles.T
    return theta, phi, _complex_gaussian(gains, variance)


def _draw_block(cfg: ExperimentConfig, trials: range):
    """Engine inputs of ``trials``: ``(theta, phi, alpha, {variant: noise})``,
    the channels of :func:`_draw_channels`, then each variant's noise, trial
    for trial the numbers of ``MeasurementNoise(cfg.n0, noise_stream(...)).draw_blocks``."""
    keys = (_CHANNEL_KEY, *(_VARIANT_KEYS[variant] for variant in cfg.variants))
    # (keys, trials, 4): one contiguous row of seed words per stream
    words = _seed_words(cfg.master_seed, trials, keys).transpose(1, 2, 0).copy()
    channel_words, *noise_words = words
    theta, phi, alpha = _draw_channels(channel_words, cfg.n, cfg.alpha_variance)
    noises = {}
    for variant, seeds in zip(cfg.variants, noise_words):
        stages, m = cfg.designs[variant].stages, cfg.designs[variant].m
        # a trial's row in C order is standard_normal(size=(stages, 2, m, m))
        parts = np.empty((len(seeds) * stages, 2, m, m))
        for rng, row in zip(stream_generators(seeds), parts.reshape(len(seeds), -1)):
            rng.standard_normal(out=row)
        noises[variant] = _complex_gaussian(parts, cfg.n0).reshape(-1, stages, m, m)
    return theta, phi, alpha, noises


def _engine_blocks(cfg: ExperimentConfig, lo: int, hi: int, block: int, width: int):
    """The trial engine over trials [lo, hi): one :func:`_draw_block` per
    ``block`` trials, then per ``width`` grid points and variant one
    :func:`~beamest.estimator._search` on the block draw's arrays, in range by
    construction, and the all-stage and final-stage gain estimates, their
    factors and divisors computed once per call.  Yields ``(trials, points,
    (theta, phi, alpha), {variant: (batch, alpha_hat, final_hat)})``.
    """
    n_points, var_alpha = len(cfg.et_db), cfg.alpha_variance
    terms = {variant: (var_alpha * np.sqrt(p_t) * np.conj(PILOT),
                       cfg.designs[variant].stages * var_alpha * p_t + cfg.n0,
                       var_alpha * p_t + cfg.n0) for variant, p_t in cfg.powers.items()}
    for start in range(lo, hi, block):
        trials = range(start, min(start + block, hi))
        theta, phi, alpha, noises = _draw_block(cfg, trials)
        angles = np.array((theta, phi))
        for first in range(0, n_points, width):
            points = slice(first, min(first + width, n_points))
            results = {}
            for variant, design in cfg.designs.items():
                factor, divisor, final = (term[points] for term in terms[variant])
                batch = SearchBatch(*_search(design, cfg.powers[variant][points], angles, alpha,
                                             noises[variant]), places=design.places)
                results[variant] = (batch, _mmse(batch.values.sum(axis=-1), factor, divisor),
                                    _mmse(batch.values[..., -1], factor, final))
            yield trials, points, (theta, phi, alpha), results


def _sweep_blocks(cfg: ExperimentConfig, lo: int, hi: int):
    """Per-trial outcomes of trials [lo, hi), one engine block at a time.

    Yields ``(trials, points, {variant: (fails, err_mmse, err_final)})``: a
    range of trials, a slice of the energy grid, arrays ``(points, trials)``.
    """
    per_point = cfg.designs[cfg.variants[0]].stages * cfg.k * cfg.k
    width = max(1, min(len(cfg.et_db), _BLOCK_ENTRIES // per_point))
    block = max(1, _BLOCK_ENTRIES // (width * per_point))
    for trials, points, (*_, alpha), results in _engine_blocks(cfg, lo, hi, block, width):
        alpha_mag = np.abs(alpha)[:, None]
        outcomes = {}
        for variant, (batch, mmse_hat, final_hat) in results.items():
            with np.errstate(invalid="ignore"):  # var_alpha = 0: every error is 0/0 = nan
                outcomes[variant] = (~batch.on_track.T,
                                     (np.abs(mmse_hat - alpha[:, None]) / alpha_mag).T,
                                     (np.abs(final_hat - alpha[:, None]) / alpha_mag).T)
        yield trials, points, outcomes


def _trace_blocks(cfg: ExperimentConfig):
    """:func:`~beamest.estimator.trace_record` dicts of every trial at the one
    energy point of a trace's ``cfg``: per engine block of ``_STREAM_BLOCK``
    trials, one list per variant, trials in order, of the records
    :func:`~beamest.estimator.run_estimation` gives each trial on
    :func:`sample_channel`'s channel and :func:`noise_stream`'s noise.
    """
    for trials, _, (theta, phi, alpha), results in _engine_blocks(cfg, 0, cfg.trials,
                                                                 _STREAM_BLOCK, 1):
        truth = list(zip(trials, theta.tolist(), phi.tolist(),
                         map(format_complex, alpha.tolist())))
        yield [[_record(trial, cfg.master_seed, t, p, a, selections, t_hat, p_hat, a_hat)
                for (trial, t, p, a), selections, t_hat, p_hat, a_hat in zip(
                    truth, np.stack([batch.receive[:, 0], batch.transmit[:, 0]], -1).tolist(),
                    batch.theta_hat[:, 0].tolist(), batch.phi_hat[:, 0].tolist(),
                    alpha_hat[:, 0].tolist())]
               for batch, alpha_hat, _ in results.values()]


def _sweep_chunk(cfg: ExperimentConfig, lo: int, hi: int):
    """``(counts, partials)`` of trials [lo, hi): failures ``(variants,
    points)`` and the exact partials ``(variants, 4, points, P)`` of the MMSE
    and final estimates' relative errors, over all trials, then successes.
    """
    counts = np.zeros((len(cfg.variants), len(cfg.et_db)), dtype=np.int64)
    partials = np.zeros((len(cfg.variants), 4, len(cfg.et_db), 0))
    for trials, points, outcomes in _sweep_blocks(cfg, lo, hi):
        held = partials[:, :, points]
        rows = np.empty(held.shape[:-1] + (held.shape[-1] + len(trials),))
        rows[..., :held.shape[-1]] = held
        for i, (fails, err_mmse, err_final) in enumerate(outcomes.values()):
            counts[i, points] += fails.sum(axis=1)
            errors = rows[i, ..., held.shape[-1]:]
            errors[0], errors[1] = err_mmse, err_final
            errors[2:] = errors[:2]
            np.copyto(errors[2:], 0.0, where=fails)  # a +0.0 changes no exact sum
        merged = _exact_partials(rows)
        if merged.shape[-1] > partials.shape[-1]:
            grown = partials.shape[:-1] + (merged.shape[-1] - partials.shape[-1],)
            partials = np.concatenate([partials, np.zeros(grown)], axis=-1)
        partials[:, :, points] = 0.0
        partials[:, :, points, :merged.shape[-1]] = merged
    return counts, partials


def wilson_interval(failures, trials: int):
    """Two-sided 95% Wilson score interval for a binomial proportion.

    Unlike the normal-approximation (Wald) interval it keeps a nonzero width
    at 0 and at ``trials`` failures.  The bounds are clamped so that rounding
    never puts them on the wrong side of ``failures / trials``.  An integer
    count gives two floats; an array of counts gives two arrays, each entry
    the floats its count alone gives.
    """
    failures = np.asarray(failures)
    z2 = _CONFIDENCE_Z * _CONFIDENCE_Z
    root = _CONFIDENCE_Z * np.sqrt(z2 + 4.0 * failures * (trials - failures) / trials)
    scale = 2.0 * (trials + z2)
    pcef = failures / trials
    low = (2.0 * failures + z2 - root) / scale
    high = (2.0 * failures + z2 + root) / scale
    # the clamps as Python's min and max pick: the first argument unless the
    # second is strictly smaller (larger)
    low = np.where(pcef < low, pcef, low)
    low = np.where(low > 0.0, low, 0.0)
    high = np.where(pcef > high, pcef, high)
    high = np.where(high < 1.0, high, 1.0)
    if failures.ndim == 0:
        return float(low), float(high)
    return low, high


def _exact_partials(rows: np.ndarray) -> np.ndarray:
    """A few floats per row whose exact sum is the row's, along the last axis
    of ``rows`` (overwritten); partials merge entries by being concatenated
    with them and reduced again.

    Each pass splits every remainder ``r`` error-free against one power of
    two (Rump, Ogita and Oishi, "Accurate floating-point summation part I",
    SIAM J. Sci. Comput. 31(1), 2008): with ``2^M >= width + 2``,
    ``2^e >= max |r|`` (a magnitude: remainders can be negative) and
    ``sigma = 2^(M + e)``, ``q = (sigma + r) - sigma``, ``r - q`` and any
    row sum of ``q`` are exact.  One partial per pass until every remainder
    is zero: their count follows the range of the entries' bits, not their
    number.  Entries are ``>= 0`` or NaN (relative gain errors, kept far from
    overflow by :class:`ExperimentConfig`'s gain-range gate): a row holding an
    inf or a NaN has its ``np.sum``, the inf or NaN ``math.fsum`` gives, as its
    first partial and zeros after it; a finite row whose ``sigma`` would
    overflow raises ``ValueError``.  Needs IEEE round-to-nearest adds with
    subnormals kept (no flush-to-zero).
    """
    r = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])
    m = (r.shape[1] + 1).bit_length()  # ceil(log2(width + 2))
    tops = np.maximum(r.max(axis=1, initial=0.0), -r.min(axis=1, initial=0.0))
    special = ~np.isfinite(tops)  # an inf or NaN entry
    if (tops[~special] >= 2.0 ** (1023 - m)).any():  # sigma = 2^(M + e) would overflow
        raise ValueError(f"exact row sums need finite entries below 2**{1023 - m}")
    partials = [np.where(special, r.sum(axis=1), 0.0)] if special.any() else []
    r[special] = 0.0
    q = np.empty_like(r)
    while top := max(float(r.max(initial=0.0)), -float(r.min(initial=0.0))):
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        np.add(r, sigma, out=q)
        q -= sigma
        partials.append(q.sum(axis=1))
        r -= q
    out = np.reshape(partials, (len(partials), len(r))).T
    return out.reshape(*rows.shape[:-1], len(partials))


def _rounded_sums(partials: np.ndarray) -> np.ndarray:
    """Each row's partials rounded once, by ``math.fsum``, to the float it
    gives the whole row that :func:`_exact_partials` reduced (entries ``>= 0``
    or NaN; a row past its limit raised ``ValueError`` there)."""
    rows = partials.reshape(math.prod(partials.shape[:-1]), partials.shape[-1]).tolist()
    return np.array(list(map(math.fsum, rows))).reshape(partials.shape[:-1])


def _aggregate(cfg: ExperimentConfig, counts: np.ndarray,
               partials: np.ndarray) -> dict[str, ResultTable]:
    """One table per variant from the whole sweep's counts and partials."""
    trials = cfg.trials
    sums = _rounded_sums(partials)
    lows, highs = wilson_interval(counts, trials)
    successes = trials - counts
    means = sums[:, :2] / trials
    with np.errstate(invalid="ignore"):  # no successes: a NaN mean, 0.0 / 0
        success_means = sums[:, 2:] / successes[:, None]
    low_counts = (counts < 5) | (successes < 5)
    return {variant: ResultTable(
        variant=variant, n=cfg.n, k=cfg.k, trials=trials, slots=cfg.designs[variant].slots,
        et_db=np.array(cfg.et_db), pcef=counts[i] / trials,
        ci_low=lows[i], ci_high=highs[i], low_count=low_counts[i],
        relerr_mmse_all=means[i, 0], relerr_mmse_success=success_means[i, 0],
        relerr_final_all=means[i, 1], relerr_final_success=success_means[i, 1],
        failures=counts[i]) for i, variant in enumerate(cfg.variants)}


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _process_pool(workers: int):
    """A pool of ``workers`` processes.

    ``concurrent.futures`` is imported here, not with the package: it pulls in
    ``multiprocessing``, ``socket`` and ``logging``, which only a parallel
    sweep needs.
    """
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> dict[str, ResultTable]:
    """Run the full paired sweep; returns one table per variant.

    ``workers > 1`` splits trials across processes, at most one per usable
    CPU.  Per-trial streams are keyed by trial index, failure counts add up
    exactly and each chunk's partials hold its error rows' exact sums, so
    the result does not depend on the split.  A bool or non-integer
    ``workers`` raises ``ValueError`` naming it.
    """
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    workers = min(workers, cfg.trials, usable_cpus())
    if workers == 1:
        chunks = [_sweep_chunk(cfg, 0, cfg.trials)]
    else:
        size = -(-cfg.trials // (workers * 4))
        bounds = [(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
        with _process_pool(workers) as pool:
            chunks = list(pool.map(_sweep_chunk, [cfg] * len(bounds),
                                   [b[0] for b in bounds], [b[1] for b in bounds]))
    return _aggregate(cfg, sum(counts for counts, _ in chunks),
                      np.concatenate([partials for _, partials in chunks], axis=-1))


@dataclass(frozen=True)
class BoundPoint:
    et_db: float
    per_stage: float
    raw_total: float
    bound: float
    clamped: bool


BOUND_CSV_HEADER = "et_db,bound,per_stage,raw_total,clamped"


def bound_table(n: int, k: int, et_db, n0: float = 1.0,
                var_alpha: float | None = None) -> tuple[BoundPoint, ...]:
    """Analytical failure bound for the overlapped design across an energy grid.

    The whole grid's powers go through one
    :func:`~beamest.analysis.pcef_upper_bound` call, which evaluates them in
    blocks of bounded memory.
    """
    design = Design(n, k, OVERLAPPED)
    n0, var_alpha = _noise_and_prior(n0, var_alpha)
    variance = design.gain_prior(var_alpha)
    grid = [_real("et_db", db) for db in et_db]
    energies = np.fromiter((energy_from_db(db, n0) for db in grid), float, len(grid))
    result = pcef_upper_bound(design.patterns, design.stages,
                              power_for_energy(energies, design.n, design.k), n0, variance)
    # an unclamped row's bound is its raw total, one float object for both
    # fields, which keeps a long grid's rows as small as one-point results
    return tuple(
        BoundPoint(et_db=db, per_stage=per_stage, raw_total=raw_total,
                   bound=1.0 if clamped else raw_total, clamped=clamped)
        for db, per_stage, raw_total, clamped in zip(
            grid, result.per_stage.tolist(), result.raw_total.tolist(),
            result.clamped.tolist()))


def bound_csv(points) -> str:
    rows = np.array([(p.et_db, p.bound, p.per_stage, p.raw_total) for p in points], dtype=float)
    return csv_text(BOUND_CSV_HEADER, (*rows.reshape(-1, 4).T,
                                       np.array([p.clamped for p in points], dtype=bool)))
