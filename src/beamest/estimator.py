"""Staged hierarchical search for the single path plus fading-gain estimation.

Each stage sounds the current candidate ranges with a beam bank, fuses the raw
outputs against every sub-range hypothesis pair, keeps the strongest pair and
refines.  After the final stage the angles are known to grid resolution and
the fading coefficient is estimated Bayes-optimally from all selected
measurements; sweeps also report the estimate from the last stage alone.

Every constant the engine reads is a function of the geometry ``(n, k,
variant)`` alone, so one :class:`Design` per triple holds them all, checked
once when it is built.  Every row of a pattern matrix ``P`` has squared norm
``k/m``, so every exact beam (``U^H v = C p``) of stage ``s`` has the same gain
constant ``C_s = sqrt(m k^(s-1) / n)`` (:attr:`Design.gains`).  With the power rule
``p_s = p_t / C_s^4`` and a rank-one channel, a stage's noiseless ``m x m``
block is then the same at every stage: while both true angles lie in the
current parents it is ``sqrt(p_t) * alpha * pilot * P[:, dr] P[:, dt]^T``,
fused ``sqrt(p_t) * alpha * pilot * G[:, dr] G[dt, :]`` with ``G = P^T P``
and ``dr``, ``dt`` the base-``k`` digits of ``theta``, ``phi`` at that stage;
once the search has left the true range it is zero.  The engine core
:func:`_search` runs every stage on that signal for arrays of trials and
power points at once.  :func:`search_batch` is its checked entry for arrays
from outside the package; sweeps and traces call the core directly on the
block draw's arrays, in range by construction, and :func:`run_estimation`
on one trial, so none builds a beam or the ``n x n`` response matrix.
Sounding with the explicit beams (``measure_block`` on ``h``, ``f``, ``w``,
from :func:`codebook_bank`) gives the same blocks up to beam leakage of about
1e-15.

How the engine fuses, scores and picks on flat blocks, per design, is told
at :func:`search_batch`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from ._output import output_file
from .arrays import AngleGrid, ChannelRealization, MeasurementNoise, _integer, _nonnegative, _real
# Not used here: the benchmark's traced run looks these names up on this module.
from .arrays import build_channel, measure_block  # noqa: F401
from .codebook import (
    BeamPatternMatrix,
    IndexRange,
    StageCodebook,
    StageCodebookCache,
    SubrangePartition,
    format_complex,
    identity_pattern_matrix,
    overlapped_pattern_matrix,
)

__all__ = [
    "Design",
    "EstimationTrace",
    "EstimatorConfig",
    "NON_OVERLAPPED",
    "OVERLAPPED",
    "PILOT",
    "SearchBatch",
    "VARIANTS",
    "codebook_bank",
    "estimate_alpha_mmse",
    "fuse_measurements",
    "leftmost_path",
    "run_estimation",
    "search_batch",
    "select_path",
    "stage_count",
    "trace_line",
    "trace_record",
    "write_trace_records",
]

OVERLAPPED = "overlapped"
NON_OVERLAPPED = "non_overlapped"
VARIANTS = (OVERLAPPED, NON_OVERLAPPED)

# Unit-power pilot; any unit-modulus symbol behaves identically.
PILOT = 1.0 + 0.0j


def _check_variant(variant: str, key: str = "variant") -> None:
    if variant not in VARIANTS:
        raise ValueError(f"{key}: unknown variant {variant!r}; expected one of {VARIANTS}")


def stage_count(n: int, k: int) -> int:
    """Number of k-way refinement stages from the full grid down to one point.

    ``n`` must be an exact power of ``k``; fractional staging would leave the
    sub-range sizes ambiguous.
    """
    if k < 2:
        raise ValueError(f"k: sub-range count must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"n: antenna count {n} must be at least k = {k}")
    stages = 0
    value = n
    while value > 1:
        value, remainder = divmod(value, k)
        if remainder:
            raise ValueError(f"n: antenna count {n} is not a power of {k}")
        stages += 1
    return stages


@dataclass(frozen=True, init=False, eq=False)
class Design:
    """One search design's geometry and every constant the engine reads.

    ``Design(n, k, variant)`` checks, each ``ValueError`` naming the field,
    integer ``n`` and ``k`` (not a bool or a float), the variant, ``k >= 2``,
    ``n`` a power of ``k`` below ``2**63``, ``k = 2^m - 1`` for the overlapped
    design, and ``power_weight`` and ``prior`` within the float range.  A
    design is built once per triple and process (memoized, and pickled as its
    triple); its pattern matrix at first use.  Its arrays are read-only.
    """

    n: int
    k: int
    variant: str
    stages: int                 # S, stages from the whole grid down to one point
    m: int                      # beams per end: log2(k + 1) overlapped, k otherwise
    slots: int                  # pilot slots of a whole run, S m^2
    gains: tuple[float, ...]    # C_s = sqrt(m k^(s-1) / n), s = 1..S
    places: np.ndarray          # (S,) grid step of each stage's sub-ranges, k^(S-1) .. 1
    power_weight: float         # m^2 sum_s C_s^-4: the energy E_T of total power p_t = 1
    prior: float                # n^2, the gain prior variance where none is given

    def __new__(cls, n, k, variant: str = OVERLAPPED):
        n, k = _integer("n", n), _integer("k", k)
        _check_variant(variant)
        return _design(n, k, variant)

    def __reduce__(self):
        return Design, (self.n, self.k, self.variant)

    def gain_prior(self, var_alpha: float | None) -> float:
        """The gain prior variance in use: ``var_alpha``, or :attr:`prior` where it is ``None``."""
        return self.prior if var_alpha is None else var_alpha

    @cached_property
    def patterns(self) -> BeamPatternMatrix:
        """The pattern matrix: identity non-overlapped, else overlapped on ``m`` beams."""
        if self.variant == NON_OVERLAPPED:
            return identity_pattern_matrix(self.k)
        return overlapped_pattern_matrix(self.m)


@lru_cache(maxsize=None)
def _design(n: int, k: int, variant: str) -> Design:
    stages = stage_count(n, k)
    m = k
    if variant == OVERLAPPED:
        m = (k + 1).bit_length() - 1
        if (1 << m) - 1 != k:
            raise ValueError(f"k: overlapped design needs k = 2^m - 1 sub-ranges, got k = {k}")
    # stage s gives each sub-range n / k^s points and every pattern row has
    # squared norm k/m, so every beam's target profile has gain 1/||p|| = C_s
    gains = tuple(math.sqrt(m * k ** s / n) for s in range(stages))
    try:
        power_weight, prior = m ** 2 * sum(c ** -4 for c in gains), float(n * n)
    except (OverflowError, ZeroDivisionError):  # C_s^-4 or n^2 past the float range
        power_weight = prior = math.inf
    if not math.isfinite(power_weight + prior):
        raise ValueError("n: antenna count is too large: the design's power constants "
                         "overflow a float")
    if n >= 1 << 63:
        raise ValueError(f"n: antenna count {n} is too large: grid indices are int64, "
                         "so n must be below 2**63")
    design = object.__new__(Design)
    design.__dict__.update(  # frozen: fields are set once, here
        n=n, k=k, variant=variant, stages=stages, m=m, slots=stages * m ** 2, gains=gains,
        places=_read_only(k ** np.arange(stages - 1, -1, -1)), power_weight=power_weight,
        prior=prior)
    return design


def _check_powers(p_t) -> np.ndarray:
    """``p_t`` as a float array; ``ValueError`` unless every entry is finite and positive."""
    powers = np.asarray(p_t, dtype=float)
    for value in powers.ravel().tolist():
        if not math.isfinite(value):
            raise ValueError(f"power constant is NaN or infinite: {value!r}")
        if value <= 0:
            raise ValueError(f"power constant must be positive, got {value}")
    return powers


def _check_gain_range(stages: int, p_t, n0: float, var_alpha: float, places) -> None:
    """``ValueError`` naming ``n0`` or ``var_alpha`` unless the gain estimate
    ``F conj(pilot) s / D`` of :func:`estimate_alpha_mmse`, evaluated left to
    right, stays in float range at each power of ``p_t`` (a float or an
    array), ``places`` naming each power's place in the message.

    ``F = var_alpha sqrt(p_t)``, ``D = S var_alpha p_t + n0`` (``S =
    stages``, or 1 for the final-stage estimate), and the sum ``s`` of ``S``
    selected values has standard deviation ``sqrt(S D)`` on track, less off
    track.  ``var_alpha p_t + n0`` must be normal (else naming ``n0``; both
    zero fails too), and ``F`` normal, or 0 at ``var_alpha = 0``, with ``F *
    64 sqrt(S D)`` finite (else naming ``var_alpha``): a sum 64 standard
    deviations out has probability ``exp(-4096)``.
    """
    tiny = np.finfo(float).tiny
    factor = var_alpha * np.sqrt(p_t)
    with np.errstate(over="ignore"):
        top = factor * (64.0 * np.sqrt(stages * (stages * var_alpha * p_t + n0)))
    for key, name, value, bad, what in (
            ("n0", "noise variance", n0, ~(var_alpha * p_t + n0 >= tiny),
             "leaves the gain estimate's divisor var_alpha * p_t + n0 subnormal"),
            ("var_alpha", "gain prior variance", var_alpha,
             ~(np.isfinite(top) & ((factor >= tiny) | (var_alpha == 0.0))),
             "takes the gain estimate out of float range")):
        if bad.any():
            raise ValueError(f"{key}: {name} {value!r} {what} at {places[int(np.argmax(bad))]}")


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimation run's geometry, power, noise and prior.

    Construction is the gate: integer ``n`` and ``k`` (stored as ``int``) and
    the geometry's :class:`Design` as :attr:`design`; real scalars ``p_t``,
    ``n0`` and ``var_alpha`` (stored as ``float``; none a bool, a string or an
    array), ``p_t`` finite and positive, ``n0`` and ``var_alpha`` finite and
    nonnegative, and the gain estimate in float range at ``p_t``
    (:func:`_check_gain_range`).  Each ``ValueError`` names the field, and
    :func:`run_estimation` reads every geometry constant from :attr:`design`.
    """

    n: int
    k: int
    p_t: float
    n0: float
    var_alpha: float
    variant: str = OVERLAPPED
    design: Design = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("n", "k"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        for key in ("p_t", "n0", "var_alpha"):
            object.__setattr__(self, key, _real(key, getattr(self, key)))
        object.__setattr__(self, "design", Design(self.n, self.k, self.variant))
        _nonnegative("n0", self.n0, "noise variance")
        _nonnegative("var_alpha", self.var_alpha, "gain prior variance")
        _check_powers(self.p_t)
        _check_gain_range(self.design.stages, self.p_t, self.n0, self.var_alpha,
                          [f"p_t = {self.p_t!r}"])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def codebook_bank(n: int, k: int, variant: str = OVERLAPPED) -> StageCodebookCache:
    """Shared beam-synthesis cache of one geometry, checked as its :class:`Design`;
    only ``beamest codebook`` and the tests' explicit-beam reference need beams."""
    return _bank(Design(n, k, variant))


@lru_cache(maxsize=None)
def _bank(design: Design) -> StageCodebookCache:
    return StageCodebookCache(AngleGrid(design.n), design.patterns)


def leftmost_path(n: int, k: int, variant: str = OVERLAPPED
                  ) -> Iterator[tuple[int, SubrangePartition, StageCodebook]]:
    """``(stage, partition, codebook)`` for each stage, always refining block 0.

    A stage's codebook gains depend only on the sub-range size, not on which
    parent is refined, so this one path covers every stage.  Transmit and
    receive parents match, so the combining bank equals the beamforming bank.
    """
    design = Design(n, k, variant)
    bank = _bank(design)
    parent = IndexRange(0, design.n)
    for s in range(1, design.stages + 1):
        partition, codebook = bank.refine(parent, parent, k, stage=s)
        yield s, partition, codebook
        parent = partition.transmit[0]


def fuse_measurements(y: np.ndarray, patterns: BeamPatternMatrix) -> np.ndarray:
    """Correlate the raw m-by-m block against every hypothesis signature.

    Entry ``(kr, kt)`` is ``b_kr^T y b_kt``, the matched-filter output for the
    hypothesis that the path sits in receive sub-range ``kr`` and transmit
    sub-range ``kt``; flattened, that is the inner product of ``vec(y)`` with
    the unit-norm Kronecker signature of the pair.  A stack of blocks
    ``(..., m, m)`` is fused as ``(P^T y) P`` with two 2-D products over the
    whole stack, the blocks side by side, so every block gets the sums a
    block-by-block product gives.  The non-overlapped design has ``P = I``,
    so its blocks are returned as a copy; that differs from the product only
    where a block holds ``-0.0`` (kept, where the product gives ``0.0``) or a
    NaN or infinity (kept in its entry, where the product spreads NaN).
    """
    m, k = patterns.m, patterns.k
    if y.shape[-2:] != (m, m):
        raise ValueError(f"expected {m}x{m} measurement blocks, got {y.shape}")
    values = patterns.values
    if patterns.is_identity:
        return np.array(y, dtype=np.result_type(y, values))
    # rows l of every block side by side: P^T y_b lands at [:, b*m:(b+1)*m]
    left = values.T @ y.reshape(-1, m, m).swapaxes(0, 1).reshape(m, -1)
    fused = left.reshape(-1, m) @ values                        # rows (i, b)
    return fused.reshape(k, -1, k).swapaxes(0, 1).reshape(*y.shape[:-2], k, k)


@lru_cache(maxsize=16)
def _row_starts(shape: tuple[int, ...]) -> np.ndarray:
    """Flat index of the first entry of each row of an array of ``shape``,
    shaped ``shape[:-1]``; read-only.  Memoized by shape: a single-trial
    search asks for the same few shapes on every call."""
    return _read_only(np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1]))


def _pick(r: np.ndarray, magnitudes: np.ndarray | None = None):
    """First index of the largest ``|r|`` along the last axis, and the entry there.

    ``magnitudes`` defaults to ``|r|``; a caller sets entries to -1 there to
    leave them out.  Any NaN or infinite magnitude raises ``ValueError``, picked
    or not: NaN propagates through ``max``, and an infinite entry has infinite
    magnitude, so one reduction checks every entry.
    """
    if magnitudes is None:
        magnitudes = np.abs(r)
    if not np.isfinite(magnitudes.max(initial=0.0)):
        raise ValueError("fused measurements contain NaN or infinite entries")
    index = magnitudes.argmax(axis=-1)
    return index, r.reshape(-1)[index + _row_starts(r.shape)]


def _true_pair_pick(pair_gram: np.ndarray, amplitude: np.ndarray, truth: np.ndarray,
                    fused: np.ndarray, magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The identity design's on-track picks, ``(T, Q, S)`` views of ``(T, S, Q)`` arrays.

    ``amplitude`` is ``(T, Q)``, ``truth`` ``(T, S)``, ``fused`` ``(T, S, k^2)``
    and ``magnitudes``, overwritten, ``|fused|``.  Only the true pair carries
    signal, so it alone is scored per point; the product by the diagonal's 1.0
    keeps a whole-row score's bytes.  The rest is picked once and merged by
    :func:`_pick`'s rule, so the result is one whole-row pick's.
    """
    flat = truth + _row_starts(fused.shape)                                 # (T, S)
    scores = amplitude[:, None, :] * pair_gram.diagonal()[truth][..., None]
    scores += fused.reshape(-1)[flat][..., None]                            # (T, S, Q)
    magnitude = np.abs(scores)
    if not np.isfinite(magnitude.max(initial=0.0)):
        raise ValueError("fused measurements contain NaN or infinite entries")
    magnitudes.put(flat, -1.0)                                  # leave the true pair out
    noise_index, noise_value = _pick(fused, magnitudes)                     # (T, S)
    noise_magnitude = magnitudes.reshape(-1)[noise_index + _row_starts(fused.shape)][..., None]
    # the larger magnitude wins, the smaller flat index on a tie
    wins = (noise_magnitude > magnitude) | ((noise_magnitude == magnitude)
                                            & (noise_index < truth)[..., None])
    index = np.where(wins, noise_index[..., None], truth[..., None])
    value = np.where(wins, noise_value[..., None], scores)
    return index.transpose(0, 2, 1), value.transpose(0, 2, 1)


def select_path(r: np.ndarray):
    """Indices ``(kr, kt)`` of the largest-magnitude fused measurement.

    Ties resolve to the lexicographically smallest pair so selection is
    deterministic.  A stack of blocks ``(..., k, k)`` gives two index arrays
    of the stack's shape instead of two ints.
    """
    index, _ = _pick(r.reshape(*r.shape[:-2], -1))
    kr, kt = np.divmod(index, r.shape[-1])
    if r.ndim == 2:
        return int(kr), int(kt)
    return kr, kt


@dataclass(frozen=True, eq=False)
class EstimationTrace:
    """The outcome of one estimation run.

    ``selections`` holds each stage's picked ``(receive, transmit)`` sub-range
    pair and ``selected_values`` the fused value there, one entry per stage.
    ``alpha_hat`` is :func:`estimate_alpha_mmse` of all the selected values.
    """

    selections: tuple[tuple[int, int], ...]
    selected_values: tuple[complex, ...]
    theta_hat: int
    phi_hat: int
    alpha_hat: complex


def estimate_alpha_mmse(
    values,
    p_t: float,
    pilot: complex,
    n0: float,
    var_alpha: float,
) -> complex:
    """Bayes-linear estimate of the fading gain from all selected measurements.

    Under correct selection every stage contributes ``sqrt(p_t) * pilot *
    alpha`` plus independent noise of variance ``n0``, so with a zero-mean
    prior of variance ``var_alpha`` the estimator collapses (rank-one inverse)
    to ``var_alpha * sqrt(p_t) * conj(pilot) * sum(values) / (S * var_alpha *
    p_t + n0)``.  Stages run along the last axis of ``values``; leading axes
    broadcast against ``p_t``, so one call estimates a whole batch.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ValueError("need at least one selected measurement")
    _check_powers(p_t)
    denominator = values.shape[-1] * var_alpha * p_t + n0
    if np.count_nonzero(denominator <= 0):  # a scalar or an array of powers
        raise ValueError("prior variance and noise variance cannot both be zero")
    return _mmse(values.sum(axis=-1), var_alpha * np.sqrt(p_t) * np.conj(pilot), denominator)


def _mmse(total, factor, divisor):
    """:func:`estimate_alpha_mmse`, unchecked, from the sum ``total`` of the
    selected values, the factor ``var_alpha * sqrt(p_t) * conj(pilot)`` and
    the divisor ``S * var_alpha * p_t + n0``, evaluated left to right."""
    return factor * total / divisor


@dataclass(frozen=True, eq=False)
class SearchBatch:
    """Staged-search outcome for ``T`` trials at ``Q`` power points.

    Per-stage arrays have shape ``(T, Q, S)``: the selected receive and
    transmit sub-ranges and the fused value of each pick.  ``on_track`` is
    ``(T, Q)``, true where every stage picked the true pair, i.e. where the
    angles were estimated exactly.
    """

    receive: np.ndarray
    transmit: np.ndarray
    values: np.ndarray
    on_track: np.ndarray
    places: np.ndarray            # (S,) grid step of each stage's sub-ranges

    @property
    def theta_hat(self) -> np.ndarray:
        return self.receive @ self.places

    @property
    def phi_hat(self) -> np.ndarray:
        return self.transmit @ self.places


def search_batch(design: Design, p_t, theta, phi, alpha, noise: np.ndarray) -> SearchBatch:
    """Run every stage for ``T`` trials times ``Q`` power points at once.

    ``design`` fixes the geometry; ``p_t`` lists the ``Q`` power points, each
    finite and positive.  ``theta``, ``phi`` and ``alpha`` give the ``T`` true channels and
    ``noise`` their ``(T, S, m, m)`` slot noise, shared by every point (see
    :meth:`MeasurementNoise.draw_blocks`).  These are raw caller arrays, so
    their powers, shapes, dtypes and angle range are checked here on every
    call, each ``ValueError`` naming ``theta``, ``phi`` or ``noise``; the
    geometry's constants come from ``design``, built and checked once.
    :func:`run_estimation` runs the same engine on one trial without these
    checks, since its config and channel were checked when they were built,
    and so does a sweep or trace on its block draws, in range by construction.

    A stage fuses its block with ``P^T y P`` and keeps the largest ``|r|``
    (first flat index on ties).  Its block is the rank-one signal plus noise
    while every earlier stage picked the true pair, and noise alone after
    that, so all stages are evaluated on track at once and the on-track mask,
    a running AND of the correct picks, chooses between the two.

    The engine works on flat blocks.  :func:`fuse_measurements` fuses the
    whole noise stack in two products.  The on-track scores are
    ``amplitude (T, Q, 1) * signal (T, 1, S k^2)`` plus the fused noise, one
    row of ``k^2`` scores per ``(trial, point, stage)``.  Each row's pick is
    one ``abs`` and ``argmax`` over ``(rows, k^2)``, and its value is gathered
    through the flat index.  The non-overlapped design (``P = I``) with
    several points scores only the true pair per point
    (:func:`_true_pair_pick`): the rest of its row is fused noise, whose best
    entry is picked once per ``(trial, stage)`` and merged with each point's
    true score under the same rule.  A picked noise-only value is then the
    fused noise itself rather than ``amplitude * 0 + noise``; they differ only
    for a noise entry of ``-0.0``.  The overlapped design, and any single
    point, score whole rows.  A NaN or infinite
    score anywhere raises ``ValueError``, because the largest magnitude of
    every set of scores picked from is checked to be finite.
    """
    p_t = _check_powers(p_t)
    if p_t.ndim != 1:
        raise ValueError(f"expected a 1-D array of power points, got shape {p_t.shape}")
    alpha = np.asarray(alpha, dtype=complex)
    theta, phi, noise = np.asarray(theta), np.asarray(phi), np.asarray(noise)
    trials, m, stages = len(alpha), design.m, design.stages
    if theta.shape != (trials,) or phi.shape != (trials,):
        raise ValueError(f"expected {trials} angle indices per end, "
                         f"got {theta.shape} and {phi.shape}")
    for key, angle in (("theta", theta), ("phi", phi)):
        if angle.dtype.kind not in "iu":  # a bool or float would index as a number
            raise ValueError(f"{key}: angle indices must be integers, got dtype {angle.dtype}")
        if angle.min(initial=0) < 0 or angle.max(initial=0) >= design.n:
            raise ValueError(f"{key}: angle indices must lie in [0, {design.n})")
    if noise.dtype.kind not in "iufc":
        raise ValueError(f"noise must be numeric, got dtype {noise.dtype}")
    if noise.shape != (trials, stages, m, m):
        raise ValueError(f"expected noise of shape {(trials, stages, m, m)}, got {noise.shape}")
    # in [0, n) and n < 2**63, so int64 holds either end's indices
    angles = np.array((theta, phi), dtype=np.int64)
    return SearchBatch(*_search(design, p_t, angles, alpha, noise), places=design.places)


def _search(design: Design, p_t: np.ndarray, angles: np.ndarray, alpha: np.ndarray,
            noise: np.ndarray):
    """The staged search of :func:`search_batch` on checked inputs.

    ``p_t`` is ``(Q,)`` float, ``angles`` the ``(2, T)`` indices of
    ``theta`` and ``phi``, ``alpha`` ``(T,)`` complex and ``noise``
    ``(T, S, m, m)``.  Returns the picked receive and transmit sub-ranges and
    values, ``(T, Q, S)`` each, and the ``(T, Q)`` on-track mask.
    """
    k, stages = design.k, design.stages
    patterns = design.patterns
    trials, points = len(alpha), len(p_t)
    amplitude = alpha[:, None] * PILOT * np.sqrt(p_t)                       # (T, Q)
    dr, dt = angles[..., None] // design.places % k                            # (T, S) each
    truth = dr * k + dt                                  # flat index of the true pair
    fused = fuse_measurements(noise, patterns).reshape(trials, stages, -1)  # (T, S, k^2)
    magnitudes = np.abs(fused)
    # off track, a stage sees this fused noise alone, the same at every point
    pick_off, value_off = _pick(fused, magnitudes)                          # (T, S)
    # the identity's signal touches the true pair alone, so with several
    # points the rest of each row is picked once; the overlapped design's
    # all-beams column overlaps every column, so its widest row is whole, and
    # one point has nothing to share: both score whole rows
    if points == 1 or not patterns.is_identity:
        r_on = amplitude[..., None] * patterns.pair_gram[truth].reshape(trials, 1, -1)
        r_on += fused.reshape(trials, 1, -1)                                # (T, Q, S k^2)
        # one row of k^2 scores per (trial, point, stage)
        pick_on, value_on = _pick(r_on.reshape(trials, points, stages, -1))
    else:
        pick_on, value_on = _true_pair_pick(patterns.pair_gram, amplitude, truth, fused,
                                            magnitudes)
    correct = np.logical_and.accumulate(pick_on == truth[:, None], axis=-1)  # (T, Q, S)
    on = np.ones(correct.shape, dtype=bool)
    on[..., 1:] = correct[..., :-1]
    # off track, a stage sees the same noise at every point
    receive, transmit = patterns.pair_digits.take(np.where(on, pick_on, pick_off[:, None]),
                                                  axis=1)
    # C order, in which the estimators sum the stages
    values = np.ascontiguousarray(np.where(on, value_on, value_off[:, None]))
    return receive, transmit, values, correct[..., -1]


def run_estimation(
    channel: ChannelRealization,
    cfg: EstimatorConfig,
    rng: int | np.random.SeedSequence | np.random.Generator = 0,
) -> EstimationTrace:
    """Run the staged search against a channel and estimate all three parameters.

    ``rng`` seeds the measurement noise; pass distinct substreams to make
    repeated trials independent.  With ``cfg.n0 == 0`` the run is fully
    deterministic.  Per-stage transmit power follows ``p_s = p_t / C_s^4`` so
    every stage sees the same matched-filter SNR.  This is the engine of
    :func:`search_batch` on one trial and one power point.  The config and
    the channel were checked when they were built, so only their antenna
    counts are compared here; ``alpha_hat`` is
    :func:`estimate_alpha_mmse` of the selected values.
    """
    if channel.n != cfg.n:
        raise ValueError(f"channel has {channel.n} antennas but config expects {cfg.n}")
    design = cfg.design
    noise = MeasurementNoise(cfg.n0, rng).draw_blocks(design.stages, (design.m, design.m))
    receive, transmit, values, _ = _search(
        design, np.array([cfg.p_t], dtype=float), np.array([[channel.theta], [channel.phi]]),
        np.array([channel.alpha], dtype=complex), noise[None])
    receive, transmit, values = receive[0, 0], transmit[0, 0], values[0, 0]
    # via a list: tuple() of an iterator resizes its result, and CPython keeps
    # each freed resized tuple on a free list, so memory crept up per trial
    selections = list(zip(receive.tolist(), transmit.tolist()))
    return EstimationTrace(
        selections=tuple(selections),
        selected_values=tuple(values.tolist()),
        theta_hat=int(receive @ design.places),
        phi_hat=int(transmit @ design.places),
        alpha_hat=complex(estimate_alpha_mmse(values, cfg.p_t, PILOT, cfg.n0, cfg.var_alpha)),
    )


def trace_record(trace: EstimationTrace, truth: ChannelRealization,
                 trial: int | None = None, seed: int | None = None) -> dict:
    """Flatten one run into a JSON-serializable record for post-hoc analysis."""
    return _record(trial, seed, truth.theta, truth.phi, format_complex(truth.alpha),
                   [list(pair) for pair in trace.selections], trace.theta_hat,
                   trace.phi_hat, trace.alpha_hat)


def _record(trial, seed, theta: int, phi: int, alpha: str, selections: list,
            theta_hat: int, phi_hat: int, alpha_hat: complex) -> dict:
    """The :func:`trace_record` dict of one run: ``alpha`` comes formatted,
    since every variant of a trial shares it, and ``selections`` as lists."""
    return {
        "trial": trial,
        "seed": seed,
        "theta": theta,
        "phi": phi,
        "alpha": alpha,
        "selections": selections,
        "theta_hat": theta_hat,
        "phi_hat": phi_hat,
        "alpha_hat": format_complex(alpha_hat),
        "correct": bool(theta_hat == theta and phi_hat == phi),
    }


# A trace record's JSON line, its keys in sorted order.
_TRACE_LINE = ('{"alpha": %s, "alpha_hat": %s, "correct": %s, "phi": %d, "phi_hat": %d, '
               '"seed": %s, "selections": %r, "theta": %d, "theta_hat": %d, "trial": %s}\n')


def trace_line(record: dict) -> str:
    """One :func:`trace_record` dict as a JSON line: the text of
    ``json.dumps(record, sort_keys=True) + "\\n"``, written field by field.

    The schema is fixed, and a dict with other keys raises ``ValueError``:
    ``trial`` and ``seed`` are ints or ``None``, the angles ints,
    ``correct`` a bool, ``selections`` a list of two-int lists, whose
    ``repr`` is their JSON, and the two gains strings, which go through
    ``json``'s own encoder.  ``None``, which a caller writes for a record
    it could not make, gives ``null``.
    """
    if record is None:
        return "null\n"
    if len(record) != 10:
        raise ValueError(f"not a trace record: keys {sorted(record)}")
    trial, seed = record["trial"], record["seed"]
    return _TRACE_LINE % (
        _json_string(record["alpha"]), _json_string(record["alpha_hat"]),
        "true" if record["correct"] else "false", record["phi"], record["phi_hat"],
        "null" if seed is None else seed, record["selections"], record["theta"],
        record["theta_hat"], "null" if trial is None else trial)


def write_trace_records(path, records) -> None:
    """One JSON object per line."""
    with output_file(path) as fh:
        for record in records:
            fh.write(trace_line(record))
