"""Staged hierarchical search for the single path plus fading-gain estimation.

Each stage sounds the current candidate ranges with a beam bank, fuses the raw
outputs against every sub-range hypothesis pair, keeps the strongest pair and
refines.  After the final stage the angles are known to grid resolution and
the fading coefficient is estimated from the per-stage selected measurements,
either Bayes-optimally across all stages or from the last stage alone.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .arrays import AngleGrid, ChannelRealization, MeasurementNoise, build_channel, measure_block
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
    "ALPHA_ESTIMATORS",
    "ALPHA_FINAL",
    "ALPHA_MMSE_ALL",
    "EstimationTrace",
    "EstimatorConfig",
    "NON_OVERLAPPED",
    "OVERLAPPED",
    "PILOT",
    "StageMeasurement",
    "VARIANTS",
    "codebook_bank",
    "estimate_alpha_final_stage",
    "estimate_alpha_mmse",
    "fuse_measurements",
    "leftmost_path",
    "patterns_per_end",
    "run_baseline",
    "run_estimation",
    "select_path",
    "slot_count",
    "stage_count",
    "trace_record",
    "write_trace_records",
]

OVERLAPPED = "overlapped"
NON_OVERLAPPED = "non_overlapped"
VARIANTS = (OVERLAPPED, NON_OVERLAPPED)

ALPHA_MMSE_ALL = "mmse_all_stages"
ALPHA_FINAL = "final_stage_only"
ALPHA_ESTIMATORS = (ALPHA_MMSE_ALL, ALPHA_FINAL)

# Unit-power pilot; any unit-modulus symbol behaves identically.
PILOT = 1.0 + 0.0j


def stage_count(n: int, k: int) -> int:
    """Number of k-way refinement stages from the full grid down to one point.

    ``n`` must be an exact power of ``k``; fractional staging would leave the
    sub-range sizes ambiguous.
    """
    if k < 2:
        raise ValueError(f"sub-range count must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"antenna count {n} must be at least k = {k}")
    stages = 0
    value = n
    while value > 1:
        value, remainder = divmod(value, k)
        if remainder:
            raise ValueError(f"antenna count {n} is not a power of {k}")
        stages += 1
    return stages


def patterns_per_end(k: int, variant: str = OVERLAPPED) -> int:
    """Beams each end uses per stage: ``log2(k + 1)`` overlapped, ``k`` otherwise."""
    _check_variant(variant)
    if variant == NON_OVERLAPPED:
        return k
    m = (k + 1).bit_length() - 1
    if (1 << m) - 1 != k:
        raise ValueError(f"overlapped design needs k = 2^m - 1 sub-ranges, got k = {k}")
    return m


def slot_count(n: int, k: int, variant: str = OVERLAPPED) -> int:
    """Total pilot slots for a full run: stages times (beams per end) squared."""
    return stage_count(n, k) * patterns_per_end(k, variant) ** 2


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Static description of one estimation run."""

    n: int
    k: int
    p_t: float
    n0: float
    var_alpha: float
    variant: str = OVERLAPPED
    alpha_estimator: str = ALPHA_MMSE_ALL

    def __post_init__(self):
        _check_variant(self.variant)
        if self.alpha_estimator not in ALPHA_ESTIMATORS:
            raise ValueError(f"unknown alpha estimator {self.alpha_estimator!r}; "
                             f"expected one of {ALPHA_ESTIMATORS}")
        # computing the cached geometry validates the variant, k and n
        _ = self.patterns, self.stages
        if self.p_t <= 0:
            raise ValueError(f"power constant must be positive, got {self.p_t}")
        if self.n0 < 0:
            raise ValueError(f"noise variance must be nonnegative, got {self.n0}")
        if self.var_alpha < 0:
            raise ValueError(f"gain prior variance must be nonnegative, got {self.var_alpha}")

    @cached_property
    def stages(self) -> int:
        return stage_count(self.n, self.k)

    @cached_property
    def patterns(self) -> int:
        return patterns_per_end(self.k, self.variant)

    @property
    def slots(self) -> int:
        return self.stages * self.patterns ** 2

    def pattern_matrix(self) -> BeamPatternMatrix:
        if self.variant == NON_OVERLAPPED:
            return identity_pattern_matrix(self.k)
        return overlapped_pattern_matrix(self.patterns)


@lru_cache(maxsize=None)
def codebook_bank(n: int, k: int, variant: str = OVERLAPPED) -> StageCodebookCache:
    """Shared synthesis cache for every run with the same geometry."""
    _check_variant(variant)
    patterns = (identity_pattern_matrix(k) if variant == NON_OVERLAPPED
                else overlapped_pattern_matrix(patterns_per_end(k, variant)))
    return StageCodebookCache(AngleGrid(n), patterns)


def leftmost_path(n: int, k: int, variant: str = OVERLAPPED
                  ) -> Iterator[tuple[int, SubrangePartition, StageCodebook]]:
    """``(stage, partition, codebook)`` for each stage, always refining block 0.

    A stage's codebook gain depends only on the sub-range size, not on which
    parent is refined, so this one path covers every stage.  Transmit and
    receive parents match, so the combining bank equals the beamforming bank.
    """
    bank = codebook_bank(n, k, variant)
    parent = IndexRange(0, n)
    for s in range(1, stage_count(n, k) + 1):
        partition, codebook = bank.refine(parent, parent, k, stage=s)
        yield s, partition, codebook
        parent = partition.transmit[0]


def fuse_measurements(y: np.ndarray, patterns: BeamPatternMatrix) -> np.ndarray:
    """Correlate the raw m-by-m block against every hypothesis signature.

    Entry ``(kr, kt)`` is ``b_kr^T y b_kt``, the matched-filter output for the
    hypothesis that the path sits in receive sub-range ``kr`` and transmit
    sub-range ``kt``; flattened, that is the inner product of ``vec(y)`` with
    the unit-norm Kronecker signature of the pair.
    """
    m = patterns.m
    if y.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} measurement block, got {y.shape}")
    return patterns.values.T @ y @ patterns.values


def select_path(r: np.ndarray) -> tuple[int, int]:
    """Indices ``(kr, kt)`` of the largest-magnitude fused measurement.

    Ties resolve to the lexicographically smallest pair so selection is
    deterministic.
    """
    if not np.all(np.isfinite(r)):
        raise ValueError("fused measurements contain NaN or infinite entries")
    flat = int(np.argmax(np.abs(r)))
    kr, kt = np.unravel_index(flat, r.shape)
    return int(kr), int(kt)


@dataclass(frozen=True, eq=False)
class StageMeasurement:
    """Raw outputs, fused hypothesis scores and the pick of one stage."""

    y: np.ndarray
    r: np.ndarray
    selected_receive: int
    selected_transmit: int
    value: complex


@dataclass(frozen=True, eq=False)
class EstimationTrace:
    """Everything one estimation run produced."""

    stages: tuple[StageMeasurement, ...]
    theta_hat: int
    phi_hat: int
    alpha_hat: complex
    stage_powers: tuple[float, ...]
    total_energy: float
    final_receive_range: IndexRange
    final_transmit_range: IndexRange

    @property
    def selected_values(self) -> tuple[complex, ...]:
        return tuple(stage.value for stage in self.stages)


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
    p_t + n0)``.
    """
    values = tuple(complex(v) for v in values)
    if not values:
        raise ValueError("need at least one selected measurement")
    if p_t <= 0:
        raise ValueError(f"power constant must be positive, got {p_t}")
    denominator = len(values) * var_alpha * p_t + n0
    if denominator <= 0:
        raise ValueError("prior variance and noise variance cannot both be zero")
    return var_alpha * np.sqrt(p_t) * np.conj(pilot) * sum(values) / denominator


def estimate_alpha_final_stage(
    final_value: complex,
    p_t: float,
    pilot: complex,
    n0: float,
    var_alpha: float,
) -> complex:
    """Single-measurement variant of :func:`estimate_alpha_mmse` (last stage only)."""
    return estimate_alpha_mmse((final_value,), p_t, pilot, n0, var_alpha)


def run_estimation(
    channel: ChannelRealization,
    cfg: EstimatorConfig,
    rng: int | np.random.SeedSequence | np.random.Generator = 0,
) -> EstimationTrace:
    """Run the staged search against a channel and estimate all three parameters.

    ``rng`` seeds the measurement noise; pass distinct substreams to make
    repeated trials independent.  With ``cfg.n0 == 0`` the run is fully
    deterministic.  Per-stage transmit power follows ``p_s = p_t / C_s^4`` so
    every stage sees the same matched-filter SNR.
    """
    if channel.n != cfg.n:
        raise ValueError(f"channel has {channel.n} antennas but config expects {cfg.n}")
    bank = codebook_bank(cfg.n, cfg.k, cfg.variant)
    patterns = bank.patterns
    h = build_channel(channel)
    noise = MeasurementNoise(cfg.n0, rng)

    parent_t = IndexRange(0, cfg.n)
    parent_r = IndexRange(0, cfg.n)
    stages: list[StageMeasurement] = []
    powers: list[float] = []
    for s in range(1, cfg.stages + 1):
        partition, stage_cb = bank.refine(parent_t, parent_r, cfg.k, stage=s)
        p_s = cfg.p_t / stage_cb.gain ** 4
        y = measure_block(h, stage_cb.f, stage_cb.w, p_s, PILOT, noise)
        r = fuse_measurements(y, patterns)
        kr, kt = select_path(r)
        stages.append(StageMeasurement(y=y, r=r, selected_receive=kr,
                                       selected_transmit=kt, value=complex(r[kr, kt])))
        powers.append(p_s)
        parent_t = partition.transmit[kt]
        parent_r = partition.receive[kr]

    phi_hat = sum(stage.selected_transmit * cfg.k ** (cfg.stages - s)
                  for s, stage in enumerate(stages, start=1))
    theta_hat = sum(stage.selected_receive * cfg.k ** (cfg.stages - s)
                    for s, stage in enumerate(stages, start=1))
    selected = tuple(stage.value for stage in stages)
    if cfg.alpha_estimator == ALPHA_MMSE_ALL:
        alpha_hat = estimate_alpha_mmse(selected, cfg.p_t, PILOT, cfg.n0, cfg.var_alpha)
    else:
        alpha_hat = estimate_alpha_final_stage(selected[-1], cfg.p_t, PILOT,
                                               cfg.n0, cfg.var_alpha)
    return EstimationTrace(
        stages=tuple(stages),
        theta_hat=theta_hat,
        phi_hat=phi_hat,
        alpha_hat=complex(alpha_hat),
        stage_powers=tuple(powers),
        total_energy=cfg.patterns ** 2 * sum(powers),
        final_receive_range=parent_r,
        final_transmit_range=parent_t,
    )


def run_baseline(
    channel: ChannelRealization,
    cfg: EstimatorConfig,
    rng: int | np.random.SeedSequence | np.random.Generator = 0,
) -> EstimationTrace:
    """Non-overlapped reference search: one beam per sub-range, k^2 slots a stage."""
    return run_estimation(channel, replace(cfg, variant=NON_OVERLAPPED), rng)


def trace_record(trace: EstimationTrace, truth: ChannelRealization,
                 trial: int | None = None, seed: int | None = None) -> dict:
    """Flatten one run into a JSON-serializable record for post-hoc analysis."""
    record = {
        "trial": trial,
        "seed": seed,
        "theta": truth.theta,
        "phi": truth.phi,
        "alpha": format_complex(truth.alpha),
        "selections": [[s.selected_receive, s.selected_transmit] for s in trace.stages],
        "theta_hat": trace.theta_hat,
        "phi_hat": trace.phi_hat,
        "alpha_hat": format_complex(trace.alpha_hat),
        "correct": bool(trace.theta_hat == truth.theta and trace.phi_hat == truth.phi),
    }
    return record


def write_trace_records(path, records) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="ascii") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
