"""Beam-pattern codebooks for staged angular search.

A stage splits the candidate angular ranges into ``k`` sub-ranges and probes
them with a bank of beams.  Each beam's gain is piecewise constant across the
sub-ranges, prescribed by a column-normalized pattern matrix: the overlapped
design covers the ``k = 2^m - 1`` sub-ranges with only ``m`` beams by letting
beams overlap, while the non-overlapped design uses one beam per sub-range.
The grid responses ``U`` are orthonormal (see :class:`~beamest.arrays.AngleGrid`),
so the system ``U^H v = C p`` for a unit-norm beam ``v`` realizing a scaled
copy of the target gain profile ``p`` has the exact solution
``v = U p / ||p||`` with gain constant ``C_s = 1/||p||``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .arrays import AngleGrid

__all__ = [
    "BeamPatternMatrix",
    "IndexRange",
    "StageCodebook",
    "StageCodebookCache",
    "SubrangePartition",
    "SynthesizedBeam",
    "build_stage_codebook",
    "format_complex",
    "identity_pattern_matrix",
    "overlapped_pattern_matrix",
    "parse_complex",
    "partition_subranges",
    "read_beam_matrix",
    "synthesize_vector",
    "target_profile",
    "write_beam_matrix",
]

@dataclass(frozen=True, eq=False)
class BeamPatternMatrix:
    """Per-beam amplitudes over the ``k`` sub-ranges of one search stage.

    ``values[m, k]`` is the amplitude beam ``m`` presents on sub-range ``k``.
    Columns are unit vectors, so every sub-range receives the same total power
    from the bank.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"pattern matrix must be a nonempty 2-D array, got shape {v.shape}")
        if np.any(v < 0):
            raise ValueError("pattern amplitudes must be nonnegative")
        norms = np.linalg.norm(v, axis=0)
        if np.any(norms == 0):
            raise ValueError("pattern matrix has an all-zero column")
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("pattern matrix columns must be unit norm")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def column(self, index: int) -> np.ndarray:
        return self.values[:, index]

    @cached_property
    def gram(self) -> np.ndarray:
        """k-by-k matrix of column inner products; drives selection analysis."""
        g = self.values.T @ self.values
        g.setflags(write=False)
        return g


def overlapped_pattern_matrix(m: int) -> BeamPatternMatrix:
    """All ``2^m - 1`` nonzero on/off combinations of ``m`` beams, one per column.

    Column ``j`` covers the beams flagged by the reflected-Gray code word
    ``g(2^m - 1 - j)`` (row 0 is the most significant bit), scaled by
    ``1/sqrt(popcount)`` for unit norm.  Gray ordering makes adjacent
    sub-ranges differ in exactly one beam, so for m = 2 the columns read
    ``(1, 0), (1, 1)/sqrt(2), (0, 1)``.
    """
    if not 1 <= m <= 16:
        raise ValueError(f"beam count must be between 1 and 16, got {m}")
    k = (1 << m) - 1
    values = np.zeros((m, k))
    for j in range(k):
        word = k - j
        gray = word ^ (word >> 1)
        rows = [r for r in range(m) if (gray >> (m - 1 - r)) & 1]
        values[rows, j] = 1.0 / np.sqrt(len(rows))
    return BeamPatternMatrix(values)


def identity_pattern_matrix(k: int) -> BeamPatternMatrix:
    """Non-overlapped design: beam ``m`` covers sub-range ``m`` alone."""
    if k < 1:
        raise ValueError(f"sub-range count must be at least 1, got {k}")
    return BeamPatternMatrix(np.eye(k))


@dataclass(frozen=True, order=True)
class IndexRange:
    """Contiguous half-open block ``[start, stop)`` of angle-grid indices."""

    start: int
    stop: int

    def __post_init__(self):
        if not 0 <= self.start < self.stop:
            raise ValueError(f"empty or negative index range [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.stop

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)

    def split(self, k: int) -> tuple["IndexRange", ...]:
        """``k`` equal contiguous children in ascending order."""
        size, rem = divmod(len(self), k)
        if rem:
            raise ValueError(f"range of size {len(self)} does not divide into {k} blocks")
        return tuple(IndexRange(self.start + i * size, self.start + (i + 1) * size)
                     for i in range(k))


@dataclass(frozen=True)
class SubrangePartition:
    """The ``k`` transmit and ``k`` receive sub-ranges probed during one stage."""

    stage: int
    transmit: tuple[IndexRange, ...]
    receive: tuple[IndexRange, ...]

    @property
    def k(self) -> int:
        return len(self.transmit)


def partition_subranges(
    parent_transmit: IndexRange,
    parent_receive: IndexRange,
    k: int,
    stage: int = 1,
) -> SubrangePartition:
    """Split both parent ranges into ``k`` equal contiguous children."""
    return SubrangePartition(stage, parent_transmit.split(k), parent_receive.split(k))


def target_profile(
    patterns: BeamPatternMatrix,
    m: int,
    blocks: Sequence[IndexRange],
    n: int,
) -> np.ndarray:
    """Desired per-grid-point gain of beam ``m``: ``values[m, k]`` on block ``k``.

    Points outside every block get zero gain.  The profile is returned
    unscaled; synthesis determines the gain constant a unit-norm weight vector
    can actually realize.
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


@dataclass(frozen=True, eq=False)
class SynthesizedBeam:
    """Unit-norm weight vector realizing a scaled copy of a target gain profile."""

    vector: np.ndarray
    gain: float
    residual: float


def synthesize_vector(profile: np.ndarray, grid: AngleGrid) -> SynthesizedBeam:
    """Unit-norm weights ``v`` with ``response_matrix^H v = gain * profile``.

    Orthonormal grid responses make ``v = U p / ||p||`` with ``gain = 1/||p||``
    the exact solution; ``residual`` reports the relative misfit of the
    realized gains ``U^H v`` against the scaled profile.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (grid.n,):
        raise ValueError(f"profile must have length {grid.n}, got shape {profile.shape}")
    if not profile.any():
        raise ValueError("target profile is identically zero")
    u = grid.response_matrix
    gain = 1.0 / float(np.linalg.norm(profile))
    target = gain * profile  # unit norm, so the misfit below is already relative
    vector = u @ target
    # U^H v as conj(U^T conj(v)): U^T is a view, so U^H is never copied
    realized = (u.T @ vector.conj()).conj()
    residual = float(np.linalg.norm(realized - target))
    return SynthesizedBeam(vector=vector, gain=gain, residual=residual)


@dataclass(frozen=True, eq=False)
class StageCodebook:
    """Beamforming (``f``) and combining (``w``) banks for one stage.

    One column per beam.  ``gain`` is the per-stage constant shared by all
    beams (geometric mean of the columns' synthesis constants): on sub-range
    ``j`` a column's realized gain is ``gain`` times its pattern amplitude on
    ``j``.  ``gain_spread`` records how far the individual constants straddle
    it (max/min - 1) and ``residual`` the worst relative synthesis misfit.
    """

    stage: int
    f: np.ndarray
    w: np.ndarray
    gain: float
    gain_spread: float
    residual: float


class StageCodebookCache:
    """Builds stage codebooks against one grid/pattern pair, memoizing per parent.

    Distinct stages that refine the same parent block reuse the same synthesized
    beams, which keeps repeated estimation runs cheap.
    """

    def __init__(self, grid: AngleGrid, patterns: BeamPatternMatrix):
        self.grid = grid
        self.patterns = patterns
        self._banks: dict[tuple[IndexRange, ...], tuple[np.ndarray, np.ndarray, float]] = {}
        self._stages: dict[tuple[IndexRange, IndexRange, int],
                           tuple[SubrangePartition, StageCodebook]] = {}

    def _end_bank(self, blocks: tuple[IndexRange, ...]) -> tuple[np.ndarray, np.ndarray, float]:
        bank = self._banks.get(blocks)
        if bank is None:
            beams = [synthesize_vector(
                target_profile(self.patterns, m, blocks, self.grid.n), self.grid)
                for m in range(self.patterns.m)]
            matrix = np.stack([b.vector for b in beams], axis=1)
            gains = np.array([b.gain for b in beams])
            residual = max(b.residual for b in beams)
            bank = (matrix, gains, residual)
            self._banks[blocks] = bank
        return bank

    def stage_codebook(self, partition: SubrangePartition) -> StageCodebook:
        f, gains_t, res_t = self._end_bank(partition.transmit)
        w, gains_r, res_r = self._end_bank(partition.receive)
        gains = np.concatenate([gains_t, gains_r])
        gain = float(np.exp(np.mean(np.log(gains))))
        spread = float(gains.max() / gains.min() - 1.0)
        return StageCodebook(stage=partition.stage, f=f, w=w, gain=gain,
                             gain_spread=spread, residual=max(res_t, res_r))

    def refine(self, parent_transmit: IndexRange, parent_receive: IndexRange,
               k: int, stage: int) -> tuple[SubrangePartition, StageCodebook]:
        """Partition both parents and return the matching codebook, memoized."""
        key = (parent_transmit, parent_receive, stage)
        hit = self._stages.get(key)
        if hit is None:
            partition = partition_subranges(parent_transmit, parent_receive, k, stage)
            hit = (partition, self.stage_codebook(partition))
            self._stages[key] = hit
        return hit


def build_stage_codebook(
    patterns: BeamPatternMatrix,
    partition: SubrangePartition,
    grid: AngleGrid,
) -> StageCodebook:
    """Synthesize the beamforming and combining banks for one stage."""
    return StageCodebookCache(grid, patterns).stage_codebook(partition)


def format_complex(z: complex) -> str:
    """Serialize a complex number as ``re<+/->imj``, e.g. ``1.5+0.25j``."""
    z = complex(z)
    imag = f"+{z.imag!r}" if z.imag >= 0 else repr(z.imag)
    return f"{z.real!r}{imag}j"


def parse_complex(text: str) -> complex:
    return complex(text)


def write_beam_matrix(path, matrix: np.ndarray, stage: int, gain: float) -> None:
    """Write a beam bank as text: header ``N M stage C_s``, then one row per antenna."""
    n, m = matrix.shape
    lines = [f"{n} {m} {stage} {gain!r}"]
    for row in matrix:
        lines.append(" ".join(format_complex(z) for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_beam_matrix(path) -> tuple[np.ndarray, int, float]:
    """Inverse of :func:`write_beam_matrix`; returns ``(matrix, stage, gain)``."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        n, m, stage = int(header[0]), int(header[1]), int(header[2])
        gain = float(header[3])
        rows = [[parse_complex(cell) for cell in fh.readline().split()] for _ in range(n)]
    matrix = np.array(rows, dtype=complex)
    if matrix.shape != (n, m):
        raise ValueError(f"beam matrix file is inconsistent: header {n}x{m}, "
                         f"body {matrix.shape}")
    return matrix, stage, gain
