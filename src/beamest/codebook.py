"""Beam-pattern codebooks for staged angular search.

A stage splits the candidate angular ranges into ``k`` sub-ranges and probes
them with a bank of beams.  Each beam's gain is piecewise constant across the
sub-ranges, prescribed by a column-normalized pattern matrix: the overlapped
design covers the ``k = 2^m - 1`` sub-ranges with only ``m`` beams by letting
beams overlap, while the non-overlapped design uses one beam per sub-range.
The grid responses ``U`` are orthonormal (see :class:`~beamest.arrays.AngleGrid`),
so the system ``U^H v = C p`` for a unit-norm beam ``v`` realizing a scaled
copy of the target gain profile ``p`` has the exact solution
``v = U p / ||p||`` with gain constant ``C_s = 1/||p||``.  On the sine grid
``U[a, i] = (-1)^a exp(2 pi j a i / n) / sqrt(n)``, a signed unitary DFT, so
``v = (-1)^a sqrt(n) ifft(p / ||p||)`` and the realized gains ``U^H v`` are
``fft((-1)^a v) / sqrt(n)``: O(n log n) per beam, and ``U`` is never built.

Every parent range of a stage has the same length and the same pattern, so by
the DFT shift theorem the beams of the parent starting at grid index ``o`` are
those of the parent starting at 0 times the phase ramp ``exp(2 pi j a o / n)``
on antenna ``a``: each stage is synthesized once and shifted onto its parents.
The leftmost parent's profiles are the pattern rows themselves, each entry
repeated over its child's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._output import output_file
from .arrays import AngleGrid

__all__ = [
    "BeamPatternMatrix",
    "IndexRange",
    "StageCodebook",
    "StageCodebookCache",
    "SubrangePartition",
    "SynthesizedBeam",
    "format_complex",
    "identity_pattern_matrix",
    "overlapped_pattern_matrix",
    "realized_gains",
    "synthesize_vector",
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

    @cached_property
    def is_identity(self) -> bool:
        """Whether the matrix is ``I``: each beam covers one sub-range alone."""
        return self.m == self.k and bool(np.array_equal(self.values, np.eye(self.k)))

    @cached_property
    def gram(self) -> np.ndarray:
        """k-by-k matrix of column inner products; drives selection analysis."""
        g = self.values.T @ self.values
        g.setflags(write=False)
        return g

    @cached_property
    def pair_gram(self) -> np.ndarray:
        """``gram (x) gram``; row ``i`` is the flattened fused block ``G[:, kr] G[kt, :]``.

        Hypothesis ``i = kr * k + kt`` pairs receive sub-range ``kr`` with
        transmit sub-range ``kt``; its row is ``P^T`` applied on both sides of
        the noiseless block ``P[:, kr] P[:, kt]^T``.
        """
        g = np.kron(self.gram, self.gram)
        g.setflags(write=False)
        return g

    @cached_property
    def pair_correlations(self) -> np.ndarray:
        """Correlation factor ``rho`` of every ordered pair of distinct hypotheses.

        ``rho`` of the pair ``(i, j)`` is entry ``(i, j)`` of
        :attr:`pair_gram`.  Lists the off-diagonal entries in row-major order;
        the diagonal pairs a hypothesis with itself.
        """
        k2 = self.k * self.k
        rho = self.pair_gram[~np.eye(k2, dtype=bool)]
        rho.setflags(write=False)
        return rho

    @cached_property
    def distinct_correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rho, layout)``: the distinct values of :attr:`pair_correlations`,
        ascending, and for each entry of the flattened ``pair_gram`` the index
        of its pair's ``rho`` there, ``len(rho)`` on the diagonal."""
        k2 = self.k * self.k
        rho, inverse = np.unique(self.pair_correlations, return_inverse=True)
        layout = np.full(k2 * k2, len(rho))
        layout[~np.eye(k2, dtype=bool).reshape(-1)] = inverse.reshape(-1)
        rho.setflags(write=False)
        layout.setflags(write=False)
        return rho, layout

    @cached_property
    def pair_digits(self) -> np.ndarray:
        """``(2, k^2)``: row 0 ``kr``, row 1 ``kt`` of each hypothesis ``i = kr * k + kt``."""
        digits = np.array(np.divmod(np.arange(self.k * self.k), self.k))
        digits.setflags(write=False)
        return digits


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


@dataclass(frozen=True, eq=False)
class SynthesizedBeam:
    """Unit-norm weight vector realizing a scaled copy of a target gain profile."""

    vector: np.ndarray
    gain: float
    residual: float


def realized_gains(vectors: np.ndarray) -> np.ndarray:
    """Grid gains ``U^H v`` of a vector, or of each column of a matrix, by one FFT."""
    signs = (-1.0) ** np.arange(len(vectors))
    return np.fft.fft((signs * vectors.T).T, axis=0) / np.sqrt(len(vectors))


def synthesize_vector(profile: np.ndarray, grid: AngleGrid) -> SynthesizedBeam:
    """Unit-norm weights ``v`` with ``response_matrix^H v = gain * profile``.

    Orthonormal grid responses make ``v = U p / ||p||`` with ``gain = 1/||p||``
    the exact solution, evaluated as one inverse FFT; ``residual`` reports the
    relative misfit of the realized gains ``U^H v`` against the scaled profile.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (grid.n,):
        raise ValueError(f"profile must have length {grid.n}, got shape {profile.shape}")
    if not profile.any():
        raise ValueError("target profile is identically zero")
    gain = 1.0 / float(np.linalg.norm(profile))
    target = gain * profile  # unit norm, so the misfit below is already relative
    vector = (-1.0) ** np.arange(grid.n) * (np.sqrt(grid.n) * np.fft.ifft(target))
    residual = float(np.linalg.norm(realized_gains(vector) - target))
    return SynthesizedBeam(vector=vector, gain=gain, residual=residual)


@dataclass(frozen=True, eq=False)
class StageCodebook:
    """Beamforming (``f``) and combining (``w``) banks for one stage.

    One column per beam.  Every pattern row has the same norm, so every beam
    of the stage has the same synthesis constant ``gain``: on sub-range ``j``
    a column's realized gain is ``gain`` times its pattern amplitude on ``j``.
    ``residual`` is the worst relative synthesis misfit.
    """

    stage: int
    f: np.ndarray
    w: np.ndarray
    gain: float
    residual: float


class StageCodebookCache:
    """Builds stage codebooks against one grid/pattern pair: one synthesis per
    stage, shifted.

    The parent starting at grid index 0 has children of ``c`` points each, so
    beam ``m``'s target profile is pattern row ``m`` with each entry repeated
    ``c`` times, zero past the parent; each profile is synthesized once.  The
    bank of any other parent of that length is the same bank times the phase
    ramp ``exp(2 pi j a o / n)`` for a parent starting at ``o``, and shares its
    gain and residual.  Banks are memoized by the parent's integer bounds.
    """

    def __init__(self, grid: AngleGrid, patterns: BeamPatternMatrix):
        self.grid = grid
        self.patterns = patterns
        # (start, stop) -> (its children, their beams as columns, shared gain, worst residual)
        self._banks: dict[tuple[int, int], tuple] = {}
        # benchmarks/workloads.py counts refine misses by this table's growth
        self._stages = self._banks

    def _end_bank(self, start: int, stop: int) -> tuple:
        bank = self._banks.get((start, stop))
        if bank is None:
            n = self.grid.n
            if stop > n:  # a shift would wrap such a parent around the grid
                raise ValueError(f"parent range [{start}, {stop}) exceeds grid size {n}")
            blocks = IndexRange(start, stop).split(self.patterns.k)
            if start == 0:
                profiles = np.zeros((self.patterns.m, n))
                profiles[:, :stop] = np.repeat(self.patterns.values, len(blocks[0]), axis=1)
                beams = [synthesize_vector(profile, self.grid) for profile in profiles]
                bank = (blocks, np.stack([b.vector for b in beams], axis=1), beams[0].gain,
                        max(b.residual for b in beams))
            else:
                _, vectors, gain, residual = self._end_bank(0, stop - start)
                # the phase from the integer (a * start) mod n keeps it exact to ~1e-15
                ramp = np.exp(2j * np.pi * (np.arange(n) * start % n) / n)
                bank = (blocks, vectors * ramp[:, None], gain, residual)
            self._banks[(start, stop)] = bank
        return bank

    def refine(self, parent_transmit: IndexRange, parent_receive: IndexRange,
               k: int, stage: int) -> tuple[SubrangePartition, StageCodebook]:
        """Partition both parents and return the matching codebook."""
        if k != self.patterns.k or len(parent_transmit) != len(parent_receive):
            raise ValueError(f"expected equal parents split {self.patterns.k} ways, got "
                             f"{parent_transmit} and {parent_receive} split {k} ways")
        transmit, f, gain, res_t = self._end_bank(parent_transmit.start, parent_transmit.stop)
        receive, w, _, res_r = self._end_bank(parent_receive.start, parent_receive.stop)
        return (SubrangePartition(stage, transmit, receive),
                StageCodebook(stage=stage, f=f, w=w, gain=gain, residual=max(res_t, res_r)))


# "+" shows the sign of -0.0, which FFT beams carry
_COMPLEX_FORMAT = "{!r}{:+}j"


def format_complex(z: complex) -> str:
    """Serialize a complex number as ``re<+/->imj``, e.g. ``1.5+0.25j``."""
    z = complex(z)
    return _COMPLEX_FORMAT.format(z.real, z.imag)


def write_beam_matrix(path, matrix: np.ndarray, stage: int, gain: float) -> None:
    """Write a beam bank as text: header ``N M stage C_s``, then one row per antenna."""
    n, m = matrix.shape
    # each row's interleaved real and imaginary parts fill one template, so
    # entries are written as format_complex writes them, one call per row
    row_format = " ".join([_COMPLEX_FORMAT] * m).format
    parts = np.ascontiguousarray(matrix, dtype=complex).view(float).tolist()
    lines = [f"{n} {m} {stage} {gain!r}"]
    lines += [row_format(*row) for row in parts]
    with output_file(path) as fh:
        fh.write("\n".join(lines) + "\n")
