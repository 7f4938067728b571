"""Geometric single-path channel model for half-wavelength uniform linear arrays.

The link has exactly one propagation path, described by an angle of departure,
an angle of arrival and a complex fading coefficient.  Angles live on a finite
grid of ``n`` resolvable directions spaced uniformly in the sine domain, which
makes the grid responses mutually orthonormal; beam synthesis downstream
relies on that orthogonality.

Random streams are keyed ``(master seed, key...)`` through
:func:`substream`.  One vectorised hash, :func:`_seed_words`, computes the
``SeedSequence`` seed words of a whole block of ``(trial, key)`` streams at
once, bit for bit: it takes the master seed's mixed pool from numpy's own
``SeedSequence`` and replicates only the spawn-key mixing and the output
hash.  A :class:`StreamSeed` holds one stream's words, and
:func:`stream_generators` hands each to numpy's own ``PCG64`` constructor,
so every stream's generator is numpy's, seeded by numpy;
:mod:`beamest.montecarlo` keeps the per-trial blocks the words come from.
Gains and slot noise alike are complex Gaussian by one rule,
:func:`_complex_gaussian`, bit for bit ``Generator.normal``'s.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AngleGrid",
    "ChannelRealization",
    "MeasurementNoise",
    "StreamSeed",
    "build_channel",
    "measure_block",
    "stream_generators",
    "substream",
]

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class AngleGrid:
    """``n`` resolvable directions with uniform sine spacing.

    Grid point ``i`` sits at ``sin(angle_i) = (2 i - n) / n``, strictly
    increasing from -1.  Uniform spacing in the sine keeps the ``n`` array
    responses orthonormal; a grid uniform in the angle itself would alias
    directions with equal sines onto identical responses and the response
    matrix would lose rank.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"antenna count must be at least 1, got {self.n}")

    @cached_property
    def sines(self) -> np.ndarray:
        s = (2.0 * np.arange(self.n) - self.n) / self.n
        s.setflags(write=False)
        return s

    def response(self, index: int) -> np.ndarray:
        """Unit-norm array response of grid point ``index``."""
        if not 0 <= index < self.n:
            raise ValueError(f"grid index {index} outside [0, {self.n})")
        return np.exp(1j * np.pi * self.sines[index] * np.arange(self.n)) / np.sqrt(self.n)


def _integer(key: str, value) -> int:
    """``value`` as an ``int``; ``ValueError`` for a bool or a non-integer."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _real(key: str, value) -> float:
    """``value`` as a ``float``; ``ValueError`` for a bool, a non-real or a
    number beyond the float range."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{key} is beyond the float range") from None
    raise ValueError(f"{key} must be a real number, got {value!r}")


def _finite_complex(key: str, value) -> complex:
    """``value`` as a ``complex``; ``ValueError`` for a bool, a non-number or a
    NaN, infinite or out-of-range part."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            z = complex(value)
        except OverflowError:
            raise ValueError(f"{key} is beyond the float range") from None
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
        raise ValueError(f"{key} is NaN or infinite: {value!r}")
    raise ValueError(f"{key} must be a complex number, got {value!r}")


def _nonnegative(key: str, value: float, what: str) -> float:
    """``value``; ``ValueError`` naming ``key`` if it is NaN, infinite or negative."""
    if not math.isfinite(value):
        raise ValueError(f"{key} is NaN or infinite: {value!r}")
    if value < 0:
        raise ValueError(f"{key}: {what} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class ChannelRealization:
    """Ground truth for one link: grid indices of the path angles plus the fading gain.

    ``theta`` indexes the angle of arrival (receive side) and ``phi`` the angle
    of departure (transmit side).  Both must be integers on the grid (stored
    as ``int``), since the search takes their base-``k`` digits unchecked;
    ``n`` is an ``int`` of at least 1 and ``alpha`` a finite ``complex``.
    """

    theta: int
    phi: int
    alpha: complex
    n: int

    def __post_init__(self):
        n = _integer("n", self.n)
        if n < 1:
            raise ValueError(f"n: antenna count must be at least 1, got {n}")
        object.__setattr__(self, "n", n)
        for key in ("theta", "phi"):
            index = _integer(key, getattr(self, key))
            if not 0 <= index < n:
                raise ValueError(f"{key}: grid index {index} outside [0, {n})")
            object.__setattr__(self, key, index)
        object.__setattr__(self, "alpha", _finite_complex("alpha", self.alpha))

    @cached_property
    def grid(self) -> AngleGrid:
        return AngleGrid(self.n)

    @cached_property
    def channel_matrix(self) -> np.ndarray:
        """Rank-one n-by-n channel ``alpha * u(theta) u(phi)^H``."""
        h = self.alpha * np.outer(self.grid.response(self.theta),
                                  self.grid.response(self.phi).conj())
        h.setflags(write=False)
        return h


def build_channel(realization: ChannelRealization) -> np.ndarray:
    """Channel matrix of a realization; rank one with Frobenius norm ``|alpha|``."""
    return realization.channel_matrix


@dataclass
class MeasurementNoise:
    """Circularly-symmetric complex AWGN source with per-sample variance ``n0``.

    Real and imaginary parts each carry variance ``n0 / 2``.  The stream is
    fully determined by ``seed``, so a fixed seed reproduces every draw; a
    trial's :class:`StreamSeed` comes from ``montecarlo.noise_stream``.
    """

    n0: float
    seed: int | np.random.SeedSequence | StreamSeed | np.random.Generator = 0

    def __post_init__(self):
        _nonnegative("n0", self.n0, "noise variance")
        self._rng = np.random.default_rng(self.seed)

    def draw(self, shape) -> np.ndarray:
        return self.draw_blocks(1, shape)[0]

    def draw_blocks(self, count: int, shape) -> np.ndarray:
        """``count`` successive :meth:`draw` results stacked on a new first axis.

        One generator call yields the same numbers as ``count`` calls in a
        row, because each block consumes its real parts, then its imaginary
        parts, in stream order.  With ``n0 == 0`` nothing is drawn.
        """
        if self.n0 == 0:
            return np.zeros((count, *shape), dtype=complex)
        return _complex_gaussian(self._rng.standard_normal((count, 2, *shape)), self.n0)


def _complex_gaussian(parts: np.ndarray, variance: float) -> np.ndarray:
    """Complex Gaussians of variance ``variance`` from standard normals ``(count, 2, ...)``,
    real then imaginary parts, scaled in place to ``Generator.normal``'s bits."""
    parts *= np.sqrt(variance / 2)
    parts += 0.0  # a -0.0 product becomes 0.0
    out = np.empty((len(parts), *parts.shape[2:]), dtype=complex)
    out.real, out.imag = parts[:, 0], parts[:, 1]
    return out


def measure_block(
    h: np.ndarray,
    f: np.ndarray,
    w: np.ndarray,
    power: float,
    pilot: complex,
    noise: MeasurementNoise,
) -> np.ndarray:
    """One stage of pilot sounding: every combining column observes every beam.

    Returns the m-by-m block ``sqrt(power) * w^H h f * pilot + q`` where each
    of the m^2 slots receives an independent noise sample of variance
    ``noise.n0`` (a unit-norm combiner leaves the per-sample variance
    unchanged).  Beamforming columns ``f`` and combining columns ``w`` must be
    unit norm and the pilot must have unit magnitude.
    """
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError(f"channel matrix must be square, got {h.shape}")
    if f.ndim != 2 or w.ndim != 2 or f.shape[0] != n or w.shape[0] != n:
        raise ValueError(
            f"beam matrices must have {n} rows, got {f.shape} and {w.shape}")
    if w.shape[1] != f.shape[1]:
        raise ValueError(
            f"beamforming and combining banks disagree: {f.shape[1]} vs {w.shape[1]} columns")
    for name, mat in (("beamforming", f), ("combining", w)):
        norms_sq = np.einsum("ij,ij->j", mat.conj(), mat).real
        # |norm^2 - 1| <= ~2 |norm - 1| near 1, so the squared check keeps the tolerance
        if np.any(np.abs(norms_sq - 1.0) > 2.0 * UNIT_NORM_TOL):
            raise ValueError(f"{name} columns must be unit norm (max squared-norm "
                             f"deviation {np.abs(norms_sq - 1.0).max():.3e})")
    if abs(abs(pilot) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"pilot symbol must have unit magnitude, got |x| = {abs(pilot)}")
    if power <= 0:
        raise ValueError(f"transmit power must be positive, got {power}")
    signal = np.sqrt(power) * (w.conj().T @ h @ f) * pilot
    return signal + noise.draw(signal.shape)


def substream(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Independent child stream for a ``(master seed, key...)`` tuple.

    Children with distinct keys are statistically independent and do not
    depend on creation order, so per-trial work can run in any order or in
    parallel without changing any result.
    """
    return np.random.SeedSequence(master_seed, spawn_key=tuple(key))


# numpy.random.SeedSequence's pool size and hash constants (numpy >= 1.19).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _constant_pairs(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's running hash constant before and after steps ``start``
    to ``start + count - 1``, as ``uint32`` columns ``(count, 1, 1)``; the
    constant before step ``i`` is ``init * mult**i mod 2**32``."""
    constants = np.array([init * pow(mult, i, 1 << 32) & _MASK32
                          for i in range(start, start + count + 1)], dtype=np.uint32)
    return constants[:-1, None, None], constants[1:, None, None]


# generate_state's hash constants, the same for every stream
_OUTPUT_CONSTANTS = _constant_pairs(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


def _hash(value, xor, mul):
    """SeedSequence's ``hashmix`` on ``uint32`` arrays, with the constant
    ``xor`` before the step and ``mul`` after it."""
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's ``mix`` of ``uint32`` pool words ``x`` with hashed words ``y``."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _words32(values, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and (array.dtype.kind not in "iu"
                                           or array.min() < 0 or array.max() > _MASK32)):
        raise ValueError(f"{name} must be a 1-d sequence of integers in [0, 2**32)")
    return array.astype(np.uint32)


def _seed_words(master_seed: int, trials, keys) -> np.ndarray:
    """``substream(master_seed, trial, key).generate_state(4, np.uint64)`` for
    every key and trial, as a ``(4, len(keys), len(trials))`` ``uint64`` array.

    The pool of ``SeedSequence(master_seed)`` is numpy's own mixing of the
    master seed's words; a spawn key follows them, so it is the pool just
    before the trial word enters.  The two spawn-key words of every stream
    are then mixed in, and ``generate_state``'s output hash applied, in
    ``uint32`` arithmetic over all trials, keys and pool words at once.
    Trial indices and keys must each fit one 32-bit word.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed must be nonnegative, got {master_seed}")
    trial_words = _words32(trials, "trial indices")
    key_words = _words32(keys, "stream keys")[:, None]
    pool = np.random.SeedSequence(master_seed).pool[:, None, None]
    # the hash constant has stepped 4 times to fill the pool, 12 to mix it
    # and 4 per master-seed word past it
    past = max(-(-master_seed.bit_length() // 32) - _POOL_SIZE, 0)
    xor, mul = _constant_pairs(_INIT_A, _MULT_A, 16 + 4 * past, 2 * _POOL_SIZE)
    # each spawn-key word enters all pool words, each with its own constant
    pool = _mix(pool, _hash(trial_words, xor[:_POOL_SIZE], mul[:_POOL_SIZE]))
    pool = _mix(pool, _hash(key_words, xor[_POOL_SIZE:], mul[_POOL_SIZE:]))
    # eight hashed pool words, paired little-endian
    out = _hash(np.concatenate([pool, pool]), *_OUTPUT_CONSTANTS)
    out = out.astype(np.uint64)
    return out[0::2] | (out[1::2] << np.uint64(32))


class StreamSeed:
    """The hashed seed words of one ``substream(master_seed, trial, key)``.

    It answers the one request a bit generator makes, ``generate_state(4,
    np.uint64)``, with a copy of the words, so the generator draws what the
    ``SeedSequence`` gives; any other request raises ``TypeError``, and it
    does not spawn.  Bit generators take it once :func:`_seed_interface` has
    registered it on a subclass of numpy's ``ISeedSequence``.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise TypeError("StreamSeed answers generate_state(4, np.uint64) only, "
                            f"got ({n_words}, {dtype})")
        return self._words.copy()


@functools.cache
def _seed_interface() -> type:
    """A subclass of numpy's ``ISeedSequence``, made and kept once per process,
    that bit generators take :class:`StreamSeed` through: ``isinstance``
    caches a subclass's answer, and importing the package loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence
    interface = type(ISeedSequence)("StreamSeeds", (ISeedSequence,), {})
    interface.register(StreamSeed)
    return interface


def stream_generators(words: np.ndarray):
    """numpy's own ``Generator(PCG64(StreamSeed(row)))`` for each row of
    seed words ``words`` ``(count, 4)``, made as the result is iterated:
    each draws what a generator seeded with the row's ``SeedSequence`` draws."""
    _seed_interface()
    return (np.random.Generator(np.random.PCG64(StreamSeed(row))) for row in words)
