"""Closed-form predictions for the probability that hypothesis selection fails.

Selection at one stage compares the magnitudes of fused measurements whose
joint statistics are Gaussian: the measurement of the true sub-range pair has
mean ``alpha * sqrt(p_t)``, a mismatched pair has that mean attenuated by the
correlation factor ``rho`` (the product of the two pattern-column inner
products), and the noise terms share covariance ``n0 * rho``.  The chance that
a mismatched magnitude beats the true one has a Marcum-Q closed form at fixed
``|alpha|`` and a purely algebraic form once ``alpha`` is averaged over a
zero-mean complex Gaussian prior.  A union over all hypothesis pairs and
stages upper-bounds the end-to-end failure probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import _integer, _nonnegative, _real
from .codebook import BeamPatternMatrix

__all__ = [
    "BoundResult",
    "PairwiseContext",
    "SelfTermError",
    "bessel_i0",
    "marcum_q1",
    "pairwise_error_fixed_alpha",
    "pairwise_error_rayleigh",
    "pcef_upper_bound",
]

BESSEL_OVERFLOW_LIMIT = 700.0


class SelfTermError(ValueError):
    """A hypothesis compared against itself: rho = 1, and the exceedance
    probability is identically zero, so the closed forms do not apply."""


def bessel_i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Guards ``|z| <= 700`` because exp-scaled growth overflows float64 shortly
    beyond that.
    """
    z = float(z)
    if np.isnan(z):
        raise ValueError("bessel_i0 argument is NaN")
    if abs(z) > BESSEL_OVERFLOW_LIMIT:
        raise OverflowError(f"bessel_i0 overflows float64 for |z| = {abs(z)} > "
                            f"{BESSEL_OVERFLOW_LIMIT}")
    from scipy import special  # here and below, not at the top: keeps 0.3 s out of import
    return float(special.i0(z))


def _q1_series(a: float, b: float) -> float:
    """Marcum Q1 for 0 <= a < b via the scaled-Bessel series.

    Q1(a, b) = exp(-(a-b)^2/2) * sum_k (a/b)^k ive(k, a*b); every term is
    nonnegative, so no cancellation occurs, and ive keeps all intermediates in
    float64 range.
    """
    if a == 0.0:
        return float(np.exp(-0.5 * b * b))
    from scipy import special
    ratio = a / b
    x = a * b
    scale = np.exp(-0.5 * (a - b) ** 2)
    total = 0.0
    start = 0
    chunk = 256
    # geometric tail bound: ive(k+1, x) <= ive(k, x), so remainder after the
    # last term t is at most t * ratio / (1 - ratio)
    while True:
        ks = np.arange(start, start + chunk)
        terms = ratio ** ks * special.ive(ks, x)
        total += float(terms.sum())
        last = float(terms[-1])
        if last * ratio <= (1.0 - ratio) * total * 1e-17:
            break
        start += chunk
        if start > x + 20 * np.sqrt(x + 1) + 200_000:
            raise RuntimeError(f"Marcum series failed to converge for a={a}, b={b}")
    return float(scale * total)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function.

    ``Q1(a, b)`` is the probability that a Rician envelope with noncentrality
    ``a`` and unit per-dimension variance exceeds ``b``.  The series above
    covers ``a < b``; the complementary region uses the reflection identity
    ``Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2+b^2)/2) I0(ab)``.
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"marcum_q1 arguments must be finite, got ({a}, {b})")
    if a < 0 or b < 0:
        raise ValueError(f"marcum_q1 arguments must be nonnegative, got ({a}, {b})")
    if b == 0.0:
        return 1.0
    from scipy import special
    if a == b:
        return 0.5 * (1.0 + float(special.i0e(a * b)))
    if a < b:
        return min(1.0, _q1_series(a, b))
    cross = np.exp(-0.5 * (a - b) ** 2) * special.i0e(a * b)
    return min(1.0, 1.0 - _q1_series(b, a) + float(cross))


@dataclass(frozen=True)
class PairwiseContext:
    """Inputs of one two-hypothesis comparison.

    ``rho`` is the correlation factor between the mismatched and the correct
    fused measurement (product of the receive- and transmit-side pattern
    column inner products); it also scales the mismatched mean and, through
    ``sigma = n0 * rho``, the common noise covariance.
    """

    rho: float
    n0: float
    p_t: float
    var_alpha: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation factor must lie in [0, 1], got {self.rho}")
        if self.n0 <= 0:
            raise ValueError(f"noise variance must be positive, got {self.n0}")
        if self.p_t < 0:
            raise ValueError(f"power constant must be nonnegative, got {self.p_t}")
        if self.var_alpha < 0:
            raise ValueError(f"gain prior variance must be nonnegative, got {self.var_alpha}")

    @property
    def sigma(self) -> float:
        """Noise covariance between the two compared measurements."""
        return self.n0 * self.rho


def _rician_pair_params(mean_mag: float, rho: float, n0: float) -> tuple[float, float]:
    # Decorrelating the pair (difference/sum of the two measurements) reduces
    # |r_mis| > |r_cor| to a comparison of two independent unit-variance
    # Rician envelopes with these noncentralities.
    root_plus = np.sqrt(1.0 + rho)
    root_minus = np.sqrt(1.0 - rho)
    a = mean_mag * (root_plus - root_minus) / (2.0 * np.sqrt(n0))
    b = mean_mag * (root_plus + root_minus) / (2.0 * np.sqrt(n0))
    return float(a), float(b)


def pairwise_error_fixed_alpha(ctx: PairwiseContext, alpha_mag: float) -> float:
    """P(|mismatched measurement| > |correct measurement|) at fixed ``|alpha|``.

    Equals ``Q1(A, B) - I0(AB) exp(-(A^2+B^2)/2) / 2`` with ``A, B =
    (sqrt(1+rho) -/+ sqrt(1-rho)) |alpha| sqrt(p_t) / (2 sqrt(n0))``.
    """
    if ctx.rho == 1.0:
        raise SelfTermError("fixed-gain exceedance is undefined for rho = 1 "
                            "(identical hypothesis pair)")
    if alpha_mag < 0:
        raise ValueError(f"gain magnitude must be nonnegative, got {alpha_mag}")
    a, b = _rician_pair_params(alpha_mag * np.sqrt(ctx.p_t), ctx.rho, ctx.n0)
    from scipy import special
    correction = 0.5 * float(special.i0e(a * b)) * np.exp(-0.5 * (a - b) ** 2)
    value = marcum_q1(a, b) - correction
    return float(min(max(value, 0.0), 1.0))


def _rayleigh_terms(rho, p_t, n0: float, var_alpha: float):
    """Vectorized average of the fixed-gain exceedance over a Rayleigh prior.

    With ``alpha`` zero-mean complex Gaussian both measurements are jointly
    zero-mean Gaussian, and the exceedance probability reduces to
    ``1/2 - (B2 - A2) / (4 sqrt(1 + A2 + B2 + ((B2 - A2) / 2)^2))`` where
    ``A2, B2 = p_t var_alpha (1 -/+ sqrt(1 - rho^2)) / (2 n0)`` are the prior
    means of the squared fixed-gain parameters.  ``p_t`` is a float or an
    array that broadcasts against ``rho``.
    """
    rho = np.asarray(rho, dtype=float)
    u = p_t * var_alpha / n0
    root = np.sqrt(1.0 - rho ** 2)
    a2 = u * (1.0 - root) / 2.0
    b2 = u * (1.0 + root) / 2.0
    gap = b2 - a2
    return 0.5 - gap / (4.0 * np.sqrt(1.0 + a2 + b2 + (gap / 2.0) ** 2))


def pairwise_error_rayleigh(ctx: PairwiseContext) -> float:
    """Average of :func:`pairwise_error_fixed_alpha` over a Rayleigh-faded gain."""
    if ctx.rho == 1.0:
        raise SelfTermError("averaged exceedance is undefined for rho = 1 "
                            "(identical hypothesis pair)")
    return float(_rayleigh_terms(ctx.rho, ctx.p_t, ctx.n0, ctx.var_alpha))


def _noise_and_prior(n0, var_alpha) -> tuple[float, float | None]:
    """``n0`` and ``var_alpha`` as floats; ``ValueError`` naming the field unless
    ``n0`` is finite and positive and ``var_alpha`` is ``None`` (the default
    prior, kept) or finite and nonnegative."""
    n0 = _real("n0", n0)
    if n0 <= 0:
        raise ValueError(f"n0: noise variance must be positive, got {n0}")
    n0 = _nonnegative("n0", n0, "noise variance")
    if var_alpha is not None:
        var_alpha = _nonnegative("var_alpha", _real("var_alpha", var_alpha),
                                 "gain prior variance")
    return n0, var_alpha


# Cap on the pairwise terms held at once, (grid points, k^2 * k^2), so the bound
# over any energy grid evaluates in blocks of bounded memory (2 MB of terms).
_BOUND_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Union-bound evaluation across all hypothesis pairs and stages.

    ``terms[i, j]`` is the averaged pairwise exceedance for true pair index
    ``i = kr * k + kt`` against candidate ``j`` (self terms are exactly zero).
    ``total`` clamps the raw union bound to 1; ``clamped`` records whether
    clamping occurred.  For a grid of powers the four bound fields are arrays
    over the grid and ``terms`` is ``None``.
    """

    stages: int
    per_stage: float | np.ndarray
    raw_total: float | np.ndarray
    total: float | np.ndarray
    clamped: bool | np.ndarray
    terms: np.ndarray | None


def pcef_upper_bound(
    patterns: BeamPatternMatrix,
    stages: int,
    p_t,
    n0: float,
    var_alpha: float,
) -> BoundResult:
    """Upper bound on the probability that the final selected pair is wrong.

    Sums the Rayleigh-averaged pairwise exceedance over all ordered hypothesis
    pairs, averages over the ``k^2`` equally likely true pairs, and multiplies
    by the stage count.  The self pair has ``rho = 1`` where the closed form
    is singular while the true exceedance probability is identically zero, so
    it is excluded from the sum.  Per-stage transmit powers scaled by
    ``1 / C_s^4`` make every stage statistically identical, which is why a
    single per-stage bound times ``stages`` suffices.

    ``p_t`` is one power or a 1-D grid of them.  A grid goes through in
    blocks of at most ``_BOUND_ENTRIES`` terms, one row of ``k^2 * k^2``
    terms per point laid out as ``terms``, so memory does not grow with the
    grid.  A term depends on its pair's ``rho`` alone, so each block
    evaluates the distinct ``rho`` values and gathers them into the rows;
    each row is then summed as before.  One power is a grid of one point.
    Inputs that would make a term NaN raise ``ValueError`` naming the field;
    a zero power is valid and gives the clamped bound.
    """
    stages = _integer("stages", stages)
    if stages < 1:
        raise ValueError(f"stage count must be at least 1, got {stages}")
    n0, var_alpha = _noise_and_prior(n0, _real("var_alpha", var_alpha))
    k2 = patterns.k ** 2
    powers = np.asarray(p_t, dtype=float)
    if not (np.isfinite(powers) & (powers >= 0)).all():
        raise ValueError(f"p_t must be finite and nonnegative, got {p_t!r}")
    grid = powers.reshape(-1, 1)
    # a term depends on rho alone, which takes few distinct values (21 of the
    # 2352 pairs at k = 7): each is evaluated once per point, then gathered
    # into the point's row, whose self pairs read an appended zero
    rho, inverse = np.unique(patterns.pair_correlations, return_inverse=True)
    layout = np.full(k2 * k2, len(rho))
    layout[~np.eye(k2, dtype=bool).reshape(-1)] = inverse.reshape(-1)
    step = max(1, _BOUND_ENTRIES // (k2 * k2))
    distinct = np.zeros((min(step, len(grid)), len(rho) + 1))
    sums = np.empty(len(grid))
    for start in range(0, len(grid), step):
        block = grid[start:start + step]
        distinct[:len(block), :-1] = _rayleigh_terms(rho, block, n0, var_alpha)
        terms = distinct[:len(block)].take(layout, axis=1)
        # each row is summed like the whole of one point's (k^2, k^2) matrix
        sums[start:start + step] = terms.sum(axis=1)
    per_stage = sums / k2
    raw_total = stages * per_stage
    clamped = raw_total > 1.0
    total = np.where(clamped, 1.0, raw_total)
    if powers.ndim:
        return BoundResult(stages=stages, per_stage=per_stage, raw_total=raw_total,
                           total=total, clamped=clamped, terms=None)
    terms = terms.reshape(k2, k2)
    terms.setflags(write=False)
    return BoundResult(stages=stages, per_stage=float(per_stage[0]),
                       raw_total=float(raw_total[0]), total=float(total[0]),
                       clamped=bool(clamped[0]), terms=terms)
