"""Closed-form predictions for the probability that hypothesis selection fails.

Selection at one stage compares the magnitudes of fused measurements whose
joint statistics are Gaussian: the measurement of the true sub-range pair has
mean ``alpha * sqrt(p_t)``, a mismatched pair has that mean attenuated by the
correlation factor ``rho`` (the product of the two pattern-column inner
products), and the noise terms share covariance ``n0 * rho``.  The chance that
a mismatched magnitude beats the true one has a Marcum-Q form at fixed
``|alpha|`` and a purely algebraic form once ``alpha`` is averaged over a
zero-mean complex Gaussian prior; only the averaged form is computed here (the
fixed-gain form is the tests' oracle for it, in ``tests/reference.py``).  A
union over all hypothesis pairs and stages upper-bounds the end-to-end failure
probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import _integer, _nonnegative, _real
from .codebook import BeamPatternMatrix

__all__ = ["BoundResult", "pcef_upper_bound"]


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


def _check_bound_range(p_t, n0: float, var_alpha: float) -> None:
    """``ValueError`` naming ``var_alpha`` unless the half of ``p_t * var_alpha /
    n0`` that :func:`_rayleigh_terms` squares stays finite at the largest power
    ``p_t``; an overflow reads 1/2 per term."""
    ratio = float(np.max(p_t, initial=0.0)) * var_alpha / n0
    if not ratio / 2.0 <= np.sqrt(np.finfo(float).max):
        raise ValueError(f"var_alpha: gain prior variance {var_alpha!r} is too large for the "
                         f"closed-form bound: p_t * var_alpha / n0 reaches {ratio!r}")


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
    Inputs that would make a term NaN or overflow raise ``ValueError``
    naming the field; a zero power is valid and gives the clamped bound.
    """
    stages = _integer("stages", stages)
    if stages < 1:
        raise ValueError(f"stage count must be at least 1, got {stages}")
    n0, var_alpha = _noise_and_prior(n0, _real("var_alpha", var_alpha))
    k2 = patterns.k ** 2
    powers = np.asarray(p_t, dtype=float)
    if not (np.isfinite(powers) & (powers >= 0)).all():
        raise ValueError(f"p_t must be finite and nonnegative, got {p_t!r}")
    _check_bound_range(powers, n0, var_alpha)
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
