"""Continued-fraction evaluation of minimal-solution ratios.

The ratio of successive minimal-solution elements of the three-term recurrence
K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0 is

    R_n = -b(n+1) / (a(n+1) - b(n+2) / (a(n+2) - ...)).

Two routes evaluate it.  ``batch_minimal_ratio`` runs Miller-style backward
recursion over a whole array of lanes at once (one energy and start index per
lane), doubling each lane's depth until it converges; the spectrum pipeline
uses it for every evaluation.  Forward modified Lentz with the same
depth-doubling rule (``eval_continued_fraction``) is the scalar reference.
``backward_ratios`` is the one scalar backward recursion: every ratio of one
pass, behind the cross-check ``backward_recursion_ratio`` and the series
coefficients of ``series.minimal_series``.  The scalar routes accept
any object exposing ``a(n)`` and ``b(n)`` (and optionally
``tail_ratio_scale``), so surrogate coefficient sequences can be used in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientPole, DivisionBlowup

_TINY = 1e-30
_DENOM_FLOOR = 1e-300

DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_DEPTH = 2**20
_FIRST_CHECKPOINT = 64
# Rows of coefficients built at a time by the batched recursion; building the
# whole depth x lanes table at once costs memory for no speed.
BLOCK_ROWS = 16


@dataclass(frozen=True)
class CFValue:
    """Converged continued-fraction value with convergence metadata.

    ``residual`` is the absolute change of the value on the last depth
    doubling; ``converged`` means it met the requested relative tolerance.
    """

    value: float
    depth: int
    converged: bool
    residual: float


def eval_continued_fraction(
    coeffs,
    start: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CFValue:
    """Evaluate R_start by modified Lentz with depth doubling.

    The fraction is evaluated at depths 64, 128, 256, ... up to ``max_depth``;
    convergence is declared once successive checkpoint values agree to
    ``rel_tol`` relative to max(1, |value|).  Non-convergence is reported via
    the flag, not raised.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    if max_depth < 8:
        raise ValueError("max_depth must be >= 8")

    f = _TINY
    c = f
    d = 0.0
    prev: float | None = None
    checkpoint = _FIRST_CHECKPOINT
    converged = False
    residual = math.inf
    depth = 0
    while depth < max_depth:
        depth += 1
        n = start + depth
        a_n = coeffs.a(n)
        b_n = -coeffs.b(n)
        if not (math.isfinite(a_n) and math.isfinite(b_n)):
            raise CoefficientPole(f"non-finite coefficient consumed at index {n}")
        d = a_n + b_n * d
        if d == 0.0:
            d = _TINY
        c = a_n + b_n / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        f *= c * d
        if depth == checkpoint:
            if prev is not None:
                residual = abs(f - prev)
                if residual <= rel_tol * max(1.0, abs(f)):
                    converged = True
                    break
            prev = f
            checkpoint *= 2
    return CFValue(value=f, depth=depth, converged=converged, residual=residual)


def backward_recursion_ratio(coeffs, start: int = 0, tail_depth: int = 1024) -> float:
    """Evaluate R_start by one pass of ``backward_ratios`` down from ``tail_depth``.

    Raises DivisionBlowup if the ratio it ends on is not finite.
    """
    if tail_depth < start + 8:
        raise ValueError("tail_depth must be >= start + 8")
    r = backward_ratios(coeffs, start, tail_depth)[0]
    if not math.isfinite(r):
        raise DivisionBlowup("backward recursion produced a non-finite ratio")
    return r


def backward_ratios(coeffs, start: int, tail: int) -> list[float]:
    """R_start, ..., R_{tail-1} from one backward recursion pass.

    Iterates r_{n-1} = -b(n) / (a(n) + r_n) downward from n = ``tail``.  When
    the coefficients advertise a minimal-ratio scale t2, the tail is seeded
    with t2 / tail instead of 0, which accelerates convergence near the
    collapse regime.  Vanishing denominators are floored at 1e-300 with their
    sign preserved.  Raises CoefficientPole on a non-finite coefficient.
    """
    scale = getattr(coeffs, "tail_ratio_scale", 0.0)
    r = scale / tail if scale else 0.0
    # local names: an order-2000 series runs this loop ~4,000 times
    a, b, isfinite = coeffs.a, coeffs.b, math.isfinite
    out = [0.0] * (tail - start)
    for n in range(tail, start, -1):
        a_n = a(n)
        b_n = b(n)
        if not (isfinite(a_n) and isfinite(b_n)):
            raise CoefficientPole(f"non-finite coefficient consumed at index {n}")
        den = a_n + r
        if abs(den) < _DENOM_FLOOR:
            den = math.copysign(_DENOM_FLOOR, den if den != 0.0 else 1.0)
        r = -b_n / den
        out[n - 1 - start] = r
    return out


def minimal_ratio_sequence(coeffs, n_lo: int, n_hi: int, rel_tol: float = DEFAULT_REL_TOL) -> list[float]:
    """Minimal-solution ratios r_n = K_{n+1}/K_n for n in [n_lo, n_hi].

    Each ratio is an independent continued-fraction evaluation at that start
    index; the sequence obeys n * r_n -> t2 (or the driven-model scale 2g/omega).
    """
    if not (n_hi > n_lo >= 0):
        raise ValueError("need n_hi > n_lo >= 0")
    return [
        eval_continued_fraction(coeffs, start=n, rel_tol=rel_tol).value
        for n in range(n_lo, n_hi + 1)
    ]


def batch_minimal_ratio(
    block,
    lanes: np.ndarray,
    starts: np.ndarray,
    scale: float,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """R_start for every lane by backward recursion with per-lane depth doubling.

    ``block(lanes, n_lo, n_hi)`` returns the coefficients a(n) and b(n) for rows
    n in [n_lo, n_hi] against the given lanes, as arrays that broadcast to
    (rows, lanes).  A lane at depth d recurses r_{n-1} = -b(n) / (a(n) + r_n)
    down from its tail N = start + d, seeded with ``scale`` / N.  The depths
    are those of ``eval_continued_fraction``: 64, 128, ... and finally
    ``max_depth``.  A lane has converged once R_start agrees between
    successive depths to ``rel_tol`` relative to max(1, |R|), and only
    unconverged lanes run the next depth.  Lanes that reach ``max_depth`` keep
    their last value.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    if max_depth < 8:
        raise ValueError("max_depth must be >= 8")
    lanes = np.asarray(lanes)
    starts = np.asarray(starts, dtype=np.intp)
    depths = []
    depth = _FIRST_CHECKPOINT
    while depth < max_depth:
        depths.append(depth)
        depth *= 2
    depths.append(max_depth)
    out = np.full(starts.shape, np.nan)
    active = np.arange(starts.size)
    prev = None
    done = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while active.size and done < len(depths):
            # the first two depths share one pass
            run = depths[done:done + (1 if prev is not None else 2)]
            k = starts[active]
            values = _backward_pass(block, lanes[active], k, k + np.array(run)[:, None], scale)
            done += len(run)
            value = values[-1]
            out[active] = value
            if len(run) == 2:
                prev = values[0]
            if prev is not None:
                settled = np.abs(value - prev) <= rel_tol * np.maximum(1.0, np.abs(value))
                # a non-finite ratio (an exactly vanishing denominator) cannot settle
                keep = ~(settled | ~np.isfinite(value))
                active, value = active[keep], value[keep]
            prev = value
    return out


def _backward_pass(block, lanes, starts, tails, scale: float) -> np.ndarray:
    """Backward recursions of all lanes over one pass of coefficient blocks.

    ``tails`` has one row per depth run in this pass; each (depth, lane)
    recursion is seeded with scale / tail at its own tail.  Returns R_start
    with the same shape as ``tails``.
    """
    r = np.zeros(tails.shape)
    out = np.empty(tails.shape)
    seeds = _lanes_by_value(tails.ravel())
    picks = _lanes_by_value(starts)
    hi = int(tails.max())
    a = None
    while hi > 0:
        lo = max(1, hi - BLOCK_ROWS + 1)
        del a  # let the previous block go before the next one is built
        a, b = block(lanes, lo, hi)
        neg_b = -b
        for i in range(hi - lo, -1, -1):
            n = lo + i
            sel = seeds.get(n)
            if sel is not None:
                r.ravel()[sel] = scale / n
            r = neg_b[i] / (a[i] + r)
            sel = picks.get(n - 1)  # r is now R_{n-1}
            if sel is not None:
                out[:, sel] = r[:, sel]
        hi = lo - 1
    return out


def _lanes_by_value(values: np.ndarray) -> dict[int, np.ndarray]:
    """{value: indices of the lanes holding it}."""
    order = np.argsort(values, kind="stable")
    keys, first = np.unique(values[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(order, first[1:])))
