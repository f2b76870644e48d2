"""Continued-fraction evaluation of minimal-solution ratios.

The ratio of successive minimal-solution elements of the three-term recurrence
K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0 is

    R_n = -b(n+1) / (a(n+1) - b(n+2) / (a(n+2) - ...)).

Every production path runs one of three loops over coefficient rows built by
``models.coefficient_block``:

- ``batch_minimal_ratio``, backward recursion over a batch of energies with
  per-lane depth doubling, gives R_k to ``spectral.split_values``; it builds
  its rows ``BLOCK_ROWS`` at a time through a ``block`` callable;
- ``batch_pivots``, the forward recursion as LDL^T pivots over a table of
  rows from n = 0 (or one chunk of it), gives K_{k+1}/K_k to
  ``spectral.split_values`` and the Sturm count to ``spectral.level_count``;
- ``backward_ratio_rows``, one scalar backward pass, gives every ratio of
  ``series.minimal_series``, and of each level for ``twisted_residual``.

The scalar references ``eval_continued_fraction`` (modified Lentz, behind
``spectral.split_spectral_value`` only), ``backward_ratios`` and
``forward_ratio`` fetch a(n) and b(n) one n at a time from any object exposing
them (and optionally ``tail_ratio_scale``), so tests can pass surrogate
coefficient sequences.
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
# Rows of coefficients built at a time by the batched backward recursion.  Its
# depth doubles per lane up to max_depth (2^20 by default), so a whole depth x
# lanes table could take gigabytes.
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
    if not rel_tol > 0.0:
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
    """R_start, ..., R_{tail-1} by ``backward_ratio_rows``, fetching a(n), b(n) one n at a time."""
    n = range(start + 1, tail + 1)
    scale = getattr(coeffs, "tail_ratio_scale", 0.0)
    return backward_ratio_rows([coeffs.a(m) for m in n], [coeffs.b(m) for m in n], start, scale)


def backward_ratio_rows(a: list[float], b: list[float], start: int, scale: float) -> list[float]:
    """R_start, ..., R_{tail-1} from one backward recursion pass.

    a[i] and b[i] are the coefficients of row n = start + 1 + i, up to
    n = tail.  Iterates r_{n-1} = -b(n) / (a(n) + r_n) downward from n = tail,
    seeded with scale / tail (a minimal-ratio scale t2 speeds convergence
    near the collapse regime; 0 seeds with 0).  Vanishing denominators are
    floored at 1e-300 with their sign preserved.  Raises CoefficientPole on
    a non-finite coefficient.
    """
    r = scale / (start + len(a)) if scale else 0.0
    isfinite = math.isfinite  # a local name: an order-2000 series runs this loop ~4,000 times
    out = [0.0] * len(a)
    for i in range(len(a) - 1, -1, -1):
        a_n, b_n = a[i], b[i]
        if not (isfinite(a_n) and isfinite(b_n)):
            raise CoefficientPole(f"non-finite coefficient consumed at index {start + 1 + i}")
        den = a_n + r
        if abs(den) < _DENOM_FLOOR:
            den = math.copysign(_DENOM_FLOOR, den if den != 0.0 else 1.0)
        r = -b_n / den
        out[i] = r
    return out


def forward_ratio(coeffs, k: int) -> float:
    """K_{k+1}/K_k from forward recursion of the single-ended sequence, K_0 = 1.

    Exact (no minimality subtlety) for the small k it is used at; normalized
    each step so intermediate magnitudes stay bounded.
    """
    curr = -coeffs.a(0)  # K_1
    prev = 1.0           # K_0
    for m in range(1, k + 1):
        nxt = -coeffs.a(m) * curr - coeffs.b(m) * prev
        prev, curr = curr, nxt
        scale = max(abs(prev), abs(curr))
        if scale > 1e150:
            prev /= scale
            curr /= scale
    if curr == 0.0 and prev == 0.0:
        return math.nan
    if prev == 0.0:
        return math.inf if curr > 0 else -math.inf
    return curr / prev


def batch_pivots(a: np.ndarray, b: np.ndarray, sign: float, prev=None) -> np.ndarray:
    """Every pivot sigma_n of the coefficient rows, one column per lane.

    ``a`` (rows, lanes) and ``b`` (rows, 1) are consecutive rows, as
    ``models.coefficient_block`` returns them; overflow is ignored.  The
    pivots are sigma_n = -sign * a(n) - b(n) / sigma_{n-1}, where the table's
    first row takes ``prev`` as sigma_{n-1} and, without it, is row 0:
    sigma_0 = -sign * a(0).  So a table pivoted in row chunks, each passed
    the last pivot row of the one before, gives the pivots of the whole
    table.  With sign = +1 the pivots are the continuant ratios K_{n+1}/K_n
    (K_0 = 1), and with b(n) > 0 the LDL^T pivots of the symmetric
    tridiagonal with diagonal -sign * a(n) and off-diagonal sqrt(b(n)),
    whose negative count is the Sturm count.  A pivot that is exactly 0 is
    taken as a tiny negative number (Kahan's guard); so where K_k = 0
    exactly, K_{k+1}/K_k is a huge finite number, not inf.
    """
    pivots = -sign * a
    with np.errstate(divide="ignore", over="ignore"):
        for n, pivot in enumerate(pivots):
            if prev is not None:
                pivot -= b[n] / prev
            pivot[pivot == 0.0] = -_TINY
            prev = pivot
    return pivots


def twisted_residual(a: np.ndarray, b: np.ndarray, ratios: np.ndarray, sign: float) -> np.ndarray:
    """|gamma| / ||z|| per lane: the twisted-factorisation residual at the matching index k*.

    ``a``, ``b`` are coefficient rows from n = 0 as for ``batch_pivots``, and the
    backward ratios R_0..R_{rows-2} (``ratios``, (rows - 1, lanes)) give a vector z,
    z_{n+1}/z_n = -sign R_n / sqrt(b(n+1)), the eigenvector at a level of the
    tridiagonal T that ``batch_pivots`` factors.  k* is where |z| peaks in the
    first half of the rows, off the truncated tail; with the pivots below it the
    twisted vector solves T z = gamma e_k*, gamma = sigma_k* - sign R_k*.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = np.log(np.abs(ratios)) - 0.5 * np.log(b[1:])
        log_z = np.cumsum(np.vstack([np.zeros_like(steps[:1]), steps]), axis=0)
        k, lanes = np.argmax(log_z[: a.shape[0] // 2], axis=0), np.arange(a.shape[1])
        gamma = batch_pivots(a[: k.max() + 1], b, sign)[k, lanes] - sign * ratios[k, lanes]
        norm = np.sqrt(np.sum(np.exp(2.0 * (log_z - log_z[k, lanes])), axis=0))
    return np.abs(gamma) / norm


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
    unconverged lanes run the next depth.  A lane that has not converged by
    ``max_depth`` is nan, as Lentz reports it unconverged.
    """
    if not rel_tol > 0.0:
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
    out[active] = np.nan
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
