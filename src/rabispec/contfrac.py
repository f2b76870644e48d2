"""Continued-fraction evaluation of minimal-solution ratios.

The ratio of successive minimal-solution elements of the three-term recurrence
K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0 is

    R_n = -b(n+1) / (a(n+1) - b(n+2) / (a(n+2) - ...)).

Every production path runs one loop, ``batch_pivots``, the LDL^T pivot
recursion over coefficient rows built by ``models.coefficient_block``, one lane
per energy.  Run forward from n = 0 it gives the Sturm count of
``spectral.level_count`` and the pivots of ``twisted_residual``; run on the
reversed rows it is the backward recursion of the minimal solution, the
bottom-up half of a twisted factorisation: ``batch_ratios`` takes every ratio
of a table from it (the residuals of ``spectral.compute_spectrum`` and the
series of ``series.minimal_series``), and ``batch_minimal_ratio`` R_0 with
per-lane depth doubling (for ``spectral.f_values``).

Batched tables are built ``CHUNK_CELLS`` rows x lanes at a time, so their
memory grows neither with the lanes nor with the depth.
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-30

DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_DEPTH = 2**20
_FIRST_CHECKPOINT = 64
# Rows x lanes of one batched coefficient table.  The backward recursion's
# depth doubles per lane up to max_depth (2^20 by default), so a whole
# depth x lanes table could take gigabytes.
CHUNK_CELLS = 2**16


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

    The guard runs once per table: the rows are pivoted unguarded, and a
    table that holds a pivot of +-0 is pivoted again from ``prev`` with the
    guard on every row.  Both passes do the same operations up to the first
    exact zero, which the unguarded pass stores, so the result is bit for
    bit that of the guarded pass.  One lane, where numpy's overhead per row
    is some 15 times the arithmetic, runs on Python floats, guarded on every row.
    """
    b_rows = b[:, 0].tolist()  # b_n / prev costs less per row with b(n) as a Python float
    if a.shape[1] == 1:
        return np.array(_pivot_floats((-sign * a[:, 0]).tolist(), b_rows, prev))[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pivots = _pivot_rows(-sign * a, b_rows, prev, guard=False)
        if not pivots.all():  # a pivot of +-0 (nan is not 0)
            pivots = _pivot_rows(-sign * a, b_rows, prev, guard=True)
    return pivots


def _pivot_rows(pivots: np.ndarray, b_rows: list[float], prev, guard: bool) -> np.ndarray:
    """The recursion of ``batch_pivots`` in place over ``pivots`` = -sign * a, guarded or not."""
    for pivot, b_n in zip(pivots, b_rows):
        if prev is not None:
            pivot -= b_n / prev
        if guard:
            pivot[pivot == 0.0] = -_TINY
        prev = pivot
    return pivots


def _pivot_floats(pivots: list[float], b_rows: list[float], prev) -> list[float]:
    """The recursion of ``batch_pivots`` over one lane of Python floats, guarded on every row."""
    out, prev = [], None if prev is None else float(prev[0])
    for pivot, b_n in zip(pivots, b_rows):
        if prev is not None:
            pivot -= b_n / prev
        prev = pivot if pivot != 0.0 else -_TINY
        out.append(prev)
    return out


def batch_ratios(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """R_0, ..., R_{N-1} of every lane from one backward pass over the rows n = 0, ..., N.

    ``a``, ``b`` are the rows as ``models.coefficient_block`` returns them.  tau_n = a(n) + R_n
    are the pivots of ``batch_pivots`` with sign -1 over the rows n = N, ..., 1, b(n + 1)
    beside a(n), from tau_N = a(N) + ``scale`` / N; then R_{n-1} = -b(n) / tau_n.
    """
    rows = a[:0:-1].copy()
    rows[0] += scale / (len(a) - 1)
    tau = batch_pivots(rows, np.vstack([b[:1], b[:1:-1]]), -1.0)  # b(0) stands in for b(N + 1)
    return -b[1:] / tau[::-1]


def twisted_residual(a: np.ndarray, b: np.ndarray, ratios: np.ndarray, sign: float) -> np.ndarray:
    """|gamma| / ||z|| per lane: the twisted-factorisation residual at the matching index k*.

    ``a``, ``b`` are coefficient rows from n = 0 as for ``batch_pivots``, and the
    backward ratios R_0..R_{rows-2} (``ratios``, (rows - 1, lanes)) give a vector z,
    z_{n+1}/z_n = -sign R_n / sqrt(b(n+1)), the eigenvector at a level of the
    tridiagonal T that ``batch_pivots`` factors.  k* is where |z| peaks in the
    first half of the rows, off the truncated tail; with the pivots below it the
    twisted vector solves T z = gamma e_k*, gamma = sigma_k* - sign R_k*.
    """
    ratios = np.asfortranarray(ratios)  # a lane's sums then read the same in a table of any width
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
    scale: float,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """R_0 for every lane by backward recursion with per-lane depth doubling.

    ``block(lanes, n_lo, n_hi)`` returns the coefficients a(n), (rows, lanes),
    and b(n), (rows, 1), for rows n in [n_lo, n_hi] against the given lanes,
    as ``models.coefficient_block`` does.  A lane at depth N recurses tau_{n-1} = a(n-1) - b(n) / tau_n
    down from tau_N = a(N) + ``scale`` / N, where tau_n = a(n) + R_n: the
    pivots of ``batch_pivots`` with sign -1 over the reversed rows.  Then
    R_0 = -b(1) / tau_1.  The depths are 64, 128, ... and finally
    ``max_depth``.  A lane has converged once R_0 agrees between successive
    depths to ``rel_tol`` relative to max(1, |R_0|), and only unconverged
    lanes run the next depth.  A lane that has not converged by
    ``max_depth`` is nan.  A tau_n that is exactly 0 is taken as a tiny
    negative number, as every pivot of ``batch_pivots`` is.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    if max_depth < 8:
        raise ValueError("max_depth must be >= 8")
    lanes = np.asarray(lanes)
    depths = []
    depth = _FIRST_CHECKPOINT
    while depth < max_depth:
        depths.append(depth)
        depth *= 2
    depths.append(max_depth)
    out = np.full(lanes.shape, np.nan)
    active = np.arange(lanes.size)
    prev = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for depth in depths:
            if not active.size:
                break
            value = _minimal_ratio(block, lanes[active], depth, scale)
            out[active] = value
            if prev is not None:
                settled = np.abs(value - prev) <= rel_tol * np.maximum(1.0, np.abs(value))
                # a non-finite ratio cannot settle
                keep = ~(settled | ~np.isfinite(value))
                active, value = active[keep], value[keep]
            prev = value
    out[active] = np.nan
    return out


def _minimal_ratio(block, lanes: np.ndarray, tail: int, scale: float) -> np.ndarray:
    """R_0 of every lane from one backward pass down from row ``tail``.

    The rows n = tail, ..., 0 are pivoted in chunks of at most ``CHUNK_CELLS``
    cells (at least two rows per block), each chunk passed the last pivot row
    of the one above it.
    """
    rows = max(2, CHUNK_CELLS // lanes.size)  # rows per block; a chunk pivots all but the top one
    hi, last = tail, None
    while hi >= 0:
        lo = max(0, hi - rows + 2)
        a, b = block(lanes, lo, hi + 1)
        a, b = a[-2::-1], b[:0:-1]  # rows hi, ..., lo with b(n + 1) beside a(n)
        if last is None:
            a[0] += scale / tail
        pivots = batch_pivots(a, b, -1.0, last)
        tau_1 = pivots[-2] if len(pivots) > 1 else last  # a one-row chunk holds tau_0 alone
        last, hi = pivots[-1], lo - 1
    return -b[-1] / tau_1
