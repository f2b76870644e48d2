"""Continued-fraction evaluation of minimal-solution ratios.

The ratio of successive minimal-solution elements of the three-term recurrence
K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0 is

    R_n = -b(n+1) / (a(n+1) - b(n+2) / (a(n+2) - ...)).

Every production path runs one loop, ``batch_pivots``, the LDL^T pivot
recursion over coefficient rows built by ``models.coefficient_block``, one lane
per energy and one divisor b(n) per row, or per lane.  Run forward
from n = 0 it gives the pivots of ``twisted_residual``; run on the reversed
rows it is the backward recursion of the minimal solution, the bottom-up half
of a twisted factorisation: ``batch_ratios`` takes every ratio of a table from
it (the residuals of ``spectral.compute_spectrum`` and the series of
``series.minimal_series``), and ``batch_minimal_ratio`` R_0 from one pass
down from the row that ``backward_tail`` gives (for ``spectral.f_values``).
``spectral.level_count`` runs both halves at once, forward and backward as
two groups of lanes of one table, and reads the Sturm count off the twisted
factorisation where they meet.
``backward_tail`` reads from the characteristic roots of the recurrence where
the backward passes start; their damping per row (``log_damping``) also gives
``spectral.compute_spectrum`` the tail past the rows where its levels live.

Batched tables are built ``CHUNK_CELLS`` rows x lanes at a time, so their
memory grows neither with the lanes nor with the depth.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice

import numpy as np

_TINY = 1e-30

# The damping of F's seed error, relative to R_0 (``batch_minimal_ratio``).
DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_DEPTH = 2**20
# backward_tail's first chunk: 128 rows, and at most 2^12 rows x lanes.  A
# table of many lanes costs more per cell the larger it is, and the tails of
# the fractions that curve samples are some tens of rows.
_FIRST_TAIL_ROWS = 128
_FIRST_TAIL_CELLS = 2**12
# Rows x lanes of one batched coefficient table.  A backward pass may start
# as deep as DEFAULT_MAX_DEPTH (2^20) rows, so a whole depth x lanes table
# could take gigabytes.
CHUNK_CELLS = 2**16


def batch_pivots(a: np.ndarray, b: np.ndarray, sign: float, prev=None) -> np.ndarray:
    """Every pivot sigma_n of the coefficient rows, one column per lane.

    ``a`` (rows, lanes) and ``b`` (rows, 1) are consecutive rows, as
    ``models.coefficient_block`` returns them; overflow is ignored.  ``b`` may
    also hold one divisor per lane, in a table of ``a``'s shape, so that
    lanes can run over rows of their own: ``spectral.level_count`` pivots the
    two halves of a twisted factorisation as two groups of lanes, ``a`` and
    ``b`` of shape (rows, 2, lanes).  The pivots are
    sigma_n = -sign * a(n) - b(n) / sigma_{n-1}, where the table's first row
    takes ``prev`` as sigma_{n-1} and, without it, is row 0:
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
    is some 15 times the arithmetic, runs over the floats of its two columns
    read from ``array`` buffers, guarded on every row.  A table of groups
    takes a divisor table of ``a``'s shape, which numpy divides faster than
    one divisor per row and group broadcast against the lanes.
    """
    if a.shape[1:] == (1,):
        return _pivot_floats(-sign * a[:, 0], b[:, 0], prev)[:, None]
    # b_n / prev costs less per row with b(n) as a Python float
    b_rows = b[:, 0].tolist() if b.shape[1:] == (1,) else b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pivots = _pivot_rows(-sign * a, b_rows, prev, guard=False)
        if not pivots.all():  # a pivot of +-0 (nan is not 0)
            pivots = _pivot_rows(-sign * a, b_rows, prev, guard=True)
    return pivots


def _pivot_rows(pivots: np.ndarray, b_rows, prev, guard: bool) -> np.ndarray:
    """The recursion of ``batch_pivots`` in place over ``pivots`` = -sign * a, guarded or not."""
    for pivot, b_n in zip(pivots, b_rows):
        if prev is not None:
            pivot -= b_n / prev
        if guard:
            pivot[pivot == 0.0] = -_TINY
        prev = pivot
    return pivots


def _pivot_floats(pivots: np.ndarray, b_rows: np.ndarray, prev) -> np.ndarray:
    """The recursion of ``batch_pivots`` over one lane, guarded on every row.

    The lane's columns are iterated as ``array("d")`` copies, which yield
    Python floats, and the pivots are appended to one that numpy then reads
    in place.  ``x or -_TINY`` is the guard: +-0.0 is falsy and nan is not.
    """
    rows = zip(array("d", pivots.tobytes()), array("d", b_rows.tobytes()))
    out = array("d")
    if prev is None:  # row 0, if the table has one, reads no sigma_{n-1}
        for pivot, _ in islice(rows, 1):
            prev = pivot or -_TINY
            out.append(prev)
    else:
        prev = float(prev[0])
    for pivot, b_n in rows:
        prev = (pivot - b_n / prev) or -_TINY
        out.append(prev)
    return np.frombuffer(out)


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


def log_damping(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log r(k) of each row k and lane: the damping of ``backward_tail``.

    r(k) = 4b / (|a| + sqrt(a^2 - 4b))^2, the modulus ratio of the roots of
    lambda^2 + a(k) lambda + b(k) = 0, is 1 where a^2 <= 4b (a = 0 included)
    and 0 where a^2 overflows.
    """
    with np.errstate(divide="ignore", over="ignore"):
        root = np.sqrt(np.maximum(a * a - 4.0 * b, 0.0))
        return np.log(np.minimum(4.0 * b / (np.abs(a) + root) ** 2, 1.0))


def backward_tail(block, lanes: np.ndarray, n: int, eps: float, read=None) -> int:
    """Rows past row ``n`` where a backward recursion must start for every lane.

    ``block`` is as for ``batch_minimal_ratio``.  Row k has the characteristic
    equation lambda^2 + a(k) lambda + b(k) = 0, whose roots' modulus ratio is
    r(k) = (|a| - sqrt(a^2 - 4b)) / (|a| + sqrt(a^2 - 4b)) = 4b / (|a| + sqrt(a^2 - 4b))^2,
    and 1 where a^2 <= 4b (``log_damping``).  A backward recursion seeded at
    row n + tail damps its seed error by about r(n + 1) * ... * r(n + tail) by
    the time it reaches row n (Miller's algorithm; Gautschi, SIAM Rev. 9, 24
    (1967)).  The result is the least tail whose product falls below ``eps``
    in every lane, capped at ``DEFAULT_MAX_DEPTH``.  The rows past n are
    read in chunks, the first of 128 rows (fewer for more than 32 lanes),
    then twice as many per chunk, each at most ``CHUNK_CELLS`` rows x lanes
    whose product is still above ``eps`` (at least one row past n), and
    read for those lanes only.  With a list ``read``, a chunk is read for
    every lane, settled or not, while the rows past n fit ``CHUNK_CELLS``
    cells in all, and ``read`` receives it: the first always, with row n
    read ahead of it and counted in its cells.  The damping is taken on the
    lanes still above ``eps`` either way.
    """
    every = np.asarray(lanes)
    if not every.size:
        return 0
    log_eps, width = math.log(eps), every.size
    live, log_product = np.arange(width), np.zeros(width)  # the lanes not yet settled
    done = 0  # rows past n read so far
    size = max(1, min(_FIRST_TAIL_ROWS, _FIRST_TAIL_CELLS // width))
    while done < DEFAULT_MAX_DEPTH:
        first = int(read is not None and not done)  # row n, read but not damped
        rows = min(size, DEFAULT_MAX_DEPTH - done, max(1, CHUNK_CELLS // live.size - first))
        whole = read is not None and (first or done + rows <= CHUNK_CELLS // width)
        a, b = block(every if whole else every[live], n + done + 1 - first, n + done + rows)
        if whole:
            read.append((a, b))
            a = a[:, live]
        log_products = log_product + np.cumsum(log_damping(a[first:], b[first:]), axis=0)
        below = log_products < log_eps
        hit = below.any(axis=0)
        if hit.all():  # the lanes that settle last, in this chunk, set the tail
            return done + 1 + int(np.argmax(below, axis=0).max())
        live, log_product = live[~hit], log_products[-1, ~hit]
        done, size = done + rows, 2 * rows
    return DEFAULT_MAX_DEPTH


def batch_minimal_ratio(block, lanes: np.ndarray, scale: float) -> np.ndarray:
    """R_0 for every lane from one backward pass down from the lanes' common tail.

    ``block(lanes, n_lo, n_hi)`` returns the coefficients a(n), (rows, lanes),
    and b(n), (rows, 1), for rows n in [n_lo, n_hi] against the given lanes,
    as ``models.coefficient_block`` does.  The pass starts at the tail N =
    ``backward_tail(block, lanes, 0, DEFAULT_REL_TOL)``, where every lane's
    seed error has damped below ``DEFAULT_REL_TOL`` (read at call time)
    relative to R_0, and recurses tau_{n-1} = a(n-1) - b(n) / tau_n down to
    tau_1 from tau_N = a(N) + ``scale`` / N, where tau_n = a(n) + R_n: the
    pivots of ``batch_pivots`` with sign -1 over the reversed rows, in
    blocks of at most ``CHUNK_CELLS`` cells (at least one row), each passed
    the last pivot row and the lowest b(n) of the one above it.  The blocks
    below the last row the tail estimate handed back are taken from its
    rows, and the blocks above are built down to them, so the pass builds
    no row it was handed.  Then R_0 = -b(1) / tau_1.  Where the tail
    reaches ``DEFAULT_MAX_DEPTH`` every lane is nan and no pass runs.  A
    tau_n that is exactly 0 is taken as a tiny negative number, as every
    pivot of ``batch_pivots`` is.  The tail estimate's first ``block`` call
    is for rows 0, 1, ...: a caller's ``block`` may keep a(0) from it.
    """
    lanes, read = np.asarray(lanes), []
    tail = backward_tail(block, lanes, 0, DEFAULT_REL_TOL, read)
    if not lanes.size or tail >= DEFAULT_MAX_DEPTH:
        return np.full(lanes.shape, np.nan)
    read_a, read_b = map(np.vstack, zip(*read))  # rows 0, 1, ... of every lane
    rows = max(1, CHUNK_CELLS // lanes.size)  # rows per block
    # b(hi + 1), which the first block, pivoted from no row above, does not read
    hi, last, b_above = tail, None, read_b[:1]
    while hi >= 1:
        lo = max(1, hi - rows + 1)
        if hi < len(read_a):
            a, b = read_a[lo:hi + 1], read_b[lo:hi + 1]
        else:  # built down to the rows read
            lo = max(lo, len(read_a))
            a, b = block(lanes, lo, hi)
        seed = a[::-1]  # rows hi, ..., lo, with b(n + 1) beside a(n)
        if last is None:
            seed[0] += scale / tail
        last = batch_pivots(seed, np.vstack([b_above, b[:0:-1]]), -1.0, last)[-1]
        hi, b_above = lo - 1, b[:1]
    with np.errstate(divide="ignore", over="ignore"):
        return -b_above[0] / last
