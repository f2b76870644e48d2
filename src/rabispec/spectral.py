"""Transcendental eigenvalue functions and level counting.

The regular spectrum of each model is the zero set of

    F(E) = R_0(E) + a_0(E),

where R_0 is the minimal-ratio continued fraction and a_0 the first recurrence
coefficient.  F diverges at the pole energy E_0, and at E_n with n >= 1 its
singularity is removable.  The split eigenconditions

    W_k(E) = R_k(E) - K_{k+1}(E)/K_k(E),   W_0 = F,

share F's zeros for every split index k, but not its poles: W_k has an explicit
simple pole at E_k and hidden poles at the zeros of the continuant K_k and at
the poles of R_k.  An eigenvalue can sit inside a zero/pole pair of every W_k
with small k, too narrow for any sign scan to see.

So levels are not searched for by sign changes.  ``level_count`` gives N(E),
the number of levels below E, from the inertia of the truncated recurrence's
tridiagonal plus the poles below E (the Sturm count with the
Wittrick-Williams pole term).  It reads the inertia off the twisted
factorisation at the middle row, the LDL^T pivots from the top and from the
bottom run at once as two groups of lanes, so its row loop is half the
truncation long, and log|det T(E)| from the same pivots.  ``compute_spectrum``
takes the levels of a window as j in [N(e_min), N(e_max)) and narrows each on
N(E) (many points per bracket in one count call, each point counted once per
truncation, every point kept): by multisection, and once a bracket holds one
level and no pole, by two points around the root of the cubic through the
four counted points nearest it, fitted to det T(E) (E - E_p) from the count's
own log|det T| and sign, with the quartic through a fifth point as its error
estimate (the value of the determinant beside its sign, as Williams and
Kennedy use it).  The first truncation is read off the coefficient rows at
the window edges: the last row whose Gershgorin disc of T(E) holds 0 in the
window, which a later row proves (``models.slope_row``), plus the Miller tail
past it.  It checks each level's position under a doubling of the truncation.
The count decides every bracket and is the certificate that no level is lost.
Each level's residual (only reported, ``contfrac.twisted_residual``, and
computed for every level at once on the first read of one) is the
twist element sigma_k* - sign(g) R_k* = -sign(g) W_k* of the count's pivots
and the backward ratios at the matching index k*, over the eigenvector's norm
(Parlett and Dhillon; Cooley).

``f_values`` evaluates F over a batch of energies for ``rabispec curve``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .contfrac import (
    CHUNK_CELLS,
    DEFAULT_MAX_DEPTH,
    batch_minimal_ratio,
    batch_pivots,
    batch_ratios,
    log_damping,
    twisted_residual,
)
from .errors import SignLostWarning
from .models import (
    ModelParams,
    Sector,
    asymptotic_roots,
    check_coupling,
    coefficient_block,
    distance_to_pole_set,
    nearest_pole,
    pole_lattice,
    slope_row,
)

# Pole-handling constants (in units of omega where dimensionful).
EPS_EXC_FACTOR = 1e-5          # levels closer than this to a pole are exceptional candidates
RESIDUAL_CAP = 1e-4            # energies above this twisted residual are not eigenvalues (series)
DEFAULT_ROOT_ABS_TOL = 1e-10   # width below which a level's bracket is settled
# Recurrence rows of the first level count, at least; doubled while levels
# move, up to contfrac's DEFAULT_MAX_DEPTH.
_FIRST_COUNT_ROWS = 64
# The rows _count_start reads first at the window edges, and the seed-error damping of its tail.
_START_BLOCK_ROWS = 128
_START_TAIL_EPS = 1e-8
# Each multisection step cuts every unsettled bracket into this many sections.
_SECTIONS = 16
# A cubic step counts x* -+ this many times the cubic's error estimate (the
# gap to the quartic's root).  On the 16 seed-1 sweep and collapse windows of
# the benchmark the pair held its level 374 times of 375 at 10 (the miss: the
# estimate read 0.03 of the error), 354 of 355 at 4 and 338 of 343 at 2, and
# their count calls were 113 from 4 to 16 (112 at 3).
_CUBIC_SAFETY = 10.0
# Newton steps on each cubic, from the secant zero: one more changed no count
# call on those windows, one fewer added two.
_NEWTON_STEPS = 2
# Offsets from k of a bracket's ends, lo = points[k - 1] and hi = points[k],
# then of its three neighbours below and above; gaps that sort the ends
# first; and the missing points past either end of the points counted.
_NEIGHBOURS = np.array([-1, 0, -2, -3, -4, 1, 2, 3])[:, None]
_FIRST = np.array([[-2.0], [-1.0]])
_PAD = np.full(3, np.nan)
# Rows pivoted at a time by level_count, half from each end, and at most
# CHUNK_CELLS rows x lanes, so its memory grows neither with the rows nor the lanes.
_COUNT_CHUNK_ROWS = 1024


class _ResidualPass:
    """The twisted residuals of one spectrum's levels, all computed on the first read of one.

    ``compute_spectrum`` keeps the levels' energies, which of them lie off
    the pole set, the ``count_rows`` rows that settled them and the table
    width ``CHUNK_CELLS // count_rows``, all read at its call.  The first
    read of ``values`` runs ``twisted_residual`` on the backward ratios of
    rows 0..count_rows - 1, one table of that many levels at a time, over
    every level off the pole set, and keeps them (inf on a pole).
    """

    def __init__(self, model: ModelParams, sector: Sector, energy, usable, rows: int):
        self._args = model, sector, energy, np.flatnonzero(usable), rows
        self._width = max(1, CHUNK_CELLS // rows)

    @cached_property
    def values(self) -> list[float]:
        model, sector, energy, usable, rows = self._args
        residual, step = np.full(energy.shape, np.inf), self._width
        t2, sign = asymptotic_roots(model).t2, math.copysign(1.0, model.g)
        for table in (usable[i:i + step] for i in range(0, usable.size, step)):
            a, b = coefficient_block(model, sector, energy[table], 0, rows - 1)
            residual[table] = twisted_residual(a, b, batch_ratios(a, b, t2), sign)
        return residual.tolist()


class _Residual:
    """One level's residual: entry ``index`` of its spectrum's ``_ResidualPass``.

    Two compare equal where their values do, as the floats they stand for would.
    """

    __slots__ = ("_pass", "_index")

    def __init__(self, residuals: _ResidualPass, index: int):
        self._pass, self._index = residuals, index

    def __float__(self) -> float:
        return self._pass.values[self._index]

    def __eq__(self, other) -> bool:
        return isinstance(other, _Residual) and float(self) == float(other)

    def __hash__(self) -> int:
        return hash(float(self))


@dataclass(frozen=True)
class RootRecord:
    """One level: its energy, twisted residual, final bracket width and narrowing steps.

    ``residual`` is computed on its first read, in one pass over every
    level of the spectrum (``_ResidualPass``), and kept; so a caller that
    reads no residual, as ``rabispec compare`` does, runs no pass.
    ``section_steps`` counts the count calls that narrowed the level at
    points fixed by its bracket: the window's sections, its own sections,
    and after a doubling the probes out from its last bracket.
    ``cubic_steps`` counts those that took the two points around the root
    of the cubic through the counted points nearest it (``_step_points``).
    Both run over every truncation, and ``iterations`` is their sum.  ``sign_lost``
    marks a level whose position was not confirmed under a doubling of the
    count rows because the rows reached ``DEFAULT_MAX_DEPTH``.
    """

    energy: float
    _residual: _Residual = field(repr=False)
    bracket_width: float
    section_steps: int
    cubic_steps: int
    sign_lost: bool = False

    @property
    def residual(self) -> float:
        return float(self._residual)

    @property
    def iterations(self) -> int:
        return self.section_steps + self.cubic_steps


@dataclass(frozen=True)
class SpectrumResult:
    """Regular roots, pole set and exceptional candidates found in a window.

    ``brackets_found`` is N(e_max) - N(e_min), the number of levels the count
    puts in the window; every one of them is returned, in ``roots`` or in
    ``flagged``.  ``brackets_rejected`` counts the levels whose position was
    not confirmed at the ``DEFAULT_MAX_DEPTH`` row cap.  ``count_calls`` is the
    number of ``level_count`` calls, ``grid_points`` the lanes passed to
    them (each point once per truncation) and ``count_row_steps`` the sum of
    their rows N (the pivot loop runs N // 2 iterations of a call, one row
    from each end), ``count_start`` is the truncation N of the first call
    and ``count_rows`` the one at which the levels were last narrowed.  A
    level's ``residual`` is its twisted residual, over those ``count_rows``
    rows in tables of ``CHUNK_CELLS // count_rows`` levels, both fixed when
    the spectrum was computed; the first read of any level's runs the one
    pass for all of them, and ``rabispec compare`` reads none.
    """

    roots: list[RootRecord]
    poles: list[float]
    flagged: list[RootRecord]
    window: tuple[float, float]
    grid_points: int
    count_calls: int
    count_row_steps: int
    brackets_found: int
    brackets_rejected: int
    count_rows: int
    count_start: int
    model: ModelParams
    sector: Sector

    @property
    def energies(self) -> list[float]:
        return [r.energy for r in self.roots]


def eps_exceptional(model: ModelParams) -> float:
    return EPS_EXC_FACTOR * model.omega


def poles_in_window(
    model: ModelParams, sector: Sector, e_min: float, e_max: float
) -> list[float]:
    """Analytic pole energies lying in [e_min, e_max].

    The poles E_n = first + n * spacing are taken for the indices
    ceil((e_min - first) / spacing)..floor((e_max - first) / spacing), each
    widened by one against rounding, and kept where they lie in the window:
    the work grows with the poles in the window, not with its height.
    """
    first, spacing = pole_lattice(model, sector)
    n_lo = math.ceil(max(0.0, (e_min - first) / spacing))
    n_hi = math.floor((e_max - first) / spacing) + 1
    return [
        p
        for p in (first + n * spacing for n in range(max(n_lo - 1, 0), n_hi + 1))
        if e_min <= p <= e_max
    ]


def f_values(model: ModelParams, sector: Sector, energies) -> np.ndarray:
    """F(E) = R_0(E) + a(0) over an array of energies, one lane per energy.

    R_0 comes from one batched backward pass (``batch_minimal_ratio``) that
    starts where the seed error of every lane has damped below
    ``contfrac.DEFAULT_REL_TOL`` relative to R_0 (``contfrac.backward_tail``,
    whose first chunk also gives a(0)), so F is off by about
    ``DEFAULT_REL_TOL`` * |R_0|.  Lanes within eps_pole of the pole set and
    lanes whose value is not finite are nan, and so is every lane when the
    tail reaches ``DEFAULT_MAX_DEPTH`` rows, which happens only near the
    coupling bound.
    """
    check_coupling(model)
    sector.check_matches(model)
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.full(energies.shape, np.nan)
    usable = distance_to_pole_set(model, sector, energies) >= model.eps_pole
    if not usable.any():
        return out
    e, a0 = energies[usable], []

    def block(lanes, n_lo, n_hi):
        a, b = coefficient_block(model, sector, lanes, n_lo, n_hi)
        if n_lo == 0:  # the tail estimate's first chunk, over every lane
            a0.append(a[0])
        return a, b

    ratio = batch_minimal_ratio(block, e, asymptotic_roots(model).t2)
    with np.errstate(invalid="ignore", over="ignore"):
        f = ratio + a0[0]
    f[~np.isfinite(f)] = np.nan
    out[usable] = f
    return out


def default_window_min(model: ModelParams, sector: Sector) -> float:
    """Lower scan bound guaranteed to sit below the ground state."""
    p0 = pole_lattice(model, sector)[0]
    return min(p0, -model.omega) - model.delta - abs(model.drive) - 1.0


def level_count(
    model: ModelParams, sector: Sector, energies, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(N(E), log|det T(E)|) at each energy, from the first ``rows`` rows.

    N(E) is the number of negative eigenvalues of the truncated tridiagonal
    T(E), diagonal alpha_n = -sign(g) a(n) and off-diagonal sqrt(b(n)) for
    n < rows, plus #{n < rows : E_n < E}.  The rational term
    -delta^2/(E - E_n) of a(n) drops one negative eigenvalue at each pole;
    the second term puts it back (the Wittrick-Williams count), so N(E) is
    nondecreasing and steps by one at each level.  The caller keeps
    ``energies`` off the pole set.

    The negative count is the inertia of the twisted factorisation of T(E)
    at its middle row k = rows // 2 (Sylvester's law; Parlett and Dhillon,
    Linear Algebra Appl. 267, 247 (1997)): the negative forward pivots
    sigma_0..sigma_{k-1}, sigma_n = alpha_n - b(n)/sigma_{n-1}, the negative
    backward pivots tau_{rows-1}..tau_{k+1}, tau_n = alpha_n - b(n+1)/tau_{n+1},
    and the twist gamma_k = alpha_k - b(k)/sigma_{k-1} - b(k+1)/tau_{k+1} if
    gamma_k <= 0.  Both halves are two groups of lanes of one table, pivoted
    at once by ``contfrac.batch_pivots`` (with its guard: a zero pivot is a
    tiny negative one) in chunks of ``_COUNT_CHUNK_ROWS`` rows (fewer for
    many lanes), so the loop runs rows // 2 steps where a forward pass alone
    ran rows.  For even ``rows`` the backward half runs one row more than it
    counts, tau_k, so both halves are k rows long.

    det T(E) is the product of the same pivots, gamma_k included and the
    extra tau_k left out, so log|det T(E)| is the sum of their log|pivot|;
    its sign is (-1)^(N(E) - #{n < rows : E_n < E}).  Where the guard made a
    pivot tiny, the next pivot is b(n+1)/tiny and their product is right.
    """
    check_coupling(model)
    energies = np.asarray(energies, dtype=float)
    first, spacing = pole_lattice(model, sector)
    count = np.clip(np.ceil((energies - first) / spacing), 0, rows).astype(np.intp)
    sign, k = math.copysign(1.0, model.g), rows // 2
    step = max(1, min(_COUNT_CHUNK_ROWS, CHUNK_CELLS // max(1, energies.size)) // 2)
    block = partial(coefficient_block, model, sector, energies)
    i, before, last = 0, None, None  # the last two pivot rows, (2, lanes)
    log_det = np.zeros(energies.shape)
    if not k:  # one row: no pivots, the twist is row 0
        a_lo, b_lo = block(0, 0)
    for i in range(0, k, step):
        j = min(i + step, k)  # forward rows i..j-1, backward rows rows-1-i..rows-j
        top = min(rows - i, rows - 1)  # b(rows - i) divides the backward row rows-1-i if i > 0
        if rows - j <= j + 1:  # both ranges meet at the twist row: one block
            a_lo, b_lo = block(i, top)
            a_hi, b_hi = a_lo[rows - j - i:], b_lo[rows - j - i:]
        else:
            (a_lo, b_lo), (a_hi, b_hi) = block(i, j), block(rows - j, top)
        m, b_down = j - i, b_hi[:0:-1]  # b(n + 1) of the backward rows n from the top down
        table, divisors = np.zeros((2, m, 2, energies.size))
        table[:, 0], table[:, 1] = a_lo[:m], a_hi[m - 1::-1]
        divisors[:, 0], divisors[m - len(b_down):, 1] = b_lo[:m], b_down
        pivots = batch_pivots(table, divisors, sign, last)
        count += np.count_nonzero(pivots < 0.0, axis=(0, 1))
        log_det += np.log(np.abs(pivots)).sum(axis=(0, 1))
        before, last = (pivots[-2] if m > 1 else last), pivots[-1]
    # the last block holds the twist row k and b(k + 1)
    tau = last if rows % 2 else before  # tau_{k+1}, or None where row k + 1 is past the rows
    if not rows % 2:  # tau_k: pivoted, neither counted nor a factor of det T
        count -= last[1] < 0.0
        log_det -= np.log(np.abs(last[1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma = -sign * a_lo[k - i]
        if last is not None:
            gamma = gamma - b_lo[k - i, 0] / last[0]
        if tau is not None:
            gamma = gamma - b_lo[k + 1 - i, 0] / tau[1]
        log_det += np.log(np.abs(gamma))
    return count + (gamma <= 0.0), log_det


def _power_of_two(n: int) -> int:
    """The least power of two >= n (1 for n <= 1)."""
    return 1 << max(n - 1, 0).bit_length()


def _count_start(model: ModelParams, sector: Sector, edges, top: int, cap: int) -> int:
    """The first truncation of the level count: the reach of T(E) plus its Miller tail.

    Row n's Gershgorin disc of T(E), centre -sign(g) a(n, E) and radius
    sqrt(b(n)) + sqrt(b(n + 1)), holds 0 for some E in the window if it does
    at an edge or a(n, E) changes sign between the edges: between poles
    a(n, E) rises with E.  Outside such rows T(E)'s eigenvectors decay (Combes
    and Thomas, Commun. Math. Phys. 34, 251 (1973)), so the levels of the
    window live up to the last of them, the reach.  The rows are read at both
    edges, in blocks of at most ``CHUNK_CELLS`` / 2, ``_START_BLOCK_ROWS`` and
    then as many again, up to ``cap``, until the last row read, n, proves the
    reach: n > reach, a(n, e_max) g < 0 and n >= max(top + 1, n*), with ``top``
    the last pole index below the window and n* = ``models.slope_row``, leave
    no later disc holding 0.  The tail, the rows past the reach where a
    backward recursion's seed error damps below ``_START_TAIL_EPS`` in both
    edge lanes (the product of ``log_damping``), ends in the rows read too, or
    they reach P(2 reach).  The start is max(64, P(top + 1), min(P(reach + tail),
    P(2 reach))), at most ``cap``, with P(n) the power of two at or above n:
    the pole term counts only the poles of the rows it has.  2 reach bounds the
    tail, which near collapse runs far past what settles the levels (a
    measured bound, not a derived one).
    """
    log_eps, step = math.log(_START_TAIL_EPS), max(1, CHUNK_CELLS // 2)
    size, done = min(_START_BLOCK_ROWS, cap), 0  # rows to read, rows read
    reach, log_tail, tail = 0, np.zeros(2), None
    least = max(slope_row(model, sector), top + 1)  # the first row that may prove the reach
    while True:
        for lo in range(done, size, step):
            hi = min(lo + step, size)
            a, b = coefficient_block(model, sector, edges, lo, hi)  # b(hi) closes row hi - 1
            radius, a, b = np.sqrt(b[:-1, 0]) + np.sqrt(b[1:, 0]), a[:-1], b[:-1]
            holds = (np.abs(a).min(axis=1) <= radius) | ((a[:, 0] < 0.0) != (a[:, 1] < 0.0))
            holds, first = np.flatnonzero(holds), 0  # first: the first row past the reach
            if holds.size:
                first = int(holds[-1]) + 1
                reach, log_tail, tail = lo + first - 1, np.zeros(2), None
            if tail is None:
                sums = log_tail + np.cumsum(log_damping(a[first:], b[first:]), axis=0)
                settled = np.flatnonzero(sums.max(axis=1, initial=-math.inf) < log_eps)
                if settled.size:  # the product falls monotonically: every lane is below from here
                    tail = lo + first + int(settled[0]) - reach
                elif len(sums):
                    log_tail = sums[-1]
        done, bound = size, _power_of_two(2 * reach)
        proven = max(least, reach + 1) < size and a[-1, 1] * model.g < 0.0  # by row size - 1
        if size >= cap or (proven and (tail is not None or size >= bound)):
            break
        size = min(2 * size, cap)
    settled = bound if tail is None else min(_power_of_two(reach + tail), bound)
    return min(max(_FIRST_COUNT_ROWS, _power_of_two(top + 1), settled), cap)


def _points_inside(model: ModelParams, sector: Sector, lo, hi, tol: float, x) -> np.ndarray:
    """The points ``x``, one row per bracket, moved off the poles; nan where settled.

    A point within eps_pole of a pole E_n moves to E_n - eps_pole when that
    lies above ``lo``, else to E_n + eps_pole.  Points that do not land
    strictly inside their bracket are nan, and so is every point of a bracket
    at most ``tol`` wide.
    """
    eps = model.eps_pole
    lo, hi = lo[:, None], hi[:, None]
    pole = nearest_pole(model, sector, x)
    near = np.abs(x - pole) < eps
    if near.any():
        x = np.where(near, np.where(pole - eps > lo, pole - eps, pole + eps), x)
    return np.where((hi - lo > tol) & (lo < x) & (x < hi), x, np.nan)


def _sections(lo, hi) -> np.ndarray:
    """lo + i (hi - lo) / _SECTIONS for 0 < i < _SECTIONS, one row per bracket."""
    return lo[:, None] + np.arange(1, _SECTIONS) * ((hi - lo)[:, None] / _SECTIONS)


def _section_points(model: ModelParams, sector: Sector, lo, hi, tol: float) -> np.ndarray:
    """The multisection points of each bracket, one row per bracket, nan where settled.

    The points are ``_sections`` kept off the poles and inside by
    ``_points_inside``; a bracket with no point left is settled.
    """
    return _points_inside(model, sector, lo, hi, tol, _sections(lo, hi))


def _stencils(points, k, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Each bracket's five nearest counted points, one column per bracket: indices and energies.

    ``points`` are every point counted at this truncation, sorted, and
    bracket i is [lo_i, hi_i] = [points[k_i - 1], points[k_i]], so no point
    lies inside it and the three nearest outside are among its three
    neighbours on either side.  A column holds lo, hi and those three,
    nearest first; a neighbour past either end of ``points`` is nan, and
    sorts last.
    """
    near = k + _NEIGHBOURS  # lo, hi, then three neighbours on either side
    energies = np.concatenate([_PAD, points, _PAD])[near + 3]
    gap = np.abs(energies - 0.5 * (lo + hi))  # less half the width: the distance to the bracket
    gap[:2] = _FIRST
    pick = np.argsort(gap, axis=0)[:5] * k.size + np.arange(k.size)
    return near.ravel()[pick], energies.ravel()[pick]


def _cubic_root(t, v) -> tuple[np.ndarray, np.ndarray]:
    """The cubic's root in each bracket and its distance to the quartic's, one column per bracket.

    The cubic interpolates the values ``v`` at the first four of the points
    ``t`` (columns of five; t_0 = 0 and t_1 = w are the bracket's ends, where
    v changes sign), the quartic at all five, both in Newton form from the
    divided differences.  ``_NEWTON_STEPS`` Newton steps on the cubic from
    the secant zero give its root x*.  The error estimate is one Newton step
    on the quartic from x*, |q(x*) / q'(x*)|: the gap between the two roots
    where it is small, and large too where the steps on the cubic did not
    settle.
    """
    d = v.copy()
    for j in range(1, 5):
        d[j:] = (d[j:] - d[j - 1:-1]) / (t[j:] - t[:-j])
    d0, d1, d2, d3, d4 = d
    _, w, t2, t3, _ = t
    # the cubic d0 + d1 x + d2 x (x - w) + d3 x (x - w)(x - t2) in powers of x
    c1, c2 = d1 - w * (d2 - t2 * d3), d2 - (w + t2) * d3
    b2, b3 = 2.0 * c2, 3.0 * d3
    x = w * d0 / (d0 - v[1])  # the secant zero
    for _ in range(_NEWTON_STEPS):
        x = x - (((d3 * x + c2) * x + c1) * x + d0) / ((b3 * x + b2) * x + c1)
    p, dp = ((d3 * x + c2) * x + c1) * x + d0, (b3 * x + b2) * x + c1
    # the quartic adds d4 times the node product a b
    a, b = x * (x - w), (x - t2) * (x - t3)
    return x, np.abs((p + d4 * a * b) / (dp + d4 * ((2.0 * x - w) * b + a * (2.0 * x - t2 - t3))))


def _step_points(
    model: ModelParams, sector: Sector, points, counts, logs, k, single, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two points around a cubic's root where a bracket holds one level, else its sections.

    ``points``, ``counts`` and ``logs`` are every point counted at this
    truncation, sorted, with N(E) and log|det T(E)|; bracket i is
    [lo, hi] = [points[k_i - 1], points[k_i]], and ``single`` marks the
    brackets whose ends count j and j + 1.  Between poles T'(E) is a
    negative-definite diagonal, so every eigenvalue of T(E) falls with E and
    f(E) = det T(E) (E - E_p), E_p the pole nearest the bracket, has one
    simple zero in a single bracket.  Where the five counted points nearest
    the bracket (``_stencils``) hold no pole between them, f is smooth over
    them: its size is |det T| |E - E_p| from the counted log|det T|, and its
    sign (-1)^(N(E) - poles below E) sign(E - E_p) is (-1)^N(E) times one
    factor, the same at each.  The cubic through the four nearest puts the
    zero at x*, off by about e, the gap to the root of the quartic through
    the fifth (``_cubic_root``).  The points are x* -+ delta,
    delta = max(tol / 4, ``_CUBIC_SAFETY`` e).  A bracket takes them where
    x* lies in it and 2 delta is at most w / _SECTIONS, w = hi - lo, so that
    they leave less than a section would, or at most tol, so that they
    settle the level centred in its bracket where the sections would leave
    it anywhere in one far narrower.  It takes its sections otherwise, as
    it does where a stencil point is missing, the stencil holds a pole or a
    log|det T| is not finite.  Since delta < w / 2, one of the two lies
    inside the bracket, and one outside it is dropped; neither lies within
    eps_pole of a pole, since the bracket holds none and its ends keep
    eps_pole from them, as every point counted does.  The second result
    marks the brackets that took the pair.
    """
    lo, hi = points[k - 1], points[k]
    w, x = hi - lo, np.full((k.size, _SECTIONS - 1), np.nan)
    open_, cubic = w > tol, np.zeros(k.size, dtype=bool)
    rows = np.flatnonzero(single & open_)
    nodes, stencil = _stencils(points, k[rows], lo[rows], hi[rows])
    first, spacing = pole_lattice(model, sector)
    below = np.maximum(np.ceil((stencil - first) / spacing), 0.0)  # the poles below each point
    free = below.min(axis=0) == below.max(axis=0)  # False where a point is missing (nan)
    if not free.all():
        rows, nodes, stencil = rows[free], nodes[:, free], stencil[:, free]
    if rows.size:
        pole = nearest_pole(model, sector, 0.5 * (lo[rows] + hi[rows]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_f = logs[nodes] + np.log(np.abs(stencil - pole))
            v = (1 - 2 * (counts[nodes] & 1)) * np.exp(log_f - log_f.max(axis=0))
            root, error = _cubic_root(stencil - lo[rows], v)
            delta = np.maximum(tol / 4.0, _CUBIC_SAFETY * error)
            # False where delta or the root is nan
            narrow = 2.0 * delta <= np.maximum(w[rows] / _SECTIONS, tol)
            take = narrow & (0.0 <= root) & (root <= w[rows])
        rows, centre, delta = rows[take], lo[rows[take]] + root[take], delta[take]
        cubic[rows] = True
        pair = np.stack([centre - delta, centre + delta], axis=1)
        x[rows, :2] = np.where((lo[rows, None] < pair) & (pair < hi[rows, None]), pair, np.nan)
    rows = np.flatnonzero(open_ & ~cubic)
    if rows.size:
        x[rows] = _section_points(model, sector, lo[rows], hi[rows], tol)
    return x, cubic


def _probe_points(
    model: ModelParams, sector: Sector, levels, lo, hi, tol: float, x, last
) -> np.ndarray:
    """The first points after a doubling: each level's points cut out from its last bracket.

    ``last`` holds the levels, lo and hi of the truncation before.  A level
    moves little under a doubling, so the points of level j are
    plo - tol * _SECTIONS^k and phi + tol * _SECTIONS^k (k >= 1) out from its
    last bracket [plo, phi]; only one side lands inside its new bracket, and
    they leave a bracket at most _SECTIONS times the shift.  A level with no
    last bracket, or with no probe inside, keeps its multisection points ``x``.
    """
    last_levels, last_lo, last_hi = last
    _, rows, old = np.intersect1d(levels, last_levels, return_indices=True)
    if not rows.size:
        return x
    reach = max(np.max(hi[rows] - last_lo[old]), np.max(last_hi[old] - lo[rows]))
    step = [tol * _SECTIONS]  # by products: _SECTIONS^k alone overflows for a subnormal tol
    while step[-1] < reach:
        step.append(step[-1] * _SECTIONS)
    probes = np.full((levels.size, 2 * len(step)), np.nan)
    probes[rows] = _points_inside(
        model, sector, lo[rows], hi[rows], tol,
        np.hstack([last_lo[old, None] - step, last_hi[old, None] + step]),
    )
    probed = ~np.isnan(probes).all(axis=1)
    return np.hstack([np.where(probed[:, None], np.nan, x), probes])


def compute_spectrum(
    model: ModelParams, sector: Sector, window: tuple[float, float]
) -> SpectrumResult:
    """Every level in the window, each narrowed on the level count by multisection and cubic steps.

    The levels in the window are j in [N(e_min), N(e_max)) (``level_count``;
    an edge within eps_pole of a pole moves off it, keeping the pole's side).
    Each level's bracket starts as the window.  Every step counts N(E) at
    new points of each bracket wider than ``DEFAULT_ROOT_ABS_TOL`` (read at
    call time) in one ``level_count`` call; level j lies between the last
    point counted <= j and the next one.  Every point counted at these rows
    is kept with its count and log|det T|, so a step counts only its new
    points, each once per truncation, and the first count takes the
    window's sections with its edges.  A bracket takes the points that cut
    it into ``_SECTIONS`` sections, or, once its ends count j and j + 1, it
    holds no pole and the five counted points nearest it hold none either,
    the two points x* -+ delta around the root x* of the cubic through the
    four nearest, fitted to det T(E) (E - E_p), where delta, at least
    tol / 4, is ten times the gap to the root of the quartic through the
    fifth, and 2 delta leaves less than a section or settles the bracket
    (``_step_points``).  If the level lies between them the
    bracket shrinks to 2 delta; if not, it still loses the side beyond x*.
    An isolated level so settles after its own round of sections and two
    cubic steps, the second through the first one's pair and the bracket
    ends around it.
    Points avoid the poles by eps_pole, so a level at a pole E_n (an
    exceptional level) ends in (E_n - eps_pole, E_n + eps_pole), put at E_n.

    The count truncates the recurrence at N rows, and the truncated levels
    move as N grows: agreeing counts at the window edges do not show that
    the levels inside sit where they should.  So the position of every level
    is checked.  The levels are narrowed at N, then N(E) at 2N is taken at
    both ends of every final bracket and at the window edges.  A level whose
    bracket still holds its step at 2N is confirmed; the others are narrowed
    again at 2N, from the tightest brackets those counts give, and checked at
    4N, and so on up to ``DEFAULT_MAX_DEPTH`` rows, the cap of
    ``contfrac.backward_tail``.  The first N (``count_start``) is read off
    the coefficient rows at the window edges (``_count_start``); a start too
    high costs only rows.  A window whose last pole index is not below the
    cap raises ValueError.
    A level moves little under a doubling, so the first step at 2N does not
    cut its new bracket evenly: it counts at plo - tol * 16^k and
    phi + tol * 16^k (k >= 1) out from the level's bracket [plo, phi] at N,
    which leaves a bracket at most 16 times the shift
    (``_probe_points``).  A level with no bracket at N, or with no such
    point inside its new bracket, takes the even sections.
    A level narrowed at that cap is returned unconfirmed: ``sign_lost`` is
    set on it, it is counted in ``brackets_rejected``, and one
    ``SignLostWarning`` is issued.

    Levels within the exceptional tolerance of a pole energy are reported in
    ``flagged`` (exceptional-spectrum candidates; the truncation constraints
    are not checked), the others in ``roots``.  Each level's residual,
    ``contfrac.twisted_residual`` from one backward pass over the
    ``count_rows`` rows that settled it (inf on a pole), in tables of
    ``CHUNK_CELLS // count_rows`` levels (the width read at this call), is
    reported, never used to reject a level.  It is not computed here: the
    first read of any ``RootRecord.residual`` runs the pass for every level
    of the window, once, so ``rabispec compare``, which reads none, never
    runs it.  ZeroCoupling is raised at g = 0, before any row is read.
    """
    check_coupling(model)
    e_min, e_max = window
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"window edges must be finite, got {window}")
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")

    # an edge within eps_pole of a pole moves off it to the side that keeps
    # the pole in the window if the pole lies in it, and out if not
    eps = model.eps_pole
    edges = np.array([e_min, e_max])
    pole = nearest_pole(model, sector, edges)
    inside = (pole >= e_min) & (pole <= e_max)
    off = np.where(inside, [-eps, eps], [eps, -eps])
    edges = np.where(np.abs(edges - pole) < eps, pole + off, edges)

    cap, tol = DEFAULT_MAX_DEPTH, DEFAULT_ROOT_ABS_TOL
    first, spacing = pole_lattice(model, sector)
    top = max(math.floor((edges[1] - first) / spacing), 0)  # the last pole below, or pole 0
    if top >= cap:
        raise ValueError(f"pole index {top} below the window's upper edge reaches the {cap}-row cap")
    rows = start = _count_start(model, sector, edges, top, cap)
    # the first count takes the window's sections, every level's first step, with its edges
    x = _section_points(model, sector, edges[:1], edges[1:], tol)
    new, window_step = np.concatenate([edges, x[~np.isnan(x)]]), not np.isnan(x).all()
    settled_rows, todo, last = 0, None, None
    # every point counted at these rows, sorted (the edges first and last), their
    # counts and their log|det T|
    taken, taken_counts, taken_logs = np.empty(0), np.empty(0, dtype=np.intp), np.empty(0)
    calls = lanes = row_steps = 0
    while True:
        new = np.unique(new)  # inside the brackets, so none of them was counted at these rows
        points = np.concatenate([taken, new])
        order = np.argsort(points)
        new_counts, new_logs = level_count(model, sector, new, rows)
        counts = np.concatenate([taken_counts, new_counts])[order]
        logs = np.concatenate([taken_logs, new_logs])[order]
        points = points[order]
        calls, lanes, row_steps = calls + 1, lanes + new.size, row_steps + rows
        levels = np.arange(counts[0], counts[-1])
        # level j lies between the last point counted <= j and the next one
        k = np.searchsorted(counts, levels, side="right")
        lo, hi = points[k - 1], points[k]
        if window_step is not None:  # the first count: every level took the window's step
            todo = np.full(levels.size, window_step)
            # each level's section steps and cubic steps
            steps = {j: [int(window_step), 0] for j in levels.tolist()}
            window_step = None
        if last is not None:  # the check after a doubling
            x = _section_points(model, sector, lo, hi, tol)
            x, last = _probe_points(model, sector, levels, lo, hi, tol, x, last), None
            cubic = np.zeros(levels.size, dtype=bool)
        else:
            single = (counts[k - 1] == levels) & (counts[k] == levels + 1)
            x, cubic = _step_points(model, sector, points, counts, logs, k, single, tol)
        live = ~np.isnan(x).all(axis=1)
        # todo: the levels narrowed at these rows
        todo = live if todo is None else todo | live
        if live.any():
            for j, kind in zip(levels[live].tolist(), cubic[live].tolist()):
                steps.setdefault(j, [0, 0])[kind] += 1  # kind: 0 sections, 1 cubic
            taken, taken_counts, taken_logs = points, counts, logs
            new = x[~np.isnan(x)]
            continue
        if settled_rows and not todo.any():
            break
        settled_rows = rows
        if rows == cap:
            break
        new, rows, todo = np.concatenate([edges, lo, hi]), min(2 * rows, cap), None
        taken, taken_counts, taken_logs = taken[:0], taken_counts[:0], taken_logs[:0]
        last = levels, lo, hi
    unconfirmed = todo  # empty unless levels were narrowed at the cap
    if unconfirmed.any():
        warnings.warn(
            f"{int(unconfirmed.sum())} level(s) not confirmed at the {cap}-row cap",
            SignLostWarning,
        )

    # a final bracket that holds a pole puts its level on the pole
    mid = 0.5 * (lo + hi)
    pole = nearest_pole(model, sector, mid)
    energy = np.where((lo < pole) & (pole < hi), pole, mid)
    dist = distance_to_pole_set(model, sector, energy)
    residuals = _ResidualPass(model, sector, energy, dist >= eps, settled_rows)
    near_pole = dist < eps_exceptional(model)

    roots: list[RootRecord] = []
    flagged: list[RootRecord] = []
    for i, j in enumerate(levels.tolist()):
        rec = RootRecord(
            float(energy[i]), _Residual(residuals, i), float(hi[i] - lo[i]), *steps.get(j, (0, 0)),
            bool(unconfirmed[i]),
        )
        (flagged if near_pole[i] else roots).append(rec)
    return SpectrumResult(
        roots=roots,
        poles=poles_in_window(model, sector, e_min, e_max),
        flagged=flagged,
        window=(e_min, e_max),
        grid_points=lanes,
        count_calls=calls,
        count_row_steps=row_steps,
        brackets_found=levels.size,
        brackets_rejected=int(unconfirmed.sum()),
        count_rows=settled_rows,
        count_start=start,
        model=model,
        sector=sector,
    )
