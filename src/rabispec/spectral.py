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
truncation): by multisection, and once a bracket holds one level and no pole,
by two points around the secant zero of det T(E), safeguarded as in Brent's
zeroin (the value of the determinant beside its sign, as Williams and Kennedy
use it).  The first truncation is read off the coefficient rows at the window
edges: the last row whose Gershgorin disc of T(E) holds 0 in the window, plus
the Miller tail past it.  It checks each level's position under a doubling of
the truncation.
The count decides every bracket and is the certificate that no level is lost.
Each level's residual (only reported, ``contfrac.twisted_residual``) is the
twist element sigma_k* - sign(g) R_k* = -sign(g) W_k* of the count's pivots
and the backward ratios at the matching index k*, over the eigenvector's norm
(Parlett and Dhillon; Cooley).

``f_values`` evaluates F over a batch of energies for ``rabispec curve``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

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
)

# Pole-handling constants (in units of omega where dimensionful).
EPS_EXC_FACTOR = 1e-5          # levels closer than this to a pole are exceptional candidates
RESIDUAL_CAP = 1e-4            # energies above this twisted residual are not eigenvalues (series)
DEFAULT_ROOT_ABS_TOL = 1e-10   # width below which a level's bracket is settled
# Recurrence rows of the first level count, at least; doubled while levels
# move, up to contfrac's DEFAULT_MAX_DEPTH.
_FIRST_COUNT_ROWS = 64
# The rows _count_start reads first at the window edges, doubled while the
# reach or its tail runs past them, and the seed-error damping of that tail.
_START_BLOCK_ROWS = 128
_START_TAIL_EPS = 1e-8
# Each multisection step cuts every unsettled bracket into this many sections.
_SECTIONS = 16
# Rows pivoted at a time by level_count, half from each end, and at most
# CHUNK_CELLS rows x lanes, so its memory grows neither with the rows nor the lanes.
_COUNT_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class RootRecord:
    """One level: its energy, twisted residual, final bracket width and narrowing steps.

    ``iterations`` counts the count calls that narrowed the level, by
    multisection or by secant points, at every truncation.  ``sign_lost``
    marks a level whose position was not confirmed under a doubling of the
    count rows because the rows reached ``DEFAULT_MAX_DEPTH``.
    """

    energy: float
    residual: float
    bracket_width: float
    iterations: int
    sign_lost: bool = False


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
    level's ``residual`` is its twisted residual.
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
    window live up to the last of them, the reach.  The tail is the rows past
    the reach where a backward recursion's seed error damps below
    ``_START_TAIL_EPS`` in both edge lanes (``contfrac.backward_tail``'s
    product of ``log_damping``).  The start is
    max(64, P(top + 1), min(P(reach + tail), P(2 reach))), at most ``cap``,
    with P(n) the power of two at or above n and ``top`` the last pole index
    below the window: the pole term counts only the poles of the rows it has.
    Near collapse the tail runs to thousands of rows past what settles the
    levels, so 2 reach bounds it (a measured bound, not a derived one).

    The rows are read at both edges, the first ``_START_BLOCK_ROWS`` of them,
    then as many again, up to ``cap``, while the reach is the last row read,
    while the tail runs past it short of P(2 reach), or while the discs'
    margin m(n) = |a(n, E)| / radius, the least over the edges, may yet fall
    below 1 past the rows read: m falls over the last doubling of the rows,
    and were each doubling's fall to shrink as the last one did, what is
    left of it would exceed m - 1 at the last row.  The squeezed models'
    margin runs as L + C / n, whose fall halves with each doubling (and
    L > 1 below collapse), and the driven model's, about
    (n + c) / (4 |g| sqrt(n)) with c near (2g/omega)^2 at the bottom of the
    spectrum, shrinks by sqrt(2) well below n = c and dips below 1 near it.
    Each row is read once, in blocks of at most ``CHUNK_CELLS`` / 2 rows.
    """
    log_eps, step = math.log(_START_TAIL_EPS), max(1, CHUNK_CELLS // 2)
    size, done = min(_START_BLOCK_ROWS, cap), 0  # rows to read, rows read
    reach, log_tail, tail, marks = 0, np.zeros(2), None, {}  # marks: m(n) at rows size / 4 - 1, ...
    while True:
        for lo in range(done, size, step):
            hi = min(lo + step, size)
            a, b = coefficient_block(model, sector, edges, lo, hi)  # b(hi) closes row hi - 1
            radius, a, b = np.sqrt(b[:-1, 0]) + np.sqrt(b[1:, 0]), a[:-1], b[:-1]
            margin = np.abs(a).min(axis=1) / radius
            margin[(a[:, 0] < 0.0) != (a[:, 1] < 0.0)] = 0.0
            holds, first = np.flatnonzero(margin <= 1.0), 0  # first: the first row past the reach
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
            marks.update((n, margin[n - lo]) for n in (size // 4 - 1, size // 2 - 1, size - 1)
                         if lo <= n < hi)
        done, bound = size, _power_of_two(2 * reach)
        quarter, half, end = marks[size // 4 - 1], marks[size // 2 - 1], marks[size - 1]
        fall, last_fall = half - end, quarter - half
        # what is left of the fall, were each doubling's fall to shrink as the last one did
        if 0.0 < fall < last_fall:
            left = fall * fall / (last_fall - fall)
        else:
            left = math.inf if fall > 0.0 else 0.0
        falling = end - 1.0 < left
        if size >= cap or not (reach == size - 1 or (tail is None and size < bound) or falling):
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


def _step_points(
    model: ModelParams, sector: Sector, lo, hi, logs, single, tol: float, last
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A step's points: two around the secant zero of det T where a bracket holds one level.

    ``logs`` (2, levels) holds log|det T(E)| at lo and hi, and ``single``
    marks the brackets whose ends count j and j + 1.  On such a bracket with
    no pole in it, T'(E) is a negative-definite diagonal, so every eigenvalue
    of T(E) falls with E and f(E) = det T(E) (E - E_p), E_p the pole nearest
    the bracket, has one simple zero there; the count gives the signs of f
    at the ends, which differ.  The secant through the ends puts the zero at
    x* = lo + w / (1 + |f(hi)| / |f(lo)|), w = hi - lo, off by about
    K (x* - lo)(hi - x*).  The points are x* -+ delta,
    delta = max(tol / 4, 4 K (x* - lo)(hi - x*)), with K the error constant
    the level's last secant point showed, |x*_last - x*| over its
    (x*_last - lo)(hi - x*_last), and before its first one
    K = max(2, 1 / the distance to the neighbouring levels' bracket
    midpoints).  A bracket takes them where 4 K w^2 <= w / _SECTIONS, so
    that they leave less than a section would; the others take their
    sections.  Since delta < w / 2, one of them lies inside the bracket, and
    none is moved by ``_points_inside``: every point counted keeps eps_pole
    from the poles, so no point between two of them that hold no pole lies
    nearer.  ``last`` holds each level's last secant point and its
    (x* - lo)(hi - x*) (nan where none); the result returns it updated.
    """
    last_x, last_span = last
    w, x = hi - lo, _sections(lo, hi)
    # the first steps at each truncation: no bracket is narrow enough yet (K >= 2 at first)
    if not (single & (w > tol) & ((8.0 * _SECTIONS * w <= 1.0) | ~np.isnan(last_x))).any():
        return _points_inside(model, sector, lo, hi, tol, x), last
    mid = 0.5 * (lo + hi)
    pole = nearest_pole(model, sector, mid)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_f = logs + np.log(np.abs(np.stack([lo, hi]) - pole))
        guess = lo + w / (1.0 + np.exp(log_f[1] - log_f[0]))
        span = (guess - lo) * (hi - guess)
        gap = np.full(mid.size + 1, np.inf)
        gap[1:-1] = np.diff(mid)
        first_k = np.maximum(2.0, 1.0 / np.minimum(gap[:-1], gap[1:]))
        k = np.where(np.isnan(last_x), first_k, np.abs(last_x - guess) / last_span)
        delta = np.maximum(tol / 4.0, 4.0 * k * span)
        narrow = 4.0 * _SECTIONS * k * w <= 1.0
        use = single & ~((lo < pole) & (pole < hi)) & np.isfinite(guess) & narrow
    x[use] = np.nan
    x[use, 0], x[use, 1] = guess[use] - delta[use], guess[use] + delta[use]
    last = np.where(use, guess, last_x), np.where(use, span, last_span)
    return _points_inside(model, sector, lo, hi, tol, x), last


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
    """Every level in the window, each narrowed on the level count by multisection and secant.

    The levels in the window are j in [N(e_min), N(e_max)) (``level_count``;
    an edge within eps_pole of a pole moves off it, keeping the pole's side).
    Each level's bracket starts as the window.  Every step counts N(E) at
    new points of each bracket wider than ``DEFAULT_ROOT_ABS_TOL`` (read at
    call time) in one ``level_count`` call; level j lies between the last
    point counted <= j and the next one.  A bracket takes the points that
    cut it into ``_SECTIONS`` sections, or, once its ends count j and j + 1,
    it holds no pole and it is narrow enough for the secant's error estimate
    to be a sixteenth of it, the two points x* -+ delta around the secant zero
    x* of det T(E) (E - E_p) (``_step_points``).  If the level lies between
    them the bracket shrinks to 2 delta, about the square of its width; if
    not, it still loses the side beyond x*.  The edges and bracket ends
    counted at these rows are kept with their counts and log|det T|, so a
    step counts only its new points, each once per truncation, and the first
    count takes the window's sections with its edges.
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
    the coefficient rows at the window edges before the first count
    (``_count_start``): the last row whose Gershgorin disc of T(E) holds 0 in
    the window, plus the Miller tail past it, and at least 64 and the power
    of two above the index of the last pole below the window's upper edge:
    the pole term counts only the poles of the first N rows, so fewer rows
    would put N(e_min) = N(e_max) on a high window.  Every level is then
    checked under doubling as before, so a start too high costs only rows.
    A window whose last pole index is not below the cap raises ValueError.
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
    ``CHUNK_CELLS // count_rows`` levels, is reported, never used to reject
    a level.  ZeroCoupling is raised at g = 0, before any row is read.
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
    settled_rows, todo, last, secant = 0, None, None, None
    # the points counted at these rows, sorted (the edges first and last), their
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
            steps, window_step = dict.fromkeys(levels.tolist(), int(window_step)), None
        if last is not None:  # the check after a doubling
            x = _section_points(model, sector, lo, hi, tol)
            x, last = _probe_points(model, sector, levels, lo, hi, tol, x, last), None
        else:
            if secant is None:  # each level's last secant point and (x* - lo)(hi - x*): none yet
                secant = np.full((2, levels.size), np.nan)
            single = (counts[k - 1] == levels) & (counts[k] == levels + 1)
            x, secant = _step_points(model, sector, lo, hi, logs[[k - 1, k]], single, tol, secant)
        live = ~np.isnan(x).all(axis=1)
        # todo: the levels narrowed at these rows
        todo = live if todo is None else todo | live
        if live.any():
            for j in levels[live].tolist():
                steps[j] = steps.get(j, 0) + 1
            ends = np.unique(np.concatenate([[0, points.size - 1], k - 1, k]))
            taken, taken_counts, taken_logs = points[ends], counts[ends], logs[ends]
            new = x[~np.isnan(x)]
            continue
        if settled_rows and not todo.any():
            break
        settled_rows = rows
        if rows == cap:
            break
        new, rows, todo = np.concatenate([edges, lo, hi]), min(2 * rows, cap), None
        taken, taken_counts, taken_logs = taken[:0], taken_counts[:0], taken_logs[:0]
        last, secant = (levels, lo, hi), None
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
    residual, dist = np.full(energy.shape, np.inf), distance_to_pole_set(model, sector, energy)
    usable, step = np.flatnonzero(dist >= eps), max(1, CHUNK_CELLS // settled_rows)
    t2, sign = asymptotic_roots(model).t2, math.copysign(1.0, model.g)
    for table in (usable[i:i + step] for i in range(0, usable.size, step)):
        a, b = coefficient_block(model, sector, energy[table], 0, settled_rows - 1)
        residual[table] = twisted_residual(a, b, batch_ratios(a, b, t2), sign)
    near_pole = dist < eps_exceptional(model)

    roots: list[RootRecord] = []
    flagged: list[RootRecord] = []
    for i, j in enumerate(levels.tolist()):
        rec = RootRecord(
            float(energy[i]), float(residual[i]), float(hi[i] - lo[i]), steps.get(j, 0),
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
