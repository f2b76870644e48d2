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
the number of levels below E, from the signs of the LDL^T pivots of the
truncated recurrence plus the poles below E (the Sturm count with the
Wittrick-Williams pole term).  ``compute_spectrum`` takes the levels of a
window as j in [N(e_min), N(e_max)), narrows each by multisection on N(E)
(many points per bracket in one count call), and checks each level's
position under a doubling of the truncation.  The count is the
certificate that no level is lost.  Each level's residual (only reported,
``contfrac.twisted_residual``) is the twist element sigma_k* - sign(g) R_k* =
-sign(g) W_k* of the count's pivots and the backward ratios at the matching
index k*, over the eigenvector's norm (Parlett and Dhillon; Cooley).

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
    DEFAULT_REL_TOL,
    batch_minimal_ratio,
    batch_pivots,
    batch_ratios,
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
# Recurrence rows of the first level count; doubled while levels move.
_FIRST_COUNT_ROWS = 64
# Each multisection step cuts every unsettled bracket into this many sections.
_SECTIONS = 16
# Rows pivoted at a time by level_count, so its memory does not grow with the rows.
_COUNT_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class RootRecord:
    """One level: its energy, twisted residual, final bracket width and multisection steps.

    ``sign_lost`` marks a level whose position was not confirmed under a
    doubling of the count rows because the rows reached ``cf_max_depth``.
    """

    energy: float
    residual: float
    bracket_width: float
    iterations: int
    sign_lost: bool = False


@dataclass(frozen=True)
class SpectrumOptions:
    cf_max_depth: int = DEFAULT_MAX_DEPTH
    root_abs_tol: float = 1e-10

    def __post_init__(self):
        if not self.root_abs_tol > 0.0:
            raise ValueError(f"root_abs_tol must be positive, got {self.root_abs_tol}")
        if not self.cf_max_depth >= 8:
            raise ValueError(f"cf_max_depth must be >= 8, got {self.cf_max_depth}")


@dataclass(frozen=True)
class SpectrumResult:
    """Regular roots, pole set and exceptional candidates found in a window.

    ``brackets_found`` is N(e_max) - N(e_min), the number of levels the count
    puts in the window; every one of them is returned, in ``roots`` or in
    ``flagged``.  ``brackets_rejected`` counts the levels whose position was
    not confirmed at the ``cf_max_depth`` row cap.  ``count_calls`` is the
    number of ``level_count`` calls, ``grid_points`` the lanes passed to
    them and ``count_row_steps`` the sum of their rows (the iterations of the
    pivot loop), and ``count_rows`` is the truncation N at which the levels
    were last narrowed.  A level's ``residual`` is its twisted residual.
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
    """Analytic pole energies lying in [e_min, e_max]."""
    first, spacing = pole_lattice(model, sector)
    if e_max < first:
        return []
    n_hi = int(math.floor((e_max - first) / spacing)) + 1
    return [
        p
        for p in (first + n * spacing for n in range(n_hi + 1))
        if e_min <= p <= e_max
    ]


def f_values(
    model: ModelParams,
    sector: Sector,
    energies,
    rel_tol: float = DEFAULT_REL_TOL,
) -> np.ndarray:
    """F(E) = R_0(E) + a(0) over an array of energies, one lane per energy.

    R_0 comes from batched backward recursion (``batch_minimal_ratio``).
    Lanes within eps_pole of the pole set, lanes whose R_0 did not converge
    by ``DEFAULT_MAX_DEPTH`` and lanes whose value is not finite are nan.
    """
    check_coupling(model)
    sector.check_matches(model)
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.full(energies.shape, np.nan)
    usable = distance_to_pole_set(model, sector, energies) >= model.eps_pole
    if not usable.any():
        return out
    e = energies[usable]
    block = partial(coefficient_block, model, sector)
    ratio = batch_minimal_ratio(block, e, asymptotic_roots(model).t2, rel_tol, DEFAULT_MAX_DEPTH)
    a, _ = coefficient_block(model, sector, e, 0, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        f = ratio + a[0]
    f[~np.isfinite(f)] = np.nan
    out[usable] = f
    return out


def default_window_min(model: ModelParams, sector: Sector) -> float:
    """Lower scan bound guaranteed to sit below the ground state."""
    p0 = pole_lattice(model, sector)[0]
    return min(p0, -model.omega) - model.delta - abs(model.drive) - 1.0


def level_count(model: ModelParams, sector: Sector, energies, rows: int) -> np.ndarray:
    """N(E): the number of levels below each energy, from the first ``rows`` rows.

    N(E) = #{n < rows : sign(g) rho_n < 0} + #{n < rows : E_n < E}, with the
    continuant ratios rho_0 = -a(0), rho_n = -a(n) - b(n)/rho_{n-1}.  Since
    b(n) > 0 the rho_n are LDL^T pivots, and their negative count is the Sturm
    count of the truncated recurrence (``contfrac.batch_pivots``, over
    ``_COUNT_CHUNK_ROWS`` rows at a time).
    The rational term -delta^2/(E - E_n) of a(n) drops one negative pivot at
    each pole; the second term puts it back (the Wittrick-Williams count), so
    N(E) is nondecreasing and steps by one at each level.  The caller keeps
    ``energies`` off the pole set.
    """
    check_coupling(model)
    energies = np.asarray(energies, dtype=float)
    first, spacing = pole_lattice(model, sector)
    count = np.clip(np.ceil((energies - first) / spacing), 0, rows).astype(np.intp)
    sign, last = math.copysign(1.0, model.g), None
    for n_lo in range(0, rows, _COUNT_CHUNK_ROWS):
        n_hi = min(n_lo + _COUNT_CHUNK_ROWS, rows) - 1
        pivots = batch_pivots(*coefficient_block(model, sector, energies, n_lo, n_hi), sign, last)
        count += np.count_nonzero(pivots < 0.0, axis=0)
        last = pivots[-1]
    return count


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


def _section_points(model: ModelParams, sector: Sector, lo, hi, tol: float) -> np.ndarray:
    """The multisection points of each bracket, one row per bracket, nan where settled.

    The points are lo + i (hi - lo) / _SECTIONS for 0 < i < _SECTIONS, kept
    off the poles and inside by ``_points_inside``; a bracket with no point
    left is settled.
    """
    x = lo[:, None] + np.arange(1, _SECTIONS) * ((hi - lo)[:, None] / _SECTIONS)
    return _points_inside(model, sector, lo, hi, tol, x)


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
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
    opts: SpectrumOptions | None = None,
) -> SpectrumResult:
    """Every level in the window, each found by multisection on the level count.

    The levels in the window are j in [N(e_min), N(e_max)) (``level_count``;
    an edge within eps_pole of a pole moves off it, keeping the pole's side).
    Each level's bracket starts as the window.  Every multisection step cuts
    each bracket wider than ``root_abs_tol`` into ``_SECTIONS`` sections and
    counts N(E) at all their points and bracket ends in one ``level_count``
    call; level j lies between the last point counted <= j and the next one.
    Points avoid the poles by eps_pole, so a level at a pole E_n (an
    exceptional level) ends in (E_n - eps_pole, E_n + eps_pole), put at E_n.

    The count truncates the recurrence at N rows, and the truncated levels
    move as N grows: agreeing counts at the window edges do not show that
    the levels inside sit where they should.  So the position of every level
    is checked.  Starting from N = 64, the levels are narrowed at N, then
    N(E) at 2N is taken at both ends of every final bracket and at the window
    edges.  A level whose bracket still holds its step at 2N is confirmed;
    the others are narrowed again at 2N, from the tightest brackets those
    counts give, and checked at 4N, and so on up to ``cf_max_depth`` rows.
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
    ``contfrac.twisted_residual`` from one backward pass over the rows that
    confirmed it (inf on a pole), is reported, never used to reject a level.
    """
    if opts is None:
        opts = SpectrumOptions()
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

    cap, tol = opts.cf_max_depth, opts.root_abs_tol
    rows = min(_FIRST_COUNT_ROWS, cap)
    points, settled_rows, steps, todo, last = edges, 0, {}, None, None
    calls = lanes = row_steps = 0
    while True:
        points = np.unique(points)  # sorted: the edges come first and last
        counts = level_count(model, sector, points, rows)
        calls, lanes, row_steps = calls + 1, lanes + points.size, row_steps + rows
        levels = np.arange(counts[0], counts[-1])
        # level j lies between the last point counted <= j and the next one
        k = np.searchsorted(counts, levels, side="right")
        lo, hi = points[k - 1], points[k]
        x = _section_points(model, sector, lo, hi, tol)
        if last is not None:  # the check after a doubling
            x, last = _probe_points(model, sector, levels, lo, hi, tol, x, last), None
        live = ~np.isnan(x).all(axis=1)
        # todo: the levels narrowed at these rows
        todo = live if todo is None else todo | live
        if live.any():
            for j in levels[live].tolist():
                steps[j] = steps.get(j, 0) + 1
            points = np.concatenate([edges, lo, hi, x[~np.isnan(x)]])
            continue
        if settled_rows and not todo.any():
            break
        settled_rows = rows
        if rows == cap:
            break
        points, rows, todo = np.concatenate([edges, lo, hi]), min(2 * rows, cap), None
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
    residual, dist = np.full(energy.shape, np.inf), distance_to_pole_set(model, sector, energy)
    usable, step = np.flatnonzero(dist >= eps), max(1, CHUNK_CELLS // rows)
    t2, sign = asymptotic_roots(model).t2, math.copysign(1.0, model.g)
    for table in (usable[i:i + step] for i in range(0, usable.size, step)):
        a, b = coefficient_block(model, sector, energy[table], 0, rows - 1)  # confirming rows
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
        model=model,
        sector=sector,
    )
