"""Transcendental eigenvalue functions and pole-aware root finding.

The regular spectrum of each model is the zero set of

    F(E) = R_0(E) + a_0(E),

where R_0 is the minimal-ratio continued fraction and a_0 the first recurrence
coefficient.  F diverges at the pole energy E_0, and at E_n with n >= 1 its
singularity is removable.  The split eigenconditions

    W_k(E) = R_k(E) - K_{k+1}(E)/K_k(E),   W_0 = F,

share F's zeros for every split index k, but not its poles: W_k has an explicit
simple pole at E_k and hidden poles at the zeros of the continuant K_k and at
the poles of R_k.  An eigenvalue that sits next to a hidden pole of one W_k is
invisible to a sign scan of that function, yet a plain sign change of another.

Roots are found by one scan.  Every interval of one point set (a uniform grid,
guard points beside each pole and geometric ladders around each pole) that
holds no analytic pole is tested at k = 0 and at k = base, base + 1, where
E_base is the pole nearest the interval.  Each strict sign change is a bracket,
refined by bisection with secant acceleration.

The spectrum pipeline evaluates F and W_k over whole batches of energies at
once (``split_values``, batched backward recursion) and refines all brackets in
lockstep.  ``spectral_function`` and ``split_spectral_value`` evaluate one
energy by modified Lentz; they are the scalar reference the batched values are
tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contfrac import (
    BLOCK_ROWS,
    CFValue,
    DEFAULT_MAX_DEPTH,
    DEFAULT_REL_TOL,
    batch_minimal_ratio,
    eval_continued_fraction,
)
from .errors import CollapseRegimeWarning, EmptyWindow, SignLostWarning
from .models import (
    ModelKind,
    ModelParams,
    Sector,
    asymptotic_roots,
    bogoliubov_params,
    check_coupling,
    coefficient_block,
    distance_to_pole_set,
    pole_energy,
    pole_spacing,
    three_term_coeffs,
)

# Pole-handling constants (in units of omega where dimensionful).
EPS_POLE_GUARD_FACTOR = 1e-6   # grid points are kept this far away from poles
EPS_EXC_FACTOR = 1e-5          # roots closer than this to a pole are exceptional candidates
RESIDUAL_CAP = 1e-4            # refined roots above this |W_k| are rejected
COLLAPSE_ROOT_FACTOR = 0.05    # below this Omega/Lambda, grids are tightened


@dataclass(frozen=True)
class SpectralSample:
    """One evaluation of the transcendental function."""

    energy: float
    value: float
    cf: CFValue
    near_pole: bool


@dataclass(frozen=True)
class Bracket:
    """Sign-change interval free of analytic poles."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


@dataclass(frozen=True)
class RootRecord:
    energy: float
    residual: float
    bracket_width: float
    iterations: int
    sign_lost: bool = False


@dataclass(frozen=True)
class SpectrumOptions:
    grid_step: float | None = None
    cf_rel_tol: float = DEFAULT_REL_TOL
    cf_max_depth: int = DEFAULT_MAX_DEPTH
    root_abs_tol: float = 1e-10


@dataclass(frozen=True)
class SpectrumResult:
    """Regular roots, pole set and exceptional candidates found in a window.

    ``grid_points`` counts every scan point: the uniform grid, the guard points
    beside the poles and the ladder points around them.  ``brackets_found``
    counts the sign changes refined, and ``brackets_rejected`` those whose
    refined root was not accepted.
    """

    roots: list[RootRecord]
    poles: list[float]
    flagged: list[RootRecord]
    window: tuple[float, float]
    grid_points: int
    brackets_found: int
    brackets_rejected: int
    model: ModelParams
    sector: Sector

    @property
    def energies(self) -> list[float]:
        return [r.energy for r in self.roots]


def _guard(model: ModelParams) -> float:
    return EPS_POLE_GUARD_FACTOR * model.omega


def eps_exceptional(model: ModelParams) -> float:
    return EPS_EXC_FACTOR * model.omega


def poles_in_window(
    model: ModelParams, sector: Sector, e_min: float, e_max: float
) -> list[float]:
    """Analytic pole energies lying in [e_min, e_max]."""
    first = pole_energy(model, sector, 0)
    spacing = pole_spacing(model, sector)
    if e_max < first:
        return []
    n_hi = int(math.floor((e_max - first) / spacing)) + 1
    return [
        p
        for p in (first + n * spacing for n in range(n_hi + 1))
        if e_min <= p <= e_max
    ]


def spectral_function(
    model: ModelParams,
    sector: Sector,
    energy: float,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SpectralSample:
    """Evaluate F(E) = R_0(E) + a_0(E) (G and Q for the other models).

    F diverges at the pole energy E_0; at E_n with n >= 1 its singularity is
    removable, because the divergent a(n) only sends R_{n-1} to zero.

    Raises PoleCollision within eps_pole of the pole set; ``near_pole`` flags
    samples within the wider grid-guard distance.
    """
    coeffs = three_term_coeffs(model, sector, energy)  # raises ZeroCoupling/PoleCollision
    cf = eval_continued_fraction(coeffs, start=0, rel_tol=rel_tol, max_depth=max_depth)
    dist = distance_to_pole_set(model, sector, energy)
    return SpectralSample(
        energy=energy,
        value=cf.value + coeffs.a(0),
        cf=cf,
        near_pole=dist < _guard(model),
    )


def _forward_ratio(coeffs, k: int) -> float:
    """K_{k+1}/K_k from forward recursion of the single-ended sequence, K_0 = 1.

    Exact (no minimality subtlety) for the small k used here; normalized each
    step so intermediate magnitudes stay bounded.
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


def split_spectral_value(
    model: ModelParams,
    sector: Sector,
    energy: float,
    split: int,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """Eigenvalue mismatch at split index k: CF tail ratio minus forward ratio.

    For split = 0 this is exactly F(E).  Its zero set is the same regular
    spectrum for every split, but the pole structure differs: near the k-th
    analytic pole energy the continued fraction starting at k consumes no
    divergent coefficient, while the forward ratio has an explicit simple pole
    exactly there.  That turns eigenvalues hugging the k-th pole, which can
    hide from a sign scan of F inside tight zero/pole pairs, into clean sign
    changes on a ladder of samples around the known pole location.
    """
    coeffs = three_term_coeffs(model, sector, energy)
    cf = eval_continued_fraction(coeffs, start=split, rel_tol=rel_tol, max_depth=max_depth)
    return cf.value - _forward_ratio(coeffs, split)


def split_values(
    model: ModelParams,
    sector: Sector,
    energies,
    splits,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """``split_spectral_value`` over an array of energies, one lane per energy.

    ``splits`` is each lane's split index k (a scalar applies to every lane);
    k = 0 gives F, since W_0 = R_0 + a(0).  R_k comes from batched backward
    recursion (``batch_minimal_ratio``) and K_{k+1}/K_k from the forward
    continuant recursion run over all lanes.  Lanes within eps_pole of the
    pole set, where ``split_spectral_value`` raises PoleCollision, and lanes
    whose value is not finite are nan.
    """
    check_coupling(model)
    sector.check_matches(model)
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    splits = np.broadcast_to(np.asarray(splits, dtype=np.intp), energies.shape)
    out = np.full(energies.shape, np.nan)
    usable = distance_to_pole_set(model, sector, energies) >= model.eps_pole
    if not usable.any():
        return out
    e, k = energies[usable], splits[usable]

    def block(lanes, n_lo, n_hi):
        return coefficient_block(model, sector, lanes, n_lo, n_hi)

    tail = batch_minimal_ratio(block, e, k, asymptotic_roots(model).t2, rel_tol, max_depth)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = tail - _forward_ratios(model, sector, e, k)
    w[~np.isfinite(w)] = np.nan
    out[usable] = w
    return out


def _forward_ratios(model, sector, energies: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """``_forward_ratio`` for every lane: K_{k+1}/K_k with k = splits, K_0 = 1."""
    k_max = int(splits.max())
    prev = np.ones(energies.size)
    curr = prev
    for n_lo in range(0, k_max + 1, BLOCK_ROWS):
        a, b = coefficient_block(model, sector, energies, n_lo, min(n_lo + BLOCK_ROWS - 1, k_max))
        for i in range(a.shape[0]):
            m = n_lo + i
            if m == 0:
                curr = -a[0]  # K_1
                continue
            nxt = -a[i] * curr - b[i] * prev
            live = splits >= m
            prev, curr = np.where(live, curr, prev), np.where(live, nxt, curr)
            scale = np.maximum(np.abs(prev), np.abs(curr))
            big = scale > 1e150
            if big.any():
                prev = np.where(big, prev / scale, prev)
                curr = np.where(big, curr / scale, curr)
    return curr / prev


def _grid_points(
    model: ModelParams, sector: Sector, e_min: float, e_max: float, grid_step: float
) -> np.ndarray:
    """Uniform grid plus pole-adjacent guard points, unsorted."""
    guard = _guard(model)
    n_steps = int(math.ceil((e_max - e_min) / grid_step))
    uniform = np.minimum(e_min + np.arange(n_steps + 1) * grid_step, e_max)
    poles = np.array(poles_in_window(model, sector, e_min - guard, e_max + guard))
    return np.concatenate([
        uniform, poles[poles - guard >= e_min] - guard, poles[poles + guard <= e_max] + guard
    ])


def _window_grid(
    model, sector, window: tuple[float, float], grid_step: float, extra=()
) -> np.ndarray:
    """Sorted scan points: the grid of ``window`` and the ``extra`` points.

    Points closer to the pole set than the guard distance are dropped, and
    points that coincide to a relative 1e-15 are kept once.
    """
    e_min, e_max = window
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    pts = np.sort(np.concatenate([_grid_points(model, sector, e_min, e_max, grid_step), extra]))
    pts = pts[distance_to_pole_set(model, sector, pts) >= _guard(model) * (1.0 - 1e-9)]
    pts = pts[np.diff(pts, prepend=-np.inf) > 1e-15 * np.maximum(1.0, np.abs(pts))]
    if len(pts) < 2:
        raise EmptyWindow("no usable grid points in window")
    return pts


def _pole_strictly_inside(model, sector, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per interval: does an analytic pole lie strictly between lo and hi?"""
    first = pole_energy(model, sector, 0)
    spacing = pole_spacing(model, sector)
    n_lo = np.maximum(np.ceil((lo - first) / spacing - 1e-12), 0.0)
    n_hi = np.floor((hi - first) / spacing + 1e-12)
    inside = np.zeros(lo.shape, dtype=bool)
    for j in range(int(np.max(n_hi - n_lo, initial=-1.0)) + 1):
        p = first + (n_lo + j) * spacing
        inside |= (n_lo + j <= n_hi) & (lo < p) & (p < hi)
    return inside


def _nearest_pole_index(model: ModelParams, sector: Sector, energy: np.ndarray) -> np.ndarray:
    first = pole_energy(model, sector, 0)
    spacing = pole_spacing(model, sector)
    return np.maximum(np.rint((energy - first) / spacing), 0.0).astype(np.intp)


def _values_at(w_at, pts: np.ndarray, point: np.ndarray, split: np.ndarray) -> np.ndarray:
    """W_split at pts[point] for each (point, split) pair, evaluating each distinct pair once."""
    stride = int(split.max(initial=0)) + 1
    keys, where = np.unique(point * stride + split, return_inverse=True)
    return w_at(pts[keys // stride], keys % stride)[where]


def _sign_change(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Strict sign change between samples.  A sample that is exactly zero is a
    root of its own and takes part in the sign test of neither neighbour; a nan
    sample takes part in none."""
    return np.sign(f1) * np.sign(f2) < 0.0


def scan_brackets(
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
    grid_step: float,
    cf_rel_tol: float = DEFAULT_REL_TOL,
    cf_max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Bracket]:
    """Sign-change brackets of F between consecutive grid points of ``window``.

    The grid is uniform with step ``grid_step`` plus a guard point on each side
    of every pole.  Intervals that hold an analytic pole are skipped.  A sample
    where F is exactly zero is a root, not a bracket end, and is not returned.
    This is the k = 0 part of the scan in ``compute_spectrum``, without its
    ladder points.
    """
    pts = _window_grid(model, sector, window, grid_step)
    f = split_values(model, sector, pts, 0, cf_rel_tol, cf_max_depth)
    change = _sign_change(f[:-1], f[1:]) & ~_pole_strictly_inside(model, sector, pts[:-1], pts[1:])
    return [
        Bracket(float(pts[j]), float(pts[j + 1]), float(f[j]), float(f[j + 1]))
        for j in np.flatnonzero(change)
    ]


def refine_root(
    model: ModelParams,
    sector: Sector,
    bracket: Bracket,
    abs_tol: float = 1e-10,
    cf_rel_tol: float = DEFAULT_REL_TOL,
    cf_max_depth: int = DEFAULT_MAX_DEPTH,
) -> RootRecord:
    """Shrink a bracket to ``abs_tol`` by bisection with secant acceleration.

    The sign change is preserved at every step.  If floating point loses it
    (evaluation at the trial point is zero or non-finite) the best enclosure
    is returned flagged via ``sign_lost``.
    """
    if abs_tol <= 0.0:
        raise ValueError("abs_tol must be positive")

    def f(e, lanes):
        return split_values(model, sector, e, 0, cf_rel_tol, cf_max_depth)

    mid, width, iterations, sign_lost = _bisect(
        f, [bracket.lo], [bracket.hi], [bracket.f_lo], [bracket.f_hi], abs_tol
    )
    resid = abs(f(mid, None)[0])
    return RootRecord(
        energy=float(mid[0]),
        residual=resid if math.isfinite(resid) else math.inf,
        bracket_width=float(width[0]),
        iterations=int(iterations[0]),
        sign_lost=bool(sign_lost[0]),
    )


def _bisect(f, lo, hi, f_lo, f_hi, abs_tol):
    """Sign-preserving bisection with interior secant steps, all brackets in lockstep.

    ``f(x, lanes)`` evaluates the function of each bracket in ``lanes`` at the
    matching entry of ``x`` and returns nan (never raises) on unusable points.
    Returns arrays (midpoint, final width, iterations, sign_lost).
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    if np.any(~(lo < hi) | ((f_lo < 0.0) == (f_hi < 0.0))):
        raise ValueError("invalid bracket")
    iterations = np.zeros(lo.shape, dtype=int)
    sign_lost = np.zeros(lo.shape, dtype=bool)
    live = np.flatnonzero(hi - lo > abs_tol)
    while live.size:
        iterations[live] += 1
        l, h, fl, fh = lo[live], hi[live], f_lo[live], f_hi[live]
        mid = 0.5 * (l + h)
        margin = 0.1 * (h - l)
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = (l * fh - h * fl) / (fh - fl)
        x = np.where((fh != fl) & (l + margin < secant) & (secant < h - margin), secant, mid)
        fx = f(x, live)
        bad = ~np.isfinite(fx)
        if bad.any():
            # retreat to plain bisection away from the bad point
            x[bad] = np.where(x[bad] != mid[bad], mid[bad], l[bad] + 0.25 * (h[bad] - l[bad]))
            fx[bad] = f(x[bad], live[bad])
        failed = ~np.isfinite(fx)
        for _ in range(np.count_nonzero(failed)):
            warnings.warn(
                "root refinement hit non-finite evaluations; returning enclosure",
                SignLostWarning,
            )
        zero = fx == 0.0
        lo[live[zero]] = hi[live[zero]] = x[zero]
        f_lo[live[zero]] = f_hi[live[zero]] = 0.0
        move = ~(failed | zero)
        up = move & ((fx < 0.0) == (fl < 0.0))
        down = move & ~up
        lo[live[up]], f_lo[live[up]] = x[up], fx[up]
        hi[live[down]], f_hi[live[down]] = x[down], fx[down]
        capped = move & (iterations[live] > 200)
        for _ in range(np.count_nonzero(capped)):
            warnings.warn("root refinement iteration cap reached", SignLostWarning)
        sign_lost[live[failed | capped]] = True
        live = live[move & ~capped]
        live = live[hi[live] - lo[live] > abs_tol]
    return 0.5 * (lo + hi), hi - lo, iterations, sign_lost


_LADDER_RATIO = 1.6   # geometric growth of sample distances from a pole
_LADDER_REACH = 0.45  # ladder extent per side, in units of the pole spacing


def _ladders(model: ModelParams, sector: Sector, window: tuple[float, float]) -> np.ndarray:
    """Geometric ladders of points on both sides of every pole near the window.

    Eigenvalues that hug a pole energy E_n sit inside zero/pole pairs of F too
    tight for the uniform grid to see; on W_n they are ordinary sign changes
    between neighbouring ladder points.
    """
    e_min, e_max = window
    spacing = pole_spacing(model, sector)
    reach = _LADDER_REACH * spacing
    first = pole_energy(model, sector, 0)
    n_lo = max(0, int(math.ceil((e_min - reach - first) / spacing - 1e-12)))
    n_hi = int(math.floor((e_max + reach - first) / spacing + 1e-12))
    dists = []
    d = _guard(model)
    while d < reach:
        dists.append(-d)
        dists.append(d)
        d *= _LADDER_RATIO
    poles = first + np.arange(n_lo, n_hi + 1) * spacing
    x = (poles[:, None] + np.array(dists)).ravel()
    return x[(e_min <= x) & (x <= e_max)]


def default_grid_step(model: ModelParams) -> float:
    """Several samples per inter-pole interval, tightened near spectral collapse."""
    w = model.omega
    if model.kind is ModelKind.DRIVEN_RABI:
        return w / 40.0
    root = bogoliubov_params(model).root_factor
    step = min(2.0 * w * root, w) / 40.0
    if root < COLLAPSE_ROOT_FACTOR:
        step *= root / COLLAPSE_ROOT_FACTOR
    return step


def default_window_min(model: ModelParams, sector: Sector) -> float:
    """Lower scan bound guaranteed to sit below the ground state."""
    p0 = pole_energy(model, sector, 0)
    return min(p0, -model.omega) - model.delta - abs(model.drive) - 1.0


def compute_spectrum(
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
    opts: SpectrumOptions | None = None,
) -> SpectrumResult:
    """Full pipeline: pole set, one bracket scan, refinement, exceptional flagging.

    The scan points are the uniform grid, a guard point on each side of every
    pole and geometric ladders around every pole.  Each interval between
    neighbouring points that holds no analytic pole is tested for a sign
    change of W_k at three split indices:

    - k = 0, that is F itself;
    - k = base and k = base + 1, where E_base is the pole nearest the
      interval.  W_base has its explicit pole exactly at E_base, so roots
      hugging E_base, which F hides inside tight zero/pole pairs, are plain
      sign changes between ladder points.

    The hidden poles of the three functions differ, so a root that one of
    them steps over inside an interval is a sign change of another.  For
    example, the driven model at delta = 0.7, g = 0.1, drive = 0 has a level
    at E = 0.72308 whose grid interval also holds a hidden pole of W_1 and one
    of W_2; only F changes sign there.  When base = 0, k = 0 is tested once.

    All brackets are refined together, each on its own W_k.  A refined root
    is accepted when |W_k| there is at most ``RESIDUAL_CAP`` and the sign
    change survived refinement; the other brackets close on poles and are
    counted in ``brackets_rejected``.  A sample where some W_k is exactly zero
    is a root without refinement.  A root within the merge tolerance of one
    already taken is a duplicate; exact zeros are taken first, then the roots
    of k = 0, base and base + 1.  Each root records |F| as its residual where
    that is finite, else |W_k|.  Roots within the exceptional tolerance of a
    pole energy are reported in ``flagged`` (exceptional-spectrum candidates;
    the truncation constraints are not checked).
    """
    if opts is None:
        opts = SpectrumOptions()
    e_min, e_max = window
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")

    grid_step = opts.grid_step if opts.grid_step is not None else default_grid_step(model)
    if model.kind is not ModelKind.DRIVEN_RABI:
        root = bogoliubov_params(model).root_factor
        if root < COLLAPSE_ROOT_FACTOR:
            warnings.warn(
                f"root factor {root:.3g} < {COLLAPSE_ROOT_FACTOR}: near spectral "
                "collapse, grid tightened; results may still miss levels",
                CollapseRegimeWarning,
            )

    def w_at(energies, splits):
        return split_values(model, sector, energies, splits, opts.cf_rel_tol, opts.cf_max_depth)

    pts = _window_grid(model, sector, window, grid_step, _ladders(model, sector, window))
    left = np.flatnonzero(~_pole_strictly_inside(model, sector, pts[:-1], pts[1:]))
    base = _nearest_pole_index(model, sector, 0.5 * (pts[left] + pts[left + 1]))
    # one lane per (interval, k), ordered k = 0, base, base + 1
    left = np.concatenate([left, left[base > 0], left])
    split = np.concatenate([np.zeros_like(base), base[base > 0], base + 1])
    point = np.concatenate([left, left + 1])
    w = _values_at(w_at, pts, point, np.concatenate([split, split]))
    w1, w2 = np.split(w, 2)
    zeros = np.unique(pts[point[w == 0.0]])

    j = np.flatnonzero(_sign_change(w1, w2))
    k = split[j]
    mid, width, iters, lost = _bisect(
        lambda e, lanes: w_at(e, k[lanes]),
        pts[left[j]], pts[left[j] + 1], w1[j], w2[j], opts.root_abs_tol,
    )

    # one call for |W_k| at every refined root, and |F| there and at every
    # exactly zero sample
    at = np.concatenate([mid, zeros])
    f_mid, f_zero, w_mid = np.split(
        np.abs(_values_at(w_at, at, np.concatenate([np.arange(at.size), np.arange(mid.size)]),
                          np.concatenate([np.zeros(at.size, np.intp), k]))),
        [mid.size, at.size],
    )
    accept = ~lost & (w_mid <= RESIDUAL_CAP)
    energy = np.concatenate([zeros, mid[accept]])
    residual = np.concatenate([
        np.where(np.isfinite(f_zero), f_zero, 0.0),
        np.where(np.isfinite(f_mid), f_mid, w_mid)[accept],
    ])
    width = np.concatenate([np.zeros(zeros.size), width[accept]])
    iters = np.concatenate([np.zeros(zeros.size, int), iters[accept]])

    merge_tol = max(50.0 * opts.root_abs_tol, 1e-12 * model.omega)
    near_pole = distance_to_pole_set(model, sector, energy) < eps_exceptional(model)
    roots: list[RootRecord] = []
    flagged: list[RootRecord] = []
    taken: list[float] = []
    for i, e in enumerate(energy.tolist()):
        if any(abs(e - t) < merge_tol for t in taken):
            continue
        taken.append(e)
        rec = RootRecord(e, float(residual[i]), float(width[i]), int(iters[i]))
        (flagged if near_pole[i] else roots).append(rec)

    roots.sort(key=lambda r: r.energy)
    flagged.sort(key=lambda r: r.energy)
    return SpectrumResult(
        roots=roots,
        poles=poles_in_window(model, sector, e_min, e_max),
        flagged=flagged,
        window=(e_min, e_max),
        grid_points=pts.size,
        brackets_found=mid.size,
        brackets_rejected=int(np.count_nonzero(~accept)),
        model=model,
        sector=sector,
    )
