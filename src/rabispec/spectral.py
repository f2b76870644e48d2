"""Transcendental eigenvalue functions and pole-aware root finding.

The regular spectrum of each model is the zero set of

    F(E) = R_0(E) + a_0(E),

where R_0 is the minimal-ratio continued fraction and a_0 the first recurrence
coefficient.  F diverges at the pole energy E_0, and at E_n with n >= 1 its
singularity is removable.  Roots are located by scanning a pole-aware grid for
sign changes and refining each bracket by bisection with secant acceleration.

The spectrum pipeline evaluates F and the split eigenconditions W_k over whole
batches of energies at once (``split_values``, batched backward recursion) and
refines all brackets in lockstep.  ``spectral_function`` and
``split_spectral_value`` evaluate one energy by modified Lentz; they are the
scalar reference the batched values are tested against.
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
RESIDUAL_CAP = 1e-4            # refined roots above this |F| are rejected
BLOWUP_THRESHOLD = 1e5         # sign changes with samples above this are pole artifacts
REFINE_THRESHOLD = 1e-2        # same-sign intervals with |F| below this get subdivided
COLLAPSE_ROOT_FACTOR = 0.05    # below this Omega/Lambda, grids are tightened
_SUBDIVISIONS = 8
_MAX_SUBDIVIDE_DEPTH = 3


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
    """Regular roots, pole set and exceptional candidates found in a window."""

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
    """Uniform grid plus pole-adjacent guard points, all off the pole set."""
    guard = _guard(model)
    pts: list[float] = []
    n_steps = int(math.ceil((e_max - e_min) / grid_step))
    for i in range(n_steps + 1):
        pts.append(min(e_min + i * grid_step, e_max))
    for p in poles_in_window(model, sector, e_min - guard, e_max + guard):
        if p - guard >= e_min:
            pts.append(p - guard)
        if p + guard <= e_max:
            pts.append(p + guard)
    grid = np.sort(np.array(pts))
    kept = grid[distance_to_pole_set(model, sector, grid) >= guard * (1.0 - 1e-9)]
    # drop duplicates from the merge
    out: list[float] = []
    for x in kept.tolist():
        if not out or x - out[-1] > 1e-15 * max(1.0, abs(x)):
            out.append(x)
    return np.array(out)


def _window_grid(model, sector, window: tuple[float, float], grid_step: float) -> np.ndarray:
    e_min, e_max = window
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    pts = _grid_points(model, sector, e_min, e_max, grid_step)
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
    """Strict sign change.  A sample that is exactly zero is a root of its own,
    recorded once, and takes part in the sign test of neither neighbour."""
    return (f1 != 0.0) & (f2 != 0.0) & ((f1 < 0.0) != (f2 < 0.0))


def _f_brackets(model, sector, xs: np.ndarray, fs: np.ndarray, f_at):
    """Sign-change brackets of F between consecutive samples (xs, fs).

    Sign changes straddling an analytic pole, and sign changes whose samples
    exceed the blowup threshold (pole artifacts, not roots), are discarded.
    Same-sign intervals where |F| dips below the refinement threshold are
    subdivided, every interval of one level with one call ``f_at(energies)``.
    Returns (brackets in energy order, energies of samples where F is 0).
    """
    guard = _guard(model)
    brackets: list[Bracket] = []
    zeros = xs[fs == 0.0].tolist()
    x1, f1, x2, f2 = xs[:-1], fs[:-1], xs[1:], fs[1:]
    for depth in range(_MAX_SUBDIVIDE_DEPTH + 1):
        usable = np.isfinite(f1) & np.isfinite(f2) & ~_pole_strictly_inside(model, sector, x1, x2)
        change = usable & _sign_change(f1, f2)
        keep = change & (np.maximum(np.abs(f1), np.abs(f2)) <= BLOWUP_THRESHOLD)
        brackets += [
            Bracket(float(x1[j]), float(x2[j]), float(f1[j]), float(f2[j]))
            for j in np.flatnonzero(keep)
        ]
        subdivide = (
            usable
            & ~change
            & (np.minimum(np.abs(f1), np.abs(f2)) < REFINE_THRESHOLD)
            & (x2 - x1 > 64.0 * guard)
        )
        if depth == _MAX_SUBDIVIDE_DEPTH or not subdivide.any():
            break
        lo = x1[subdivide][:, None]
        pts = lo + (x2[subdivide][:, None] - lo) * np.arange(_SUBDIVISIONS + 1) / _SUBDIVISIONS
        vals = np.empty_like(pts)
        vals[:, 0], vals[:, -1] = f1[subdivide], f2[subdivide]
        vals[:, 1:-1] = f_at(pts[:, 1:-1].ravel()).reshape(len(pts), _SUBDIVISIONS - 1)
        zeros += pts[:, 1:-1][vals[:, 1:-1] == 0.0].tolist()
        x1, f1 = pts[:, :-1].ravel(), vals[:, :-1].ravel()
        x2, f2 = pts[:, 1:].ravel(), vals[:, 1:].ravel()
    brackets.sort(key=lambda br: br.lo)
    return brackets, zeros


def scan_brackets(
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
    grid_step: float,
    cf_rel_tol: float = DEFAULT_REL_TOL,
    cf_max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Bracket]:
    """Locate sign-change brackets of F in ``window``.

    Sign changes straddling an analytic pole, and sign changes whose samples
    exceed the blowup threshold (pole artifacts, not roots), are discarded.
    Same-sign intervals where |F| dips below the refinement threshold are
    subdivided to catch near-degenerate pairs.  A sample where F is exactly
    zero is a root, not a bracket end, and is not returned.
    """
    pts = _window_grid(model, sector, window, grid_step)

    def f_at(e):
        return split_values(model, sector, e, 0, cf_rel_tol, cf_max_depth)

    return _f_brackets(model, sector, pts, f_at(pts), f_at)[0]


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


def _ladders(model: ModelParams, sector: Sector, window: tuple[float, float]):
    """Geometric ladders of samples on both sides of every pole near the window.

    Eigenvalues that hug a pole energy sit inside zero/pole pairs of F too
    tight for the uniform grid to see; on the split function with the matching
    index they are ordinary sign changes.  Returns (energies, pole index of
    each sample, ladder id of each sample), each ladder in order of distance
    from its pole.
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
        dists.append(d)
        d *= _LADDER_RATIO
    xs, ns, ids = [], [], []
    for n in range(n_lo, n_hi + 1):
        p = first + n * spacing
        for side in (-1.0, +1.0):
            x = p + side * np.array(dists)
            x = x[(e_min <= x) & (x <= e_max)]
            if x.size < 2:
                continue
            xs.append(x)
            ns.append(np.full(x.size, n))
            ids.append(np.full(x.size, len(ids)))
    if not xs:
        return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(xs), np.concatenate(ns), np.concatenate(ids)


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
    """Full pipeline: pole set, bracket scan, refinement, exceptional flagging.

    Three scan passes find brackets:

    1. sign changes of F on the grid, subdividing where |F| dips low;
    2. sign changes of the split function W_k on the same grid, at the two
       indices k = base, base + 1 of the pole nearest each interval: F can hide
       roots inside tight zero/pole pairs (its hidden poles are continuant
       zeros), where the split function is smooth, and the hidden poles of the
       two indices differ;
    3. sign changes of W_n on geometric ladders around each pole E_n, for roots
       hugging the pole set closer than the grid resolves.

    All brackets are refined together.  A pass-1 bracket is accepted on its
    residual |F|; a split bracket is accepted on |W_k| (smooth at the root even
    when F sits in a tight zero/pole pair there) and records |F| where that is
    finite.  A sample where the function is exactly zero is a root without
    refinement.  Roots within the exceptional tolerance of a pole energy are
    reported in ``flagged`` (exceptional-spectrum candidates; the truncation
    constraints are not checked).  Rejected brackets are pole artifacts and
    are counted in ``brackets_rejected``.
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

    pts = _window_grid(model, sector, window, grid_step)
    # pass 2 candidates: every grid interval free of poles, at the split
    # indices base and base + 1 of the pole nearest its midpoint; their hidden
    # poles (continuant zeros) differ, so a root invisible at one index is a
    # plain sign change at the other
    left = np.flatnonzero(~_pole_strictly_inside(model, sector, pts[:-1], pts[1:]))
    base = _nearest_pole_index(model, sector, 0.5 * (pts[left] + pts[left + 1]))
    left = np.repeat(left, 2)
    split = np.stack([base, base + 1], axis=1).ravel()

    # one call for F at every grid point and W_k at both ends of every candidate
    n_pts, n_cand = pts.size, split.size
    f_grid, w1, w2 = np.split(
        _values_at(w_at, pts, np.concatenate([np.arange(n_pts), left, left + 1]),
                   np.concatenate([np.zeros(n_pts, np.intp), split, split])),
        [n_pts, n_pts + n_cand],
    )

    # pass 1: sign changes of F
    plain, zeros = _f_brackets(model, sector, pts, f_grid, lambda e: w_at(e, 0))

    # pass 2: sign changes of W_k on the grid
    usable = np.isfinite(w1) & np.isfinite(w2)
    zeros += pts[left[usable & (w1 == 0.0)]].tolist() + pts[left[usable & (w2 == 0.0)] + 1].tolist()
    on_grid = usable & _sign_change(w1, w2) & (np.maximum(np.abs(w1), np.abs(w2)) <= BLOWUP_THRESHOLD)

    # pass 3: sign changes of W_n between neighbours on the ladders around E_n
    lx, ln, lid = _ladders(model, sector, window)
    lw = w_at(lx, ln)
    zeros += lx[lw == 0.0].tolist()
    j = np.flatnonzero(lid[:-1] == lid[1:])
    j = j[np.isfinite(lw[j]) & np.isfinite(lw[j + 1]) & _sign_change(lw[j], lw[j + 1])]

    # refine the brackets of all three passes together: pass 1 on F (k = 0),
    # passes 2 and 3 on W_k
    n_plain = len(plain)
    x1 = np.concatenate([[br.lo for br in plain], pts[left[on_grid]], lx[j]])
    x2 = np.concatenate([[br.hi for br in plain], pts[left[on_grid] + 1], lx[j + 1]])
    f1 = np.concatenate([[br.f_lo for br in plain], w1[on_grid], lw[j]])
    f2 = np.concatenate([[br.f_hi for br in plain], w2[on_grid], lw[j + 1]])
    k = np.concatenate([np.zeros(n_plain, np.intp), split[on_grid], ln[j]])
    swap = x2 < x1  # ladders below a pole run downwards
    lo, hi = np.where(swap, x2, x1), np.where(swap, x1, x2)
    f_lo, f_hi = np.where(swap, f2, f1), np.where(swap, f1, f2)
    mid, width, iters, lost = _bisect(
        lambda e, lanes: w_at(e, k[lanes]), lo, hi, f_lo, f_hi, opts.root_abs_tol
    )

    # one call for |F| at every midpoint and exactly zero sample, and for
    # |W_k| at the midpoints of the split brackets
    zeros = sorted(set(zeros))
    n_mid, n_zero = mid.size, len(zeros)
    f_mid, f_zero, w_split = np.split(
        np.abs(w_at(np.concatenate([mid, zeros, mid[n_plain:]]),
                    np.concatenate([np.zeros(n_mid + n_zero, np.intp), k[n_plain:]]))),
        [n_mid, n_mid + n_zero],
    )

    eps_exc = eps_exceptional(model)
    roots: list[RootRecord] = []
    flagged: list[RootRecord] = []
    rejected = 0
    for e, resid in zip(zeros, f_zero.tolist()):
        rec = RootRecord(e, resid if math.isfinite(resid) else 0.0, 0.0, 0)
        (flagged if distance_to_pole_set(model, sector, e) < eps_exc else roots).append(rec)
    for j in range(n_plain):
        rec = RootRecord(
            energy=float(mid[j]),
            residual=float(f_mid[j]) if math.isfinite(f_mid[j]) else math.inf,
            bracket_width=float(width[j]),
            iterations=int(iters[j]),
            sign_lost=bool(lost[j]),
        )
        if distance_to_pole_set(model, sector, rec.energy) < eps_exc:
            flagged.append(rec)
        elif rec.residual <= RESIDUAL_CAP and not rec.sign_lost:
            roots.append(rec)
        else:
            rejected += 1

    merge_tol = max(50.0 * opts.root_abs_tol, 1e-12 * model.omega)
    for j in range(n_plain, n_mid):
        w_mid = w_split[j - n_plain]
        # a split bracket is accepted on the split function itself
        if lost[j] or not math.isfinite(w_mid) or w_mid > RESIDUAL_CAP:
            rejected += 1
            continue
        rec = RootRecord(
            energy=float(mid[j]),
            residual=float(f_mid[j]) if math.isfinite(f_mid[j]) else float(w_mid),
            bracket_width=float(width[j]),
            iterations=int(iters[j]),
        )
        if any(abs(rec.energy - r.energy) < merge_tol for r in roots + flagged):
            continue
        if distance_to_pole_set(model, sector, rec.energy) < eps_exc:
            flagged.append(rec)
        else:
            roots.append(rec)

    roots.sort(key=lambda r: r.energy)
    flagged.sort(key=lambda r: r.energy)
    return SpectrumResult(
        roots=roots,
        poles=poles_in_window(model, sector, e_min, e_max),
        flagged=flagged,
        window=(e_min, e_max),
        grid_points=n_pts,
        brackets_found=mid.size,
        brackets_rejected=rejected,
        model=model,
        sector=sector,
    )
