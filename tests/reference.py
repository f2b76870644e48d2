"""Scalar reference evaluators the batched kernels are tested against.

They fetch a(n) and b(n) one n at a time from any object exposing them (and
optionally ``tail_ratio_scale``), so tests can pass surrogate coefficient
sequences; ``BlockCoeffs`` is that object for a model, read from
``models.coefficient_block``:

- ``eval_continued_fraction``: R_start by modified Lentz with depth doubling;
- ``backward_recursion_ratio`` and ``backward_ratios``: one scalar backward
  pass, the reference of ``contfrac.batch_ratios``;
- ``forward_ratio``: K_{k+1}/K_k by forward recursion;
- ``split_spectral_value``: the split eigencondition W_k(E), F(E) at k = 0;
- ``guarded_pivots``: ``contfrac.batch_pivots`` with Kahan's guard on every row;
- ``forward_count``: ``spectral.level_count`` as the Sturm count of one forward
  pass from row 0, before it read the count off a twisted factorisation;
- ``wavefunction_sums``: ``series.eval_wavefunction`` as one loop over Python floats;
- ``fixed_depth_tail``: the start row 2 * order + 64 of ``series.minimal_series``
  before ``contfrac.backward_tail`` placed it;
- ``bisected_levels``: the oracle's levels in a window at one truncation,
  each Jacobi chain bisected over the window (scipy's
  ``eigvalsh_tridiagonal``), not taken from its whole spectrum;
- ``gershgorin_reach``: the largest boson number whose Gershgorin disc,
  read off the dense matrix, reaches down to E_max, the lower bound on a
  truncation that ``oracle._chain_start`` reads off its parts;
- ``doubling_oracle_spectrum``: ``oracle.oracle_spectrum`` solving the whole
  window at every truncation from the power of two at or above that reach
  and stopping on the pairwise test of two truncations, before a chain
  block was settled at one truncation by a Ritz residual bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from rabispec.contfrac import DEFAULT_MAX_DEPTH, DEFAULT_REL_TOL
from rabispec.errors import PoleCollision, TruncationCeiling, TruncationInsufficient
from rabispec.models import (
    ModelParams,
    Sector,
    asymptotic_roots,
    coefficient_block,
    distance_to_pole_set,
    pole_lattice,
)
from rabispec.oracle import (
    _STAB_TOL_FACTOR,
    N_MAX_DEFAULT,
    _jacobi_chains,
    build_hamiltonian,
    eigen_in_range,
    map_sector,
)

_TINY = 1e-30
_DENOM_FLOOR = 1e-300
_FIRST_CHECKPOINT = 64
# BlockCoeffs reads this many rows per coefficient_block call
_FETCH_ROWS = 256
# bisection tolerance of the reference's chain levels: twice the safe
# minimum, which bisects each level to working accuracy (LAPACK's default,
# ulp times the matrix norm, leaves errors near 1e-12 at truncation 4,096)
BISECT_TOL = 2.0 * np.finfo(float).tiny


class BlockCoeffs:
    """a(n) and b(n) of a model at one energy, one n at a time, from ``coefficient_block``.

    Rows are fetched ``_FETCH_ROWS`` at a time and kept as floats, so a
    scalar reference pays one block call per chunk, not one per n.  No pole
    check is made: a row on a pole reads inf.
    """

    def __init__(self, model: ModelParams, sector: Sector, energy: float):
        self.model, self.sector, self.energy = model, sector, energy
        self.tail_ratio_scale = asymptotic_roots(model).t2
        self._chunks: dict[int, tuple[list[float], list[float]]] = {}

    def _rows(self, n: int) -> tuple[list[float], list[float]]:
        lo = n - n % _FETCH_ROWS
        if lo not in self._chunks:
            with np.errstate(divide="ignore", invalid="ignore"):
                a, b = coefficient_block(
                    self.model, self.sector, np.array([self.energy]), lo, lo + _FETCH_ROWS - 1
                )
            self._chunks[lo] = a[:, 0].tolist(), b[:, 0].tolist()
        return self._chunks[lo]

    def a(self, n: int) -> float:
        return self._rows(n)[0][n % _FETCH_ROWS]

    def b(self, n: int) -> float:
        return self._rows(n)[1][n % _FETCH_ROWS]


class CoefficientPole(ArithmeticError):
    """A non-finite recurrence coefficient was consumed by a reference evaluator."""


class DivisionBlowup(ArithmeticError):
    """Backward recursion produced a non-finite ratio despite denominator flooring."""


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
    """R_start, ..., R_{tail-1} from one backward pass, fetching a(n), b(n) one n at a time.

    Iterates r_{n-1} = -b(n) / (a(n) + r_n) downward from n = tail, seeded
    with ``coeffs.tail_ratio_scale`` / tail (0 without it).  Vanishing
    denominators are floored at 1e-300 with their sign kept.  Raises
    CoefficientPole on a non-finite coefficient.
    """
    r = getattr(coeffs, "tail_ratio_scale", 0.0) / tail
    out = [0.0] * (tail - start)
    for n in range(tail, start, -1):
        a_n, b_n = coeffs.a(n), coeffs.b(n)
        if not (math.isfinite(a_n) and math.isfinite(b_n)):
            raise CoefficientPole(f"non-finite coefficient consumed at index {n}")
        den = a_n + r
        if abs(den) < _DENOM_FLOOR:
            den = math.copysign(_DENOM_FLOOR, den if den != 0.0 else 1.0)
        r = -b_n / den
        out[n - 1 - start] = r
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


def split_spectral_value(
    model: ModelParams,
    sector: Sector,
    energy: float,
    split: int,
    rel_tol: float = DEFAULT_REL_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """W_k(E) at split index k: CF tail ratio minus forward ratio; F(E) at k = 0.

    The zero set is the same for every k, the poles are not: the forward
    ratio has a simple pole at the k-th pole energy, and R_k consumes no
    divergent coefficient near it.  Raises PoleCollision within eps_pole of
    a pole, where F is undefined.
    """
    if distance_to_pole_set(model, sector, energy) < model.eps_pole:
        raise PoleCollision(f"E = {energy} coincides with a pole energy")
    coeffs = BlockCoeffs(model, sector, energy)
    cf = eval_continued_fraction(coeffs, start=split, rel_tol=rel_tol, max_depth=max_depth)
    return cf.value - forward_ratio(coeffs, split)


def guarded_pivots(a, b, sign: float, prev=None):
    """The pivots of ``contfrac.batch_pivots`` from one loop that guards every row.

    sigma_n = -sign * a(n) - b(n) / sigma_{n-1} (sigma_{n-1} = ``prev`` in
    the first row, or sigma_0 = -sign * a(0) without it), and a pivot that is
    exactly 0 is taken as -1e-30 before the next row reads it.
    """
    pivots = -sign * np.array(a, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for pivot, b_n in zip(pivots, b[:, 0]):
            if prev is not None:
                pivot -= b_n / prev
            pivot[pivot == 0.0] = -_TINY
            prev = pivot
    return pivots


def forward_count(model: ModelParams, sector: Sector, energies, rows: int) -> np.ndarray:
    """N(E) from the first ``rows`` rows: the negative forward pivots plus the poles below E.

    The pivots are ``guarded_pivots`` of one table of the rows 0..rows-1 with
    sign(g), the Sturm count of the truncated tridiagonal, and the pole term
    is #{n < rows : E_n < E} (Wittrick and Williams).
    """
    energies = np.asarray(energies, dtype=float)
    a, b = coefficient_block(model, sector, energies, 0, rows - 1)
    negative = np.count_nonzero(guarded_pivots(a, b, math.copysign(1.0, model.g)) < 0.0, axis=0)
    first, spacing = pole_lattice(model, sector)
    return negative + np.clip(np.ceil((energies - first) / spacing), 0, rows).astype(np.intp)


def wavefunction_sums(series, z: complex) -> tuple[complex, complex]:
    """(psi_plus(z), psi_minus(z)) of ``series.eval_wavefunction`` from one loop over n.

    z**n is a running product and each sum adds its terms from 0 in the
    order of n, skipping an n where both coefficients are 0.  Raises
    TruncationInsufficient on the same two conditions, with the same text.
    """
    order = series.order
    minus, plus = series.minus.tolist(), series.plus.tolist()
    psi_minus = complex(0.0)
    psi_plus = complex(0.0)
    zp = complex(1.0)
    for n in range(order + 1):
        if minus[n] != 0.0 or plus[n] != 0.0:
            psi_minus += minus[n] * zp
            psi_plus += plus[n] * zp
        zp *= z
    if not (math.isfinite(abs(psi_minus)) and math.isfinite(abs(psi_plus))):
        raise TruncationInsufficient(f"series of order {order} overflows at |z| = {abs(z)}")
    if abs(z) > 0.0:
        log_tail = float(series.log_abs_minus[order]) + order * math.log(abs(z))
        log_bound = math.log(1e-15 * max(abs(psi_minus), 1e-300))
        if log_tail >= log_bound:
            raise TruncationInsufficient(f"series of order {order} too short at |z| = {abs(z)}")
    return psi_plus, psi_minus


def fixed_depth_tail(block, lanes, n: int, eps: float) -> int:
    """``contfrac.backward_tail`` as ``series.minimal_series`` once fixed it: n + 64 rows.

    ``minimal_series`` seeds its backward pass at row order + tail, so with
    this tail it starts at row 2 * order + 64, whatever the coefficients.
    """
    return n + 64


def bisected_levels(
    model: ModelParams, sector: Sector, window: tuple[float, float], truncation: int
) -> list[float]:
    """The block's levels in ``window`` at ``truncation``, ascending: each
    Jacobi chain of a parity-symmetric block bisected over the window
    (scipy's ``eigvalsh_tridiagonal`` to ``BISECT_TOL``), a driven block
    solved by ``eigen_in_range``."""
    h = build_hamiltonian(model, map_sector(sector), truncation)
    chains = _jacobi_chains(h.bands)
    if chains is None:
        return eigen_in_range(h, *window)
    return sorted(float(v) for d, e in chains for v in scipy.linalg.eigvalsh_tridiagonal(
        d, e, select="v", select_range=window, tol=BISECT_TOL))


def gershgorin_reach(model: ModelParams, sector: Sector, e_max: float) -> int:
    """The largest boson number whose Gershgorin disc, read off the dense
    matrix (``TruncatedHamiltonian.to_dense``), reaches down to ``e_max``;
    0 if none does.

    The matrix is built at truncations 64, 128, ... until, along both
    spins, the discs of the two boson numbers below the last lie above
    ``e_max`` and the upper one no lower: along a spin the disc edge is
    convex in the boson number, so no later disc reaches ``e_max``.  The
    last boson number lacks its upper hop, and its edge reads too high.
    """
    truncation = 64
    while True:
        h = build_hamiltonian(model, map_sector(sector), truncation)
        dense = h.to_dense()
        diag = np.diag(dense)
        edge = diag + np.abs(diag) - np.abs(dense).sum(axis=1)
        below = edge[-6:-2].reshape(2, 2)  # (boson number, spin)
        if ((below[1] >= below[0]) & (below[1] > e_max)).all():
            return max((n for (n, _), x in zip(h.labels, edge) if x <= e_max), default=0)
        truncation *= 2


def first_truncation(reach: int) -> int:
    """The power of two, from 32, at or above ``reach``."""
    n = 32
    while n < reach:
        n *= 2
    return n


def doubling_oracle_spectrum(
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
) -> tuple[list[float], int]:
    """``oracle.oracle_spectrum`` as a whole-window solve at every truncation.

    From the power of two at or above the block's reach
    (``first_truncation`` of ``gershgorin_reach``) the cutoff doubles, up to
    ``N_MAX_DEFAULT``, until the window holds as many levels
    (``bisected_levels``) as at the one before and each sorted pair lies
    closer than ``_STAB_TOL_FACTOR * omega``.  Window checks are left to
    the caller.
    """
    tol = _STAB_TOL_FACTOR * model.omega
    n = first_truncation(gershgorin_reach(model, sector, window[1]))
    prev = None
    while n <= N_MAX_DEFAULT:
        vals = bisected_levels(model, sector, window, n)
        if prev is not None and len(vals) == len(prev):
            if all(abs(a - b) < tol for a, b in zip(vals, prev)):
                return vals, n
        prev = vals
        n *= 2
    raise TruncationCeiling(f"eigenvalues did not stabilize below truncation {N_MAX_DEFAULT}")
