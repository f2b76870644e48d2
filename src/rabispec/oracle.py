"""Truncated Fock-space diagonalization: the ground truth for the spectra.

The Hamiltonians are assembled directly from their ladder-operator matrix
elements in a sector-resolved basis, interleaving spin within the boson index
so the matrices are banded with three superdiagonals.  In the two-photon and
two-mode blocks the Z2 parity splits that basis into two uncoupled Jacobi
(symmetric tridiagonal) chains, (0,+)-(1,-)-(2,+)-... and (0,-)-(1,+)-... in
the block's boson index.  The driven block, which breaks the parity, goes
whole to LAPACK's banded symmetric solver (dsbevd), which first reduces the
band to a tridiagonal.  Either way one root-free QR sweep (dsterf; Parlett,
The Symmetric Eigenvalue Problem, 8.15) yields the whole spectrum in O(n^2),
and the window's levels are picked from it.  On wide windows of a hundred
levels that is faster than bisecting each of them from the window's width,
O(n) per level (dstebz on a chain, dsbevx on the band after its
reduction); on a deep window of a handful of levels it is about twice as
slow on a chain and up to four times on the band.  The split is read off
the matrix's sparsity pattern, and neither route shares anything with the
continued-fraction route.

The truncation is doubled until the window's levels are settled.  The first
one tried is read off the same bands.  Each part of the block, a Jacobi
chain or the driven band read over its 2x2 blocks of boson number, starts
at its reach plus its eigenvectors' decay tail.  The reach is the last row
whose Gershgorin disc reaches down to the window's upper edge.  Past it
H - E is diagonally dominant for every E in the window, so the
eigenvectors decay there (Combes and Thomas, Commun. Math. Phys. 34, 251
(1973)), each row by the smaller characteristic root of its recurrence
(Miller's estimate: Gautschi, SIAM Rev. 9, 24 (1967)), and the tail ends
where the Ritz radius below falls under the tolerance.  The start is read
off the bands at truncations 64, 128, ..., the first whose last full rows
lie above the window and grow, so that no later row reaches it (the disc
edges are convex in the boson number), and whose rows hold the tail.  That start
settles the levels at once, without a truncation tried in vain; the
doubling is left for the rest.

Every block stops at one truncation n on a Ritz residual bound (Weinstein's
bound: Kato, J. Phys. Soc. Jpn. 4, 334 (1949); Parlett, The Symmetric
Eigenvalue Problem, ch. 4), read from eigenvalues and entries alone, with
nothing carried from the truncation before.  A part at n is the leading k
rows of the part at 2n, and a level of the leading rows with unit
eigenvector z leaves the residual |beta z[k-1]|, beta the first coupling
dropped; the bottom-up pivots of the leading rows less the window's top
bound |z[k-1]| for all window levels at once.  On the band a row is a 2x2
block, its diagonal entry the block's least eigenvalue and its coupling the
2-norm of the coupling block, and the same pivots bound the norm of each
block of z.  The truncation is accepted when in every part that radius lies
below 1e-9 omega; when counts find as many levels in the window at 2n as at
n, which catches a level that enters on doubling; and when each run of s
window levels closer than twice the radius, which may share a level, finds
as many levels at 2n about it and has sqrt(s) times the radius below
1e-9 omega, which gives each of its levels one of its own (Kahan's
bound).  The counts are Sturm counts on a chain (Barth, Martin and
Wilkinson, Numer. Math. 9, 386 (1967)) and the inertia of a 2x2-block
LDL^T factorisation on the band, both O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import TruncationCeiling
from .models import ModelKind, ModelParams, Sector

N_MAX_DEFAULT = 2**13  # the truncation ceiling, a power of two, read at call time
_STAB_TOL_FACTOR = 1e-9  # bounds each part's radius (_chain_radius), in units of omega
_BANDWIDTH = 3  # superdiagonals in the canonical ordering
_START_FLOOR = 16  # the least first truncation
# dsterf's and dsbevd's a-priori eigenvalue error over the 2-norm (LAPACK
# Users' Guide, 3rd ed., section 4.7, which takes 1 for the 4)
_SOLVER_ERR = 4.0 * np.finfo(float).eps
_TINY = 1e-30  # the least |det| of a block pivot (_block_counts)


@dataclass(frozen=True)
class OracleSector:
    """Conserved-quantity label selecting a block of the full Fock space.

    ``parity`` is the photon-number parity (two-photon model), ``mode_diff``
    the occupation difference n1 - n2 (two-mode model); the driven model has
    no conserved label ("full").
    """

    kind: ModelKind
    parity: int | None = None      # 0 = even, 1 = odd
    mode_diff: int | None = None   # d = 2 kappa - 1


def map_sector(sector: Sector) -> OracleSector:
    """Bijection from the analytic sector label to the oracle basis label.

    q = 1/4 is the even photon-parity block, q = 3/4 the odd one; kappa maps to
    the mode difference d = 2 kappa - 1.
    """
    if sector.kind is ModelKind.TWO_PHOTON:
        return OracleSector(sector.kind, parity=0 if sector.value == 0.25 else 1)
    if sector.kind is ModelKind.TWO_MODE:
        return OracleSector(sector.kind, mode_diff=int(round(2.0 * sector.value - 1.0)))
    return OracleSector(sector.kind)


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Symmetric banded Hamiltonian block with its basis bookkeeping.

    ``bands`` is upper banded storage (scipy convention,
    bands[u + i - j, j] = H[i, j]); ``labels`` lists (boson quantum number,
    spin) per basis state; ``truncation`` is the boson cutoff N.
    """

    dimension: int
    bands: np.ndarray
    labels: list[tuple[int, int]]
    truncation: int
    model: ModelParams
    sector: OracleSector

    def to_dense(self) -> np.ndarray:
        u = self.bands.shape[0] - 1
        h = np.zeros((self.dimension, self.dimension))
        for j in range(self.dimension):
            for i in range(max(0, j - u), j + 1):
                h[i, j] = self.bands[u + i - j, j]
                h[j, i] = h[i, j]
        return h


def _bands(
    model: ModelParams, osector: OracleSector, truncation: int
) -> tuple[np.ndarray, np.ndarray]:
    """Upper banded storage of the sector block and the boson number of each state pair.

    Returns (bands, ns): column 2m holds state (ns[m], +), column 2m + 1
    state (ns[m], -).
    """
    if truncation < 4:
        raise ValueError("truncation must be >= 4")
    w, d, g, drive = model.omega, model.delta, model.g, model.drive

    if model.kind is ModelKind.TWO_PHOTON:
        if osector.parity is None:
            raise ValueError("two-photon oracle needs a parity sector")
        ns = np.arange(osector.parity, truncation + 1, 2)
        diag_e = w * ns
        # <n+2, -s| g (b^dag)^2 |n, s> with n the photon number
        hop = g * np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 2.0))
        spin_flip_same_n = 0.0
    elif model.kind is ModelKind.TWO_MODE:
        if osector.mode_diff is None:
            raise ValueError("two-mode oracle needs a mode-difference sector")
        dd = osector.mode_diff
        ns = np.arange(truncation + 1)  # n = occupation of the lower mode
        diag_e = w * (2 * ns + dd)
        hop = g * np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + dd + 1.0))
        spin_flip_same_n = 0.0
    else:
        ns = np.arange(truncation + 1)
        diag_e = w * ns
        hop = g * np.sqrt(ns[:-1] + 1.0)
        spin_flip_same_n = drive

    u = _BANDWIDTH
    bands = np.zeros((u + 1, 2 * ns.size))
    bands[u, 0::2] = diag_e + d
    bands[u, 1::2] = diag_e - d
    if spin_flip_same_n != 0.0:
        bands[u - 1, 1::2] = spin_flip_same_n  # (m,+) <-> (m,-)
    # (m, +) <-> (m+1, -): indices 2m and 2m+3
    bands[u - 3, 3::2] = hop
    # (m, -) <-> (m+1, +): indices 2m+1 and 2m+2
    bands[u - 1, 2::2] = hop
    return bands, ns


def build_hamiltonian(
    model: ModelParams, osector: OracleSector, truncation: int
) -> TruncatedHamiltonian:
    """Assemble the sector Hamiltonian with boson numbers up to ``truncation``.

    Basis states are (n, s) with s = +1/-1 the sigma_z spin, ordered
    (n, +), (n, -), (n', +), ... along increasing boson quantum number.
    """
    bands, ns = _bands(model, osector, truncation)
    return TruncatedHamiltonian(
        dimension=bands.shape[1],
        bands=bands,
        labels=[(n, s) for n in ns.tolist() for s in (+1, -1)],
        truncation=truncation,
        model=model,
        sector=osector,
    )


def _jacobi_chains(bands: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """The block as two uncoupled Jacobi chains, or None if it does not split.

    A parity-symmetric block has no entry on the second superdiagonal, no
    (m,+)<->(m,-) drive term in the odd columns of the first and nothing in
    the even columns of the third.  Its basis then splits into the indices
    i = 0, 3 (mod 4) and i = 1, 2 (mod 4), each a symmetric tridiagonal,
    returned as (diagonal, off-diagonal).
    """
    u = _BANDWIDTH
    if bands.shape[0] != u + 1 or bands[1].any() or bands[2, 1::2].any() or bands[0, 0::2].any():
        return None
    idx = np.arange(bands.shape[1])
    rem = idx % 4
    chains = []
    # two comparisons, not np.isin, which costs several times more: the
    # doubling splits the bands at every truncation
    for a, b in ((0, 3), (1, 2)):
        c = idx[(rem == a) | (rem == b)]
        if c.size:
            chains.append((bands[u, c], bands[u - np.diff(c), c[1:]]))
    return chains


def _offdiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The chain's off-diagonal as the f2py wrappers of dstebz and dsterf take it.

    They want max(1, n - 1) entries, so a 1-row chain gets one zero.
    """
    return e if d.size > 1 else np.zeros(1)


def _sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The whole spectrum of the chain (d, e), ascending, from LAPACK's
    root-free QR sweep (dsterf).  Raises LinAlgError on a nonzero info."""
    w, info = lapack.dsterf(d, _offdiagonal(d, e))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsterf failed with info={info}")
    return w


def _stebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float, tol: float) -> np.ndarray:
    """The levels of the chain (d, e) in (vl, vu], ascending, by LAPACK's
    tridiagonal bisection (dstebz) to the absolute tolerance ``tol``.

    The f2py routine is called directly: scipy's tridiagonal wrapper adds
    some 20 us of checks to each call.  Raises LinAlgError on a nonzero info.
    """
    m, w, _, _, info = lapack.dstebz(d, _offdiagonal(d, e), 1, vl, vu, 0, 0, tol, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
    return w[:m]


def _chain_radius(d: np.ndarray, e: np.ndarray, k: int, top: float, err: float) -> float:
    """A radius about each level up to ``top`` of the chain's leading k rows,
    solved with the a-priori error ``err``, that holds a level of the whole
    chain (d, e), which has more rows.

    An exact level lambda <= top of the leading rows, with unit eigenvector
    z, leaves the residual |e[k-1] z[k-1]| on the whole chain (Weinstein).
    With t_{k-1} = 0, row j gives |z_j| <= t_{j-1} |z_{j-1}|, where
    t_{j-1} = |e[j-1]| / (d_j - top - |e[j]| t_j), while these bottom-up
    pivots of the leading rows less top stay positive; with |z| <= 1 where
    the product stops, before a t_j >= 1, |z[k-1]| <= prod t_j.  The
    solver's own error is added to the radius and to ``top``.  Read over
    the driven band's 2x2 blocks, d the blocks' least eigenvalues and |e|
    the norms of their couplings (``_block_proxies``), the same recursion
    bounds the norm of each block of z, and the radius that of the residual.
    """
    dk, ak = d[:k], np.abs(e[:k])
    top, rd, ra = top + err, dk[::-1].tolist(), ak[::-1].tolist()
    radius, t = ra[0], 0.0
    for dj, below, above in zip(rd, ra, ra[1:]):  # rows k - 1, ..., 1
        pivot = dj - top - below * t
        if pivot <= above:  # not positive, or t_{j-1} >= 1
            break
        t = above / pivot
        radius *= t
    return radius + err


def _block_proxies(bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, beta): the least eigenvalue of each 2x2 diagonal block of the
    band, the states (m, +) and (m, -), and the 2-norm of each block's
    coupling to the next.

    A block [[a, f], [f, c]] has mu = (a + c) / 2 - sqrt(((a - c) / 2)^2 + f^2),
    m omega - sqrt(Delta^2 + epsilon^2) in the driven model.  The coupling
    flips the spin, [[0, x], [y, 0]] with x = <m, +|H|m+1, -> and
    y = <m, -|H|m+1, +>, so its 2-norm is max(|x|, |y|), g sqrt(m + 1).
    """
    u = _BANDWIDTH
    a, c = bands[u, 0::2], bands[u, 1::2]
    mu = 0.5 * (a + c) - np.hypot(0.5 * (a - c), bands[u - 1, 1::2])
    return mu, np.maximum(np.abs(bands[0, 3::2]), np.abs(bands[u - 1, 2::2]))


def _block_counts(bands: np.ndarray, k: int, energies) -> list[tuple[int, int]]:
    """For each E of ``energies``, the levels below E of the band's leading k
    2x2 blocks and of the whole band.

    The band is block tridiagonal over the blocks of boson number m, with
    diagonal blocks A_m and couplings B_m (``_block_proxies``), and it is
    read in the sigma_x basis (m, +) +- (m, -) of each block.  There both
    spin flips of B_m, g sqrt(m + 1), make B_m = h_m diag(1, -1), and
    A_m = [[mean + f, half], [half, mean - f]], mean and half the mean and
    half the difference of its diagonal, f its drive entry.  Its block
    LDL^T factorisation has the pivots S_0 = A_0 - E and
    S_{m+1} = A_{m+1} - E - B_m S_m^{-1} B_m, and by Haynsworth's inertia
    additivity (Linear Algebra Appl. 1, 73 (1968)) H - E has as many
    negative eigenvalues as the S_m together: one where det S_m < 0, two
    where det S_m > 0 and its trace is negative.  The leading blocks'
    pivots are the first k of the same pass, so one pass gives both
    counts.  A pivot whose determinant is below 1e-30 in size is taken as
    S_m - eta I, eta tiny (``_guarded_pivot``, Kahan's guard), so a level
    at E counts as below it and no pivot divides by zero.  At Delta = 0 the band is two
    uncoupled chains in the sigma_x basis, the displaced oscillators, and
    the pivots stay diagonal: its exact degeneracies, one level of each
    chain, are counted as two Sturm sequences.  In the spin basis a pivot
    nearly singular along one chain and moderate along the other mixes the
    two in every entry, and the moderate part drowns in its rounding: there
    the count read 0 for the 2 levels of a degenerate pair 2e-13 away.  The
    pass runs over Python floats: for two energies that is several times
    faster than numpy's cost per row.
    """
    u = _BANDWIDTH
    mean, half = 0.5 * (bands[u, 0::2] + bands[u, 1::2]), 0.5 * (bands[u, 0::2] - bands[u, 1::2])
    f = bands[u - 1, 1::2]
    plus, minus, half = (mean + f).tolist(), (mean - f).tolist(), half.tolist()
    # blocks 1, 2, ... beside h^2 of the coupling from the block before, and
    # a last row that forms a pivot past the band, never counted
    rows = list(zip(plus[1:], minus[1:], half[1:], (bands[u - 1, 2::2] ** 2).tolist()))
    rows.append((0.0, 0.0, 0.0, 0.0))

    def pivots(p, q, s, neg, energy, rows):
        for am, cm, fm, hh in rows:
            det = p * s - q * q
            if -_TINY < det < _TINY:
                p, q, s, neg = _guarded_pivot(p, q, s, neg, am - energy, cm - energy, fm, hh)
                continue
            if det < 0.0:
                neg += 1
            elif p + s < 0.0:
                neg += 2
            w = hh / det  # B S^{-1} B = w [[s, q], [q, p]]
            p, q, s = am - energy - w * s, fm - w * q, cm - energy - w * p
        return p, q, s, neg

    head, tail, out = rows[:k], rows[k:], []
    for energy in energies:
        p, q, s, lead = pivots(plus[0] - energy, half[0], minus[0] - energy, 0, energy, head)
        out.append((lead, pivots(p, q, s, lead, energy, tail)[3]))
    return out


def _guarded_pivot(p, q, s, neg, a, c, f, hh):
    """``_block_counts``'s step past a pivot S = [[p, q], [q, s]] with
    |det S| < 1e-30: S - eta I in its place, eta = 1e-30 / |tr S|.

    The negative count grows by one if tr S > 0 and by two if not, and the
    next pivot is [[a, f], [f, c]] - hh [[i00, -i01], [-i01, i11]] with
    (S - eta I)^{-1} = S / tr^2 - adj S / (eta tr) = [[i00, i01], [i01, i11]]
    for a singular S, adj S = tr I - S; where |tr S| < 1e-30 too, S is
    about 0 and S - 1e-30 I about -1e-30 I.  So a pivot singular along one
    chain of the sigma_x basis, at Delta = 0, stays a plain pivot along the
    other.
    """
    tr = p + s
    if -_TINY < tr < _TINY:
        return a + hh / _TINY, f, c + hh / _TINY, neg + 2
    det, t2 = -math.copysign(_TINY, tr), tr * tr  # det (S - eta I) = -eta tr
    i00, i01, i11 = s / det + p / t2, q / t2 - q / det, p / det + s / t2
    return a - hh * i00, f + hh * i01, c - hh * i11, neg + (1 if tr > 0.0 else 2)


def _in_window(vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values in (lo, hi]."""
    return vals[(vals > lo) & (vals <= hi)]


def _sbevd(bands: np.ndarray) -> np.ndarray:
    """The whole spectrum of the band, ascending, from LAPACK's banded
    symmetric solver (dsbevd)."""
    return scipy.linalg.eig_banded(bands, lower=False, eigvals_only=True)


# A part of a block, (d, e, band): a Jacobi chain (d, e) with band None, or
# the driven band with d, e its blocks' proxies (``_block_proxies``).  Row
# or block j holds the j-th boson number of the block.
_Part = tuple[np.ndarray, np.ndarray, "np.ndarray | None"]


def _parts(bands: np.ndarray) -> list[_Part]:
    """The parts of the block: its Jacobi chains, or the whole band."""
    chains = _jacobi_chains(bands)
    if chains is None:
        return [(*_block_proxies(bands), bands)]
    return [(d, e, None) for d, e in chains]


def _leading(part: _Part, k: int) -> _Part:
    """The part cut to its leading k rows or blocks."""
    d, e, band = part
    return d[:k], e[:k - 1], None if band is None else band[:, :2 * k]


def _levels(part: _Part) -> np.ndarray:
    """The whole spectrum of the part, ascending: dsterf on a chain, dsbevd on the band."""
    d, e, band = part
    return _sterf(d, e) if band is None else _sbevd(band)


def _norm(part: _Part) -> float:
    """A bound on the 2-norm of the part: max |d| + 2 max |e| on a chain,
    the largest absolute row sum of the band."""
    d, e, band = part
    if band is None:
        return np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0)
    diag = band[_BANDWIDTH]
    return float((np.abs(diag) + diag - _disc_edges(band)).max())


def _spectra(bands: np.ndarray) -> list[np.ndarray]:
    """The whole spectrum of each part of the block (``_parts``), ascending:
    dsterf on each Jacobi chain of a parity-symmetric block, dsbevd on the
    band of any other."""
    return [_levels(part) for part in _parts(bands)]


def _counts(part: _Part, k: int, lo: float, hi: float) -> tuple[int, int]:
    """The levels in (lo, hi] of the part's leading k rows or blocks and of
    the whole part: Sturm counts (dstebz) on a chain, the block LDL^T
    count (``_block_counts``) on the band."""
    d, e, band = part
    if band is None:
        # a tolerance of the window's width stops dstebz at the count
        return (_stebz(d[:k], e[:k - 1], lo, hi, hi - lo).size,
                _stebz(d, e, lo, hi, hi - lo).size)
    (lo_k, lo_all), (hi_k, hi_all) = _block_counts(band, k, (lo, hi))
    return hi_k - lo_k, hi_all - lo_all


def _bounded(parts: list[_Part], k: int, lo: float, hi: float, tol: float) -> list[float] | None:
    """The levels in (lo, hi] of the parts' leading k rows or blocks, merged
    and ascending, if those settle them; else None.

    A part passes when its counts (``_counts``) find as many levels in
    (lo, hi] on the whole part as on its leading rows, and its window
    levels (``_levels`` of the leading rows) share a radius
    (``_chain_radius``) below ``tol``; a part with no window level needs
    none.  Each level then lies within the radius of a level of the whole
    part.  Levels closer than twice the radius may share one, so each run
    of them must find as many levels of the whole part in its span widened
    by the radius and the count's rounding (``_SOLVER_ERR`` times the
    whole part's norm): the band has exact degeneracies, which no spacing
    separates.  Within a run the radius bounds each level's distance to
    some level, not to its own, so a run of s levels also needs sqrt(s)
    times the radius below ``tol``: the run's Ritz vectors leave a
    residual of 2-norm at most that, and Kahan's bound then gives each
    level a level of its own within it (Parlett, The Symmetric Eigenvalue
    Problem, 11.5).  Levels of different chains may coincide, so the runs are
    taken within a part.  The two counts pivot alike on the leading rows:
    a level within rounding of an edge, which the solver and a count may
    put on opposite sides, cannot fail every truncation.
    """
    out = []
    for part in parts:
        count, whole = _counts(part, k, lo, hi)
        if count != whole:
            return None
        lead = _leading(part, k)
        w = _in_window(_levels(lead), lo, hi)
        if w.size:
            r = _chain_radius(part[0], part[1], k, hi, _SOLVER_ERR * _norm(lead))
            if not r < tol:
                return None
            apart = np.diff(w) > 2.0 * r
            if not apart.all():
                widen = r + _SOLVER_ERR * _norm(part)
                runs = np.split(w, np.flatnonzero(apart) + 1)
                if any(not math.sqrt(run.size) * r < tol
                       or _counts(part, k, run[0] - widen, run[-1] + widen)[1] != run.size
                       for run in runs if run.size > 1):
                    return None
        out.append(w)
    return np.sort(np.concatenate(out)).tolist()


def eigen_in_range(h: TruncatedHamiltonian, lo: float, hi: float) -> list[float]:
    """All eigenvalues in (lo, hi], ascending; ValueError unless lo < hi.

    They are picked from the whole spectrum of each part of the block
    (``_spectra``: dsterf on each Jacobi chain of a parity-symmetric block,
    dsbevd on any other).  Either edge may be infinite.
    """
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got ({lo}, {hi})")
    return np.sort(np.concatenate([_in_window(w, lo, hi) for w in _spectra(h.bands)])).tolist()


def _disc_edges(bands: np.ndarray) -> np.ndarray:
    """The lower edge of each state's Gershgorin disc: its diagonal entry less
    its row's absolute off-diagonal sum."""
    u = _BANDWIDTH
    edge = bands[u].copy()
    for k in range(1, u + 1):
        off = np.abs(bands[u - k, k:])
        edge[k:] -= off
        edge[:-k] -= off
    return edge


def _chain_start(parts: list[_Part], ns: np.ndarray, e_max: float, tol: float) -> int | None:
    """The boson number at which the parts' levels up to ``e_max`` settle:
    each part's reach plus its eigenvectors' decay tail, the larger over
    the parts, 0 if no row reaches ``e_max``; None if the rows given may
    not hold a part's reach or its tail.

    Row j of each part holds boson number ns[j]; on the band a row is a 2x2
    block, read through its proxies (d, |e|) = (mu, beta) of
    ``_block_proxies``, and its disc the block Gershgorin disc.  A part's
    reach r is its last row whose Gershgorin disc reaches down to
    ``e_max``.  The reach is a lower bound on the truncation: below it the
    window's eigenvectors have not decayed, and a truncation there may hold
    none of the window's levels at n and 2n alike, which the stopping rule
    would take as settled.

    The rows given hold the reach of the untruncated part once its last two
    full rows lie above ``e_max`` and no lower than the rows two before
    them; the last row lacks its upper coupling, and its edge reads too
    high.  Along either spin the disc edge is the boson energy, affine in
    the boson number, less the two couplings, each concave in it (|g|
    times the square root of affine factors), less a constant: it is
    convex, so once it grows from one row to the next of the same spin it
    grows on, and no later row reaches ``e_max``.  On a chain the rows
    alternate in spin, so the rule compares rows two apart.  The band's
    block edges, m omega - sqrt(Delta^2 + epsilon^2) - |g| (sqrt(m + 1) +
    sqrt(m)), are convex in m alike.

    Past the reach each row is diagonally dominant for every E up to
    ``e_max``, so the eigenvectors decay there (Combes and Thomas, Commun.
    Math. Phys. 34, 251 (1973)), by the smaller characteristic root of the
    row's recurrence at ``e_max``, where they decay slowest (Miller's
    estimate: Gautschi, SIAM Rev. 9, 24 (1967)):

        rho_j = 2 |e[j-1]| / (d_j - e_max + sqrt((d_j - e_max)^2 - 4 |e[j] e[j-1]|)).

    With |z_r| <= 1, the Ritz radius |e[t] z[t]| of the chain cut after
    row t (``_chain_radius``) is about |e[t]| rho_{r+1} ... rho_t; the tail
    ends at the first row t where that falls below ``tol``.  The last row
    given lacks its upper coupling, so it is never t.
    """
    log_tol, start = math.log(tol), 0
    for d, e, _ in parts:
        e = np.abs(e)  # e < 0 when g < 0
        edge = d.copy()
        edge[1:] -= e
        edge[:-1] -= e
        full = edge[-3:-1]
        if not ((full >= edge[-5:-3]) & (full > e_max)).all():
            return None
        reaching = np.flatnonzero(edge <= e_max)
        if not reaching.size:
            continue
        r = int(reaching[-1])
        gap = d[r + 1:-1] - e_max  # rows r + 1 to the last but one
        with np.errstate(divide="ignore"):  # a zero coupling ends the tail at once
            log_rho = np.log(2.0 * e[r:-1]) - np.log(
                gap + np.sqrt(np.maximum(0.0, gap * gap - 4.0 * e[r + 1:] * e[r:-1])))
            radius = np.log(e[r:]) + np.concatenate(([0.0], np.cumsum(log_rho)))
        settled = np.flatnonzero(radius < log_tol)
        if not settled.size:
            return None
        start = max(start, int(ns[r + settled[0]]))
    return start


def oracle_spectrum(
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
) -> tuple[list[float], int]:
    """Truncation-settled eigenvalues in ``window`` plus the cutoff used.

    Each block starts at its reach plus the decay tail of its
    eigenvectors (``_chain_start``, at least ``_START_FLOOR``): on the
    chains of a parity-symmetric block, or over the 2x2 blocks of the
    driven band.  The start is read off the bands at truncations 64, 128,
    ..., up to twice ``N_MAX_DEFAULT``, the first that hold it.  The boson
    cutoff n then doubles, n <- min(2n, ``N_MAX_DEFAULT``), until the
    window's levels are settled; TruncationCeiling is raised if they are
    not at ``N_MAX_DEFAULT`` (read at call time) itself.  Both window edges
    must be finite, as for ``compute_spectrum``: an infinite upper edge
    takes in new levels at every truncation.  ValueError is raised if the
    sector is not one of the model's.

    Each truncation is read from the block's bands alone (``_bands``),
    built once, at 2n, or cut from longer ones, and settled at n by
    ``_bounded``, with nothing carried from the truncation before: each
    level returned lies within ``_STAB_TOL_FACTOR * omega`` of a level of
    its own of the untruncated block, and the counts at 2n find no level
    more.  At the ceiling the counts run on parts of twice the rows, in
    O(n) (dstebz on a chain, the block LDL^T on the band) with no spectrum
    taken there.
    """
    e_min, e_max = window
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"window edges must be finite, got {window}")
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    sector.check_matches(model)
    osector = map_sector(sector)
    tol = _STAB_TOL_FACTOR * model.omega
    built = 64  # the truncation the bands were last built at
    while True:
        bands, ns = _bands(model, osector, built)
        parts = _parts(bands)
        start = _chain_start(parts, ns, e_max, tol)
        if start is not None or built >= 2 * N_MAX_DEFAULT:
            break
        built *= 2
    n = N_MAX_DEFAULT if start is None else min(max(_START_FLOOR, start), N_MAX_DEFAULT)
    while True:
        if built < 2 * n:
            built = 2 * n
            bands, ns = _bands(model, osector, built)
            parts = _parts(bands)
        # boson numbers up to n and 2n: a part's rows at n and 2n
        k, m = (int(np.count_nonzero(ns <= x)) for x in (n, 2 * n))
        vals = _bounded([_leading(part, m) for part in parts], k, e_min, e_max, tol)
        if vals is not None:
            return vals, n
        if n >= N_MAX_DEFAULT:
            raise TruncationCeiling(f"eigenvalues not settled below truncation {N_MAX_DEFAULT}")
        n = min(2 * n, N_MAX_DEFAULT)
