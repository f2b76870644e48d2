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
one tried is read off the same bands.  The reach, the largest boson number
whose Gershgorin disc reaches down to the window's upper edge, is found on
bands of 32, 64, ... states until the disc edges past it can only grow.
Past it H - E is diagonally dominant for every E in the window, so the
eigenvectors decay there (Combes and Thomas, Commun. Math. Phys. 34, 251
(1973)) and their bulk lies within the reach.  A truncation below the reach
can miss the window's levels at n and 2n alike and stop on an empty list, so
the reach is a lower bound on the truncation.  The driven band starts at the
power of two at or above it.  A Jacobi chain starts at its reach plus its
eigenvectors' decay tail: past the reach each row damps an eigenvector by
the smaller characteristic root of the row's recurrence (Miller's estimate:
Gautschi, SIAM Rev. 9, 24 (1967)), and the tail ends where the Ritz radius
below falls under the tolerance.  That start settles the chain's levels at
once, without a truncation tried in vain; the doubling is left for the rest.

A Jacobi-chain block stops at one truncation n on a Ritz residual bound
(Weinstein's bound: Kato, J. Phys. Soc. Jpn. 4, 334 (1949); Parlett, The
Symmetric Eigenvalue Problem, ch. 4), read from eigenvalues and entries
alone, with nothing carried from the truncation before.  A chain at n is
the leading k rows of the chain at 2n, and a level of the leading rows with
unit eigenvector z leaves the residual |beta z[k-1]|, beta the first
coupling dropped; the bottom-up pivots of the leading rows less the
window's top bound |z[k-1]| for all window levels at once.  The truncation
is accepted when in every chain that radius lies below 1e-9 omega and under
half the spacing of the chain's window levels, so each holds a level of its
own, and Sturm counts (Barth, Martin and Wilkinson, Numer. Math. 9, 386
(1967)) find as many levels in the window at 2n as at n, which catches a
level that enters on doubling.  The driven band is solved whole at each
truncation and compared pairwise with the one before.
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
_STAB_TOL_FACTOR = 1e-9  # bounds a chain's radius (_chain_radius), a driven level's move per doubling
_BANDWIDTH = 3  # superdiagonals in the canonical ordering
_START_FLOOR = 16  # the least first truncation of a chain block


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


def _chain_radius(d: np.ndarray, e: np.ndarray, k: int, top: float) -> float:
    """A radius about each dsterf level up to ``top`` of the chain's leading
    k rows that holds a level of the whole chain (d, e), which has more rows.

    An exact level lambda <= top of the leading rows, with unit eigenvector
    z, leaves the residual |e[k-1] z[k-1]| on the whole chain (Weinstein).
    With t_{k-1} = 0, row j gives |z_j| <= t_{j-1} |z_{j-1}|, where
    t_{j-1} = |e[j-1]| / (d_j - top - |e[j]| t_j), while these bottom-up
    pivots of the leading rows less top stay positive; with |z| <= 1 where
    the product stops, before a t_j >= 1, |z[k-1]| <= prod t_j.  dsterf's
    own error, at most 4 eps ||T_k|| (LAPACK Users' Guide, 3rd ed., section
    4.7, which takes 1 for the 4) with ||T_k|| <= max |d| + 2 max |e|, is
    added to the radius and to ``top``.
    """
    dk, ak = d[:k], np.abs(e[:k])
    err = 4.0 * np.finfo(float).eps * (np.abs(dk).max() + 2.0 * ak[:-1].max(initial=0.0))
    top, rd, ra = top + err, dk[::-1].tolist(), ak[::-1].tolist()
    radius, t = ra[0], 0.0
    for dj, below, above in zip(rd, ra, ra[1:]):  # rows k - 1, ..., 1
        pivot = dj - top - below * t
        if pivot <= above:  # not positive, or t_{j-1} >= 1
            break
        t = above / pivot
        radius *= t
    return radius + err


def _in_window(vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values in (lo, hi]."""
    return vals[(vals > lo) & (vals <= hi)]


def _spectra(bands: np.ndarray) -> list[np.ndarray]:
    """The whole spectrum of each part of the block, ascending.

    A parity-symmetric block has two parts, its Jacobi chains
    (``_jacobi_chains``), each solved by dsterf; any other block is one
    part, solved whole by LAPACK's banded symmetric solver (dsbevd).
    """
    chains = _jacobi_chains(bands)
    if chains is None:
        return [scipy.linalg.eig_banded(bands, lower=False, eigvals_only=True)]
    return [_sterf(d, e) for d, e in chains]


def _bounded(
    chains: list[tuple[np.ndarray, np.ndarray]], k: int, lo: float, hi: float, tol: float
) -> list[float] | None:
    """The levels in (lo, hi] of the chains' leading k rows, merged and
    ascending, if those rows settle them; else None.

    A chain passes when Sturm counts find as many levels in (lo, hi] on the
    whole chain as on its leading rows, and its window levels (dsterf on the
    leading rows) share a radius (``_chain_radius``) below ``tol`` and under
    half their spacing, so each holds a level of its own; a chain with no
    window level needs none.  Levels of different chains may coincide, so
    the spacing is tested within a chain.  The two counts pivot alike on
    the leading rows: a level within rounding of an edge, which dsterf and a
    count may put on opposite sides, cannot fail every truncation.
    """
    out = []
    for d, e in chains:
        dk, ek = d[:k], e[:k - 1]
        # a tolerance of the window's width stops dstebz at the count
        if _stebz(dk, ek, lo, hi, hi - lo).size != _stebz(d, e, lo, hi, hi - lo).size:
            return None
        w = _in_window(_sterf(dk, ek), lo, hi)
        r = _chain_radius(d, e, k, hi) if w.size else 0.0
        if not (r < tol and (np.diff(w) > 2.0 * r).all()):
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


def _reach(bands: np.ndarray, ns: np.ndarray, e_max: float) -> int:
    """The largest boson number whose Gershgorin disc reaches down to ``e_max``.

    0 if no disc reaches ``e_max``.
    """
    reaching = np.flatnonzero(_disc_edges(bands) <= e_max)
    return int(ns[reaching[-1] // 2]) if reaching.size else 0


def _initial_truncation(
    model: ModelParams, osector: OracleSector, e_max: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, bands, ns): n the smallest power of two from 32 at or above the
    block's reach at ``N_MAX_DEFAULT``, at most that ceiling, and the bands
    at 2n (``_bands``): the driven band's first truncation, and the bands a
    chain block's start (``_chain_start``) is read from.

    The reach is read at truncations 32, 64, ... up to ``N_MAX_DEFAULT``,
    each cut from the bands at twice it, which hold those at 2n at the end.
    Along either spin the disc edge is the boson energy, affine in the boson
    number, less the two hops, each concave in it (|g| times the square root
    of affine factors), less a constant: it is convex, so once it grows from
    one state to the next it grows on.  The last boson number of a
    truncation lacks its upper hop, and its edge reads too high.  So the
    doubling stops once, along both spins, the edges of the two states below
    it grow and lie above ``e_max``: no state past them reaches ``e_max`` at
    any truncation, and the reach, which lies below them, is that of the
    bands at the ceiling.

    The reach is a lower bound: below it the window's eigenvectors have not
    decayed, and a truncation there may hold none of the window's levels at
    n and 2n alike, which the stopping rule would take as settled.
    """
    n_max, read = N_MAX_DEFAULT, 32
    while True:
        bands, ns = _bands(model, osector, 2 * read)
        pairs = int(np.count_nonzero(ns <= read))
        below = _disc_edges(bands[:, :2 * pairs])[-6:-2].reshape(2, 2)  # (state, spin)
        if read >= n_max or ((below[1] >= below[0]) & (below[1] > e_max)).all():
            break
        read *= 2
    reach = _reach(bands[:, :2 * pairs], ns[:pairs], e_max)
    n = min(max(32, 1 << (reach - 1).bit_length()), n_max)  # 2^k >= the reach
    pairs = int(np.count_nonzero(ns <= 2 * n))
    return n, bands[:, :2 * pairs], ns[:pairs]


def _chain_start(
    chains: list[tuple[np.ndarray, np.ndarray]], ns: np.ndarray, e_max: float, tol: float
) -> int | None:
    """The boson number at which the chains' levels up to ``e_max`` settle:
    each chain's reach plus its eigenvectors' decay tail, the larger over
    the chains, 0 if no row reaches ``e_max``; None if a tail runs past the
    rows given.

    Row j of each chain holds boson number ns[j].  A chain's reach r is its
    last row whose Gershgorin disc reaches down to ``e_max``.  Past it each
    row is diagonally dominant for every E up to ``e_max``, and an
    eigenvector there decays by the smaller characteristic root of the
    row's recurrence at ``e_max``, where it decays slowest (Miller's
    estimate: Gautschi, SIAM Rev. 9, 24 (1967)):

        rho_j = 2 |e[j-1]| / (d_j - e_max + sqrt((d_j - e_max)^2 - 4 |e[j] e[j-1]|)).

    With |z_r| <= 1, the Ritz radius |e[t] z[t]| of the chain cut after
    row t (``_chain_radius``) is about |e[t]| rho_{r+1} ... rho_t; the tail
    ends at the first row t where that falls below ``tol``.  The last row
    given lacks its upper coupling, so it is never t.
    """
    log_tol, start = math.log(tol), 0
    for d, e in chains:
        e = np.abs(e)  # e < 0 when g < 0
        edge = d.copy()
        edge[1:] -= e
        edge[:-1] -= e
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

    The driven band starts at the power of two at or above the block's
    reach (``_initial_truncation``).  A block with Jacobi chains starts at
    the reach plus the decay tail of its eigenvectors (``_chain_start``, at
    least ``_START_FLOOR``), read off the bands at twice that power of two,
    or at twice as many rows again while a tail runs past them.  The boson
    cutoff n then doubles, n <- min(2n, ``N_MAX_DEFAULT``), until the
    window's levels are settled; TruncationCeiling is raised if they are
    not at ``N_MAX_DEFAULT`` (read at call time) itself.  Both window edges
    must be finite, as for ``compute_spectrum``: an infinite upper edge
    takes in new levels at every truncation.

    Each truncation is read from the block's bands alone (``_bands``), built
    once, at 2n, or cut from longer ones.  A block with Jacobi chains is
    settled at n by ``_bounded``: each level returned lies within
    ``_STAB_TOL_FACTOR * omega`` of its own level of the untruncated chain;
    at the ceiling its count runs on chains of twice the rows, which dstebz
    counts in O(n) with no matrix built.  The driven band takes its whole
    spectrum at n (``_spectra``) and is settled when the window holds as
    many levels as at the truncation before, sorted pairs within the tolerance.
    """
    e_min, e_max = window
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"window edges must be finite, got {window}")
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    osector = map_sector(sector)
    tol = _STAB_TOL_FACTOR * model.omega
    n, bands, ns = _initial_truncation(model, osector, e_max)
    built = 2 * n  # the truncation the bands were last built at
    chains = _jacobi_chains(bands)
    if chains is not None:
        start = _chain_start(chains, ns, e_max, tol)
        while start is None and built < 2 * N_MAX_DEFAULT:  # the tail runs past the rows
            built *= 2
            bands, ns = _bands(model, osector, built)
            chains = _jacobi_chains(bands)
            start = _chain_start(chains, ns, e_max, tol)
        n = N_MAX_DEFAULT if start is None else min(max(_START_FLOOR, start), N_MAX_DEFAULT)
    prev: np.ndarray | None = None  # the driven band's levels at the truncation before
    while True:
        if built < 2 * n:
            built = 2 * n
            bands, ns = _bands(model, osector, built)
            chains = _jacobi_chains(bands)
        k = int(np.count_nonzero(ns <= n))  # boson numbers up to n: a chain's rows at n
        if chains is not None:
            m = int(np.count_nonzero(ns <= 2 * n))
            vals = _bounded([(d[:m], e[:m - 1]) for d, e in chains], k, e_min, e_max, tol)
            if vals is not None:
                return vals, n
        else:
            levels = _in_window(_spectra(bands[:, :2 * k])[0], e_min, e_max)
            if prev is not None and levels.size == prev.size and (abs(levels - prev) < tol).all():
                return levels.tolist(), n
            prev = levels
        if n >= N_MAX_DEFAULT:
            raise TruncationCeiling(f"eigenvalues not settled below truncation {N_MAX_DEFAULT}")
        n = min(2 * n, N_MAX_DEFAULT)
