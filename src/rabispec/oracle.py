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

The truncation is doubled until the window's levels stop moving.  The first
one tried is read off the same bands: the reach, the largest boson number
whose Gershgorin disc reaches down to the window's upper edge, found on bands
of 32, 64, ... states until the disc edges past it can only grow.  Past it
H - E is diagonally dominant for every E in the window, so the eigenvectors
decay there (Combes and Thomas, Commun. Math. Phys. 34, 251 (1973)) and
their bulk lies within the reach.  A truncation below the reach can miss the
window's levels at two successive doublings alike and stop on an empty list,
so the reach is a lower bound on the truncation; the doubling finds the rest.

The doubling loop carries one state: the window's levels of each part of the
block (its two Jacobi chains, or the whole driven band) at the truncation
before.  A chain block need not solve its window anew at each doubling: those
levels say where to look.  The doubled truncation is confirmed by Sturm
counts (Barth, Martin and Wilkinson, Numer. Math. 9, 386 (1967)): one count
of each chain's levels in the window, then one bisection (dstebz) of each
previous level's stability bracket, which the level must not leave.  That
narrows a level from a bracket of 2e-9 omega rather than from the window's
width, and costs O(n) per level where the whole spectrum of the doubled
chain would cost O(n^2).  Where a chain's brackets overlap, or a count
differs, and on the driven band, which has no Sturm count, each part's whole
spectrum is taken instead, and the merged levels in the window are compared
pairwise with those before.
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
_STAB_TOL_FACTOR = 1e-9  # stable: each level moves by < this * omega per doubling
_BANDWIDTH = 3  # superdiagonals in the canonical ordering
# bisection tolerance of a confirmed chain's levels: twice the safe minimum,
# which bisects each level to working accuracy inside its stability bracket
# (LAPACK's default, ulp times the matrix norm, leaves errors near 1e-12 at
# truncation 4,096).  Levels returned unconfirmed come from a whole solve and
# carry its accuracy: dsterf's were within 3.2e-15 max(1, |E|) of bisection
# on the benchmark's chain windows up to truncation 4,096
_BISECT_TOL = 2.0 * np.finfo(float).tiny


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
    some 20 us of checks to each call, and a confirmation makes one call per
    level.  Raises LinAlgError on a nonzero info.
    """
    m, w, _, _, info = lapack.dstebz(d, _offdiagonal(d, e), 1, vl, vu, 0, 0, tol, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
    return w[:m]


def _in_window(vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values in (lo, hi]."""
    return vals[(vals > lo) & (vals <= hi)]


def _spectra(bands: np.ndarray, chains) -> list[np.ndarray]:
    """The whole spectrum of each part of the block, ascending.

    ``chains`` is the block's split into Jacobi chains (``_jacobi_chains``
    of ``bands``): a parity-symmetric block has two parts, its chains, each
    solved by dsterf; any other block (``chains`` None) is one part, solved
    whole by LAPACK's banded symmetric solver (dsbevd).
    """
    if chains is None:
        return [scipy.linalg.eig_banded(bands, lower=False, eigvals_only=True)]
    return [_sterf(d, e) for d, e in chains]


def _merged(levels: list[np.ndarray]) -> list[float]:
    """The levels of all parts as one ascending list."""
    return np.sort(np.concatenate(levels)).tolist()


def _confirmed(
    chains: list[tuple[np.ndarray, np.ndarray]],
    prev: list[np.ndarray],
    lo: float,
    hi: float,
    tol: float,
) -> list[float] | None:
    """The chains' levels in (lo, hi] if each stayed within ``tol`` of a level of ``prev``.

    ``prev`` holds each chain's levels at the truncation before.  A chain
    passes when its count in (lo, hi] is that of ``prev`` and the bracket
    (max(lo, p - tol), min(hi, p + tol)) of each previous level p holds
    exactly one level, which is bisected there.  For disjoint brackets that
    is the test that each sorted pair moved by less than ``tol``.  Returns
    the merged levels, ascending, or None if a chain fails or its brackets
    do not lie apart, when only a solve of the whole chain can tell.
    """
    out = []
    for (d, e), p in zip(chains, prev):
        lower = np.maximum(lo, p - tol)
        # just below p + tol: a level that moved by tol is refused
        upper = np.minimum(hi, np.nextafter(p + tol, -np.inf))
        if not ((lower < upper).all() and (lower[1:] >= upper[:-1]).all()):
            return None
        # an absolute tolerance of the window's width stops the bisection
        # at once: only the count is wanted
        if _stebz(d, e, lo, hi, hi - lo).size != p.size:
            return None
        for vl, vu in zip(lower.tolist(), upper.tolist()):
            w = _stebz(d, e, vl, vu, _BISECT_TOL)
            if w.size != 1:
                return None
            out.append(float(w[0]))
    return sorted(out)


def eigen_in_range(h: TruncatedHamiltonian, lo: float, hi: float) -> list[float]:
    """All eigenvalues in (lo, hi], ascending; ValueError unless lo < hi.

    They are picked from the whole spectrum of each part of the block
    (``_spectra``: dsterf on each Jacobi chain of a parity-symmetric block,
    dsbevd on any other).  Either edge may be infinite.
    """
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got ({lo}, {hi})")
    parts = _spectra(h.bands, _jacobi_chains(h.bands))
    return _merged([_in_window(w, lo, hi) for w in parts])


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


def _initial_truncation(model: ModelParams, osector: OracleSector, e_max: float) -> int:
    """The first truncation diagonalized: the smallest power of two from 32
    at or above the block's reach at ``N_MAX_DEFAULT``.

    The reach is read from the bands at truncations 32, 64, ... up to
    ``N_MAX_DEFAULT``.  Along either spin the disc edge is the boson energy,
    affine in the boson number, less the two hops, each concave in it (|g|
    times the square root of affine factors), less a constant: it is convex,
    so once it grows from one state to the next it grows on.  The last boson
    number of a truncation lacks its upper hop, and its edge reads too high.
    So the doubling stops once, along both spins, the edges of the two states
    below it grow and lie above ``e_max``: no state past them reaches
    ``e_max`` at any truncation, and the reach, which lies below them, is
    that of the bands at the ceiling.  A ceiling of at most 32 is itself the
    start, and no reach is read.

    The reach is a lower bound: below it the window's eigenvectors have not
    decayed, and a truncation there may hold none of the window's levels at
    n and 2n alike, which the stability check would take as converged.
    """
    n_max = N_MAX_DEFAULT
    if n_max <= 32:
        return n_max
    n = 32
    while True:
        bands, ns = _bands(model, osector, n)
        below = _disc_edges(bands)[-6:-2].reshape(2, 2)  # (state, spin)
        if n >= n_max or ((below[1] >= below[0]) & (below[1] > e_max)).all():
            break
        n *= 2
    return max(32, 1 << (_reach(bands, ns, e_max) - 1).bit_length())  # 2^k >= the reach


def oracle_spectrum(
    model: ModelParams,
    sector: Sector,
    window: tuple[float, float],
) -> tuple[list[float], int]:
    """Truncation-stable eigenvalues in ``window`` plus the cutoff used.

    Starts at the block's reach (``_initial_truncation``) and doubles the
    boson cutoff until every in-window eigenvalue moves by less than
    ``_STAB_TOL_FACTOR * omega`` from one truncation to the next; raises
    TruncationCeiling if that never happens up to ``N_MAX_DEFAULT`` (read at
    call time).  Both window edges must be finite, as for
    ``compute_spectrum``: an infinite upper edge takes in new levels at every
    truncation.

    Each truncation is read from the block's bands alone (``_bands``), and
    the loop keeps one state: the window's levels of each part of the block
    at the truncation before (two Jacobi chains, or the whole driven band).
    A block with chains first tries to confirm the doubled truncation from
    them (``_confirmed``): a count of the window and a bisection of each
    level's stability bracket.  If that fails, or a chain's previous levels
    lie within twice the tolerance of each other, or there is no truncation
    before, each part's whole spectrum is taken (``_spectra``, on the chains
    already split off the bands), its levels in the window kept, and the
    merged levels compared pairwise with those before.  Either way the
    truncation stops where the pairwise test would, up to rounding at a
    bracket's edge.
    """
    e_min, e_max = window
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"window edges must be finite, got {window}")
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    osector = map_sector(sector)
    tol = _STAB_TOL_FACTOR * model.omega
    n = _initial_truncation(model, osector, e_max)
    prev: list[np.ndarray] | None = None
    while n <= N_MAX_DEFAULT:
        bands, _ = _bands(model, osector, n)
        chains = _jacobi_chains(bands)
        if chains is not None and prev is not None:
            confirmed = _confirmed(chains, prev, e_min, e_max, tol)
            if confirmed is not None:
                return confirmed, n
        levels = [_in_window(w, e_min, e_max) for w in _spectra(bands, chains)]
        if prev is not None:
            vals, before = _merged(levels), _merged(prev)
            if len(vals) == len(before) and all(abs(a - b) < tol for a, b in zip(vals, before)):
                return vals, n
        prev = levels
        n *= 2
    raise TruncationCeiling(
        f"eigenvalues did not stabilize below truncation {N_MAX_DEFAULT}"
    )
