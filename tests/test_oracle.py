"""Truncated Fock-space diagonalization and its independence cross-checks."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rabispec import (
    ModelKind,
    ModelParams,
    Sector,
    TruncationCeiling,
    build_hamiltonian,
    closed_form_spectrum_g0,
    map_sector,
    oracle_spectrum,
)
from rabispec.oracle import (
    _SOLVER_ERR,
    _STAB_TOL_FACTOR,
    N_MAX_DEFAULT,
    TruncatedHamiltonian,
    _bands,
    _block_counts,
    _block_proxies,
    _bounded,
    _chain_radius,
    _chain_start,
    _counts,
    _in_window,
    _jacobi_chains,
    _leading,
    _norm,
    _parts,
    _sbevd,
    _spectra,
    _stebz,
    _sterf,
    eigen_in_range,
)
from rabispec.spectral import default_window_min

from conftest import rabispec_imports
from reference import (
    BISECT_TOL,
    bisected_levels,
    doubling_oracle_spectrum,
    first_truncation,
    gershgorin_reach,
)


def inertia_below(a, x):
    """Number of eigenvalues of the symmetric matrix ``a`` below ``x``.

    Pure-python Sylvester inertia: count negative pivots of the LDL^T factors
    of A - xI via elimination without pivoting, retrying with a tiny shift when
    a pivot degenerates.
    """
    n = len(a)
    shift = 0.0
    scale = max(max(abs(v) for v in row) for row in a) + abs(x) + 1.0
    for _ in range(60):
        m = [[a[i][j] - (x + shift) * (i == j) for j in range(n)] for i in range(n)]
        count = 0
        ok = True
        for k in range(n):
            piv = m[k][k]
            if abs(piv) < 1e-13 * scale:
                ok = False
                break
            if piv < 0.0:
                count += 1
            for i in range(k + 1, n):
                f = m[i][k] / piv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        if ok:
            return count
        shift += 1e-11 * scale
    raise RuntimeError("degenerate pivots persisted")


def eigs_by_bisection(a, k):
    """k smallest eigenvalues of a small symmetric matrix, ascending."""
    n = len(a)
    radius = max(sum(abs(v) for v in row) for row in a)
    out = []
    for idx in range(1, k + 1):
        lo, hi = -radius, radius
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if inertia_below(a, mid) >= idx:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


class TestSectorMapping:
    def test_two_photon_parities(self):
        assert map_sector(Sector.two_photon(0.25)).parity == 0
        assert map_sector(Sector.two_photon(0.75)).parity == 1

    def test_two_mode_difference(self):
        assert map_sector(Sector.two_mode(0.5)).mode_diff == 0
        assert map_sector(Sector.two_mode(1.0)).mode_diff == 1
        assert map_sector(Sector.two_mode(1.5)).mode_diff == 2

    def test_driven_has_no_label(self):
        osec = map_sector(Sector.driven())
        assert osec.parity is None and osec.mode_diff is None


class TestMatrixElements:
    def test_two_photon_pair_hop(self):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        h = build_hamiltonian(model, map_sector(Sector.two_photon(0.25)), 4)
        assert h.dimension == 6
        assert h.labels == [(0, 1), (0, -1), (2, 1), (2, -1), (4, 1), (4, -1)]
        dense = h.to_dense()
        i = h.labels.index((2, -1))
        j = h.labels.index((0, 1))
        assert dense[i, j] == pytest.approx(0.2 * math.sqrt(2.0))
        assert dense[0, 0] == pytest.approx(0.5)   # (0, +): 0*w + delta
        assert dense[1, 1] == pytest.approx(-0.5)  # (0, -)

    def test_two_mode_pair_hop(self):
        model = ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.3)
        h = build_hamiltonian(model, map_sector(Sector.two_mode(1.0)), 4)
        dense = h.to_dense()
        i = h.labels.index((1, -1))
        j = h.labels.index((0, 1))
        assert dense[i, j] == pytest.approx(0.3 * math.sqrt(2.0))
        assert dense[0, 0] == pytest.approx(1.0 + 0.5)  # (2n + d) w + delta

    def test_driven_spin_flip_block(self):
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.0, 0.3)
        h = build_hamiltonian(model, map_sector(Sector.driven()), 4)
        dense = h.to_dense()
        block = dense[:2, :2]
        assert block == pytest.approx(np.array([[0.4, 0.3], [0.3, -0.4]]))
        gap = math.hypot(0.4, 0.3)
        assert eigen_in_range(h, -math.inf, math.inf)[:2] == pytest.approx([-gap, gap], abs=1e-12)

    def test_dense_is_symmetric(self):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        dense = build_hamiltonian(model, map_sector(Sector.two_photon(0.75)), 20).to_dense()
        assert np.array_equal(dense, dense.T)


def _hand_built(bands):
    """A Hamiltonian block around hand-assembled banded storage."""
    model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.0, 0.1)
    dim = bands.shape[1]
    return TruncatedHamiltonian(dim, bands, [(n, 1) for n in range(dim)], 4,
                                model, map_sector(Sector.driven()))


class TestBandedSolver:
    def _wrap(self, diag):
        # hand-assembled banded storage exercising eigen_in_range directly
        bands = np.zeros((4, len(diag)))
        bands[3, :] = diag
        return _hand_built(bands)

    def test_diagonal_matrix(self):
        h = self._wrap([3.0, 1.0, 2.0])
        assert eigen_in_range(h, 1.5, 3.5) == pytest.approx([2.0, 3.0])

    @pytest.mark.parametrize(
        "model,sector",
        [
            (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), Sector.two_photon(0.25)),
            (ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4), Sector.two_mode(1.5)),
            (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, 0.3), Sector.driven()),
        ],
    )
    def test_lapack_vs_inertia_bisection(self, model, sector):
        # independent pure-python eigensolver agrees on small blocks
        h = build_hamiltonian(model, map_sector(sector), 4)
        dense = h.to_dense().tolist()
        k = min(h.dimension, 6)
        assert eigen_in_range(h, -math.inf, math.inf)[:k] == pytest.approx(
            eigs_by_bisection(dense, k), abs=1e-9
        )


def loop_bands(model, osector, truncation):
    """``build_hamiltonian``'s bands assembled state by state: the loop reference."""
    w, d, g = model.omega, model.delta, model.g
    if model.kind is ModelKind.TWO_PHOTON:
        ns = list(range(osector.parity, truncation + 1, 2))
        diag_e = [w * n for n in ns]
        hop = [g * math.sqrt((n + 1.0) * (n + 2.0)) for n in ns[:-1]]
    elif model.kind is ModelKind.TWO_MODE:
        dd = osector.mode_diff
        ns = list(range(truncation + 1))
        diag_e = [w * (2 * n + dd) for n in ns]
        hop = [g * math.sqrt((n + 1.0) * (n + dd + 1.0)) for n in ns[:-1]]
    else:
        ns = list(range(truncation + 1))
        diag_e = [w * n for n in ns]
        hop = [g * math.sqrt(n + 1.0) for n in ns[:-1]]
    labels = []
    for n in ns:
        labels += [(n, +1), (n, -1)]
    bands = np.zeros((4, len(labels)))
    for m, e in enumerate(diag_e):
        bands[3, 2 * m] = e + d
        bands[3, 2 * m + 1] = e - d
        if model.kind is ModelKind.DRIVEN_RABI and model.drive != 0.0:
            bands[2, 2 * m + 1] = model.drive
    for m, t in enumerate(hop):
        bands[0, 2 * m + 3] = t
        bands[2, 2 * m + 2] = t
    return bands, labels


@pytest.mark.parametrize("truncation", [4, 5, 64, 4096])
@pytest.mark.parametrize(
    "model,sector",
    [
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.37), Sector.two_photon(0.25)),
        (ModelParams(ModelKind.TWO_PHOTON, 0.8, 0.3, -0.2), Sector.two_photon(0.75)),
        (ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.9), Sector.two_mode(0.5)),
        (ModelParams(ModelKind.TWO_MODE, 1.3, 0.0, -0.4), Sector.two_mode(2.5)),
        (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 2.5, 0.3), Sector.driven()),
        (ModelParams(ModelKind.DRIVEN_RABI, 0.9, 0.6, -1.1, 0.0), Sector.driven()),
    ],
)
def test_bands_equal_loop_assembly(model, sector, truncation):
    osec = map_sector(sector)
    h = build_hamiltonian(model, osec, truncation)
    bands, labels = loop_bands(model, osec, truncation)
    assert h.bands.shape == bands.shape
    assert h.bands.tobytes() == bands.tobytes()
    assert h.labels == labels


def _disc_reach(h, e_max, size):
    """The largest boson number of ``h`` whose Gershgorin disc over diagonal
    blocks of ``size`` states, read off the dense matrix, reaches down to
    ``e_max``; 0 if none does.  A block's disc is centred on its least
    eigenvalue, with the 2-norms of the other blocks of its rows summed for
    radius (Feingold and Varga, Pacific J. Math. 12, 1241 (1962))."""
    m = h.dimension // size
    blocks = h.to_dense().reshape(m, size, m, size).swapaxes(1, 2)
    norms = np.linalg.norm(blocks, 2, axis=(2, 3))
    least = np.linalg.eigvalsh(blocks[np.arange(m), np.arange(m)])[:, 0]
    edge = least - (norms.sum(axis=1) - norms.diagonal())
    return max((h.labels[size * i][0] for i in np.flatnonzero(edge <= e_max)), default=0)


@pytest.mark.parametrize("e_max", [-40.0, -10.0, 0.5, 3.0, 6.0])
@pytest.mark.parametrize(
    "model,sector",
    [
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.45), Sector.two_photon(0.75)),
        (ModelParams(ModelKind.TWO_MODE, 1.0, 0.3, -0.9), Sector.two_mode(1.5)),
        (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 4.0, -0.3), Sector.driven()),
    ],
)
def test_start_without_a_tail_is_the_disc_reach(model, sector, e_max):
    # with no tail to wait for (tol = inf) the start is the parts' reach:
    # that of the states' Gershgorin discs of the dense matrix on a chain
    # block, which splits into the chains' rows, and that of the 2x2 block
    # discs of boson number on the driven band
    osec = map_sector(sector)
    size = 2 if model.kind is ModelKind.DRIVEN_RABI else 1
    reach = _disc_reach(build_hamiltonian(model, osec, 120), e_max, size)
    bands, ns = _bands(model, osec, 120)
    assert _chain_start(_parts(bands), ns, e_max, math.inf) == reach
    if size == 1:
        assert gershgorin_reach(model, sector, e_max) == reach


def test_no_start_before_the_disc_edges_grow():
    # driven delta = 0.5, g = 7, drive 0.3: the block disc edges fall to
    # about -50.08 at boson number 49.  At truncation 32 no row reaches
    # E_max = -49 yet, but later rows do, so no start is read there; the
    # window's one level settles at 140
    model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 7.0, 0.3)
    bands, ns = _bands(model, map_sector(Sector.driven()), 32)
    assert _chain_start(_parts(bands), ns, -49.0, 1e-9) is None
    vals, n = oracle_spectrum(model, Sector.driven(), (-53.0, -49.0))
    assert n == 140 and vals == pytest.approx([-49.30127813], rel=0.0, abs=1e-8)


def _reach_windows(count, seed):
    """(model, sector, E_max): the strong-drive windows and ``count`` drawn ones.

    The draws span the three models up to 2g/omega = 0.994, g/omega = 0.99 and
    |g| = 8, with E_max in [-60, 60].  At strong drive the disc edges still
    fall past 32 states, above E_max, and reach it further out.
    """
    rng = random.Random(seed)
    out = [
        (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, g, 0.3), Sector.driven(), e_max)
        for g, e_max in ((7.0, -45.5), (8.0, -60.5), (-7.5, -55.0))
    ]
    for _ in range(count):
        kind, delta = rng.choice(list(ModelKind)), rng.uniform(0.0, 1.0)
        if kind is ModelKind.TWO_PHOTON:
            model = ModelParams(kind, 1.0, delta, rng.uniform(-0.497, 0.497))
            sector = Sector.two_photon(rng.choice([0.25, 0.75]))
        elif kind is ModelKind.TWO_MODE:
            model = ModelParams(kind, 1.0, delta, rng.uniform(-0.99, 0.99))
            sector = Sector.two_mode(rng.choice([0.5, 1.0, 1.5, 2.0]))
        else:
            model = ModelParams(kind, 1.0, delta, rng.uniform(-8.0, 8.0), rng.uniform(-1.0, 1.0))
            sector = Sector.driven()
        out.append((model, sector, rng.uniform(-60.0, 60.0)))
    return out


class _Started(Exception):
    """Raised to stop ``oracle_spectrum`` once it has its start."""


def test_start_is_read_off_the_first_bands_that_hold_it(monkeypatch):
    # the bands are built at truncations 64, 128, ... until _chain_start
    # reads a start off them, and that start is the one it reads off the
    # bands at twice the ceiling: the rows past the convexity stop reach
    # no window, and the tail ends within the rows it was read on
    built, starts = [], []

    def start(*a):
        starts.append(_chain_start(*a))
        if starts[-1] is not None:
            raise _Started
        return None

    monkeypatch.setattr("rabispec.oracle._bands", lambda *a: built.append(a[2]) or _bands(*a))
    monkeypatch.setattr("rabispec.oracle._chain_start", start)
    for model, sector, e_max in _reach_windows(300, 20261019):
        bands, ns = _bands(model, map_sector(sector), 2 * N_MAX_DEFAULT)
        want = _chain_start(_parts(bands), ns, e_max, _STAB_TOL_FACTOR * model.omega)
        assert want is not None
        built.clear()
        starts.clear()
        with pytest.raises(_Started):
            oracle_spectrum(model, sector, (e_max - 4.0, e_max))
        assert starts[-1] == want, (model, sector, e_max)
        assert built == [64 << i for i in range(len(starts))]


def _banded_in_range(h, lo, hi):
    return scipy.linalg.eig_banded(h.bands, eigvals_only=True, select="v", select_range=(lo, hi))


def assert_close_multiset(vals, ref):
    vals, ref = np.sort(vals), np.sort(ref)
    assert vals.shape == ref.shape
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestJacobiChains:
    """Parity-symmetric blocks solved as two tridiagonal chains, against eig_banded."""

    @pytest.mark.parametrize("truncation", [4, 5, 64, 1024])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize(
        "kind,g,sector",
        [
            (ModelKind.TWO_PHOTON, 0.3, Sector.two_photon(0.25)),
            (ModelKind.TWO_PHOTON, 0.45, Sector.two_photon(0.75)),
            (ModelKind.TWO_MODE, 0.5, Sector.two_mode(0.5)),
            (ModelKind.TWO_MODE, 0.8, Sector.two_mode(1.0)),
            (ModelKind.TWO_MODE, 0.9, Sector.two_mode(1.5)),
        ],
    )
    def test_matches_banded_solver(self, kind, g, sector, delta, sign, truncation):
        model = ModelParams(kind, 1.0, delta, sign * g)
        h = build_hamiltonian(model, map_sector(sector), truncation)
        assert _jacobi_chains(h.bands) is not None
        # at delta = 0 the two chains hold degenerate pairs
        lo, hi = -3.1, 12.7
        assert_close_multiset(eigen_in_range(h, lo, hi), _banded_in_range(h, lo, hi))

    @pytest.mark.parametrize("truncation", [4, 5, 64, 1024])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("drive", [0.3, -0.3, 1.0, -1.0])
    def test_driven_matches_banded_bisection(self, drive, delta, sign, truncation):
        # the whole-spectrum solve of a driven block against LAPACK's
        # bisection of the window alone (dsbevx)
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, delta, sign * 1.2, drive)
        h = build_hamiltonian(model, map_sector(Sector.driven()), truncation)
        assert _jacobi_chains(h.bands) is None
        lo, hi = -3.1, 12.7
        assert_close_multiset(eigen_in_range(h, lo, hi), _banded_in_range(h, lo, hi))

    @pytest.mark.parametrize("drive", [0.3, -1.0])
    def test_driven_block_matches_dense(self, drive):
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 1.2, drive)
        h = build_hamiltonian(model, map_sector(Sector.driven()), 40)
        assert _jacobi_chains(h.bands) is None
        ref = np.linalg.eigvalsh(h.to_dense())
        inside = ref[(ref > -2.0) & (ref <= 6.0)]
        assert eigen_in_range(h, -2.0, 6.0) == pytest.approx(inside, abs=1e-10)

    # one entry off both chains: second superdiagonal, odd column of the
    # first, even column of the third
    @pytest.mark.parametrize("row,col", [(1, 5), (2, 3), (0, 6)])
    def test_off_chain_entry_matches_dense(self, row, col):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.3)
        h = build_hamiltonian(model, map_sector(Sector.two_photon(0.25)), 12)
        bands = h.bands.copy()
        bands[row, col] = 0.7
        h = _hand_built(bands)
        assert _jacobi_chains(h.bands) is None and len(_spectra(h.bands)) == 1
        ref = np.linalg.eigvalsh(h.to_dense())
        assert eigen_in_range(h, -math.inf, math.inf) == pytest.approx(ref, abs=1e-10)
        inside = ref[(ref > 0.0) & (ref <= 5.0)]
        assert eigen_in_range(h, 0.0, 5.0) == pytest.approx(inside, abs=1e-10)

    @pytest.mark.parametrize("bands", [
        [[0.0], [0.0], [0.0], [2.5]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 1.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [3.0, 1.0, 2.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.4, 0.5], [3.0, 1.0, 2.0]],
    ], ids=["dim1", "dim2", "dim3-chain", "dim3-banded"])
    def test_small_hand_built(self, bands):
        h = _hand_built(np.array(bands))
        ref = np.linalg.eigvalsh(h.to_dense())
        assert eigen_in_range(h, -10.0, 10.0) == pytest.approx(ref, abs=1e-14)
        assert eigen_in_range(h, 10.0, 20.0) == []

    def test_window_is_half_open(self):
        # an eigenvalue exactly at lo is left out, one exactly at hi kept
        h = _hand_built(np.array([[0.0] * 4, [0.0] * 4, [0.0] * 4, [3.0, 1.0, 2.0, 4.0]]))
        assert eigen_in_range(h, 1.0, 3.0) == [2.0, 3.0]
        assert list(_banded_in_range(h, 1.0, 3.0)) == [2.0, 3.0]

    def test_window_is_half_open_without_chains(self):
        # the same on a block that does not split: the second superdiagonal
        # couples states 0 and 2 into the levels 1 and 2, which the whole
        # spectrum holds exactly
        bands = np.zeros((4, 4))
        bands[1, 2] = 0.5
        bands[3] = [1.5, 4.0, 1.5, 3.0]
        h = _hand_built(bands)
        assert _jacobi_chains(h.bands) is None
        assert eigen_in_range(h, -math.inf, math.inf) == [1.0, 2.0, 3.0, 4.0]
        assert eigen_in_range(h, 1.0, 3.0) == [2.0, 3.0]
        assert len(_banded_in_range(h, 1.0, 3.0)) == 2

    @pytest.mark.parametrize("window", [(1.0, 1.0), (3.0, 1.0), (math.nan, 3.0), (1.0, math.nan)])
    @pytest.mark.parametrize("drive", [0.0, 0.3])
    def test_empty_or_nan_window_rejected(self, capfd, drive, window):
        # rejected before LAPACK, which fails differently on each route and
        # prints to the terminal on an empty window
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, drive)
        h = build_hamiltonian(model, map_sector(Sector.driven()), 16)
        assert (_jacobi_chains(h.bands) is None) == (drive != 0.0)
        with pytest.raises(ValueError, match="lo < hi"):
            eigen_in_range(h, *window)
        assert capfd.readouterr() == ("", "")


def _random_chain(rows, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, rows), rng.uniform(-1.0, 1.0, rows - 1)


class TestStebz:
    """The direct dstebz call against scipy's tridiagonal wrapper at the same tolerance."""

    @pytest.mark.parametrize("rows", [1, 2, 33])
    @pytest.mark.parametrize("lo,hi", [
        (-math.inf, math.inf), (-math.inf, 0.5), (-0.5, math.inf), (-1.0, 1.5), (8.0, 9.0),
    ])
    def test_by_value(self, rows, lo, hi):
        d, e = _random_chain(rows, rows)
        got = _stebz(d, e, lo, hi, BISECT_TOL)
        ref = scipy.linalg.eigvalsh_tridiagonal(
            d, e, select="v", select_range=(lo, hi), tol=BISECT_TOL
        )
        assert np.array_equal(got, ref)

    def test_window_is_half_open(self):
        d, e = np.array([3.0, 1.0, 2.0]), np.zeros(2)
        assert _stebz(d, e, 1.0, 3.0, BISECT_TOL).tolist() == [2.0, 3.0]

    def test_error_raised(self, capfd):
        # an empty window is an illegal argument to LAPACK, which says so on
        # the terminal and returns info = -5
        d, e = _random_chain(4, 0)
        with pytest.raises(np.linalg.LinAlgError, match="info=-5"):
            _stebz(d, e, 1.0, 0.0, BISECT_TOL)
        capfd.readouterr()


def _chain_bands(first, second):
    """Banded storage of a block whose two Jacobi chains are ``first`` and
    ``second``, each of the same number of rows: ``_jacobi_chains`` inverted."""
    idx = np.arange(2 * first[0].size)
    bands = np.zeros((4, idx.size))
    for members, (d, e) in zip(((0, 3), (1, 2)), (first, second)):
        c = idx[np.isin(idx % 4, members)]
        bands[3, c] = d
        bands[3 - np.diff(c), c[1:]] = e
    return bands


class TestWholeChainSpectrum:
    """Each chain's levels in a window, picked from its whole spectrum
    (``_spectra``: dsterf), against scipy's bisection of the window (dstebz)."""

    @staticmethod
    def _assert_matches_bisection(bands, lo, hi):
        chains = _jacobi_chains(bands)
        got = _spectra(bands)
        assert len(got) == len(chains) == 2
        for (d, e), w in zip(chains, got):
            w = _in_window(w, lo, hi)
            ref = scipy.linalg.eigvalsh_tridiagonal(
                d, e, select="v", select_range=(lo, hi), tol=BISECT_TOL
            )
            assert w.shape == ref.shape
            assert np.all(np.abs(w - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("rows", [1, 2, 33, 1025])
    def test_chains_round_trip(self, rows):
        first, second = _random_chain(rows, rows), _random_chain(rows, rows + 1)
        chains = _jacobi_chains(_chain_bands(first, second))
        for (d, e), (d0, e0) in zip(chains, (first, second)):
            assert np.array_equal(d, d0) and np.array_equal(e, e0)

    @pytest.mark.parametrize("rows", [1, 2, 33, 1025])
    @pytest.mark.parametrize("lo,hi", [(-math.inf, math.inf), (-1.0, 1.5), (8.0, 9.0)])
    def test_random_chain(self, rows, lo, hi):
        bands = _chain_bands(_random_chain(rows, rows), _random_chain(rows, rows + 1))
        self._assert_matches_bisection(bands, lo, hi)

    @pytest.mark.parametrize("kind,g,sector", [
        (ModelKind.TWO_PHOTON, 0.49, Sector.two_photon(0.25)),
        (ModelKind.TWO_MODE, 0.95, Sector.two_mode(0.5)),
    ])
    def test_chains_of_1025_rows_near_collapse(self, kind, g, sector):
        # chains of 1,025 rows near collapse (two-photon at truncation 2,048,
        # two-mode at 1,024), over windows like the benchmark's oracle ones
        model = ModelParams(kind, 1.0, 0.5, g)
        osec = map_sector(sector)
        truncation = 2048 if kind is ModelKind.TWO_PHOTON else 1024
        bands = _bands(model, osec, truncation)[0]
        assert [d.size for d, _ in _jacobi_chains(bands)] == [1025, 1025]
        self._assert_matches_bisection(bands, default_window_min(model, sector), 30.0)

    def test_split_chain(self):
        # an exact zero on the off-diagonal splits the chain in two; the
        # whole spectrum is the union of the two parts'
        d, e = _random_chain(33, 5)
        e[10] = 0.0
        self._assert_matches_bisection(_chain_bands((d, e), _random_chain(33, 6)), -1.0, 1.5)
        parts = np.sort(np.concatenate([_sterf(d[:11], e[:10]), _sterf(d[11:], e[11:])]))
        assert np.all(np.abs(_sterf(d, e) - parts) <= 1e-14 * np.maximum(1.0, np.abs(parts)))

    @pytest.mark.parametrize("kind,sector", [
        (ModelKind.TWO_PHOTON, Sector.two_photon(0.75)),
        (ModelKind.TWO_MODE, Sector.two_mode(1.0)),
    ])
    def test_degenerate_pairs_across_chains(self, kind, sector):
        # at delta = 0 the two chains are the same matrix, and every level of
        # the block comes twice, once from each
        model = ModelParams(kind, 1.0, 0.0, 0.3)
        h = build_hamiltonian(model, map_sector(sector), 64)
        (d0, e0), (d1, e1) = _jacobi_chains(h.bands)
        assert np.array_equal(d0, d1) and np.array_equal(e0, e1)
        self._assert_matches_bisection(h.bands, -3.1, 12.7)
        vals = eigen_in_range(h, -3.1, 12.7)
        assert len(vals) > 10 and vals[0::2] == vals[1::2]

    def test_window_is_half_open(self):
        # levels exactly at lo and hi: the one at lo is left out, the one at
        # hi kept, as bisection of the window does
        d, e = np.array([1.5, -1.0, 0.5, 3.0]), np.zeros(3)
        bands = _chain_bands((d, e), (d, e))
        parts = _spectra(bands)
        assert [_in_window(w, -1.0, 1.5).tolist() for w in parts] == [[0.5, 1.5]] * 2
        self._assert_matches_bisection(bands, -1.0, 1.5)


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _radius(d, e, k, top):
    """``_chain_radius`` of the chain (d, e) cut after k rows, with dsterf's
    error on those rows, as ``_bounded`` takes it."""
    return _chain_radius(d, e, k, top, _SOLVER_ERR * _norm(_leading((d, e, None), k)))


class TestRitzBound:
    """The stopping rule of a chain block, on hand-built chains whose leading
    two rows [[0.5, b], [b, 0.5]] have the unit eigenvectors (1, -+1)/sqrt(2)
    at 0.5 -+ b; beta couples them to the rows past them.  The window's top,
    1.5, lies above both leading rows, so no row damps the eigenvectors and
    the radius is |beta| plus dsterf's error, 4 eps ||T_2||."""

    tol = _STAB_TOL_FACTOR
    lo, hi = -1.0, 1.5

    @staticmethod
    def _chain(b, beta, far=100.0):
        # the rows past the leading two sit near ``far``
        return np.array([0.5, 0.5, far, far + 1.0]), np.array([b, beta, 0.3])

    def _settled(self, d, e):
        return _bounded([(d, e, None)], 2, self.lo, self.hi, self.tol)

    @pytest.mark.parametrize("beta", [1e-10, -3e-12, 0.25])
    def test_radius_is_beta_times_the_decay(self, beta):
        # leading rows [[0.5, 0.3], [0.3, 3.0]] under the top 1.5: row 1 damps
        # every eigenvector up to the top by t_0 = 0.3 / (3.0 - 1.5) = 0.2
        d, e = np.array([0.5, 3.0, 100.0]), np.array([0.3, beta])
        err = 4.0 * np.finfo(float).eps * (3.0 + 2.0 * 0.3)
        r = _radius(d, e, 2, self.hi)
        assert r == pytest.approx(0.2 * abs(beta) + err, rel=1e-12, abs=0.0)
        lam, z = np.linalg.eigh(_tridiagonal(d[:2], e[:1]))
        assert abs(z[-1, 0]) <= 0.2 and lam[1] > self.hi

    def test_radius_without_decay_is_beta(self):
        # the top lies above both leading rows: the radius is |beta| + err
        d, e = self._chain(0.2, 1e-10)
        err = 4.0 * np.finfo(float).eps * (0.5 + 2.0 * 0.2)
        r = _radius(d, e, 2, self.hi)
        assert r == pytest.approx(1e-10 + err, rel=1e-15, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
        slope=st.floats(0.05, 2.0),
        squeeze=st.floats(0.0, 0.98),
        top=st.floats(-3.0, 100.0),
        zero=st.one_of(st.none(), st.integers(0, 198)),
    )
    def test_radius_bounds_every_window_eigenvector(self, k, seed, slope, squeeze, top, zero):
        # a chain like the Fock chains, its diagonal rising by ``slope`` per
        # row and its couplings, of both signs, by up to ``squeeze`` / 2 of
        # that, with perhaps one zero among the leading rows: for every
        # eigenvector of a dense solve of the leading rows with its level up
        # to the top, the radius is at least its Weinstein radius |e[k-1] z[k-1]|
        rng = np.random.default_rng(seed)
        d = slope * np.arange(k + 1) + rng.uniform(-1.0, 1.0, k + 1)
        size = (0.5 + squeeze * slope * np.arange(1, k + 1) / 2.0) * rng.uniform(0.5, 1.0, k)
        e = size * rng.choice([-1.0, 1.0], k)
        if zero is not None:
            e[min(zero, k - 2)] = 0.0
        r = _radius(d, e, k, top)
        lam, z = np.linalg.eigh(_tridiagonal(d[:k], e[:k - 1]))
        assert np.all(np.abs(e[k - 1] * z[-1, lam <= top]) <= r)

    @pytest.mark.parametrize("kind,g,sector,e_max,n", [
        (ModelKind.TWO_PHOTON, 0.3, Sector.two_photon(0.25), 50.0, 216),
        (ModelKind.TWO_MODE, 0.8, Sector.two_mode(0.5), 40.0, 178),
    ])
    def test_weinstein_against_four_times_the_chain(self, kind, g, sector, e_max, n):
        # the pinned chain windows at the truncation n they settle at: each
        # window level of the leading rows lies within the chain's radius of
        # a level of the chain at 4n, solved dense, which holds as many
        model = ModelParams(kind, 1.0, 0.5, g)
        lo = default_window_min(model, sector)
        osec = map_sector(sector)
        k = int(np.count_nonzero(_bands(model, osec, n)[1] <= n))
        for d, e in _jacobi_chains(_bands(model, osec, 4 * n)[0]):
            w = _in_window(_sterf(d[:k], e[:k - 1]), lo, e_max)
            r = _radius(d, e, k, e_max)
            assert w.size and r < self.tol
            long = _in_window(np.linalg.eigvalsh(_tridiagonal(d, e)), lo, e_max)
            assert long.size == w.size
            assert np.all(np.abs(long - w) <= r)

    def test_radius_above_tol_refused_below_the_start(self):
        # two-photon g = 0.3 on (E_min, 50] starts at its reach, 126, plus
        # its tail, at 216.  At 200 the counts at n and 2n agree, but no
        # eigenvector has decayed enough: the radius is about 8.5e-8
        model, sector = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.3), Sector.two_photon(0.25)
        window, osec = (default_window_min(model, sector), 50.0), map_sector(sector)
        assert gershgorin_reach(model, sector, window[1]) == 126
        bands, ns = _bands(model, osec, 2 * 256)
        assert _chain_start(_parts(bands), ns, window[1], self.tol) == 216
        bands, ns = _bands(model, osec, 2 * 200)
        k = int(np.count_nonzero(ns <= 200))
        for d, e in _jacobi_chains(bands):
            counts = {_stebz(x, y, *window, window[1] - window[0]).size
                      for x, y in ((d[:k], e[:k - 1]), (d, e))}
            assert len(counts) == 1 and 1e-8 < _radius(d, e, k, window[1]) < 1e-6
        assert _bounded(_parts(bands), k, *window, self.tol) is None

    def test_settled_levels_returned(self):
        d, e = self._chain(0.2, 1e-10)
        assert self._settled(d, e) == pytest.approx([0.3, 0.7], rel=0.0, abs=1e-15)
        # levels of different chains may coincide: runs are taken per chain
        got = _bounded([(d, e, None)] * 2, 2, self.lo, self.hi, self.tol)
        assert got == pytest.approx([0.3, 0.3, 0.7, 0.7], rel=0.0, abs=1e-15)

    def test_radius_above_tol_refused(self):
        # r = beta, and rounding, against tol = 1e-9
        assert self._settled(*self._chain(0.2, 0.9e-9)) is not None
        assert self._settled(*self._chain(0.2, 1.1e-9)) is None

    def test_overlapping_neighbours_refused(self, monkeypatch):
        # r = 1e-10: levels 1e-10 apart may share one true level, so the
        # whole chain must hold two about them, as it does; a count that
        # finds one there refuses them.  Levels 2e-9 apart hold one each and
        # need no count
        close, apart = self._chain(0.5e-10, 1e-10), self._chain(1e-9, 1e-10)
        assert self._settled(*close) == pytest.approx([0.5 - 0.5e-10, 0.5 + 0.5e-10],
                                                      rel=0.0, abs=1e-15)
        spans = []

        def one_level_about_runs(part, k, lo, hi):
            got = _counts(part, k, lo, hi)
            if (lo, hi) == (self.lo, self.hi):
                return got
            spans.append(hi - lo)
            return got[0], 1

        monkeypatch.setattr("rabispec.oracle._counts", one_level_about_runs)
        assert self._settled(*close) is None
        # the run's span, 1e-10, widened on each side by r and the rounding
        assert spans == [pytest.approx(3e-10, rel=1e-3)]
        spans.clear()
        assert self._settled(*apart) is not None and spans == []

    def test_run_needs_root_size_times_radius_below_tol(self):
        # levels 1e-10 apart form a run of two: r bounds each one's distance
        # to some level, and sqrt(2) r each one's distance to its own, so
        # r = 0.8e-9 passes alone but not in the run; r = 0.6e-9 passes both
        assert self._settled(*self._chain(1e-9, 0.8e-9)) is not None
        assert self._settled(*self._chain(0.5e-10, 0.8e-9)) is None
        assert self._settled(*self._chain(0.5e-10, 0.6e-9)) == pytest.approx(
            [0.5 - 0.5e-10, 0.5 + 0.5e-10], rel=0.0, abs=1e-15)

    def test_count_that_differs_refused(self):
        # a third row at 1.0, inside the window, is a level the leading two
        # rows do not hold: the count of the whole chain finds three
        d, e = self._chain(0.2, 1e-10, far=1.0)
        assert _stebz(d, e, self.lo, self.hi, self.hi - self.lo).size == 3
        assert self._settled(d, e) is None
        # above the window it is not counted
        assert self._settled(*self._chain(0.2, 1e-10, far=1.6)) is not None

    def test_window_is_half_open(self):
        # the leading levels 0.3 and 0.7, with 0.3 on lo and 0.7 on hi
        d, e = np.array([0.3, 0.7, 100.0]), np.array([0.0, 1e-10])
        assert _bounded([(d, e, None)], 2, 0.3, 0.7, self.tol) == [0.7]

    def test_empty_window_settled(self):
        d, e = self._chain(0.2, 0.3)
        assert _bounded([(d, e, None)], 2, 5.0, 6.0, self.tol) == []

    def test_oracle_doubles_while_refused(self, monkeypatch):
        model, sector, window = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), \
            Sector.two_photon(0.25), (-0.5, 8.0)
        vals, n = oracle_spectrum(model, sector, window)
        rows, refused = [], []

        def refuse_first_settled(chains, k, *args):
            rows.append(k)
            got = _bounded(chains, k, *args)
            if got is not None and not refused:
                refused.append(k)
                return None
            return got

        monkeypatch.setattr("rabispec.oracle._bounded", refuse_first_settled)
        again, n_again = oracle_spectrum(model, sector, window)
        # parity 0: each chain holds the states of boson numbers 0, 2, ..., n
        assert (n_again, rows[-2:]) == (2 * n, [n // 2 + 1, n + 1])
        assert again == pytest.approx(vals, rel=0.0, abs=1e-12)


def _driven_band(g, delta, drive, truncation):
    model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, delta, g, drive)
    return _bands(model, map_sector(Sector.driven()), truncation)[0]


# driven couplings, splittings and drives of both signs, with g = 0,
# delta = 0 and drive = 0 drawn as often as any other value
_G = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
_DELTA = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
_DRIVE = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


class TestBlockCount:
    """The band's level count, the inertia of its 2x2-block LDL^T, against
    dsbevd's levels of the same band."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(g=_G, delta=_DELTA, drive=_DRIVE, truncation=st.integers(4, 80),
           lead=st.floats(0.0, 1.0), where=st.floats(-0.1, 1.1))
    def test_count_equals_levels_below(self, g, delta, drive, truncation, lead, where):
        # E anywhere from below the spectrum to above the leading blocks'
        # top, kept off rounding of a level of either band
        bands = _driven_band(g, delta, drive, truncation)
        k = 1 + int(lead * truncation)  # of truncation + 1 blocks
        levels, leading = _sbevd(bands), _sbevd(bands[:, :2 * k])
        lo, hi = leading[0] - 1.0, leading[-1] + 1.0
        energy = lo + where * (hi - lo)
        near = 1e-9 * max(1.0, abs(energy))
        assume(np.abs(np.concatenate([levels, leading]) - energy).min() > near)
        got = _block_counts(bands, k, [energy])
        assert got == [(int(np.sum(leading < energy)), int(np.sum(levels < energy)))]
        # the leading blocks' count is a prefix of the pass: the same as
        # the count of the leading blocks built alone
        assert _block_counts(bands[:, :2 * k], k, [energy]) == [(got[0][0],) * 2]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(g=_G, drive=_DRIVE, truncation=st.integers(4, 40), block=st.integers(0, 40),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_count_at_a_block_eigenvalue_is_guarded(self, g, drive, truncation, block, sign):
        # at delta = 0 the block of boson number m has the eigenvalues
        # m +- drive; at E on one of them its pivot at m = 0, or at every m
        # when g = 0, is singular.  The count is a finite count between the
        # levels below E and those up to it
        bands = _driven_band(g, 0.0, drive, truncation)
        energy = min(block, truncation) + sign * drive
        levels = _sbevd(bands)
        (lead, whole), = _block_counts(bands, truncation + 1, [energy])
        assert lead == whole
        near = 1e-9 * max(1.0, abs(energy))
        assert np.sum(levels < energy - near) <= whole <= np.sum(levels <= energy + near)

    def test_pivot_zero_at_its_block_eigenvalue(self):
        # delta = 0, drive = 0.5, g = 1: the levels are n - 1 +- 1/2, one
        # from each sigma_x chain, and E = -0.5 zeroes the first pivot of
        # the chain with the level n = 1 exactly, where the pass without the
        # guard divides by zero.  The guard counts that level as below E,
        # as dstebz counts a level on its upper edge, and carries the other
        # chain on: below E lie -1.5 and that level.  Where no pivot is
        # zero, the degenerate pair at 0.5 is not counted below 0.5
        bands = _driven_band(1.0, 0.0, 0.5, 20)
        levels = _sbevd(bands)
        assert levels[:5] == pytest.approx([-1.5, -0.5, -0.5, 0.5, 0.5], abs=1e-13)
        assert _block_counts(bands, 21, [-0.5, 0.5]) == [(2, 2), (3, 3)]

    def test_counts_of_a_window(self):
        # (lo, hi] on the leading blocks and the whole band, from one pass
        # at each edge
        bands = _driven_band(2.0, 0.5, 0.5, 60)
        part = _parts(bands)[0]
        levels, leading = _sbevd(bands), _sbevd(bands[:, :2 * 31])
        lo, hi = -5.0, 20.0
        assert _counts(part, 31, lo, hi) == (_in_window(leading, lo, hi).size,
                                             _in_window(levels, lo, hi).size)


class TestBandRadius:
    """The driven band's radius: the chains' bound read over its 2x2 blocks,
    the blocks' least eigenvalues for the diagonal and their couplings'
    2-norms for the off-diagonal."""

    def test_block_proxies(self):
        delta, g, drive = 0.4, 1.5, -0.3
        bands = _driven_band(g, delta, drive, 10)
        mu, beta = _block_proxies(bands)
        m = np.arange(11)
        assert mu == pytest.approx(m - math.hypot(delta, drive), rel=0.0, abs=1e-14)
        # the exact 2-norm, g sqrt(m + 1), not the Frobenius norm sqrt(2) times it
        assert beta == pytest.approx(g * np.sqrt(m[:-1] + 1.0), rel=1e-15, abs=0.0)
        dense = build_hamiltonian(ModelParams(ModelKind.DRIVEN_RABI, 1.0, delta, g, drive),
                                  map_sector(Sector.driven()), 10).to_dense()
        for j in range(10):
            assert mu[j] == pytest.approx(
                np.linalg.eigvalsh(dense[2 * j:2 * j + 2, 2 * j:2 * j + 2])[0], abs=1e-14)
            assert beta[j] == pytest.approx(
                np.linalg.norm(dense[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4], 2), rel=1e-14)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=_G, delta=_DELTA, drive=_DRIVE, k=st.integers(5, 80),
           top=st.floats(-20.0, 80.0))
    def test_radius_bounds_every_window_eigenvector(self, g, delta, drive, k, top):
        # for every eigenvector z of a dense solve of the leading k blocks
        # with its level up to the top, the residual of (z, 0) on the band,
        # B_{k-1}^T applied to z's last block, is at most the radius, whose
        # error term is the leading band's largest row sum times 4 eps
        bands = _driven_band(g, delta, drive, k)  # k + 1 blocks
        part = _parts(bands)[0]
        lead = _leading(part, k)
        r = _chain_radius(part[0], part[1], k, top, _SOLVER_ERR * _norm(lead))
        dense = TruncatedHamiltonian(2 * k + 2, bands, [], k, None, None).to_dense()
        lam, z = np.linalg.eigh(dense[:2 * k, :2 * k])
        coupling = dense[2 * k - 2:2 * k, 2 * k:]
        residual = np.linalg.norm(coupling.T @ z[2 * k - 2:, lam <= top], axis=0)
        assert np.all(residual <= r)

    def test_error_term_from_the_band(self):
        # the error term is 4 eps times the band's largest absolute row sum,
        # not read from the proxies
        bands = _driven_band(2.0, 0.5, 0.7, 9)
        dense = TruncatedHamiltonian(20, bands, [], 9, None, None).to_dense()
        assert _norm(_parts(bands)[0]) == pytest.approx(np.abs(dense).sum(axis=1).max(),
                                                        rel=1e-15)


# driven windows with degenerate levels, each settled and compared with the
# doubling reference: delta = 0, drive 0.5, g = 1, whose levels n - 1 +- 1/2
# pair up exactly; g = 0, delta = 0.4, drive 0.3, whose levels m + 1/2 and
# (m + 1) - 1/2 coincide; and the tunnelling doublets of delta = 0.5, g = 7,
# drive 1.0, 5e-14 apart.  The plain spacing test of the radius refused
# each of them at every truncation
DEGENERATE_WINDOWS = [
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.0, 1.0, 0.5), (-3.0, 8.0)),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.0, 0.3), (-1.0, 8.0)),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 7.0, 1.0), (-50.5, -46.5)),
]


@pytest.mark.parametrize("model,window", DEGENERATE_WINDOWS)
def test_degenerate_driven_window_settled(model, window):
    # levels closer than twice the radius are settled by the count about
    # them, with no TruncationCeiling, at a truncation no larger than the
    # doubling reference's, whose levels they match
    vals, n = oracle_spectrum(model, Sector.driven(), window)
    ref, n_ref = doubling_oracle_spectrum(model, Sector.driven(), window)
    assert np.diff(vals).min() < 1e-9
    assert len(vals) == len(ref) and n <= n_ref
    assert np.all(np.abs(np.array(vals) - ref) <= _STAB_TOL_FACTOR * model.omega)


# (model, sector, window start above default_window_min, width): the three
# models from weak coupling to 2g/omega = 0.98 and g/omega = 0.95, with
# windows at the ground state and shifted off it
STABILITY_WINDOWS = [
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), Sector.two_photon(0.25), 0.0, 10.0),
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.4, 0.44), Sector.two_photon(0.75), 0.0, 10.0),
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.49), Sector.two_photon(0.25), 0.0, 4.0),
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.3, -0.3), Sector.two_photon(0.75), 6.0, 10.0),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4), Sector.two_mode(1.0), 0.0, 10.0),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.95), Sector.two_mode(0.5), 0.0, 4.0),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.3, -0.8), Sector.two_mode(1.5), 5.0, 10.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.7, 0.3), Sector.driven(), 0.0, 10.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.6, 2.5, 0.2), Sector.driven(), 0.0, 10.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 4.0, -0.4), Sector.driven(), 8.0, 6.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.0, 1.0, 0.0), Sector.driven(), 0.0, 10.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 1.0, 0.1, 0.5), Sector.driven(), 0.0, 25.0),
]


# (kind, g, sector, E_max, truncation used, level count): the chain windows
# of the benchmark's oracle workload, from default_window_min at delta = 0.5
CHAIN_WIDE_WINDOWS = [
    (ModelKind.TWO_PHOTON, 0.3, Sector.two_photon(0.25), 50.0, 216, 64),
    (ModelKind.TWO_PHOTON, 0.44, Sector.two_photon(0.75), 30.0, 455, 64),
    (ModelKind.TWO_PHOTON, 0.47, Sector.two_photon(0.25), 25.0, 734, 76),
    (ModelKind.TWO_PHOTON, 0.49, Sector.two_photon(0.25), 20.0, 1638, 104),
    (ModelKind.TWO_MODE, 0.8, Sector.two_mode(0.5), 40.0, 178, 68),
    (ModelKind.TWO_MODE, 0.9, Sector.two_mode(1.0), 40.0, 329, 94),
    (ModelKind.TWO_MODE, 0.93, Sector.two_mode(1.5), 25.0, 324, 68),
    (ModelKind.TWO_MODE, 0.95, Sector.two_mode(0.5), 30.0, 495, 100),
]

# (model, E_max): the driven windows of the benchmark's oracle workload (seed
# 1), from default_window_min
DRIVEN_ORACLE_WINDOWS = [
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4002, 1.0, 0.8), 60.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5636, 2.0, 0.5), 50.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5918, 2.5, 1.0), 40.0),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4617, 3.0, 0.3), 30.0),
]

# a driven window whose levels lie near boson number 49, far below zero
FAR_BELOW_ZERO = (
    ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 7.0, 0.3), Sector.driven(), (-49.5, -45.5)
)


class TestPhysics:
    def test_parity_blocks_partition_full_space(self):
        # the two parity sectors together must reproduce the spectrum of the
        # unsectored two-photon Hamiltonian assembled directly with numpy
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        n_cut = 40
        dim = 2 * (n_cut + 1)
        full = np.zeros((dim, dim))
        for n in range(n_cut + 1):
            full[2 * n, 2 * n] = n * model.omega + model.delta
            full[2 * n + 1, 2 * n + 1] = n * model.omega - model.delta
        for n in range(n_cut - 1):
            t = model.g * math.sqrt((n + 1.0) * (n + 2.0))
            # pair creation flips the spin
            full[2 * n, 2 * (n + 2) + 1] = full[2 * (n + 2) + 1, 2 * n] = t
            full[2 * n + 1, 2 * (n + 2)] = full[2 * (n + 2), 2 * n + 1] = t
        ref = sorted(np.linalg.eigvalsh(full))[:10]

        union = []
        for q in (0.25, 0.75):
            h = build_hamiltonian(model, map_sector(Sector.two_photon(q)), n_cut)
            union += eigen_in_range(h, -math.inf, math.inf)[:10]
        assert sorted(union)[:10] == pytest.approx(ref, abs=1e-10)

    def test_sign_of_g_invariance(self):
        win = (-1.0, 5.0)
        base = dict(omega=1.0, delta=0.5)
        a, _ = oracle_spectrum(
            ModelParams(ModelKind.TWO_MODE, g=0.4, **base), Sector.two_mode(1.0), win
        )
        b, _ = oracle_spectrum(
            ModelParams(ModelKind.TWO_MODE, g=-0.4, **base), Sector.two_mode(1.0), win
        )
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize(
        "model,sector",
        [
            (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.3, 0.0), Sector.two_photon(0.75)),
            (ModelParams(ModelKind.TWO_MODE, 1.0, 0.3, 0.0), Sector.two_mode(0.5)),
            (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.3, 0.0, 0.2), Sector.driven()),
        ],
    )
    def test_decoupled_limit_matches_closed_form(self, model, sector):
        win = (-1.0, 4.0)
        vals, _ = oracle_spectrum(model, sector, win)
        ref = [e for e in closed_form_spectrum_g0(model, sector, 8) if win[0] <= e <= win[1]]
        assert vals == pytest.approx(ref, abs=1e-12)

    def test_variational_monotonicity(self):
        # enlarging the basis can only lower (never raise) each ordered level
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.35)
        osec = map_sector(Sector.two_photon(0.25))
        v1 = eigen_in_range(build_hamiltonian(model, osec, 64), -math.inf, math.inf)[:20]
        v2 = eigen_in_range(build_hamiltonian(model, osec, 128), -math.inf, math.inf)[:20]
        for a, b in zip(v2, v1):
            assert a <= b + 1e-12

    @pytest.mark.parametrize("window", [(-1.0, math.inf), (-math.inf, 3.0), (math.nan, 3.0)])
    def test_non_finite_window_rejected(self, window):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        with pytest.raises(ValueError, match="window edges must be finite"):
            oracle_spectrum(model, Sector.two_photon(0.25), window)

    @pytest.mark.parametrize("model,sector", [
        (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 0.7, 0.3), Sector.two_photon(0.25)),
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), Sector.driven()),
        (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.4), Sector.two_photon(0.75)),
    ])
    def test_sector_of_another_model_rejected(self, model, sector):
        # as by compute_spectrum: the driven model read with a two-photon
        # sector once returned its own levels as if the sector were its own
        with pytest.raises(ValueError, match="does not match model kind"):
            oracle_spectrum(model, sector, (-2.0, 3.0))

    def test_truncation_ceiling(self, monkeypatch):
        # the block's Gershgorin reach is boson number 88 here, so the bands
        # at 64 hold no start; with a ceiling of 16 they are the only bands
        # built, as twice the ceiling is below them, and the oracle tries
        # the ceiling and reports it
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.45)
        assert gershgorin_reach(model, Sector.two_photon(0.25), 8.0) == 88
        built = []
        monkeypatch.setattr("rabispec.oracle._bands",
                            lambda *a: built.append(a[2]) or _bands(*a))
        monkeypatch.setattr("rabispec.oracle.N_MAX_DEFAULT", 16)
        with pytest.raises(TruncationCeiling, match="truncation 16"):
            oracle_spectrum(model, Sector.two_photon(0.25), (-0.5, 8.0))
        assert built == [64]

    @pytest.mark.parametrize("drive", [0.0, 0.3])
    def test_doubling_reads_only_the_bands(self, monkeypatch, drive):
        # no TruncatedHamiltonian, and so no label list, is built per
        # truncation, on the chain route or the driven one
        monkeypatch.setattr("rabispec.oracle.build_hamiltonian",
                            lambda *a: pytest.fail("build_hamiltonian called"))
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.7, drive)
        assert oracle_spectrum(model, Sector.driven(), (-1.0, 5.0))[0]

    @pytest.mark.parametrize("model,sector,lo,width", STABILITY_WINDOWS)
    def test_truncation_stability_reported(self, model, sector, lo, width):
        # the truncation used lies at or above the block's Gershgorin reach,
        # and the levels returned are those of the block at twice it
        osec = map_sector(sector)
        e_min = default_window_min(model, sector) + lo
        window = (e_min, e_min + width)
        vals, n_used = oracle_spectrum(model, sector, window)
        assert vals
        assert n_used >= gershgorin_reach(model, sector, window[1])
        again = eigen_in_range(build_hamiltonian(model, osec, 2 * n_used), *window)
        assert vals == pytest.approx(again, abs=1e-9)

    # the four driven windows of the benchmark's oracle workload (seed 1)
    # and the driven sweep window at g = 2.5: each solved at 1,024 or 512
    # under the old 5 (E_max + delta + |drive| + |g| sqrt(n)) start, at 256
    # and 128 by the pairwise test of two truncations from the power of two
    # above the reach, and now at the block reach plus the decay tail
    @pytest.mark.parametrize("model,e_max,n_used", [
        (model, e_max, n_used) for (model, e_max), n_used
        in zip(DRIVEN_ORACLE_WINDOWS, (103, 121, 124, 126))
    ] + [(ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.6, 2.5, 0.2), None, 64)])
    def test_driven_truncation_used(self, monkeypatch, model, e_max, n_used):
        # each settles at its first truncation: dsbevd runs once, on the
        # leading n_used + 1 blocks, and the band at twice it is counted,
        # never solved
        solved = []
        monkeypatch.setattr("rabispec.oracle._sbevd", lambda b: solved.append(b.shape[1])
                            or _sbevd(b))
        e_min = default_window_min(model, Sector.driven())
        window = (e_min, e_min + 10.0 if e_max is None else e_max)
        assert oracle_spectrum(model, Sector.driven(), window)[1] == n_used
        assert solved == [2 * (n_used + 1)]

    @pytest.mark.parametrize("g,drive,e_max,n_used,count", [
        (1.0, 0.8, 60.0, 103, 123),
        (2.0, 0.5, 50.0, 121, 109),
        (2.5, 1.0, 40.0, 124, 94),
        (3.0, 0.3, 30.0, 126, 79),
    ])
    def test_driven_wide_window_pinned(self, g, drive, e_max, n_used, count):
        # wide windows like those of the benchmark's oracle workload, at
        # delta = 0.5: a change of eigensolver moves neither the truncation
        # nor the level count
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, g, drive)
        window = (default_window_min(model, Sector.driven()), e_max)
        vals, n = oracle_spectrum(model, Sector.driven(), window)
        assert (n, len(vals)) == (n_used, count)

    @pytest.mark.parametrize("kind,g,sector,e_max,n_used,count", CHAIN_WIDE_WINDOWS)
    def test_chain_wide_window_pinned(self, monkeypatch, kind, g, sector, e_max, n_used, count):
        # the chain windows of the benchmark's oracle workload, at delta =
        # 0.5: each settles at its first truncation, so dsterf runs once per
        # chain, and the chains at twice the truncation are counted, never
        # solved whole
        solved = []
        monkeypatch.setattr("rabispec.oracle._sterf", lambda d, e: solved.append(d.size)
                            or _sterf(d, e))
        model = ModelParams(kind, 1.0, 0.5, g)
        window = (default_window_min(model, sector), e_max)
        vals, n = oracle_spectrum(model, sector, window)
        assert (n, len(vals)) == (n_used, count)
        assert solved == [_bands(model, map_sector(sector), n)[0].shape[1] // 2] * 2

    @pytest.mark.parametrize("kind,g,sector,window,n_used,count", [
        (ModelKind.TWO_PHOTON, 0.49, Sector.two_photon(0.25), (15.0, 20.0), 1638, 26),
        (ModelKind.TWO_MODE, 0.95, Sector.two_mode(0.5), (25.0, 30.0), 495, 16),
        (ModelKind.TWO_PHOTON, 0.3, Sector.two_photon(0.25), (45.0, 50.0), 216, 6),
    ])
    def test_deep_chain_window_pinned(self, monkeypatch, kind, g, sector, window, n_used, count):
        # deep, narrow chain windows at delta = 0.5, where a whole spectrum
        # pays for many levels the window throws away: a change of chain
        # solver moves neither the truncation nor the level count, and each
        # settles at its first truncation, with one dsterf per chain
        solved = []
        monkeypatch.setattr("rabispec.oracle._sterf", lambda d, e: solved.append(d.size)
                            or _sterf(d, e))
        vals, n = oracle_spectrum(ModelParams(kind, 1.0, 0.5, g), sector, window)
        assert (n, len(vals)) == (n_used, count)
        assert len(solved) == 2

    def test_no_false_stop_far_below_zero(self):
        # the window's levels live near boson number g^2 = 49, where the
        # diagonal sits far above E_max: the blocks at 16 and 32 hold none of
        # them, so a start below the reach (83) would see no level at n and 2n
        # alike and return none
        model, _, window = FAR_BELOW_ZERO
        vals, n_used = oracle_spectrum(model, Sector.driven(), window)
        assert len(vals) == 8
        assert n_used <= 512
        h = build_hamiltonian(model, map_sector(Sector.driven()), 2 * n_used)
        assert vals == pytest.approx(eigen_in_range(h, *window), abs=1e-9)


def _reference_windows():
    for model, sector, lo, width in STABILITY_WINDOWS:
        e_min = default_window_min(model, sector) + lo
        yield model, sector, (e_min, e_min + width)
    yield FAR_BELOW_ZERO
    for kind, g, sector, e_max, _, _ in CHAIN_WIDE_WINDOWS:
        model = ModelParams(kind, 1.0, 0.5, g)
        yield model, sector, (default_window_min(model, sector), e_max)
    for model, e_max in DRIVEN_ORACLE_WINDOWS:
        yield model, Sector.driven(), (default_window_min(model, Sector.driven()), e_max)


def _off_edges(vals, window):
    """The levels farther than rounding (1e-14 max(1, |E|)) from both window
    edges: a level on an edge is in or out as its solver rounds it."""
    return np.array([x for x in vals
                     if min(abs(x - window[0]), abs(x - window[1])) > 1e-14 * max(1.0, abs(x))])


# (model, window) -> (oracle_spectrum's count, the reference's count) on the
# reference windows with a level on an edge.  At delta = drive = 0 the driven
# levels are n - g^2, twice each, and E_max = 8 of the g = 1 window is one of
# them: dsterf puts the pair at 7.999999999999997 (in), the reference's
# bisection at 8.000000000000001 (out).  The true count in (-2, 8] is 20.
EDGE_COUNTS = {
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.0, 1.0, 0.0), (-2.0, 8.0)): (20, 18),
}


@pytest.mark.parametrize("model,sector,window", list(_reference_windows()))
def test_matches_whole_window_doubling(model, sector, window):
    # the bound stops no later than the pairwise test of whole-window solves
    # and finds as many levels, and they are those of the reference's
    # bisection of the same truncation.  The reference may round a level
    # that lies exactly on an edge the other way; only the windows of
    # EDGE_COUNTS have one, and there both counts are pinned
    vals, n = oracle_spectrum(model, sector, window)
    ref, n_ref = doubling_oracle_spectrum(model, sector, window)
    assert n <= n_ref
    counts = (len(vals), len(ref))
    assert counts == EDGE_COUNTS.get((model, window), (counts[1], counts[1]))
    vals, ref = _off_edges(vals, window), _off_edges(ref, window)
    on_edge = (vals.size, ref.size) != counts
    assert on_edge == ((model, window) in EDGE_COUNTS)
    same_n = _off_edges(bisected_levels(model, sector, window, n), window)
    assert vals.shape == same_n.shape
    assert np.all(np.abs(vals - same_n) <= 1e-14 * np.maximum(1.0, np.abs(same_n)))


def _chain_windows(count, seed):
    """(model, sector, window): ``count`` drawn chain windows.

    The draws span both squeezed models up to 2g/omega = 0.98 and g/omega =
    0.97, from windows of width 1 at the ground state, where the tail past
    a reach of a few states sets the start, to width 40 shifted by up to 20.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind, delta = rng.choice([ModelKind.TWO_PHOTON, ModelKind.TWO_MODE]), rng.uniform(0.0, 1.0)
        if kind is ModelKind.TWO_PHOTON:
            model = ModelParams(kind, 1.0, delta, rng.uniform(-0.49, 0.49))
            sector = Sector.two_photon(rng.choice([0.25, 0.75]))
        else:
            model = ModelParams(kind, 1.0, delta, rng.uniform(-0.97, 0.97))
            sector = Sector.two_mode(rng.choice([0.5, 1.0, 1.5, 2.0]))
        e_min = default_window_min(model, sector) + rng.uniform(0.0, 20.0)
        out.append((model, sector, (e_min, e_min + rng.uniform(1.0, 40.0))))
    return out


def test_chain_start_settles_at_its_first_truncation(monkeypatch):
    # the start read off the reach and its decay tail lies at or above the
    # reach, settles the window at once with the levels of the doubling
    # reference, and stops no later.  Where it passes twice the reference's
    # first truncation, the power of two at or above the reach, it
    # overshoots what settles by less than a third: the chains at 3/4 of
    # it, above the reach, do not settle, so a cap there would cost a try
    tried = []
    monkeypatch.setattr("rabispec.oracle._bounded", lambda *a: tried.append(a[1]) or _bounded(*a))
    for model, sector, window in _chain_windows(100, 20261020):
        osec, tol = map_sector(sector), _STAB_TOL_FACTOR * model.omega
        tried.clear()
        vals, n = oracle_spectrum(model, sector, window)
        assert len(tried) == 1, (model, sector, window)
        reach = gershgorin_reach(model, sector, window[1])
        assert n >= reach
        if n > 2 * first_truncation(reach):
            short = 3 * n // 4
            bands, ns = _bands(model, osec, 2 * short)
            assert _bounded(_parts(bands), int(np.count_nonzero(ns <= short)),
                            *window, tol) is None, (model, sector, window)
        ref, n_ref = doubling_oracle_spectrum(model, sector, window)
        assert len(vals) == len(ref) and n <= n_ref, (model, sector, window)
        assert np.all(np.abs(np.array(vals) - ref) < tol)


@pytest.mark.parametrize("refused", [1, None])
def test_doubling_tries_the_ceiling_itself(monkeypatch, refused):
    # with a ceiling the start does not divide, the truncation after the
    # start is the ceiling itself, not the start doubled past it; refused
    # there too, the oracle reports the ceiling
    model, sector, window = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), \
        Sector.two_photon(0.25), (-0.5, 8.0)
    vals, start = oracle_spectrum(model, sector, window)
    ceiling = start + start // 2 + 1
    rows = []

    def refuse(chains, k, *args):
        rows.append(k)
        return None if refused is None or len(rows) <= refused else _bounded(chains, k, *args)

    monkeypatch.setattr("rabispec.oracle._bounded", refuse)
    monkeypatch.setattr("rabispec.oracle.N_MAX_DEFAULT", ceiling)
    # parity 0: each chain holds the states of boson numbers 0, 2, ..., n
    if refused is None:
        with pytest.raises(TruncationCeiling, match=f"truncation {ceiling}"):
            oracle_spectrum(model, sector, window)
    else:
        again, n = oracle_spectrum(model, sector, window)
        assert n == ceiling
        assert again == pytest.approx(vals, rel=0.0, abs=1e-9)
    assert rows == [start // 2 + 1, ceiling // 2 + 1]


@pytest.mark.parametrize("kind,g,sector,e_max,n_used,count",
                         [w for w in CHAIN_WIDE_WINDOWS if w[1] in (0.47, 0.49)])
def test_deep_levels_match_bisection(kind, g, sector, e_max, n_used, count):
    # the levels of the two deepest chain windows, two-photon g = 0.47 and
    # 0.49 at a truncation of 734 or 1,638, come from dsterf: they agree
    # with bisection of the same chains to 1e-14 max(1, |E|)
    model = ModelParams(kind, 1.0, 0.5, g)
    window = (default_window_min(model, sector), e_max)
    vals, n = oracle_spectrum(model, sector, window)
    assert (n, len(vals)) == (n_used, count)
    ref = np.sort(np.concatenate([
        scipy.linalg.eigvalsh_tridiagonal(d, e, select="v", select_range=window, tol=BISECT_TOL)
        for d, e in _jacobi_chains(_bands(model, map_sector(sector), n)[0])
    ]))
    assert np.all(np.abs(np.array(vals) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


# chain windows near collapse, 2g/omega and g/omega from 0.86 to 0.98, of
# width 4 from default_window_min shifted by 0 or 6
NEAR_COLLAPSE = [
    (kind, g, sector, delta, shift)
    for kind, g, sector, delta in [
        (ModelKind.TWO_PHOTON, 0.43, Sector.two_photon(0.25), 0.3),
        (ModelKind.TWO_PHOTON, 0.46, Sector.two_photon(0.75), 0.5),
        (ModelKind.TWO_PHOTON, 0.48, Sector.two_photon(0.25), 0.7),
        (ModelKind.TWO_PHOTON, 0.49, Sector.two_photon(0.75), 0.4),
        (ModelKind.TWO_MODE, 0.86, Sector.two_mode(0.5), 0.6),
        (ModelKind.TWO_MODE, 0.9, Sector.two_mode(1.0), 0.3),
        (ModelKind.TWO_MODE, 0.94, Sector.two_mode(1.5), 0.5),
        (ModelKind.TWO_MODE, 0.98, Sector.two_mode(0.5), 0.45),
    ]
    for shift in (0.0, 6.0)
]


@pytest.mark.parametrize("kind,g,sector,delta,shift", NEAR_COLLAPSE)
def test_levels_within_tol_of_four_times_the_truncation(kind, g, sector, delta, shift):
    # each level returned lies within the tolerance of a level of the block
    # at four times the truncation used, bisected, and the counts agree
    model = ModelParams(kind, 1.0, delta, g)
    e_min = default_window_min(model, sector) + shift
    window = (e_min, e_min + 4.0)
    vals, n = oracle_spectrum(model, sector, window)
    ref = bisected_levels(model, sector, window, 4 * n)
    assert vals and len(vals) == len(ref)
    assert np.all(np.abs(np.array(vals) - ref) < _STAB_TOL_FACTOR * model.omega)


def test_oracle_reads_no_solver_formula():
    # the oracle is the independent ground truth: from rabispec it may import
    # only the errors and the model's parameter types, never the formulas
    import rabispec.oracle

    imported = rabispec_imports(rabispec.oracle)
    allowed = {("models", name) for name in ("ModelKind", "ModelParams", "Sector")}
    assert all(module == "errors" or (module, name) in allowed for module, name in imported)


def test_oracle_names_no_eigenvector_routine():
    # the chains and the driven band are certified from their eigenvalues
    # and entries alone (_chain_radius): the oracle names no routine that
    # returns eigenvectors, in a call or an import
    import rabispec.oracle

    tree = ast.parse(Path(rabispec.oracle.__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name.split(".")[-1] for alias in node.names}
    assert "dsterf" in named and "eig_banded" in named
    vector_routines = {"dstein", "dstemr", "dstevr", "dsbevx", "eigh", "eigh_tridiagonal"}
    assert not named & vector_routines
