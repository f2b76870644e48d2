"""End-to-end acceptance gate.

Every computed spectrum is cross-validated in both directions against the
independent truncated Fock-space diagonalization at stated tolerances, and the
analytic structure (recurrence asymptotics, norm convergence, pole divergence,
decoupling limits, symmetry, self-consistency, differential-equation
residuals) is checked directly.

Pole structure (``test_divergence_at_pole_energies``): at the n-th pole
energy E_n the split eigencondition W_n (``reference.split_spectral_value`` at
index n) has a simple pole, so it changes sign across E_n and grows as
1/(E - E_n).
F = W_0 diverges at E_0.  For n >= 1 F meets the divergent coefficient a(n)
only inside the fraction, where it sends R_{n-1} to zero: F has a removable
singularity at E_n, and its limit there is the terminating fraction
a(0) - b(1)/(a(1) - ... - b(n-1)/a(n-1)).
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rabispec import (
    ModelKind,
    ModelParams,
    NotAnEigenvalueWarning,
    Sector,
    build_hamiltonian,
    closed_form_spectrum_g0,
    compute_spectrum,
    map_sector,
    minimal_series,
    norm_tail_ratio,
    oracle_spectrum,
)
from rabispec.models import (
    asymptotic_roots,
    coefficient_block,
    distance_to_pole_set,
    pole_energy,
    root_factor,
)
from rabispec.oracle import eigen_in_range
from rabispec.spectral import RESIDUAL_CAP, SpectrumOptions, default_window_min, eps_exceptional

from reference import (
    BlockCoeffs,
    backward_recursion_ratio,
    eval_continued_fraction,
    split_spectral_value,
)
from test_contfrac import _random_cases

MATCH_TOL = 1e-7


def assert_two_way_match(model, sector, window, tol=MATCH_TOL):
    """Every solver root has an oracle partner and vice versa.

    Oracle levels within the exceptional-candidate distance of a pole energy
    are exempt: the transcendental function cannot represent eigenvalues on
    the pole set.
    """
    result = compute_spectrum(model, sector, window)
    oracle_vals, _ = oracle_spectrum(model, sector, window)
    eps = eps_exceptional(model)
    for e in result.energies:
        assert oracle_vals and min(abs(e - o) for o in oracle_vals) <= tol, (
            f"solver root {e} has no oracle partner"
        )
    for o in oracle_vals:
        if distance_to_pole_set(model, sector, o) < eps:
            continue
        assert result.energies and min(abs(o - e) for e in result.energies) <= tol, (
            f"oracle level {o} has no solver partner"
        )


def assert_every_level_found(model, sector, window, tol=MATCH_TOL):
    """The roots and the flagged levels together are the oracle's levels, one for one."""
    result = compute_spectrum(model, sector, window)
    found = sorted(result.energies + [r.energy for r in result.flagged])
    oracle_vals, _ = oracle_spectrum(model, sector, window)
    assert len(found) == len(oracle_vals), (found, oracle_vals)
    for e, o in zip(found, oracle_vals):
        assert abs(e - o) <= tol, (e, o)
    return result


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.05, 0.2, 0.4])
@pytest.mark.parametrize("q", [0.25, 0.75])
def test_two_photon_cross_validation(delta, g, q):
    model = ModelParams(ModelKind.TWO_PHOTON, 1.0, delta, g)
    assert_two_way_match(model, Sector.two_photon(q), (-0.5, 8.0))


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.1, 0.4, 0.8])
@pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5])
def test_two_mode_cross_validation(delta, g, kappa):
    model = ModelParams(ModelKind.TWO_MODE, 1.0, delta, g)
    assert_two_way_match(model, Sector.two_mode(kappa), (-1.0, 8.0))


@pytest.mark.parametrize("delta", [0.4, 0.7])
@pytest.mark.parametrize("g", [0.1, 0.7, 1.2])
@pytest.mark.parametrize("drive", [0.0, 0.3])
def test_driven_cross_validation(delta, g, drive):
    model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, delta, g, drive)
    assert_two_way_match(model, Sector.driven(), (-2.0, 6.0))


def test_near_degenerate_pair_in_one_grid_interval():
    # strong-coupling doublet just below E_0 = -g^2/omega = -1.96, less than a
    # third of a sign-scan grid step apart: both levels must be resolved
    model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.2, 1.4, 0.0)
    sector = Sector.driven()
    window = (-2.5, 0.0)
    oracle_vals, _ = oracle_spectrum(model, sector, window)
    pair = [o for o in oracle_vals if -1.975 < o < pole_energy(model, sector, 0)]
    assert pair == pytest.approx([-1.970030465753357, -1.9620048682187303], abs=1e-9)
    # 0.025 = omega/40, the default step of the sign-scan grid this solver used
    assert pair[1] - pair[0] < 0.025 / 3.0
    energies = compute_spectrum(model, sector, window).energies
    for o in pair:
        assert min(abs(o - e) for e in energies) <= MATCH_TOL


@pytest.mark.parametrize("g", [1.5, 2.0, 2.5])
def test_dark_levels_found(g):
    # driven windows with "dark" levels about 0.42 omega from a pole: each is
    # a zero/pole pair narrower than 1e-6 on every W_k with small k, so a sign
    # scan of W_0, W_base and W_base+1 loses 1, 2 and 4 of them.  Each
    # regular level also reads as one: the smallest |W_k| over k = 0, E_base's
    # index and the next read 2.0e-3 at the g = 2.5 level E = -6.46477,
    # where W_25 is 7.4e-13
    model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.6, g, 0.2)
    sector = Sector.driven()
    e_min = default_window_min(model, sector)
    result = assert_every_level_found(model, sector, (e_min, e_min + 10.0))
    for root in result.roots:
        assert root.residual <= RESIDUAL_CAP, root.energy
        with warnings.catch_warnings():
            warnings.simplefilter("error", NotAnEigenvalueWarning)
            assert not minimal_series(model, sector, root.energy, order=200).flagged, root.energy


@pytest.mark.parametrize("model,sector", [
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.46), Sector.two_photon(0.25)),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.92), Sector.two_mode(1.5)),
], ids=["two-photon", "two-mode"])
def test_near_collapse_levels_found(model, sector):
    # at 2g/omega = 0.92 and g/omega = 0.92 the levels of the recurrence
    # truncated at 64 rows sit off the true ones although the edge counts agree
    e_min = default_window_min(model, sector)
    assert_every_level_found(model, sector, (e_min, e_min + 4.0))


@pytest.mark.parametrize("model,sector,levels", [
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.495), Sector.two_photon(0.25), 14),
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.498), Sector.two_photon(0.25), 23),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.99), Sector.two_mode(1.0), 16),
], ids=["two-photon-0.99", "two-photon-0.996", "two-mode-0.99"])
def test_deep_collapse_levels_found(model, sector, levels):
    # 2g/omega = 0.99 and 0.996, g/omega = 0.99: the recurrence needs
    # thousands of rows, and the truncated count holds too few levels on the way
    e_min = default_window_min(model, sector)
    result = assert_every_level_found(model, sector, (e_min, e_min + 4.0))
    assert len(result.roots) + len(result.flagged) == levels


@st.composite
def _drawn_windows(draw):
    """(model, sector, width-6 window), |g| up to 0.92 of the coupling bound."""
    kind = draw(st.sampled_from(list(ModelKind)))
    delta = draw(st.floats(0.0, 1.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    drive = 0.0
    if kind is ModelKind.TWO_PHOTON:
        g = draw(st.floats(0.02, 0.46))
        sector = Sector.two_photon(draw(st.sampled_from([0.25, 0.75])))
    elif kind is ModelKind.TWO_MODE:
        g = draw(st.floats(0.02, 0.92))
        sector = Sector.two_mode(draw(st.sampled_from([0.5, 1.0, 1.5])))
    else:
        g = draw(st.floats(0.05, 2.5))
        drive = draw(st.floats(-0.5, 0.5))
        sector = Sector.driven()
    model = ModelParams(kind, 1.0, delta, sign * g, drive)
    e_min = default_window_min(model, sector) + draw(st.floats(0.0, 4.0))
    return model, sector, (e_min, e_min + 6.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_drawn_windows())
def test_every_level_found_on_drawn_windows(case):
    model, sector, (lo, hi) = case
    # a level within rounding of an edge is in the window or not by chance
    # (drawn edges can land on the pole lattice, where delta = 0 puts levels)
    near_edges, _ = oracle_spectrum(model, sector, (lo - MATCH_TOL, hi + MATCH_TOL))
    assume(all(min(abs(o - lo), abs(o - hi)) > 1e-9 for o in near_edges))
    assert_every_level_found(model, sector, (lo, hi))


@pytest.mark.parametrize("kind", [ModelKind.TWO_PHOTON, ModelKind.TWO_MODE])
def test_minimal_ratio_asymptotics(kind):
    # n * r_n -> g / omega for the pairing models, sampled at n = 2000
    rng = random.Random(20260824 if kind is ModelKind.TWO_PHOTON else 20260825)
    g_hi = 0.45 if kind is ModelKind.TWO_PHOTON else 0.9
    for _ in range(3):
        g = rng.uniform(0.05, g_hi)
        model = ModelParams(kind, 1.0, rng.uniform(0.1, 1.0), g)
        if kind is ModelKind.TWO_PHOTON:
            sector = Sector.two_photon(rng.choice([0.25, 0.75]))
        else:
            sector = Sector.two_mode(rng.choice([0.5, 1.0, 1.5]))
        energy = rng.uniform(-0.4, 4.0)
        if distance_to_pole_set(model, sector, energy) < 1e-3:
            energy += 2e-3
        coeffs = BlockCoeffs(model, sector, energy)
        r = backward_recursion_ratio(coeffs, start=2000, tail_depth=4096)
        assert 2000.0 * r == pytest.approx(g, rel=0.01)


_NORM_POINTS = [
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), Sector.two_photon(0.25), (-0.5, 8.0)),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4), Sector.two_mode(1.0), (-1.0, 8.0)),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.7, 0.3), Sector.driven(), (-2.0, 6.0)),
]


@pytest.mark.parametrize("model,sector,window", _NORM_POINTS,
                         ids=[m.kind.value for m, _, _ in _NORM_POINTS])
def test_norm_series_tail_ratio(model, sector, window):
    # limiting norm-term ratio: 4 t2^2, t2^2 and 0; all certify entireness
    energies = compute_spectrum(model, sector, window).energies[:3]
    assert len(energies) == 3
    t2 = asymptotic_roots(model).t2
    for e in energies:
        s = minimal_series(model, sector, e, 2000)
        ratio = norm_tail_ratio(s)
        if model.kind is ModelKind.TWO_PHOTON:
            assert ratio == pytest.approx(4.0 * t2 * t2, rel=0.05)
        elif model.kind is ModelKind.TWO_MODE:
            assert ratio == pytest.approx(t2 * t2, rel=0.05)
        else:
            assert ratio < 0.01
            shorter = norm_tail_ratio(minimal_series(model, sector, e, 1000))
            assert ratio < shorter


@pytest.mark.parametrize("model,sector", [(m, s) for m, s, _ in _NORM_POINTS],
                         ids=[m.kind.value for m, _, _ in _NORM_POINTS])
@pytest.mark.parametrize("n", range(5))
def test_divergence_at_pole_energies(model, sector, n):
    # W_n has a simple pole at E_n; F (= W_0) diverges at E_0 and has a
    # removable singularity at E_n for n >= 1 (see the module docstring)
    pole = pole_energy(model, sector, n)

    def w(e):
        return split_spectral_value(model, sector, e, split=n)

    assert (w(pole - 1e-8) < 0.0) != (w(pole + 1e-8) < 0.0)
    for side in (-1.0, 1.0):
        ratio = abs(w(pole + side * 1e-8)) / abs(w(pole + side * 1e-7))
        assert ratio == pytest.approx(10.0, rel=1e-3)

    f_lo = split_spectral_value(model, sector, pole - 1e-8, 0)
    f_hi = split_spectral_value(model, sector, pole + 1e-8, 0)
    if n == 0:
        assert abs(f_lo) > 1e6 and abs(f_hi) > 1e6
        return
    # limit of F at E_n: a(n) sends R_{n-1} to zero, truncating the fraction
    a, b = coefficient_block(model, sector, np.array([pole]), 0, n - 1)
    a, b = a[:, 0].tolist(), b[:, 0].tolist()
    limit = a[n - 1]
    for k in range(n - 1, 0, -1):
        limit = a[k - 1] - b[k] / limit
    assert 0.5 * (f_lo + f_hi) == pytest.approx(limit, rel=1e-10)


_WEAK_CASES = [
    (ModelKind.TWO_PHOTON, 0.25, (-0.45, 3.5)),
    (ModelKind.TWO_MODE, 1.0, (-0.9, 3.5)),
    (ModelKind.DRIVEN_RABI, None, (-0.9, 2.5)),
]


@pytest.mark.parametrize("kind,sector_value,window", _WEAK_CASES,
                         ids=[k.value for k, _, _ in _WEAK_CASES])
@pytest.mark.parametrize("g,tol", [(1e-3, 1e-2), (1e-2, 1e-1)])
def test_weak_coupling_continuity(kind, sector_value, window, g, tol):
    # the spectrum joins the decoupled closed form continuously as g -> 0
    if kind is ModelKind.DRIVEN_RABI:
        model = ModelParams(kind, 1.0, 0.35, g, 0.2)
        ref_model = ModelParams(kind, 1.0, 0.35, 0.0, 0.2)
        sector = Sector.driven()
    else:
        model = ModelParams(kind, 1.0, 0.35, g)
        ref_model = ModelParams(kind, 1.0, 0.35, 0.0)
        sector = (Sector.two_photon(sector_value) if kind is ModelKind.TWO_PHOTON
                  else Sector.two_mode(sector_value))
    levels = [e for e in closed_form_spectrum_g0(ref_model, sector, 10)
              if window[0] <= e <= window[1]]
    energies = compute_spectrum(model, sector, window).energies
    assert len(energies) == len(levels)
    for e in energies:
        assert min(abs(e - lv) for lv in levels) <= tol
    for lv in levels:
        assert min(abs(lv - e) for e in energies) <= tol


class TestSelfConsistency:
    def test_root_stable_under_depth_doubling(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        roots = [
            compute_spectrum(
                model, sector, (0.2, 0.6), SpectrumOptions(root_abs_tol=1e-12, cf_max_depth=depth)
            ).energies[0]
            for depth in (2**14, 2**15)
        ]
        assert abs(roots[0] - roots[1]) <= 1e-10

    def test_oracle_stable_under_truncation_doubling(self, two_photon_ref):
        model, sector, window, _ = two_photon_ref
        vals, n_used = oracle_spectrum(model, sector, window)
        h = build_hamiltonian(model, map_sector(sector), 2 * n_used)
        doubled = eigen_in_range(h, *window)
        assert len(vals) == len(doubled)
        for a, b in zip(vals, doubled):
            assert abs(a - b) <= 1e-9

    def test_evaluator_agreement_random(self):
        # two independent continued-fraction evaluators on 100 random points
        for model, sector, energy in _random_cases(100, seed=20260824):
            coeffs = BlockCoeffs(model, sector, energy)
            cf = eval_continued_fraction(coeffs)
            back = backward_recursion_ratio(coeffs, tail_depth=8192)
            assert cf.converged
            assert abs(cf.value - back) <= 1e-9 * max(1.0, abs(cf.value))


_SYMMETRY_CASES = [
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.3), Sector.two_photon(0.75), (-0.5, 5.0)),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.6), Sector.two_mode(1.5), (-1.0, 5.0)),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 0.8, 0.25), Sector.driven(), (-2.0, 4.0)),
]


@pytest.mark.parametrize("model,sector,window", _SYMMETRY_CASES,
                         ids=[m.kind.value for m, _, _ in _SYMMETRY_CASES])
def test_coupling_sign_symmetry(model, sector, window):
    # g -> -g (jointly with drive -> -drive) is a unitary spin rotation
    flipped = ModelParams(model.kind, model.omega, model.delta, -model.g, -model.drive)
    a = compute_spectrum(model, sector, window).energies
    b = compute_spectrum(flipped, sector, window).energies
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, abs=1e-9)
    oa, _ = oracle_spectrum(model, sector, window)
    ob, _ = oracle_spectrum(flipped, sector, window)
    assert oa == pytest.approx(ob, abs=1e-12)


def _series_sums(coeffs, z):
    """Partial sums of a power series and its first two derivatives."""
    s0 = s1 = s2 = 0.0
    for n, c in enumerate(coeffs):
        s0 += c * z**n
        if n >= 1:
            s1 += n * c * z ** (n - 1)
        if n >= 2:
            s2 += n * (n - 1) * c * z ** (n - 2)
    return s0, s1, s2


def _ode_residual(model, sector, energy, z):
    """Worst residual of the coupled differential system at one point."""
    s = minimal_series(model, sector, energy, 300)
    p0, p1, _ = _series_sums(s.plus, z)
    m0, m1, m2 = _series_sums(s.minus, z)
    w, d, g, e = model.omega, model.delta, model.g, energy
    if model.kind is ModelKind.TWO_PHOTON:
        f = root_factor(model)
        q = sector.value
        r1 = 2.0 * w * f * (z * p1 + q * p0) - (0.5 * w + e) * p0 + d * m0
        r2 = (
            8.0 * g * z * m2
            + (-2.0 * w * (2.0 - f * f) * z + 16.0 * g * q) * m1
            + (2.0 * g * z - 2.0 * w * (2.0 - f * f) * q + (0.5 * w + e) * f) * m0
            - f * d * p0
        )
    elif model.kind is ModelKind.TWO_MODE:
        f = root_factor(model)
        k = sector.value
        r1 = 2.0 * w * f * (z * p1 + k * p0) - (w + e) * p0 + d * m0
        r2 = (
            2.0 * g * z * m2
            + (-2.0 * w * (2.0 - f * f) * z + 4.0 * g * k) * m1
            + (2.0 * g * z - 2.0 * w * (2.0 - f * f) * k + (e + w) * f) * m0
            - f * d * p0
        )
    else:
        dr = model.drive
        r1 = w * z * p1 + (dr - g * g / w - e) * p0 + d * m0
        r2 = (
            w * (z - 2.0 * g / w) * m1
            + (-2.0 * g * z + 3.0 * g * g / w - dr - e) * m0
            + d * p0
        )
    return max(abs(r1), abs(r2))


@pytest.mark.parametrize("model,sector,window", _NORM_POINTS,
                         ids=[m.kind.value for m, _, _ in _NORM_POINTS])
def test_wavefunctions_solve_differential_system(model, sector, window):
    opts = SpectrumOptions(root_abs_tol=1e-12)
    energies = compute_spectrum(model, sector, window, opts).energies[:5]
    assert len(energies) == 5
    for e in energies:
        for z in (0.1, 0.5, 1.0):
            assert _ode_residual(model, sector, e, z) < 1e-8


# Lentz gives F(0.29999999999999993) = 0.0 exactly at these parameters and the
# batched evaluation gives F = 0.0 exactly at 0.30000000000000004; the level is
# 0.3.  A window edge on it must not lose the level or report it twice.
_EXACT_ZERO_WINDOWS = [(0.29999999999999993, 1.0), (0.2, 0.29999999999999993), (0.05, 0.55)]


@pytest.mark.parametrize("window", _EXACT_ZERO_WINDOWS, ids=["from-zero", "to-zero", "around"])
@pytest.mark.parametrize("g", [0.3, -0.3])
def test_exact_zero_sample_is_one_root(window, g):
    model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, g)
    sector = Sector.two_photon(0.75)
    result = compute_spectrum(model, sector, window)
    found = result.energies + [r.energy for r in result.flagged]
    near = [e for e in found if abs(e - 0.3) <= MATCH_TOL]
    if window[0] <= 0.3 <= window[1]:
        assert len(near) == 1
    else:
        # 0.3 lies just above the window that ends at 0.29999999999999993; a
        # root on that edge is the same level, but none is required there
        assert len(near) <= 1
    # widened by the match tolerance so that a root on a window edge has its level
    oracle_vals, _ = oracle_spectrum(model, sector, (window[0] - MATCH_TOL, window[1] + MATCH_TOL))
    for e in found:
        assert min(abs(e - o) for o in oracle_vals) <= MATCH_TOL
