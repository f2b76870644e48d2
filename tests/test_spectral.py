"""Transcendental eigenvalue functions and pole-aware root finding."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from rabispec import (
    EmptyWindow,
    ModelKind,
    ModelParams,
    PoleCollision,
    Sector,
    compute_spectrum,
    eval_continued_fraction,
    pole_energies,
    refine_root,
    scan_brackets,
    spectral_function,
    split_spectral_value,
)
from rabispec.errors import CollapseRegimeWarning, SignLostWarning
from rabispec.models import distance_to_pole_set
from rabispec.spectral import (
    RESIDUAL_CAP,
    Bracket,
    SpectrumOptions,
    default_grid_step,
    default_window_min,
    eps_exceptional,
    poles_in_window,
    split_values,
)

from conftest import ConstCoeffs
from test_contfrac import _random_cases


class TestSpectralFunction:
    def test_small_at_reference_eigenvalues(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        for e in eigs[:5]:
            assert abs(spectral_function(model, sector, e).value) <= 1e-6

    def test_near_pole_flag(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energies(model, sector, 1)[1]
        assert spectral_function(model, sector, pole + 5e-7).near_pole
        assert not spectral_function(model, sector, pole + 1e-5).near_pole

    def test_pole_collision(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energies(model, sector, 0)[0]
        with pytest.raises(PoleCollision):
            spectral_function(model, sector, pole + 1e-12)

    def test_constant_coefficient_surrogate(self):
        # R = -1 from the fraction, plus a(0) = 3
        coeffs = ConstCoeffs(3.0, 2.0)
        value = eval_continued_fraction(coeffs).value + coeffs.a(0)
        assert value == pytest.approx(2.0, abs=1e-11)


class TestSplitFunction:
    def test_split_zero_equals_plain(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        for e in (-0.3, 0.7, 2.4):
            f = spectral_function(model, sector, e).value
            w = split_spectral_value(model, sector, e, split=0)
            assert w == pytest.approx(f, rel=1e-9, abs=1e-12)

    def test_same_roots_at_higher_split(self, two_photon_ref):
        # bracket the third eigenvalue on the split function directly
        model, sector, _, eigs = two_photon_ref
        target = eigs[2]

        def w(e):
            return split_spectral_value(model, sector, e, split=3)

        root = scipy.optimize.brentq(w, target - 0.05, target + 0.05, xtol=1e-12)
        assert root == pytest.approx(target, abs=1e-8)

    def test_explicit_pole_at_matching_index(self, two_photon_ref):
        # the split function diverges at its own pole energy; the plain
        # function does not (the coefficient pole truncates the fraction)
        model, sector, _, _ = two_photon_ref
        for n in range(1, 4):
            pole = pole_energies(model, sector, n)[n]
            assert abs(split_spectral_value(model, sector, pole + 1e-8, split=n)) > 1e6
            assert abs(spectral_function(model, sector, pole + 1e-8).value) < 1e3


class TestScanAndRefine:
    def test_single_eigenvalue_window(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        brackets = scan_brackets(model, sector, (0.2, 0.6), 0.02)
        assert len(brackets) == 1
        assert brackets[0].lo < eigs[0] < brackets[0].hi

    def test_empty_below_ground_state(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        assert scan_brackets(model, sector, (-3.0, -2.0), 0.02) == []

    def test_refine_hits_oracle_value(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        (br,) = scan_brackets(model, sector, (0.2, 0.6), 0.02)
        rec = refine_root(model, sector, br, abs_tol=1e-10)
        assert rec.energy == pytest.approx(eigs[0], abs=1e-7)
        assert rec.residual <= RESIDUAL_CAP
        assert not rec.sign_lost

    def test_abs_tol_self_consistency(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        (br,) = scan_brackets(model, sector, (0.2, 0.6), 0.02)
        coarse = refine_root(model, sector, br, abs_tol=1e-6)
        fine = refine_root(model, sector, br, abs_tol=1e-10)
        assert abs(coarse.energy - fine.energy) <= 1e-6

    def test_surrogate_root_closed_form(self):
        # E enters only through a(0): F(E) = -1 + (E - 2), root at E = 3
        base = ConstCoeffs(3.0, 2.0)

        def f(e):
            return eval_continued_fraction(base).value + (e - 2.0)

        root = scipy.optimize.brentq(f, 2.0, 4.0, xtol=1e-14)
        assert root == pytest.approx(3.0, abs=1e-12)

    def test_invalid_bracket_rejected(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        with pytest.raises(ValueError):
            refine_root(model, sector, Bracket(0.2, 0.6, 1.0, 2.0))


class TestComputeSpectrum:
    def test_reference_point_matches_oracle_list(self, two_photon_ref):
        model, sector, window, eigs = two_photon_ref
        result = compute_spectrum(model, sector, window)
        assert len(result.energies) == len(eigs)
        for got, ref in zip(result.energies, eigs):
            assert got == pytest.approx(ref, abs=1e-7)

    def test_result_invariants(self, two_photon_ref):
        # the driven window holds roots found on W_k where |F| is far above the cap
        driven_model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.7, 0.1, 0.3)
        driven = (driven_model, Sector.driven(), (-2.0, 6.0))
        for model, sector, window in (two_photon_ref[:3], driven):
            result = compute_spectrum(model, sector, window)
            assert result.energies == sorted(result.energies)
            eps = eps_exceptional(model)
            for rec in result.roots:
                assert rec.residual <= RESIDUAL_CAP
                assert distance_to_pole_set(model, sector, rec.energy) >= eps
            assert result.poles == poles_in_window(model, sector, *window)

    def test_window_below_ground_state(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        result = compute_spectrum(model, sector, (-3.0, -1.0))
        assert result.roots == []

    def test_sign_of_g_invariance(self):
        kw = dict(omega=1.0, delta=0.5)
        sector = Sector.two_photon(0.75)
        win = (-0.5, 5.0)
        plus = compute_spectrum(ModelParams(ModelKind.TWO_PHOTON, g=0.2, **kw), sector, win)
        minus = compute_spectrum(ModelParams(ModelKind.TWO_PHOTON, g=-0.2, **kw), sector, win)
        assert len(plus.energies) == len(minus.energies)
        for a, b in zip(plus.energies, minus.energies):
            assert a == pytest.approx(b, abs=1e-9)

    def test_halving_grid_step_keeps_roots(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        win = (-0.5, 4.0)
        step = default_grid_step(model)
        coarse = compute_spectrum(model, sector, win, SpectrumOptions(grid_step=step))
        fine = compute_spectrum(model, sector, win, SpectrumOptions(grid_step=step / 2.0))
        for e in coarse.energies:
            assert any(abs(e - f) < 1e-8 for f in fine.energies)

    def test_empty_window_error(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energies(model, sector, 1)[1]
        with pytest.raises(EmptyWindow):
            scan_brackets(model, sector, (pole - 5e-7, pole + 5e-7), 1e-7)

    def test_window_validation(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        with pytest.raises(ValueError):
            compute_spectrum(model, sector, (2.0, 1.0))

    def test_default_window_min_below_ground(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        assert default_window_min(model, sector) < eigs[0]


class TestDrivenHiddenPairs:
    def test_roots_inside_tight_zero_pole_pairs_found(self):
        # these two eigenvalues hide inside zero/pole pairs of the plain
        # function only a few 1e-3 wide, far from any analytic pole
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, 0.3)
        sector = Sector.driven()
        result = compute_spectrum(model, sector, (5.0, 7.5))
        for ref in (5.3602783473592295, 6.3376683651256469):
            assert any(abs(e - ref) < 1e-7 for e in result.energies)

    def test_eigenvalue_exactly_on_pole_is_not_reported_regular(self):
        # at these parameters the oracle has an eigenvalue exactly at the
        # second pole energy (0.94); the continued fraction cannot represent
        # it, and it must not surface as a regular root
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, 0.3)
        sector = Sector.driven()
        result = compute_spectrum(model, sector, (0.5, 1.3))
        for e in result.energies:
            assert abs(e - 0.94) > 1e-5


class TestBatchedEigencondition:
    def test_agrees_with_lentz_on_random_points(self):
        # one batch: 100 random points at split indices 0-4
        cases = _random_cases(100)
        for model, sector in {(m, s) for m, s, _ in cases}:
            energies = [e for m, s, e in cases if (m, s) == (model, sector)]
            lanes = np.repeat(energies, 5)
            splits = np.tile(np.arange(5), len(energies))
            got = split_values(model, sector, lanes, splits)
            for e, k, w in zip(lanes, splits, got):
                if k == 0:
                    ref = spectral_function(model, sector, e).value
                else:
                    ref = split_spectral_value(model, sector, e, split=int(k))
                assert abs(w - ref) <= 1e-9 * max(1.0, abs(ref)), (model, e, k)

    def test_small_at_reference_eigenvalues(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        values = split_values(model, sector, eigs, 0)
        assert values.shape == (len(eigs),)
        assert np.all(np.abs(values) <= 1e-6)

    def test_pole_lane_is_nan_and_isolated(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energies(model, sector, 2)[2]
        energies = np.array([0.3, 1.1, pole + 1e-10, 2.6, 4.2])
        splits = np.array([0, 1, 2, 2, 3])
        batch = split_values(model, sector, energies, splits)
        assert math.isnan(batch[2])
        with pytest.raises(PoleCollision):
            split_spectral_value(model, sector, pole + 1e-10, split=2)
        keep = [0, 1, 3, 4]
        alone = split_values(model, sector, energies[keep], splits[keep])
        np.testing.assert_array_equal(batch[keep], alone)


class TestRefineSignLost:
    def test_bracket_on_a_pole_loses_the_sign(self, two_photon_ref):
        # both ends and every trial point sit within eps_pole of E_1
        model, sector, _, _ = two_photon_ref
        p = pole_energies(model, sector, 1)[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = refine_root(model, sector, Bracket(p - 4e-10, p + 4e-10, -1.0, 1.0),
                              abs_tol=1e-12)
        assert rec.sign_lost
        assert [type(w.message) for w in caught] == [SignLostWarning]


def test_warning_types_exported():
    import rabispec

    assert rabispec.SignLostWarning is SignLostWarning
    assert rabispec.CollapseRegimeWarning is CollapseRegimeWarning
    assert "ConvergenceFailure" not in rabispec.__all__
    assert not hasattr(rabispec, "ConvergenceFailure")
