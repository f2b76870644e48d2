"""Minimal-solution series coefficients, norm convergence and wavefunctions."""

import math

import pytest

from rabispec import (
    ModelKind,
    ModelParams,
    NotAnEigenvalueWarning,
    Sector,
    TruncationInsufficient,
    compute_spectrum,
    eval_wavefunction,
    minimal_series,
    norm_tail_ratio,
    three_term_coeffs,
)
from rabispec.series import norm_term_log, norm_term_ratio


@pytest.fixture
def ref_series(two_photon_ref):
    model, sector, _, eigs = two_photon_ref
    return minimal_series(model, sector, eigs[0], order=400)


class TestMinimalSeries:
    def test_recurrence_residual(self, ref_series):
        # K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0, checked against the local scale
        s = ref_series
        coeffs = three_term_coeffs(s.model, s.sector, s.energy)
        for n in range(1, 300):
            terms = (
                s.minus[n + 1],
                coeffs.a(n) * s.minus[n],
                coeffs.b(n) * s.minus[n - 1],
            )
            scale = max(abs(t) for t in terms)
            if scale == 0.0:
                continue
            assert abs(sum(terms)) <= 1e-10 * scale

    def test_plus_pole_relation(self, ref_series):
        s = ref_series
        coeffs = three_term_coeffs(s.model, s.sector, s.energy)
        for n in range(0, 200, 7):
            expected = s.model.delta * s.minus[n] / coeffs.pole_denominator(n)
            assert s.plus[n] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_coefficients_are_the_ratio_products(self, ref_series):
        # minus[n+1] = ratio(n) * minus[n] in the same order, so exactly; the
        # logs may differ from math.log by an ulp per term
        s = ref_series
        minus, log_abs, sign = 1.0, 0.0, 1
        for n in range(s.order + 1):
            assert s.minus[n] == minus and s.sign_minus[n] == sign
            assert s.log_abs_minus[n] == pytest.approx(log_abs, rel=1e-12, abs=1e-12)
            if n < s.order:
                r = s.ratio(n)
                minus *= r
                log_abs += math.log(abs(r))
                sign *= 1 if r > 0.0 else -1

    def test_ratio_asymptotics(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        s = minimal_series(model, sector, eigs[0], order=2000)
        assert 1999.0 * s.ratio(1999) == pytest.approx(model.g / model.omega, rel=0.02)

    def test_decoupled_plus_vanishes(self):
        # at delta = 0 the companion component is identically zero; the
        # eigenvalues all sit on the pole set then, so evaluate off-spectrum
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.0, 0.2)
        sector = Sector.two_photon(0.25)
        with pytest.warns(NotAnEigenvalueWarning):
            s = minimal_series(model, sector, 0.3, order=150)
        assert all(p == 0.0 for p in s.plus)

    def test_non_root_is_flagged(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        off = [(model, sector, 0.5 * (eigs[0] + eigs[1]))]
        # every midpoint of adjacent levels in the window of the dark level E = 5.1427
        driven = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.7, 0.1, 0.3)
        result = compute_spectrum(driven, Sector.driven(), (-2.0, 6.0))
        levels = sorted(result.energies)
        assert len(levels) >= 9
        off += [(driven, Sector.driven(), 0.5 * (e + f)) for e, f in zip(levels, levels[1:])]
        for model, sector, energy in off:
            with pytest.warns(NotAnEigenvalueWarning):
                s = minimal_series(model, sector, energy, order=150)
            assert s.flagged, energy
            assert s.residual > 1e-4, energy

    def test_minimality_vs_forward_recursion(self, ref_series):
        # forward recursion from the same two starting values is contaminated
        # by the dominant solution and must diverge from the backward pass
        s = ref_series
        coeffs = three_term_coeffs(s.model, s.sector, s.energy)
        fwd_prev, fwd = s.minus[0], s.minus[1] * (1.0 + 1e-12)
        separated = False
        for n in range(1, 201):
            fwd_prev, fwd = fwd, -coeffs.a(n) * fwd - coeffs.b(n) * fwd_prev
            ref = s.minus[n + 1]
            if ref != 0.0 and abs(fwd) > 1e3 * abs(ref):
                separated = True
                break
        assert separated

    @pytest.mark.parametrize("model, sector, window", [
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2), Sector.two_photon(0.25), (-0.5, 8.0)),
        # holds the dark level at E = 5.1427, where |F| = 126 but W_5 and W_6 vanish
        (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.7, 0.1, 0.3), Sector.driven(), (-2.0, 6.0)),
    ], ids=["two-photon", "driven"])
    def test_residual_is_the_level_residual(self, model, sector, window):
        # the series and compute_spectrum judge an energy by one rule, each
        # over its own truncation, so both read it small at every level
        result = compute_spectrum(model, sector, window)
        levels = result.roots + result.flagged
        assert len(levels) >= 9
        for level in levels:
            s = minimal_series(model, sector, level.energy, order=50)
            assert level.residual <= 1e-9, level.energy
            assert s.residual <= 1e-9, level.energy
            assert not s.flagged

    def test_order_validation(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        with pytest.raises(ValueError):
            minimal_series(model, sector, eigs[0], order=1)


class TestNormConvergence:
    def test_tail_ratio_below_one(self, ref_series):
        ratio = norm_tail_ratio(ref_series)
        assert 0.0 < ratio < 1.0

    def test_tail_ratio_limit_two_photon(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        s = minimal_series(model, sector, eigs[0], order=2000)
        t2 = model.g / model.omega
        assert norm_tail_ratio(s) == pytest.approx(4.0 * t2 * t2, rel=0.05)

    def test_norm_terms_eventually_decrease(self, ref_series):
        logs = [norm_term_log(ref_series, n) for n in (100, 200, 300, 400)]
        assert logs == sorted(logs, reverse=True)

    def test_short_series_rejected(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        s = minimal_series(model, sector, eigs[0], order=50)
        with pytest.raises(ValueError):
            norm_tail_ratio(s)


class TestWavefunction:
    def test_value_at_origin(self, ref_series):
        psi_plus, psi_minus = eval_wavefunction(ref_series, 0.0)
        assert psi_minus == 1.0
        assert psi_plus == ref_series.plus[0]

    def test_decoupled_plus_component_zero(self):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.0, 0.2)
        sector = Sector.two_photon(0.25)
        with pytest.warns(NotAnEigenvalueWarning):
            s = minimal_series(model, sector, 0.3, order=150)
        psi_plus, psi_minus = eval_wavefunction(s, 0.7)
        assert psi_plus == 0.0
        assert psi_minus != 0.0

    def test_truncation_guard(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        s = minimal_series(model, sector, eigs[0], order=4)
        with pytest.raises(TruncationInsufficient):
            eval_wavefunction(s, 5.0)


def test_norm_term_ratio_matches_term_logs(ref_series):
    # consecutive terms of the Bargmann-norm series, from the ratios and from the lgamma weights
    for n in (0, 1, 50, 200, 399):
        expected = math.exp(norm_term_log(ref_series, n + 1) - norm_term_log(ref_series, n))
        assert norm_term_ratio(ref_series, n) == pytest.approx(expected, rel=1e-9)
