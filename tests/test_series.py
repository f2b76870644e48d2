"""Minimal-solution series coefficients, norm convergence and wavefunctions."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from rabispec import (
    ModelKind,
    ModelParams,
    NotAnEigenvalueWarning,
    PoleCollision,
    Sector,
    TruncationInsufficient,
    ZeroCoupling,
    compute_spectrum,
    eval_wavefunction,
    minimal_series,
    norm_tail_ratio,
    oracle_spectrum,
)
from rabispec import series as series_module
from rabispec.models import coefficient_block, pole_energy
from rabispec.series import norm_term_log, norm_term_ratio
from rabispec.spectral import default_window_min

from reference import BlockCoeffs, backward_ratios, fixed_depth_tail, wavefunction_sums
from test_contfrac import ONE_PER_MODEL


@pytest.fixture
def ref_series(two_photon_ref):
    model, sector, _, eigs = two_photon_ref
    return minimal_series(model, sector, eigs[0], order=400)


class TestMinimalSeries:
    def test_recurrence_residual(self, ref_series):
        # K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0, checked against the local scale
        s = ref_series
        a, b = coefficient_block(s.model, s.sector, np.array([s.energy]), 0, 300)
        for n in range(1, 300):
            terms = (
                s.minus[n + 1],
                a[n, 0] * s.minus[n],
                b[n, 0] * s.minus[n - 1],
            )
            scale = max(abs(t) for t in terms)
            if scale == 0.0:
                continue
            assert abs(sum(terms)) <= 1e-10 * scale

    def test_plus_pole_relation(self, ref_series):
        s = ref_series
        for n in range(0, 200, 7):
            expected = s.model.delta * s.minus[n] / (s.energy - pole_energy(s.model, s.sector, n))
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

    def test_zero_coupling_refused(self):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.0)
        with pytest.raises(ZeroCoupling):
            minimal_series(model, Sector.two_photon(0.25), 0.1, order=10)

    def test_pole_collision_refused(self):
        model, sector = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.0, 0.3), Sector.two_photon(0.25)
        with pytest.raises(PoleCollision):
            minimal_series(model, sector, pole_energy(model, sector, 0) + 1e-12, order=10)

    @pytest.mark.parametrize("model, sector", ONE_PER_MODEL, ids=["two-photon", "two-mode", "driven"])
    @pytest.mark.parametrize("side", [-1.01, 1.01])
    def test_rows_stay_finite_next_to_a_pole(self, model, sector, side):
        # the pole check keeps every coefficient row finite, so the backward
        # pass needs no check of its own: just outside eps_pole of E_1 the
        # ratios and the residual are finite, with no numpy warning
        energy = pole_energy(model, sector, 1) + side * model.eps_pole
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", NotAnEigenvalueWarning)
            s = minimal_series(model, sector, energy, order=100)
        assert np.isfinite(s.ratios).all() and math.isfinite(s.residual)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_refused(self, two_photon_ref, energy):
        # refused before any coefficient row is built
        model, sector, _, _ = two_photon_ref
        with pytest.raises(ValueError, match="energy must be finite"):
            minimal_series(model, sector, energy, order=10)

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
        a, b = coefficient_block(s.model, s.sector, np.array([s.energy]), 0, 200)
        a, b = a[:, 0].tolist(), b[:, 0].tolist()
        fwd_prev, fwd = s.minus[0], s.minus[1] * (1.0 + 1e-12)
        separated = False
        for n in range(1, 201):
            fwd_prev, fwd = fwd, -a[n] * fwd - b[n] * fwd_prev
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


FIELDS = ("minus", "plus", "ratios", "log_abs_minus", "sign_minus")


class TestFrozenFields:
    def test_fields_are_read_only_arrays(self, ref_series):
        for name in FIELDS:
            field = getattr(ref_series, name)
            assert isinstance(field, np.ndarray)
            assert len(field) == ref_series.order + (name != "ratios")
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref_series.minus = np.zeros(3)

    def test_equality_is_identity(self, ref_series):
        # the same series twice: equal fields, yet == compares identity and
        # never raises on the arrays; a series is hashable
        s = ref_series
        twin = minimal_series(s.model, s.sector, s.energy, s.order)
        assert all(np.array_equal(getattr(s, f), getattr(twin, f)) for f in FIELDS)
        assert s == s and s != twin
        assert len({s, twin}) == 2


class TestBackwardDepth:
    """The backward pass starts where the characteristic roots have damped its seed."""

    # 2g/omega = 0.99 and g/omega = 0.92, where the roots nearly coalesce, and
    # strong drive, whose eigenvectors live near boson number g^2 = 49; a
    # start at row 2 * order + 64 left these ratios wrong by up to 5.8
    @pytest.mark.parametrize("model, sector, energy, orders", [
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.495), Sector.two_photon(0.25),
         0.4713, (2, 10, 100)),
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.495), Sector.two_photon(0.25),
         -0.733190203877351, (200,)),
        (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.92), Sector.two_mode(1.5),
         0.8549, (2, 10, 100)),
        (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 7.0, 0.3), Sector.driven(),
         -47.70129961659948, (100,)),
    ], ids=["two-photon", "two-photon-ground", "two-mode", "strong-drive"])
    def test_ratios_equal_a_deep_seed(self, model, sector, energy, orders):
        deep = backward_ratios(BlockCoeffs(model, sector, energy), 0, 2**17)
        for order in orders:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NotAnEigenvalueWarning)
                s = minimal_series(model, sector, energy, order)
            np.testing.assert_allclose(s.ratios, deep[:order], rtol=1e-15, atol=0.0)
            assert s.backward_rows > order

    @pytest.mark.parametrize("index", range(3), ids=["two-photon", "two-mode", "driven"])
    def test_benchmark_regime_equals_the_fixed_depth(self, monkeypatch, index):
        # at order 2000 off collapse some tens of rows past the order give every
        # bit that the former start at 2 * order + 64 gave
        model, sector = ONE_PER_MODEL[index]
        lo = default_window_min(model, sector)
        energy = oracle_spectrum(model, sector, (lo, lo + 4.0))[0][1]
        s = minimal_series(model, sector, energy, 2000)
        monkeypatch.setattr(series_module, "backward_tail", fixed_depth_tail)
        fixed = minimal_series(model, sector, energy, 2000)
        assert fixed.backward_rows == 4064 and 2000 < s.backward_rows < 2100
        for name in FIELDS:
            assert getattr(s, name).tobytes() == getattr(fixed, name).tobytes(), name
        assert s.residual == fixed.residual and not s.flagged


@pytest.fixture(scope="module")
def lowest_levels():
    """The lowest level of each model in ONE_PER_MODEL."""
    levels = []
    for model, sector in ONE_PER_MODEL:
        lo = default_window_min(model, sector)
        levels.append(compute_spectrum(model, sector, (lo, lo + 4.0)).energies[0])
    return levels


def wavefunction_outcome(evaluate, series, z):
    """The bits of both sums, or the text of the TruncationInsufficient raised."""
    try:
        psi_plus, psi_minus = evaluate(series, z)
    except TruncationInsufficient as exc:
        return str(exc)
    return struct.pack("<4d", psi_plus.real, psi_plus.imag, psi_minus.real, psi_minus.imag)


class TestWavefunctionReference:
    """``eval_wavefunction`` sums through numpy as ``reference.wavefunction_sums`` loops."""

    @pytest.mark.parametrize("index", range(3), ids=["two-photon", "two-mode", "driven"])
    @pytest.mark.parametrize("order", [2, 50, 2000])
    def test_bit_for_bit(self, lowest_levels, index, order):
        model, sector = ONE_PER_MODEL[index]
        s = minimal_series(model, sector, lowest_levels[index], order)
        for z in (0.1, 0.5, 1.0, 0.3 + 0.4j, -1.5):
            want = wavefunction_outcome(wavefunction_sums, s, z)
            assert wavefunction_outcome(eval_wavefunction, s, z) == want, z

    @pytest.mark.parametrize("side", [-0.1, 0.1])
    def test_signed_zeros_of_the_decoupled_component(self, side):
        # at delta = 0 every plus[n] is 0.0 * minus[n] / (E - E_n), -0.0 for a
        # negative quotient; the loop's sum starts from +0.0 and so must numpy's
        model, sector = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.0, 0.2), Sector.two_photon(0.25)
        with pytest.warns(NotAnEigenvalueWarning):
            s = minimal_series(model, sector, pole_energy(model, sector, 0) + side, order=100)
        assert np.signbit(s.plus[0]) == (side < 0)
        for z in (0.5, -0.5, 0.3 + 0.4j):
            want = wavefunction_outcome(wavefunction_sums, s, z)
            assert wavefunction_outcome(eval_wavefunction, s, z) == want, z

    @pytest.mark.parametrize("order, z, text", [
        (50, 1e200, "overflows"),
        (4, 5.0, "too short"),
        (50, 1e100j, "overflows"),
    ])
    def test_same_refusals(self, two_photon_ref, order, z, text):
        model, sector, _, eigs = two_photon_ref
        s = minimal_series(model, sector, eigs[0], order)
        for evaluate in (eval_wavefunction, wavefunction_sums):
            with pytest.raises(TruncationInsufficient, match=text):
                evaluate(s, z)


def test_norm_term_ratio_matches_term_logs(ref_series):
    # consecutive terms of the Bargmann-norm series, from the ratios and from the lgamma weights
    for n in (0, 1, 50, 200, 399):
        expected = math.exp(norm_term_log(ref_series, n + 1) - norm_term_log(ref_series, n))
        assert norm_term_ratio(ref_series, n) == pytest.approx(expected, rel=1e-9)
