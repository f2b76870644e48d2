"""Closed-form model data: parameters, root factors, coefficients, poles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabispec import (
    CouplingOutOfRange,
    ModelKind,
    ModelParams,
    NotDecoupled,
    Sector,
    ZeroCoupling,
    asymptotic_roots,
    closed_form_spectrum_g0,
)
from rabispec.models import (
    coefficient_block,
    distance_to_pole_set,
    nearest_pole,
    pole_energy,
    pole_lattice,
    root_factor,
)


def tp(omega=1.0, delta=0.0, g=0.2):
    return ModelParams(ModelKind.TWO_PHOTON, omega, delta, g)


def tm(omega=1.0, delta=0.0, g=0.2):
    return ModelParams(ModelKind.TWO_MODE, omega, delta, g)


def dr(omega=1.0, delta=0.0, g=0.2, drive=0.0):
    return ModelParams(ModelKind.DRIVEN_RABI, omega, delta, g, drive)


def rows(model, sector, energy, n_lo, n_hi):
    """a(n) and b(n) for n in [n_lo, n_hi] at one energy, as lists."""
    a, b = coefficient_block(model, sector, np.array([energy]), n_lo, n_hi)
    return a[:, 0].tolist(), b[:, 0].tolist()


class TestModelParams:
    def test_two_photon_coupling_bound(self):
        with pytest.raises(CouplingOutOfRange):
            tp(g=0.5)  # boundary 2g = omega
        with pytest.raises(CouplingOutOfRange):
            tp(g=-0.6)

    def test_two_mode_coupling_bound(self):
        with pytest.raises(CouplingOutOfRange):
            tm(g=1.0)

    def test_driven_has_no_coupling_bound(self):
        dr(g=1.2)
        dr(g=-3.0)

    def test_drive_rejected_outside_driven_model(self):
        with pytest.raises(ValueError):
            ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.0, 0.1, drive=0.2)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            ModelParams(ModelKind.TWO_PHOTON, -1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            ModelParams(ModelKind.TWO_PHOTON, 1.0, -0.5, 0.1)


class TestSector:
    def test_two_photon_labels(self):
        Sector.two_photon(0.25)
        Sector.two_photon(0.75)
        with pytest.raises(ValueError):
            Sector.two_photon(0.5)

    def test_two_mode_labels(self):
        for kappa in (0.5, 1.0, 1.5, 4.0):
            Sector.two_mode(kappa)
        with pytest.raises(ValueError):
            Sector.two_mode(0.3)
        with pytest.raises(ValueError):
            Sector.two_mode(0.0)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Sector.two_photon(0.25).check_matches(tm())


class TestRootFactor:
    def test_two_photon_example(self):
        assert root_factor(tp(g=0.3)) == pytest.approx(0.8, abs=1e-15)

    def test_two_mode_example(self):
        assert root_factor(tm(g=0.6)) == pytest.approx(0.8, abs=1e-15)

    def test_zero_coupling_limit(self):
        assert root_factor(tp(g=0.0)) == 1.0


class TestCoefficients:
    def test_two_photon_b_examples(self):
        # B_n = 1/(4(n+1)(n+2q)): 1/(4*1*0.5) and 1/(4*2*1.5) at q = 1/4
        _, b = rows(tp(g=0.3), Sector.two_photon(0.25), 0.33, 0, 1)
        assert b == pytest.approx([0.5, 1.0 / 12.0], abs=1e-15)

    def test_two_photon_a0_example(self):
        # delta = 0 kills the pole term: A_0 = (-0.5*1.36 + 0.5*0.8) / 1.2
        a, _ = rows(tp(delta=0.0, g=0.3), Sector.two_photon(0.25), 0.0, 0, 0)
        assert a[0] == pytest.approx(-7.0 / 30.0, abs=1e-14)

    def test_driven_b_is_index_only(self):
        _, b = rows(dr(delta=0.7, g=0.4, drive=0.2), Sector.driven(), 0.4, 0, 3)
        assert b[0] == 1.0
        assert b[3] == 0.25

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 10_000), g=st.floats(0.01, 0.49), kappa=st.sampled_from([0.5, 1.0, 2.5]))
    def test_b_positive(self, n, g, kappa):
        assert rows(tp(g=g), Sector.two_photon(0.25), 0.11, n, n)[1][0] > 0.0
        assert rows(tm(g=g), Sector.two_mode(kappa), 0.11, n, n)[1][0] > 0.0
        assert rows(dr(g=g), Sector.driven(), 0.11, n, n)[1][0] > 0.0

    def test_b_asymptotics(self):
        n = 10**6
        (b2p,) = rows(tp(g=0.3), Sector.two_photon(0.75), 0.2, n, n)[1]
        (b2m,) = rows(tm(g=0.5), Sector.two_mode(1.0), 0.2, n, n)[1]
        (bdr,) = rows(dr(g=0.5), Sector.driven(), 0.2, n, n)[1]
        assert n * n * b2p == pytest.approx(0.25, rel=1e-5)
        assert n * n * b2m == pytest.approx(1.0, rel=1e-5)
        assert n * bdr == pytest.approx(1.0, rel=1e-6)

    def test_a_asymptotics(self):
        n = 10**6
        m2p, m2m, mdr = tp(delta=0.4, g=0.3), tm(delta=0.4, g=0.5), dr(delta=0.4, g=0.5)
        om = root_factor(m2p)
        lam = root_factor(m2m)
        (a2p,) = rows(m2p, Sector.two_photon(0.25), 0.2, n, n)[0]
        (a2m,) = rows(m2m, Sector.two_mode(0.5), 0.2, n, n)[0]
        (adr,) = rows(mdr, Sector.driven(), 0.2, n, n)[0]
        assert n * a2p == pytest.approx(-(1.0 / (4 * 0.3)) * (2 - om * om), rel=1e-4)
        assert n * a2m == pytest.approx(-(1.0 / 0.5) * (2 - lam * lam), rel=1e-4)
        assert adr == pytest.approx(-1.0 / (2 * 0.5), rel=1e-4)

    @pytest.mark.parametrize("model,sector,expected", [
        (tp(delta=0.5, g=0.3), Sector.two_photon(0.75), [
            (-1.07809523809524, 0.16666666666666666),
            (-0.30110675381263613, 0.05),
            (-0.12283106953473212, 0.003676470588235294),
            (-0.026893151037880487, 0.00014692918013517486),
        ]),
        (tm(delta=0.7, g=0.4), Sector.two_mode(1.5), [
            (-0.5830408201585834, 0.3333333333333333),
            (-0.6278273745580623, 0.125),
            (-0.28226954098767154, 0.0125),
            (-0.06710984398258509, 0.0005672149744753262),
        ]),
        (dr(delta=0.4, g=0.7, drive=0.3), Sector.driven(), [
            (-0.4047619047619046, 1.0),
            (0.9285714285714256, 0.5),
            (-0.658349101229896, 0.125),
            (-0.7037613526018164, 0.024390243902439025),
        ]),
    ], ids=["two-photon", "two-mode", "driven"])
    def test_coefficient_values(self, model, sector, expected):
        # a(n), b(n) at E = 0.77 and n = 0, 1, 7, 40, as each model's own formula gives them
        a, b = rows(model, sector, 0.77, 0, 40)
        for n, (a_n, b_n) in zip((0, 1, 7, 40), expected):
            assert a[n] == pytest.approx(a_n, rel=1e-13)
            assert b[n] == pytest.approx(b_n, rel=1e-13)

    def test_a_pole_location(self):
        # a(n) has its single simple pole exactly at the n-th pole energy
        model, sector = tp(delta=0.4, g=0.3), Sector.two_photon(0.25)
        a, _ = rows(model, sector, pole_energy(model, sector, 2) + 1e-8, 0, 3)
        assert abs(a[2]) > 1e5
        assert abs(a[1]) < 1e3 and abs(a[3]) < 1e3


class TestPoles:
    def test_two_photon_example(self):
        got = pole_energy(tp(g=0.3), Sector.two_photon(0.25), np.arange(2))
        assert got.tolist() == pytest.approx([-0.1, 1.5], abs=1e-14)

    def test_driven_example(self):
        got = pole_energy(dr(g=0.2, drive=0.1), Sector.driven(), np.arange(3))
        assert got.tolist() == pytest.approx([0.06, 1.06, 2.06], abs=1e-14)

    def test_two_mode_example(self):
        got = pole_energy(tm(g=0.6), Sector.two_mode(0.5), 0)
        assert got == pytest.approx(-0.2, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(g=st.floats(0.02, 0.45), n_max=st.integers(1, 30))
    def test_arithmetic_spacing(self, g, n_max):
        model, sector = tp(g=g), Sector.two_photon(0.75)
        poles = pole_energy(model, sector, np.arange(n_max + 1)).tolist()
        spacing = pole_lattice(model, sector)[1]
        assert spacing == pytest.approx(2.0 * root_factor(model), rel=1e-14)
        for p, pn in zip(poles, poles[1:]):
            assert pn - p == pytest.approx(spacing, rel=1e-12)

    @pytest.mark.parametrize("model,sector", [
        (tp(delta=0.5, g=0.3), Sector.two_photon(0.25)),
        (tp(delta=0.4, g=0.37), Sector.two_photon(0.75)),
        (tm(delta=0.7, g=0.6), Sector.two_mode(0.5)),
        (tm(delta=0.3, g=0.83), Sector.two_mode(1.5)),
        (dr(delta=0.4, g=0.7, drive=0.3), Sector.driven()),
    ], ids=["two-photon-q1/4", "two-photon-q3/4", "two-mode-k1/2", "two-mode-k3/2", "driven"])
    def test_one_pole_lattice(self, model, sector):
        # the pole a(n) divides by is the same float as the pole the scan avoids
        for n in range(60):
            e = pole_energy(model, sector, n)
            assert nearest_pole(model, sector, e) == e
            assert distance_to_pole_set(model, sector, e) == 0.0
            with np.errstate(divide="ignore"):
                a, _ = rows(model, sector, e, n, n)
            assert math.isinf(a[0])

    def test_nearest_pole(self):
        # E_0 below the lattice, the nearest E_n above it; nan stays nan, and
        # the pole is computed in floats, so it casts nothing
        model, sector = tp(g=0.3), Sector.two_photon(0.25)
        got = nearest_pole(model, sector, np.array([-5.0, -0.1, 0.6, 0.8, 2.2, np.nan]))
        expected = pole_energy(model, sector, np.array([0, 0, 0, 1, 1]))
        np.testing.assert_array_equal(got[:5], expected)
        assert math.isnan(got[5])

    def test_distance_to_pole_set(self):
        model, sector = tp(g=0.3), Sector.two_photon(0.25)
        assert distance_to_pole_set(model, sector, -0.1) == pytest.approx(0.0, abs=1e-15)
        assert distance_to_pole_set(model, sector, 1.4) == pytest.approx(0.1, abs=1e-12)
        assert distance_to_pole_set(model, sector, -2.0) == pytest.approx(1.9, abs=1e-12)


class TestAsymptoticRoots:
    def test_examples(self):
        r = asymptotic_roots(tp(g=0.25))
        assert (r.t1, r.t2) == (pytest.approx(1.0), pytest.approx(0.25))
        r = asymptotic_roots(tm(g=0.5))
        assert (r.t1, r.t2) == (pytest.approx(2.0), pytest.approx(0.5))
        r = asymptotic_roots(dr(g=0.1))
        assert (r.t1, r.t2) == (pytest.approx(5.0), pytest.approx(0.2))

    def test_minimal_below_dominant(self):
        for model in (tp(g=0.4), tm(g=0.9)):
            r = asymptotic_roots(model)
            assert abs(r.t2) < abs(r.t1)

    def test_zero_coupling(self):
        with pytest.raises(ZeroCoupling):
            asymptotic_roots(tp(g=0.0))


class TestClosedFormG0:
    def test_driven_example(self):
        got = closed_form_spectrum_g0(dr(delta=0.3, g=0.0, drive=0.4), Sector.driven(), 0)
        assert got == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_two_photon_example(self):
        got = closed_form_spectrum_g0(tp(delta=0.2, g=0.0), Sector.two_photon(0.25), 2)
        assert got == pytest.approx([-0.2, 0.2, 1.8, 2.2], abs=1e-15)

    def test_two_mode_degenerate(self):
        got = closed_form_spectrum_g0(tm(delta=0.0, g=0.0), Sector.two_mode(1.0), 1)
        assert got == pytest.approx([1.0, 1.0, 3.0, 3.0], abs=1e-15)

    def test_odd_parity_sector(self):
        got = closed_form_spectrum_g0(tp(delta=0.1, g=0.0), Sector.two_photon(0.75), 3)
        assert got == pytest.approx([0.9, 1.1, 2.9, 3.1], abs=1e-15)

    def test_requires_decoupling(self):
        with pytest.raises(NotDecoupled):
            closed_form_spectrum_g0(tp(g=0.1), Sector.two_photon(0.25), 2)


class TestCoefficientBlock:
    @pytest.mark.parametrize("model,sector", [
        (tp(delta=0.5, g=0.3), Sector.two_photon(0.75)),
        (tm(delta=0.7, g=0.4), Sector.two_mode(1.5)),
        (dr(delta=0.4, g=0.7, drive=0.3), Sector.driven()),
    ], ids=["two-photon", "two-mode", "driven"])
    def test_block_equals_single_row_calls(self, model, sector):
        # a row does not depend on the block it is built in: the whole block
        # repeats the one-row, one-energy values bit for bit
        energies = [-0.37, 0.5, 1.23, 4.9]
        a, b = coefficient_block(model, sector, np.array(energies), 3, 40)
        assert a.shape == (38, 4) and b.shape == (38, 1)
        for col, e in enumerate(energies):
            for row, n in enumerate(range(3, 41)):
                a_n, b_n = rows(model, sector, e, n, n)
                assert a[row, col] == a_n[0]
                assert b[row, 0] == b_n[0]

    def test_array_distance_to_pole_set(self):
        model, sector = tp(delta=0.5, g=0.3), Sector.two_photon(0.25)
        energies = [-2.0, -0.5, 0.1, 0.77, 3.3]
        batch = distance_to_pole_set(model, sector, np.array(energies))
        assert batch.tolist() == [distance_to_pole_set(model, sector, e) for e in energies]
