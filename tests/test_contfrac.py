"""Continued-fraction evaluators: Lentz, backward recursion, ratio sequences."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabispec import (
    CoefficientPole,
    ModelKind,
    ModelParams,
    Sector,
    asymptotic_roots,
    backward_recursion_ratio,
    eval_continued_fraction,
    minimal_ratio_sequence,
    three_term_coeffs,
)
from rabispec.contfrac import backward_ratios, batch_minimal_ratio
from rabispec.models import coefficient_block, distance_to_pole_set

from conftest import ConstCoeffs


def minimal_root(a, b):
    """Smaller-modulus root of t^2 + a t + b = 0, computed without cancellation."""
    disc = math.sqrt(a * a - 4.0 * b)
    return -2.0 * b / (a + math.copysign(disc, a))


class TestConstantCoefficients:
    def test_fixed_point_a3_b2(self):
        cf = eval_continued_fraction(ConstCoeffs(3.0, 2.0))
        assert cf.converged
        assert cf.value == pytest.approx(-1.0, abs=1e-12)

    def test_fixed_point_a52_b1(self):
        cf = eval_continued_fraction(ConstCoeffs(2.5, 1.0))
        assert cf.converged
        assert cf.value == pytest.approx(-0.5, abs=1e-12)

    def test_backward_matches(self):
        assert backward_recursion_ratio(ConstCoeffs(3.0, 2.0), tail_depth=200) == pytest.approx(
            -1.0, abs=1e-12
        )
        assert backward_recursion_ratio(ConstCoeffs(2.5, 1.0), tail_depth=200) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_ratio_sequence_constant(self):
        ratios = minimal_ratio_sequence(ConstCoeffs(3.0, 2.0), 0, 5)
        assert ratios == pytest.approx([-1.0] * 6, abs=1e-11)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(0.5, 50.0),
        ratio=st.floats(0.05, 0.8),
        flip=st.booleans(),
    )
    def test_exactness_against_quadratic(self, a, ratio, flip):
        # b chosen so the discriminant stays safely positive
        b = ratio * a * a / 4.0
        if flip:
            a = -a
        expected = minimal_root(a, b)
        cf = eval_continued_fraction(ConstCoeffs(a, b))
        assert cf.converged
        assert cf.value == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))


def _random_cases(count, seed=20240817):
    """Random (model, sector, E) triples away from the pole set."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = rng.choice(list(ModelKind))
        if kind is ModelKind.TWO_PHOTON:
            g = rng.uniform(0.05, 0.45)
            model = ModelParams(kind, 1.0, rng.uniform(0.0, 1.0), g)
            sector = Sector.two_photon(rng.choice([0.25, 0.75]))
        elif kind is ModelKind.TWO_MODE:
            g = rng.uniform(0.05, 0.9)
            model = ModelParams(kind, 1.0, rng.uniform(0.0, 1.0), g)
            sector = Sector.two_mode(rng.choice([0.5, 1.0, 1.5]))
        else:
            model = ModelParams(kind, 1.0, rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.2),
                                rng.uniform(-0.4, 0.4))
            sector = Sector.driven()
        energy = rng.uniform(-1.0, 8.0)
        if distance_to_pole_set(model, sector, energy) > 1e-3:
            cases.append((model, sector, energy))
    return cases


class TestModelFractions:
    def test_reference_point_converges(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        coeffs = three_term_coeffs(model, sector, 0.0)
        cf = eval_continued_fraction(coeffs)
        assert cf.converged and math.isfinite(cf.value)
        assert cf.depth <= 1024
        back = backward_recursion_ratio(coeffs, tail_depth=4096)
        assert abs(cf.value - back) <= 1e-10 * max(1.0, abs(cf.value))

    def test_evaluator_agreement_random(self):
        for model, sector, energy in _random_cases(30):
            coeffs = three_term_coeffs(model, sector, energy)
            cf = eval_continued_fraction(coeffs)
            back = backward_recursion_ratio(coeffs, tail_depth=8192)
            assert cf.converged
            assert abs(cf.value - back) <= 1e-9 * max(1.0, abs(cf.value))

    def test_one_backward_pass_holds_every_start(self, two_photon_ref):
        # R_start of a pass down from the same tail is the same number
        # whether the pass stops at start or runs on to 0
        model, sector, _, _ = two_photon_ref
        coeffs = three_term_coeffs(model, sector, 0.7)
        ratios = backward_ratios(coeffs, 0, 512)
        assert len(ratios) == 512
        for start in (0, 1, 7, 100, 503):
            assert ratios[start] == backward_recursion_ratio(coeffs, start, tail_depth=512)

    def test_depth_residual_monotone_statistically(self):
        # residual should not grow under depth doubling in >= 95% of cases
        good = total = 0
        for model, sector, energy in _random_cases(40, seed=7):
            coeffs = three_term_coeffs(model, sector, energy)
            res = [
                eval_continued_fraction(coeffs, rel_tol=1e-16, max_depth=d)
                for d in (256, 512, 1024)
            ]
            # residuals at the rounding floor count as monotone
            floor = 1e-13 * max(1.0, abs(res[-1].value))
            for r1, r2 in zip(res, res[1:]):
                total += 1
                if r2.residual <= max(r1.residual * (1.0 + 1e-12), floor):
                    good += 1
        assert good / total >= 0.95

    def test_minimal_ratio_asymptotics(self):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.3, 0.2)
        coeffs = three_term_coeffs(model, Sector.two_photon(0.25), 0.1)
        (r2000,) = minimal_ratio_sequence(coeffs, 2000, 2001)[:1]
        assert 2000.0 * r2000 == pytest.approx(0.2, rel=0.01)

    def test_minimal_ratio_asymptotics_two_mode(self):
        model = ModelParams(ModelKind.TWO_MODE, 1.0, 0.3, 0.5)
        coeffs = three_term_coeffs(model, Sector.two_mode(0.5), 0.1)
        (r2000,) = minimal_ratio_sequence(coeffs, 2000, 2001)[:1]
        assert 2000.0 * r2000 == pytest.approx(0.5, rel=0.01)


class TestErrorPaths:
    def test_coefficient_pole_raised(self):
        class BadCoeffs:
            def a(self, n):
                return math.inf if n == 5 else 3.0

            def b(self, n):
                return 2.0

        with pytest.raises(CoefficientPole):
            eval_continued_fraction(BadCoeffs())
        with pytest.raises(CoefficientPole):
            backward_recursion_ratio(BadCoeffs(), tail_depth=100)

    def test_argument_validation(self):
        c = ConstCoeffs(3.0, 2.0)
        with pytest.raises(ValueError):
            eval_continued_fraction(c, rel_tol=0.0)
        with pytest.raises(ValueError):
            eval_continued_fraction(c, max_depth=4)
        with pytest.raises(ValueError):
            backward_recursion_ratio(c, start=100, tail_depth=100)
        with pytest.raises(ValueError):
            minimal_ratio_sequence(c, 5, 5)


class TestBatchMinimalRatio:
    def test_constant_coefficients(self):
        # minimal ratio of K_{n+1} + 3 K_n + 2 K_{n-1} = 0 is -1 at every start
        def block(lanes, n_lo, n_hi):
            rows = n_hi - n_lo + 1
            return np.full((rows, lanes.size), 3.0), np.full((rows, 1), 2.0)

        starts = np.array([0, 3, 1, 0])
        r = batch_minimal_ratio(block, np.zeros(starts.size), starts, scale=0.0)
        assert r == pytest.approx([-1.0] * starts.size, abs=1e-12)

    def test_matches_lentz_per_lane(self):
        # every lane equals the scalar Lentz value at its own start index
        model = ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4)
        sector = Sector.two_mode(1.0)
        energies = np.linspace(-0.9, 7.9, 23)
        energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3]
        starts = np.arange(energies.size) % 4

        def block(lanes, n_lo, n_hi):
            return coefficient_block(model, sector, lanes, n_lo, n_hi)

        r = batch_minimal_ratio(block, energies, starts, asymptotic_roots(model).t2)
        for e, k, got in zip(energies, starts, r):
            ref = eval_continued_fraction(three_term_coeffs(model, sector, e), start=k).value
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_argument_validation(self):
        def block(lanes, n_lo, n_hi):
            return np.ones((n_hi - n_lo + 1, lanes.size)), np.ones((n_hi - n_lo + 1, 1))

        with pytest.raises(ValueError):
            batch_minimal_ratio(block, np.zeros(1), np.zeros(1), 0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            batch_minimal_ratio(block, np.zeros(1), np.zeros(1), 0.0, max_depth=4)
