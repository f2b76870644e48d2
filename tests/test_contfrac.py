"""Continued-fraction evaluators: batched kernels against the scalar references."""

import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabispec import (
    ModelKind,
    ModelParams,
    Sector,
    asymptotic_roots,
)
from rabispec import contfrac
from rabispec.contfrac import (
    batch_minimal_ratio,
    batch_pivots,
    batch_ratios,
    twisted_residual,
)
from rabispec.models import coefficient_block, distance_to_pole_set

from conftest import ConstCoeffs
from reference import (
    BlockCoeffs,
    CoefficientPole,
    backward_ratios,
    backward_recursion_ratio,
    eval_continued_fraction,
    forward_ratio,
    guarded_pivots,
)


def const_block(a, b):
    """``block`` callable of the batched kernels for constant coefficients a, b."""

    def block(lanes, n_lo, n_hi):
        rows = n_hi - n_lo + 1
        return np.full((rows, lanes.size), a), np.full((rows, 1), b)

    return block


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
        ratios = backward_ratios(ConstCoeffs(3.0, 2.0), 0, 200)[:6]
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


ONE_PER_MODEL = [
    (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.3), Sector.two_photon(0.75)),
    (ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.6), Sector.two_mode(0.5)),
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.8, 0.3), Sector.driven()),
]


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
        coeffs = BlockCoeffs(model, sector, 0.0)
        cf = eval_continued_fraction(coeffs)
        assert cf.converged and math.isfinite(cf.value)
        assert cf.depth <= 1024
        back = backward_recursion_ratio(coeffs, tail_depth=4096)
        assert abs(cf.value - back) <= 1e-10 * max(1.0, abs(cf.value))

    def test_evaluator_agreement_random(self):
        for model, sector, energy in _random_cases(30):
            coeffs = BlockCoeffs(model, sector, energy)
            cf = eval_continued_fraction(coeffs)
            back = backward_recursion_ratio(coeffs, tail_depth=8192)
            assert cf.converged
            assert abs(cf.value - back) <= 1e-9 * max(1.0, abs(cf.value))

    def test_one_backward_pass_holds_every_start(self, two_photon_ref):
        # R_start of a pass down from the same tail is the same number
        # whether the pass stops at start or runs on to 0
        model, sector, _, _ = two_photon_ref
        coeffs = BlockCoeffs(model, sector, 0.7)
        ratios = backward_ratios(coeffs, 0, 512)
        assert len(ratios) == 512
        for start in (0, 1, 7, 100, 503):
            assert ratios[start] == backward_recursion_ratio(coeffs, start, tail_depth=512)

    @pytest.mark.parametrize("lanes", [1, 5])
    @pytest.mark.parametrize("model, sector", ONE_PER_MODEL)
    def test_batch_ratios_are_the_scalar_pass(self, model, sector, lanes):
        # every ratio of the batched backward pass, on Python floats at one
        # lane and through numpy at five, is that of the scalar pass bit for bit
        energies = np.linspace(-0.9, 6.1, 15)
        energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3][:lanes]
        a, b = coefficient_block(model, sector, energies, 0, 600)
        got = batch_ratios(a, b, asymptotic_roots(model).t2)
        assert got.shape == (600, lanes)
        for lane, e in enumerate(energies):
            assert got[:, lane].tolist() == backward_ratios(BlockCoeffs(model, sector, e), 0, 600)

    def test_depth_residual_monotone_statistically(self):
        # residual should not grow under depth doubling in >= 95% of cases
        good = total = 0
        for model, sector, energy in _random_cases(40, seed=7):
            coeffs = BlockCoeffs(model, sector, energy)
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
        coeffs = BlockCoeffs(model, Sector.two_photon(0.25), 0.1)
        r2000 = backward_recursion_ratio(coeffs, start=2000, tail_depth=4096)
        assert 2000.0 * r2000 == pytest.approx(0.2, rel=0.01)

    def test_minimal_ratio_asymptotics_two_mode(self):
        model = ModelParams(ModelKind.TWO_MODE, 1.0, 0.3, 0.5)
        coeffs = BlockCoeffs(model, Sector.two_mode(0.5), 0.1)
        r2000 = backward_recursion_ratio(coeffs, start=2000, tail_depth=4096)
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
        for rel_tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                eval_continued_fraction(c, rel_tol=rel_tol)
        with pytest.raises(ValueError):
            eval_continued_fraction(c, max_depth=4)
        with pytest.raises(ValueError):
            backward_recursion_ratio(c, start=100, tail_depth=100)


def two_mode_lanes():
    model = ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4)
    sector = Sector.two_mode(1.0)
    energies = np.linspace(-0.9, 7.9, 23)
    return model, sector, energies[distance_to_pole_set(model, sector, energies) > 1e-3]


class TestBatchMinimalRatio:
    def test_constant_coefficients(self):
        # minimal ratio of K_{n+1} + 3 K_n + 2 K_{n-1} = 0 is -1
        r = batch_minimal_ratio(const_block(3.0, 2.0), np.zeros(4), scale=0.0)
        assert r == pytest.approx([-1.0] * 4, abs=1e-12)

    def test_unsettled_lane_is_nan(self):
        # t^2 + 2t + 1 = 0 has the double root -1: no solution is minimal, the
        # ratio creeps towards -1 like -d/(d + 1) and never settles
        assert not eval_continued_fraction(ConstCoeffs(2.0, 1.0), max_depth=4096).converged
        r = batch_minimal_ratio(const_block(2.0, 1.0), np.zeros(1), 0.0, max_depth=4096)
        assert np.isnan(r[0])

    def test_matches_lentz_per_lane(self):
        # every lane equals the scalar Lentz value of R_0
        model, sector, energies = two_mode_lanes()
        block = partial(coefficient_block, model, sector)
        r = batch_minimal_ratio(block, energies, asymptotic_roots(model).t2)
        for e, got in zip(energies, r):
            ref = eval_continued_fraction(BlockCoeffs(model, sector, e)).value
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_chunked_pass_equals_one_table(self, monkeypatch, rows):
        # the depths 64, 128, ... hold an odd number of rows n = 0..N: while every
        # lane is active, blocks of 2, 3 or 5 rows (chunks of 1, 2 or 4 pivot rows)
        # leave row 0 alone in the last chunk, and tau_1 comes from the chunk above
        model, sector, energies = two_mode_lanes()
        block, t2 = partial(coefficient_block, model, sector), asymptotic_roots(model).t2
        one_table = batch_minimal_ratio(block, energies, t2)
        monkeypatch.setattr(contfrac, "CHUNK_CELLS", rows * energies.size)
        np.testing.assert_array_equal(batch_minimal_ratio(block, energies, t2), one_table)

    @pytest.mark.parametrize("lanes", [1, 23, 500])
    def test_blocks_stay_within_the_cell_budget(self, monkeypatch, lanes):
        model, sector, _ = two_mode_lanes()
        energies = np.linspace(-0.9, 0.3, lanes)
        monkeypatch.setattr(contfrac, "CHUNK_CELLS", 4096)
        cells = []

        def recording(lanes, n_lo, n_hi):
            cells.append(lanes.size * (n_hi - n_lo + 1))
            return coefficient_block(model, sector, lanes, n_lo, n_hi)

        batch_minimal_ratio(recording, energies, asymptotic_roots(model).t2)
        assert cells and max(cells) <= 4096

    def test_argument_validation(self):
        block = const_block(1.0, 1.0)
        for rel_tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                batch_minimal_ratio(block, np.zeros(1), 0.0, rel_tol=rel_tol)
        with pytest.raises(ValueError):
            batch_minimal_ratio(block, np.zeros(1), 0.0, max_depth=4)


def negative_pivots(a, b, sign):
    """The Sturm count of each lane: its negative pivots."""
    return np.count_nonzero(batch_pivots(a, b, sign) < 0.0, axis=0)


class TestNegativePivots:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        diag=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_sturm_count_equals_negative_eigenvalues(self, diag, sign, seed):
        # the count is that of the symmetric tridiagonal with diagonal
        # -sign * a(n) and off-diagonal sqrt(b(n)), b(n) > 0
        rows = len(diag)
        a = np.array(diag)
        b = np.random.default_rng(seed).uniform(0.05, 2.0, rows)
        shifts = np.array([-1.0, 0.0, 0.5])
        got = negative_pivots(a[:, None] + shifts, b[:, None], sign)
        for shift, count in zip(shifts, got):
            off = np.diag(np.sqrt(b[1:]), 1)
            t = np.diag(-sign * (a + shift)) + off + off.T
            eigs = np.linalg.eigvalsh(t)
            if np.min(np.abs(eigs)) > 1e-9:
                assert count == np.count_nonzero(eigs < 0.0)

    def test_zero_pivot_counts_as_negative(self):
        # Kahan's guard: a pivot that is exactly 0 is taken as a tiny negative
        # number, so a level exactly at E counts as below it
        a, b = np.zeros((1, 1)), np.ones((1, 1))
        assert negative_pivots(a, b, 1.0).tolist() == [1]
        assert negative_pivots(a, b, -1.0).tolist() == [1]

    def test_chunked_table_equals_one_table(self):
        # a table pivoted in two chunks, the second passed the last pivot row
        # of the first, gives the pivots of the whole table bit for bit; lane 0
        # has an exact zero pivot (Kahan's guard) in row 1, the last row of the
        # first chunk
        rng = np.random.default_rng(7)
        a = rng.uniform(-2.0, 2.0, (6, 3))
        b = rng.uniform(0.5, 1.5, (6, 1))
        a[0, 0], a[1, 0], b[1, 0] = -1.0, -1.0, 1.0
        whole = batch_pivots(a, b, 1.0)
        assert -1e-20 < whole[1, 0] < 0.0
        head = batch_pivots(a[:2], b[:2], 1.0)
        tail = batch_pivots(a[2:], b[2:], 1.0, head[-1])
        np.testing.assert_array_equal(np.vstack([head, tail]), whole)
        chunked = np.count_nonzero(head < 0.0, axis=0) + np.count_nonzero(tail < 0.0, axis=0)
        np.testing.assert_array_equal(chunked, negative_pivots(a, b, 1.0))

    @pytest.mark.parametrize("model, sector", ONE_PER_MODEL)
    def test_continuant_ratios_match_forward_recursion(self, model, sector):
        # at sign = +1 the pivot sigma_k of model rows is K_{k+1}/K_k, which
        # the scalar reference forward_ratio takes from the continuants
        energies = np.linspace(-1.9, 7.9, 17)
        energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3]
        a, b = coefficient_block(model, sector, energies, 0, 40)
        pivots = batch_pivots(a, b, 1.0)
        for lane, e in enumerate(energies):
            coeffs = BlockCoeffs(model, sector, e)
            for k in range(41):
                ref = forward_ratio(coeffs, k)
                assert abs(pivots[k, lane] - ref) <= 1e-12 * max(1.0, abs(ref)), (e, k)


def plant_zero(a, b, sign, row, lane, prev=None):
    """Set a(row) of one lane so that its pivot is exactly 0.

    -sign * a(row) = b(row) / sigma_{row-1}, which is exact since sign = +-1.
    """
    before = guarded_pivots(a, b, sign, prev)[row - 1] if row else prev
    a[row, lane] = -sign * (b[row, 0] / before[lane])


def random_table(seed, lanes, rows=40):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, (rows, lanes)), rng.uniform(0.5, 1.5, (rows, 1))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("lanes", [1, 5])
class TestDeferredGuard:
    """``batch_pivots`` guards zero pivots bit for bit as the per-row guard does.

    Several lanes are guarded once per table through numpy, one lane on every
    row in Python floats; a zero planted in lane k of five is in the one lane.
    """

    @staticmethod
    def assert_same(got, want):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_no_zero(self, sign, lanes):
        a, b = random_table(0, lanes)
        self.assert_same(batch_pivots(a, b, sign), guarded_pivots(a, b, sign))

    def test_zero_mid_table_in_one_lane(self, sign, lanes):
        a, b = random_table(1, lanes)
        plant_zero(a, b, sign, 17, 2 % lanes)
        want = guarded_pivots(a, b, sign)
        assert want[17, 2 % lanes] == -1e-30 and np.count_nonzero(want == -1e-30) == 1
        self.assert_same(batch_pivots(a, b, sign), want)

    def test_zero_in_first_row_of_chunk_passed_prev(self, sign, lanes):
        a, b = random_table(2, lanes)
        head = batch_pivots(a[:10], b[:10], sign)
        a_tail, b_tail = a[10:].copy(), b[10:]
        plant_zero(a_tail, b_tail, sign, 0, 3 % lanes, prev=head[-1])
        want = guarded_pivots(a_tail, b_tail, sign, head[-1])
        assert want[0, 3 % lanes] == -1e-30
        self.assert_same(batch_pivots(a_tail, b_tail, sign, head[-1]), want)

    def test_negative_zero(self, sign, lanes):
        # -sign * a(n) = -0.0 and b(n) = 0 in a lane whose sigma_{n-1} > 0, the
        # first one from row 21 on: the unguarded pivot is -0.0 - 0 / sigma_{n-1} = -0.0
        a, b = random_table(3, lanes)
        before = guarded_pivots(a, b, sign)
        row, lane = np.argwhere(before[20:-1] > 0.0)[0] + (21, 0)
        a[row, lane], b[row, 0] = sign * 0.0, 0.0
        assert np.signbit(-sign * a[row, lane] - b[row, 0] / before[row - 1, lane])
        want = guarded_pivots(a, b, sign)
        assert want[row, lane] == -1e-30
        self.assert_same(batch_pivots(a, b, sign), want)

    def test_zeros_in_two_lanes_at_different_rows(self, sign, lanes):
        a, b = random_table(4, lanes)
        plant_zero(a, b, sign, 8, 0)
        plant_zero(a, b, sign, 25, 4 % lanes)
        want = guarded_pivots(a, b, sign)
        assert want[8, 0] == want[25, 4 % lanes] == -1e-30
        self.assert_same(batch_pivots(a, b, sign), want)


def tridiagonal(seed):
    """Diagonal ~ n and off-diagonal sqrt(b(n)) of a 40-row tridiagonal, and the dense matrix.

    Its lowest eigenvectors live at small n, as the minimal solutions do.
    """
    rng = np.random.default_rng(seed)
    d = np.arange(40) + rng.uniform(-1.0, 1.0, 40)
    b = rng.uniform(0.2, 2.0, (40, 1))
    b[0] = 0.0
    return d, b, np.diag(d) + np.diag(np.sqrt(b[1:, 0]), 1) + np.diag(np.sqrt(b[1:, 0]), -1)


def shifted_residuals(d, b, shifts, sign):
    """twisted_residual of the tridiagonal minus each shift, and the backward ratios.

    The backward pass seeded with 0 is exact for the 40-row matrix.
    """
    a = -sign * (d[:, None] - shifts)  # diagonal -sign * a(n) = d_n - shift
    ratios = batch_ratios(a, b, 0.0)
    return twisted_residual(a, b, ratios, sign), ratios


class TestTwistedResidual:
    @pytest.mark.parametrize("seed", range(4))
    def test_small_at_eigenvalues_of_the_tridiagonal(self, seed):
        # lanes at the ten lowest eigenvalues and at the midpoints between them;
        # both signs describe the same tridiagonal
        d, b, dense = tridiagonal(seed)
        levels = np.linalg.eigvalsh(dense)[:10]
        shifts = np.concatenate([levels, 0.5 * (levels[1:] + levels[:-1])])
        residuals = [shifted_residuals(d, b, shifts, sign)[0] for sign in (1.0, -1.0)]
        np.testing.assert_array_equal(residuals[0], residuals[1])
        assert residuals[0][:10].max() <= 1e-12
        # off a level the residual is at least about the distance to the nearest one
        dist = np.abs(shifts[10:, None] - levels).min(axis=1)
        assert np.all(residuals[0][10:] >= 0.5 * dist)

    def test_twist_element_is_the_inverse_diagonal(self):
        # gamma_k = 1 / (T^{-1})_{kk} for the twisted factorisation at every k,
        # a route to the twist element independent of the pivots; k* is where
        # |z| peaks in the first 20 rows
        d, b, dense = tridiagonal(7)
        shifts = np.linspace(0.3, 35.3, 8)
        got, ratios = shifted_residuals(d, b, shifts, 1.0)
        for lane, shift in enumerate(shifts):
            z = np.concatenate([[1.0], np.cumprod(-ratios[:, lane] / np.sqrt(b[1:, 0]))])
            k = np.argmax(np.abs(z[:20]))
            gamma = 1.0 / np.linalg.inv(dense - shift * np.eye(40))[k, k]
            assert got[lane] == pytest.approx(abs(gamma) / np.linalg.norm(z / z[k]), rel=1e-8)
