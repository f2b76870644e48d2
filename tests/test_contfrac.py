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
from rabispec import contfrac, spectral
from rabispec.contfrac import (
    DEFAULT_MAX_DEPTH,
    backward_tail,
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


def lane_block(lanes, n_lo, n_hi):
    """``block`` callable whose rows are a(n) = the lane's value, b(n) = 1, for every n."""
    rows = n_hi - n_lo + 1
    return np.tile(lanes, (rows, 1)), np.ones((rows, 1))


class TestBackwardTail:
    def test_constant_root_ratio(self):
        # t^2 + 3t + 2 = 0 has the roots -1 and -2, a ratio of 1/2 on every
        # row: 2^-40 < 1e-12 < 2^-39, from any row n
        for n in (0, 5, 1000):
            assert backward_tail(const_block(3.0, 2.0), np.zeros(1), n, 1e-12) == 40
        # a ratio of 0.9 takes 263 rows, past the first two chunks (128 + 256):
        # 0.9^263 < 1e-12 < 0.9^262
        root = math.sqrt(0.9)
        assert backward_tail(const_block(root + 1.0 / root, 1.0), np.zeros(1), 0, 1e-12) == 263

    @pytest.mark.parametrize("a", [2.0, 1.0, 0.0], ids=["double-root", "complex", "a=0"])
    def test_roots_of_one_modulus_reach_the_cap(self, a):
        # a^2 <= 4b: both roots have modulus 1, the ratio is 1 and never damps
        assert backward_tail(const_block(a, 1.0), np.zeros(1), 0, 1e-12) == DEFAULT_MAX_DEPTH

    def test_lanes_take_the_largest_tail(self):
        # 600 lanes make a first chunk of 6 rows, and the lane a = 2.02 (ratio
        # 0.754) needs 98, in the fifth chunk; the other lanes leave earlier
        values = np.linspace(2.02, 40.0, 600)
        single = [backward_tail(lane_block, np.array([v]), 0, 1e-12) for v in values]
        assert max(single) == 98
        assert backward_tail(lane_block, values, 0, 1e-12) == max(single)
        assert backward_tail(lane_block, values[::-1], 7, 1e-12) == max(single)
        assert backward_tail(lane_block, np.zeros(0), 0, 1e-12) == 0

    def test_model_rows_past_the_order(self):
        # at the couplings of the benchmark's series points, driven g = 1
        # needs 12 rows past row 2000, two-mode g = 0.45 47 and two-photon
        # g = 0.3 73, whatever the splitting and the level
        cases = [
            (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 1.0, 0.2), Sector.driven(), 0.5, 12),
            (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.45), Sector.two_mode(0.5), 0.5, 47),
            (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.3), Sector.two_photon(0.75), 0.5, 73),
        ]
        for model, sector, energy, tail in cases:
            block = partial(coefficient_block, model, sector)
            assert backward_tail(block, np.array([energy]), 2000, 2.0**-106) == tail


class TestBatchMinimalRatio:
    def test_constant_coefficients(self):
        # minimal ratio of K_{n+1} + 3 K_n + 2 K_{n-1} = 0 is -1
        r = batch_minimal_ratio(const_block(3.0, 2.0), np.zeros(4), scale=0.0)
        assert r == pytest.approx([-1.0] * 4, abs=1e-12)

    def test_unsettled_lane_is_nan(self):
        # t^2 + 2t + 1 = 0 has the double root -1: no solution is minimal, the
        # ratio creeps towards -1 like -d/(d + 1) and never settles; the
        # roots' modulus ratio is 1 on every row, so the tail reaches
        # DEFAULT_MAX_DEPTH and no pass runs
        assert not eval_continued_fraction(ConstCoeffs(2.0, 1.0), max_depth=4096).converged
        r = batch_minimal_ratio(const_block(2.0, 1.0), np.zeros(1), 0.0)
        assert np.isnan(r[0])

    def test_matches_lentz_per_lane(self):
        # every lane equals the scalar Lentz value of R_0
        model, sector, energies = two_mode_lanes()
        block = partial(coefficient_block, model, sector)
        r = batch_minimal_ratio(block, energies, asymptotic_roots(model).t2)
        for e, got in zip(energies, r):
            ref = eval_continued_fraction(BlockCoeffs(model, sector, e)).value
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_one_pass_from_the_tail(self, monkeypatch):
        # the README curve window: the tails from row 0 at 1e-12 are 17 to 28
        # rows, so one pass pivots the rows 28, ..., 1 in one table of 400
        # lanes, and no pivot row lies past 28.  The tail estimate reads rows
        # 1-10 and 11-30 of every lane, and row 0 ahead of them when the
        # pass asks for the rows it read; the pass takes its rows from them,
        # and F its row 0: no row is built twice
        model, sector = ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4), Sector.two_mode(1.0)
        energies = np.linspace(-1.0, 4.0, 400)
        built = []

        def block(lanes, n_lo, n_hi):
            built.append((lanes.size, n_lo, n_hi))
            return coefficient_block(model, sector, lanes, n_lo, n_hi)

        assert backward_tail(block, energies, 0, 1e-12) == 28
        assert built == [(400, 1, 10), (400, 11, 30)]
        tables, pivots = [], contfrac.batch_pivots

        def recording(a, b, sign, prev=None):
            tables.append(a.shape)
            return pivots(a, b, sign, prev)

        monkeypatch.setattr(contfrac, "batch_pivots", recording)
        built.clear()
        r = batch_minimal_ratio(block, energies, asymptotic_roots(model).t2)
        assert tables == [(28, 400)] and np.isfinite(r).all()
        assert built == [(400, 0, 10), (400, 11, 30)]
        # f_values reads a(0) from the same first chunk: no call for row 0 alone
        built.clear()
        monkeypatch.setattr(spectral, "coefficient_block",
                            lambda model, sector, lanes, n_lo, n_hi: block(lanes, n_lo, n_hi))
        spectral.f_values(model, sector, energies)
        assert built == [(400, 0, 10), (400, 11, 30)]

    @pytest.mark.parametrize("rows", [2, 3, 5, 6])
    def test_chunked_pass_equals_one_table(self, monkeypatch, rows):
        # the tail of these lanes is 35, so the pass pivots the 35 rows
        # n = 35, ..., 1: blocks of 2 or 6 rows (chunks of 1 or 5 pivot rows)
        # fill the last chunk, blocks of 3 or 5 rows do not.  The tail
        # estimate reads chunks of at most that many rows too, so the last
        # block is taken from the rows it read
        model, sector, energies = two_mode_lanes()
        block, t2 = partial(coefficient_block, model, sector), asymptotic_roots(model).t2
        assert backward_tail(block, energies, 0, 1e-12) == 35
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

    def test_tail_tolerance_read_at_call_time(self, monkeypatch):
        # the pass starts where the seed error has damped below
        # DEFAULT_REL_TOL as it stands when batch_minimal_ratio is called:
        # at 1e-6 the tail of these lanes is 25 rows, not 35
        model, sector, energies = two_mode_lanes()
        block, t2 = partial(coefficient_block, model, sector), asymptotic_roots(model).t2
        fine = batch_minimal_ratio(block, energies, t2)
        tails, tail = [], contfrac.backward_tail

        def recording(block, lanes, n, eps, read=None):
            tails.append((eps, tail(block, lanes, n, eps, read)))
            return tails[-1][1]

        monkeypatch.setattr(contfrac, "backward_tail", recording)
        monkeypatch.setattr(contfrac, "DEFAULT_REL_TOL", 1e-6)
        coarse = batch_minimal_ratio(block, energies, t2)
        assert tails == [(1e-6, 25)]
        assert not np.array_equal(coarse, fine)
        assert np.all(np.abs(coarse - fine) <= 1e-6 * np.maximum(1.0, np.abs(fine)))

    def test_argument_validation(self):
        # no lanes: no tail and no pass, whose rows per block divide by the lanes
        assert batch_minimal_ratio(const_block(1.0, 1.0), np.zeros(0), 0.0).shape == (0,)


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


def plant_zero(a, b, sign, row, lane, prev=None, backward=False):
    """Set a(row) of one lane so that its pivot is exactly 0.

    -sign * a(row) = b(row) / sigma_{row-1}, which is exact since sign = +-1.
    With ``backward`` the pivot is tau_row of the backward pass from the
    table's last row down, tau_n = -sign * a(n) - b(n + 1) / tau_{n+1}: the
    forward pivot of the reversed rows with b(n + 1) beside a(n).
    """
    if backward:  # a[::-1] is a view, so a(row) is set in place
        a, b, row = a[::-1], np.vstack([b[:1], b[:0:-1]]), len(a) - 1 - row
    before = guarded_pivots(a, b, sign, prev)[row - 1] if row else prev
    a[row, lane] = -sign * (b[row, 0] / before[lane])


def plant_pivot(a, b, sign, row, lane, value, prev=None):
    """Set a(row) of one lane, and for -0.0 also b(row), so its unguarded pivot is ``value``.

    ``value`` is +0.0, -0.0 or nan.  A row that reads no sigma_{row-1} has the
    pivot -sign * a(row); otherwise +0.0 is planted as ``plant_zero`` does and
    -0.0 as -sign * a(row) = -0.0 less b(row) / sigma_{row-1} = +0.0.
    """
    before = guarded_pivots(a, b, sign, prev)[row - 1] if row else prev
    a[row, lane] = -sign * value
    if before is not None and value == 0.0:
        if np.signbit(value):
            b[row, 0] = math.copysign(0.0, before[lane])
        else:
            plant_zero(a, b, sign, row, lane, prev)
    with np.errstate(invalid="ignore"):
        unguarded = -sign * a[row, lane] - (0.0 if before is None else b[row, 0] / before[lane])
    assert np.array(unguarded).tobytes() == np.array(value).tobytes()


def random_table(seed, lanes, rows=40):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, (rows, lanes)), rng.uniform(0.5, 1.5, (rows, 1))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("lanes", [1, 5])
class TestDeferredGuard:
    """``batch_pivots`` guards zero pivots bit for bit as the per-row guard does.

    Several lanes are guarded once per table through numpy, one lane on every
    row in a loop over its floats; a zero planted in lane k of five is in the one lane.
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

    def test_groups_pivot_as_separate_tables(self, sign, lanes):
        # two groups of lanes over rows of their own, with a divisor table of
        # the pivots' shape, pivot as each group alone, in one table or in
        # two chunks, a zero planted in the second group's chunk
        (a0, b0), (a1, b1) = random_table(8, lanes), random_table(9, lanes)
        plant_zero(a1, b1, sign, 12, lanes - 1)
        a = np.stack([a0, a1], axis=1)
        b = np.stack([np.broadcast_to(b0, a0.shape), np.broadcast_to(b1, a1.shape)], axis=1)
        want = np.stack([guarded_pivots(a0, b0, sign), guarded_pivots(a1, b1, sign)], axis=1)
        assert want[12, 1, lanes - 1] == -1e-30
        self.assert_same(batch_pivots(a, b, sign), want)
        head = batch_pivots(a[:10], b[:10], sign)
        self.assert_same(batch_pivots(a[10:], b[10:], sign, head[-1]), want[10:])

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

    @pytest.mark.parametrize("with_prev", [False, True])
    def test_empty_table(self, sign, lanes, with_prev):
        a, b = random_table(5, lanes, rows=0)
        prev = np.ones(lanes) if with_prev else None
        got = batch_pivots(a, b, sign, prev)
        assert got.shape == (0, lanes)
        self.assert_same(got, guarded_pivots(a, b, sign, prev))

    @pytest.mark.parametrize("rows, row", [(1, 0), (2, 0), (2, 1)])
    @pytest.mark.parametrize("with_prev", [False, True])
    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan], ids=["+0", "-0", "nan"])
    def test_short_table(self, sign, lanes, rows, row, with_prev, value):
        # the one-lane loop takes row 0 apart when no prev is passed
        a, b = random_table(6, lanes, rows)
        prev = np.random.default_rng(7).uniform(-2.0, 2.0, lanes) if with_prev else None
        lane = lanes - 1
        plant_pivot(a, b, sign, row, lane, value, prev)
        want = guarded_pivots(a, b, sign, prev)
        assert want[row, lane] == -1e-30 if value == 0.0 else math.isnan(want[row, lane])
        self.assert_same(batch_pivots(a, b, sign, prev), want)


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
