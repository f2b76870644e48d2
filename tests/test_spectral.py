"""Transcendental eigenvalue functions and pole-aware root finding."""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from rabispec import (
    ModelKind,
    ModelParams,
    PoleCollision,
    Sector,
    asymptotic_roots,
    compute_spectrum,
    oracle_spectrum,
)
from rabispec import cli, spectral
from rabispec.contfrac import (
    DEFAULT_REL_TOL,
    backward_tail,
    batch_minimal_ratio,
    batch_ratios,
    twisted_residual,
)
from rabispec.errors import SignLostWarning
from rabispec.models import coefficient_block, distance_to_pole_set, pole_energy, pole_lattice
from rabispec.spectral import (
    DEFAULT_ROOT_ABS_TOL,
    RESIDUAL_CAP,
    default_window_min,
    eps_exceptional,
    f_values,
    level_count,
    poles_in_window,
)

import reference
from conftest import ConstCoeffs, rabispec_imports
from reference import eval_continued_fraction, split_spectral_value
from test_contfrac import _random_cases, plant_zero


def collapse_window(model, sector):
    """(model, sector, window): a window 4 wide from the default lower bound."""
    lo = default_window_min(model, sector)
    return model, sector, (lo, lo + 4.0)


# two near-collapse windows (2g/omega = 0.92, g/omega = 0.92) whose levels
# move under every doubling
COLLAPSE_WINDOWS = [
    collapse_window(ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.46), Sector.two_photon(0.25)),
    collapse_window(ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.92), Sector.two_mode(1.5)),
]
COLLAPSE_IDS = ["two-photon", "two-mode"]
# 2g/omega = 0.99 and 0.996, and g/omega = 0.99, where the count settles at
# 4,096, 16,384 and 4,096 rows
COLLAPSE_099 = collapse_window(
    ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.495), Sector.two_photon(0.25))
COLLAPSE_0996 = collapse_window(
    ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.498), Sector.two_photon(0.25))
TWO_MODE_099 = collapse_window(ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.99), Sector.two_mode(1.0))
# a high window, whose poles and levels lie some 8,000 rows deep
TWO_PHOTON_400 = (
    ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.45), Sector.two_photon(0.75), (400.0, 404.0),
)
# driven delta = 0.5, drive = 0.3: levels whose rows lie past the first 128
STRONG_DRIVE = [
    (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, g, 0.3), Sector.driven(), window)
    for g, window in [(7.0, (-49.5, -45.5)), (8.0, (-65.5, -60.5)), (16.0, (-256.5, -252.5))]
]
# two-mode g/omega = 0.99 at kappa = 3 and 10, up to E = 4: the first squeezed
# windows whose slope row (models.slope_row, 225 and 930) is not 0
HIGH_KAPPA = [
    (model, sector, (default_window_min(model, sector), 4.0))
    for model in [ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.99)]
    for sector in (Sector.two_mode(3.0), Sector.two_mode(10.0))
]
# a high driven window, whose Gershgorin discs hold 0 past its last pole index
DRIVEN_HIGH = (ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.5, 0.3), Sector.driven(), (500.0, 504.0))
# driven, delta = 1e-4 and no drive: the levels come in pairs about 1e-4
# apart, half of them within the exceptional tolerance of a pole
NEAR_DEGENERATE = (
    ModelParams(ModelKind.DRIVEN_RABI, 1.0, 1e-4, 1.5), Sector.driven(), (-3.0, 3.0),
)
# the README compare window: driven, 18 levels, a Juddian level on pole n = 1
README_WINDOW = (
    ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, 0.3), Sector.driven(), (-1.5, 8.0),
)
README_ARGS = ["--model", "driven", "--delta", "0.4", "--g", "0.6", "--drive", "0.3",
               "--emin", "-1.5", "--emax", "8"]


class TestSpectralFunction:
    def test_small_at_reference_eigenvalues(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        for e in eigs[:5]:
            assert abs(split_spectral_value(model, sector, e, 0)) <= 1e-6

    def test_pole_collision(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energy(model, sector, 0)
        with pytest.raises(PoleCollision):
            split_spectral_value(model, sector, pole + 1e-12, 0)

    def test_constant_coefficient_surrogate(self):
        # R = -1 from the fraction, plus a(0) = 3
        coeffs = ConstCoeffs(3.0, 2.0)
        value = eval_continued_fraction(coeffs).value + coeffs.a(0)
        assert value == pytest.approx(2.0, abs=1e-11)


class TestSplitFunction:
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
            pole = pole_energy(model, sector, n)
            assert abs(split_spectral_value(model, sector, pole + 1e-8, split=n)) > 1e6
            assert abs(split_spectral_value(model, sector, pole + 1e-8, 0)) < 1e3


class TestScanAndRefine:
    def test_single_eigenvalue_window(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        result = compute_spectrum(model, sector, (0.2, 0.6))
        assert len(result.roots) == 1 and result.brackets_found == 1

    def test_empty_below_ground_state(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        result = compute_spectrum(model, sector, (-3.0, -2.0))
        assert result.roots == [] and result.flagged == []

    def test_refine_hits_oracle_value(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        (rec,) = compute_spectrum(model, sector, (0.2, 0.6)).roots
        assert rec.energy == pytest.approx(eigs[0], abs=1e-7)
        assert rec.residual <= RESIDUAL_CAP
        assert not rec.sign_lost

    def test_abs_tol_self_consistency(self, two_photon_ref, monkeypatch):
        # the bracket tolerance is read when compute_spectrum is called
        model, sector, _, _ = two_photon_ref
        records = []
        for tol in (1e-6, 1e-10):
            monkeypatch.setattr(spectral, "DEFAULT_ROOT_ABS_TOL", tol)
            (rec,) = compute_spectrum(model, sector, (0.2, 0.6)).roots
            assert rec.bracket_width <= tol
            records.append(rec)
        coarse, fine = records
        assert coarse.bracket_width > 1e-10
        assert abs(coarse.energy - fine.energy) <= 1e-6

    def test_surrogate_root_closed_form(self):
        # E enters only through a(0): F(E) = -1 + (E - 2), root at E = 3
        base = ConstCoeffs(3.0, 2.0)

        def f(e):
            return eval_continued_fraction(base).value + (e - 2.0)

        root = scipy.optimize.brentq(f, 2.0, 4.0, xtol=1e-14)
        assert root == pytest.approx(3.0, abs=1e-12)


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

    def test_narrow_window_around_pole(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energy(model, sector, 1)
        window = (pole - 5e-7, pole + 5e-7)
        result = compute_spectrum(model, sector, window)
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = result.energies + [r.energy for r in result.flagged]
        assert found == pytest.approx(oracle_vals, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_centred_on_pole(self, two_photon_ref, n):
        # the middle section point of the first step is the pole itself and
        # must move off it
        model, sector, _, _ = two_photon_ref
        pole = pole_energy(model, sector, n)
        window = (pole - 0.5, pole + 0.5)
        assert 0.5 * (window[0] + window[1]) == pole
        result = compute_spectrum(model, sector, window)
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = sorted(result.energies + [r.energy for r in result.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pole_on_lowest_section_point(self, two_photon_ref, n):
        # the lowest section point of the first step, not the middle one,
        # lands on the pole and must move off it
        model, sector, _, _ = two_photon_ref
        pole = pole_energy(model, sector, n)
        window = (pole - 0.1, pole + 1.5)
        assert abs(window[0] + (window[1] - window[0]) / 16 - pole) < model.eps_pole
        result = compute_spectrum(model, sector, window)
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = sorted(result.energies + [r.energy for r in result.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)

    def test_few_count_calls(self, two_photon_ref):
        # one round of sections per level, then cubic steps on det T: 6 count
        # calls on this window, where secant steps took 7, multisection
        # alone 11 and bisection 39
        model, sector, window, _ = two_photon_ref
        result = compute_spectrum(model, sector, window)
        assert result.count_calls <= 6
        assert all(r.bracket_width <= DEFAULT_ROOT_ABS_TOL for r in result.roots + result.flagged)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stencil_holding_a_pole_takes_sections(self, two_photon_ref, monkeypatch, n):
        # on the window of test_pole_on_lowest_section_point (n = 2, 3) a
        # bracket holds one level and no pole, but the five counted points
        # nearest it hold pole n: it takes sections, not the cubic's pair,
        # and every level still matches the oracle
        model, sector, _, _ = two_photon_ref
        pole = pole_energy(model, sector, n)
        window = (pole - 0.1, pole + 1.5)
        first, spacing = pole_lattice(model, sector)
        seen, step_points = [], spectral._step_points

        def checked(model, sector, points, counts, logs, k, single, tol):
            x, cubic = step_points(model, sector, points, counts, logs, k, single, tol)
            lo, hi = points[k - 1], points[k]
            for i in np.flatnonzero(single & (hi - lo > tol)):
                gap = np.maximum(lo[i] - points, points - hi[i])  # 0 or less at lo and hi
                stencil = points[np.argsort(gap, kind="stable")[:5]]
                poles = np.ceil((stencil - first) / spacing).clip(0)
                if points.size >= 5 and poles.min() != poles.max():
                    seen.append(i)
                    assert not cubic[i] and not np.isnan(x[i]).all()
            return x, cubic

        monkeypatch.setattr(spectral, "_step_points", checked)
        result = compute_spectrum(model, sector, window)
        assert seen
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = sorted(result.energies + [r.energy for r in result.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)

    def test_steps_by_kind_on_the_readme_window(self):
        # each level's section steps and cubic steps: the window's sections
        # and one round of its own, then two cubic steps, a third step for the
        # levels whose bracket or stencil held a pole and for the lowest; the
        # level on pole n = 1 takes sections only.  iterations is their sum
        result = compute_spectrum(*README_WINDOW)
        steps = [(r.section_steps, r.cubic_steps) for r in result.roots]
        assert steps == [(2, 3), (2, 2), (2, 2), (2, 2)] + [(3, 2), (2, 2)] * 6 + [(3, 2)]
        (on_pole,) = result.flagged
        assert (on_pole.section_steps, on_pole.cubic_steps) == (9, 0)
        assert all(r.iterations == r.section_steps + r.cubic_steps
                   for r in result.roots + result.flagged)

    def test_counters_tally_level_count(self, two_photon_ref, monkeypatch):
        model, sector, window, _ = two_photon_ref
        tally = {"calls": 0, "lanes": 0, "rows": 0}

        def counted(model, sector, energies, rows):
            tally["calls"] += 1
            tally["lanes"] += len(energies)
            tally["rows"] += rows
            counts, log_dets = level_count(model, sector, energies, rows)
            assert counts.shape == log_dets.shape == (len(energies),)
            return counts, log_dets

        monkeypatch.setattr(spectral, "level_count", counted)
        result = compute_spectrum(model, sector, window)
        assert (result.count_calls, result.grid_points, result.count_row_steps) == (
            tally["calls"], tally["lanes"], tally["rows"])

    @pytest.mark.parametrize("model, sector, window", COLLAPSE_WINDOWS, ids=COLLAPSE_IDS)
    def test_collapse_window_renarrows_from_last_bracket(self, model, sector, window):
        # near collapse the levels move a little under each doubling; cutting
        # out from their last bracket took 27 count calls on each window,
        # where narrowing from the neighbours' brackets took 40 and 31, the
        # secant steps 18 and 17 and, from the reach's start, 11 and 7; the
        # cubic steps take 10 and 6
        result = compute_spectrum(model, sector, window)
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = sorted(result.energies + [r.energy for r in result.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)
        assert all(r.bracket_width <= DEFAULT_ROOT_ABS_TOL for r in result.roots + result.flagged)
        assert result.count_calls <= 10

    @pytest.mark.parametrize("case, work", zip(
        [README_WINDOW, *COLLAPSE_WINDOWS, COLLAPSE_099, NEAR_DEGENERATE, COLLAPSE_0996,
         TWO_MODE_099, TWO_PHOTON_400, DRIVEN_HIGH],
        [(10, 704, 548, 64, 64), (10, 2176, 250, 128, 256), (6, 1792, 116, 256, 256),
         (6, 28672, 306, 4096, 4096), (8, 576, 637, 64, 64), (6, 114688, 566, 16384, 16384),
         (6, 28672, 421, 4096, 4096), (6, 114688, 283, 16384, 16384), (6, 7168, 299, 1024, 1024)],
    ), ids=["readme"] + COLLAPSE_IDS + ["two-photon-0.99", "near-degenerate", "two-photon-0.996",
                                        "two-mode-0.99", "two-photon-400", "driven-500"])
    def test_count_work_pinned(self, case, work):
        # the count's work counters, (count_calls, count_row_steps,
        # grid_points), at most their values since the count starts at the
        # reach of T(E) plus its tail: a change that adds count work fails
        # here, with no timing.  Starting at 64 rows took (18, 2816, 496) and
        # (17, 2688, 371) near collapse, 46 calls and 52,736 row steps at
        # 2g/omega = 0.99, 60 and 219,648 at 0.996, 47 and 56,832 at
        # g/omega = 0.99, 41 and 257,024 on (400, 404], and 13 and 11,264 on
        # driven (500, 504], which started at its last pole index; the secant
        # steps took (10, 704, 724) on the README window, (11, 2304, 344) and
        # (7, 2048, 154) near collapse, and 7, 10, 8, 7, 8 and 6 calls on the
        # windows after them.  Then
        # (count_start, count_rows): the three windows of
        # test_deep_collapse_levels_found start at the truncation that
        # settles them.  The near-degenerate window, whose levels come in
        # pairs 1e-4 apart, took as many calls as multisection alone with the
        # secant steps; the cubic steps take 8
        result = compute_spectrum(*case)
        assert result.count_calls <= work[0]
        assert result.count_row_steps <= work[1]
        assert result.grid_points <= work[2]
        assert (result.count_start, result.count_rows) == work[3:]

    @pytest.mark.parametrize("case", [README_WINDOW, *COLLAPSE_WINDOWS, COLLAPSE_099, COLLAPSE_0996,
                                      TWO_MODE_099, TWO_PHOTON_400, *STRONG_DRIVE, DRIVEN_HIGH,
                                      *HIGH_KAPPA])
    def test_count_start_follows_the_rule(self, case):
        # the start, read off blocks of rows from 128 up, equals the rule read
        # off 32,768 rows at once with backward_tail's own tail:
        # max(64, P(top + 1), min(P(reach + tail), P(2 reach))), P(n) the
        # power of two at or above n and the reach the last row whose
        # Gershgorin disc holds 0 at an edge or whose a(n, E) changes sign
        # between the edges
        model, sector, window = case
        edges = np.array(window)
        a, b = coefficient_block(model, sector, edges, 0, 2**15)
        radius = np.sqrt(b[:-1]) + np.sqrt(b[1:])
        a = a[:-1]
        holds = (np.abs(a) <= radius).any(axis=1) | (np.sign(a[:, 0]) != np.sign(a[:, 1]))
        reach = int(np.flatnonzero(holds)[-1])
        assert reach < 2**14
        tail = backward_tail(partial(coefficient_block, model, sector), edges, reach, 1e-8)
        first, spacing = pole_lattice(model, sector)
        top = max(math.floor((window[1] - first) / spacing), 0)

        def power(n):
            return 1 << (n - 1).bit_length()

        want = max(64, power(top + 1), min(power(reach + tail), power(2 * reach)))
        assert spectral._count_start(model, sector, edges, top, spectral.DEFAULT_MAX_DEPTH) == want
        if case in STRONG_DRIVE:  # the levels past the first 128 rows
            assert (reach, want) == {7.0: (257, 512), 8.0: (326, 512), 16.0: (1160, 2048)}[model.g]

    @pytest.mark.parametrize("cells", [6, 256])
    @pytest.mark.parametrize("case", [README_WINDOW, *COLLAPSE_WINDOWS, COLLAPSE_099, *STRONG_DRIVE])
    def test_count_start_in_row_blocks(self, monkeypatch, case, cells):
        # the rows read in blocks of 3 or 128 rows, the reach and the tail
        # carried across them, give the start that blocks of 32,768 rows give
        model, sector, window = case
        first, spacing = pole_lattice(model, sector)
        top = max(math.floor((window[1] - first) / spacing), 0)
        args = model, sector, np.array(window), top, spectral.DEFAULT_MAX_DEPTH
        want = spectral._count_start(*args)
        monkeypatch.setattr(spectral, "CHUNK_CELLS", cells)
        assert spectral._count_start(*args) == want

    @pytest.mark.parametrize("case, reads", [
        (README_WINDOW, [(0, 128)]),
        (COLLAPSE_WINDOWS[1], [(0, 128), (128, 256)]),
        (STRONG_DRIVE[0], [(0, 128), (128, 256), (256, 512)]),
    ], ids=["readme", "two-mode-0.92", "strong-drive"])
    def test_count_start_reads(self, monkeypatch, case, reads):
        # the rows (n_lo, n_hi) read at the edges: one block of 128 rows where
        # the reach and its tail end inside it; the next 128 where the tail
        # runs past them short of P(2 reach) (the reach is 77 at
        # g/omega = 0.92); on strong drive the next 128 where row 127 lies
        # short of the slope row (195), then 256 more where the reach runs
        # to row 255
        model, sector, window = case
        read = []

        def recorded(model, sector, energies, n_lo, n_hi):
            read.append((n_lo, n_hi))
            return coefficient_block(model, sector, energies, n_lo, n_hi)

        monkeypatch.setattr(spectral, "coefficient_block", recorded)
        spectral._count_start(model, sector, np.array(window), 0, spectral.DEFAULT_MAX_DEPTH)
        assert read == reads

    def test_capped_start(self, monkeypatch):
        # at a 64-row cap the count starts at 64 even where the reach of T(E)
        # runs to 1,417 rows, and the levels it narrows there are unconfirmed
        monkeypatch.setattr(spectral, "DEFAULT_MAX_DEPTH", 64)
        with pytest.warns(SignLostWarning):
            result = compute_spectrum(*COLLAPSE_099)
        assert result.count_start == result.count_rows == 64
        assert result.count_row_steps == 64 * result.count_calls

    @pytest.mark.parametrize("levels", [
        # level 0 moves between the old brackets of levels 1 and 2, where no
        # probe out from its last bracket lands
        {64: [1.0, 1.0 + 1e-6, 1.0 + 3e-6], 128: [1.0 + 2e-6, 1.0 + 3e-6]},
        # level 1 enters the window at the doubling: it has no last bracket
        {64: [1.0], 128: [1.0, 1.3]},
    ], ids=["no-probe-inside", "no-last-bracket"])
    def test_renarrowing_fallbacks(self, two_photon_ref, monkeypatch, levels):
        # a stand-in count whose levels move at the first doubling; the one
        # level that moved takes the even sections and narrows to root_abs_tol
        model, sector, _, _ = two_photon_ref

        def count(model, sector, energies, rows):
            counts = np.searchsorted(levels[min(rows, 128)], energies)
            return counts, np.full(len(energies), np.nan)

        monkeypatch.setattr(spectral, "level_count", count)
        result = compute_spectrum(model, sector, (0.5, 1.5))
        assert result.count_rows == 128 and not result.flagged
        assert result.energies == pytest.approx(levels[128], abs=DEFAULT_ROOT_ABS_TOL)
        assert all(r.bracket_width <= DEFAULT_ROOT_ABS_TOL for r in result.roots)

    def test_zero_pivot_across_count_chunks(self, two_photon_ref, monkeypatch):
        # a 1,500-row count over a random table equals the Sturm count of the
        # per-row guarded forward pivots of the whole table.  The twisted
        # factorisation meets at row 750, and each half runs in chunks of 512
        # rows: forward rows 0..511 and 512..749, backward rows 1499..988 and
        # 987..751.  Each lane holds one exact zero pivot: in the forward half,
        # in the first row of its second chunk, in the backward half, in the
        # first row of its second chunk; the last lane's pivots are powers of
        # two with gamma_750 = 0, so its T is exactly singular and the forward
        # pass meets its zero in the last row
        model, sector, _, _ = two_photon_ref
        rows, k = 1500, 750
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-2.0, 2.0, (rows, 5)), 2.0 ** rng.integers(-1, 2, (rows, 1))
        # the last lane: alpha_n = sigma_n + b(n)/sigma_{n-1} below k and
        # tau_n + b(n+1)/tau_{n+1} above it, every sum exact
        pivots = rng.choice([-1.0, 1.0], rows) * 2.0 ** rng.integers(-3, 4, rows)
        b_row = b[:, 0]
        alpha = pivots.copy()
        alpha[1:k] += b_row[1:k] / pivots[:k - 1]
        alpha[k + 1:-1] += b_row[k + 2:] / pivots[k + 2:]
        alpha[k] = b_row[k] / pivots[k - 1] + b_row[k + 1] / pivots[k + 1]
        a[:, 4] = -alpha
        plant_zero(a, b, 1.0, 300, 0)
        plant_zero(a, b, 1.0, 512, 1)
        plant_zero(a, b, 1.0, 1200, 2, backward=True)
        plant_zero(a, b, 1.0, 987, 3, backward=True)
        assert spectral._COUNT_CHUNK_ROWS == 1024
        monkeypatch.setattr(
            spectral, "coefficient_block",
            lambda model, sector, energies, n_lo, n_hi: (a[n_lo:n_hi + 1], b[n_lo:n_hi + 1]),
        )
        energies = np.linspace(-3.0, -2.0, 5)  # below the first pole: no pole term
        forward = reference.guarded_pivots(a, b, 1.0)
        assert forward[-1, 4] == -1e-30  # the singular lane's last pivot was 0
        want = np.count_nonzero(forward < 0.0, axis=0)
        np.testing.assert_array_equal(level_count(model, sector, energies, rows)[0], want)

    def test_nan_log_dets_narrow_by_sections_alone(self, monkeypatch):
        # without a finite log|det T| no bracket takes cubic points: the
        # README window takes the count work of multisection alone
        def count(model, sector, energies, rows):
            return level_count(model, sector, energies, rows)[0], np.full(len(energies), np.nan)

        monkeypatch.setattr(spectral, "level_count", count)
        result = compute_spectrum(*README_WINDOW)
        assert (result.count_calls, result.count_row_steps, result.grid_points) == (11, 768, 2413)
        assert all(r.bracket_width <= DEFAULT_ROOT_ABS_TOL for r in result.roots)

    @pytest.mark.parametrize("wrong", ["random", "negated"])
    def test_wrong_log_dets_still_find_every_level(self, two_photon_ref, monkeypatch, wrong):
        # cubic points from a wrong log|det T| cost count calls, never a
        # level: the count alone decides each bracket
        model, sector, window, eigs = two_photon_ref
        rng = np.random.default_rng(3)

        def count(model, sector, energies, rows):
            counts, log_dets = level_count(model, sector, energies, rows)
            if wrong == "random":
                return counts, rng.normal(0.0, 30.0, log_dets.shape)
            return counts, -log_dets

        monkeypatch.setattr(spectral, "level_count", count)
        result = compute_spectrum(model, sector, window)
        assert result.energies == pytest.approx(eigs, abs=1e-7) and not result.flagged
        assert all(r.bracket_width <= DEFAULT_ROOT_ABS_TOL for r in result.roots)
        readme = compute_spectrum(*README_WINDOW)
        oracle_vals, _ = oracle_spectrum(*README_WINDOW)
        found = sorted(readme.energies + [r.energy for r in readme.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)
        assert all(r.bracket_width <= DEFAULT_ROOT_ABS_TOL for r in readme.roots)
        (on_pole,) = readme.flagged
        assert on_pole.bracket_width <= 2.0 * README_WINDOW[0].eps_pole

    def test_residual_tables_equal_one_table(self, two_photon_ref, monkeypatch):
        # residuals read one level per table equal those read in one table,
        # and each is twisted_residual over rows 0..count_rows - 1 at its
        # energy alone.  The tables are fixed by the call: the residuals are
        # read after the patch is undone.  The count keeps its own chunks:
        # log|det T| summed over other chunks differs in its last bits, which
        # the cubic steps carry into the levels
        model, sector, window, _ = two_photon_ref
        one_table = [(r.energy, r.residual) for r in compute_spectrum(model, sector, window).roots]
        cells = spectral.CHUNK_CELLS

        def counted(*args):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "CHUNK_CELLS", cells)
                return level_count(*args)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "level_count", counted)
            patch.setattr(spectral, "CHUNK_CELLS", 1)
            result = compute_spectrum(model, sector, window)
        assert [(r.energy, r.residual) for r in result.roots] == one_table
        t2, sign = asymptotic_roots(model).t2, math.copysign(1.0, model.g)
        for r in result.roots:
            a, b = coefficient_block(model, sector, np.array([r.energy]), 0, result.count_rows - 1)
            assert r.residual == twisted_residual(a, b, batch_ratios(a, b, t2), sign)[0]

    @pytest.mark.parametrize("chunk", [1, 7, 32])
    def test_chunked_count_equals_one_table(self, two_photon_ref, monkeypatch, chunk):
        # 100 rows in chunks of 1, 3 or 16 rows per half, the last one
        # partial, against one table of 50 rows per half and the forward count
        model, sector, window, _ = two_photon_ref
        energies = np.linspace(*window, 201)
        energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3]
        counts, log_dets = level_count(model, sector, energies, 100)
        np.testing.assert_array_equal(
            counts, reference.forward_count(model, sector, energies, 100))
        monkeypatch.setattr(spectral, "_COUNT_CHUNK_ROWS", chunk)
        chunked = level_count(model, sector, energies, 100)
        np.testing.assert_array_equal(chunked[0], counts)
        np.testing.assert_allclose(chunked[1], log_dets, rtol=1e-13)

    def test_window_validation(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        for window in ((2.0, 1.0), (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                compute_spectrum(model, sector, window)

    def test_window_past_the_row_cap_rejected(self, monkeypatch):
        # the count's rows must exceed the index of the last pole below e_max:
        # at E = 1e7 that is pole 10^7, past the 2^20-row cap, and at a
        # 64-row cap pole 64 (E_n = 0.05 + n here) is out of reach
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.5, 0.3)
        with pytest.raises(ValueError, match="cap"):
            compute_spectrum(model, Sector.driven(), (1e7, 1e7 + 4.0))
        monkeypatch.setattr(spectral, "DEFAULT_MAX_DEPTH", 64)
        with pytest.warns(SignLostWarning):
            assert compute_spectrum(model, Sector.driven(), (60.0, 64.0)).count_rows == 64
        with pytest.raises(ValueError, match="pole index 64 "):
            compute_spectrum(model, Sector.driven(), (60.0, 64.9))

    def test_row_cap_leaves_levels_unconfirmed(self, two_photon_ref, monkeypatch):
        # at a 64-row cap the first count is the last: every level is narrowed
        # at the cap, none is checked under a doubling, and one warning says so
        model, sector, window, eigs = two_photon_ref
        monkeypatch.setattr(spectral, "DEFAULT_MAX_DEPTH", 64)
        with pytest.warns(SignLostWarning) as record:
            result = compute_spectrum(model, sector, window)
        assert len(record) == 1
        assert len(result.roots) == len(eigs) == 9
        assert all(rec.sign_lost for rec in result.roots)
        assert result.brackets_rejected == 9 and result.count_start == result.count_rows == 64

    def test_default_window_min_below_ground(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        assert default_window_min(model, sector) < eigs[0]


class TestResidualPass:
    """The residual pass runs on the first read of a residual, once for every level."""

    @pytest.fixture
    def tables(self, monkeypatch):
        # the lanes of each table the residual pass reads
        lanes = []

        def counted(a, b, ratios, sign):
            lanes.append(a.shape[1])
            return twisted_residual(a, b, ratios, sign)

        monkeypatch.setattr(spectral, "twisted_residual", counted)
        return lanes

    def test_compare_runs_no_pass(self, capsys, tables):
        assert cli.main(["compare", *README_ARGS]) == 0
        assert tables == []

    def test_spectrum_runs_one_pass_per_table(self, capsys, tables):
        # 23 levels at 16,384 rows: six tables of 2^16 / 16,384 = 4 levels or fewer
        args = ["--model", "two-photon", "--delta", "0.5", "--g", "0.498", "--q", "1/4",
                "--emax", "1.5", "--format", "json"]
        assert cli.main(["spectrum", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        levels = sum(row["residual"] is not None for row in payload["rows"])
        width = spectral.CHUNK_CELLS // payload["meta"]["count_rows"]
        assert (levels, width) == (23, 4)
        assert tables == [4, 4, 4, 4, 4, 3]

    def test_residuals_read_twice_run_one_pass(self, two_photon_ref, tables):
        model, sector, window, _ = two_photon_ref
        result = compute_spectrum(model, sector, window)
        assert tables == []
        first = [r.residual for r in result.roots]
        assert tables == [len(result.roots)]
        assert [r.residual for r in result.roots] == first and tables == [len(result.roots)]

    def test_records_compare_by_residual_value(self):
        # two results of one window hold two passes, and compare equal, the
        # level on the pole (inf) too; a record with another residual does not
        first, second = compute_spectrum(*README_WINDOW), compute_spectrum(*README_WINDOW)
        assert first == second and len(first.flagged) == 1
        assert [hash(r) for r in first.roots] == [hash(r) for r in second.roots]
        one, other = first.roots[:2]
        assert dataclasses.replace(one, _residual=other._residual) != one

    def test_table_width_read_at_call_time(self, two_photon_ref, tables, monkeypatch):
        model, sector, window, _ = two_photon_ref
        rows = compute_spectrum(model, sector, window).count_rows
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "CHUNK_CELLS", 2 * rows)
            result = compute_spectrum(model, sector, window)
        assert result.count_rows == rows and len(result.roots) == 9
        assert tables == []
        result.roots[-1].residual  # one read runs the pass for every level
        assert tables == [2, 2, 2, 2, 1]


def _brute_poles_in_window(model, sector, e_min, e_max):
    """Every pole from E_0 up to e_max, kept where it lies in [e_min, e_max]."""
    first, spacing = pole_lattice(model, sector)
    if e_max < first:
        return []
    n_hi = int(math.floor((e_max - first) / spacing)) + 1
    return [p for p in (first + n * spacing for n in range(n_hi + 1)) if e_min <= p <= e_max]


@st.composite
def _pole_windows(draw):
    """A model, its sector and a window whose edges may sit exactly on poles."""
    kind = draw(st.sampled_from(list(ModelKind)))
    if kind is ModelKind.TWO_PHOTON:
        model = ModelParams(kind, 1.0, 0.5, draw(st.floats(-0.49, 0.49).filter(abs)))
        sector = Sector.two_photon(draw(st.sampled_from([0.25, 0.75])))
    elif kind is ModelKind.TWO_MODE:
        model = ModelParams(kind, 1.0, 0.5, draw(st.floats(-0.99, 0.99).filter(abs)))
        sector = Sector.two_mode(draw(st.sampled_from([0.5, 1.0, 1.5])))
    else:
        model = ModelParams(kind, 1.0, 0.5, draw(st.floats(-3.0, 3.0).filter(abs)),
                            draw(st.floats(-1.0, 1.0)))
        sector = Sector.driven()
    first, spacing = pole_lattice(model, sector)
    edges = []
    for _ in range(2):
        n = draw(st.integers(-5, 3000))
        # on a pole E_n as the pole set computes it, or anywhere around it
        off = draw(st.sampled_from([0.0, 0.0, None]))
        edges.append(first + n * spacing
                     + (draw(st.floats(-spacing, spacing)) if off is None else off))
    return model, sector, min(edges), max(edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_pole_windows())
def test_poles_in_window_matches_every_pole(case):
    # the index range equals the pole-by-pole list from E_0, an edge on a
    # pole included
    assert poles_in_window(*case) == _brute_poles_in_window(*case)


class TestTwoEndedCount:
    """``level_count``, the inertia of a twisted factorisation, against the forward Sturm count."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 64, 127, 1024, 2049, 5000])
    def test_equals_forward_count_on_random_energies(self, rows):
        rng = np.random.default_rng(rows)
        for model, sector, energy in _random_cases(8, seed=rows):
            energies = energy + rng.uniform(-2.0, 2.0, 6)
            energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3]
            np.testing.assert_array_equal(
                level_count(model, sector, energies, rows)[0],
                reference.forward_count(model, sector, energies, rows),
            )

    @pytest.mark.parametrize("rows", [1, 2, 3, 64, 127, 1024, 2049])
    def test_log_det_equals_slogdet(self, rows):
        # log|det T(E)| from the pivots of both halves and the twist equals
        # LAPACK's from an LU of the dense truncation, and (-1)^(N(E) - poles
        # below E) is its sign; 2,049 rows take two chunks of each half
        rng = np.random.default_rng(rows)
        lanes = 6 if rows < 1000 else 1
        for model, sector, energy in _random_cases(4, seed=rows):
            energies = energy + rng.uniform(-2.0, 2.0, lanes)
            energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3]
            counts, log_dets = level_count(model, sector, energies, rows)
            first, spacing = pole_lattice(model, sector)
            poles = np.clip(np.ceil((energies - first) / spacing), 0, rows)
            a, b = coefficient_block(model, sector, energies, 0, rows - 1)
            for lane, energy in enumerate(energies):
                t = np.diag(-math.copysign(1.0, model.g) * a[:, lane])
                t += np.diag(np.sqrt(b[1:, 0]), 1) + np.diag(np.sqrt(b[1:, 0]), -1)
                sign, want = np.linalg.slogdet(t)
                assert abs(log_dets[lane] - want) <= 1e-12 * max(1.0, abs(want)), (model, energy)
                assert sign == (-1.0) ** (counts[lane] - poles[lane]), (model, energy)

    def test_log_det_through_a_zero_pivot(self, two_photon_ref, monkeypatch):
        # a pivot of exactly 0 is a tiny negative one (Kahan's guard), and the
        # next pivot, b(n+1)/tiny, makes up for it: log|det T| still equals
        # LAPACK's.  Lane 0 has its zero in the forward half, lane 1 in the
        # backward half, lane 2 none
        model, sector, _, _ = two_photon_ref
        rows = 200
        rng = np.random.default_rng(8)
        a, b = rng.uniform(-2.0, 2.0, (rows, 3)), 2.0 ** rng.integers(-1, 2, (rows, 1))
        plant_zero(a, b, 1.0, 40, 0)
        plant_zero(a, b, 1.0, 150, 1, backward=True)
        monkeypatch.setattr(
            spectral, "coefficient_block",
            lambda model, sector, energies, n_lo, n_hi: (a[n_lo:n_hi + 1], b[n_lo:n_hi + 1]),
        )
        energies = np.linspace(-3.0, -2.0, 3)  # below the first pole: no pole term
        counts, log_dets = level_count(model, sector, energies, rows)
        for lane in range(3):
            off = np.sqrt(b[1:, 0])
            t = np.diag(-a[:, lane]) + np.diag(off, 1) + np.diag(off, -1)
            sign, want = np.linalg.slogdet(t)
            assert abs(log_dets[lane] - want) <= 1e-12 * max(1.0, abs(want)), lane
            assert sign == (-1.0) ** counts[lane], lane

    @pytest.mark.parametrize("model, sector, window", [
        README_WINDOW, *COLLAPSE_WINDOWS, COLLAPSE_099, NEAR_DEGENERATE,
    ], ids=["readme"] + COLLAPSE_IDS + ["two-photon-0.99", "near-degenerate"])
    def test_each_point_counted_once_as_forward(self, monkeypatch, model, sector, window):
        # every point compute_spectrum counts reaches level_count once per
        # truncation, and its count equals the forward Sturm count, though
        # every point counted at a truncation is kept for the cubic steps;
        # the result's counters are the calls, lanes and rows passed.  The
        # two-photon collapse window narrows at 128 rows and again at 256
        calls = []

        def spy(model, sector, energies, rows):
            counts, log_dets = level_count(model, sector, energies, rows)
            calls.append((rows, np.array(energies, dtype=float), counts))
            return counts, log_dets

        monkeypatch.setattr(spectral, "level_count", spy)
        result = compute_spectrum(model, sector, window)
        assert (result.count_calls, result.grid_points, result.count_row_steps) == (
            len(calls), sum(e.size for _, e, _ in calls), sum(rows for rows, _, _ in calls))
        for rows in sorted({rows for rows, _, _ in calls}):
            energies = np.concatenate([e for r, e, _ in calls if r == rows])
            counts = np.concatenate([c for r, _, c in calls if r == rows])
            assert np.unique(energies).size == energies.size, rows
            np.testing.assert_array_equal(
                counts, reference.forward_count(model, sector, energies, rows))


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


    @pytest.mark.parametrize("lo_side, hi_side, held", [
        (None, -1.0, False), (None, 1.0, True), (-1.0, None, True), (1.0, None, False),
    ])
    def test_window_edge_next_to_level_on_pole(self, lo_side, hi_side, held):
        # an edge within eps_pole of the pole holding the 0.94 level keeps the
        # level in the window exactly when the pole lies in it
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, 0.3)
        sector = Sector.driven()
        pole = pole_energy(model, sector, 1)
        window = (0.5 if lo_side is None else pole + lo_side * 5e-10,
                  1.3 if hi_side is None else pole + hi_side * 5e-10)
        result = compute_spectrum(model, sector, window)
        assert [r.energy for r in result.flagged] == ([pole] if held else [])

    def test_level_on_pole_at_lowest_section_point(self):
        # the 0.94 level sits on pole n = 1, and the lowest section point of
        # the first step lands there: the level is still flagged at the pole
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.4, 0.6, 0.3)
        sector = Sector.driven()
        pole = pole_energy(model, sector, 1)
        window = (pole - 0.05, pole + 0.75)
        assert abs(window[0] + (window[1] - window[0]) / 16 - pole) < model.eps_pole
        result = compute_spectrum(model, sector, window)
        assert [r.energy for r in result.flagged] == [pole]
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = sorted(result.energies + [r.energy for r in result.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)


def deep_f_values(model, sector, energies):
    """F from one ``batch_ratios`` pass seeded four times deeper than ``f_values``'s tail."""
    block = partial(coefficient_block, model, sector)
    a, b = block(energies, 0, 4 * backward_tail(block, energies, 0, DEFAULT_REL_TOL))
    return batch_ratios(a, b, asymptotic_roots(model).t2)[0] + a[0]


class TestBatchedEigencondition:
    def test_agrees_with_lentz_on_random_points(self):
        # one batch of F per model and sector over 100 random points
        cases = _random_cases(100)
        for model, sector in {(m, s) for m, s, _ in cases}:
            energies = [e for m, s, e in cases if (m, s) == (model, sector)]
            for e, f in zip(energies, f_values(model, sector, energies)):
                ref = split_spectral_value(model, sector, e, 0)
                assert abs(f - ref) <= 1e-9 * max(1.0, abs(ref)), (model, e)

    def test_within_tolerance_at_the_edge(self):
        # where one pass from the predicted tail moved F most: the strong-drive
        # window (a tail of 8 rows at 1e-12), against Lentz, and lanes at
        # 2g/omega = 0.99 (17,493 rows), against a pass four times deeper
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.5, 7.0, 0.3)
        energies = np.linspace(-49.5, -45.5, 400)
        for e, f in zip(energies, f_values(model, Sector.driven(), energies)):
            ref = split_spectral_value(model, Sector.driven(), e, 0, rel_tol=1e-15)
            assert abs(f - ref) <= DEFAULT_REL_TOL * max(1.0, abs(ref)), e
        model, sector = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.495), Sector.two_photon(0.25)
        energies = np.linspace(-1.5, 4.5, 5)
        ref = deep_f_values(model, sector, energies)
        got = f_values(model, sector, energies)
        assert np.all(np.abs(got - ref) <= DEFAULT_REL_TOL * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.xfail(strict=True, reason="the tail damps R_0's seed error relative to R_0, "
                       "and F = R_0 + a(0) cancels it near a level")
    def test_within_tolerance_at_reference_eigenvalues(self, two_photon_ref):
        # at these levels |R_0| reaches 8.4 while F is near 0: F is off by up to
        # 1.3e-11, 1.5 * DEFAULT_REL_TOL * |R_0|
        model, sector, _, eigs = two_photon_ref
        ref = deep_f_values(model, sector, np.asarray(eigs))
        got = f_values(model, sector, eigs)
        assert np.all(np.abs(got - ref) <= DEFAULT_REL_TOL * np.maximum(1.0, np.abs(ref)))

    def test_small_at_reference_eigenvalues(self, two_photon_ref):
        model, sector, _, eigs = two_photon_ref
        values = f_values(model, sector, eigs)
        assert values.shape == (len(eigs),)
        assert np.all(np.abs(values) <= 1e-6)

    def test_non_finite_lanes_are_nan_without_warnings(self, two_photon_ref):
        # a nan energy has a nan nearest pole, which casts nothing, and +inf
        # the pole +inf, whose distance inf - inf is nan
        model, sector, _, _ = two_photon_ref
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f_values(model, sector, [math.inf, -math.inf, math.nan, 0.3])
        assert np.isnan(values[:3]).all()
        assert values[3] == f_values(model, sector, [0.3])[0]

    def test_pole_lane_is_nan_and_isolated(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        pole = pole_energy(model, sector, 2)
        energies = np.array([0.3, 1.1, pole + 1e-10, 2.6, 4.2])
        batch = f_values(model, sector, energies)
        assert math.isnan(batch[2])
        with pytest.raises(PoleCollision):
            split_spectral_value(model, sector, pole + 1e-10, 0)
        keep = [0, 1, 3, 4]
        np.testing.assert_array_equal(batch[keep], f_values(model, sector, energies[keep]))


# the scalar references, which live in tests/reference.py, and retired names:
# error and warning types that no production path raised, an old evaluator,
# and the scalar-era model layer that coefficient_block replaced
REFERENCE_NAMES = {
    "CFValue", "eval_continued_fraction", "backward_recursion_ratio", "backward_ratios",
    "forward_ratio", "split_spectral_value", "forward_count", "doubling_oracle_spectrum",
}
RETIRED_NAMES = {
    "DivisionBlowup", "EmptyWindow", "CollapseRegimeWarning", "ConvergenceFailure",
    "spectral_function", "ThreeTermCoeffs", "three_term_coeffs", "pole_energies",
    "pole_spacing", "BogoliubovParams", "bogoliubov_params", "nearest_pole_index",
    "backward_ratio_rows", "CoefficientPole",
}


def test_solvers_take_no_settable_value():
    # the bracket tolerance, F's seed damping, the count's row cap and the
    # oracle's ceiling are module constants, read when a solver is called
    for solver in (compute_spectrum, oracle_spectrum):
        assert list(inspect.signature(solver).parameters) == ["model", "sector", "window"]
    assert list(inspect.signature(f_values).parameters) == ["model", "sector", "energies"]
    assert list(inspect.signature(batch_minimal_ratio).parameters) == ["block", "lanes", "scale"]


def test_warning_types_exported():
    import rabispec

    assert rabispec.SignLostWarning is SignLostWarning
    for name in RETIRED_NAMES | REFERENCE_NAMES:
        assert name not in rabispec.__all__ and not hasattr(rabispec, name), name
    assert all(hasattr(rabispec, name) for name in rabispec.__all__)


def test_production_paths_reach_no_scalar_evaluator():
    # F has one production evaluator, f_values, and only the CLI (for
    # curve) imports it: the residual is read from the recursions its callers
    # run anyway.  The CLI imports nothing from contfrac; the series imports
    # the batched backward pass, its start depth and the residual rule.  No
    # module defines or imports a scalar reference
    import rabispec
    import rabispec.cli
    import rabispec.series

    cli = rabispec_imports(rabispec.cli)
    assert {name for module, name in cli if module == "contfrac"} == set()
    series = rabispec_imports(rabispec.series)
    assert {name for module, name in series if module == "contfrac"} == {
        "backward_tail", "batch_ratios", "twisted_residual",
    }
    modules = [rabispec] + [
        importlib.import_module(f"rabispec.{info.name}")
        for info in pkgutil.iter_modules(rabispec.__path__)
    ]
    for module in modules:
        names = {name for _, name in rabispec_imports(module)}
        if module is not rabispec.cli:
            assert "f_values" not in names, module.__name__
        defined = {
            node.name for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not (names | defined) & (REFERENCE_NAMES | RETIRED_NAMES), module.__name__
    assert {name for name in vars(reference) if not name.startswith("_")} >= REFERENCE_NAMES
