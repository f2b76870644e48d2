"""Transcendental eigenvalue functions and pole-aware root finding."""

import ast
import importlib
import math
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from rabispec import (
    ModelKind,
    ModelParams,
    PoleCollision,
    Sector,
    compute_spectrum,
    oracle_spectrum,
)
from rabispec import spectral
from rabispec.errors import SignLostWarning
from rabispec.models import distance_to_pole_set, pole_energy
from rabispec.spectral import (
    RESIDUAL_CAP,
    SpectrumOptions,
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
        opts = SpectrumOptions(root_abs_tol=1e-10)
        (rec,) = compute_spectrum(model, sector, (0.2, 0.6), opts).roots
        assert rec.energy == pytest.approx(eigs[0], abs=1e-7)
        assert rec.residual <= RESIDUAL_CAP
        assert not rec.sign_lost

    def test_abs_tol_self_consistency(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        (coarse,), (fine,) = (
            compute_spectrum(model, sector, (0.2, 0.6), SpectrumOptions(root_abs_tol=tol)).roots
            for tol in (1e-6, 1e-10)
        )
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
        # a multisection step settles four bits of every level: 12 count calls
        # on this window, where bisection took 39
        model, sector, window, _ = two_photon_ref
        opts = SpectrumOptions()
        result = compute_spectrum(model, sector, window, opts)
        assert result.count_calls <= 15
        assert all(r.bracket_width <= opts.root_abs_tol for r in result.roots + result.flagged)

    def test_counters_tally_level_count(self, two_photon_ref, monkeypatch):
        model, sector, window, _ = two_photon_ref
        tally = {"calls": 0, "lanes": 0, "rows": 0}

        def counted(model, sector, energies, rows):
            tally["calls"] += 1
            tally["lanes"] += len(energies)
            tally["rows"] += rows
            return level_count(model, sector, energies, rows)

        monkeypatch.setattr(spectral, "level_count", counted)
        result = compute_spectrum(model, sector, window)
        assert (result.count_calls, result.grid_points, result.count_row_steps) == (
            tally["calls"], tally["lanes"], tally["rows"])

    @pytest.mark.parametrize("model, sector", [
        (ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.46), Sector.two_photon(0.25)),
        (ModelParams(ModelKind.TWO_MODE, 1.0, 0.5, 0.92), Sector.two_mode(1.5)),
    ], ids=["two-photon", "two-mode"])
    def test_collapse_window_renarrows_from_last_bracket(self, model, sector):
        # near collapse the levels move a little under each doubling; cutting
        # out from their last bracket takes 28 count calls on each window,
        # where narrowing from the neighbours' brackets took 40 and 31
        lo = default_window_min(model, sector)
        window, opts = (lo, lo + 4.0), SpectrumOptions()
        result = compute_spectrum(model, sector, window, opts)
        oracle_vals, _ = oracle_spectrum(model, sector, window)
        found = sorted(result.energies + [r.energy for r in result.flagged])
        assert found == pytest.approx(oracle_vals, abs=1e-7)
        assert all(r.bracket_width <= opts.root_abs_tol for r in result.roots + result.flagged)
        assert result.count_calls <= 28

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
            return np.searchsorted(levels[min(rows, 128)], energies)

        monkeypatch.setattr(spectral, "level_count", count)
        opts = SpectrumOptions()
        result = compute_spectrum(model, sector, (0.5, 1.5), opts)
        assert result.count_rows == 128 and not result.flagged
        assert result.energies == pytest.approx(levels[128], abs=opts.root_abs_tol)
        assert all(r.bracket_width <= opts.root_abs_tol for r in result.roots)

    def test_zero_pivot_across_count_chunks(self, two_photon_ref, monkeypatch):
        # a 1,500-row count (two chunks) over a random table with exact zero
        # pivots in the first row of the second chunk and further down equals
        # the Sturm count of the per-row guarded pivots of the whole table
        model, sector, _, _ = two_photon_ref
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-2.0, 2.0, (1500, 4)), rng.uniform(0.5, 1.5, (1500, 1))
        plant_zero(a, b, 1.0, spectral._COUNT_CHUNK_ROWS, 0)
        plant_zero(a, b, 1.0, 1300, 2)
        monkeypatch.setattr(
            spectral, "coefficient_block",
            lambda model, sector, energies, n_lo, n_hi: (a[n_lo:n_hi + 1], b[n_lo:n_hi + 1]),
        )
        energies = np.linspace(-3.0, -2.0, 4)  # below the first pole: no pole term
        want = np.count_nonzero(reference.guarded_pivots(a, b, 1.0) < 0.0, axis=0)
        np.testing.assert_array_equal(level_count(model, sector, energies, 1500), want)

    def test_residual_tables_equal_one_table(self, two_photon_ref, monkeypatch):
        # residuals read one level per table equal those read in one table
        model, sector, window, _ = two_photon_ref
        one_table = [r.residual for r in compute_spectrum(model, sector, window).roots]
        monkeypatch.setattr(spectral, "CHUNK_CELLS", 1)
        assert [r.residual for r in compute_spectrum(model, sector, window).roots] == one_table

    @pytest.mark.parametrize("chunk", [1, 7, 32])
    def test_chunked_count_equals_one_table(self, two_photon_ref, monkeypatch, chunk):
        # 100 rows in chunks, the last one partial, against one 100-row table
        model, sector, window, _ = two_photon_ref
        energies = np.linspace(*window, 201)
        energies = energies[distance_to_pole_set(model, sector, energies) > 1e-3]
        one_table = level_count(model, sector, energies, 100)
        monkeypatch.setattr(spectral, "_COUNT_CHUNK_ROWS", chunk)
        np.testing.assert_array_equal(level_count(model, sector, energies, 100), one_table)

    def test_window_validation(self, two_photon_ref):
        model, sector, _, _ = two_photon_ref
        for window in ((2.0, 1.0), (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                compute_spectrum(model, sector, window)

    @pytest.mark.parametrize("field", ["root_abs_tol", "cf_max_depth"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_tolerances_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            SpectrumOptions(**{field: value})

    def test_row_cap_leaves_levels_unconfirmed(self, two_photon_ref):
        # at a 64-row cap the first count is the last: every level is narrowed
        # at the cap, none is checked under a doubling, and one warning says so
        model, sector, window, eigs = two_photon_ref
        with pytest.warns(SignLostWarning) as record:
            result = compute_spectrum(model, sector, window, SpectrumOptions(cf_max_depth=64))
        assert len(record) == 1
        assert len(result.roots) == len(eigs) == 9
        assert all(rec.sign_lost for rec in result.roots)
        assert result.brackets_rejected == 9 and result.count_rows == 64

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


class TestBatchedEigencondition:
    def test_agrees_with_lentz_on_random_points(self):
        # one batch of F per model and sector over 100 random points
        cases = _random_cases(100)
        for model, sector in {(m, s) for m, s, _ in cases}:
            energies = [e for m, s, e in cases if (m, s) == (model, sector)]
            for e, f in zip(energies, f_values(model, sector, energies)):
                ref = split_spectral_value(model, sector, e, 0)
                assert abs(f - ref) <= 1e-9 * max(1.0, abs(ref)), (model, e)

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
    "forward_ratio", "split_spectral_value",
}
RETIRED_NAMES = {
    "DivisionBlowup", "EmptyWindow", "CollapseRegimeWarning", "ConvergenceFailure",
    "spectral_function", "ThreeTermCoeffs", "three_term_coeffs", "pole_energies",
    "pole_spacing", "BogoliubovParams", "bogoliubov_params", "nearest_pole_index",
    "backward_ratio_rows", "CoefficientPole",
}


def test_warning_types_exported():
    import rabispec

    assert rabispec.SignLostWarning is SignLostWarning
    for name in RETIRED_NAMES | REFERENCE_NAMES:
        assert name not in rabispec.__all__ and not hasattr(rabispec, name), name
    assert all(hasattr(rabispec, name) for name in rabispec.__all__)


def test_production_paths_reach_no_scalar_evaluator():
    # F has one production evaluator, f_values, and only the CLI (for
    # curve) imports it: the residual is read from the recursions its callers
    # run anyway.  The CLI imports no contfrac kernel (only the default
    # tolerance); the series imports the batched backward pass and the
    # residual rule.  No module defines or imports a scalar reference
    import rabispec
    import rabispec.cli
    import rabispec.series

    cli = rabispec_imports(rabispec.cli)
    assert {name for module, name in cli if module == "contfrac"} == {"DEFAULT_REL_TOL"}
    series = rabispec_imports(rabispec.series)
    assert {name for module, name in series if module == "contfrac"} == {
        "batch_ratios", "twisted_residual",
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
