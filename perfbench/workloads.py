"""Seeded inputs, operations and output checks of the rabispec benchmark workloads.

Every operation reaches rabispec through a module attribute looked up at call
time (``cli.main``, ``series.minimal_series``, ...), so the tracer can wrap
those attributes without any change to the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from rabispec import cli, oracle, series
from rabispec.models import (
    ModelKind,
    ModelParams,
    Sector,
    asymptotic_roots,
    distance_to_pole_set,
)
from rabispec.spectral import default_window_min, eps_exceptional

MATCH_TOL = 1e-7        # root/oracle matching tolerance, as in the acceptance gate
DOUBLING_TOL = 1e-9     # oracle levels must move less than this under truncation doubling
WIDTH = 10.0            # width of every drawn sweep window
SERIES_ORDER = 2000
SERIES_Z = (0.1, 0.5, 1.0)
NORM_RATIO_RTOL = 0.05

TWO_PHOTON, TWO_MODE, DRIVEN = ModelKind.TWO_PHOTON, ModelKind.TWO_MODE, ModelKind.DRIVEN_RABI


@dataclass(frozen=True)
class Window:
    """One model, sector and energy window; ``e_min`` None means the CLI default.

    ``known_lost`` is the number of oracle levels the solver loses on this
    window at baseline; losing more fails the operation.
    """

    model: ModelParams
    sector: Sector
    e_min: float | None
    e_max: float
    known_lost: int = 0

    @property
    def bounds(self) -> tuple[float, float]:
        lo = default_window_min(self.model, self.sector) if self.e_min is None else self.e_min
        return lo, self.e_max

    def args(self) -> list[str]:
        m = self.model
        out = ["--model", m.kind.value, "--delta", repr(m.delta), "--g", repr(m.g)]
        if m.kind is DRIVEN:
            out += ["--drive", repr(m.drive)]
        else:
            flag = "--q" if m.kind is TWO_PHOTON else "--kappa"
            out += [flag, str(Fraction(self.sector.value))]
        if self.e_min is not None:
            out += ["--emin", repr(self.e_min)]
        return out + ["--emax", repr(self.e_max)]


def window(kind, delta, g, sector_value=0.0, drive=0.0, e_min=None, e_max=None, width=WIDTH,
           known_lost=0):
    """A Window; without ``e_max`` it spans ``width`` from the CLI's default lower bound."""
    model = ModelParams(kind, 1.0, delta, g, drive)
    sector = Sector(kind, sector_value)
    if e_max is None:
        e_max = default_window_min(model, sector) + width
    return Window(model, sector, e_min, e_max, known_lost)


# The three norm-series windows of the acceptance gate, the README compare
# example (a Juddian level at E = 0.94 sits on pole n = 1) and three driven
# windows that lose 1, 2 and 4 levels about 0.42 omega from a pole.
FIXED_SWEEP = (
    window(TWO_PHOTON, 0.5, 0.2, 0.25, e_min=-0.5, e_max=8.0),
    window(TWO_MODE, 0.7, 0.4, 1.0, e_min=-1.0, e_max=8.0),
    window(DRIVEN, 0.4, 0.7, drive=0.3, e_min=-2.0, e_max=6.0),
    window(DRIVEN, 0.4, 0.6, drive=0.3, e_min=-1.5, e_max=8.0, known_lost=1),
    window(DRIVEN, 0.6, 1.5, drive=0.2, known_lost=1),
    window(DRIVEN, 0.6, 2.0, drive=0.2, known_lost=2),
    window(DRIVEN, 0.6, 2.5, drive=0.2, known_lost=4),
)


def _delta(rng: random.Random) -> float:
    return round(rng.uniform(0.4, 0.6), 4)


# Each seed-drawn window is a fixed design point (model, g, sector) whose
# splitting, and drive for the driven model, the seed draws.  The cost of a
# window grows steeply with g, and the oracle's final truncation jumps by
# factors of two with g and E_max, so drawing those from the seed would make
# the work in a pass, and every timing with it, depend on the seed.
SWEEP_POINTS = ((TWO_PHOTON, 0.3, 0.75), (TWO_MODE, 0.45, 0.5), (DRIVEN, 1.0, 0.0))
# 2g/omega (two-photon) and g/omega (two-mode) of 0.86, 0.89 and 0.92, with
# widths that hold the same number of levels for every drawn splitting
COLLAPSE_POINTS = (
    (TWO_PHOTON, 0.43, 0.25, 4.0), (TWO_PHOTON, 0.445, 0.75, 4.0), (TWO_PHOTON, 0.46, 0.25, 4.0),
    (TWO_MODE, 0.86, 0.5, 4.25), (TWO_MODE, 0.89, 1.0, 4.0), (TWO_MODE, 0.92, 1.5, 4.0),
)
ORACLE_POINTS = (  # (model, g, sector, drive, E_max); final truncations 512 to 4096
    (TWO_PHOTON, 0.3, 0.25, 0.0, 50.0), (TWO_PHOTON, 0.44, 0.75, 0.0, 30.0),
    (TWO_PHOTON, 0.47, 0.25, 0.0, 25.0), (TWO_PHOTON, 0.49, 0.25, 0.0, 20.0),
    (TWO_MODE, 0.8, 0.5, 0.0, 40.0), (TWO_MODE, 0.9, 1.0, 0.0, 40.0),
    (TWO_MODE, 0.93, 1.5, 0.0, 25.0), (TWO_MODE, 0.95, 0.5, 0.0, 30.0),
    (DRIVEN, 1.0, 0.0, 0.8, 60.0), (DRIVEN, 2.0, 0.0, 0.5, 50.0),
    (DRIVEN, 2.5, 0.0, 1.0, 40.0), (DRIVEN, 3.0, 0.0, 0.3, 30.0),
)


def drawn_windows(seed: int) -> list[Window]:
    """One seed-drawn sweep window per model, inside the discrete-spectrum regime."""
    rng = random.Random(f"draws:{seed}")
    out = []
    for kind, g, sector in SWEEP_POINTS:
        drive = round(rng.uniform(0.0, 0.5), 4) if kind is DRIVEN else 0.0
        out.append(window(kind, _delta(rng), g, sector, drive))
    return out


def collapse_windows(seed: int) -> list[Window]:
    """Windows near spectral collapse, from the CLI's default lower bound."""
    rng = random.Random(f"collapse:{seed}")
    return [window(kind, _delta(rng), g, sector, width=width)
            for kind, g, sector, width in COLLAPSE_POINTS]


def oracle_windows(seed: int) -> list[Window]:
    """Wide windows (E_max 20-60) up to near collapse and strong drive."""
    rng = random.Random(f"oracle:{seed}")
    return [window(kind, _delta(rng), g, sector, drive, e_max=e_max)
            for kind, g, sector, drive, e_max in ORACLE_POINTS]


def series_points(seed: int) -> list[tuple[Window, float]]:
    """(window, energy) for every oracle level of the drawn sweep windows.

    Levels within the exceptional distance of a pole are left out: the series
    is undefined there by contract.
    """
    out = []
    for win in drawn_windows(seed):
        levels, _ = oracle.oracle_spectrum(win.model, win.sector, win.bounds)
        eps = eps_exceptional(win.model)
        out += [
            (win, e) for e in levels if distance_to_pole_set(win.model, win.sector, e) >= eps
        ]
    return out


class _Coeffs:
    def a(self, n):
        return (1.5 - 0.25 * n) / (n + 1.0)

    def b(self, n):
        return 1.0 / (n + 1.0)


def _python_recurrence() -> None:
    """Lentz-style float recurrence through method calls, like rabispec's inner loops."""
    coeffs = _Coeffs()
    for _ in range(160):
        f = c = 1e-30
        d = 0.0
        for n in range(1, 500):
            a, b = coeffs.a(n), -coeffs.b(n)
            d = a + b * d
            c = a + b / c
            d = 1.0 / d
            f *= c * d


def _banded_eigensolve() -> None:
    """All eigenvalues of a fixed symmetric matrix with three superdiagonals, like the oracle's."""
    bands = np.full((4, 800), 0.5)
    bands[3] = np.arange(800.0)
    scipy.linalg.eig_banded(bands, eigvals_only=True)


@dataclass(frozen=True)
class Calibration:
    """A fixed kernel and the seconds it takes on a quiet 2-vCPU x86-64 VM.

    The host's speed drifts, and not by the same factor for interpreted Python
    as for LAPACK, so each workload is calibrated with the work it does most.
    """

    kernel: object
    reference_s: float

    def slowdown(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return (time.perf_counter() - t0) / self.reference_s


PYTHON_CALIBRATION = Calibration(_python_recurrence, 0.020)
LAPACK_CALIBRATION = Calibration(_banded_eigensolve, 0.015)


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    ok: bool = True
    levels: int = 0          # levels verified against the reference
    lost: int = 0            # reference levels with no root within MATCH_TOL
    spurious: int = 0        # roots with no reference level within MATCH_TOL
    max_err: float = 0.0     # largest distance from an output level to the nearest reference
    why: str = ""

    def fail(self, why: str) -> None:
        self.ok = False
        self.why = self.why or why


def _nearest(values: list[float], x: float) -> float:
    return min((abs(x - v) for v in values), default=math.inf)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``rabispec <argv>`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Reference:
    """Oracle levels of each window, checked against one more truncation doubling.

    Built outside the timed region and outside tracing, once per window.
    """

    def __init__(self):
        self._cache: dict[Window, tuple[list[float], int, list[float]]] = {}

    def __call__(self, win: Window) -> tuple[list[float], int, list[float]]:
        if win not in self._cache:
            levels, n_used = oracle.oracle_spectrum(win.model, win.sector, win.bounds)
            h = oracle.build_hamiltonian(win.model, oracle.map_sector(win.sector), 2 * n_used)
            self._cache[win] = (levels, n_used, oracle.eigen_in_range(h, *win.bounds))
        return self._cache[win]


def _doubling_error(levels: list[float], doubled: list[float]) -> float:
    if len(levels) != len(doubled):
        return math.inf
    return max((abs(a - b) for a, b in zip(levels, doubled)), default=0.0)


class CompareWorkload:
    """``rabispec compare --format json --match-tol 1e-7`` on one window per operation."""

    calibration = PYTHON_CALIBRATION

    def __init__(self, make_inputs):
        self._make_inputs = make_inputs
        self.reference = Reference()

    def inputs(self, seed: int) -> list[Window]:
        return self._make_inputs(seed)

    def warmup(self, inputs: list[Window]) -> None:
        win = inputs[0]
        lo, _ = win.bounds
        run_cli(["compare", "--format", "json"] + Window(win.model, win.sector, lo, lo + 1.0).args())

    def op(self, win: Window):
        return run_cli(["compare", "--format", "json", "--match-tol", repr(MATCH_TOL)] + win.args())

    def check(self, win: Window, out) -> Verdict:
        code, text = out
        v = Verdict()
        levels, _, doubled = self.reference(win)
        if _doubling_error(levels, doubled) > DOUBLING_TOL:
            v.fail("reference oracle unstable under truncation doubling")
        rows = json.loads(text)["rows"]
        roots = [r["root"] for r in rows if r["root"] != ""]
        reported = sorted(r["oracle"] for r in rows if r["oracle"] != "")
        if _doubling_error(reported, levels) > DOUBLING_TOL:
            v.fail("compare reports other oracle levels than the reference")
        unmatched = any(r["status"] in ("cf_only", "oracle_only") for r in rows)
        if code != (2 if unmatched else 0):
            v.fail(f"exit code {code} does not match the report")
        errs = [_nearest(levels, x) for x in roots]
        v.max_err = max(errs, default=0.0)
        v.spurious = sum(1 for e in errs if e > MATCH_TOL)
        v.lost = sum(1 for e in levels if _nearest(roots, e) > MATCH_TOL)
        v.levels = len(levels) - v.lost
        if v.spurious:
            v.fail(f"{v.spurious} roots with no oracle level within {MATCH_TOL}")
        if v.lost > win.known_lost:
            v.fail(f"{v.lost} oracle levels lost, {win.known_lost} at baseline")
        return v


class OracleWorkload:
    """``rabispec oracle --format json`` on one wide window per operation."""

    calibration = LAPACK_CALIBRATION

    def __init__(self):
        self.reference = Reference()

    def inputs(self, seed: int) -> list[Window]:
        return oracle_windows(seed)

    def warmup(self, inputs: list[Window]) -> None:
        win = inputs[0]
        lo, _ = win.bounds
        run_cli(["oracle", "--format", "json"] + Window(win.model, win.sector, lo, lo + 5.0).args())

    def op(self, win: Window):
        return run_cli(["oracle", "--format", "json"] + win.args())

    def check(self, win: Window, out) -> Verdict:
        code, text = out
        v = Verdict()
        if code != 0:
            v.fail(f"exit code {code}")
            return v
        payload = json.loads(text)
        levels = [r["energy"] for r in payload["rows"]]
        ref_levels, n_used, doubled = self.reference(win)
        if payload["meta"]["oracle_n_used"] != n_used:
            v.fail("truncation differs from the reference")
        v.max_err = _doubling_error(levels, doubled)
        v.spurious = sum(1 for x in levels if _nearest(doubled, x) > DOUBLING_TOL)
        v.lost = sum(1 for e in doubled if _nearest(levels, e) > DOUBLING_TOL)
        v.levels = len(doubled) - v.lost
        if v.max_err > DOUBLING_TOL:
            v.fail("levels move under one more truncation doubling")
        return v


def expected_norm_ratio(model: ModelParams) -> float:
    """Limit of the norm-series term ratio at the tail of an order-2000 series.

    4 t2^2 (two-photon) and t2^2 (two-mode); for the driven model the ratio
    decays as t2^2 / n, so its value at n = SERIES_ORDER is the reference.
    """
    t2 = asymptotic_roots(model).t2
    if model.kind is TWO_PHOTON:
        return 4.0 * t2 * t2
    if model.kind is TWO_MODE:
        return t2 * t2
    return t2 * t2 / SERIES_ORDER


class SeriesWorkload:
    """minimal_series, norm_tail_ratio and eval_wavefunction at one oracle level per operation."""

    calibration = PYTHON_CALIBRATION

    def inputs(self, seed: int) -> list[tuple[Window, float]]:
        return series_points(seed)

    def warmup(self, inputs) -> None:
        self.op(inputs[0])

    def op(self, point):
        win, energy = point
        s = series.minimal_series(win.model, win.sector, energy, SERIES_ORDER)
        ratio = series.norm_tail_ratio(s)
        return s.flagged, ratio, [series.eval_wavefunction(s, z) for z in SERIES_Z]

    def check(self, point, out) -> Verdict:
        flagged, ratio, psis = out
        v = Verdict()
        if flagged:
            v.fail("series flagged: |F(E)| above the residual cap")
        expected = expected_norm_ratio(point[0].model)
        if not abs(ratio - expected) <= NORM_RATIO_RTOL * expected:
            v.fail(f"norm tail ratio {ratio:.6g}, expected {expected:.6g}")
        if not all(math.isfinite(abs(p)) for pair in psis for p in pair):
            v.fail("non-finite wavefunction value")
        v.levels = int(v.ok)
        return v


WORKLOADS = {
    "sweep": CompareWorkload(lambda seed: list(FIXED_SWEEP) + drawn_windows(seed)),
    "collapse": CompareWorkload(collapse_windows),
    "oracle": OracleWorkload(),
    "series": SeriesWorkload(),
}
