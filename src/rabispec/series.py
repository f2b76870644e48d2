"""Minimal-solution expansion coefficients, wavefunctions and norm convergence.

Coefficients are built from continued-fraction ratios (cumulative products),
never by forward recursion: forward recursion is contaminated exponentially by
the dominant solution.  ``minimal_series`` takes its coefficient rows from one
``models.coefficient_block`` call and their ratios from the one pivot loop run
backward (``contfrac.batch_ratios``); ``contfrac.twisted_residual`` over those
rows and ratios, the rule ``compute_spectrum`` reports, judges E.
Because the minimal coefficients underflow doubles near n ~ 150,
log-magnitudes and signs are stored alongside the raw values; ratio and norm
diagnostics work entirely in log space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .contfrac import batch_ratios, twisted_residual
from .errors import NotAnEigenvalueWarning, PoleCollision, TruncationInsufficient
from .models import (
    ModelKind,
    ModelParams,
    Sector,
    asymptotic_roots,
    check_coupling,
    coefficient_block,
    distance_to_pole_set,
    pole_energy,
)
from .spectral import RESIDUAL_CAP


@dataclass(frozen=True)
class SeriesCoefficients:
    """Expansion coefficients of the two wavefunction components at fixed E.

    ``minus[n]`` are the minimal-solution coefficients (normalized to
    minus[0] = 1; they may underflow to 0 at large n), ``plus[n]`` the
    companion component obtained through the pole relation.  ``ratios[n]`` is
    minus[n+1]/minus[n] as produced by the backward pass, exact at all n, and
    ``log_abs_minus``/``sign_minus`` carry the coefficients in log space.
    ``residual`` is the twisted residual at ``energy``, ``flagged`` if above the cap.
    """

    minus: list[float]
    plus: list[float]
    ratios: list[float]
    log_abs_minus: list[float]
    sign_minus: list[int]
    model: ModelParams
    sector: Sector
    energy: float
    order: int
    residual: float
    flagged: bool

    def ratio(self, n: int) -> float:
        """minus[n+1] / minus[n], valid even where the raw values underflow."""
        return self.ratios[n]


def minimal_series(
    model: ModelParams, sector: Sector, energy: float, order: int
) -> SeriesCoefficients:
    """Build the minimal-solution series at an (approximate) spectral root.

    The ratios come from one backward pass seeded at row 2 * order + 64, and
    E is judged by the twisted residual over those rows and ratios, the rule
    ``compute_spectrum`` reports.  If it exceeds the residual cap the series
    is still returned, flagged, with a NotAnEigenvalueWarning.
    The plus component uses the pole relation
    plus[n] = delta * minus[n] / (E - E_n).  Raises ValueError if E is not
    finite, ZeroCoupling at g = 0 and PoleCollision if E sits within eps_pole
    of a pole.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    check_coupling(model)
    if distance_to_pole_set(model, sector, energy) < model.eps_pole:
        raise PoleCollision(f"E = {energy} coincides with a pole energy")
    a, b = coefficient_block(model, sector, np.array([energy]), 0, 2 * order + 64)
    # E is finite and eps_pole off the pole set, so every row is finite
    ratios = batch_ratios(a, b, asymptotic_roots(model).t2)
    residual = float(twisted_residual(a, b, ratios, math.copysign(1.0, model.g))[0])
    flagged = residual > RESIDUAL_CAP
    if flagged:
        warnings.warn(
            f"twisted residual {residual:.3g} exceeds the residual cap; E is not an eigenvalue",
            NotAnEigenvalueWarning,
        )
    r = ratios[:order, 0]
    # minus[n] = r[0] * ... * r[n-1]; after a zero ratio every sign is 0 and every log -inf
    minus = np.concatenate([[1.0], np.cumprod(r)])
    with np.errstate(divide="ignore"):
        log_abs = np.concatenate([[0.0], np.cumsum(np.log(np.abs(r)))])
    signs = np.concatenate([[1], np.cumprod(np.sign(r).astype(int))])
    plus = model.delta * minus / (energy - pole_energy(model, sector, np.arange(order + 1)))
    return SeriesCoefficients(
        minus=minus.tolist(),
        plus=plus.tolist(),
        ratios=r.tolist(),
        log_abs_minus=log_abs.tolist(),
        sign_minus=signs.tolist(),
        model=model,
        sector=sector,
        energy=energy,
        order=order,
        residual=residual,
        flagged=flagged,
    )


def _log_weight(model: ModelParams, sector: Sector, n: int) -> float:
    """log weight(n) of the n-th Bargmann-norm series term |K_n|^2 * weight(n)."""
    if model.kind is ModelKind.TWO_PHOTON:
        # weight(n) = [2(n + q - 1/4)]!
        return math.lgamma(2.0 * (n + sector.value - 0.25) + 1.0)
    if model.kind is ModelKind.TWO_MODE:
        # weight(n) = n! (n + 2 kappa - 1)!
        return math.lgamma(n + 1.0) + math.lgamma(n + 2.0 * sector.value)
    return math.lgamma(n + 1.0)  # weight(n) = n!


# norm_tail_ratio averages the log term ratio over this many tail terms
_TAIL_WINDOW = 5


def norm_tail_ratio(series: SeriesCoefficients) -> float:
    """Limiting consecutive-term ratio of the norm series, estimated at the tail.

    For a minimal solution this tends to 4*t2^2 (two-photon), t2^2 (two-mode)
    and 0 (driven), all below 1, certifying entireness.  Computed from the
    stored ratios in log space, so factorial weights never overflow.
    """
    if series.order < 100:
        raise ValueError("series order must be >= 100 for a tail estimate")
    model, sector = series.model, series.sector
    n_hi = series.order - 1
    n_lo = n_hi - _TAIL_WINDOW + 1
    # the weight increments of terms n_lo..n_hi telescope
    acc = _log_weight(model, sector, n_hi + 1) - _log_weight(model, sector, n_lo)
    for n in range(n_lo, n_hi + 1):
        r = series.ratios[n]
        if r == 0.0:
            return 0.0
        acc += 2.0 * math.log(abs(r))
    return math.exp(acc / _TAIL_WINDOW)


def norm_term_ratio(series: SeriesCoefficients, n: int) -> float:
    """Ratio of consecutive Bargmann-norm series terms, term(n+1) / term(n)."""
    r = series.ratios[n]
    if r == 0.0:
        return 0.0
    model, sector = series.model, series.sector
    return math.exp(
        2.0 * math.log(abs(r)) + _log_weight(model, sector, n + 1) - _log_weight(model, sector, n)
    )


def norm_term_log(series: SeriesCoefficients, n: int) -> float:
    """log of the n-th Bargmann-norm series term |K_n|^2 * weight(n)."""
    return 2.0 * series.log_abs_minus[n] + _log_weight(series.model, series.sector, n)


def eval_wavefunction(series: SeriesCoefficients, z: complex) -> tuple[complex, complex]:
    """Partial sums (psi_plus(z), psi_minus(z)) of the two power series.

    Raises TruncationInsufficient unless the last retained term is negligible
    at this z.
    """
    order = series.order
    psi_minus = complex(0.0)
    psi_plus = complex(0.0)
    zp = complex(1.0)
    for n in range(order + 1):
        # skip underflowed coefficients: z**n may have overflowed by then and
        # 0 * inf would poison the sum
        if series.minus[n] != 0.0 or series.plus[n] != 0.0:
            psi_minus += series.minus[n] * zp
            psi_plus += series.plus[n] * zp
        zp *= z
    if not (math.isfinite(abs(psi_minus)) and math.isfinite(abs(psi_plus))):
        raise TruncationInsufficient(
            f"series of order {series.order} overflows at |z| = {abs(z)}"
        )
    # tail bound in log space: the raw coefficient may have underflowed to 0
    if abs(z) > 0.0:
        log_tail = series.log_abs_minus[order] + order * math.log(abs(z))
        log_bound = math.log(1e-15 * max(abs(psi_minus), 1e-300))
        if log_tail >= log_bound:
            raise TruncationInsufficient(
                f"series of order {series.order} too short at |z| = {abs(z)}"
            )
    return psi_plus, psi_minus
