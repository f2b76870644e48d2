"""Minimal-solution expansion coefficients, wavefunctions and norm convergence.

Coefficients are built from continued-fraction ratios (cumulative products),
never by forward recursion: forward recursion is contaminated exponentially by
the dominant solution.  Because the minimal coefficients underflow doubles near
n ~ 150, log-magnitudes and signs are stored alongside the raw values; ratio
and norm diagnostics work entirely in log space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .contfrac import backward_ratios
from .errors import NotAnEigenvalueWarning, PoleCollision, TruncationInsufficient
from .models import ModelKind, ModelParams, Sector, three_term_coeffs
from .spectral import RESIDUAL_CAP, spectral_function


@dataclass(frozen=True)
class SeriesCoefficients:
    """Expansion coefficients of the two wavefunction components at fixed E.

    ``minus[n]`` are the minimal-solution coefficients (normalized to
    minus[0] = 1; they may underflow to 0 at large n), ``plus[n]`` the
    companion component obtained through the pole relation.  ``ratios[n]`` is
    minus[n+1]/minus[n] as produced by the backward pass, exact at all n, and
    ``log_abs_minus``/``sign_minus`` carry the coefficients in log space.
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

    If |F(E)| exceeds the residual cap the series is still returned, flagged,
    with a NotAnEigenvalueWarning.  The plus component uses the pole relation
    plus[n] = delta * minus[n] / pole_denominator(n) and raises PoleCollision
    if E sits on a pole.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    coeffs = three_term_coeffs(model, sector, energy)
    residual = abs(spectral_function(model, sector, energy).value)
    flagged = residual > RESIDUAL_CAP
    if flagged:
        warnings.warn(
            f"|F(E)| = {residual:.3g} exceeds the residual cap; E is not an eigenvalue",
            NotAnEigenvalueWarning,
        )
    ratios = backward_ratios(coeffs, 0, 2 * order + 64)[:order]
    minus = [1.0]
    log_abs = [0.0]
    signs = [1]
    for n in range(order):
        minus.append(ratios[n] * minus[n])
        if ratios[n] == 0.0:
            log_abs.append(-math.inf)
            signs.append(0)
        else:
            log_abs.append(log_abs[n] + math.log(abs(ratios[n])))
            signs.append(signs[n] * (1 if ratios[n] > 0.0 else -1))
    plus = []
    d = model.delta
    for n in range(order + 1):
        den = coeffs.pole_denominator(n)
        if abs(den) < model.eps_pole:
            raise PoleCollision(f"plus-component pole hit at n = {n}")
        plus.append(d * minus[n] / den)
    return SeriesCoefficients(
        minus=minus,
        plus=plus,
        ratios=ratios,
        log_abs_minus=log_abs,
        sign_minus=signs,
        model=model,
        sector=sector,
        energy=energy,
        order=order,
        residual=residual,
        flagged=flagged,
    )


def _log_weight_increment(model: ModelParams, sector: Sector, n: int) -> float:
    """log of weight(n+1)/weight(n) for the Bargmann-norm series."""
    if model.kind is ModelKind.TWO_PHOTON:
        # weight(n) = [2(n + q - 1/4)]!
        x = 2.0 * (n + sector.value - 0.25)
        return math.log(x + 1.0) + math.log(x + 2.0)
    if model.kind is ModelKind.TWO_MODE:
        # weight(n) = n! (n + 2 kappa - 1)!
        return math.log(n + 1.0) + math.log(n + 2.0 * sector.value)
    return math.log(n + 1.0)  # weight(n) = n!


def norm_tail_ratio(series: SeriesCoefficients, tail_window: int = 5) -> float:
    """Limiting consecutive-term ratio of the norm series, estimated at the tail.

    For a minimal solution this tends to 4*t2^2 (two-photon), t2^2 (two-mode)
    and 0 (driven), all below 1, certifying entireness.  Computed from the
    stored ratios in log space, so factorial weights never overflow.
    """
    if series.order < 100:
        raise ValueError("series order must be >= 100 for a tail estimate")
    model, sector = series.model, series.sector
    n_hi = series.order - 1
    n_lo = n_hi - tail_window + 1
    acc = 0.0
    for n in range(n_lo, n_hi + 1):
        r = series.ratios[n]
        if r == 0.0:
            return 0.0
        acc += 2.0 * math.log(abs(r)) + _log_weight_increment(model, sector, n)
    return math.exp(acc / tail_window)


def norm_term_ratio(series: SeriesCoefficients, n: int) -> float:
    """Ratio of consecutive Bargmann-norm series terms, term(n+1) / term(n)."""
    r = series.ratios[n]
    if r == 0.0:
        return 0.0
    return math.exp(
        2.0 * math.log(abs(r)) + _log_weight_increment(series.model, series.sector, n)
    )


def norm_term_log(series: SeriesCoefficients, n: int) -> float:
    """log of the n-th Bargmann-norm series term |K_n|^2 * weight(n)."""
    model, sector = series.model, series.sector
    if model.kind is ModelKind.TWO_PHOTON:
        lw = math.lgamma(2.0 * (n + sector.value - 0.25) + 1.0)
    elif model.kind is ModelKind.TWO_MODE:
        lw = math.lgamma(n + 1.0) + math.lgamma(n + 2.0 * sector.value)
    else:
        lw = math.lgamma(n + 1.0)
    return 2.0 * series.log_abs_minus[n] + lw


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
