"""Closed-form model data: parameters, sectors, recurrence coefficients and poles.

Everything here is a pure function of the physical parameters.  Energies are
kept in the caller's units of ``omega``; no rescaling is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CouplingOutOfRange, NotDecoupled, PoleCollision, ZeroCoupling

# Below eps_g the coefficient formulas divide by ~0; callers are routed to the
# decoupled closed form.  Within eps_pole of a pole energy the A-coefficient
# overflows and evaluation is refused.
EPS_G_FACTOR = 1e-12
EPS_POLE_FACTOR = 1e-9


class ModelKind(Enum):
    TWO_PHOTON = "two-photon"
    TWO_MODE = "two-mode"
    DRIVEN_RABI = "driven"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one of the three spin-boson models.

    Parameters
    ----------
    kind : ModelKind
    omega : float
        Boson frequency, > 0.
    delta : float
        Level splitting, >= 0.
    g : float
        Coupling strength.  May be negative; bounds apply to ``|g|``.
    drive : float
        Drive amplitude, only meaningful for the driven model.
    """

    kind: ModelKind
    omega: float
    delta: float
    g: float
    drive: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be finite and positive")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError("delta must be finite and non-negative")
        if not math.isfinite(self.g):
            raise ValueError("g must be finite")
        if not math.isfinite(self.drive):
            raise ValueError("drive must be finite")
        if self.kind is not ModelKind.DRIVEN_RABI and self.drive != 0.0:
            raise ValueError("drive is only meaningful for the driven model")
        if self.kind is ModelKind.TWO_PHOTON and 2.0 * abs(self.g) >= self.omega:
            raise CouplingOutOfRange(
                f"two-photon model requires 2|g| < omega, got g={self.g}, omega={self.omega}"
            )
        if self.kind is ModelKind.TWO_MODE and abs(self.g) >= self.omega:
            raise CouplingOutOfRange(
                f"two-mode model requires |g| < omega, got g={self.g}, omega={self.omega}"
            )

    @property
    def eps_g(self) -> float:
        return EPS_G_FACTOR * self.omega

    @property
    def eps_pole(self) -> float:
        return EPS_POLE_FACTOR * self.omega


@dataclass(frozen=True)
class Sector:
    """Symmetry-sector label: q in {1/4, 3/4}, kappa in {1/2, 1, 3/2, ...}, or trivial."""

    kind: ModelKind
    value: float = 0.0

    @staticmethod
    def two_photon(q: float) -> "Sector":
        if q not in (0.25, 0.75):
            raise ValueError("two-photon sector label q must be 1/4 or 3/4")
        return Sector(ModelKind.TWO_PHOTON, q)

    @staticmethod
    def two_mode(kappa: float) -> "Sector":
        two_kappa = 2.0 * kappa
        if not (two_kappa > 0 and float(two_kappa).is_integer()):
            raise ValueError("two-mode sector label kappa must be a positive half-integer")
        return Sector(ModelKind.TWO_MODE, kappa)

    @staticmethod
    def driven() -> "Sector":
        return Sector(ModelKind.DRIVEN_RABI, 0.0)

    def check_matches(self, model: ModelParams) -> None:
        if self.kind is not model.kind:
            raise ValueError(f"sector kind {self.kind} does not match model kind {model.kind}")


@dataclass(frozen=True)
class BogoliubovParams:
    """Squeeze/displacement parameter and the square-root factor of the transformation.

    ``squeeze`` is tau (two-photon), sigma (two-mode) or the displacement -g
    (driven); ``root_factor`` is Omega, Lambda or 1 respectively.
    """

    squeeze: float
    root_factor: float


def bogoliubov_params(model: ModelParams) -> BogoliubovParams:
    """Parameters of the squeezing/displacement transformation for ``model``.

    The two-photon squeeze solves omega*tau + g*(1 + tau^2) = 0 and the
    two-mode squeeze solves 2*omega*sigma + g*(1 + sigma^2) = 0; in both cases
    the root with modulus < 1 is returned, written in a cancellation-free form.
    """
    w, g = model.omega, model.g
    if model.kind is ModelKind.TWO_PHOTON:
        root = math.sqrt(1.0 - 4.0 * g * g / (w * w))
        # tau = -(w/2g)(1 - Omega), rationalized to avoid cancellation at small g
        return BogoliubovParams(squeeze=-2.0 * g / (w * (1.0 + root)), root_factor=root)
    if model.kind is ModelKind.TWO_MODE:
        root = math.sqrt(1.0 - g * g / (w * w))
        return BogoliubovParams(squeeze=-g / (w * (1.0 + root)), root_factor=root)
    return BogoliubovParams(squeeze=-g, root_factor=1.0)


@dataclass(frozen=True)
class AsymptoticRoots:
    """Characteristic-equation scales of the three-term recurrence.

    The minimal-solution ratio behaves as ``t2 * n**exponent``.  For the driven
    model the bare characteristic roots are {0, omega/2g}; the reported minimal
    scale 2g/omega (with exponent -1) is the refined decay rate, which is what
    the asymptotic tests can actually measure.
    """

    t1: float
    t2: float
    exponent: int = -1


def asymptotic_roots(model: ModelParams) -> AsymptoticRoots:
    """Dominant and minimal ratio scales of the recurrence for ``model``."""
    w, g = model.omega, model.g
    if abs(g) <= model.eps_g:
        raise ZeroCoupling("asymptotic roots are undefined at g = 0")
    if model.kind is ModelKind.TWO_PHOTON:
        return AsymptoticRoots(t1=w / (4.0 * g), t2=g / w)
    if model.kind is ModelKind.TWO_MODE:
        return AsymptoticRoots(t1=w / g, t2=g / w)
    return AsymptoticRoots(t1=w / (2.0 * g), t2=2.0 * g / w)


def pole_energy(model: ModelParams, sector: Sector, n: int) -> float:
    """n-th pole of the plus-component coefficient relation (exceptional candidate)."""
    sector.check_matches(model)
    w = model.omega
    if model.kind is ModelKind.TWO_PHOTON:
        omega_f = bogoliubov_params(model).root_factor
        return -0.5 * w + (2.0 * n + 2.0 * sector.value) * w * omega_f
    if model.kind is ModelKind.TWO_MODE:
        lam = bogoliubov_params(model).root_factor
        return -w + (2.0 * n + 2.0 * sector.value) * w * lam
    return n * w + model.drive - model.g * model.g / w


def pole_energies(model: ModelParams, sector: Sector, n_max: int) -> list[float]:
    """Strictly increasing list of the first ``n_max + 1`` pole energies."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [pole_energy(model, sector, n) for n in range(n_max + 1)]


def pole_spacing(model: ModelParams, sector: Sector) -> float:
    """Common difference of the arithmetic pole sequence."""
    if model.kind is ModelKind.DRIVEN_RABI:
        return model.omega
    return 2.0 * model.omega * bogoliubov_params(model).root_factor


@dataclass(frozen=True)
class ThreeTermCoeffs:
    """Coefficients a(n), b(n) of K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0 at fixed E.

    ``a`` is A_n / C_n / X_n and ``b`` is B_n / D_n / Y_n of the respective
    model.  ``tail_ratio_scale`` is the minimal-ratio scale used to seed
    backward recursion (the ratio decays as scale / n).

    The formulas are plain arithmetic, so ``energy`` may also be a numpy array
    and ``n`` an array that broadcasts against it; ``coefficient_block`` builds
    whole blocks of rows that way.
    """

    model: ModelParams
    sector: Sector
    energy: float | np.ndarray
    _bog: BogoliubovParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sector.check_matches(self.model)
        object.__setattr__(self, "_bog", bogoliubov_params(self.model))

    @property
    def tail_ratio_scale(self) -> float:
        return asymptotic_roots(self.model).t2

    def pole_denominator(self, n):
        """Denominator of the Delta^2 term of a(n); zero exactly at pole_energy(n)."""
        m, s, e = self.model, self.sector, self.energy
        w = m.omega
        if m.kind is ModelKind.TWO_PHOTON:
            return e + 0.5 * w - (2.0 * n + 2.0 * s.value) * w * self._bog.root_factor
        if m.kind is ModelKind.TWO_MODE:
            return e + w - (2.0 * n + 2.0 * s.value) * w * self._bog.root_factor
        return e - n * w - m.drive + m.g * m.g / w

    def a(self, n):
        m, s, e = self.model, self.sector, self.energy
        w, g, d = m.omega, m.g, m.delta
        # the Delta^2 term, without keeping the denominator alive on array input
        pole_term = d * d / self.pole_denominator(n)
        if m.kind is ModelKind.TWO_PHOTON:
            q = s.value
            omega_f = self._bog.root_factor
            num = -(2.0 * n + 2.0 * q) * w * (2.0 - omega_f * omega_f) + (
                e + 0.5 * w - pole_term
            ) * omega_f
            return num / (8.0 * g * (n + 1.0) * (n + 2.0 * q))
        if m.kind is ModelKind.TWO_MODE:
            k = s.value
            lam = self._bog.root_factor
            num = -(2.0 * n + 2.0 * k) * w * (2.0 - lam * lam) + (e + w - pole_term) * lam
            return num / (2.0 * g * (n + 1.0) * (n + 2.0 * k))
        return (e - n * w + m.drive - 3.0 * g * g / w - pole_term) / (2.0 * g * (n + 1.0))

    def b(self, n):
        m, s = self.model, self.sector
        if m.kind is ModelKind.TWO_PHOTON:
            return 1.0 / (4.0 * (n + 1.0) * (n + 2.0 * s.value))
        if m.kind is ModelKind.TWO_MODE:
            return 1.0 / ((n + 1.0) * (n + 2.0 * s.value))
        return 1.0 / (n + 1.0)


def coefficient_block(
    model: ModelParams, sector: Sector, energies: np.ndarray, n_lo: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """a(n, E) and b(n) for rows n in [n_lo, n_hi] and columns E in ``energies``.

    ``a`` has shape (rows, energies); ``b`` does not depend on E and has shape
    (rows, 1).  The caller keeps ``energies`` away from the pole set.
    """
    coeffs = ThreeTermCoeffs(model, sector, energies)
    n = np.arange(n_lo, n_hi + 1, dtype=float)[:, None]
    return coeffs.a(n), coeffs.b(n)


def check_coupling(model: ModelParams) -> None:
    """Raise ZeroCoupling at |g| <= eps_g, where the coefficient formulas divide by ~0."""
    if abs(model.g) <= model.eps_g:
        raise ZeroCoupling(
            "recurrence coefficients are undefined at g = 0; use closed_form_spectrum_g0"
        )


def three_term_coeffs(model: ModelParams, sector: Sector, energy: float) -> ThreeTermCoeffs:
    """Recurrence coefficient generator at fixed ``energy``.

    Raises ZeroCoupling at |g| <= eps_g and PoleCollision when ``energy`` lies
    within eps_pole of a pole energy.
    """
    check_coupling(model)
    if distance_to_pole_set(model, sector, energy) < model.eps_pole:
        raise PoleCollision(f"E = {energy} coincides with a pole energy")
    return ThreeTermCoeffs(model, sector, energy)


def distance_to_pole_set(model: ModelParams, sector: Sector, energy):
    """Distance from ``energy`` (a float or an array) to the nearest pole of the coefficients."""
    sector.check_matches(model)
    first = pole_energy(model, sector, 0)
    spacing = pole_spacing(model, sector)
    k = np.maximum(np.rint((energy - first) / spacing), 0.0)
    dist = np.abs(energy - (first + k * spacing))
    return dist if isinstance(dist, np.ndarray) else float(dist)


def closed_form_spectrum_g0(model: ModelParams, sector: Sector, n_max: int) -> list[float]:
    """Decoupled (g = 0) spectrum of the given sector, n = 0..n_max, sorted.

    Degenerate levels (delta = 0) are listed with multiplicity.
    """
    sector.check_matches(model)
    if model.g != 0.0:
        raise NotDecoupled("closed-form spectrum requires g = 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    w, d = model.omega, model.delta
    levels: list[float] = []
    if model.kind is ModelKind.TWO_PHOTON:
        parity = 0 if sector.value == 0.25 else 1
        for n in range(n_max + 1):
            if n % 2 == parity:
                levels += [n * w - d, n * w + d]
    elif model.kind is ModelKind.TWO_MODE:
        diff = 2.0 * sector.value - 1.0
        for n in range(n_max + 1):
            base = (2.0 * n + diff) * w
            levels += [base - d, base + d]
    else:
        gap = math.hypot(d, model.drive)
        for n in range(n_max + 1):
            levels += [n * w - gap, n * w + gap]
    return sorted(levels)
