"""Closed-form model data: parameters, sectors, recurrence coefficients and poles.

Everything here is a pure function of the physical parameters.  Energies are
kept in the caller's units of ``omega``; no rescaling is performed.

The two-photon and two-mode formulas come from one Bogoliubov transformation
and differ only by the squeeze factor c (2 and 1; coupling bound c|g| < omega);
the driven model, a displacement, has its own.  The poles of the coefficients
form one lattice E_n = E_0 + n * spacing (``pole_lattice``) that every pole
computation reads, so a(n) divides by the same float the solver keeps away from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CouplingOutOfRange, NotDecoupled, ZeroCoupling

# Below eps_g the coefficient formulas divide by ~0; callers are routed to the
# decoupled closed form.  Within eps_pole of a pole energy the A-coefficient
# overflows and evaluation is refused.
EPS_G_FACTOR = 1e-12
EPS_POLE_FACTOR = 1e-9


class ModelKind(Enum):
    TWO_PHOTON = "two-photon"
    TWO_MODE = "two-mode"
    DRIVEN_RABI = "driven"


# Squeeze factor c of the two squeezed models; the driven model has none.
# Every c-scaling in the formulas is by a power of two, so it is exact.
SQUEEZE_FACTOR = {ModelKind.TWO_PHOTON: 2.0, ModelKind.TWO_MODE: 1.0}


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
        c = SQUEEZE_FACTOR.get(self.kind)
        if c is not None and c * abs(self.g) >= self.omega:
            bound = "2|g|" if c == 2.0 else "|g|"
            raise CouplingOutOfRange(
                f"{self.kind.value} model requires {bound} < omega, "
                f"got g={self.g}, omega={self.omega}"
            )

    @property
    def eps_g(self) -> float:
        return EPS_G_FACTOR * self.omega

    @property
    def eps_pole(self) -> float:
        return EPS_POLE_FACTOR * self.omega


@dataclass(frozen=True)
class Sector:
    """Symmetry-sector label: q in {1/4, 3/4}, kappa in {1/2, 1, 3/2, ...}, or trivial.

    The label is checked on construction, through the named constructors or
    the dataclass's own: ValueError on any other q or kappa, and on a driven
    label other than 0.
    """

    kind: ModelKind
    value: float = 0.0

    def __post_init__(self):
        if self.kind is ModelKind.TWO_PHOTON:
            if self.value not in (0.25, 0.75):
                raise ValueError("two-photon sector label q must be 1/4 or 3/4")
        elif self.kind is ModelKind.TWO_MODE:
            two_kappa = 2.0 * self.value
            if not (two_kappa > 0 and float(two_kappa).is_integer()):
                raise ValueError("two-mode sector label kappa must be a positive half-integer")
        elif self.value != 0.0:
            raise ValueError("the driven model's only sector label is 0")

    @staticmethod
    def two_photon(q: float) -> "Sector":
        return Sector(ModelKind.TWO_PHOTON, q)

    @staticmethod
    def two_mode(kappa: float) -> "Sector":
        return Sector(ModelKind.TWO_MODE, kappa)

    @staticmethod
    def driven() -> "Sector":
        return Sector(ModelKind.DRIVEN_RABI, 0.0)

    def check_matches(self, model: ModelParams) -> None:
        if self.kind is not model.kind:
            raise ValueError(f"sector kind {self.kind} does not match model kind {model.kind}")


def root_factor(model: ModelParams) -> float:
    """Square-root factor of the squeezing/displacement transformation for ``model``.

    sqrt(1 - (c*g/omega)^2) for the squeezed models (Omega for the two-photon
    model with c = 2, Lambda for the two-mode model with c = 1); 1 for the
    driven model, whose transformation is a displacement.
    """
    c = SQUEEZE_FACTOR.get(model.kind)
    if c is None:
        return 1.0
    w, g = model.omega, model.g
    return math.sqrt(1.0 - c * c * g * g / (w * w))


@dataclass(frozen=True)
class AsymptoticRoots:
    """The minimal-solution scale of the three-term recurrence.

    The minimal-solution ratio behaves as ``t2 / n``; the backward passes
    seed with it.  For the driven model the bare characteristic roots are
    {0, omega/2g}; the reported minimal scale 2g/omega is the refined decay
    rate, which is what the asymptotic tests can actually measure.
    """

    t2: float


def asymptotic_roots(model: ModelParams) -> AsymptoticRoots:
    """The minimal ratio scale of the recurrence for ``model``."""
    w, g = model.omega, model.g
    if abs(g) <= model.eps_g:
        raise ZeroCoupling("asymptotic roots are undefined at g = 0")
    if model.kind in SQUEEZE_FACTOR:
        return AsymptoticRoots(t2=g / w)
    return AsymptoticRoots(t2=2.0 * g / w)


def pole_lattice(model: ModelParams, sector: Sector) -> tuple[float, float]:
    """(E_0, spacing) of the pole set E_n = E_0 + n * spacing, n = 0, 1, ...

    Squeezed models: E_0 = -omega/c + 2 s omega root and spacing 2 omega root,
    with s the sector label and root the Bogoliubov root factor.  Driven
    model: E_0 = drive - g^2/omega and spacing omega.
    """
    sector.check_matches(model)
    w = model.omega
    c = SQUEEZE_FACTOR.get(model.kind)
    if c is None:
        return model.drive - model.g * model.g / w, w
    root = root_factor(model)
    return -w / c + 2.0 * sector.value * w * root, 2.0 * w * root


def pole_energy(model: ModelParams, sector: Sector, n):
    """n-th pole of the plus-component coefficient relation (exceptional candidate).

    ``n`` may be an array of indices.
    """
    first, spacing = pole_lattice(model, sector)
    return first + n * spacing


def coefficient_block(
    model: ModelParams, sector: Sector, energies: np.ndarray, n_lo: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """a(n, E) and b(n) of K_{n+1} + a(n) K_n + b(n) K_{n-1} = 0, the one copy of the formulas.

    Rows are n in [n_lo, n_hi] and columns E in ``energies``: ``a`` (A_n, C_n
    or X_n of the respective model) has shape (rows, energies), and ``b``
    (B_n, D_n or Y_n) does not depend on E and has shape (rows, 1).  The
    caller keeps ``energies`` away from the pole set.
    """
    first, spacing = pole_lattice(model, sector)
    c = SQUEEZE_FACTOR.get(model.kind)
    w, g, d = model.omega, model.g, model.delta
    n = np.arange(n_lo, n_hi + 1, dtype=float)[:, None]
    # the Delta^2 term; its denominator E - E_n is zero exactly at pole_energy(n)
    pole_term = d * d / (energies - (first + n * spacing))
    if c is None:
        a = (energies - n * w + model.drive - 3.0 * g * g / w - pole_term) / (2.0 * g * (n + 1.0))
        return a, 1.0 / (n + 1.0)
    root, s = root_factor(model), sector.value
    num = -(2.0 * n + 2.0 * s) * w * (2.0 - root * root) + (energies + w / c - pole_term) * root
    a = num / (2.0 * c * c * g * (n + 1.0) * (n + 2.0 * s))
    return a, 1.0 / (c * c * (n + 1.0) * (n + 2.0 * s))


def check_coupling(model: ModelParams) -> None:
    """Raise ZeroCoupling at |g| <= eps_g, where the coefficient formulas divide by ~0."""
    if abs(model.g) <= model.eps_g:
        raise ZeroCoupling(
            "recurrence coefficients are undefined at g = 0; use closed_form_spectrum_g0"
        )


def nearest_pole(model: ModelParams, sector: Sector, energy):
    """The pole E_n nearest ``energy`` (a float or an array); E_0 for energies below E_0.

    The index n = max(rint((E - E_0) / spacing), 0) stays a float, so a nan
    energy gives a nan pole.
    """
    first, spacing = pole_lattice(model, sector)
    return first + np.maximum(np.rint((energy - first) / spacing), 0.0) * spacing


def distance_to_pole_set(model: ModelParams, sector: Sector, energy):
    """Distance from ``energy`` (a float or an array) to the nearest pole of the coefficients."""
    with np.errstate(invalid="ignore"):  # nan at E = +inf, whose nearest pole is +inf
        dist = np.abs(energy - nearest_pole(model, sector, energy))
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
