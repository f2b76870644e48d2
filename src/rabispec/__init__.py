"""Spectra of the 2-photon, two-mode and driven Rabi models.

The regular spectrum of each model is computed as the zero set of a
transcendental function built from a minimal-solution continued fraction, and
cross-validated against an independent truncated Fock-space diagonalization.
"""

from .errors import (
    CouplingOutOfRange,
    NotAnEigenvalueWarning,
    NotDecoupled,
    PoleCollision,
    RabispecError,
    SignLostWarning,
    TruncationCeiling,
    TruncationInsufficient,
    ZeroCoupling,
)
from .models import (
    AsymptoticRoots,
    ModelKind,
    ModelParams,
    Sector,
    asymptotic_roots,
    closed_form_spectrum_g0,
)
from .oracle import (
    OracleSector,
    TruncatedHamiltonian,
    build_hamiltonian,
    eigen_lowest,
    map_sector,
    oracle_spectrum,
)
from .series import (
    SeriesCoefficients,
    eval_wavefunction,
    minimal_series,
    norm_tail_ratio,
)
from .spectral import (
    SpectrumOptions,
    SpectrumResult,
    compute_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRoots",
    "CouplingOutOfRange",
    "ModelKind",
    "ModelParams",
    "NotAnEigenvalueWarning",
    "NotDecoupled",
    "OracleSector",
    "PoleCollision",
    "RabispecError",
    "Sector",
    "SeriesCoefficients",
    "SignLostWarning",
    "SpectrumOptions",
    "SpectrumResult",
    "TruncatedHamiltonian",
    "TruncationCeiling",
    "TruncationInsufficient",
    "ZeroCoupling",
    "asymptotic_roots",
    "build_hamiltonian",
    "closed_form_spectrum_g0",
    "compute_spectrum",
    "eigen_lowest",
    "eval_wavefunction",
    "map_sector",
    "minimal_series",
    "norm_tail_ratio",
    "oracle_spectrum",
]
