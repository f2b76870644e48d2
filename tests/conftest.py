"""Shared fixtures and frozen reference data for the test suite.

The frozen eigenvalue lists were produced by the truncated Fock-space
diagonalization oracle (truncation-stable to 1e-9) and are pinned here so the
unit tests do not re-run the oracle.
"""

import ast
from pathlib import Path

import pytest

from rabispec import ModelKind, ModelParams, Sector, spectral

# TwoPhoton omega=1, delta=0.5, g=0.2, q=1/4, window [-0.5, 8]:
# oracle eigenvalues, truncation N=128, stable to 1e-9.
TWO_PHOTON_REF_POINT = dict(omega=1.0, delta=0.5, g=0.2, q=0.25, window=(-0.5, 8.0))
TWO_PHOTON_REF_EIGS = [
    0.41651513899116793,
    1.4139797539978411,
    2.094999359285277,
    3.4877656006348703,
    3.7315803023160115,
    5.385988910959033,
    5.542728977145912,
    7.108491418810693,
    7.481587806614793,
]


class ConstCoeffs:
    """Surrogate coefficient sequence with constant a, b (all n, including 0)."""

    def __init__(self, a, b):
        self._a = a
        self._b = b

    def a(self, n):
        return self._a

    def b(self, n):
        return self._b


@pytest.fixture(scope="session", autouse=True)
def count_start_checked():
    """Every spectrum the suite computes starts its count at a power of two in [64, count_rows].

    ``compute_spectrum`` builds its result through ``spectral.SpectrumResult``,
    which this wraps for the whole session.
    """
    made = spectral.SpectrumResult

    def checked(**fields):
        start, rows = fields["count_start"], fields["count_rows"]
        assert 64 <= start <= rows and not start & (start - 1), (start, rows)
        return made(**fields)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "SpectrumResult", checked)
        yield


@pytest.fixture
def two_photon_ref():
    model = ModelParams(
        kind=ModelKind.TWO_PHOTON,
        omega=TWO_PHOTON_REF_POINT["omega"],
        delta=TWO_PHOTON_REF_POINT["delta"],
        g=TWO_PHOTON_REF_POINT["g"],
    )
    sector = Sector.two_photon(TWO_PHOTON_REF_POINT["q"])
    return model, sector, TWO_PHOTON_REF_POINT["window"], TWO_PHOTON_REF_EIGS


def rabispec_imports(module):
    """(submodule, name) for every ``from rabispec.<submodule> import name`` in a module.

    Relative imports count as rabispec imports; a plain ``import rabispec``
    fails the calling test, since the names it reaches would not show.
    """
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rabispec")):
            source = (node.module or "").removeprefix("rabispec").lstrip(".")
            imported |= {(source, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "rabispec" for a in node.names)
    return imported
