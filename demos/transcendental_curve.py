"""
Anatomy of the transcendental eigenvalue function
=================================================

Samples the continued-fraction function F(E) of the two-mode Rabi model
across an inter-pole interval and prints a crude ASCII trace.  Eigenvalues
are its sign changes; the analytic poles bound the intervals.  Near an
eigenvalue that hugs a pole, the plain function can hide the zero inside a
tight zero/pole pair, which is why the solver does not look for sign changes
at all: it counts the levels below each energy and narrows each level on
that count.
"""

import math

import numpy as np

from rabispec import ModelKind, ModelParams, Sector, compute_spectrum
from rabispec.models import pole_energies
from rabispec.spectral import f_values

model = ModelParams(ModelKind.TWO_MODE, omega=1.0, delta=0.7, g=0.4)
sector = Sector.two_mode(1.0)

poles = pole_energies(model, sector, 2)
lo, hi = poles[0] + 1e-3, poles[1] - 1e-3
print(f"interval between poles {poles[0]:.6f} and {poles[1]:.6f}")
print()

samples = 41
width = 57
energies = np.linspace(lo, hi, samples)
for e, v in zip(energies.tolist(), f_values(model, sector, energies).tolist()):
    # log-compressed bar so the pole approach does not dominate the picture
    mag = min(math.log10(1.0 + abs(v)) / 3.0, 1.0)
    pos = int(width / 2 + math.copysign(mag * width / 2, v))
    line = [" "] * (width + 1)
    line[width // 2] = "|"
    line[pos] = "*"
    print(f"{e:9.4f} {v:+12.4e} {''.join(line)}")

roots = compute_spectrum(model, sector, (lo, hi)).roots
print()
print(f"sign changes refine to: {[round(r.energy, 10) for r in roots]}")
for r in roots:
    # the twist element -sign(g) W_k* at the matching index k*, over the eigenvector's norm
    print(f"  twisted residual at the root: {r.residual:.3e}")
