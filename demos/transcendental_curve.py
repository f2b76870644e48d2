"""
Anatomy of the transcendental eigenvalue function
=================================================

Samples the continued-fraction function G(E) of the two-mode Rabi model
across an inter-pole interval and prints a crude ASCII trace.  Eigenvalues
are its sign changes; the analytic poles bound the intervals.  Near an
eigenvalue that hugs a pole, the plain function can hide the zero inside a
tight zero/pole pair, which is why the solver does not look for sign changes
at all: it counts the levels below each energy and narrows each level on
that count.
"""

import math

from rabispec import (
    ModelKind,
    ModelParams,
    Sector,
    compute_spectrum,
    split_spectral_value,
)
from rabispec.models import pole_energies

model = ModelParams(ModelKind.TWO_MODE, omega=1.0, delta=0.7, g=0.4)
sector = Sector.two_mode(1.0)

poles = pole_energies(model, sector, 2)
lo, hi = poles[0] + 1e-3, poles[1] - 1e-3
print(f"interval between poles {poles[0]:.6f} and {poles[1]:.6f}")
print()

samples = 41
width = 57
for i in range(samples):
    e = lo + (hi - lo) * i / (samples - 1)
    v = split_spectral_value(model, sector, e, 0)
    # log-compressed bar so the pole approach does not dominate the picture
    mag = min(math.log10(1.0 + abs(v)) / 3.0, 1.0)
    pos = int(width / 2 + math.copysign(mag * width / 2, v))
    line = [" "] * (width + 1)
    line[width // 2] = "|"
    line[pos] = "*"
    print(f"{e:9.4f} {v:+12.4e} {''.join(line)}")

roots = compute_spectrum(model, sector, (lo, hi)).energies
print()
print(f"sign changes refine to: {[round(r, 10) for r in roots]}")
for r in roots:
    w1 = split_spectral_value(model, sector, r, split=1)
    print(f"  split evaluation at the root: {w1:+.3e} (same zero set)")
