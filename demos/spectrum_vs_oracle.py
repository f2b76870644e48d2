"""
Continued-fraction spectrum against truncated-Fock diagonalization
==================================================================

Computes the regular spectrum of the 2-photon Rabi model in one parity
sector by root finding on the transcendental function, then checks every
level against a completely independent Fock-space diagonalization, which
solves the parity block as two tridiagonal (Jacobi) chains.
"""

from rabispec import (
    ModelKind,
    ModelParams,
    Sector,
    compute_spectrum,
    oracle_spectrum,
    pole_energies,
)

model = ModelParams(ModelKind.TWO_PHOTON, omega=1.0, delta=0.5, g=0.2)
sector = Sector.two_photon(0.25)  # even photon-number parity
window = (-0.5, 8.0)

result = compute_spectrum(model, sector, window)
oracle_vals, n_used = oracle_spectrum(model, sector, window)

print(f"model: {model.kind.value}, delta={model.delta}, g={model.g}, q={sector.value}")
print(f"window: {window}, oracle truncation: {n_used}")
print(f"pole energies in window: {[round(p, 6) for p in result.poles]}")
print()
print(f"{'root':>20} {'oracle':>20} {'|diff|':>10} {'residual':>10}")
for rec, o in zip(result.roots, oracle_vals):
    print(f"{rec.energy:20.12f} {o:20.12f} {abs(rec.energy - o):10.2e} {rec.residual:10.2e}")

worst = max(abs(r.energy - o) for r, o in zip(result.roots, oracle_vals))
print()
print(f"{len(result.roots)} levels, worst disagreement {worst:.2e}")
