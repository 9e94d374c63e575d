"""Boundary Hamiltonian and superselection sectors on a free patch.

Subtracting the boundary charge projectors from H leaves a positive
semidefinite operator whose kernel holds one bulk excitation paired with a
boundary partner; the kernel splits into (charge, flux) sectors, whose
dimensions the charge and flux labels count without diagonalizing, and on
every kernel state the plain energy equals the boundary charge expectations.
"""

import numpy as np

from qdouble import (
    QuantumDouble,
    frustration_free_state,
    detector_energy_check,
    detector_energy_residual,
    parse_group_spec,
    parse_region_spec,
    sector_counts,
    sector_dimensions,
    single_excitation_state,
)

group = parse_group_spec("Z2")
region = parse_region_spec("free:3x3")
model = QuantumDouble(group, region)

hb = model.hamiltonian(boundary="eps_mu")
print(f"{group.spec} on {region.spec}: H^(eps,mu) = H - V^eps - V^mu")
dense = hb.to_dense(max_dim=4096)
vals, vecs = np.linalg.eigh(dense)
kernel = vecs[:, vals < 1e-8]
print(f"  min eigenvalue {vals[0]:.2e} (PSD)")
print(f"  kernel dimension {kernel.shape[1]} of {model.space.dim}")

print("\nsector decomposition of the kernel (dense trace, counted labels):")
dims = sector_dimensions(model, kernel)
counts = sector_counts(group, region, "eps_mu")
for (chi, c), d in sorted(dims.items()):
    print(f"  sector (chi={chi}, c={c}): dimension {d} dense, {counts.get((0, chi, c), 0)} counted")
print(f"  total {sum(dims.values())} == kernel {kernel.shape[1]}")

print("\n<H> = <D^eps> + <D^mu> on kernel states:")
print(f"  worst gap over the dense kernel basis: {detector_energy_check(model, kernel):.2e}")
site = region.site((1, 1), (1, 1))
for chi, c in ((1, 0), (0, 1), (1, 1)):
    state = single_excitation_state(model, site, chi, c)
    print(f"  single excitation ({chi},{c}): gap {detector_energy_residual(state):.2e}")
print(f"  ground state: gap {detector_energy_residual(frustration_free_state(model)):.2e}")
