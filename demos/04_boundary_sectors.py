"""Boundary Hamiltonian and superselection sectors on a free patch.

Subtracting the boundary charge projectors from H leaves a positive
semidefinite operator whose kernel holds one bulk excitation paired with a
boundary partner.  One dense `eigh` shows the kernel; its (charge, flux)
sectors are counted from the labels without diagonalizing, and on kernel
states the plain energy equals the boundary charge expectations, read on
sparse states.
"""

import numpy as np

from qdouble import (
    QuantumDouble,
    frustration_free_state,
    detector_energy_residual,
    parse_group_spec,
    parse_region_spec,
    sector_counts,
    single_excitation_state,
)

group = parse_group_spec("Z2")
region = parse_region_spec("free:3x3")
model = QuantumDouble(group, region)

hb = model.hamiltonian(boundary="eps_mu")
print(f"{group.spec} on {region.spec}: H^(eps,mu) = H - V^eps - V^mu")
dense = hb.to_dense(max_dim=4096)
vals = np.linalg.eigvalsh(dense)
kernel_dim = int(np.sum(vals < 1e-8))
print(f"  min eigenvalue {vals[0]:.2e} (PSD)")
print(f"  kernel dimension {kernel_dim} of {model.space.dim} (dense eigh)")

print("\nsector decomposition of the kernel (counted charge and flux labels):")
counts = sector_counts(group, region, "eps_mu")
labels = [(chi, c) for chi in range(group.size) for c in range(group.size)]
dims = {label: counts.get((0, *label), 0) for label in labels}
for (chi, c), d in sorted(dims.items()):
    print(f"  sector (chi={chi}, c={c}): dimension {d}")
print(f"  total {sum(dims.values())} == dense kernel {kernel_dim}")

print("\n<H> = <D^eps> + <D^mu> on kernel states:")
site = region.site((1, 1), (1, 1))
for chi, c in ((1, 0), (0, 1), (1, 1)):
    state = single_excitation_state(model, site, chi, c)
    print(f"  single excitation ({chi},{c}): gap {detector_energy_residual(state):.2e}")
print(f"  ground state: gap {detector_energy_residual(frustration_free_state(model)):.2e}")
