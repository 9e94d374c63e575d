"""Anyons from ribbon operators: pair creation, energies, and braiding.

A strip operator F^{chi,c} applied to the ground vector creates a conjugate
pair of excitations at its end sites.  Each fully charged end costs
2 - [chi trivial] - [c trivial]; two strips that cross once commute up to an
exact root of unity determined by their labels.
"""

from qdouble import (
    QuantumDouble,
    crossing_pair,
    frustration_free_state,
    parse_group_spec,
    parse_region_spec,
    ribbon_to_boundary,
    sector_weights,
    single_excitation_state,
)

group = parse_group_spec("Z3")
region = parse_region_spec("free:3x3")
model = QuantumDouble(group, region)
q = group.size
h = model.hamiltonian()

site = region.site((1, 1), (1, 1))
print(f"{group.spec} on {region.spec}; excitation site {site.vertex}/{site.face}\n")

print("single excitation energies, one strip routed out of the region:")
omega = frustration_free_state(model).vector
rib = ribbon_to_boundary(region, site)
for chi in range(q):
    for c in range(q):
        exc = omega.apply(model.ribbon_char(rib, chi, c))
        e = exc.apply(h).dot(exc).real / exc.dot(exc).real
        print(f"  (chi, c) = ({chi}, {c}):  <H> = {e:.6f}   "
              f"predicted {2 - (chi == 0) - (c == 0)}")

print("\nsector weights are a point mass at the created label:")
state = single_excitation_state(model, site, 1, 2)
for (chi, c), lam in sector_weights(state).items():
    mark = " <--" if lam > 0.5 else ""
    print(f"  lambda[{chi},{c}] = {lam:+.3e}{mark}")

print("\ncrossing scalars chi(d) xi(c) for two transversally crossing strips:")
rho, sigma = crossing_pair(region)
chars, els = list(group.characters()), list(group.elements())
labels = [(chi, c) for chi in range(q) for c in range(q)]
header = "        " + "  ".join(f"({chi},{c})" for chi, c in labels)
print(header)
for chi_a, c_a in labels:
    row = []
    for chi_b, c_b in labels:
        s = model.crossing_phase(rho, chars[chi_a], els[c_a], sigma, chars[chi_b], els[c_b])
        row.append(f"{str(s.exponent):>5}")
    print(f"  ({chi_a},{c_a}) " + "  ".join(row))
print("(entries are exponents k/n of exp(2 pi i k/n); 0 means the strips commute)")
