"""Topological ground degeneracy: dim ker H = |G|^2 on a torus.

On a torus the model has no boundary and the ground space splits by the two
winding holonomies.  Each ground vector is the uniform superposition over
the gauge orbit of one flat winding configuration, so an orthonormal kernel
basis is built directly, without diagonalizing H.
"""

from qdouble import (
    QuantumDouble,
    ground_dimension_count,
    ground_space,
    parse_group_spec,
    parse_region_spec,
)

for gspec, rspec in (("Z2", "torus:2x2"), ("Z2", "torus:3x3"), ("Z3", "torus:2x2")):
    group = parse_group_spec(gspec)
    region = parse_region_spec(rspec)
    model = QuantumDouble(group, region)
    basis = ground_space(model)
    count = ground_dimension_count(group, region)
    print(f"{gspec} on {rspec}: dim {model.space.dim}")
    print(f"  gauge-orbit kernel basis: {basis.dim} vectors, "
          f"worst H-residual {float(basis.residuals.max()):.2e}")
    print(f"  counted dimension: {count},  |G|^2 = {group.size ** 2}")
    assert basis.dim == count == group.size ** 2
print("\nevery torus instance shows the |G|^2-fold topological degeneracy")
