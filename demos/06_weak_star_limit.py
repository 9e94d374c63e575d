"""Eventual constancy: the evidence for the weak* limit of excited states.

A single excitation (chi, c) at site (1, 1), its ribbon routed out of the
patch, is read on a fixed probe family (the local star, star shifts, flux
indicators and encircling loops at the site, and far probes at vertex
(2, 2)).  Each value is the vector seed's expectation of the probe carried
along the ribbon, F* A F, read from the term algebra alone
(`seed_expectation`), so no size builds a configuration row.  The values
are the same at every size L, exactly: the local observables of the
finite-volume states are eventually constant, which is how they converge
weak* to the infinite-volume excited state.
"""

import itertools

from qdouble import QuantumDouble, Region, parse_group_spec, ribbon_to_boundary
from qdouble.states import charge_transport, probe_family, seed_expectation

SIZES = (4, 8, 16, 32)
SITE, FAR = (1, 1), (2, 2)


def fmt(z: complex) -> str:
    z = complex(round(z.real, 3) + 0.0, round(z.imag, 3) + 0.0)
    return f"{z.real:g}" if z.imag == 0 else f"{z.real:g}{z.imag:+g}i"


def probe_values(group, size: int, chi, c) -> dict:
    region = Region.free(size, size)
    model = QuantumDouble(group, region)
    site = region.site(SITE, SITE)
    ribbon = ribbon_to_boundary(region, site)
    return {name: seed_expectation(model, charge_transport(model, ribbon, chi, c, op))
            for name, op in probe_family(model, site, FAR)}


for spec in ("Z2", "Z3", "Z2xZ2"):
    group = parse_group_spec(spec)
    labels = list(itertools.product(range(group.size), repeat=2))
    # tables[label][k]: the probe values at SIZES[k]
    tables = {label: [probe_values(group, size, *label) for size in SIZES] for label in labels}
    heads = [f"({chi},{c})" for chi, c in labels]
    width = 2 + max([len(h) for h in heads] + [len(fmt(v)) for runs in tables.values()
                                               for v in runs[0].values()])
    print(f"{spec}: excitation (chi, c) at site {SITE}, far probes at {FAR}, values at L = 4")
    print(f"  {'probe':<22}" + "".join(f"{head:>{width}}" for head in heads))
    for name in tables[labels[0]][0]:
        print(f"  {name:<22}" + "".join(f"{fmt(tables[label][0][name]):>{width}}"
                                         for label in labels))
    same = [all(run == tables[label][0] for run in tables[label]) for label in labels]
    print(f"  {'same at L = 8, 16, 32':<22}" + "".join(f"{'yes' if ok else 'NO':>{width}}"
                                                      for ok in same))
    print(f"  {sum(same)} of {len(labels)} labels read exactly the same on free LxL, "
          f"L = {', '.join(map(str, SIZES))}\n")
