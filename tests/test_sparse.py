import itertools
import tracemalloc

import numpy as np
import pytest

from qdouble.groups import make_group, parse_group_spec
import qdouble.sparse as sparse_mod
import qdouble.states as states_mod
import qdouble.verify as verify_mod
from qdouble.lattice import Region, face_direct_loop, ribbon_between, ribbon_to_boundary
from qdouble.operators import (DimensionCapError, ProductOp, QuantumDouble, ScaledOp, SumOp, Term,
                               TermOp, shift_diagonals)
from qdouble.sparse import (
    PRUNE_TOL,
    SparseState,
    grow,
    matrix_elements,
    row_keys,
    shift_matches,
    sorted_keys,
    sparse_apply,
    scale_parts,
    split_parts,
    squared_norms,
    stack,
    stack_matrix,
    take_parts,
)
from qdouble.states import (
    StateFunctional,
    conditional_sector_state,
    frustration_free_state,
    mix,
    sector_weights,
    single_excitation_state,
    spanning_matrix,
)

import reference as ref


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


def random_sparse(space, rng, k=6):
    idx = rng.choice(space.dim, size=k, replace=False)
    digits = np.array([ref.packed_config(space, int(i)) for i in idx], dtype=np.uint8)
    amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return SparseState(space.group, space.num_edges, digits, amps)


def test_basis_state_roundtrip():
    group = make_group([3])
    model = QuantumDouble(group, Region.free(2, 2))
    s = SparseState.basis_state(group, model.space.num_edges)
    dense = s.to_dense(model.space)
    assert dense[0] == 1.0
    assert np.count_nonzero(dense) == 1
    back = SparseState.from_dense(model.space, dense)
    assert back.n_configs == 1
    assert back.dot(s) == pytest.approx(1.0)


def test_dot_and_add_refuse_states_of_other_spaces():
    z2, z3 = make_group([2]), make_group([3])
    s = SparseState.basis_state(z2, 3)
    for other in (SparseState.basis_state(z3, 3), SparseState.basis_state(z2, 4),
                  stack([s, s])):
        with pytest.raises(ValueError):
            s.dot(other)
        with pytest.raises(ValueError):
            s.add(other)
    # equal groups built separately are one space
    twin = SparseState.basis_state(parse_group_spec("Z2"), 3)
    assert s.dot(twin) == 1.0
    assert s.add(twin).amps.tolist() == [2.0]


def test_operators_and_states_of_other_spaces_are_refused():
    z2, z3 = make_group([2]), make_group([3])
    m33, m44 = QuantumDouble(z2, Region.free(3, 3)), QuantumDouble(z2, Region.free(4, 4))
    s12, s24 = (SparseState.basis_state(z2, n) for n in (12, 24))
    z3_plaquette = QuantumDouble(z3, Region.free(3, 3)).plaquette((0, 0))
    mismatches = [
        (m33.hamiltonian(), s24, s24),  # an operator of fewer edges than the state
        (z3_plaquette, s12, s12),  # an operator of another group
        (m33.identity(), s12, SparseState.basis_state(z3, 12)),  # bra and ket of two groups
        (m33.identity(), stack([s12] * 300), s12),  # stacks of two label widths
    ]
    for op, bra, ket in mismatches:
        with pytest.raises(ValueError):
            matrix_elements(op, bra, ket)
    for op, state in [(m33.hamiltonian(), s24), (z3_plaquette, s12),
                      (m44.hamiltonian(), s12), (2.0 * m33.identity(), s24)]:
        with pytest.raises(ValueError):
            sparse_apply(op, state)
    # equal groups built separately are one space
    assert matrix_elements(m33.identity(), s12, SparseState.basis_state(parse_group_spec("Z2"),
                                                                        12)).tolist() == [1.0]


def test_a_state_is_the_one_part_stack():
    model = QuantumDouble(make_group([3]), Region.free(3, 3))
    space, n_edges = model.space, model.space.num_edges
    rng = np.random.default_rng(5)
    s = random_sparse(space, rng)
    for one in (s, SparseState.basis_state(model.group, n_edges), s.normalized(), s.scaled(2j),
                SparseState.from_dense(space, s.to_dense(space)),
                sparse_apply(model.hamiltonian(), s)):
        assert one.n_parts == 1 and one.digits.shape == (one.n_configs, n_edges)
        assert not one.labels.any()
    pure = StateFunctional.pure(model, s)
    assert pure.vector is pure.stack
    assert np.array_equal(pure.vector.digits, s.normalized().digits)
    assert np.array_equal(pure.vector.amps, s.normalized().amps)
    # stacking states keeps their rows in order, part j labelled j, as the
    # stack of one-part states always did
    parts = [random_sparse(space, rng) for _ in range(3)]
    st = stack(parts)
    assert st.n_parts == 3 and st.num_edges == n_edges and st.digits.shape[1] == n_edges + 1
    assert np.array_equal(st.digits[:, :n_edges], np.concatenate([p.digits for p in parts]))
    assert np.array_equal(st.amps, np.concatenate([p.amps for p in parts]))
    assert np.array_equal(st.labels, np.repeat(np.arange(3), [p.n_configs for p in parts]))
    with pytest.raises(ValueError, match="3 parts"):
        st.to_dense(space)
    # every operation that returns a stack says how many parts it holds
    shift = model.star_shift((1, 1), 1)
    grown = grow(st, [shift, model.hamiltonian()])
    both = stack([st, grown])
    assert [x.n_parts for x in (grown, take_parts(grown, [8, 0]), both)] == [9, 2, 12]
    assert np.array_equal(both.labels, np.concatenate([st.labels, 3 + np.sort(grown.labels)]))
    for x in (grown, both):
        assert scale_parts(x, np.arange(x.n_parts)).n_parts == x.n_parts
        assert sparse_apply(shift, x).n_parts == x.n_parts
        assert x.add(sparse_apply(shift, x)).n_parts == x.n_parts
    assert StateFunctional(model, grown, np.full(9, 1 / 9)).parts[8][1].n_parts == 1
    # the parts of a stack are label-free states: stacking them gives it back
    pieces = split_parts(grown)
    assert [p.digits.shape[1] for p in pieces] == [n_edges] * 9
    again = stack(pieces)
    assert np.array_equal(again.digits, grown.digits[np.argsort(grown.labels, kind="stable")])
    # a functional holds one weight per part, and only a one-part stack is a vector
    with pytest.raises(ValueError, match="1 weights for 3 parts"):
        StateFunctional.pure(model, st)
    with pytest.raises(ValueError, match="no single state vector"):
        StateFunctional(model, st, np.full(3, 1 / 3)).vector


def test_merge_and_prune():
    group = make_group([2])
    model = QuantumDouble(group, Region.free(2, 2))
    s = SparseState.basis_state(group, model.space.num_edges)
    doubled = s.add(s)
    assert doubled.n_configs == 1
    assert doubled.amps[0] == pytest.approx(2.0)
    cancelled = s.add(s.scaled(-1.0))
    assert cancelled.n_configs == 0
    assert cancelled.norm() == 0.0


def test_sparse_term_apply_matches_dense(rng):
    # dense engine as the oracle for the sparse route
    group = make_group([3])
    model = QuantumDouble(group, Region.free(2, 2))
    space = model.space
    ops = [
        model.star((1, 1)),
        model.star_shift((0, 0), 2),
        model.plaquette((0, 0)),
        model.hamiltonian(),
        model.total_charge_projector(1),
        model.total_flux_projector(2),
    ]
    # terms with two phases and an indicator: the sparse route multiplies the
    # phases into one diagonal before the amplitudes there
    region = model.region
    start, end = region.site((0, 0), (0, 0)), region.site((1, 1), (0, 0))
    rib = ribbon_between(region, start, end)
    mixed = (model.site_charge_projector(end, 1, 2).compose(model.ribbon_char(rib, 1, 1))
             .compose(model.ribbon_char(face_direct_loop(region, (0, 0)), 2, 0)))
    assert any(len(t.phases) >= 2 and t.indicators for t in mixed.terms)
    ops.append(mixed)
    for op in ops:
        s = random_sparse(space, rng)
        got = sparse_apply(op, s).to_dense(space)
        want = op.apply(s.to_dense(space))
        assert np.linalg.norm(got - want) < 1e-12


@pytest.mark.parametrize("orders, kind", [([2], "free"), ([3], "free"), ([4], "free"),
                                          ([2, 2], "free"), ([2], "torus")],
                         ids=["Z2-free", "Z3-free", "Z4-free", "Z2xZ2-free", "Z2-torus"])
def test_grouped_apply_matches_the_per_term_oracle(monkeypatch, orders, kind):
    # the uniform mixture of a 3x3 region and its images under an inner strip
    # and a boundary-routed one, as one stack: rows byte-identical, amplitudes
    # within 1e-15, and each application groups its terms by shift once
    region = getattr(Region, kind)(3, 3)
    model = QuantumDouble(make_group(orders), region)
    site = region.site((1, 1), (1, 1))
    rib = ribbon_between(region, region.site((0, 0), (0, 0)), site)
    strips = [rib] if region.is_torus else [rib, ribbon_to_boundary(region, site)]
    st = grow(frustration_free_state(model, "uniform-mixture").stack,
              [model.ribbon_char(r, 1, 1) for r in strips])
    h = model.hamiltonian()
    ops = [h, model.total_charge_projector(1), model.total_flux_projector(1),
           model.site_charge_projector(site, 1, 1), model.ribbon_char(rib, 1, 1),
           model.star(site.vertex), h - 2 * model.identity()]
    if not region.is_torus:
        ops.append(model.hamiltonian(boundary="eps_mu"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shift_diagonals(*args, **kwargs)

    monkeypatch.setattr(sparse_mod, "shift_diagonals", counted)
    for op in ops:
        got, want = st.apply_terms(op.terms), ref.per_term_apply(st, op.terms)
        assert got.n_configs > 0 or not op.terms  # a torus carries no total charge or flux
        assert np.array_equal(got.digits, want.digits)
        assert np.max(np.abs(got.amps - want.amps), initial=0.0) <= 1e-15
    assert len(calls) == len(ops)


def test_sparse_ribbon_apply_matches_dense(rng):
    group = make_group([2, 2])
    region = Region.free(2, 2)
    model = QuantumDouble(group, region)
    rib = ribbon_between(region, region.site((0, 0), (0, 0)), region.site((1, 1), (0, 0)))
    for chi in (1, 3):
        for c in (2, 3):
            op = model.ribbon_char(rib, chi, c)
            s = random_sparse(model.space, rng)
            got = sparse_apply(op, s).to_dense(model.space)
            want = op.apply(s.to_dense(model.space))
            assert np.linalg.norm(got - want) < 1e-12


def test_sparse_operator_trees(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.torus(2, 2))
    space = model.space
    a, b = model.star((0, 0)), model.plaquette((1, 1))
    trees = [
        SumOp(space, [a, b]),
        ProductOp(space, [a, b]),
        ScaledOp(space, 2.5 - 1j, a),
        SumOp(space, [ProductOp(space, [a, b]), ScaledOp(space, -0.5, b)]),
    ]
    for op in trees:
        s = random_sparse(space, rng)
        got = sparse_apply(op, s).to_dense(space)
        want = op.apply(s.to_dense(space))
        assert np.linalg.norm(got - want) < 1e-12


def test_dot_and_expect_match_dense(rng):
    group = make_group([3])
    model = QuantumDouble(group, Region.free(2, 2))
    s = random_sparse(model.space, rng)
    t = random_sparse(model.space, rng)
    assert s.dot(t) == pytest.approx(np.vdot(s.to_dense(model.space), t.to_dense(model.space)))
    h = model.hamiltonian()
    want = np.vdot(s.to_dense(model.space), h.apply(s.to_dense(model.space)))
    assert s.dot(sparse_apply(h, s)) == pytest.approx(want)


def test_indicator_terms_filter_rows():
    group = make_group([2])
    model = QuantumDouble(group, Region.free(2, 2))
    eid = 0
    op = TermOp(model.space, [Term(1.0, (), (), ((((eid, 1),), 1),))])
    zero = SparseState.basis_state(group, model.space.num_edges)
    assert sparse_apply(op, zero).n_configs == 0
    digits = np.zeros(model.space.num_edges, dtype=np.uint8)
    digits[eid] = 1
    one = SparseState.basis_state(group, model.space.num_edges, digits)
    out = sparse_apply(op, one)
    assert out.n_configs == 1
    assert out.amps[0] == pytest.approx(1.0)


def test_dense_conversions_match_the_digit_loop(rng):
    # the mixed-radix index of a row is sum_e digit_e q^e, as basis_index reads it
    group = make_group([3])
    space = QuantumDouble(group, Region.free(2, 3)).space
    for k in (1, 7, 40):
        s = random_sparse(space, rng, k=k)
        want = np.zeros(space.dim, dtype=complex)
        for row, a in zip(s.digits, s.amps):
            want[space.basis_index(row)] += a
        dense = s.to_dense(space)
        assert np.array_equal(dense, want)
        back = SparseState.from_dense(space, dense)
        loop = np.array([ref.packed_config(space, int(i)) for i in np.nonzero(dense)[0]],
                        dtype=np.uint8)
        assert np.array_equal(np.sort(back.digits, axis=0), np.sort(loop, axis=0))
        assert np.array_equal(back.to_dense(space), dense)
    assert SparseState.from_dense(space, np.zeros(space.dim)).n_configs == 0


# ---------------------------------------------------------------------------
# row keys: merge and dot against the structured-row and dict routes

# (group, edges): 12 edges, Z3 at 40 edges (3^40 > 2^63 configurations) and
# Z2 free:6x6 (60 edges)
KEY_WIDTHS = [([4], 12), ([3], 40), ([2], 60)]


def merge_oracle(digits, amps):
    """The structured-row merge: np.unique(axis=0), np.add.at, then the prune."""
    rows, inverse = np.unique(digits, axis=0, return_inverse=True)
    out = np.zeros(rows.shape[0], dtype=np.complex128)
    np.add.at(out, inverse.ravel(), amps)
    keep = np.abs(out) > PRUNE_TOL * max(1.0, np.abs(out).max(initial=0.0))
    return rows[keep], out[keep]


def dot_oracle(s, t):
    """<s|t> through a dict from row bytes to amplitude."""
    lookup = {row.tobytes(): a for row, a in zip(s.digits, s.amps)}
    acc = 0j
    for row, b in zip(t.digits, t.amps):
        if row.tobytes() in lookup:
            acc += np.conj(lookup[row.tobytes()]) * b
    return acc


def random_rows(pool, rng, n=300):
    """Seeded rows drawn with repeats from the first half of `pool`, plus the
    rows of its second half twice each with opposite amplitudes, which cancel
    exactly."""
    half = len(pool) // 2
    picks = rng.integers(0, half, size=n)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gone = rng.standard_normal(len(pool) - half) + 0.5j
    digits = np.concatenate([pool[picks], pool[half:], pool[half:]])
    amps = np.concatenate([amps, gone, -gone])
    order = rng.permutation(len(amps))
    return digits[order], amps[order]


def random_pool(q, n_edges, rng, m=120):
    return rng.integers(0, q, size=(m, n_edges), dtype=np.uint8)


@pytest.mark.parametrize("orders,n_edges", KEY_WIDTHS)
def test_merge_matches_the_structured_row_merge(orders, n_edges):
    group = make_group(orders)
    rng = np.random.default_rng(n_edges)
    digits, amps = random_rows(random_pool(group.size, n_edges, rng), rng)
    s = SparseState(group, n_edges, digits, amps)
    rows, want = merge_oracle(digits, amps)
    assert 0 < s.n_configs <= 60  # repeats summed, cancelled rows pruned
    assert np.array_equal(s.digits, rows)  # same rows, same order
    assert np.allclose(s.amps, want, rtol=0, atol=1e-15)
    # a state whose rows all cancel
    both, signed = np.concatenate([digits, digits]), np.concatenate([amps, -amps])
    assert SparseState(group, n_edges, both, signed).n_configs == 0
    assert merge_oracle(both, signed)[0].shape[0] == 0


@pytest.mark.parametrize("orders,n_edges", KEY_WIDTHS)
def test_dot_matches_the_dict_lookup(orders, n_edges):
    group = make_group(orders)
    rng = np.random.default_rng(100 + n_edges)
    pool = random_pool(group.size, n_edges, rng)
    s = SparseState(group, n_edges, *random_rows(pool[:80], rng))
    t = SparseState(group, n_edges, *random_rows(pool[20:], rng))
    disjoint = SparseState(group, n_edges, *random_rows(pool[80:], rng))
    empty = SparseState(group, n_edges, np.zeros((0, n_edges)), [])
    rows = {name: set(map(bytes, x.digits)) for name, x in [("s", s), ("t", t), ("d", disjoint)]}
    assert 0 < len(rows["s"] & rows["t"]) < s.n_configs and not rows["s"] & rows["d"]
    for a, b in [(s, t), (t, s), (s, s), (s, disjoint), (s, empty), (empty, s), (empty, empty)]:
        assert abs(a.dot(b) - dot_oracle(a, b)) < 1e-12
    assert s.dot(disjoint) == 0 and s.dot(empty) == 0
    assert s.dot(s) == pytest.approx(s.norm() ** 2)


def test_basis_indexing_matches_the_digit_loop():
    # the mixed-radix index sum_e digit_e q^e, read edge by edge
    group = make_group([2, 3])
    space = QuantumDouble(group, Region.free(2, 3)).space
    for idx in (0, 1, 17, 4321, space.dim - 1):
        digits, rest = [], idx
        for _ in range(space.num_edges):
            digits.append(rest % space.q)
            rest //= space.q
        loop = 0
        for d in reversed(digits):
            loop = loop * space.q + d
        assert space.basis_index(digits) == loop == idx


def stack_parts(space, rng, n_parts=300):
    """Normalized parts over one pool of rows, so parts share rows; parts 0
    and 1 are equal and part 2 has part 0's rows with other amplitudes."""
    pool = rng.integers(0, space.q, size=(40, space.num_edges), dtype=np.uint8)
    parts = []
    for _ in range(n_parts):
        k = int(rng.integers(1, 12))
        amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        parts.append(SparseState(space.group, space.num_edges, pool[rng.choice(40, k)], amps))
    parts[1] = SparseState(space.group, space.num_edges, parts[0].digits, parts[0].amps)
    parts[2] = SparseState(space.group, space.num_edges, parts[0].digits, rng.permutation(parts[0].amps))
    return [p.normalized() for p in parts]


@pytest.mark.parametrize("orders", [[2], [3]], ids=["Z2", "Z3"])
def test_stack_applies_to_every_part_at_once(orders):
    # 300 parts: labels take two bytes
    group = make_group(orders)
    model = QuantumDouble(group, Region.free(3, 3))
    space, n_edges = model.space, model.space.num_edges
    parts = stack_parts(space, np.random.default_rng(9))
    st = stack(parts)
    assert st.digits.shape[1] == n_edges + 2
    assert np.array_equal(st.labels, np.repeat(np.arange(300), [p.n_configs for p in parts]))
    shift = model.star_shift((1, 1), 1)
    # (I - X)(I + X) = I - X^2 cancels every row exactly on Z2
    cancel = ProductOp(space, [SumOp(space, [model.identity(), ScaledOp(space, -1.0, shift)]),
                               SumOp(space, [model.identity(), shift])])
    ops = [SumOp(space, [model.star((1, 1)), model.plaquette((1, 1))]), cancel,
           model.ribbon_char(ribbon_between(model.region, model.region.site((1, 1), (1, 1)),
                                            model.region.site((1, 2), (1, 2))), 1, 1)]
    for op in ops:
        out = sparse_apply(op, st)
        labels = out.labels
        for p, part in enumerate(parts):
            alone, mine = sparse_apply(op, part), labels == p
            assert np.array_equal(out.digits[mine, :n_edges], alone.digits)
            assert np.array_equal(out.amps[mine], alone.amps)
    assert group.size != 2 or sparse_apply(cancel, st).n_configs == 0


def count_applies(monkeypatch, *modules):
    """Record every outermost sparse_apply made through `modules`; the
    recursion inside an operator tree is not counted."""
    calls, depth = [], [0]

    def counted(op, st):
        if not depth[0]:
            calls.append(op)
        depth[0] += 1
        try:
            return sparse_apply(op, st)
        finally:
            depth[0] -= 1

    for module in modules:
        monkeypatch.setattr(module, "sparse_apply", counted)
    return calls


def test_spanning_matrix_applies_each_strip_once(monkeypatch):
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    calls = count_applies(monkeypatch, states_mod, sparse_mod)
    spanning_matrix(model)
    assert 0 < len(calls) <= (2 - 1) * model.region.num_edges


def grow_parts(model, rng):
    """100 normalized parts (one label byte); every row of part 7 has
    edge 0 at 1, every row of the others has it at 0."""
    space = model.space
    parts = []
    for j, p in enumerate(stack_parts(space, rng, 100)):
        digits = p.digits.copy()
        digits[:, 0] = j == 7
        parts.append(SparseState(space.group, space.num_edges, digits, p.amps).normalized())
    return parts


def split(model, st, n_parts):
    """The parts of a stack as states, through `StateFunctional.parts`."""
    return [s for _, s in StateFunctional(model, st, np.ones(n_parts)).parts]


@pytest.mark.parametrize("orders", [[2], [3]], ids=["Z2", "Z3"])
def test_grow_and_split_match_the_per_part_apply(orders):
    # 100 parts grown by two ops become 300: the labels go from 1 byte to 2
    group = make_group(orders)
    model = QuantumDouble(group, Region.free(3, 3))
    space, n_edges = model.space, model.space.num_edges
    parts = grow_parts(model, np.random.default_rng(11))
    st = stack(parts)
    assert st.digits.shape[1] == n_edges + 1
    for part, alone in zip(split(model, st, 100), parts):
        assert np.array_equal(part.digits, alone.digits) and np.array_equal(part.amps, alone.amps)
    # the indicator keeps edge 0 at 0, so the product cancels every row of part 7
    at_zero = TermOp(space, [Term(1.0, (), (), ((((0, 1),), 0),))])
    kill = ProductOp(space, [at_zero, model.plaquette((1, 1)), model.star_shift((1, 1), 1)])
    ribbon = model.ribbon_char(ribbon_between(model.region, model.region.site((1, 1), (1, 1)),
                                              model.region.site((1, 2), (1, 2))), 1, 1)
    ops = [kill, ribbon]
    grown = grow(st, ops)
    assert grown.digits.shape[1] == n_edges + 2
    assert grown.labels.max() == 299
    out = split(model, grown, 300)
    for j, part in enumerate(parts):
        for s, want in enumerate([part] + [sparse_apply(op, part) for op in ops]):
            got = out[3 * j + s]
            assert np.array_equal(got.digits, want.digits)
            assert np.array_equal(got.amps, want.amps)
    assert out[3 * 7 + 1].n_configs == 0 < out[3 * 8 + 1].n_configs
    # taking parts relabels them in the order asked, an empty part included
    for got, j in zip(split(model, take_parts(grown, [299, 22, 4]), 3), [299, 22, 4]):
        assert np.array_equal(got.digits, out[j].digits) and np.array_equal(got.amps, out[j].amps)
    # per-label matrix elements, on the stack's own rows and against the
    # applied stack, and squared norms
    h = model.hamiltonian()
    want = [p.dot(sparse_apply(h, p)) for p in out]
    got = matrix_elements(h, grown, grown)
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    applied = matrix_elements(model.identity(), grown, sparse_apply(h, grown))
    assert np.allclose(applied, want, rtol=0, atol=1e-13)
    norms = [p.norm() ** 2 for p in out]
    assert np.allclose(squared_norms(grown), norms, rtol=0, atol=1e-13)


def matches_oracle(bra, ket, shift):
    """The intersect1d route: the moved ket keys and the bra's, sorted
    together for every shift."""
    moved = sparse_mod._shift_rows(ket.group, ket.digits.copy(), shift)
    _, i, j = np.intersect1d(row_keys(moved), row_keys(bra.digits), assume_unique=True,
                             return_indices=True)
    return i, j


@pytest.mark.parametrize("orders", [[2], [3]], ids=["Z2", "Z3"])
def test_shift_matches_equal_the_intersect1d_route(orders):
    # 300 parts over one pool of rows: two label bytes
    group = make_group(orders)
    space, q = QuantumDouble(group, Region.free(3, 3)).space, group.size
    rng = np.random.default_rng(29)
    ket = stack(stack_parts(space, rng))
    assert ket.digits.shape[1] == space.num_edges + 2
    # the bra holds part of the ket's rows and part of their images under moved
    moved = ((0, 1), (4, q - 1))
    rows = np.concatenate([ket.digits, sparse_mod._shift_rows(group, ket.digits.copy(), moved)])
    keep = rng.random(len(rows)) < 0.6
    bra = SparseState(group, space.num_edges, rows[keep], rng.standard_normal(keep.sum()),
                      n_parts=ket.n_parts)
    # edge 0 at 0 in every row of both: a shift of edge 0 matches no row
    pinned = ket.digits.copy()
    pinned[:, 0] = 0
    flat = SparseState(group, space.num_edges, pinned, rng.standard_normal(len(pinned)),
                       n_parts=ket.n_parts)
    empty = SparseState(group, space.num_edges, ket.digits[:0], [], n_parts=ket.n_parts)
    shifts = [(), moved, ((0, 1),), ((7, 1), (11, q - 1))]
    pairs = [(bra, ket), (ket, bra), (ket, ket), (flat, flat), (flat, ket), (empty, ket),
             (ket, empty)]
    for b, k in pairs:
        keys = sorted_keys(b)
        for shift in shifts:
            if b is k and not shift:
                assert shift_matches(b, k, shift) == (slice(None), slice(None))
                continue
            want = matches_oracle(b, k, shift)
            for got in (shift_matches(b, k, shift), shift_matches(b, k, shift, keys)):
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
    assert len(matches_oracle(bra, ket, moved)[0]) > 0
    assert len(matches_oracle(flat, flat, ((0, 1),))[0]) == 0


def test_stack_matrix_columns_are_the_parts():
    model = QuantumDouble(make_group([3]), Region.free(2, 3))
    space, st = model.space, stack(stack_parts(model.space, np.random.default_rng(31), 40))
    m = stack_matrix(st, space, np.complex128)
    assert m.format == "csc" and m.dtype == np.complex128 and m.shape == (space.dim, 40)
    assert m.nnz == st.n_configs
    for col, (_, part) in enumerate(StateFunctional(model, st, np.ones(40)).parts):
        assert np.array_equal(m[:, [col]].toarray().ravel(), part.to_dense(space))
    with pytest.raises(ValueError, match="complex amplitudes"):
        stack_matrix(st, space, np.float64)
    real = stack_matrix(scale_parts(st, np.zeros(40)), space, np.float64)
    assert real.dtype == np.float64 and real.nnz == st.n_configs


def kernel_family_oracle(model):
    """The triple loop: every ground part, then each boundary-routed charge
    strip or none, then each flux strip or none, one vector at a time."""
    region, q = model.region, model.group.size
    sites = [region.site(v, f) for v in region.interior_vertices()
             for f in region.quadrant_faces(v).values()]
    charge = [None] + [model.ribbon_char(ribbon_to_boundary(region, s), chi, 0)
                       for s in sites for chi in range(1, q)]
    flux = [None] + [model.ribbon_char(ribbon_to_boundary(region, s), 0, c)
                     for s in sites for c in range(1, q)]
    for _, vec in frustration_free_state(model, "uniform-mixture").parts:
        for a, b in itertools.product(charge, flux):
            out = vec if a is None else sparse_apply(a, vec)
            yield out if b is None else sparse_apply(b, out)


def test_kernel_family_matches_the_triple_loop(monkeypatch):
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    ctx = verify_mod._Ctx(model)
    mixture = ctx.mixture
    calls = count_applies(monkeypatch, sparse_mod)
    family, sectors = verify_mod._kernel_family(ctx, mixture.stack)
    n = len(sectors)
    assert len(calls) == 4 + 4  # one application per charge and per flux strip
    monkeypatch.undo()
    cols = stack_matrix(family, model.space, np.complex128).toarray()
    oracle = kernel_family_oracle(model)
    for k, vec in enumerate(oracle):
        assert np.array_equal(cols[:, k], vec.to_dense(model.space))
    assert k + 1 == n == 128 * 5 * 5


def test_kernel_span_check_applies_each_strip_once(monkeypatch):
    # Z3 free:3x3: every strip once to all 2,187 ground parts, then H once
    ctx = verify_mod._Ctx(QuantumDouble(make_group([3]), Region.free(3, 3)))
    calls = count_applies(monkeypatch, sparse_mod, verify_mod)
    assert verify_mod._run_one("boundary-hamiltonian.kernel-span", ctx).passed is True
    n_strips = 4 * (3 - 1)
    assert len(calls) == n_strips + n_strips + 1


def test_sparse_apply_refuses_before_allocating(monkeypatch):
    # the Z3 free:3x3 mixture has 6,561 rows: its image under the 7 terms of
    # H^{eps,mu} is stated at about 5 MB before any term is applied
    model = QuantumDouble(make_group([3]), Region.free(3, 3))
    mixture = frustration_free_state(model, "uniform-mixture")
    h = model.hamiltonian(boundary="eps_mu")
    monkeypatch.setattr(sparse_mod, "PHYSICAL_MEMORY_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match="sparse apply bytes"):
            sparse_apply(h, mixture.stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def conditional_oracle(state, chi, c):
    """The per-part loop: project, renormalize and reweigh each part."""
    d = state.model.sector_projector(chi, c)
    parts, lam = [], 0.0
    for w, s in state.parts:
        proj = sparse_apply(d, s)
        n2 = proj.norm() ** 2
        if n2 > 0:
            parts.append((w * n2, proj.scaled(1.0 / np.sqrt(n2))))
            lam += w * n2
    return [(w / lam, s) for w, s in parts], lam


@pytest.mark.parametrize("sector", [(0, 0), (1, 1)], ids=["ground", "excited"])
def test_conditional_state_matches_the_per_part_loop(monkeypatch, sector):
    # Z2 free:3x4: the uniform mixture has 512 parts
    group, region = make_group([2]), Region.free(3, 4)
    model = QuantumDouble(group, region)
    site = region.site((1, 1), (1, 1))
    state = mix([(frustration_free_state(model, "uniform-mixture"), 0.5),
                 (frustration_free_state(model, "vector-seed"), 0.25),
                 (single_excitation_state(model, site, 1, 1), 0.25)])
    want, lam = conditional_oracle(state, *sector)
    calls = count_applies(monkeypatch, states_mod, sparse_mod)
    cond = conditional_sector_state(state, *sector)
    assert len(calls) == 1
    monkeypatch.undo()
    assert abs(sector_weights(state)[sector] - lam) < 1e-13
    assert len(cond.parts) == len(want) == (513 if sector == (0, 0) else 1)
    for (w, s), (w0, s0) in zip(cond.parts, want):
        assert abs(w - w0) < 1e-13
        assert np.array_equal(s.digits, s0.digits)
        assert np.max(np.abs(s.amps - s0.amps)) < 1e-13


def test_matrix_elements_refuse_before_any_diagonal(monkeypatch):
    # 16 bytes a row per shift plus 64, and five row widths
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    state, h = frustration_free_state(model, "uniform-mixture"), model.hamiltonian()
    n_shifts = len({t.shift for t in h.terms})
    need = state.stack.n_configs * (16 * (n_shifts + 4) + 5 * state.stack.digits.shape[1])
    monkeypatch.setattr(sparse_mod, "PHYSICAL_MEMORY_BYTES", need)
    assert abs(state.expect(h)) < 1e-12

    def no_diagonal(*args):
        raise AssertionError("a diagonal was built before refusing")

    monkeypatch.setattr(sparse_mod, "PHYSICAL_MEMORY_BYTES", need - 1)
    monkeypatch.setattr(sparse_mod, "shift_diagonals", no_diagonal)
    with pytest.raises(DimensionCapError, match="matrix element bytes"):
        state.expect(h)
