import pytest

import qdouble.lattice as lattice_mod
from qdouble.lattice import (
    Region,
    RibbonError,
    Site,
    boundary_ribbon,
    concat_ribbons,
    crossing_pair,
    direct_ribbon,
    dual_ribbon,
    face_direct_loop,
    parse_region_spec,
    ribbon_between,
    ribbon_to_boundary,
    vertex_dual_loop,
)


def test_free_region_counts():
    r = Region.free(3, 3)
    assert r.num_edges == 12
    assert len(r.vertices()) == 9
    assert r.interior_vertices() == [(1, 1)]
    assert len(r.faces()) == 4


def test_free_region_counts_rectangular():
    r = Region.free(3, 4)
    assert r.num_edges == 2 * 4 + 3 * 3
    assert r.interior_vertices() == [(1, 1), (1, 2)]
    assert len(r.faces()) == 2 * 3


def test_torus_region_counts():
    r = Region.torus(2, 2)
    assert r.num_edges == 8
    assert len(r.vertices()) == 4
    assert r.interior_vertices() == r.vertices()
    assert len(r.faces()) == 4


def test_edge_ids_roundtrip():
    for r in [Region.free(3, 4), Region.free(4, 3), Region.torus(3, 2)]:
        for eid in range(r.num_edges):
            assert r.edge_id(r.edge_tuple(eid)) == eid
        seen = {r.edge_tuple(eid) for eid in range(r.num_edges)}
        assert len(seen) == r.num_edges


def test_edge_existence_free():
    r = Region.free(3, 3)
    assert r.edge_exists(("h", 0, 0))
    assert r.edge_exists(("h", 1, 2))
    assert not r.edge_exists(("h", 2, 0))
    assert r.edge_exists(("v", 2, 1))
    assert not r.edge_exists(("v", 0, 2))
    with pytest.raises(RibbonError):
        r.edge_id(("h", 2, 0))


def test_torus_wrapping():
    r = Region.torus(2, 3)
    assert r.wrap_edge(("h", 2, 3)) == ("h", 0, 0)
    assert r.edge_id(("h", -1, 0)) == r.edge_id(("h", 1, 0))
    assert r.wrap_vertex((2, -1)) == (0, 2)
    assert r.wrap_face((-1, 3)) == (1, 0)


def test_face_boundary_signs():
    r = Region.free(3, 3)
    bdry = dict(r.face_boundary((0, 0)))
    assert bdry[("h", 0, 0)] == +1
    assert bdry[("v", 1, 0)] == +1
    assert bdry[("h", 0, 1)] == -1
    assert bdry[("v", 0, 0)] == -1


def test_star_edges_interior_and_boundary():
    r = Region.free(3, 3)
    star = dict(
        (r.edge_tuple(eid), s) for eid, s in r.star_edges((1, 1))
    )
    assert star == {
        ("h", 1, 1): +1,
        ("v", 1, 1): +1,
        ("h", 0, 1): -1,
        ("v", 1, 0): -1,
    }
    # corner vertex keeps only its two existing edges
    corner = dict((r.edge_tuple(eid), s) for eid, s in r.star_edges((0, 0)))
    assert corner == {("h", 0, 0): +1, ("v", 0, 0): +1}


def test_every_edge_sits_in_two_faces_with_opposite_signs():
    r = Region.torus(3, 3)
    for e in r.edges():
        plus, minus = r.faces_of_edge(e)
        assert r.sign_in_face(plus, e) == +1
        assert r.sign_in_face(minus, e) == -1


def test_quadrants():
    r = Region.free(4, 4)
    quads = r.quadrant_faces((2, 2))
    assert quads == {"NE": (2, 2), "NW": (1, 2), "SW": (1, 1), "SE": (2, 1)}
    assert r.quadrant_of((2, 2), (1, 1)) == "SW"
    with pytest.raises(RibbonError):
        r.quadrant_of((2, 2), (0, 0))


def test_parse_region_spec():
    assert parse_region_spec("free:3x3") == Region.free(3, 3)
    assert parse_region_spec("torus:2x2") == Region.torus(2, 2)
    assert parse_region_spec("FREE:4x3") == Region.free(4, 3)
    assert parse_region_spec("lambda:2") == Region.free(5, 5)
    for bad in ["", "free", "free:3", "free:3x", "grid:3x3", "free:1x3", "lambda:0"]:
        with pytest.raises(RibbonError):
            parse_region_spec(bad)


def test_direct_and_dual_single_triangles():
    r = Region.free(3, 3)
    rib = direct_ribbon(r, ("h", 0, 0))
    (tri,) = rib.triangles
    assert tri.kind == "direct" and tri.sign == +1
    assert rib.start.vertex == (0, 0) and rib.end.vertex == (1, 0)
    assert rib.start.face == rib.end.face == (0, 0)

    rib = dual_ribbon(r, ("v", 1, 1))
    (tri,) = rib.triangles
    assert tri.kind == "dual" and tri.sign == +1
    assert rib.start == Site((1, 1), (0, 1))
    assert rib.end == Site((1, 1), (1, 1))


def test_reverse_flips_signs_and_swaps_ends():
    r = Region.free(4, 4)
    rib = ribbon_between(r, r.site((1, 1), (0, 0)), r.site((2, 2), (2, 2)))
    rev = rib.reversed()
    assert rev.start == rib.end and rev.end == rib.start
    assert [t.sign for t in rev.triangles] == [-t.sign for t in reversed(rib.triangles)]
    assert sorted(rev.edge_ids()) == sorted(rib.edge_ids())


def test_ribbon_between_routes_are_valid_and_distinct():
    r = Region.free(4, 4)
    s0, s1 = r.site((1, 1), (0, 0)), r.site((2, 2), (2, 2))
    xy = ribbon_between(r, s0, s1, order="xy")
    yx = ribbon_between(r, s0, s1, order="yx")
    assert xy.start == yx.start == s0
    assert xy.end == yx.end == s1
    assert set(xy.edge_ids()) != set(yx.edge_ids())
    # the two routes close up into one valid loop
    loop = concat_ribbons(xy, yx.reversed())
    assert loop.is_closed


def test_ribbon_between_straight_up_has_interior_endpoints():
    r = Region.free(3, 4)
    s0, s1 = r.site((1, 1), (0, 0)), r.site((1, 2), (0, 2))
    rib = ribbon_between(r, s0, s1, order="yx")
    assert rib.start == s0 and rib.end == s1
    kinds = [t.kind for t in rib.triangles]
    assert kinds.count("direct") == 1
    assert all(r.face_in_region(s.face) for s in (rib.start, rib.end))


def test_ribbon_to_boundary_ends_outside():
    r = Region.free(3, 3)
    rib = ribbon_to_boundary(r, r.site((1, 1), (1, 1)))
    assert rib.start == Site((1, 1), (1, 1))
    vx, vy = rib.end.vertex
    assert vx in (0, 2) or vy in (0, 2)
    assert not r.face_in_region(rib.end.face)


def test_ribbon_to_boundary_direction_override():
    r = Region.free(4, 4)
    rib = ribbon_to_boundary(r, r.site((1, 2), (1, 2)), direction=(0, -1))
    assert rib.end.vertex == (1, 0)
    assert not r.face_in_region(rib.end.face)


@pytest.mark.parametrize("direction", [(2, 0), (1, 1), "x"])
def test_ribbon_to_boundary_refuses_a_bad_direction_before_walking(monkeypatch, direction):
    def no_walk(*args):
        raise AssertionError("walked before checking the direction")

    monkeypatch.setattr(lattice_mod, "_Walker", no_walk)
    r = Region.free(3, 3)
    with pytest.raises(RibbonError, match=r"one of the steps \[\(1, 0\), \(0, 1\), \(-1, 0\), "
                                          r"\(0, -1\)\]"):
        ribbon_to_boundary(r, r.site((1, 1), (1, 1)), direction)


def test_boundary_ribbon_structure():
    r = Region.free(3, 3)
    rib = boundary_ribbon(r)
    assert rib.is_closed
    assert len(rib) == 12
    direct = {r.edge_tuple(e) for e, _ in rib.direct_part()}
    dual = {r.edge_tuple(e) for e, _ in rib.dual_part()}
    assert direct == {
        ("h", 0, 0), ("h", 1, 0), ("v", 2, 0), ("v", 2, 1),
        ("h", 1, 2), ("h", 0, 2), ("v", 0, 1), ("v", 0, 0),
    }
    # crossed edges are exactly the star edges of the interior vertex
    assert dual == {("v", 1, 0), ("h", 1, 1), ("v", 1, 1), ("h", 0, 1)}


def test_boundary_ribbon_crosses_interior_to_boundary_edges():
    r = Region.free(4, 5)
    rib = boundary_ribbon(r)
    assert rib.is_closed
    interior = set(r.interior_vertices())
    expected = set()
    for e in r.edges():
        a, b = r.edge_endpoints(e)
        if (a in interior) != (b in interior):
            expected.add(e)
    assert {r.edge_tuple(eid) for eid, _ in rib.dual_part()} == expected


def test_crossing_pair_geometry():
    r = Region.free(3, 3)
    rho, sigma = crossing_pair(r)
    assert [(t.kind, r.edge_tuple(t.edge), t.sign) for t in rho.triangles] == [
        ("direct", ("v", 1, 1), -1),
        ("dual", ("h", 0, 1), +1),
        ("direct", ("v", 1, 0), -1),
    ]
    assert [(t.kind, r.edge_tuple(t.edge), t.sign) for t in sigma.triangles] == [
        ("direct", ("h", 0, 1), +1),
        ("dual", ("v", 1, 0), +1),
        ("direct", ("h", 1, 1), +1),
    ]
    # each ribbon's dual edge lies on the other's direct path
    assert dict(rho.dual_part()).keys() <= {e for e, _ in sigma.direct_part()}
    assert dict(sigma.dual_part()).keys() <= {e for e, _ in rho.direct_part()}


def test_vertex_dual_loop_matches_star():
    r = Region.free(3, 3)
    loop = vertex_dual_loop(r, (1, 1))
    assert loop.is_closed and len(loop) == 4
    star = {eid for eid, _ in r.star_edges((1, 1))}
    assert set(loop.edge_ids()) == star
    # shifts: +1 on incoming star edges, -1 on outgoing ones
    star_sign = dict(r.star_edges((1, 1)))
    for eid, s in loop.dual_part():
        assert s == -star_sign[eid]


def test_face_direct_loop_matches_face_boundary():
    r = Region.torus(3, 3)
    loop = face_direct_loop(r, (1, 1))
    assert loop.is_closed and len(loop) == 4
    assert dict(loop.direct_part()) == dict(r.face_boundary_ids((1, 1)))


def test_ribbon_validity_rules():
    r = Region.free(3, 3)
    rib = direct_ribbon(r, ("h", 0, 0))
    with pytest.raises(RibbonError):
        concat_ribbons(rib, rib)  # repeats the edge
    with pytest.raises(RibbonError):
        ribbon_between(r, r.site((1, 1), (1, 1)), r.site((1, 1), (1, 1)))


def test_concat_requires_matching_sites():
    r = Region.free(4, 4)
    a = direct_ribbon(r, ("h", 0, 0))
    b = direct_ribbon(r, ("h", 2, 3))
    with pytest.raises(RibbonError):
        concat_ribbons(a, b)
