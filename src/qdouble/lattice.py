"""Finite square lattices, their cells, and ribbon geometry.

Two region kinds are supported: ``free`` (an m x n rectangle of vertices with
open boundary) and ``torus`` (periodic in both directions).  Conventions,
fixed once and used everywhere:

* vertices are integer pairs (i, j);
* ``h(i, j)`` is the edge from (i, j) to (i+1, j), oriented rightward;
* ``v(i, j)`` is the edge from (i, j) to (i, j+1), oriented upward;
* face f(i, j) has corners (i, j), (i+1, j), (i, j+1), (i+1, j+1); its
  counterclockwise boundary is +h(i, j), +v(i+1, j), -h(i, j+1), -v(i, j);
* the star of vertex (x, y) consists of outgoing h(x, y), v(x, y) and
  incoming h(x-1, y), v(x, y-1).

On a free region the Hamiltonian sums stars only over interior vertices
(all four star edges present) and plaquettes over the real faces.  Sites,
i.e. (vertex, face) pairs used as ribbon endpoints, may also use the ring
of fictitious faces circumscribing a free region; those faces carry no
plaquette term, which is what lets a ribbon terminate on the boundary
without creating flux there.

A ribbon is a chain of triangles.  A direct triangle traverses an edge
between two sites sharing a face and carries the sign eps = +1 when the
traversal agrees with the edge orientation.  A dual triangle crosses an
edge between the two faces adjacent to it, pivoting around a shared
vertex, and carries the counterclockwise sign of the crossed edge in the
face being exited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "Region",
    "Site",
    "Triangle",
    "Ribbon",
    "RibbonError",
    "parse_region_spec",
    "ribbon_between",
    "ribbon_to_boundary",
    "boundary_ribbon",
    "crossing_pair",
    "direct_ribbon",
    "dual_ribbon",
    "vertex_dual_loop",
    "face_direct_loop",
    "concat_ribbons",
]


class RibbonError(ValueError):
    """Raised when a requested ribbon cannot be realized on the region."""


class Site(NamedTuple):
    """A ribbon endpoint: a vertex together with an adjacent face."""

    vertex: tuple[int, int]
    face: tuple[int, int]


class Triangle(NamedTuple):
    kind: str  # 'direct' or 'dual'
    edge: int
    sign: int  # direct: traversal vs. orientation; dual: CCW sign in exited face
    s0: Site
    s1: Site


# quadrant faces of vertex (x, y), listed counterclockwise starting east of north
_QUADRANTS = ("NE", "NW", "SW", "SE")


@dataclass(frozen=True)
class Region:
    """A finite patch of the square lattice, free or periodic."""

    kind: str
    m: int
    n: int

    def __post_init__(self):
        if self.kind not in ("free", "torus"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.m < 2 or self.n < 2:
            raise ValueError("regions need at least 2 vertices per direction")

    @staticmethod
    def free(m: int, n: int) -> "Region":
        return Region("free", m, n)

    @staticmethod
    def torus(m: int, n: int) -> "Region":
        return Region("torus", m, n)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.m}x{self.n}"

    # ---- vertices ----

    def wrap_vertex(self, v) -> tuple[int, int]:
        x, y = v
        if self.is_torus:
            return (x % self.m, y % self.n)
        return (x, y)

    def vertex_exists(self, v) -> bool:
        if self.is_torus:
            return True
        x, y = v
        return 0 <= x < self.m and 0 <= y < self.n

    def vertices(self) -> list[tuple[int, int]]:
        return [(i, j) for j in range(self.n) for i in range(self.m)]

    def interior_vertices(self) -> list[tuple[int, int]]:
        """Vertices whose full star lies in the region; these carry star terms."""
        if self.is_torus:
            return self.vertices()
        return [
            (i, j)
            for j in range(1, self.n - 1)
            for i in range(1, self.m - 1)
        ]

    # ---- edges ----

    def wrap_edge(self, e) -> tuple[str, int, int]:
        kind, i, j = e
        if self.is_torus:
            return (kind, i % self.m, j % self.n)
        return (kind, i, j)

    def edge_exists(self, e) -> bool:
        kind, i, j = e
        if self.is_torus:
            return True
        if kind == "h":
            return 0 <= i < self.m - 1 and 0 <= j < self.n
        return 0 <= i < self.m and 0 <= j < self.n - 1

    @property
    def num_edges(self) -> int:
        if self.is_torus:
            return 2 * self.m * self.n
        return (self.m - 1) * self.n + self.m * (self.n - 1)

    def edge_id(self, e) -> int:
        kind, i, j = self.wrap_edge(e)
        if not self.edge_exists((kind, i, j)):
            raise RibbonError(f"edge {e} not in region {self.spec}")
        if self.is_torus:
            base = 0 if kind == "h" else self.m * self.n
            return base + j * self.m + i
        if kind == "h":
            return j * (self.m - 1) + i
        return (self.m - 1) * self.n + j * self.m + i

    def edge_tuple(self, eid: int) -> tuple[str, int, int]:
        if self.is_torus:
            area = self.m * self.n
            kind = "h" if eid < area else "v"
            r = eid if eid < area else eid - area
            return (kind, r % self.m, r // self.m)
        num_h = (self.m - 1) * self.n
        if eid < num_h:
            return ("h", eid % (self.m - 1), eid // (self.m - 1))
        r = eid - num_h
        return ("v", r % self.m, r // self.m)

    def edges(self) -> list[tuple[str, int, int]]:
        return [self.edge_tuple(i) for i in range(self.num_edges)]

    def edge_endpoints(self, e) -> tuple[tuple[int, int], tuple[int, int]]:
        kind, i, j = e
        if kind == "h":
            return self.wrap_vertex((i, j)), self.wrap_vertex((i + 1, j))
        return self.wrap_vertex((i, j)), self.wrap_vertex((i, j + 1))

    # ---- faces ----

    def wrap_face(self, f) -> tuple[int, int]:
        x, y = f
        if self.is_torus:
            return (x % self.m, y % self.n)
        return (x, y)

    def face_in_region(self, f) -> bool:
        """Whether f carries a plaquette term."""
        if self.is_torus:
            return True
        x, y = f
        return 0 <= x < self.m - 1 and 0 <= y < self.n - 1

    def face_exists(self, f) -> bool:
        """Real faces plus, on free regions, the circumscribing fictitious ring."""
        if self.is_torus:
            return True
        x, y = f
        return -1 <= x <= self.m - 1 and -1 <= y <= self.n - 1

    def faces(self) -> list[tuple[int, int]]:
        if self.is_torus:
            return [(i, j) for j in range(self.n) for i in range(self.m)]
        return [(i, j) for j in range(self.n - 1) for i in range(self.m - 1)]

    def face_boundary(self, f) -> list[tuple[tuple[str, int, int], int]]:
        """CCW boundary of f as (edge, sign) pairs; edges may be fictitious
        on free regions when f is an outside face."""
        x, y = f
        return [
            (self.wrap_edge(("h", x, y)), +1),
            (self.wrap_edge(("v", x + 1, y)), +1),
            (self.wrap_edge(("h", x, y + 1)), -1),
            (self.wrap_edge(("v", x, y)), -1),
        ]

    def face_boundary_ids(self, f) -> list[tuple[int, int]]:
        out = []
        for e, s in self.face_boundary(f):
            if not self.edge_exists(e):
                raise RibbonError(f"face {f} has boundary edge {e} outside {self.spec}")
            out.append((self.edge_id(e), s))
        return out

    def sign_in_face(self, f, e) -> int:
        e = self.wrap_edge(e)
        for be, s in self.face_boundary(f):
            if be == e:
                return s
        raise RibbonError(f"edge {e} is not on the boundary of face {f}")

    def faces_of_edge(self, e) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two adjacent faces, (sign +1 face, sign -1 face) in CCW terms."""
        kind, i, j = e
        if kind == "h":
            plus, minus = (i, j), (i, j - 1)
        else:
            plus, minus = (i - 1, j), (i, j)
        return self.wrap_face(plus), self.wrap_face(minus)

    # ---- stars and quadrants ----

    def star_edges(self, v) -> list[tuple[int, int]]:
        """Star of v as (edge_id, sign) pairs with sign +1 outgoing, -1 incoming.
        On free regions only the existing edges are returned."""
        x, y = v
        raw = [
            (("h", x, y), +1),
            (("v", x, y), +1),
            (("h", x - 1, y), -1),
            (("v", x, y - 1), -1),
        ]
        out = []
        for e, s in raw:
            e = self.wrap_edge(e)
            if self.edge_exists(e):
                out.append((self.edge_id(e), s))
        return out

    def has_full_star(self, v) -> bool:
        return len(self.star_edges(v)) == 4

    def quadrant_faces(self, v) -> dict[str, tuple[int, int]]:
        x, y = v
        return {
            "NE": self.wrap_face((x, y)),
            "NW": self.wrap_face((x - 1, y)),
            "SW": self.wrap_face((x - 1, y - 1)),
            "SE": self.wrap_face((x, y - 1)),
        }

    def quadrant_of(self, v, f) -> str:
        f = self.wrap_face(f)
        for q, qf in self.quadrant_faces(v).items():
            if qf == f:
                return q
        raise RibbonError(f"face {f} is not adjacent to vertex {v}")

    def rotation_edge(self, v, q_from: str, q_to: str) -> tuple[str, int, int]:
        """The edge crossed when pivoting around v between adjacent quadrants."""
        x, y = v
        crossings = {
            frozenset(("NE", "NW")): ("v", x, y),
            frozenset(("NW", "SW")): ("h", x - 1, y),
            frozenset(("SW", "SE")): ("v", x, y - 1),
            frozenset(("SE", "NE")): ("h", x, y),
        }
        key = frozenset((q_from, q_to))
        if key not in crossings:
            raise RibbonError(f"quadrants {q_from}, {q_to} are not adjacent")
        return self.wrap_edge(crossings[key])

    def site(self, vertex, face) -> Site:
        vertex = self.wrap_vertex(tuple(vertex))
        face = self.wrap_face(tuple(face))
        if not self.vertex_exists(vertex):
            raise RibbonError(f"vertex {vertex} not in region {self.spec}")
        if not self.face_exists(face):
            raise RibbonError(f"face {face} not available in region {self.spec}")
        self.quadrant_of(vertex, face)  # adjacency check
        return Site(vertex, face)

    def __str__(self) -> str:
        return self.spec


def parse_region_spec(spec: str) -> Region:
    """Parse ``free:MxN``, ``torus:MxN``, or ``lambda:L`` (a centered square
    of radius L, i.e. free (2L+1)x(2L+1))."""
    s = spec.strip().lower()
    try:
        kind, rest = s.split(":", 1)
    except ValueError:
        raise RibbonError(f"malformed region spec {spec!r}") from None
    if kind == "lambda":
        if not rest.isdigit() or int(rest) < 1:
            raise RibbonError(f"malformed region spec {spec!r}")
        side = 2 * int(rest) + 1
        return Region.free(side, side)
    if kind not in ("free", "torus"):
        raise RibbonError(f"unknown region kind in {spec!r}")
    parts = rest.split("x")
    if len(parts) != 2 or not all(p.isdigit() and p for p in parts):
        raise RibbonError(f"malformed region spec {spec!r}")
    m, n = int(parts[0]), int(parts[1])
    if m < 2 or n < 2:
        raise RibbonError(f"region {spec!r} too small; need at least 2x2")
    return Region(kind, m, n)


@dataclass(frozen=True)
class Ribbon:
    """A chain of triangles with matching consecutive sites."""

    region: Region
    triangles: tuple[Triangle, ...]

    def __post_init__(self):
        self.validate()

    @property
    def start(self) -> Site:
        return self.triangles[0].s0

    @property
    def end(self) -> Site:
        return self.triangles[-1].s1

    @property
    def is_closed(self) -> bool:
        return self.start == self.end

    def sites(self) -> list[Site]:
        out = [self.triangles[0].s0]
        out.extend(t.s1 for t in self.triangles)
        return out

    def edge_ids(self) -> list[int]:
        return [t.edge for t in self.triangles]

    def direct_part(self) -> list[tuple[int, int]]:
        """(edge_id, eps) for the direct triangles, in ribbon order."""
        return [(t.edge, t.sign) for t in self.triangles if t.kind == "direct"]

    def dual_part(self) -> list[tuple[int, int]]:
        """(edge_id, exit sign) for the dual triangles, in ribbon order."""
        return [(t.edge, t.sign) for t in self.triangles if t.kind == "dual"]

    def validate(self):
        if not self.triangles:
            raise RibbonError("empty ribbon")
        for t in self.triangles:
            if t.kind not in ("direct", "dual"):
                raise RibbonError(f"bad triangle kind {t.kind!r}")
            if t.sign not in (-1, +1):
                raise RibbonError("triangle sign must be +1 or -1")
            if not (0 <= t.edge < self.region.num_edges):
                raise RibbonError(f"edge id {t.edge} out of range")
        for a, b in zip(self.triangles, self.triangles[1:]):
            if a.s1 != b.s0:
                raise RibbonError(f"triangle chain breaks between {a} and {b}")
        eids = self.edge_ids()
        if len(set(eids)) != len(eids):
            raise RibbonError("ribbon repeats an edge")
        sites = self.sites()
        interior = sites if sites[0] != sites[-1] else sites[:-1]
        if len(set(interior)) != len(interior):
            raise RibbonError("ribbon revisits a site")

    def reversed(self) -> "Ribbon":
        """Same strip walked backwards; direct signs flip, and each dual
        sign flips because the exited face becomes the entered one."""
        rev = tuple(
            Triangle(t.kind, t.edge, -t.sign, t.s1, t.s0)
            for t in reversed(self.triangles)
        )
        return Ribbon(self.region, rev)

    def __len__(self) -> int:
        return len(self.triangles)


def concat_ribbons(first: Ribbon, second: Ribbon) -> Ribbon:
    if first.region != second.region:
        raise RibbonError("cannot concatenate ribbons on different regions")
    if first.end != second.start:
        raise RibbonError(
            f"ribbon ends at {first.end} but continuation starts at {second.start}"
        )
    return Ribbon(first.region, first.triangles + second.triangles)


# ---------------------------------------------------------------------------
# ribbon construction


@dataclass
class _Walker:
    """Incremental ribbon builder tracking used edges and visited sites."""

    region: Region
    site: Site
    triangles: list[Triangle] = field(default_factory=list)
    used_edges: set[int] = field(default_factory=set)
    visited: set[Site] = field(default_factory=set)

    def __post_init__(self):
        self.visited.add(self.site)

    def _push(self, tri: Triangle):
        if tri.edge in self.used_edges:
            raise RibbonError(f"edge {self.region.edge_tuple(tri.edge)} already used")
        start = self.triangles[0].s0 if self.triangles else self.site
        if tri.s1 in self.visited and tri.s1 != start:
            raise RibbonError(f"site {tri.s1} already visited")
        self.triangles.append(tri)
        self.used_edges.add(tri.edge)
        self.visited.add(tri.s1)
        self.site = tri.s1

    def dual_step(self, edge) -> None:
        """Cross `edge` out of the current face into the other adjacent face."""
        region = self.region
        edge = region.wrap_edge(edge)
        if not region.edge_exists(edge):
            raise RibbonError(f"edge {edge} not in region")
        v, f0 = self.site
        plus, minus = region.faces_of_edge(edge)
        if f0 == plus:
            f1, s = minus, +1
        elif f0 == minus:
            f1, s = plus, -1
        else:
            raise RibbonError(f"edge {edge} is not adjacent to face {f0}")
        if v not in region.edge_endpoints(edge):
            raise RibbonError(f"edge {edge} does not touch vertex {v}")
        region.quadrant_of(v, f1)
        self._push(Triangle("dual", region.edge_id(edge), s, self.site, Site(v, f1)))

    def direct_step(self, edge) -> None:
        """Traverse `edge` from the current vertex, keeping the current face."""
        region = self.region
        edge = region.wrap_edge(edge)
        if not region.edge_exists(edge):
            raise RibbonError(f"edge {edge} not in region")
        v, f = self.site
        tail, head = region.edge_endpoints(edge)
        if v == tail:
            w, eps = head, +1
        elif v == head:
            w, eps = tail, -1
        else:
            raise RibbonError(f"edge {edge} does not start at vertex {v}")
        region.sign_in_face(f, edge)  # the edge must border the carried face
        self._push(Triangle("direct", region.edge_id(edge), eps, self.site, Site(w, f)))

    def rotation_plans(self, target_face, forbidden_edges=()):
        """Dual-step sequences pivoting the current face to `target_face`,
        shortest first, skipping plans that reuse or cross forbidden edges."""
        region = self.region
        v = self.site.vertex
        quads = region.quadrant_faces(v)
        target_face = region.wrap_face(target_face)
        q_from = region.quadrant_of(v, self.site.face)
        q_to = region.quadrant_of(v, target_face)
        if q_from == q_to:
            return [[]]
        i0, i1 = _QUADRANTS.index(q_from), _QUADRANTS.index(q_to)
        plans = []
        for step in (+1, -1):  # +1 walks the CCW quadrant cycle
            seq, i = [], i0
            ok = True
            seen = {self.site.face}
            while i != i1:
                j = (i + step) % 4
                e = region.rotation_edge(v, _QUADRANTS[i], _QUADRANTS[j])
                nf = quads[_QUADRANTS[j]]
                if (
                    not region.edge_exists(e)
                    or region.edge_id(e) in self.used_edges
                    or e in [region.wrap_edge(fe) for fe in forbidden_edges]
                    or not region.face_exists(nf)
                    or Site(v, nf) in self.visited
                    or nf in seen
                ):
                    ok = False
                    break
                seq.append(e)
                seen.add(nf)
                i = j
            if ok:
                plans.append(seq)
        plans.sort(key=len)
        return plans

    def rotate_to(self, target_face, forbidden_edges=()) -> None:
        plans = self.rotation_plans(target_face, forbidden_edges)
        if not plans:
            raise RibbonError(
                f"cannot pivot from {self.site} to face {tuple(target_face)}"
            )
        for e in plans[0]:
            self.dual_step(e)

    def advance(self, direction) -> None:
        """One unit of travel in `direction`, pivoting onto a usable lane first.

        Lanes are the two faces flanking the edge about to be traversed;
        the first listed is preferred (south of horizontal travel, west of
        vertical travel).
        """
        region = self.region
        x, y = self.site.vertex
        dx, dy = direction
        if (dx, dy) == (1, 0):
            edge, lanes = ("h", x, y), [(x, y - 1), (x, y)]
        elif (dx, dy) == (-1, 0):
            edge, lanes = ("h", x - 1, y), [(x - 1, y - 1), (x - 1, y)]
        elif (dx, dy) == (0, 1):
            edge, lanes = ("v", x, y), [(x - 1, y), (x, y)]
        elif (dx, dy) == (0, -1):
            edge, lanes = ("v", x, y - 1), [(x - 1, y - 1), (x, y - 1)]
        else:
            raise RibbonError(f"bad direction {direction}")
        edge = region.wrap_edge(edge)
        if not region.edge_exists(edge) or region.edge_id(edge) in self.used_edges:
            raise RibbonError(f"cannot travel {direction} from {self.site}")
        options = []
        for rank, lane in enumerate(lanes):
            lane = region.wrap_face(lane)
            if not region.face_exists(lane):
                continue
            plans = self.rotation_plans(lane, forbidden_edges=[edge])
            if plans:
                options.append((len(plans[0]), rank, plans[0]))
        if not options:
            raise RibbonError(f"no usable lane to travel {direction} from {self.site}")
        options.sort(key=lambda o: (o[0], o[1]))
        for e in options[0][2]:
            self.dual_step(e)
        self.direct_step(edge)

    def finish(self) -> Ribbon:
        return Ribbon(self.region, tuple(self.triangles))


def ribbon_between(region: Region, s0: Site, s1: Site, order: str = "xy") -> Ribbon:
    """A ribbon from site s0 to site s1 along an L-shaped route.

    ``order='xy'`` travels horizontally first, ``'yx'`` vertically first.
    On a torus each leg takes the shortest wraparound (ties resolve to the
    positive direction).
    """
    s0, s1 = region.site(*s0), region.site(*s1)
    if s0 == s1:
        raise RibbonError("ribbon endpoints coincide")
    dx = s1.vertex[0] - s0.vertex[0]
    dy = s1.vertex[1] - s0.vertex[1]
    if region.is_torus:
        dx = min(dx % region.m, dx % region.m - region.m, key=lambda d: (abs(d), -d))
        dy = min(dy % region.n, dy % region.n - region.n, key=lambda d: (abs(d), -d))
    if order not in ("xy", "yx"):
        raise RibbonError(f"order must be 'xy' or 'yx', got {order!r}")
    w = _Walker(region, s0)
    for axis in order:
        if axis == "x":
            step, dist = ((1 if dx > 0 else -1, 0), abs(dx))
        else:
            step, dist = ((0, 1 if dy > 0 else -1), abs(dy))
        for _ in range(dist):
            w.advance(step)
    w.rotate_to(s1.face)
    rib = w.finish()
    if rib.end != s1:
        raise RibbonError(f"routing failed: reached {rib.end}, wanted {s1}")
    return rib


def ribbon_to_boundary(region: Region, site: Site, direction=None) -> Ribbon:
    """A ribbon from `site` straight out to the region boundary.

    The far endpoint sits on a boundary vertex with its face on the
    fictitious outside ring, so no term of the Hamiltonian lives there.
    Direction defaults to the shortest way out, preferring +x, +y, -x, -y
    on ties.
    """
    if region.is_torus:
        raise RibbonError("a torus has no boundary")
    site = region.site(*site)
    x, y = site.vertex
    dists = {
        (1, 0): region.m - 1 - x,
        (0, 1): region.n - 1 - y,
        (-1, 0): x,
        (0, -1): y,
    }
    if direction is not None:
        if tuple(direction) not in dists:
            raise RibbonError(f"direction {direction!r} is not one of the steps {list(dists)}")
        candidates = [tuple(direction)]
    else:
        pref = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        candidates = sorted(pref, key=lambda d: (dists[d], pref.index(d)))
    last_err = None
    for d in candidates:
        try:
            w = _Walker(region, site)
            for _ in range(dists[d]):
                w.advance(d)
            _rotate_to_outside(w)
            return w.finish()
        except RibbonError as err:
            last_err = err
    raise RibbonError(f"no route to the boundary from {site}: {last_err}")


def _rotate_to_outside(w: _Walker):
    """Pivot the final face onto the outside ring if it is a real face."""
    region = w.region
    if not region.face_in_region(w.site.face):
        return
    best = None
    quads = region.quadrant_faces(w.site.vertex)
    for q in _QUADRANTS:
        f = quads[q]
        if region.face_in_region(f) or not region.face_exists(f):
            continue
        plans = w.rotation_plans(f)
        if plans and (best is None or len(plans[0]) < len(best)):
            best = plans[0]
    if best is None:
        raise RibbonError(f"cannot pivot onto an outside face at {w.site}")
    for e in best:
        w.dual_step(e)


def boundary_ribbon(region: Region) -> Ribbon:
    """The closed counterclockwise ribbon hugging the boundary of a free region.

    Its direct triangles traverse the perimeter edges; its dual triangles
    cross exactly the edges joining interior vertices to boundary vertices.
    """
    if region.is_torus:
        raise RibbonError("a torus has no boundary")
    m, n = region.m, region.n
    if m < 3 or n < 3:
        raise RibbonError("boundary ribbon needs at least a 3x3 region")
    w = _Walker(region, region.site((0, 0), (0, 0)))
    for i in range(m - 1):  # bottom, rightward
        w.direct_step(("h", i, 0))
        if 1 <= i + 1 <= m - 2:
            w.dual_step(("v", i + 1, 0))
    for j in range(n - 1):  # right side, upward
        w.direct_step(("v", m - 1, j))
        if 1 <= j + 1 <= n - 2:
            w.dual_step(("h", m - 2, j + 1))
    for i in range(m - 2, -1, -1):  # top, leftward
        w.direct_step(("h", i, n - 1))
        if 1 <= i <= m - 2:
            w.dual_step(("v", i, n - 2))
    for j in range(n - 2, -1, -1):  # left side, downward
        w.direct_step(("v", 0, j))
        if 1 <= j <= n - 2:
            w.dual_step(("h", 0, j))
    rib = w.finish()
    assert rib.is_closed
    return rib


def crossing_pair(region: Region) -> tuple[Ribbon, Ribbon]:
    """Two transversally crossing ribbons around the central vertex
    ((m - 1) // 2, (n - 1) // 2), moved to 1 on either axis where that is 0.

    The first runs downward through the center carrying its face on the west
    side; the second runs rightward just below the center carrying its face
    on the south side.  Each one's dual triangle crosses an edge on the
    other's direct path, which is what produces the commutation phase.
    """
    m, n = region.m, region.n
    center = (max(1, (m - 1) // 2), max(1, (n - 1) // 2))
    cx, cy = center
    if not region.is_torus and not (1 <= cx <= m - 2 and 1 <= cy <= n - 2):
        raise RibbonError(f"crossing pair needs an interior center, got {center}")

    rho = _Walker(region, region.site((cx, cy + 1), (cx - 1, cy)))
    rho.direct_step(("v", cx, cy))
    rho.dual_step(("h", cx - 1, cy))
    rho.direct_step(("v", cx, cy - 1))

    sigma = _Walker(region, region.site((cx - 1, cy), (cx - 1, cy - 1)))
    sigma.direct_step(("h", cx - 1, cy))
    sigma.dual_step(("v", cx, cy - 1))
    sigma.direct_step(("h", cx, cy))

    return rho.finish(), sigma.finish()


def direct_ribbon(region: Region, edge) -> Ribbon:
    """The single direct triangle traversing `edge` along its orientation.

    It carries the adjacent face lying in the region (the CCW +1 face when
    both qualify).
    """
    edge = region.wrap_edge(edge)
    plus, minus = region.faces_of_edge(edge)
    face = plus if region.face_in_region(plus) else minus
    tail, head = region.edge_endpoints(edge)
    eid = region.edge_id(edge)
    return Ribbon(
        region,
        (Triangle("direct", eid, +1, Site(tail, face), Site(head, face)),),
    )


def dual_ribbon(region: Region, edge) -> Ribbon:
    """The single dual triangle crossing `edge` out of its CCW +1 face,
    pivoting around the edge's tail vertex."""
    edge = region.wrap_edge(edge)
    plus, minus = region.faces_of_edge(edge)
    tail, _ = region.edge_endpoints(edge)
    eid = region.edge_id(edge)
    return Ribbon(
        region,
        (Triangle("dual", eid, +1, Site(tail, plus), Site(tail, minus)),),
    )


def vertex_dual_loop(region: Region, vertex) -> Ribbon:
    """The closed CCW dual loop around one vertex (four pivots)."""
    v = region.wrap_vertex(tuple(vertex))
    if not region.has_full_star(v):
        raise RibbonError(f"vertex {v} does not have a full star")
    quads = region.quadrant_faces(v)
    w = _Walker(region, region.site(v, quads["NE"]))
    for q_from, q_to in zip(_QUADRANTS, _QUADRANTS[1:] + _QUADRANTS[:1]):
        w.dual_step(region.rotation_edge(v, q_from, q_to))
    rib = w.finish()
    assert rib.is_closed
    return rib


def face_direct_loop(region: Region, face) -> Ribbon:
    """The closed CCW direct loop around one face (four traversals)."""
    f = region.wrap_face(tuple(face))
    if not region.face_in_region(f):
        raise RibbonError(f"face {f} carries no plaquette")
    x, y = f
    w = _Walker(region, region.site((x, y), f))
    w.direct_step(("h", x, y))
    w.direct_step(("v", x + 1, y))
    w.direct_step(("h", x, y + 1))
    w.direct_step(("v", x, y))
    rib = w.finish()
    assert rib.is_closed
    return rib
