"""Combinatorial square complexes: link-condition checking, the presentation
complex with scaled copies ("S of P") construction, Euler characteristics and
fundamental-group presentations.

Directed edges are pairs (edge id, sign); the reverse of (e, s) is (e, -s).
Squares are closed 4-paths of directed edges, stored canonically as the
least of the eight dihedral readings of the boundary under (repr(e), s), via
a per-complex integer key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import words as W
from .errors import ConfigurationError, DegenerateInputError
from .presentations import FinitePresentation, AbelianInvariants
from .snf import smith_normal_form


def reverse(d):
    e, s = d
    return (e, -s)


def _start(edges, d):
    """The vertex where directed edge d = (e, s) starts, edges being
    eid -> (src, dst)."""
    e, s = d
    return edges[e][0] if s > 0 else edges[e][1]


def _unit_path(prefix, d, k):
    """The path of unit edges prefix + (e, t), t < k, covering the directed
    edge d = (e, s) subdivided into k parts."""
    e, s = d
    return [(prefix + (e, t), s) for t in (range(k) if s > 0 else range(k - 1, -1, -1))]


def _canonical_square(square, key):
    # Codes are (repr(e), s) as integers; reversing a directed edge flips
    # the low bit of its code.
    codes = [key[e] + (s > 0) for e, s in square]
    flipped = [c ^ 1 for c in reversed(codes)]
    readings = ([codes[i:] + codes[:i] for i in range(4)]
                + [flipped[i:] + flipped[:i] for i in range(4)])
    n = readings.index(min(readings))
    if n >= 4:
        square, n = tuple(reverse(d) for d in reversed(square)), n - 4
    return square[n:] + square[:n]


class SquareComplex:
    """Vertices, undirected edges (usable in both directions) and squares.

    `edge_order` lists the edge ids sorted by repr, and `edge_key[e] + (s > 0)`
    orders directed edges as (repr(e), s) does: `edge_key[e]` is twice the
    dense rank of repr(e), so equal reprs tie."""

    def __init__(self, vertices, edges, squares=()):
        self.vertices = set(vertices)
        self.edges = dict(edges)  # eid -> (src, dst)
        names = {e: repr(e) for e in self.edges}
        self.edge_order = tuple(sorted(self.edges, key=names.__getitem__))
        self.edge_key = {}
        rank, last = -1, None
        for e in self.edge_order:
            if names[e] != last:
                rank, last = rank + 1, names[e]
            self.edge_key[e] = 2 * rank
        for eid, (src, dst) in self.edges.items():
            if src not in self.vertices or dst not in self.vertices:
                raise ConfigurationError(f"edge {eid!r} has an endpoint outside the complex")
        squares = [tuple(sq) for sq in squares]
        edges = self.edges
        for sq in squares:
            if len(sq) != 4:
                raise ConfigurationError("a square boundary must have exactly 4 edges")
            for e, s in sq:
                if e not in edges:
                    raise ConfigurationError(
                        f"square boundary {sq!r} uses unknown edge {e!r}")
                if s != 1 and s != -1:
                    raise ConfigurationError(
                        f"square boundary {sq!r} has sign {s!r}, not 1 or -1")
            ends = [edges[e] if s > 0 else edges[e][::-1] for e, s in sq]
            if any(ends[i - 1][1] != ends[i][0] for i in range(4)):
                raise ConfigurationError(
                    f"square boundary {sq!r} is not a closed edge path")
        self.squares = [_canonical_square(sq, self.edge_key) for sq in squares]

    def src(self, d):
        return _start(self.edges, d)

    def dst(self, d):
        return self.src(reverse(d))

    def directed_key(self, d):
        """Integer that orders directed edges as (repr(e), s) does."""
        return self.edge_key[d[0]] + (d[1] > 0)

    def directed_edges(self):
        for e in self.edges:
            yield (e, 1)
            yield (e, -1)

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.squares)

    def component_count(self):
        """Number of connected components (0 for the empty complex)."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        count = len(parent)
        for src, dst in self.edges.values():
            a, b = find(src), find(dst)
            if a != b:
                parent[a] = b
                count -= 1
        return count

    def is_connected(self):
        return self.component_count() <= 1


@dataclass
class LinkGraph:
    """The link of a vertex: nodes are directed edges leaving it, arcs are
    square corners (tagged with (square index, corner index))."""

    vertex: object
    nodes: tuple
    arcs: list = field(default_factory=list)

    def adjacency(self):
        out = {n: [] for n in self.nodes}
        for a, b, _ in self.arcs:
            out[a].append(b)
            out[b].append(a)
        return out


def _links(complex_, vertices):
    """The links of the given vertices, built in one pass over the edges and
    one over the squares, so each costs O(E + F) however many are asked."""
    out_edges = {v: [] for v in vertices}
    for d in complex_.directed_edges():
        ends = out_edges.get(complex_.src(d))
        if ends is not None:
            ends.append(d)
    links = {v: LinkGraph(v, tuple(sorted(ds, key=complex_.directed_key)))
             for v, ds in out_edges.items()}
    for qi, sq in enumerate(complex_.squares):
        for ci in range(4):
            d_in = sq[ci]
            lk = links.get(complex_.dst(d_in))
            if lk is not None:
                lk.arcs.append((reverse(d_in), sq[(ci + 1) % 4], (qi, ci)))
    return links


def link(complex_, v):
    """One node per edge-end at v (a loop contributes both directions); one
    arc per square corner whose apex is v."""
    if v not in complex_.vertices:
        raise ConfigurationError(f"vertex {v!r} is not in the complex")
    return _links(complex_, (v,))[v]


def check_link_condition(complex_):
    """True iff every vertex link is simple (no loops, no bigons) and has no
    triangle, i.e. girth >= 4.  Returns (ok, violations)."""
    violations = []
    links = _links(complex_, complex_.vertices)
    dkey = complex_.directed_key
    for v in sorted(complex_.vertices, key=repr):
        lk = links[v]
        pair_counts = {}
        adjacency = {n: set() for n in lk.nodes}
        for a, b, tag in lk.arcs:
            if a == b:
                violations.append((v, "loop", tag))
                continue
            key = (a, b) if dkey(a) <= dkey(b) else (b, a)
            pair_counts.setdefault(key, []).append(tag)
            adjacency[a].add(b)
            adjacency[b].add(a)
        for key, tags in pair_counts.items():
            if len(tags) > 1:
                violations.append((v, "bigon", tuple(tags[:2])))
        for a in lk.nodes:
            ka = dkey(a)
            for b in adjacency[a]:
                kb = dkey(b)
                if ka < kb:
                    for c in adjacency[a] & adjacency[b]:
                        if kb < dkey(c):
                            violations.append((v, "triangle", (a, b, c)))
    return not violations, violations


@dataclass
class EdgeLoop:
    """A closed path of directed edges with no backtracking."""

    complex: SquareComplex
    edges: tuple

    def __post_init__(self):
        self.edges = tuple(self.edges)
        if not self.edges:
            raise DegenerateInputError("an edge loop needs at least one edge")
        for d, d_next in zip(self.edges, self.edges[1:] + self.edges[:1]):
            if self.complex.dst(d) != self.complex.src(d_next):
                raise ConfigurationError("edge loop is not a closed path")
            if d_next == reverse(d):
                raise ConfigurationError("edge loop backtracks")

    def basepoint(self):
        return self.complex.src(self.edges[0])

    def is_locally_geodesic(self):
        """No backtracking (already enforced) and every corner subtends an
        angle of at least pi: consecutive edge-ends are not adjacent in the
        link of the vertex between them."""
        links = _links(self.complex, {self.complex.dst(d) for d in self.edges})
        adjacency = {v: lk.adjacency() for v, lk in links.items()}
        for d, d_next in zip(self.edges, self.edges[1:] + self.edges[:1]):
            if d_next in adjacency[self.complex.dst(d)].get(reverse(d), []):
                return False
        return True


def one_square_torus():
    """One vertex, loops a and b, one square a b a^-1 b^-1."""
    return SquareComplex(
        ["v"], {"a": ("v", "v"), "b": ("v", "v")},
        [(("a", 1), ("b", 1), ("a", -1), ("b", -1))])


# ---------------------------------------------------------------------------
# The S(P) construction: a subdivided rose, one scaled copy of the input
# complex per relator, and a one-square-high cylinder gluing each relator
# loop to the chosen loop in its copy.


class _ScaledCopy:
    """One copy of a complex with every edge subdivided into ell parts and
    every square into an ell x ell grid of unit squares."""

    def __init__(self, x, ell, tag):
        self.x = x
        self.ell = ell
        self.tag = tag
        self.vertices = set()
        self.edges = {}
        self.squares = []
        for v in x.vertices:
            self.vertices.add(("copy", tag, "v", v))
        for e, (u, wv) in x.edges.items():
            for t in range(1, ell):
                self.vertices.add(("copy", tag, "p", e, t))
            for t in range(ell):
                self.edges[("copy", tag, "e", e, t)] = (
                    self._edge_point(e, t), self._edge_point(e, t + 1))
        for qi, sq in enumerate(x.squares):
            self._add_grid(qi, sq)

    def _edge_point(self, e, t):
        u, wv = self.x.edges[e]
        if t == 0:
            return ("copy", self.tag, "v", u)
        if t == self.ell:
            return ("copy", self.tag, "v", wv)
        return ("copy", self.tag, "p", e, t)

    def path(self, d):
        """The directed unit-edge path covering directed edge d."""
        return _unit_path(("copy", self.tag, "e"), d, self.ell)

    def vertex(self, v):
        return ("copy", self.tag, "v", v)

    def _point_on(self, d, t):
        """Vertex at parameter t along the subdivided image of d."""
        e, s = d
        return self._edge_point(e, t if s > 0 else self.ell - t)

    def _add_grid(self, qi, sq):
        ell = self.ell
        d1, d2, d3, d4 = sq
        p1, p2, p3, p4 = (self.path(d) for d in sq)

        def grid_vertex(i, j):
            if j == 0:
                return self._point_on(d1, i)
            if i == ell:
                return self._point_on(d2, j)
            if j == ell:
                return self._point_on(d3, ell - i)
            if i == 0:
                return self._point_on(d4, ell - j)
            return ("copy", self.tag, "i", qi, i, j)

        for i in range(1, ell):
            for j in range(1, ell):
                self.vertices.add(grid_vertex(i, j))

        def horizontal(i, j):
            if j == 0:
                return p1[i]
            if j == ell:
                return reverse(p3[ell - 1 - i])
            eid = ("copy", self.tag, "h", qi, i, j)
            if eid not in self.edges:
                self.edges[eid] = (grid_vertex(i, j), grid_vertex(i + 1, j))
            return (eid, 1)

        def vertical(i, j):
            if i == ell:
                return p2[j]
            if i == 0:
                return reverse(p4[ell - 1 - j])
            eid = ("copy", self.tag, "u", qi, i, j)
            if eid not in self.edges:
                self.edges[eid] = (grid_vertex(i, j), grid_vertex(i, j + 1))
            return (eid, 1)

        for i in range(ell):
            for j in range(ell):
                self.squares.append((horizontal(i, j), vertical(i + 1, j),
                                     reverse(horizontal(i, j + 1)),
                                     reverse(vertical(i, j))))


@dataclass
class BuiltComplex:
    """build_S_of_P output: the complex plus cell provenance ('rose',),
    ('copy', j) or ('cylinder', j) for every vertex, edge and square id."""

    complex: SquareComplex
    provenance: dict
    presentation: FinitePresentation
    gamma_length: int


def build_S_of_P(p, x, gamma):
    """Subdivide the rose on p's generators by k = len(gamma), scale one copy
    of x per relator r_j by ell_j = len(r_j), and glue the r_j loop to the
    gamma loop of copy j by a cylinder of k*ell_j unit squares."""
    if not isinstance(gamma, EdgeLoop) or gamma.complex is not x:
        gamma = EdgeLoop(x, gamma.edges if isinstance(gamma, EdgeLoop) else gamma)
    if not gamma.is_locally_geodesic():
        raise DegenerateInputError("gamma must be a locally geodesic loop")
    for r in p.relators:
        if not r.letters:
            raise DegenerateInputError("relators must be nonempty")
        first, last = r.letters[0], r.letters[-1]
        if first[0] == last[0] and first[1] == -last[1]:
            raise DegenerateInputError(f"relator {r} is not cyclically reduced")
    k = len(gamma.edges)

    vertices = {("rose", "*")}
    edges = {}
    squares = []
    provenance = {("rose", "*"): ("rose",)}

    def rose_point(g, t):
        t %= k
        return ("rose", "*") if t == 0 else ("rose", g, t)

    for g in p.generators:
        for t in range(1, k):
            vertices.add(rose_point(g, t))
            provenance[rose_point(g, t)] = ("rose",)
        for t in range(k):
            eid = ("rose", g, t)
            edges[eid] = (rose_point(g, t), rose_point(g, t + 1))
            provenance[eid] = ("rose",)

    square_prov = []
    for j, r in enumerate(p.relators):
        ell = len(r.letters)
        copy = _ScaledCopy(x, ell, j)
        vertices |= copy.vertices
        edges.update(copy.edges)
        for v in copy.vertices:
            provenance[v] = ("copy", j)
        for e in copy.edges:
            provenance[e] = ("copy", j)
        for sq in copy.squares:
            squares.append(sq)
            square_prov.append(("copy", j))

        bottom = [d for letter in r.letters for d in _unit_path(("rose",), letter, k)]
        top = [d for g_edge in gamma.edges for d in copy.path(g_edge)]
        n_units = k * ell
        for s in range(n_units):
            eid = ("cyl", j, s)
            edges[eid] = (_start(edges, bottom[s]), _start(edges, top[s]))
            provenance[eid] = ("cylinder", j)
        for s in range(n_units):
            squares.append((bottom[s], (("cyl", j, s + 1) if s + 1 < n_units
                                        else ("cyl", j, 0), 1),
                            reverse(top[s]), (("cyl", j, s), -1)))
            square_prov.append(("cylinder", j))

    complex_ = SquareComplex(vertices, edges, squares)
    # Square ids are positions in the canonical list; canonicalization keeps
    # order, so provenance lines up by index.
    for idx, prov in enumerate(square_prov):
        provenance[("square", idx)] = prov
    return BuiltComplex(complex_, provenance, p, k)


# ---------------------------------------------------------------------------
# Fundamental group.


def _bfs_forest(complex_, edge_ids, roots):
    """BFS forest over the given edges (explored in the order given), grown
    from each root in turn that no earlier tree reached.  Returns the parent
    map, vertex -> None for a root, else (parent, directed edge into it),
    and the set of forest edge ids."""
    adjacency = {}
    for e in edge_ids:
        src, dst = complex_.edges[e]
        adjacency.setdefault(src, []).append((e, dst))
        adjacency.setdefault(dst, []).append((e, src))
    parent, forest = {}, set()
    for start in roots:
        if start in parent:
            continue
        parent[start] = None
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e, u in adjacency.get(v, ()):
                if u not in parent:
                    parent[u] = (v, (e, 1) if complex_.edges[e][0] == v else (e, -1))
                    forest.add(e)
                    queue.append(u)
    return parent, forest


def pi1_presentation(complex_):
    """Presentation of the fundamental group: one generator per non-tree
    edge, one relator per square (boundary word with tree edges dropped)."""
    return _pi1_with_names(complex_)[0]


def _pi1_with_names(complex_):
    # The spanning tree is the BFS tree from the least vertex, edges
    # explored in canonical order.
    order = sorted(complex_.vertices, key=repr)
    if not order:
        raise ConfigurationError("empty complex")
    parent, tree = _bfs_forest(complex_, complex_.edge_order, order[:1])
    if len(parent) != len(order):
        raise ConfigurationError("complex is not connected")
    non_tree = [e for e in complex_.edge_order if e not in tree]
    names = {e: f"g{i}" for i, e in enumerate(non_tree)}
    alphabet = W.Alphabet([names[e] for e in non_tree])
    relators = []
    for sq in complex_.squares:
        letters = [(names[e], s) for e, s in sq if e in names]
        relators.append(W.reduce(alphabet, letters))
    return FinitePresentation(alphabet, relators), names


def cellular_h1(complex_):
    """First homology from the cellular chain complex (independent of pi1).

    H_0 = coker d1 is free on the c connected components, so
    rank d1 = V - c and no elimination is needed for d1.  Then
    betti = (E - rank d1) - rank d2, and the torsion is the invariant
    factors above 1 of d2, from its Smith normal form."""
    es = complex_.edge_order
    ei = {e: i for i, e in enumerate(es)}
    d2 = [[0] * len(es) for _ in complex_.squares]
    for qi, sq in enumerate(complex_.squares):
        for e, s in sq:
            d2[qi][ei[e]] += s
    rank_d1 = len(complex_.vertices) - complex_.component_count()
    factors_d2 = smith_normal_form(d2)
    betti = (len(es) - rank_d1) - len(factors_d2)
    torsion = tuple(d for d in factors_d2 if d > 1)
    return AbelianInvariants(betti=betti, torsion=torsion)


def _copy_killing_relators(built, presentation, names):
    """Relators killing the image of the fundamental group of every copy.

    For each copy subcomplex a spanning forest is grown; every remaining copy
    edge closes a loop inside the copy, and that loop is rewritten through
    the global generators."""
    complex_ = built.complex
    relators = []
    copies = {}
    for e, prov in built.provenance.items():
        if e in complex_.edges and prov[0] == "copy":
            copies.setdefault(prov[1], []).append(e)
    for j in sorted(copies):
        copy_edges = sorted(copies[j], key=repr)
        ends = {v for e in copy_edges for v in complex_.edges[e]}
        parent, forest = _bfs_forest(complex_, copy_edges, sorted(ends, key=repr))
        for e in copy_edges:
            if e in forest:
                continue
            src, dst = complex_.edges[e]
            loop = (_forest_path(parent, src) + [(e, 1)]
                    + [reverse(d) for d in reversed(_forest_path(parent, dst))])
            letters = [(names[ed], s) for ed, s in loop if ed in names]
            relators.append(W.reduce(presentation.alphabet, letters))
    return relators


def _forest_path(parent, v):
    """Directed edges from the root of v's tree down to v."""
    path = []
    while parent[v] is not None:
        v, d = parent[v]
        path.append(d)
    path.reverse()
    return path


def homs_killing_copies(built, n):
    """Number of homomorphisms of pi1 of the built complex into the degree-n
    symmetric group that kill the fundamental group of every copy."""
    from .quotients import search_homs, simplify_presentation
    presentation, names = _pi1_with_names(built.complex)
    relators = list(presentation.relators)
    relators += _copy_killing_relators(built, presentation, names)
    killed = FinitePresentation(presentation.alphabet, relators)
    simplified = simplify_presentation(killed).presentation
    return len(search_homs(simplified, n))
