"""Combinatorial square complexes: link-condition checking, the presentation
complex with scaled copies ("S of P") construction, Euler characteristics and
fundamental-group presentations.

Directed edges are pairs (edge id, sign); the reverse of (e, s) is (e, -s).
Each directed edge also has one integer code, 2 * (position of e in the
edges sorted by repr, ties in the order given) + (s > 0), so reversing
flips the low bit.  Codes are the only order and identity of directed
edges.  Squares are closed 4-paths of directed edges, validated and
canonicalized through their codes: the least of the eight dihedral
readings of the boundary.  The link condition is read off one pass over
the square corners, each corner an arc between two codes.
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


def _directed_path(edges, path, kind):
    """The items of `path` as a tuple of pairs (e, s) of an edge id of
    `edges` and a sign 1 or -1, else ConfigurationError naming the `kind`
    of path (a square boundary or an edge loop)."""
    try:
        path = tuple(map(tuple, path))
        for e, s in path:
            if e not in edges:
                raise ConfigurationError(f"{kind} {path!r} uses unknown edge {e!r}")
            if s != 1 and s != -1:
                raise ConfigurationError(f"{kind} {path!r} has sign {s!r}, not 1 or -1")
    except (TypeError, ValueError):   # not a sequence of pairs, or an unhashable edge
        raise ConfigurationError(f"{kind} {path!r} is not a path of (edge, sign) pairs") from None
    return path


def _unit_path(prefix, d, k):
    """The path of unit edges prefix + (e, t), t < k, covering the directed
    edge d = (e, s) subdivided into k parts."""
    e, s = d
    return [(prefix + (e, t), s) for t in (range(k) if s > 0 else range(k - 1, -1, -1))]


class SquareComplex:
    """Vertices, undirected edges (usable in both directions) and squares.

    `edge_order` lists the edge ids sorted by repr, ties in the order the
    edges were given.  The directed edge of code c is `directed[c]` and ends
    at `head[c]`; `code` maps it back, and `square_codes[q]` holds the codes
    of `squares[q]`.  Codes are the one order and identity of directed
    edges."""

    def __init__(self, vertices, edges, squares=()):
        self.vertices = set(vertices)
        self.edges = dict(edges)  # eid -> (src, dst)
        self.edge_order = tuple(sorted(self.edges, key=repr))
        for eid, (src, dst) in self.edges.items():
            if src not in self.vertices or dst not in self.vertices:
                raise ConfigurationError(f"edge {eid!r} has an endpoint outside the complex")
        self.directed = [(e, s) for e in self.edge_order for s in (-1, 1)]
        self.head = [self.edges[e][s > 0] for e, s in self.directed]
        code = self.code = {d: c for c, d in enumerate(self.directed)}
        self.squares, self.square_codes = [], []
        for sq in squares:
            try:
                codes = [code[d] for d in sq]
            except (KeyError, TypeError):   # name the fault, or read a list of lists
                codes = [code[d] for d in _directed_path(self.edges, sq, "square boundary")]
            self.add_square(codes)

    def add_square(self, codes):
        """Add the square whose boundary reads these directed-edge codes,
        canonicalized to the least of its eight readings."""
        head = self.head
        if len(codes) != 4:
            raise ConfigurationError("a square boundary must have exactly 4 edges")
        c0, c1, c2, c3 = codes
        if (head[c3] != head[c0 ^ 1] or head[c0] != head[c1 ^ 1]
                or head[c1] != head[c2 ^ 1] or head[c2] != head[c3 ^ 1]):
            raise ConfigurationError(
                f"square boundary {tuple(map(self.directed.__getitem__, codes))!r}"
                " is not a closed edge path")
        f0, f1, f2, f3 = c3 ^ 1, c2 ^ 1, c1 ^ 1, c0 ^ 1
        least = min((c0, c1, c2, c3), (c1, c2, c3, c0), (c2, c3, c0, c1), (c3, c0, c1, c2),
                    (f0, f1, f2, f3), (f1, f2, f3, f0), (f2, f3, f0, f1), (f3, f0, f1, f2))
        self.square_codes.append(least)
        self.squares.append(tuple(map(self.directed.__getitem__, least)))

    def src(self, d):
        return _start(self.edges, d)

    def dst(self, d):
        return self.src(reverse(d))

    def directed_edges(self):
        for e in self.edges:
            yield (e, 1)
            yield (e, -1)

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.squares)

    def component_count(self):
        """Number of connected components (0 for the empty complex).  The
        vertices are indexed once; union-find then runs over a list of ints."""
        index = {v: i for i, v in enumerate(self.vertices)}
        parent = list(range(len(index)))
        count = len(parent)
        for src, dst in self.edges.values():
            a, b = index[src], index[dst]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
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


def _corners(complex_):
    """The arc (code(sq[c]) ^ 1, code(sq[c + 1])) of every square corner
    (q, c), q and c ascending: arc i is corner divmod(i, 4).  Both ends of
    an arc leave the vertex where sq[c] ends."""
    for c0, c1, c2, c3 in complex_.square_codes:
        yield c0 ^ 1, c1
        yield c1 ^ 1, c2
        yield c2 ^ 1, c3
        yield c3 ^ 1, c0


def link(complex_, v):
    """One node per edge-end at v (a loop contributes both directions), in
    code order; one arc per square corner whose apex is v."""
    if v not in complex_.vertices:
        raise ConfigurationError(f"vertex {v!r} is not in the complex")
    head, directed = complex_.head, complex_.directed
    lk = LinkGraph(v, tuple(directed[c] for c in range(len(directed)) if head[c ^ 1] == v))
    for i, (a, b) in enumerate(_corners(complex_)):
        if head[a ^ 1] == v:
            lk.arcs.append((directed[a], directed[b], divmod(i, 4)))
    return lk


def check_link_condition(complex_):
    """True iff every vertex link is simple (no loops, no bigons) and has no
    triangle, i.e. girth >= 4.  Returns (ok, violations).

    One pass over the corners finds them all: a node's code fixes its
    vertex, so one dict of node pairs finds the bigons and one adjacency
    of codes the triangles, with no per-vertex link.  Violations are listed
    vertex by vertex in repr order: loops and bigons in corner order, then
    the triangles (a, b, c), a < b < c, by ascending codes."""
    n = len(complex_.directed)
    loops, first, bigons, adjacency = [], {}, [], {}
    for i, (a, b) in enumerate(_corners(complex_)):
        if a == b:
            loops.append(i)
            continue
        pair = a * n + b if a < b else b * n + a
        j = first.setdefault(pair, i)
        if j != i:
            if j >= 0:   # the pair's second corner; -1 marks it reported
                bigons.append((j, i))
                first[pair] = -1
            continue
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    triangles = []
    for a, around_a in adjacency.items():
        for b in around_a:
            if a < b:
                around_b = adjacency[b]
                if not around_a.isdisjoint(around_b):
                    triangles += [(a, b, c) for c in around_a & around_b if b < c]
    if not (loops or bigons or triangles):
        return True, []
    head, directed, codes = complex_.head, complex_.directed, complex_.square_codes
    found = {}
    # Corner (q, c) lies where sq[c] ends; node a leaves where a ^ 1 ends.
    for i in loops:
        q, c = divmod(i, 4)
        found.setdefault(head[codes[q][c]], []).append(("loop", (q, c)))
    for j, i in sorted(bigons):
        q, c = divmod(j, 4)
        found.setdefault(head[codes[q][c]], []).append(("bigon", ((q, c), divmod(i, 4))))
    for a, b, c in sorted(triangles):
        found.setdefault(head[a ^ 1], []).append(
            ("triangle", (directed[a], directed[b], directed[c])))
    violations = [(v, kind, detail) for v in sorted(complex_.vertices, key=repr)
                  if v in found for kind, detail in found[v]]
    return False, violations


@dataclass
class EdgeLoop:
    """A closed path of directed edges with no backtracking."""

    complex: SquareComplex
    edges: tuple

    def __post_init__(self):
        # Tuples, so a list item cannot slip past the backtracking test.
        self.edges = _directed_path(self.complex.edges, self.edges, "edge loop")
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
        arcs = set(_corners(self.complex))
        codes = [self.complex.code[d] for d in self.edges]
        return not any((c ^ 1, c_next) in arcs or (c_next, c ^ 1) in arcs
                       for c, c_next in zip(codes, codes[1:] + codes[:1]))


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
    gamma loop of copy j by a cylinder of k*ell_j unit squares.  The cell
    count grows as ell_j squared; it is computed first, and a complex of
    more than words.MAX_WORD_LETTERS cells is refused before any is built."""
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
    # The rose, then per relator of length l a copy with every edge cut in
    # l and every square in an l x l grid, and a cylinder of k * l squares.
    V, E, F = len(x.vertices), len(x.edges), len(x.squares)
    cells = 1 + len(p.generators) * (2 * k - 1) + sum(
        V + E * (2 * ell - 1) + F * (2 * ell - 1) ** 2 + 2 * k * ell
        for ell in map(len, p.relators))
    if cells > W.MAX_WORD_LETTERS:
        raise DegenerateInputError(
            f"S(P) would have {cells} cells, more than {W.MAX_WORD_LETTERS}")

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
    if not complex_.vertices:
        raise ConfigurationError("empty complex")
    root = min(complex_.vertices, key=repr)
    parent, tree = _bfs_forest(complex_, complex_.edge_order, [root])
    if len(parent) != len(complex_.vertices):
        raise ConfigurationError("complex is not connected")
    edge_order = complex_.edge_order
    non_tree = [p for p, e in enumerate(edge_order) if e not in tree]
    alphabet = W.Alphabet([f"g{i}" for i in range(len(non_tree))])
    letter = [None] * (2 * len(edge_order))   # code -> letter, None on the tree
    for g, p in zip(alphabet.names, non_tree):
        letter[2 * p], letter[2 * p + 1] = (g, -1), (g, 1)
    relators = [W.reduce(alphabet, [letter[c] for c in codes if letter[c]])
                for codes in complex_.square_codes]
    names = {edge_order[p]: g for g, p in zip(alphabet.names, non_tree)}
    return FinitePresentation(alphabet, relators), names


def cellular_h1(complex_):
    """First homology from the cellular chain complex (independent of pi1).

    H_0 = coker d1 is free on the c connected components, so
    rank d1 = V - c and no elimination is needed for d1.  Then
    betti = (E - rank d1) - rank d2, and the torsion is the invariant
    factors above 1 of d2, from its Smith normal form.  d2 goes to the
    kernel as sparse rows read off the square codes: one dict edge
    position -> coefficient per square."""
    d2 = []
    for codes in complex_.square_codes:
        row = {}
        for c in codes:   # column: the edge's position; sign: the low bit
            j = c >> 1
            row[j] = row.get(j, 0) + (1 if c & 1 else -1)
        d2.append(row)
    rank_d1 = len(complex_.vertices) - complex_.component_count()
    factors_d2 = smith_normal_form(d2)
    betti = (len(complex_.edge_order) - rank_d1) - len(factors_d2)
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
    for e in complex_.edge_order:
        prov = built.provenance[e]
        if prov[0] == "copy":
            copies.setdefault(prov[1], []).append(e)
    for j, copy_edges in sorted(copies.items()):
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
