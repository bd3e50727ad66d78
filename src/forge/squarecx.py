"""Combinatorial square complexes: link-condition checking, the presentation
complex with scaled copies ("S of P") construction, Euler characteristics and
fundamental-group presentations.

A complex numbers its vertices and edges in the order given and reads
each cell by its position there.  A directed edge (edge id, sign), whose
reverse is (e, -s), is one integer code 2 * (position of e) + (s > 0), so
reversing flips the low bit; a square is its four codes, the least of
the eight dihedral readings of its boundary.  No pair is kept:
`SquareComplex.code` reads one in, `directed` and `squares` decode on
demand, and the S(P) builder makes none: it numbers each edge as it
writes it and hands its squares over as codes.  The link condition is
read off one pass over the square corners, each an arc between two
codes.  Spanning forests keep the code of the edge into each vertex, and
pi1 the letter of each code; a complex grows its own spanning forest
once and keeps it for its component count, pi1 and H_1.
"""

from __future__ import annotations

from collections import deque

from . import words as W
from .errors import ConfigurationError, DegenerateInputError
from .presentations import FinitePresentation, AbelianInvariants
from .records import Record
from .snf import smith_normal_form


def _path_codes(complex_, path, kind):
    """The codes of the directed edges along `path`, else ConfigurationError
    naming the `kind` of path (a square boundary or an edge loop)."""
    try:
        return [complex_.code(d) for d in path]
    except (ConfigurationError, TypeError) as exc:   # TypeError: not iterable
        raise ConfigurationError(
            f"{kind} {path!r} is not a path of (edge, sign) pairs: {exc}") from None


class SquareComplex:
    """Vertices, undirected edges (usable in both directions) and squares.

    `vertex_order` and `edge_order` hold the ids in the order given, each
    once (a repeated vertex is refused), and every reader takes positions
    there.  `vertices` maps each vertex to its position; `edges` maps an
    edge id to its (src, dst), and `position` maps it to its position.
    The directed edge (e, s) has code 2 * position[e] + (s > 0) and ends
    at vertex position `head[code]`; `square_codes[q]` holds the codes of
    square q.  These are all it stores of directed edges and squares;
    `spanning_forest` keeps one byte per edge once it is asked for."""

    def __init__(self, vertices, edges, squares=()):
        self.vertex_order = tuple(vertices)
        place = self.vertices = {v: p for p, v in enumerate(self.vertex_order)}
        if len(place) != len(self.vertex_order):   # place holds each vertex's last position
            v = next(v for p, v in enumerate(self.vertex_order) if place[v] != p)
            raise ConfigurationError(f"vertex {v!r} is repeated", ("vertex", v))
        self.edges = dict(edges)  # eid -> (src, dst)
        self.edge_order = tuple(self.edges)
        for eid, (src, dst) in self.edges.items():
            if src not in place or dst not in place:
                raise ConfigurationError(f"edge {eid!r} has an endpoint outside the complex",
                                         ("edge", eid))
        self.position = {e: p for p, e in enumerate(self.edge_order)}
        self.head = [place[v] for ends in self.edges.values() for v in ends]
        self.square_codes = []
        self._forest = None
        for sq in squares:
            self.add_square(_path_codes(self, sq, "square boundary"))

    def code(self, d):
        """The code of directed edge d = (e, s); ConfigurationError for an
        unknown edge, a sign other than 1 or -1, or a d that is no pair."""
        try:
            e, s = d
            p = self.position[e]
        except KeyError:
            raise ConfigurationError(f"unknown edge {e!r}") from None
        except (TypeError, ValueError):   # not a pair, or an unhashable edge
            raise ConfigurationError(f"{d!r} is not an (edge, sign) pair") from None
        if s != 1 and s != -1:
            raise ConfigurationError(f"{d!r} has sign {s!r}, not 1 or -1")
        return 2 * p + (s > 0)

    def directed(self, c):
        """The directed edge (e, s) of code c."""
        return (self.edge_order[c >> 1], 1 if c & 1 else -1)

    @property
    def squares(self):
        """The squares as 4-tuples of directed edges (e, s), decoded anew
        on each read."""
        d = [(e, s) for e in self.edge_order for s in (-1, 1)]
        return [(d[c0], d[c1], d[c2], d[c3]) for c0, c1, c2, c3 in self.square_codes]

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
                f"square boundary {tuple(map(self.directed, codes))!r}"
                " is not a closed edge path")
        f0, f1, f2, f3 = c3 ^ 1, c2 ^ 1, c1 ^ 1, c0 ^ 1
        self.square_codes.append(
            min((c0, c1, c2, c3), (c1, c2, c3, c0), (c2, c3, c0, c1), (c3, c0, c1, c2),
                (f0, f1, f2, f3), (f1, f2, f3, f0), (f2, f3, f0, f1), (f3, f0, f1, f2)))

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.square_codes)

    def spanning_forest(self):
        """The BFS spanning forest over all edges in order, grown from each
        vertex position in turn that no earlier tree reached: one byte per
        edge position, 1 on the forest.  Squares never change it, so it is
        grown once and kept; callers only read it."""
        if self._forest is None:
            self._forest = _bfs_forest(self, range(len(self.edge_order)),
                                       range(len(self.vertex_order)))[1]
        return self._forest

    def component_count(self):
        """Number of connected components (0 for the empty complex): V less
        the edges of the spanning forest."""
        return len(self.vertices) - self.spanning_forest().count(1)


class LinkGraph(Record):
    """The link of a vertex: nodes are directed edges leaving it, arcs are
    square corners (tagged with (square index, corner index))."""

    def __init__(self, vertex, nodes, arcs=None):
        self.vertex = vertex
        self.nodes = nodes
        self.arcs = [] if arcs is None else arcs


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
    if (p := complex_.vertices.get(v)) is None:
        raise ConfigurationError(f"vertex {v!r} is not in the complex")
    head, directed = complex_.head, complex_.directed
    lk = LinkGraph(v, tuple(directed(c) for c in range(len(head)) if head[c ^ 1] == p))
    for i, (a, b) in enumerate(_corners(complex_)):
        if head[a ^ 1] == p:
            lk.arcs.append((directed(a), directed(b), divmod(i, 4)))
    return lk


def check_link_condition(complex_):
    """True iff every vertex link is simple (no loops, no bigons) and has no
    triangle, i.e. girth >= 4.  Returns (ok, violations).

    One pass over the corners finds them all: a node's code fixes its
    vertex, so one dict of node pairs finds the bigons and one list of
    neighbour sets, indexed by code, the triangles, with no per-vertex
    link; a code with no neighbour gets no set.  Violations are listed
    vertex by vertex in `vertex_order`: loops and bigons in corner order,
    then the triangles (a, b, c), a < b < c, by ascending codes."""
    n = len(complex_.head)
    loops, first, bigons, adjacency = [], {}, [], [None] * n
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
        if (around := adjacency[a]) is None:
            adjacency[a] = {b}
        else:
            around.add(b)
        if (around := adjacency[b]) is None:
            adjacency[b] = {a}
        else:
            around.add(a)
    triangles = []
    for a, around_a in enumerate(adjacency):
        for b in around_a or ():
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
            ("triangle", (directed(a), directed(b), directed(c))))
    violations = [(complex_.vertex_order[p], kind, detail) for p in sorted(found)
                  for kind, detail in found[p]]
    return False, violations


class EdgeLoop:
    """A closed path of directed edges with no backtracking, kept as the
    codes of its edges in `complex`; `edges` decodes them."""

    def __init__(self, complex_, edges):
        self.complex = complex_
        self.codes = codes = tuple(_path_codes(complex_, edges, "edge loop"))
        if not codes:
            raise DegenerateInputError("an edge loop needs at least one edge")
        head = complex_.head
        for c, c_next in zip(codes, codes[1:] + codes[:1]):
            if head[c] != head[c_next ^ 1]:
                raise ConfigurationError("edge loop is not a closed path")
            if c_next == c ^ 1:
                raise ConfigurationError("edge loop backtracks")

    @property
    def edges(self):
        return tuple(map(self.complex.directed, self.codes))

    def is_locally_geodesic(self):
        """No backtracking (already enforced) and every corner subtends an
        angle of at least pi: consecutive edge-ends are not adjacent in the
        link of the vertex between them."""
        arcs, codes = set(_corners(self.complex)), self.codes
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
# loop to the chosen loop in its copy.  Every cell id says where it lies:
# ("rose", ...), ("copy", j, ...) or ("cyl", j, s) for relator j.  Each id
# is made once, and each edge takes its code as it is made: the edge at
# position p, the p-th written, runs forwards as 2p + 1.  An edge's points
# and unit edge codes are held in index tables, and every later use reads
# them from there, so each square is four codes from the start.


def _along(seq, forward):
    """seq read forwards, or backwards where `forward` is false."""
    return seq if forward else seq[::-1]


def _unit_path(units, forward):
    """The codes of the unit edges covering an edge cut into the forward
    codes `units`, read forwards or backwards."""
    return units if forward else [u ^ 1 for u in reversed(units)]


def _cut(vertices, edges, src, dst, point, unit, n):
    """Write an edge from src to dst cut into n unit edges unit + (t,),
    t < n, through the points point + (t,), 0 < t < n.  Returns its
    n + 1 points, src and dst included, and the forward codes of its n
    unit edges."""
    inner = [point + (t,) for t in range(1, n)]
    vertices.update(dict.fromkeys(inner))
    points, first = [src, *inner, dst], 2 * len(edges) + 1
    for t in range(n):
        edges[unit + (t,)] = (points[t], points[t + 1])
    return points, range(first, first + 2 * n, 2)


def _add_scaled_copy(x, ell, j, vertices, edges, squares):
    """Write copy j of x into S(P)'s vertices and edges and append its
    squares' codes to `squares`, with every edge of x cut into ell unit
    edges and every square into an ell x ell grid of unit squares; return
    each edge of x's points and unit edge codes, by its position in x.
    Each id is made once: an edge's points share its corners' ids, and a
    square's grid of points shares its sides' lists."""
    corner = [("copy", j, "v", v) for v in x.vertex_order]
    vertices.update(dict.fromkeys(corner))
    head, cut = x.head, []
    for p, e in enumerate(x.edge_order):
        cut.append(_cut(vertices, edges, corner[head[2 * p]], corner[head[2 * p + 1]],
                        ("copy", j, "p", e), ("copy", j, "e", e), ell))
    for qi, (c1, c2, c3, c4) in enumerate(x.square_codes):
        # The boundary runs c1 rightwards along the bottom, c2 up the right
        # side, c3 back along the top and c4 down the left side.  grid[a][b]
        # is the point a units right and b up; rows[b][a] and cols[a][b] are
        # the codes of the unit edges leaving it rightwards and upwards.
        (p1, u1), (p2, u2), (p3, u3), (p4, u4) = (
            cut[c1 >> 1], cut[c2 >> 1], cut[c3 >> 1], cut[c4 >> 1])
        f1, f2, f3, f4 = c1 & 1, c2 & 1, not c3 & 1, not c4 & 1
        bottom, top = _along(p1, f1), _along(p3, f3)
        grid = [_along(p4, f4)]
        for a in range(1, ell):
            inner = [("copy", j, "i", qi, a, b) for b in range(1, ell)]
            vertices.update(dict.fromkeys(inner))
            grid.append([bottom[a], *inner, top[a]])
        grid.append(_along(p2, f2))
        rows = [_unit_path(u1, f1), *([0] * ell for _ in range(1, ell)), _unit_path(u3, f3)]
        cols = [_unit_path(u4, f4), *([0] * ell for _ in range(1, ell)), _unit_path(u2, f2)]
        for a in range(ell):
            for b in range(ell):
                if a + 1 < ell:
                    cols[a + 1][b] = 2 * len(edges) + 1
                    edges[("copy", j, "u", qi, a + 1, b)] = (grid[a + 1][b], grid[a + 1][b + 1])
                if b + 1 < ell:
                    rows[b + 1][a] = 2 * len(edges) + 1
                    edges[("copy", j, "h", qi, a, b + 1)] = (grid[a][b + 1], grid[a + 1][b + 1])
                squares.append((rows[b][a], cols[a + 1][b], rows[b + 1][a] ^ 1, cols[a][b] ^ 1))
    return cut


class BuiltComplex(Record):
    """build_S_of_P output: the complex S(P), whose cell ids name where
    each cell lies."""

    def __init__(self, complex):
        self.complex = complex


def build_S_of_P(p, x, gamma):
    """Subdivide the rose on p's generators by k = len(gamma), scale one copy
    of x per relator r_j by ell_j = len(r_j), and glue the r_j loop to the
    gamma loop of copy j by a cylinder of k*ell_j unit squares.  gamma is a
    sequence of directed edges (e, s) of x.  The cell count grows as ell_j
    squared; it is computed first, and a complex of more than
    words.MAX_WORD_LETTERS cells is refused before any is built."""
    gamma = EdgeLoop(x, gamma)
    if not gamma.is_locally_geodesic():
        raise DegenerateInputError("gamma must be a locally geodesic loop")
    for r in p.relators:
        first, last = r.letters[0], r.letters[-1]
        if first[0] == last[0] and first[1] == -last[1]:
            raise DegenerateInputError(f"relator {r} is not cyclically reduced")
    k = len(gamma.codes)
    # The rose, then per relator of length l a copy with every edge cut in
    # l and every square in an l x l grid, and a cylinder of k * l squares.
    V, E, F = len(x.vertices), len(x.edges), len(x.square_codes)
    cells = 1 + len(p.generators) * (2 * k - 1) + sum(
        V + E * (2 * ell - 1) + F * (2 * ell - 1) ** 2 + 2 * k * ell
        for ell in map(len, p.relators))
    if cells > W.MAX_WORD_LETTERS:
        raise DegenerateInputError(
            f"S(P) would have {cells} cells, more than {W.MAX_WORD_LETTERS}")

    star = ("rose", "*")
    vertices, edges, squares = {star: None}, {}, []
    rose = {g: _cut(vertices, edges, star, star, ("rose", g), ("rose", g), k)
            for g in p.generators}
    for j, r in enumerate(p.relators):
        cut = _add_scaled_copy(x, len(r.letters), j, vertices, edges, squares)
        # The relator loop along the rose and the gamma loop in copy j: the
        # codes of their unit edges and the point where each one starts.
        bottom, bottom_at, top, top_at = [], [], [], []
        for g, s in r.letters:
            points, units = rose[g]
            bottom += _unit_path(units, s > 0)
            bottom_at += _along(points, s > 0)[:-1]
        for c in gamma.codes:
            points, units = cut[c >> 1]
            top += _unit_path(units, c & 1)
            top_at += _along(points, c & 1)[:-1]
        # Cylinder edge s runs from where bottom[s] starts to where top[s]
        # does; its code is cyl + 2s.
        cyl, n_units = 2 * len(edges) + 1, len(bottom)
        for s in range(n_units):
            edges[("cyl", j, s)] = (bottom_at[s], top_at[s])
        for s in range(n_units):
            squares.append((bottom[s], cyl + 2 * ((s + 1) % n_units),
                            top[s] ^ 1, (cyl + 2 * s) ^ 1))

    complex_ = SquareComplex(vertices, edges)
    for codes in squares:
        complex_.add_square(codes)
    return BuiltComplex(complex_)


# ---------------------------------------------------------------------------
# Fundamental group.


def _bfs_forest(complex_, positions, roots):
    """BFS forest over the edges at these positions (explored in the order
    given), grown from each root in turn that no earlier tree reached.
    Returns per vertex position None for a root, -1 if unreached, else the
    code c of the forest edge into it (c leaves head[c ^ 1]), and one byte
    per edge position of the complex, 1 on the forest."""
    head = complex_.head
    leaving = [[] for _ in complex_.vertex_order]   # the codes leaving each vertex
    for p in positions:
        leaving[head[2 * p]].append(2 * p + 1)
        leaving[head[2 * p + 1]].append(2 * p)
    parent, forest = [-1] * len(leaving), bytearray(len(complex_.edge_order))
    for start in roots:
        if parent[start] != -1:
            continue
        parent[start] = None
        queue = deque([start])
        while queue:
            for c in leaving[queue.popleft()]:
                u = head[c]
                if parent[u] == -1:
                    parent[u] = c
                    forest[c >> 1] = 1
                    queue.append(u)
    return parent, forest


def _forest_path(head, parent, v):
    """The codes from the root of v's tree down to v."""
    path = []
    while parent[v] is not None:
        path.append(parent[v])
        v = head[parent[v] ^ 1]
    return path[::-1]


def pi1_presentation(complex_):
    """Presentation of the fundamental group: one generator per non-tree
    edge, one relator per square (boundary word with tree edges dropped)."""
    return _pi1_with_letters(complex_)[0]


def _pi1_with_letters(complex_):
    """The presentation over the BFS tree from vertex position 0, edges
    explored in the order given, and the letter of each code: (g, 1) and
    (g, -1) for the two directions of non-tree edge g, None on the tree.
    The tree is the complex's spanning forest, which is that tree when the
    complex is connected: its first root, position 0, then reaches every
    vertex before any other root is tried."""
    if not complex_.vertices:
        raise ConfigurationError("empty complex")
    n_edges = len(complex_.edge_order)
    tree = complex_.spanning_forest()
    if tree.count(1) != len(complex_.vertices) - 1:
        raise ConfigurationError("complex is not connected")
    non_tree = [p for p, t in enumerate(tree) if not t]
    alphabet = W.Alphabet([f"g{i}" for i in range(len(non_tree))])
    letter = [None] * (2 * n_edges)
    for g, p in zip(alphabet.names, non_tree):
        letter[2 * p], letter[2 * p + 1] = (g, -1), (g, 1)
    # Codes c and c ^ 1 are the two directions of one edge, so cancelling
    # them cancels its letters (g, 1) and (g, -1).
    relators = []
    for codes in complex_.square_codes:
        stack = []
        for c in codes:
            if letter[c]:
                if stack and stack[-1] == c ^ 1:
                    stack.pop()
                else:
                    stack.append(c)
        relators.append(W.from_reduced(alphabet, tuple(map(letter.__getitem__, stack))))
    return FinitePresentation(alphabet, relators), letter


def cellular_h1(complex_):
    """First homology from the cellular chain complex (independent of pi1).

    Let T be the complex's spanning forest, which pi1 shares.  Dropping
    T's coordinates is a map pi from the edge chains C_1 onto Z^(E - T),
    and on the cycles Z_1 = ker d1 it is an isomorphism: each edge e off T
    closes one cycle z_e, e plus the forest path between its ends, and
    pi(z_e) = e, so pi is onto; a cycle that pi sends to 0 lies on T,
    which holds no cycle but 0, so pi is one to one.  The boundaries
    im d2 lie in Z_1, hence H_1 = Z_1 / im d2 ~ Z^(E - T) / pi(im d2).
    pi(im d2) is spanned by the rows of d2 with T's columns dropped, so
    betti = |E - T| - rank and the torsion is the invariant factors above 1,
    from their Smith normal form.  Each row goes to the kernel as a dict
    edge position -> coefficient read off a square's codes."""
    forest = complex_.spanning_forest()
    rows = []
    for codes in complex_.square_codes:
        row = {}
        for c in codes:   # column: the edge's position; sign: the low bit
            if not forest[j := c >> 1]:
                row[j] = row.get(j, 0) + (1 if c & 1 else -1)
        rows.append(row)
    factors = smith_normal_form(rows)
    betti = len(complex_.edge_order) - forest.count(1) - len(factors)
    return AbelianInvariants(betti=betti, torsion=tuple(d for d in factors if d > 1))


def _copy_killing_relators(built, presentation, letter):
    """Relators killing the image of the fundamental group of every copy.

    The edges of copy j are those whose id begins ("copy", j).  One
    forest is grown over all copy edges, roots in position order; copies
    share no vertex, so it spans each copy.  Every remaining copy edge
    closes a loop inside its copy, copy by copy, and that loop is
    rewritten through the global generators: `letter` holds the letter of
    each code, None for a code that the presentation drops."""
    complex_ = built.complex
    head, edges = complex_.head, complex_.edge_order
    positions = [p for p, e in enumerate(edges) if e[0] == "copy"]
    parent, forest = _bfs_forest(complex_, positions, range(len(complex_.vertices)))
    relators = []
    for p in sorted(positions, key=lambda p: edges[p][1]):   # copy by copy
        if forest[p]:
            continue
        loop = (_forest_path(head, parent, head[2 * p]) + [2 * p + 1]
                + [c ^ 1 for c in reversed(_forest_path(head, parent, head[2 * p + 1]))])
        relators.append(W.reduce(presentation.alphabet,
                                 [letter[c] for c in loop if letter[c]]))
    return relators


def homs_killing_copies(built, n):
    """Number of homomorphisms of pi1 of the built complex into the degree-n
    symmetric group that kill the fundamental group of every copy."""
    from .quotients import search_homs, simplify_presentation
    presentation, letter = _pi1_with_letters(built.complex)
    relators = list(presentation.relators)
    relators += _copy_killing_relators(built, presentation, letter)
    killed = FinitePresentation(presentation.alphabet, relators)
    simplified = simplify_presentation(killed).presentation
    return len(search_homs(simplified, n))
