"""Independent oracles shared by the test modules.

Everything here is deliberately naive: closures by repeated multiplication,
exhaustive assignment enumeration, gcds of minors.  The oracles never call
the code paths they are used to check.
"""

import contextlib
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from unittest import mock

from hypothesis import settings, strategies as st

from forge import words as W
from forge.cli import EXIT_CODES
from forge.errors import ConfigurationError, DegenerateInputError, ParseError
from forge.presentations import AbelianInvariants, FinitePresentation
from forge.squarecx import LinkGraph, SquareComplex


# Hypothesis draws integer seeds for seeded input generators; derandomized,
# every run sees the same seeds and a failure prints the one that failed.
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
derandomized = settings(max_examples=60, deadline=None, derandomize=True)


def exponent_sum(word, name):
    """The sum of the exponents of generator `name` in `word`."""
    word.alphabet.check(name)
    return sum(s for g, s in word.letters if g == name)


def component_count(complex_):
    """Number of connected components (0 for the empty complex): V less
    the edges of the spanning forest."""
    return len(complex_.vertices) - complex_.spanning_forest().count(1)


def components(graph):
    """Vertex lists of a LabeledGraph's connected components, each in
    vertex order, ordered by first vertex."""
    from forge.stallings import _component_data
    return [vs for vs, _ in _component_data(graph)]


def is_connected(complex_):
    """True for a complex of at most one component."""
    return component_count(complex_) <= 1


def grushko_lower_bound(n):
    """ceil(59n/60): a lower bound for the profinite rank of an n-fold free
    product of any fixed group with nontrivial profinite completion."""
    if n < 0:
        raise DegenerateInputError("n must be nonnegative")
    return -(-59 * n // 60)


def nielsen_reduce(generators):
    """Shorten a generating set by length-decreasing Nielsen moves.

    Replaces a generator by its product with another whenever that is
    strictly shorter, until no move applies; the subgroup is unchanged and
    the resulting basis is short, so products reach every short subgroup
    element through short intermediates."""
    gens = [g for g in generators if not g.is_identity()]
    changed = True
    while changed:
        changed = False
        gens = [g for g in gens if not g.is_identity()]
        # Deduplicate up to inversion.
        seen = set()
        unique = []
        for g in gens:
            key = min(g.letters, g.inverse().letters)
            if key not in seen:
                seen.add(key)
                unique.append(g)
        gens = unique
        for i in range(len(gens)):
            for j in range(len(gens)):
                if i == j:
                    continue
                for x in (gens[i], gens[i].inverse()):
                    for y in (gens[j], gens[j].inverse()):
                        t = x * y
                        if len(t) < len(gens[i]):
                            gens[i] = t
                            changed = True
            if changed:
                break
    return gens


def _tuple_mul(a, b):
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1][0] == b[j][0] \
            and a[i - 1][1] == -b[j][1]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _tuple_inv(a):
    return tuple((g, -s) for g, s in reversed(a))


def subgroup_ball(generators, radius, cap=None):
    """All subgroup elements of reduced length <= radius, as letter tuples.

    Nielsen-reduces the generating set first, then closes it under
    multiplication with intermediate lengths capped; the short basis keeps
    the intermediates short enough for the cap to be harmless."""
    generators = nielsen_reduce(generators)
    alphabet = generators[0].alphabet if generators else None
    if alphabet is not None and \
            {min(g.letters, _tuple_inv(g.letters)) for g in generators} == \
            {((name, 1),) for name in alphabet.names}:
        # The basis is the whole ambient free group: the ball is every
        # reduced word, enumerated directly.
        out = {()}
        frontier = [()]
        for _ in range(radius):
            frontier = [w + (l,) for w in frontier
                        for l in ((n, s) for n in alphabet.names for s in (1, -1))
                        if not (w and w[-1][0] == l[0] and w[-1][1] == -l[1])]
            out.update(frontier)
        return out
    if cap is None:
        cap = radius + max((len(g) for g in generators), default=0)
    gens = []
    for g in generators:
        gens.append(g.letters)
        gens.append(_tuple_inv(g.letters))
    seen = {()}
    frontier = [()]
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                t = _tuple_mul(s, g)
                if len(t) <= cap and t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
    return {s for s in seen if len(s) <= radius}


def oracle_format_word(word):
    """Inverse of parse_word, with runs printed as powers: one scan of the
    runs, one token per run."""
    if not word.letters:
        return "1"
    out = []
    i = 0
    letters = word.letters
    while i < len(letters):
        name, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (name, sign):
            j += 1
        k = (j - i) * sign
        out.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(out)


def random_reduced_word(rng, alphabet, length):
    """A uniformly random freely reduced word of exactly `length` letters."""
    letters = []
    while len(letters) < length:
        choices = [(g, s) for g in alphabet.names for s in (1, -1)]
        if letters:
            last = letters[-1]
            choices = [c for c in choices if c != (last[0], -last[1])]
        letters.append(rng.choice(choices))
    return W.Word(alphabet, tuple(letters))


def brute_force_homs(p, n):
    """Exhaustive assignment enumeration: every tuple of permutations that
    satisfies every relator."""
    from forge.quotients import PermutationAssignment, identity_perm
    perms = sorted(itertools.permutations(range(n)))
    out = []
    for images in itertools.product(perms, repeat=len(p.generators)):
        q = PermutationAssignment(n, dict(zip(p.generators, images)))
        if all(q.evaluate(r) == identity_perm(n) for r in p.relators):
            out.append(q)
    return out


def determinantal_divisors(matrix):
    """gcd of all k x k minors for k = 1..rank; the k-th invariant factor is
    d_k / d_{k-1}.  Exact and independent of any normal-form code."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                g = math.gcd(g, _minor(matrix, ri, ci))
        if g == 0:
            break
        divisors.append(g)
    return divisors


def _minor(matrix, ri, ci):
    sub = [[matrix[r][c] for c in ci] for r in ri]
    return _det(sub)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            rest = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(rest)
    return total


def sparse_rows(m):
    """The rows of a dense matrix as the dicts column -> entry that
    `smith_normal_form` reads, zeros kept."""
    return [dict(enumerate(r)) for r in m]


def invariant_factors_oracle(matrix):
    """Nonzero invariant factors from determinantal divisors."""
    divisors = determinantal_divisors(matrix)
    factors = []
    prev = 1
    for d in divisors:
        factors.append(d // prev)
        prev = d
    return factors


# ---------------------------------------------------------------------------
# The original quadratic Stallings kernels, kept as a differential oracle
# for the near-linear ones in forge.stallings: a quotient-graph rebuild and a full
# violation rescan per fold merge, per-component edge scans for ranks, an
# |E1| x |E2| fibre-product edge scan, and the pairwise translate check
# over powers composed one generator step at a time.  Only the data types,
# `translate` and an action's generator (`maps(1)`) come from forge.


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent, x, y):
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[ry] = rx


def _oracle_violation(graph):
    out = {}
    inc = {}
    for eid, (src, dst, label) in graph.edges.items():
        out.setdefault((src, label), []).append(eid)
        inc.setdefault((dst, label), []).append(eid)
    for v in graph.vertices:
        for (u, label), eids in out.items():
            if u == v and len(eids) > 1:
                return eids[0], eids[1]
        for (u, label), eids in inc.items():
            if u == v and len(eids) > 1:
                return eids[0], eids[1]
    return None


def _oracle_quotient_graph(vertices, edges, parent, basepoint):
    """The quotient graph, each class named by its root and placed where
    its first vertex stands in `vertices`."""
    from forge.stallings import LabeledGraph
    vs = list(dict.fromkeys(_find(parent, v) for v in vertices))
    es = {}
    seen = {}
    for eid, (src, dst, label) in edges.items():
        key = (_find(parent, src), _find(parent, dst), label)
        if key in seen:
            continue
        seen[key] = eid
        es[eid] = key
    bp = _find(parent, basepoint) if basepoint is not None else None
    return LabeledGraph(vs, es, bp)


def oracle_canonical_form(immersion):
    """BFS from the basepoint, then from each vertex not yet reached in
    vertex order; neighbours by (label, direction, vertex position), labels
    in the base's edge order."""
    from forge.stallings import GraphImmersion, LabeledGraph
    graph = immersion.domain
    label_rank = {label: r for r, label in enumerate(immersion.base.edges)}
    position = {v: k for k, v in enumerate(graph.vertices)}
    order = []
    seen = set()
    adjacency = {}
    for src, dst, label in graph.edges.values():
        adjacency.setdefault(src, []).append((label_rank[label], 0, position[dst], dst))
        adjacency.setdefault(dst, []).append((label_rank[label], 1, position[src], src))
    starts = []
    if graph.basepoint is not None:
        starts.append(graph.basepoint)
    starts.extend(graph.vertices)
    for start in starts:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for _, _, _, u in sorted(adjacency.get(v, [])):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    rename = {v: i for i, v in enumerate(order)}
    edge_items = sorted(
        ((rename[src], label, rename[dst]) for src, dst, label in graph.edges.values()),
        key=lambda t: (t[0], label_rank[t[1]], t[2]))
    edges = {i: (src, dst, label) for i, (src, label, dst) in enumerate(edge_items)}
    bp = rename[graph.basepoint] if graph.basepoint is not None else None
    domain = LabeledGraph(range(len(order)), edges, bp)
    vmap = {rename[v]: immersion.vmap[v] for v in graph.vertices}
    return GraphImmersion(domain, immersion.base, vmap, folded=immersion.folded)


def oracle_fold(morphism):
    from forge.stallings import GraphImmersion
    graph, vmap = morphism.domain, dict(morphism.vmap)
    vertices = list(graph.vertices)
    edges = dict(graph.edges)
    parent = {v: v for v in vertices}
    while True:
        current = _oracle_quotient_graph(vertices, edges, parent, graph.basepoint)
        pair = _oracle_violation(current)
        if pair is None:
            break
        e1, e2 = pair
        s1, d1, _ = current.edges[e1]
        s2, d2, _ = current.edges[e2]
        _union(parent, s1, s2)
        _union(parent, d1, d2)
        del edges[e2]
    folded = _oracle_quotient_graph(vertices, edges, parent, graph.basepoint)
    new_vmap = {v: vmap[v] for v in folded.vertices}
    return oracle_canonical_form(GraphImmersion(folded, morphism.base, new_vmap))


def oracle_core(immersion):
    from forge.stallings import GraphImmersion, LabeledGraph
    graph = immersion.domain
    vertices = list(graph.vertices)
    edges = dict(graph.edges)
    while True:
        removable = [v for v in vertices
                     if v != graph.basepoint
                     and sum((src == v) + (dst == v)
                             for src, dst, _ in edges.values()) <= 1]
        if not removable:
            break
        for v in removable:
            vertices.remove(v)
            edges = {eid: e for eid, e in edges.items() if v not in (e[0], e[1])}
    trimmed = LabeledGraph(vertices, edges, graph.basepoint)
    vmap = {v: immersion.vmap[v] for v in trimmed.vertices}
    return oracle_canonical_form(GraphImmersion(trimmed, immersion.base, vmap,
                                              folded=immersion.folded))


def oracle_components(graph):
    parent = {v: v for v in graph.vertices}
    for src, dst, _ in graph.edges.values():
        _union(parent, src, dst)
    comps = {}
    for v in graph.vertices:
        comps.setdefault(_find(parent, v), []).append(v)
    return list(comps.values())


def oracle_rank(graph):
    out = {}
    for vs in oracle_components(graph):
        vset = set(vs)
        e = sum(1 for src, dst, _ in graph.edges.values() if src in vset)
        out[vs[0]] = e - len(vs) + 1
    return out


def oracle_fibre_product(i1, i2):
    from forge.stallings import (FibreProductComponent,
                                 FibreProductDecomposition, LabeledGraph)
    same = i1 == i2
    vertices = [(v1, v2) for v1 in i1.domain.vertices for v2 in i2.domain.vertices
                if i1.vmap[v1] == i2.vmap[v2]]
    edges = {}
    for e1, (s1, d1, l1) in i1.domain.edges.items():
        for e2, (s2, d2, l2) in i2.domain.edges.items():
            if l1 == l2:
                edges[(e1, e2)] = ((s1, s2), (d1, d2), l1)
    bp = None
    if i1.domain.basepoint is not None and i2.domain.basepoint is not None:
        bp = (i1.domain.basepoint, i2.domain.basepoint)
        if bp not in set(vertices):
            bp = None
    total = LabeledGraph(vertices, edges, bp)
    ranks = oracle_rank(total)
    comps = []
    for idx, vs in enumerate(oracle_components(total)):
        vset = set(vs)
        e = sum(1 for src, _, _ in total.edges.values() if src in vset)
        r = ranks[vs[0]]
        diagonal = same and any(a == b for a, b in vs)
        comps.append(FibreProductComponent(
            index=idx, vertices=tuple(vs), edge_count=e, rank=r,
            is_tree=(r == 0), is_diagonal=diagonal))
    return FibreProductDecomposition(total, tuple(comps))


def oracle_malnormal_family_check(family):
    from forge.stallings import MalnormalityWitness
    family = list(family)
    for i in range(len(family)):
        for j in range(i, len(family)):
            fp = oracle_fibre_product(family[i], family[j])
            for comp in fp.components:
                if comp.is_tree:
                    continue
                if i == j and comp.is_diagonal:
                    continue
                return False, MalnormalityWitness(pair=(i, j), component=comp)
    return True, None


# The malnormality kernel that the flat pair-code union-find in
# forge.stallings replaced: the first factor read as an edge list, the
# second as its label groups and width, and one dict entry of parents per
# pair code the walk touches.

def oracle_factor(graph):
    """A factor as the dict kernel reads it: edges as (source, target,
    label) on vertex positions, the same pairs grouped by label, and the
    vertex count."""
    index = {v: k for k, v in enumerate(graph.vertices)}
    edges = [(index[src], index[dst], label) for src, dst, label in graph.edges.values()]
    by_label = {}
    for src, dst, label in edges:
        by_label.setdefault(label, []).append((src, dst))
    return edges, by_label, len(index)


def oracle_dict_refutes(edges, by_label, width, self_pair):
    """Whether the pair's fibre product has a cycle off the exempt diagonal:
    the first edge whose end codes already share a root refutes."""
    if self_pair:
        ends = ((s1 * width + s2 if s1 < s2 else s2 * width + s1,
                 d1 * width + d2 if d1 < d2 else d2 * width + d1)
                for pairs in by_label.values()
                for (s1, d1), (s2, d2) in itertools.combinations(pairs, 2))
    else:
        ends = ((s1 * width + s2, d1 * width + d2)
                for s1, d1, label in edges for s2, d2 in by_label.get(label, ()))
    parent = {}
    for a, b in ends:
        if parent.setdefault(a, a) != a:
            a = _find(parent, a)
        if parent.setdefault(b, b) != b:
            b = _find(parent, b)
        if a == b:
            return True
        parent[b] = a
    return False


def oracle_compose(el1, el2):
    """Edge map el1 after edge map el2."""
    return {e: el1[el2[e]] for e in el2}


def oracle_powers(generator):
    """g^0, g^1, ... of a generator g, an edge map, each g after the power
    before it, up to the last power before the identity returns."""
    identity = {e: e for e in generator}
    powers = [identity]
    while (power := oracle_compose(generator, powers[-1])) != identity:
        powers.append(power)
    return powers


def oracle_translate_family_check(base, action, subgroup, translates):
    """One translated copy per power k, by g^k composed from the generator
    g = action.maps(1), then every pair's fibre product."""
    from forge.errors import InvalidActionError
    from forge.stallings import translate
    powers = oracle_powers(action.maps(1))
    family = []
    for k in translates:
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < len(powers):
            raise InvalidActionError("translate is not an element of the action")
        family.append(translate(subgroup, powers[k]))
    return oracle_malnormal_family_check(family)


# ---------------------------------------------------------------------------
# The original dense homology kernels, kept as a differential oracle for the
# sparse ones in forge.snf and forge.squarecx: Euclidean Smith normal form on
# the whole matrix, SNF of both boundary matrices, and one full scan of the
# edges and squares per vertex link.  Also the orders that one integer edge
# key per complex replaced: directed edges compared as (rank of e, s), the
# rank of an edge its index among the edges in the order given; squares
# canonicalized by that comparison, complexes written in the order given; and
# spanning forests, pi1 and copy loops walked over edge ids and (edge, sign)
# pairs.  Each oracle ranks ids by the order given itself, from the vertex
# and edge dicts, and reads none of forge's position tables.  Only the data
# types come from forge.


def reverse(d):
    e, s = d
    return (e, -s)


def directed_edges(complex_):
    """Every directed edge (e, s) of the complex, read off its edge dict:
    (e, 1) then (e, -1), edges in the order given."""
    return [(e, s) for e in complex_.edges for s in (1, -1)]


def src(complex_, d):
    """The vertex where directed edge d = (e, s) starts."""
    e, s = d
    return complex_.edges[e][0] if s > 0 else complex_.edges[e][1]


def dst(complex_, d):
    return src(complex_, reverse(d))


def _dkey(edges):
    """The key of a directed edge (e, s) over the given edge ids: (rank of e,
    s), an edge's rank its index in the order given."""
    rank = {e: i for i, e in enumerate(edges)}
    return lambda d: (rank[d[0]], d[1])


def oracle_canonical_square(square, edges=None):
    """The least reading of the square's boundary over the complex's
    `edges`; without them, edges rank in the order in which the square's
    edges first appear."""
    square = tuple(square)
    key = _dkey(edges if edges is not None else dict.fromkeys(e for e, _ in square))
    rotations = [tuple(square[i:] + square[:i]) for i in range(4)]
    flipped = tuple(reverse(d) for d in reversed(square))
    rotations += [tuple(flipped[i:] + flipped[:i]) for i in range(4)]
    return min(rotations, key=lambda sq: [key(d) for d in sq])


def oracle_format_complex(complex_):
    vs, es = list(complex_.vertices), list(complex_.edges)
    vname = {v: f"v{i}" for i, v in enumerate(vs)}
    ename = {e: f"e{i}" for i, e in enumerate(es)}
    out = [f"vertex {vname[v]}" for v in vs]
    for e in es:
        src, dst = complex_.edges[e]
        out.append(f"edge {ename[e]} {vname[src]} {vname[dst]}")
    for sq in complex_.squares:
        toks = [ename[e] + ("" if s > 0 else "-") for e, s in sq]
        out.append("square " + " ".join(toks))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# S(P) built as forge built it before its cells were written in place: each
# relator's scaled copy staged in its own vertex dict, edge dict and square
# list and then merged, and the place of every cell recorded in a separate
# provenance dict.  Vertices and edges are kept in insertion order, as
# forge keeps them, so they take the positions forge gives them.  Inputs are
# taken to be valid (a locally geodesic gamma given as directed edges,
# nonempty cyclically reduced relators).


class _OracleScaledCopy:
    """One copy of a complex with every edge subdivided into ell parts and
    every square into an ell x ell grid of unit squares."""

    def __init__(self, x, ell, tag):
        self.x = x
        self.ell = ell
        self.tag = tag
        self.vertices = {}
        self.edges = {}
        self.squares = []
        for v in x.vertices:
            self.vertices[("copy", tag, "v", v)] = None
        for e in x.edges:
            for t in range(1, ell):
                self.vertices[("copy", tag, "p", e, t)] = None
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
        e, s = d
        ts = range(self.ell) if s > 0 else range(self.ell - 1, -1, -1)
        return [(("copy", self.tag, "e", e, t), s) for t in ts]

    def _point_on(self, d, t):
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
                self.vertices[grid_vertex(i, j)] = None

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


def oracle_build_S_of_P(p, x, gamma):
    """(complex, provenance): S(P) over x and the loop gamma, and ('rose',),
    ('copy', j) or ('cylinder', j) for every vertex and edge id."""
    gamma = tuple(gamma)
    k = len(gamma)
    vertices = {("rose", "*"): None}
    edges = {}
    squares = []
    provenance = {("rose", "*"): ("rose",)}

    def rose_point(g, t):
        t %= k
        return ("rose", "*") if t == 0 else ("rose", g, t)

    def rose_path(letter):
        g, s = letter
        return [(("rose", g, t), s) for t in (range(k) if s > 0 else range(k - 1, -1, -1))]

    def start(d):
        e, s = d
        return edges[e][0] if s > 0 else edges[e][1]

    for g in p.generators:
        for t in range(1, k):
            vertices[rose_point(g, t)] = None
            provenance[rose_point(g, t)] = ("rose",)
        for t in range(k):
            eid = ("rose", g, t)
            edges[eid] = (rose_point(g, t), rose_point(g, t + 1))
            provenance[eid] = ("rose",)

    for j, r in enumerate(p.relators):
        ell = len(r.letters)
        copy = _OracleScaledCopy(x, ell, j)
        vertices.update(copy.vertices)
        edges.update(copy.edges)
        for cell in list(copy.vertices) + list(copy.edges):
            provenance[cell] = ("copy", j)
        squares += copy.squares

        bottom = [d for letter in r.letters for d in rose_path(letter)]
        top = [d for g_edge in gamma for d in copy.path(g_edge)]
        n_units = k * ell
        for s in range(n_units):
            eid = ("cyl", j, s)
            edges[eid] = (start(bottom[s]), start(top[s]))
            provenance[eid] = ("cylinder", j)
        for s in range(n_units):
            squares.append((bottom[s], (("cyl", j, s + 1) if s + 1 < n_units
                                        else ("cyl", j, 0), 1),
                            reverse(top[s]), (("cyl", j, s), -1)))
    return SquareComplex(vertices, edges, squares), provenance


def oracle_bfs_forest(complex_, edge_ids, roots):
    """BFS forest over the given edges (explored in the order given), grown
    from each root in turn that no earlier tree reached, read off the edge
    dict.  Returns the parent map, vertex -> None for a root, else (parent,
    directed edge into it), and the set of forest edge ids."""
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


def oracle_forest_path(parent, v):
    """Directed edges from the root of v's tree down to v."""
    path = []
    while parent[v] is not None:
        v, d = parent[v]
        path.append(d)
    path.reverse()
    return path


def oracle_pi1_with_names(complex_):
    """(presentation, names): pi1 over the BFS tree from the first vertex
    given, edges explored in the order given; one generator per non-tree
    edge (names: edge id -> generator) and one relator per square, read as
    (edge, sign) pairs."""
    if not complex_.vertices:
        raise ConfigurationError("empty complex")
    root = next(iter(complex_.vertices))
    edge_ids = list(complex_.edges)
    parent, tree = oracle_bfs_forest(complex_, edge_ids, [root])
    if len(parent) != len(complex_.vertices):
        raise ConfigurationError("complex is not connected")
    names = {e: f"g{i}" for i, e in enumerate(e for e in edge_ids if e not in tree)}
    alphabet = W.Alphabet(list(names.values()))
    relators = [W.reduce(alphabet, [(names[e], s) for e, s in sq if e in names])
                for sq in complex_.squares]
    return FinitePresentation(alphabet, relators), names


def oracle_copy_killing_relators(complex_, provenance, presentation, names):
    """The relators killing each copy's fundamental group, copies read from
    the provenance dict, forests and loops from the edge dict.  Each copy's
    forest grows from its edges' ends in the order the vertices were given."""
    copies = {}
    for e in complex_.edges:
        if provenance[e][0] == "copy":
            copies.setdefault(provenance[e][1], []).append(e)
    relators = []
    for j, copy_edges in sorted(copies.items()):
        ends = {v for e in copy_edges for v in complex_.edges[e]}
        roots = [v for v in complex_.vertices if v in ends]
        parent, forest = oracle_bfs_forest(complex_, copy_edges, roots)
        for e in copy_edges:
            if e in forest:
                continue
            src, dst = complex_.edges[e]
            loop = (oracle_forest_path(parent, src) + [(e, 1)]
                    + [reverse(d) for d in reversed(oracle_forest_path(parent, dst))])
            relators.append(W.reduce(presentation.alphabet,
                                     [(names[ed], s) for ed, s in loop if ed in names]))
    return relators


def oracle_smith_normal_form(matrix):
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for row in a:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    factors = []
    top = 0
    while top < rows and top < cols:
        pivot = _oracle_smallest_nonzero(a, top)
        if pivot is None:
            break
        _oracle_swap_to_pivot(a, top, pivot)
        _oracle_diagonalise_at(a, top, rows, cols)
        if a[top][top] < 0:
            for j in range(top, cols):
                a[top][j] = -a[top][j]
        factors.append(a[top][top])
        top += 1
    return factors


def _oracle_smallest_nonzero(a, top):
    best = None
    best_val = None
    for i in range(top, len(a)):
        for j in range(top, len(a[0])):
            v = abs(a[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
    return best


def _oracle_swap_to_pivot(a, top, pivot):
    i, j = pivot
    a[top], a[i] = a[i], a[top]
    for row in a:
        row[top], row[j] = row[j], row[top]


def _oracle_diagonalise_at(a, top, rows, cols):
    while True:
        d = a[top][top]
        dirty = False
        for i in range(top + 1, rows):
            if a[i][top]:
                q = a[i][top] // d
                for j in range(top, cols):
                    a[i][j] -= q * a[top][j]
                if a[i][top]:
                    a[top], a[i] = a[i], a[top]
                    dirty = True
                    break
        if dirty:
            continue
        for j in range(top + 1, cols):
            if a[top][j]:
                q = a[top][j] // d
                for i in range(top, rows):
                    a[i][j] -= q * a[i][top]
                if a[top][j]:
                    for i in range(top, rows):
                        a[i][top], a[i][j] = a[i][j], a[i][top]
                    dirty = True
                    break
        if dirty:
            continue
        bad = _oracle_non_divisible_row(a, top, rows, cols)
        if bad is None:
            return
        for j in range(top, cols):
            a[top][j] += a[bad][j]


def _oracle_non_divisible_row(a, top, rows, cols):
    d = a[top][top]
    for i in range(top + 1, rows):
        for j in range(top + 1, cols):
            if a[i][j] % d:
                return i
    return None


def oracle_rank_d1(complex_):
    """The rank of the boundary map from edges to vertices, from the Smith
    normal form of its dense matrix."""
    vi = {v: i for i, v in enumerate(complex_.vertices)}
    d1 = [[0] * len(vi) for _ in complex_.edges]
    for row, (src, dst) in zip(d1, complex_.edges.values()):
        row[vi[dst]] += 1
        row[vi[src]] -= 1
    return len(oracle_smith_normal_form(d1)) if d1 and vi else 0


def oracle_cellular_h1(complex_):
    es = list(complex_.edges)
    ei = {e: i for i, e in enumerate(es)}
    d2 = [[0] * len(es) for _ in complex_.squares]
    for qi, sq in enumerate(complex_.squares):
        for e, s in sq:
            d2[qi][ei[e]] += s
    rank_d1 = oracle_rank_d1(complex_)
    factors_d2 = oracle_smith_normal_form(d2) if complex_.squares and es else []
    betti = (len(es) - rank_d1) - len(factors_d2)
    torsion = tuple(d for d in factors_d2 if d > 1)
    return AbelianInvariants(betti=betti, torsion=torsion)


def oracle_link(complex_, v):
    nodes = tuple(sorted((d for d in directed_edges(complex_)
                          if src(complex_, d) == v), key=_dkey(complex_.edges)))
    lk = LinkGraph(v, nodes)
    for qi, sq in enumerate(complex_.squares):
        for ci in range(4):
            d_in, d_out = sq[ci], sq[(ci + 1) % 4]
            if dst(complex_, d_in) == v:
                lk.arcs.append((reverse(d_in), d_out, (qi, ci)))
    return lk


def oracle_check_link_condition(complex_):
    """Triangles come after the loops and bigons at their vertex, in
    ascending order of their nodes' keys."""
    dkey = _dkey(complex_.edges)

    def node_keys(violation):
        return [dkey(d) for d in violation[2]]

    violations = []
    for v in complex_.vertices:
        lk = oracle_link(complex_, v)
        pair_counts = {}
        adjacency = {n: set() for n in lk.nodes}
        for a, b, tag in lk.arcs:
            if a == b:
                violations.append((v, "loop", tag))
                continue
            key = tuple(sorted((a, b), key=dkey))
            pair_counts.setdefault(key, []).append(tag)
            adjacency[a].add(b)
            adjacency[b].add(a)
        for key, tags in pair_counts.items():
            if len(tags) > 1:
                violations.append((v, "bigon", tuple(tags[:2])))
        triangles = []
        for a in lk.nodes:
            for b in adjacency[a]:
                common = adjacency[a] & adjacency[b]
                for c in common:
                    if dkey(a) < dkey(b) < dkey(c):
                        triangles.append((v, "triangle", (a, b, c)))
        violations += sorted(triangles, key=node_keys)
    return not violations, violations


def oracle_is_locally_geodesic(loop):
    links = {}
    for d, d_next in zip(loop.edges, loop.edges[1:] + loop.edges[:1]):
        v = dst(loop.complex, d)
        if v not in links:
            lk = oracle_link(loop.complex, v)
            links[v] = adjacency = {n: [] for n in lk.nodes}
            for a, b, _ in lk.arcs:
                adjacency[a].append(b)
                adjacency[b].append(a)
        if d_next in set(links[v].get(reverse(d), [])):
            return False
    return True


# ---------------------------------------------------------------------------
# The square-complex reader as it was before it read squares through one
# token table: every line stripped and filtered one at a time, every token
# read by the id rule (an int where int() reads one), a line number kept per
# edge for the endpoint check, which runs before the complex is built, and
# each square token turned into (edge, sign) and looked up by the complex's
# own `code`.  Only the data types and ParseError come from forge.


def _oracle_id(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def oracle_parse_complex(text):
    vertices, edges, edge_line, squares = [], {}, {}, []
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        if kind == "vertex":
            if len(args) != 1:
                raise ParseError("vertex takes exactly one id", line=i)
            vertices.append(_oracle_id(args[0]))
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError("edge takes id, src, dst", line=i)
            eid = _oracle_id(args[0])
            if eid in edges:
                raise ParseError(f"duplicate edge id {args[0]}", line=i)
            edges[eid] = (_oracle_id(args[1]), _oracle_id(args[2]))
            edge_line[eid] = i
        elif kind == "square":
            if len(args) != 4:
                raise ParseError("square takes exactly four directed edges", line=i)
            squares.append((i, args))
        else:
            raise ParseError(f"expected vertex/edge/square, got {kind!r}",
                             line=i, column=1)
    known = set(vertices)
    for eid, (a, b) in edges.items():
        if a not in known or b not in known:
            raise ParseError(f"edge {eid!r} has an endpoint outside the complex",
                             line=edge_line[eid])
    complex_ = SquareComplex(vertices, edges)
    for i, tokens in squares:
        codes = []
        for tok in tokens:
            d = (_oracle_id(tok[:-1]), -1) if tok.endswith("-") else (_oracle_id(tok), 1)
            try:
                codes.append(complex_.code(d))
            except ConfigurationError:
                raise ParseError(f"square references unknown edge {tok!r}",
                                 line=i) from None
        try:
            complex_.add_square(codes)
        except ConfigurationError as exc:
            raise ParseError(str(exc), line=i) from exc
    return complex_


# ---------------------------------------------------------------------------
# The original finite-quotient search kernel, kept as a differential oracle
# for the compiled one in forge.quotients: all n! permutations sorted up
# front, a brute-force scan for class-minimal permutations, one tuple per
# letter in evaluation, an inverse per inverse letter, and the
# nontrivial-quotient loop that restores every hom before testing it; also
# the order-spec check that takes each order from cycle lengths, free
# reduction that re-checks every letter, the simplifier that rewrites every
# relator letter by letter and scans every relator for each move, and the
# transfers that go through eagerly built expressions.  The oracle kernel
# ignores the goal: the loop's accept filters its complete homs.  Only the
# data types and the budget tracker come from forge.


def oracle_perm_mul(p, q):
    """p then q (left-to-right composition, matching word evaluation)."""
    return tuple(q[p[i]] for i in range(len(p)))


def oracle_cycles(p):
    """The cycles of p (0-based), each from its least point, in order of
    that point: the orbit of every point i, kept where i is its least."""
    cycles = []
    for i in range(len(p)):
        orbit = [i]
        while p[orbit[-1]] != i:
            orbit.append(p[orbit[-1]])
        if min(orbit) == i:
            cycles.append(orbit)
    return cycles


def oracle_perm_order(p):
    """The least k >= 1 with p^k the identity, by repeated composition."""
    power, k = p, 1
    while power != tuple(range(len(p))):
        power, k = oracle_perm_mul(power, p), k + 1
    return k


def oracle_cycle_notation(p):
    """1-based disjoint cycles of length > 1, 'id' if there are none."""
    return "".join("(" + " ".join(str(j + 1) for j in cycle) + ")"
                   for cycle in oracle_cycles(p) if len(cycle) > 1) or "id"


def oracle_evaluate(self, word):
    from forge.errors import AlphabetMismatchError
    from forge.quotients import identity_perm, perm_inv
    out = identity_perm(self.degree)
    for name, sign in word.letters:
        if name not in self.images:
            raise AlphabetMismatchError(f"no image assigned for generator {name!r}")
        p = self.images[name]
        out = oracle_perm_mul(out, p if sign > 0 else perm_inv(p))
    return out


def oracle_class_minimal_perms(n):
    """Lexicographically least permutation of each cycle type of degree n."""
    best = {}
    for p in itertools.permutations(range(n)):
        key = tuple(sorted(map(len, oracle_cycles(p))))
        if key not in best or p < best[key]:
            best[key] = p
    return sorted(best.values())


def oracle_enumerate_homs(p, n, budget=None, goal=None, reduce_first=False,
                          even_only=False):
    """Every hom in canonical order; the goal is ignored, as the search
    loop's own accept checked it on each complete hom, and so is even_only:
    the loop sets it only where every hom has even images."""
    from forge.quotients import PermutationAssignment, _BudgetStop, identity_perm
    gens = p.generators
    all_perms = sorted(itertools.permutations(range(n)))
    checkpoints = {}  # index of last assigned generator -> relators to check
    for r in p.relators:
        last = max(gens.index(g) for g, _ in r.letters) if r.letters else 0
        checkpoints.setdefault(last, []).append(r)
    if not gens:
        yield PermutationAssignment(n, {})
        return

    def dfs(i, images):
        if budget is not None and not budget.spend():
            raise _BudgetStop
        if i == len(gens):
            yield PermutationAssignment(n, dict(images))
            return
        choices = all_perms if (i > 0 or not reduce_first) else oracle_class_minimal_perms(n)
        for perm in choices:
            images[gens[i]] = perm
            partial = PermutationAssignment(n, images)
            if all(oracle_evaluate(partial, r) == identity_perm(n)
                   for r in checkpoints.get(i, [])):
                yield from dfs(i + 1, images)
            del images[gens[i]]

    yield from dfs(0, {})


# ---------------------------------------------------------------------------
# The search kernel as it was before candidate sources: each generator draws
# from itertools.permutations (generator 0 from the class-minimal
# permutations under reduce_first), odd candidates are skipped through a
# per-call inverse memo under even_only, and every condition of the goal,
# order checks included, is checked at its checkpoint.


def oracle_is_even(p):
    return (len(p) - len(oracle_cycles(p))) % 2 == 0


def oracle_pruned_enumerate_homs(p, n, budget=None, goal=None, reduce_first=False,
                                 even_only=False):
    """DFS over generator assignments in canonical order, yielding complete
    homomorphisms.  A relator is checked as soon as all its generators are
    assigned, and so is each condition of the goal (see `oracle_goal_checks`):
    only homomorphisms that meet the goal are yielded, in the order the
    full enumeration would yield them.  With reduce_first=True the first
    generator ranges only over conjugacy-class-minimal permutations (sound
    for existence questions, since conjugating a homomorphism preserves
    relators, element orders, intersections and nontriviality).  With
    even_only=True every generator ranges only over even permutations,
    which loses nothing where H_1 (x) Z/2 = 0.
    """
    from forge.quotients import (PermutationAssignment, _BudgetStop, _checkpoint,
                                 _class_minimal_perms, perm_inv)
    gens = p.generators
    code = {}
    for i, g in enumerate(gens):
        code[g, 1], code[g, -1] = 2 * i, 2 * i + 1

    def encode(word):
        return list(map(code.__getitem__, word.letters))

    checkpoints = [[] for _ in gens]  # last generator index -> coded relators
    for codes in map(encode, p.relators):
        checkpoints[_checkpoint(codes)].append(codes)
    for coded in checkpoints:
        coded.sort(key=len)  # a short relator rejects a candidate soonest
    table = [None] * (2 * len(gens))  # image, inverse, image, inverse, ...
    inverse_of = {}  # candidate -> its inverse (None: skipped), once per call
    points = range(n)
    last = len(gens) - 1

    def holds(codes):
        for x in points:
            y = x
            for c in codes:
                y = table[c][y]
            if y != x:
                return False
        return True

    def image(codes):
        out = []
        for x in points:
            for c in codes:
                x = table[c][x]
            out.append(x)
        return tuple(out)

    goal_checks = oracle_goal_checks(goal, encode, holds, image, max(1, len(gens)))
    if not gens:
        if goal_checks[0] is None or goal_checks[0]():
            yield PermutationAssignment(n, {})
        return

    def dfs(i):
        # Called once per inner node; a complete assignment is a node too,
        # spent in the loop below rather than in a call of its own.
        if budget is not None and not budget.spend():
            raise _BudgetStop
        choices = (itertools.permutations(points) if i > 0 or not reduce_first
                   else _class_minimal_perms(n))
        checks, goal_check = checkpoints[i], goal_checks[i]
        for perm in choices:
            if perm not in inverse_of:
                inverse_of[perm] = (perm_inv(perm) if not even_only or oracle_is_even(perm)
                                    else None)
            inverse = inverse_of[perm]
            if inverse is None:
                continue
            table[2 * i] = perm
            table[2 * i + 1] = inverse
            if not all(map(holds, checks)):
                continue
            if goal_check is not None and not goal_check():
                continue
            if i < last:
                yield from dfs(i + 1)
                continue
            if budget is not None and not budget.spend():
                raise _BudgetStop
            yield PermutationAssignment(n, dict(zip(gens, table[::2])))

    yield from dfs(0)


def oracle_goal_checks(goal, encode, holds, image, size):
    """The goal as one check per generator index (None where it has none),
    each at the checkpoint of the last generator its words read; a word
    with no letters is read at generator 0.  A Word must not hold, that is
    map to the identity.  Each OrderSpec target must have order kappa * e_i
    at its checkpoint, and each pair of targets must meet trivially at the
    later of their two checkpoints.  encode turns a word into codes; holds
    and image read codes under the kernel's current assignment."""
    from forge.quotients import OrderSpec, _checkpoint, _cyclic_subgroup
    checks = [None] * size
    if goal is None:
        return checks
    if not isinstance(goal, OrderSpec):
        codes = encode(goal)
        checks[_checkpoint(codes)] = lambda: not holds(codes)
        return checks
    targets = list(map(encode, goal.targets))
    orders = [goal.kappa * e for e in goal.exponents]
    at = list(map(_checkpoint, targets))
    perms = [None] * len(targets)  # target images, set at their checkpoints

    def check_at(k):
        mine = [t for t, c in enumerate(at) if c == k]
        pairs = [(i, j) for j in range(len(at)) for i in range(j)
                 if max(at[i], at[j]) == k]

        def check():
            for t in mine:
                perm = image(targets[t])
                if oracle_perm_order(perm) != orders[t]:
                    return False
                perms[t] = perm
            return all(math.gcd(orders[i], orders[j]) == 1
                       or len(_cyclic_subgroup(perms[i])
                              & _cyclic_subgroup(perms[j])) == 1
                       for i, j in pairs)
        return check

    for k in set(at):
        checks[k] = check_at(k)
    return checks


def oracle_has_nontrivial_quotient_upto(p, budget):
    from forge.quotients import (SearchOutcome, _Budget, _BudgetStop,
                                 _restore_assignment, simplify_presentation)
    simp = simplify_presentation(p)
    tracker = _Budget(budget)
    top, degrees = 1, []
    try:
        for n in range(2, budget.max_degree + 1):
            top, start = n, tracker.nodes
            for q in oracle_enumerate_homs(simp.presentation, n, tracker, reduce_first=True):
                full = _restore_assignment(p, simp, q)
                if not full.is_trivial():
                    degrees.append((n, tracker.nodes - start, False))
                    return SearchOutcome("witness", full, tracker.nodes, n, degrees)
            degrees.append((n, tracker.nodes - start, False))
    except _BudgetStop:
        degrees.append((top, tracker.nodes - start, True))
    return SearchOutcome("exhausted", None, tracker.nodes, top, degrees)


def oracle_word_survives_upto(p, w, budget):
    """The word search with its own degree loop, as before `search`."""
    from forge.errors import AlphabetMismatchError
    from forge.quotients import (SearchOutcome, _Budget, _BudgetStop,
                                 _restore_assignment, _transfer_word,
                                 identity_perm, simplify_presentation)
    if w.alphabet != p.alphabet:
        raise AlphabetMismatchError("word over a different alphabet than the presentation")
    simp = simplify_presentation(p)
    ws = _transfer_word(simp, w)
    tracker = _Budget(budget)
    top, degrees = 1, []
    try:
        for n in range(2, budget.max_degree + 1):
            top, start = n, tracker.nodes
            for q in oracle_enumerate_homs(simp.presentation, n, tracker, reduce_first=True):
                if q.evaluate(ws) != identity_perm(n):
                    degrees.append((n, tracker.nodes - start, False))
                    return SearchOutcome("witness", _restore_assignment(p, simp, q),
                                         tracker.nodes, n, degrees)
            degrees.append((n, tracker.nodes - start, False))
    except _BudgetStop:
        degrees.append((top, tracker.nodes - start, True))
    return SearchOutcome("exhausted", None, tracker.nodes, top, degrees)


def oracle_search_order_targeted(p, spec, budget):
    """The order-spec search with its own degree loop, as before `search`."""
    from forge.errors import AlphabetMismatchError, IndependenceError
    from forge.quotients import SearchOutcome, _Budget, _BudgetStop
    for t in spec.targets:
        if t.alphabet != p.alphabet:
            raise AlphabetMismatchError("spec target over a different alphabet")
    if not p.relators:
        flag, pair = W.is_independent(spec.targets)
        if not flag:
            raise IndependenceError(f"targets {pair[0]} and {pair[1]} are dependent")
    tracker = _Budget(budget)
    top, degrees = 1, []
    try:
        for n in range(2, budget.max_degree + 1):
            top, start = n, tracker.nodes
            for q in oracle_enumerate_homs(p, n, tracker, reduce_first=True):
                ok, _ = oracle_verify_order_spec(q, spec)
                if ok:
                    degrees.append((n, tracker.nodes - start, False))
                    return SearchOutcome("witness", q, tracker.nodes, n, degrees)
            degrees.append((n, tracker.nodes - start, False))
    except _BudgetStop:
        degrees.append((top, tracker.nodes - start, True))
    return SearchOutcome("exhausted", None, tracker.nodes, top, degrees)

# ---------------------------------------------------------------------------
# The one degree loop as it was before H_1 pruned it: every search starts at
# degree 2 and draws its candidates from all of S_n.  Only the loop is the
# oracle; the kernel, the simplifier and the data types come from forge.


def oracle_search(p, budget, goal=None, per_degree=False):
    """The one degree loop: the first homomorphism into S_2, S_3, ...,
    S_max_degree that meets the goal, which is None (nontrivial image), a
    Word over p's alphabet (it survives) or an OrderSpec (it holds).  Words
    and None search the simplified presentation and restore the witness
    to p's generators; an order spec searches p as given.  The node budget
    covers all degrees together, or each degree afresh with per_degree.
    The kernel prunes by the goal (the word as transferred); accept still
    verifies the hom it yields, so the pruning is never trusted alone."""
    from forge.quotients import (OrderSpec, SearchOutcome, _Budget, _BudgetStop,
                                 _enumerate_homs, _restore_assignment,
                                 _transfer_word, identity_perm,
                                 simplify_presentation, verify_order_spec)
    simp = None if isinstance(goal, OrderSpec) else simplify_presentation(p)
    search_p = p if simp is None else simp.presentation
    word = None if simp is None or goal is None else _transfer_word(simp, goal)
    kernel_goal = goal if simp is None else word

    def accept(q):
        if simp is None:
            return verify_order_spec(q, goal)[0]
        if word is None:  # the restored hom is trivial exactly when q is
            return not q.is_trivial()
        return q.evaluate(word) != identity_perm(q.degree)

    tracker = _Budget(budget)
    degrees, witness = [], None
    for n in range(2, budget.max_degree + 1):
        if per_degree:
            tracker = _Budget(budget)
        start = tracker.nodes
        try:
            found = next(filter(accept, _enumerate_homs(
                search_p, n, tracker, kernel_goal, reduce_first=True)), None)
        except _BudgetStop:
            degrees.append((n, tracker.nodes - start, True))
            break
        degrees.append((n, tracker.nodes - start, False))
        if found is not None:
            witness = found if simp is None else _restore_assignment(p, simp, found)
            break
    return SearchOutcome("exhausted" if witness is None else "witness", witness,
                         sum(nodes for _, nodes, _ in degrees),
                         degrees[-1][0] if degrees else 1, degrees)


def oracle_h1_order(p):
    """|H_1| of a presented group, 0 when H_1 is infinite: the gcd of the
    maximal minors of the exponent-sum matrix, which is the product of its
    invariant factors when they number one per generator."""
    gens = p.generators
    matrix = [[sum(s for h, s in r.letters if h == g) for g in gens]
              for r in p.relators]
    order = 0 if gens else 1
    for rows in itertools.combinations(matrix, len(gens)):
        order = math.gcd(order, _det(list(rows)))
    return order


def oracle_substitute(word, target_alphabet, table):
    """Rewrite a word letterwise through a substitution table name -> Word;
    a name the table does not hold stands for itself."""
    out = []
    for g, s in word.letters:
        if g not in table:
            out.append((g, s))
            continue
        image = table[g]
        out.extend(image.letters if s > 0 else image.inverse().letters)
    return W.reduce(target_alphabet, out)


def oracle_cyclic_reduction(x):
    """(core, conjugator) with x = conjugator core conjugator^-1, by
    stripping one matching first/last pair at a time from a copied list."""
    letters = list(x.letters)
    prefix = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        prefix.append(letters[0])
        letters = letters[1:-1]
    return W.Word(x.alphabet, tuple(letters)), W.Word(x.alphabet, tuple(prefix))


def oracle_least_rotation(letters):
    """The least index of the lexicographically least rotation, letters
    compared by name and then sign (plain first), by comparing every
    rotation with the best so far."""
    if not letters:
        return 0
    keys = [(name, 0 if sign > 0 else 1) for name, sign in letters]
    best = 0
    for i in range(1, len(letters)):
        if keys[i:] + keys[:i] < keys[best:] + keys[:best]:
            best = i
    return best


def oracle_verify_order_spec(q, spec):
    from forge.quotients import _cyclic_subgroup, identity_perm
    order_report = []
    perms = [q.evaluate(t) for t in spec.targets]
    ok = True
    for i, (perm, e) in enumerate(zip(perms, spec.exponents)):
        expected = spec.kappa * e
        actual = oracle_perm_order(perm)
        good = actual == expected
        ok = ok and good
        order_report.append({"target": i, "expected": expected,
                             "actual": actual, "ok": good})
    subgroups = [_cyclic_subgroup(perm) for perm in perms]
    pair_report = []
    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            meet = subgroups[i] & subgroups[j]
            good = meet == {identity_perm(q.degree)}
            ok = ok and good
            pair_report.append({"pair": (i, j), "intersection_size": len(meet),
                                "ok": good})
    return ok, {"orders": order_report, "intersections": pair_report}


def oracle_reduce(alphabet, letters):
    """Freely reduce a raw letter sequence; idempotent."""
    stack = []
    for name, sign in letters:
        alphabet.check(name)
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return W.Word(alphabet, tuple(stack))


def oracle_find_move(alphabet, relators):
    best = None
    for idx, r in enumerate(relators):
        counts = {}
        for g, _ in r.letters:
            counts[g] = counts.get(g, 0) + 1
        for pos, (g, sign) in enumerate(r.letters):
            if counts[g] != 1:
                continue
            key = (len(r.letters), idx, pos)
            if best is None or key < best[0]:
                best = (key, idx, pos, g, sign)
            break
    if best is None:
        return None
    _, idx, pos, g, sign = best
    letters = relators[idx].letters
    u, v = letters[:pos], letters[pos + 1:]
    solved = tuple((h, -s) for h, s in reversed(u)) \
        + tuple((h, -s) for h, s in reversed(v))
    if sign < 0:
        solved = tuple((h, -s) for h, s in reversed(solved))
    return g, solved, idx


def oracle_simplify_presentation(p):
    from forge.presentations import FinitePresentation
    from forge.quotients import SimplifiedPresentation
    alphabet = p.alphabet
    relators = list(p.relators)
    steps = []  # (gen, expression Word over the post-elimination alphabet)
    while True:
        move = oracle_find_move(alphabet, relators)
        if move is None:
            break
        gen, expr_letters, drop_index = move
        new_alphabet = W.Alphabet(tuple(g for g in alphabet.names if g != gen))
        expr = oracle_reduce(new_alphabet, expr_letters)
        steps.append((gen, expr))
        table = {g: oracle_reduce(new_alphabet, [(g, 1)]) for g in new_alphabet.names}
        table[gen] = expr
        new_relators = []
        for idx, r in enumerate(relators):
            if idx == drop_index:
                continue
            reduced = oracle_substitute(r, new_alphabet, table)
            if not reduced.is_identity():
                new_relators.append(reduced)
        alphabet, relators = new_alphabet, new_relators
    return SimplifiedPresentation(FinitePresentation(alphabet, relators), steps)


def oracle_expressions(simp):
    """Each original generator over the simplified alphabet, built eagerly
    from the steps, last step first."""
    alphabet = simp.presentation.alphabet
    expressions = {g: oracle_reduce(alphabet, [(g, 1)]) for g in alphabet.names}
    for gen, expr in reversed(simp.steps):
        expressions[gen] = oracle_substitute(expr, alphabet, expressions)
    return expressions


def oracle_transfer_word(simp, word):
    return oracle_substitute(word, simp.presentation.alphabet, oracle_expressions(simp))


def oracle_restore_assignment(p, simp, q):
    from forge.quotients import PermutationAssignment
    images = {g: oracle_evaluate(q, expr) for g, expr in oracle_expressions(simp).items()}
    return PermutationAssignment(q.degree, {g: images[g] for g in p.generators})


@contextlib.contextmanager
def seed_search_kernel():
    """Run forge's searches on the oracle kernel: the search generator,
    perm_mul, PermutationAssignment.evaluate, the order-spec check, the
    simplifier and the transfers through its expressions are replaced in
    forge.quotients, so its degree loop, and the CLI on top of it, run
    unchanged."""
    from forge import quotients
    with mock.patch.object(quotients, "_enumerate_homs", oracle_enumerate_homs), \
            mock.patch.object(quotients, "perm_mul", oracle_perm_mul), \
            mock.patch.object(quotients.PermutationAssignment, "evaluate",
                              oracle_evaluate), \
            mock.patch.object(quotients, "verify_order_spec", oracle_verify_order_spec), \
            mock.patch.object(quotients, "simplify_presentation",
                              oracle_simplify_presentation), \
            mock.patch.object(quotients, "_transfer_word", oracle_transfer_word), \
            mock.patch.object(quotients, "_restore_assignment",
                              oracle_restore_assignment):
        yield


def oracle_cmd_quotients(args, inputs, artifacts):
    """The `forge quotients` handler with its own degree loop, as it was
    before the library's `search` took the loop over: a fresh budget per
    degree, witnesses restored to the input generators.  Like every
    handler it fills `inputs` and returns (status, details)."""
    from forge import fileformats as FF
    from forge.cli import _digest, _load, _parse_orders
    from forge.errors import ForgeError
    from forge.quotients import (OrderSpec, SearchBudget, _Budget, _BudgetStop,
                                 _enumerate_homs, _restore_assignment,
                                 _transfer_word, identity_perm,
                                 simplify_presentation, verify_order_spec)
    budget = SearchBudget(max_degree=args.max_degree, max_nodes=args.max_nodes)
    p = _load(inputs, "presentation", args.presentation, FF.parse_presentation)
    details = []

    spec = None
    if args.orders:
        kappa, exponents = _parse_orders(args.orders)
        targets = tuple(p.alphabet.gen(g) for g in p.generators)
        if len(exponents) != len(targets):
            raise ForgeError(f"--orders gives {len(exponents)} exponents for "
                             f"{len(targets)} generators")
        spec = OrderSpec(targets=targets, kappa=kappa, exponents=exponents)
        inputs["orders"] = _digest(args.orders)
        search_p, word = p, None
    elif args.word:
        inputs["word"] = _digest(args.word)
        simp = simplify_presentation(p)
        search_p = simp.presentation
        word = _transfer_word(simp, W.parse_word(p.alphabet, args.word))
    else:
        simp = simplify_presentation(p)
        search_p = simp.presentation
        word = None

    witness = None
    witness_degree = None
    for n in range(2, budget.max_degree + 1):
        tracker = _Budget(SearchBudget(max_degree=n, max_nodes=budget.max_nodes))
        found = None
        try:
            for q in _enumerate_homs(search_p, n, tracker, reduce_first=True):
                if spec is not None:
                    ok, _ = verify_order_spec(q, spec)
                    if ok:
                        found = q
                        break
                elif word is not None:
                    if q.evaluate(word) != identity_perm(n):
                        found = _restore_assignment(p, simp, q)
                        break
                else:
                    full = _restore_assignment(p, simp, q)
                    if not full.is_trivial():
                        found = full
                        break
        except _BudgetStop:
            details.append((f"degree {n}", f"nodes={tracker.nodes} (budget hit)"))
            break
        details.append((f"degree {n}", f"nodes={tracker.nodes}"))
        if found is not None:
            witness, witness_degree = found, n
            break

    if witness is not None:
        details.append(("witness degree", str(witness_degree)))
        for g in sorted(witness.images):
            details.append((f"witness {g}", oracle_cycle_notation(witness.images[g])))
        return "witness", details
    details.append(("conclusion", "no witness found; no conclusion"))
    return "inconclusive", details


@contextlib.contextmanager
def oracle_quotients_command():
    """Route `forge quotients` through oracle_cmd_quotients; main's parsing,
    error handling and printing run unchanged."""
    from forge import cli

    class Parser:
        def parse_args(self, argv):
            args = cli.build_parser().parse_args(argv)
            if args.subcommand == "quotients":
                args.handler = oracle_cmd_quotients
            return args

    with mock.patch.object(cli, "_parser", Parser):
        yield


def oracle_free_power(p, n):
    """n - 1 nested free products, each renaming the new copy over every
    name taken so far."""
    from forge.errors import DegenerateInputError
    from forge.presentations import free_product
    if n < 1:
        raise DegenerateInputError("free_power requires n >= 1")
    out = p
    for _ in range(n - 1):
        out = free_product(out, p)
    return out


# forge's records as they were declared with @dataclass, kept as oracles for
# the namedtuples that replaced them (test_records.py compares ==, hash, repr,
# refusals and frozen fields).  Each keeps its fields, defaults, validation
# and the methods that decide ==, hash or repr; the rest of its methods are
# left out.  Six of them (SearchOutcome, SimplifiedPresentation,
# EncodingTrace, LinkGraph, BuiltComplex, RunReport) were once mutable
# dataclasses; no caller assigned a field after building one, so they became
# namedtuples as well, and their oracles are frozen to match: assigning a
# field is refused, and a record hashes as the tuple of its fields.  A record
# annotated with another record names it as a string, as class bodies do not
# see the names around them in this class.
class Dataclass:
    @dataclass(frozen=True)
    class Word:
        alphabet: W.Alphabet
        letters: tuple

        def __post_init__(self):
            for i in range(len(self.letters) - 1):
                a, b = self.letters[i], self.letters[i + 1]
                if a[0] == b[0] and a[1] == -b[1]:
                    raise ValueError("Word letters are not freely reduced; use reduce()")
            W.check_letters(self.alphabet, self.letters)

        def __repr__(self):
            return f"Word({W.format_word(self)})"

    @dataclass(frozen=True)
    class AbelianInvariants:
        betti: int
        torsion: tuple

        def __post_init__(self):
            for a, b in zip(self.torsion, self.torsion[1:]):
                if b % a:
                    raise ValueError("torsion divisors must form a chain")

    @dataclass(frozen=True)
    class PermutationAssignment:
        degree: int
        images: dict = field(compare=False)

        def __post_init__(self):
            object.__setattr__(self, "images", dict(self.images))

        def __eq__(self, other):
            return (isinstance(other, Dataclass.PermutationAssignment)
                    and self.degree == other.degree and self.images == other.images)

    @dataclass(frozen=True)
    class OrderSpec:
        targets: tuple
        kappa: int
        exponents: tuple

        def __post_init__(self):
            object.__setattr__(self, "targets", tuple(self.targets))
            object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
            if len(self.targets) != len(self.exponents):
                raise DegenerateInputError("one exponent per target is required")
            if len(self.targets) < 2:
                raise DegenerateInputError("an order spec needs at least two targets")
            if self.kappa < 1 or any(e < 1 for e in self.exponents):
                raise DegenerateInputError("kappa and all exponents must be >= 1")

    @dataclass(frozen=True)
    class SearchBudget:
        max_degree: int
        max_nodes: int = 10 ** 7
        time_limit: float | None = None

        def __post_init__(self):
            if self.max_degree < 1 or self.max_nodes < 1:
                raise DegenerateInputError("budget bounds must be positive")
            if self.time_limit is not None and self.time_limit <= 0:
                raise DegenerateInputError("time limit must be positive")

    @dataclass(frozen=True)
    class SearchOutcome:
        status: str
        witness: "PermutationAssignment | None"
        nodes: int
        max_degree_searched: int
        degrees: list = field(default_factory=list)
        excluded: tuple = ()
        even_only: bool = False
        perfect: bool = False

    @dataclass(frozen=True)
    class SimplifiedPresentation:
        presentation: FinitePresentation
        steps: list

    @dataclass(frozen=True)
    class FibreProductComponent:
        index: int
        vertices: tuple
        edge_count: int
        rank: int
        is_tree: bool
        is_diagonal: bool

    @dataclass(frozen=True)
    class FibreProductDecomposition:
        total: "LabeledGraph"
        components: tuple

    @dataclass(frozen=True)
    class MalnormalityWitness:
        pair: tuple
        component: "FibreProductComponent"

    @dataclass(frozen=True)
    class KernelRewriting:
        modulus: int
        alpha: str
        beta: str

        def __post_init__(self):
            if self.modulus < 1:
                raise DegenerateInputError("modulus must be >= 1")
            if self.alpha == self.beta:
                raise DegenerateInputError("alpha and beta must differ")

    @dataclass(frozen=True)
    class MalnormalCertificate:
        m: int
        modulus: int
        tuple_uv: tuple
        rank: int
        family_malnormal: bool
        base_rank: int
        translates_malnormal: bool

    @dataclass(frozen=True)
    class EncodingTrace:
        input_presentation: FinitePresentation
        input_word: W.Word
        modulus: int
        short_circuited: bool
        p_dagger: FinitePresentation | None = None
        w_dagger: W.Word | None = None
        p_prime: FinitePresentation | None = None
        w_prime: W.Word | None = None
        p1: FinitePresentation | None = None
        b_letters: tuple = ()
        p2: FinitePresentation | None = None
        t_letter: str | None = None
        u: W.Word | None = None
        v: W.Word | None = None
        c_words_tw: tuple = ()
        c_words: tuple = ()
        certificate: "MalnormalCertificate | None" = None
        p_w: FinitePresentation | None = None
        abelianizations: dict | None = None

    @dataclass(frozen=True)
    class LinkGraph:
        vertex: object
        nodes: tuple
        arcs: list = field(default_factory=list)

    @dataclass(frozen=True)
    class BuiltComplex:
        complex: SquareComplex

    @dataclass(frozen=True)
    class RunReport:
        command: str
        inputs: dict
        status: str
        timing: float = 0.0
        artifacts: list = field(default_factory=list)
        details: list = field(default_factory=list)

        def __post_init__(self):
            if self.status not in EXIT_CODES:
                raise ValueError(f"unknown status {self.status!r}")


# A dataclass's repr names its class by __qualname__; forge's records are
# module-level, so each oracle prints the name alone, as they did.
for _record in vars(Dataclass).values():
    if isinstance(_record, type):
        _record.__qualname__ = _record.__name__
