"""Subgroup graphs over finite base graphs: Stallings folding, cores,
fibre products and the malnormality certifiers.

A subgroup of the fundamental group of a finite labeled base graph is
represented by an immersion of a finite core graph into the base.  Edge
labels of the domain are edge ids of the base.  All operations are pure;
outputs are canonically relabeled so equal subgroups give byte-identical
graphs over one base as given: the canonical form follows the order of the
base's edges and, for a graph with no basepoint or several components, the
order of its vertices.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import (BaseMismatchError, ConfigurationError, DegenerateInputError,
                     InvalidActionError, NotALoopError)
from .words import MAX_WORD_LETTERS


def positions(vertices):
    """Each vertex of the tuple `vertices` mapped to its position there; the
    first vertex, in that order, that repeats an earlier one is refused."""
    place = {v: k for k, v in enumerate(vertices)}
    if len(place) != len(vertices):
        first = {}
        v = next(v for k, v in enumerate(vertices) if first.setdefault(v, k) != k)
        raise ConfigurationError(f"vertex {v!r} is repeated", ("vertex", v))
    return place


class LabeledGraph:
    """Finite directed graph; edges carry a label (a base-graph edge id).
    Vertices and edges keep the order given, which is the only order the
    operations here read; equality ignores it.  `position` maps each vertex
    to its position in that order.

    For a base graph the label of every edge is its own id; a rose is a
    base graph with a single vertex.
    """

    def __init__(self, vertices, edges, basepoint=None):
        self.vertices = tuple(vertices)
        place = self.position = positions(self.vertices)
        self.edges = dict(edges)  # eid -> (src, dst, label)
        for eid, (src, dst, label) in self.edges.items():
            if src not in place or dst not in place:
                raise ConfigurationError(f"edge {eid!r} has an endpoint outside the graph",
                                         ("edge", eid))
        if basepoint is not None and basepoint not in place:
            raise ConfigurationError(f"basepoint {basepoint!r} is not a vertex",
                                     ("basepoint", basepoint))
        self.basepoint = basepoint

    def __eq__(self, other):
        return (isinstance(other, LabeledGraph)
                and self.position.keys() == other.position.keys()
                and self.edges == other.edges
                and self.basepoint == other.basepoint)

    def __repr__(self):
        return (f"LabeledGraph(V={len(self.vertices)}, E={len(self.edges)}, "
                f"basepoint={self.basepoint!r})")


def _component_data(graph):
    """(vertex list, edge count) of each connected component, from one
    union-find pass: the lists keep `graph.vertices`' order and come out
    ordered by first vertex."""
    index = graph.position
    parent = list(range(len(index)))
    for src, dst, _ in graph.edges.values():
        a, b = _find(parent, index[src]), _find(parent, index[dst])
        if a != b:
            parent[b] = a
    roots = [_find(parent, i) for i in range(len(parent))]
    slot = {}
    comps = []
    for v, root in zip(graph.vertices, roots):
        k = slot.setdefault(root, len(comps))
        if k == len(comps):
            comps.append([])
        comps[k].append(v)
    counts = [0] * len(comps)
    for src, _, _ in graph.edges.values():
        counts[slot[roots[index[src]]]] += 1
    return list(zip(comps, counts))


def _find(parent, i):
    """Root of position i in a union-find parent list, halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def rose(labels):
    """Base graph with one vertex, "*", and one loop per label."""
    return LabeledGraph(["*"], {label: ("*", "*", label) for label in labels}, "*")


class GraphImmersion:
    """A label-preserving map of a finite graph into a base graph.

    `vmap` sends each domain vertex, and no other key, to a base vertex;
    the edge map is implied by the labels.  With `folded=True` the
    immersion condition (no two equally-labeled edges leaving or entering
    a common vertex) is checked by building `membership`'s tables
    (`_steps`), kept from construction.
    """

    def __init__(self, domain, base, vmap, folded=True):
        self.domain = domain
        self.base = base
        self.vmap = dict(vmap)
        for v in domain.vertices:
            if v not in self.vmap or self.vmap[v] not in base.position:
                raise ConfigurationError(f"vertex {v!r} is not mapped into the base",
                                         ("vertex", v))
        if len(self.vmap) != len(domain.vertices):
            v = next(v for v in self.vmap if v not in domain.position)
            raise ConfigurationError(f"vmap names {v!r}, which is not a vertex", ("vmap", v))
        for eid, (src, dst, label) in domain.edges.items():
            if label not in base.edges:
                raise ConfigurationError(f"edge {eid!r} carries unknown label {label!r}",
                                         ("edge", eid))
            bsrc, bdst, _ = base.edges[label]
            if self.vmap[src] != bsrc or self.vmap[dst] != bdst:
                raise ConfigurationError(
                    f"edge {eid!r} is not label-consistent with the base", ("edge", eid))
        if domain.basepoint is not None and base.basepoint is not None:
            if self.vmap[domain.basepoint] != base.basepoint:
                raise ConfigurationError("basepoints do not correspond under the map",
                                         ("basepoint", domain.basepoint))
        self.folded = folded
        self._tables = _steps(domain) if folded else None

    def __eq__(self, other):
        return (isinstance(other, GraphImmersion)
                and self.domain == other.domain
                and self.base == other.base
                and self.vmap == other.vmap)

    def __repr__(self):
        return f"GraphImmersion({self.domain!r} -> {self.base!r})"


def _steps(graph):
    """The successor and predecessor tables of an immersion, (vertex, label)
    -> vertex.  A graph where two edges with one label share a source or a
    target is refused, naming the first edge that repeats an earlier one's."""
    edges = graph.edges
    out = {(src, label): dst for src, dst, label in edges.values()}
    inc = {(dst, label): src for src, dst, label in edges.values()}
    if len(out) == len(inc) == len(edges):
        return out, inc
    first = {}, {}
    eid = next(eid for k, (eid, (src, dst, label)) in enumerate(edges.items())
               if first[0].setdefault((src, label), k) != k
               or first[1].setdefault((dst, label), k) != k)
    raise ConfigurationError("graph is not an immersion; fold it first", ("edge", eid))


def fold(morphism):
    """Fold a label-preserving graph map to an immersion (`_fold` over the
    domain's vertex positions), canonically relabeled."""
    return _rebuilt(morphism, _fold, True)


def core(immersion):
    """Trim degree-1 vertices repeatedly, keeping the basepoint even when it
    has degree 1 so membership stays evaluable (`_trim` over the domain's
    vertex positions), canonically relabeled."""
    return _rebuilt(immersion, _trim, immersion.folded)


def canonical_form(immersion):
    """Relabel vertices by BFS order from the basepoint (then from each
    vertex not yet reached, in vertex order) and edges in (src, label)
    order, labels in the base's edge order."""
    return _rebuilt(immersion, lambda *graph: graph, immersion.folded)


def _rebuilt(immersion, step, folded):
    """The one construction path, entered from an immersion's vertex order:
    `step` maps the domain on vertex positions (all positions, edges as
    (source, target, label), basepoint position or None) to a graph on a
    subset of them, which `_relabel` turns into the returned immersion."""
    graph = immersion.domain
    index = graph.position
    edges = [(index[src], index[dst], label) for src, dst, label in graph.edges.values()]
    bp = None if graph.basepoint is None else index[graph.basepoint]
    return _relabel(*step(range(len(index)), edges, bp),
                    [immersion.vmap[v] for v in graph.vertices], immersion.base, folded)


def _fold(vertices, edges, bp):
    """Fold a graph on the positions 0..n-1 (`vertices`) to an immersion.

    A worklist union-find: every class keeps one out- and one in-neighbour
    per label, and merging two classes moves the smaller table into the
    larger, queueing the far endpoints of any label the two share.  Each
    class is named by its least position; the names come back in
    increasing order, with the folded edges and basepoint on them."""
    n = len(vertices)
    parent = list(range(n))
    out = [{} for _ in range(n)]   # class root -> {label: some far endpoint}
    inc = [{} for _ in range(n)]
    pending = []
    for s, d, label in edges:
        far = out[s].setdefault(label, d)
        if far != d:
            pending.append((far, d))
        far = inc[d].setdefault(label, s)
        if far != s:
            pending.append((far, s))
    while pending:
        a, b = pending.pop()
        a, b = _find(parent, a), _find(parent, b)
        if a == b:
            continue
        if len(out[a]) + len(inc[a]) < len(out[b]) + len(inc[b]):
            a, b = b, a
        parent[b] = a
        for keep, gone in ((out[a], out[b]), (inc[a], inc[b])):
            for label, far in gone.items():
                other = keep.setdefault(label, far)
                if other != far:
                    pending.append((other, far))
        out[b] = inc[b] = None
    name = {}
    for i in range(n):
        name.setdefault(_find(parent, i), i)
    folded = [(name[root], name[_find(parent, far)], label)
              for root, table in enumerate(out) if table is not None
              for label, far in table.items()]
    return list(name.values()), folded, None if bp is None else name[_find(parent, bp)]


def _trim(vertices, edges, bp):
    """The core of a graph on positions: vertices of degree at most 1 other
    than the basepoint are dropped, with their edges, until none is left.
    The kept vertices stay in their order."""
    neighbours = {v: [] for v in vertices}
    for s, d, _ in edges:
        neighbours[s].append(d)
        neighbours[d].append(s)
    degree = {v: len(us) for v, us in neighbours.items()}
    trimmed = {v for v, k in degree.items() if k <= 1 and v != bp}
    queue = list(trimmed)
    while queue:
        for u in neighbours[queue.pop()]:
            if u not in trimmed:
                degree[u] -= 1
                if degree[u] <= 1 and u != bp:
                    trimmed.add(u)
                    queue.append(u)
    return ([v for v in vertices if v not in trimmed],
            [e for e in edges if e[0] not in trimmed and e[1] not in trimmed], bp)


def _relabel(vertices, edges, bp, base_vertices, base, folded):
    """The canonical immersion of a graph on positions, which every
    construction here returns.  Vertices are numbered in BFS order from the
    basepoint, then from each of `vertices` not yet reached; neighbours are
    visited in (label, direction, position) order and edges numbered in
    (source, label, target) order, labels ranked by their position in the
    base's edges, so labels of mixed types need no comparison.
    `base_vertices` holds each position's image."""
    rank = {label: r for r, label in enumerate(base.edges)}
    # A neighbour is coded (2 rank + direction) n + position, so one
    # integer sort gives the visiting order.
    n = len(base_vertices)
    adjacency = {v: [] for v in vertices}
    for s, d, label in edges:
        code = 2 * rank[label] * n
        adjacency[s].append(code + d)
        adjacency[d].append(code + n + s)
    number = [-1] * n
    order = []
    for start in [bp, *vertices] if bp is not None else vertices:
        if number[start] >= 0:
            continue
        k = number[start] = len(order)
        order.append(start)
        while k < len(order):
            v, k = order[k], k + 1
            for code in sorted(adjacency[v]):
                u = code % n
                if number[u] < 0:
                    number[u] = len(order)
                    order.append(u)
    edge_items = sorted((number[s], rank[label], number[d], label) for s, d, label in edges)
    domain = LabeledGraph(
        range(len(order)),
        {i: (s, d, label) for i, (s, _, d, label) in enumerate(edge_items)},
        None if bp is None else number[bp])
    vmap = {i: base_vertices[v] for i, v in enumerate(order)}
    return GraphImmersion(domain, base, vmap, folded=folded)


def _trace_in_base(base, word):
    """Base path of a word starting at the base basepoint; raises if the word
    is not readable or not a loop."""
    if base.basepoint is None:
        raise ConfigurationError("base graph has no basepoint")
    at = base.basepoint
    path = [at]
    for label, sign in word.letters:
        if label not in base.edges:
            raise NotALoopError(f"word uses unknown base edge {label!r}")
        src, dst, _ = base.edges[label]
        if sign > 0:
            if src != at:
                raise NotALoopError(f"edge {label!r} is not readable at {at!r}")
            at = dst
        else:
            if dst != at:
                raise NotALoopError(f"edge {label!r} is not readable backwards at {at!r}")
            at = src
        path.append(at)
    if at != base.basepoint:
        raise NotALoopError("word does not close up at the basepoint")
    return path


def graph_of_subgroup(base, generators):
    """Core immersion of the subgroup generated by loop words at the basepoint.

    Builds a wedge of subdivided circles on vertex positions (0 is the
    basepoint, then each word's inner vertices in order), folds it and
    relabels once.  A Word is reduced, so its circle has no backtrack and
    folding leaves no vertex but the basepoint with degree below 2: the
    folded wedge is already its core.  Folding is confluent, so the BFS
    from the basepoint never reads the intermediate names: the output is
    the canonical core graph of the subgroup, the graph core(fold(wedge))
    gives.
    """
    base_vertices = [base.basepoint]
    edges = []
    for word in generators:
        path = _trace_in_base(base, word)
        first = len(base_vertices)
        chain = [0, *range(first, first + len(word.letters) - 1), 0]
        base_vertices.extend(path[1:-1])
        for (label, sign), u, v in zip(word.letters, chain, chain[1:]):
            edges.append((u, v, label) if sign > 0 else (v, u, label))
    return _relabel(*_fold(range(len(base_vertices)), edges, 0), base_vertices, base, True)


def rank(graph):
    """E - V + 1 for each connected component, keyed by first vertex."""
    return {vs[0]: e - len(vs) + 1 for vs, e in _component_data(graph)}


def total_rank(graph):
    """Rank of a connected graph."""
    ranks = rank(graph)
    if len(ranks) != 1:
        raise ConfigurationError("total_rank requires a connected graph")
    return next(iter(ranks.values()))


def membership(immersion, word):
    """True iff the word traces a closed loop at the domain basepoint, read
    in the immersion's tables; those of one built with `folded=False` are
    built for the call, which refuses a graph that is not an immersion."""
    _trace_in_base(immersion.base, word)
    graph = immersion.domain
    if graph.basepoint is None:
        raise ConfigurationError("domain graph has no basepoint")
    out, inc = immersion._tables or _steps(graph)
    at = graph.basepoint
    for label, sign in word.letters:
        nxt = out.get((at, label)) if sign > 0 else inc.get((at, label))
        if nxt is None:
            return False
        at = nxt
    return at == graph.basepoint


FibreProductComponent = namedtuple(
    "FibreProductComponent", "index vertices edge_count rank is_tree is_diagonal")

FibreProductDecomposition = namedtuple("FibreProductDecomposition", "total components")


def fibre_product(i1, i2):
    """The pullback {(y1, y2) : i1(y1) = i2(y2)} with its component data.

    This is the one full construction: `forge fibre` reports it, and the
    malnormality certifiers build it only to name a witness, deciding every
    other pair from the product edges alone (`_refutes`).  The pairs are
    built with y1 in the first factor's vertex order and, within the fibre
    of i1(y1), y2 in the second's; the edges (e1, e2) likewise, in the two
    factors' edge orders.  Components are numbered by first vertex pair;
    the diagonal component is flagged only when both factors are the same
    immersion.
    """
    if i1.base != i2.base:
        raise BaseMismatchError("fibre product requires a common base graph")
    same = i1 == i2
    g1, g2 = i1.domain, i2.domain
    fibre = {}
    for v2 in g2.vertices:
        fibre.setdefault(i2.vmap[v2], []).append(v2)
    vertices = [(v1, v2) for v1 in g1.vertices for v2 in fibre.get(i1.vmap[v1], ())]
    by_label = {}
    for e2, (s2, d2, label) in g2.edges.items():
        by_label.setdefault(label, []).append((e2, s2, d2))
    edges = {}
    for e1, (s1, d1, label) in g1.edges.items():
        for e2, s2, d2 in by_label.get(label, ()):
            edges[(e1, e2)] = ((s1, s2), (d1, d2), label)
    bp = None
    if g1.basepoint is not None and g2.basepoint is not None \
            and i1.vmap[g1.basepoint] == i2.vmap[g2.basepoint]:
        bp = (g1.basepoint, g2.basepoint)
    total = LabeledGraph(vertices, edges, bp)
    comps = []
    for idx, (vs, e) in enumerate(_component_data(total)):
        r = e - len(vs) + 1
        diagonal = same and any(a == b for a, b in vs)
        comps.append(FibreProductComponent(
            index=idx, vertices=tuple(vs), edge_count=e, rank=r,
            is_tree=(r == 0), is_diagonal=diagonal))
    return FibreProductDecomposition(total, tuple(comps))


class MalnormalityWitness(namedtuple("MalnormalityWitness", "pair component")):
    """A non-tree off-diagonal component of some pairwise fibre product."""

    __slots__ = ()


def _first_failure(fp, self_pair):
    """The first component refuting malnormality: a non-tree, unless it is
    the diagonal component of a self product."""
    return next(comp for comp in fp.components
                if not comp.is_tree and not (self_pair and comp.is_diagonal))


def _factor(graph):
    """What `_refutes` reads of a factor: its edges as (source, target)
    pairs of positions in the vertex order, grouped by label, and the
    vertex count."""
    index = graph.position
    by_label = {}
    for src, dst, label in graph.edges.values():
        by_label.setdefault(label, []).append((index[src], index[dst]))
    return by_label, len(index)


class _SparseParents(dict):
    """The parents of a sparse product's pair codes: a code not stored is a
    root, as -1 marks one in the flat list."""

    def __missing__(self, code):
        return -1


# A product with more than this many pair codes per product edge keeps its
# parents in a `_SparseParents` dict rather than in a flat list; `_refutes`
# says how the figure was measured.
_DENSE_CODES_PER_EDGE = 16


def _refutes(first, second, n1, n2, self_pair):
    """Whether the fibre product of two immersions over one base has a
    component that refutes malnormality, as `_first_failure` would find,
    without building it.  Each factor is given by its edges grouped by
    label and its vertex count (`_factor`); a self pair passes one factor
    twice.

    A vertex pair on no product edge is a one-vertex tree, so only the
    product's edges are walked, each end coded as
    position1(y1) * n2 + position2(y2) < n1 * n2, through a union-find with
    path halving (Tarjan and van Leeuwen) that links the second end's root
    under the first's.  The first edge whose ends already share a root
    closes a cycle (a loop or a parallel edge too), and refutes.

    The parents are a flat list of n1 * n2 entries, -1 at a root.  The
    product's edge count is known before the walk, and where the codes
    number more than _DENSE_CODES_PER_EDGE (16) times the edges, the same
    loop reads them from a `_SparseParents` dict, which holds only the
    codes the walk touches, so memory stays linear in the product's edges.
    The figure was measured on CPython 3.11 (2-core x86-64 VM), on walks of
    10^4 and 10^5 product edges that each touch two new codes: a list slot
    costs 8 bytes and 3-7 ns to make, and the dict 50-95 bytes more and
    0.2-0.45 us more per edge than the list's walk.  At 16 codes per edge
    the list holds 1.1-1.4 times the dict's memory and is still the faster;
    past about 64 it is the slower as well.

    A self pair is decided so on its quotient by the swap (y1, y2) ->
    (y2, y1).  Two edges with one label at one vertex of an immersion are
    equal, so the exempt diagonal pairs (y, y) form components of their
    own, and the swap acts freely on the rest.  A component it maps to
    itself double-covers its image, so its Euler characteristic is even
    and neither is a tree; any other maps onto its image one to one.  So
    the self pair refutes exactly when the quotient has a cycle.  Its edges
    are the unordered pairs of distinct edges with one label, each walked
    once, with ends coded as unordered pairs min * n2 + max."""
    # Each edge of the first factor carries its ends times n2, so a code
    # costs one addition.
    if self_pair:
        count = sum(len(pairs) * (len(pairs) - 1) // 2 for pairs in first.values())
        # The sources of one label's edges are distinct in an immersion, so
        # once sorted, each unordered pair comes lesser source first.
        groups = [[(s * n2, s, d * n2, d) for s, d in sorted(pairs)]
                  for pairs in first.values()]
        ends = ((s1n + s2, d1n + d2 if d1 < d2 else d2n + d1)
                for edges in groups
                for (s1n, _, d1n, d1), (_, s2, d2n, d2) in combinations(edges, 2))
    else:
        shared = [([(s * n2, d * n2) for s, d in pairs], second[label])
                  for label, pairs in first.items() if label in second]
        count = sum(len(edges1) * len(pairs2) for edges1, pairs2 in shared)
        ends = ((s1n + s2, d1n + d2)
                for edges1, pairs2 in shared
                for s1n, d1n in edges1 for s2, d2 in pairs2)
    size = n1 * n2
    parent = [-1] * size if size <= _DENSE_CODES_PER_EDGE * count else _SparseParents()
    for a, b in ends:
        # Find both roots, halving each path on the way.
        while (up := parent[a]) >= 0:
            top = parent[up]
            parent[a] = a = up if top < 0 else top
        while (up := parent[b]) >= 0:
            top = parent[up]
            parent[b] = b = up if top < 0 else top
        if a == b:
            return True
        parent[b] = a
    return False


def malnormal_family_check(family):
    """Certify that a family of subgroups (given as immersions over a common
    base) is malnormal: every component of every pairwise fibre product must
    be a tree, except the diagonal component of each self product.

    Members must be immersions; only a member built with `folded=False` is
    checked here, as construction refused any other that is not one.  Each
    pair is decided from its product edges alone (`_refutes`, each member
    read into its factor once); only the first refuting pair's fibre
    product is built, to name its first failing component.  Returns
    (True, None) or (False, witness)."""
    family = list(family)
    if any(member.base != family[0].base for member in family[1:]):
        raise BaseMismatchError("fibre product requires a common base graph")
    for member in family:
        if not member.folded:
            _steps(member.domain)
    factors = [_factor(member.domain) for member in family]
    for i, (first, n1) in enumerate(factors):
        for j in range(i, len(family)):
            second, n2 = factors[j]
            if _refutes(first, second, n1, n2, i == j):
                comp = _first_failure(fibre_product(family[i], family[j]), i == j)
                return False, MalnormalityWitness(pair=(i, j), component=comp)
    return True, None


class RelabelingAction:
    """The cyclic group generated by one automorphism g of a base graph that
    fixes every vertex, acting by relabeling edges.  Its elements are the
    powers 0..order-1 of g: the action keeps only g's edge images, a tuple
    in the base's edge order, and the order, and `maps(k)` builds g^k as
    an edge map.  Build one with `cyclic`."""

    @classmethod
    def cyclic(cls, base, edge_image):
        """The cyclic group generated by one edge map, which must be a
        permutation of the base's edges sending each edge onto an edge with
        the same two ends.  The group's order, `quotients.perm_order` of
        the map read as a tuple of edge positions, is known before any
        power is taken; a group whose order times the base's id count (its
        decisions, one per power, each over every id) is past
        MAX_WORD_LETTERS is refused."""
        from .quotients import perm_order   # importing stallings loads no search layer

        try:
            step = dict(edge_image)
        except (TypeError, ValueError):
            raise InvalidActionError("action element is not an edge map") from None
        edges, ids = base.edges, tuple(base.edges)
        images = _permutation_images(step, ids)
        for (eid, (src, dst, _)), image in zip(edges.items(), images):
            isrc, idst, _ = edges[image]
            if (isrc, idst) != (src, dst):
                raise InvalidActionError(
                    f"edge {eid!r} is not mapped onto an edge with its ends")
        order = perm_order(tuple(map(positions(ids).__getitem__, images)))
        count = len(base.vertices) + len(edges)
        if order * count > MAX_WORD_LETTERS:
            raise DegenerateInputError(
                f"cyclic action of order {order} makes {order} decisions over "
                f"{count} ids, more than {MAX_WORD_LETTERS} in all")
        action = cls()
        action.base, action.order, action._generator = base, order, images
        action.elements = list(range(order))
        return action

    def maps(self, k):
        """g^k as an edge map."""
        ids = tuple(self.base.edges)
        step, power = dict(zip(ids, self._generator)).__getitem__, ids
        for _ in range(k % self.order):
            power = tuple(map(step, power))
        return dict(zip(ids, power))


def _permutation_images(mapping, ids):
    """The images of the edge ids under mapping, in their order;
    InvalidActionError unless mapping permutes exactly those ids."""
    try:
        if len(mapping) == len(ids):
            images = tuple(map(mapping.__getitem__, ids))
            if set(images) == set(ids):
                return images
    except (LookupError, TypeError):   # an id it lacks, or an unhashable image
        pass
    raise InvalidActionError("edge map is not a permutation of the base edges")


def translate(immersion, edge_map):
    """Push an immersion through a base automorphism that fixes every vertex,
    given as its edge map: the edges are relabeled, and the vertex map and
    the basepoint stay."""
    graph = immersion.domain
    edges = {eid: (src, dst, edge_map[label]) for eid, (src, dst, label) in graph.edges.items()}
    domain = LabeledGraph(graph.vertices, edges, graph.basepoint)
    return GraphImmersion(domain, immersion.base, immersion.vmap, folded=immersion.folded)


def translate_family_check(base, action, subgroup, translates):
    """Malnormality certificate for the family of translated copies gH of a
    subgroup graph H (Stallings-side form of the double-coset criterion).

    `translates` are elements of the cyclic relabeling action, powers k of
    its generator g, over the subgroup's base; H must be an immersion.  The
    verdict and the witness are those of malnormal_family_check on the
    copies g^k H.  The fibre product of g^a H and g^b H has the same
    components (vertex pairs, edge counts, ranks) as that of H and g^x H,
    x = b - a (mod order), so the check decides powers x, not pairs, from
    H's labels relabelled by g^x (`_refutes`; no translated immersion is
    built).  x and -x refute together, so only x = 0..order/2 are decided,
    and only those whose relabelled labels meet H's: the others have no
    product edge.  The self pairs are one decision, and the identity x = 0
    counts for a pair i < j only when two translates are equal; an empty
    list decides nothing.  When no power refutes, the family is certified;
    otherwise row i's first failing j is the least later j with
    k_j = k_i + x (mod order) over the refuting x, and only the first
    failing pair in (i, j) order, i <= j, has a fibre product built, that
    of H and g^(k_j - k_i) H, to name its first failing component.  Only
    an H built with `folded=False` is checked for being an immersion here;
    construction refused any other that is not one."""
    if not base == action.base == subgroup.base:
        raise BaseMismatchError("translate check requires the action and the "
                                "subgroup over the given base graph")
    if not subgroup.folded:
        _steps(subgroup.domain)
    translates = list(translates)
    if not all(type(k) is int and 0 <= k < action.order for k in translates):
        raise InvalidActionError("translate is not an element of the action")
    pair = _first_failing_pair(action, subgroup, translates)
    if pair is None:
        return True, None
    i, j = pair
    fp = fibre_product(subgroup, translate(subgroup, action.maps(translates[j] - translates[i])))
    return False, MalnormalityWitness(pair=pair, component=_first_failure(fp, i == j))


def _first_failing_pair(action, subgroup, translates):
    """The first pair (i, j), i <= j, of translates (powers) whose copies of
    the subgroup refute malnormality, or None."""
    if not translates:
        return None
    by_label, n = _factor(subgroup.domain)
    if _refutes(by_label, by_label, n, n, True):
        return 0, 0
    positions = {}
    for j, k in enumerate(translates):
        positions.setdefault(k, []).append(j)
    # g^(b-a) is the identity exactly when a = b.
    repeated = len(positions) < len(translates)
    step = dict(zip(action.base.edges, action._generator))
    labels, pairs = list(by_label), list(by_label.values())
    order = action.order
    # Pair (i, j) refutes when k_j - k_i is in `refuting`, a set closed under
    # negation: relabelling both factors of H x g^x H by g^-x gives the edge
    # pairs of g^-x H x H on the same vertex positions, and swapping the
    # factors gives H x g^-x H, so `_refutes` answers alike for x and -x.
    # Hence only x = 0..order/2 are decided, each refuting x recorded with
    # -x.  A power whose labels miss H's has no product edge and cannot refute.
    refuting = set()
    for x in range(order // 2 + 1):
        # labels are H's labels relabelled by g^x.
        if (x or repeated) and not by_label.keys().isdisjoint(labels) \
                and _refutes(by_label, dict(zip(labels, pairs)), n, n, False):
            refuting.update((x, -x % order))
        labels = [step[label] for label in labels]
    for i, k in enumerate(translates):
        later = [j for x in refuting
                 for j in positions.get((k + x) % order, ()) if j > i]
        if later:
            return i, min(later)
    return None


class KernelRewriting(namedtuple("KernelRewriting", "modulus alpha beta")):
    """Rewriting data for the kernel of the retraction sending the grading
    letter to 1 (mod N) and the emitting letter to 0.

    Convention: the kernel generator e_c is beta^c alpha beta^-c."""

    __slots__ = ()

    def __new__(cls, modulus, alpha, beta):
        if modulus < 1:
            raise DegenerateInputError("modulus must be >= 1")
        if alpha == beta:
            raise DegenerateInputError("alpha and beta must differ")
        return super().__new__(cls, modulus, alpha, beta)


def kernel_alphabet(rw):
    from .words import Alphabet
    return Alphabet([f"e{i}" for i in range(rw.modulus)])


def rewrite_to_kernel(rw, word):
    """Rewrite a word over {alpha, beta} into the kernel generators e_0..e_{N-1}.

    Scans the word keeping the running beta-exponent c mod N; each alpha^+-
    emits e_c^+-.  Returns the e-word, or None when the total beta-exponent
    is nonzero mod N (the element lies outside the kernel)."""
    from .words import reduce as reduce_word
    target = kernel_alphabet(rw)
    c = 0
    letters = []
    for name, sign in word.letters:
        if name == rw.beta:
            c += sign
        elif name == rw.alpha:
            letters.append((f"e{c % rw.modulus}", sign))
        else:
            raise DegenerateInputError(
                f"kernel rewriting expects letters {rw.alpha!r}/{rw.beta!r}, got {name!r}")
    if c % rw.modulus:
        return None
    return reduce_word(target, letters)
