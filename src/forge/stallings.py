"""Subgroup graphs over finite base graphs: Stallings folding, cores,
fibre products and the malnormality certifiers.

A subgroup of the fundamental group of a finite labeled base graph is
represented by an immersion of a finite core graph into the base.  Edge
labels of the domain are edge ids of the base.  All operations are pure;
outputs are canonically relabeled so equal subgroups give byte-identical
graphs.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from dataclasses import dataclass, field

from .errors import (BaseMismatchError, ConfigurationError, DegenerateInputError,
                     InvalidActionError, NotALoopError)


class LabeledGraph:
    """Finite directed graph; edges carry a label (a base-graph edge id).

    For a base graph the label of every edge is its own id; a rose is a
    base graph with a single vertex.
    """

    def __init__(self, vertices, edges, basepoint=None):
        self._validate(sorted(set(vertices), key=_id_key), edges, basepoint)

    @classmethod
    def _presorted(cls, vertices, edges, basepoint=None):
        """A graph whose vertices are given distinct and in canonical
        (`_id_key`) order already, so they are not sorted again."""
        graph = cls.__new__(cls)
        graph._validate(vertices, edges, basepoint)
        return graph

    def _validate(self, vertices, edges, basepoint):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        self.edges = dict(edges)  # eid -> (src, dst, label)
        for eid, (src, dst, label) in self.edges.items():
            if src not in vset or dst not in vset:
                raise ConfigurationError(f"edge {eid!r} has an endpoint outside the graph")
        if basepoint is not None and basepoint not in vset:
            raise ConfigurationError(f"basepoint {basepoint!r} is not a vertex")
        self.basepoint = basepoint

    def __eq__(self, other):
        return (isinstance(other, LabeledGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges
                and self.basepoint == other.basepoint)

    def __repr__(self):
        return (f"LabeledGraph(V={len(self.vertices)}, E={len(self.edges)}, "
                f"basepoint={self.basepoint!r})")

    def components(self):
        """Vertex sets of the connected components, in canonical order."""
        return [vs for vs, _ in _component_data(self)]


def _id_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v)) \
        if not isinstance(v, tuple) else (2, 0, tuple(_id_key(x) for x in v))


def _component_data(graph):
    """(vertex list, edge count) of each connected component, from one
    union-find pass.  `graph.vertices` is in canonical order, so the lists
    come out sorted and ordered by least vertex without a sort."""
    index = {v: i for i, v in enumerate(graph.vertices)}
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
    """Root of position i in a union-find parent list (or a dict that holds
    i), halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def rose(labels, basepoint="*"):
    """Base graph with one vertex and one loop per label."""
    edges = {label: (basepoint, basepoint, label) for label in labels}
    return LabeledGraph([basepoint], edges, basepoint)


class GraphImmersion:
    """A label-preserving map of a finite graph into a base graph.

    `vmap` sends domain vertices to base vertices; the edge map is implied
    by the labels.  With `folded=True` the immersion condition (no two
    equally-labeled edges leaving or entering a common vertex) is enforced.
    """

    def __init__(self, domain, base, vmap, folded=True):
        self.domain = domain
        self.base = base
        self.vmap = dict(vmap)
        base_vertices = set(base.vertices)
        for v in domain.vertices:
            if v not in self.vmap or self.vmap[v] not in base_vertices:
                raise ConfigurationError(f"vertex {v!r} is not mapped into the base")
        for eid, (src, dst, label) in domain.edges.items():
            if label not in base.edges:
                raise ConfigurationError(f"edge {eid!r} carries unknown label {label!r}")
            bsrc, bdst, _ = base.edges[label]
            if self.vmap[src] != bsrc or self.vmap[dst] != bdst:
                raise ConfigurationError(
                    f"edge {eid!r} is not label-consistent with the base")
        if domain.basepoint is not None and base.basepoint is not None:
            if self.vmap[domain.basepoint] != base.basepoint:
                raise ConfigurationError("basepoints do not correspond under the map")
        if folded and not _is_immersion(domain):
            raise ConfigurationError("graph is not an immersion; fold it first")
        self.folded = folded

    def __eq__(self, other):
        return (isinstance(other, GraphImmersion)
                and self.domain == other.domain
                and self.base == other.base
                and self.vmap == other.vmap)

    def __repr__(self):
        return f"GraphImmersion({self.domain!r} -> {self.base!r})"


def _is_immersion(graph):
    """No two equally-labeled edges leave, or enter, a common vertex."""
    edges = graph.edges.values()
    return (len({(src, label) for src, _, label in edges}) == len(edges)
            and len({(dst, label) for _, dst, label in edges}) == len(edges))


def fold(morphism):
    """Fold a label-preserving graph map to an immersion.

    A worklist union-find: every class keeps one out- and one in-neighbour
    per label, and merging two classes moves the smaller table into the
    larger, queueing the far endpoints of any label the two share.  Each
    class is named by its least vertex, because canonical_form starts a
    component without the basepoint from its least-named vertex.  Folding
    is confluent, so the result does not depend on the merge order once the
    canonical relabeling is applied at the end.
    """
    graph = morphism.domain
    vertices = graph.vertices
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))
    out = [{} for _ in vertices]   # class root -> {label: some far endpoint}
    inc = [{} for _ in vertices]
    pending = []
    for src, dst, label in graph.edges.values():
        s, d = index[src], index[dst]
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
    for i, v in enumerate(vertices):
        name.setdefault(_find(parent, i), v)
    edges = {}
    for root, table in enumerate(out):
        if table is not None:
            for label, far in table.items():
                edges[len(edges)] = (name[root], name[_find(parent, far)], label)
    bp = graph.basepoint
    if bp is not None:
        bp = name[_find(parent, index[bp])]
    # The class names are met in vertex order, so they are in canonical order.
    folded = LabeledGraph._presorted(name.values(), edges, bp)
    vmap = {v: morphism.vmap[v] for v in folded.vertices}
    return canonical_form(GraphImmersion(folded, morphism.base, vmap))


def canonical_form(immersion):
    """Relabel vertices by BFS order from the basepoint (then least vertex
    for any remaining components) and edges in (src, label) order."""
    graph = immersion.domain
    order = []
    seen = set()
    adjacency = {}
    for src, dst, label in graph.edges.values():
        adjacency.setdefault(src, []).append((label, 0, dst))
        adjacency.setdefault(dst, []).append((label, 1, src))
    starts = []
    if graph.basepoint is not None:
        starts.append(graph.basepoint)
    starts.extend(graph.vertices)
    for start in starts:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            order.append(v)
            for _, _, u in sorted(adjacency.get(v, [])):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    rename = {v: i for i, v in enumerate(order)}
    edge_items = sorted(
        ((rename[src], label, rename[dst]) for src, dst, label in graph.edges.values()),
        key=lambda t: (t[0], _id_key(t[1]), t[2]))
    edges = {i: (src, dst, label) for i, (src, label, dst) in enumerate(edge_items)}
    bp = rename[graph.basepoint] if graph.basepoint is not None else None
    domain = LabeledGraph._presorted(range(len(order)), edges, bp)
    vmap = {rename[v]: immersion.vmap[v] for v in graph.vertices}
    return GraphImmersion(domain, immersion.base, vmap, folded=immersion.folded)


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

    Builds a wedge of subdivided circles, folds, and trims the core at the
    basepoint.  Folding is confluent so the output is the canonical core
    graph of the subgroup.
    """
    vertices = ["*"]
    edges = {}
    vmap = {"*": base.basepoint}
    for k, word in enumerate(generators):
        path = _trace_in_base(base, word)
        chain = ["*"] + [("w", k, i) for i in range(1, len(word.letters))] + ["*"]
        for i, (label, sign) in enumerate(word.letters):
            u, v = chain[i], chain[i + 1]
            if sign < 0:
                u, v = v, u
            edges[("e", k, i)] = (u, v, label)
        for i, v in enumerate(chain[:-1]):
            vertices.append(v)
            vmap[v] = path[i]
    wedge = GraphImmersion(LabeledGraph(set(vertices), edges, "*"), base, vmap,
                           folded=False)
    return core(fold(wedge))


def core(immersion):
    """Trim degree-1 vertices repeatedly, keeping the basepoint even when it
    has degree 1 so membership stays evaluable."""
    graph = immersion.domain
    neighbours = {v: [] for v in graph.vertices}
    for src, dst, _ in graph.edges.values():
        neighbours[src].append(dst)
        neighbours[dst].append(src)
    degree = {v: len(us) for v, us in neighbours.items()}
    trimmed = {v for v, d in degree.items() if d <= 1 and v != graph.basepoint}
    queue = deque(trimmed)
    while queue:
        for u in neighbours[queue.popleft()]:
            if u not in trimmed:
                degree[u] -= 1
                if degree[u] <= 1 and u != graph.basepoint:
                    trimmed.add(u)
                    queue.append(u)
    edges = {eid: e for eid, e in graph.edges.items()
             if e[0] not in trimmed and e[1] not in trimmed}
    kept = LabeledGraph._presorted([v for v in graph.vertices if v not in trimmed],
                                   edges, graph.basepoint)
    vmap = {v: immersion.vmap[v] for v in kept.vertices}
    return canonical_form(GraphImmersion(kept, immersion.base, vmap,
                                         folded=immersion.folded))


def rank(graph):
    """E - V + 1 for each connected component, keyed by least vertex."""
    return {vs[0]: e - len(vs) + 1 for vs, e in _component_data(graph)}


def total_rank(graph):
    """Rank of a connected graph."""
    ranks = rank(graph)
    if len(ranks) != 1:
        raise ConfigurationError("total_rank requires a connected graph")
    return next(iter(ranks.values()))


def membership(immersion, word):
    """True iff the word traces a closed loop at the domain basepoint."""
    _trace_in_base(immersion.base, word)
    graph = immersion.domain
    if graph.basepoint is None:
        raise ConfigurationError("domain graph has no basepoint")
    out = {}
    inc = {}
    for eid, (src, dst, label) in graph.edges.items():
        out[(src, label)] = dst
        inc[(dst, label)] = src
    at = graph.basepoint
    for label, sign in word.letters:
        nxt = out.get((at, label)) if sign > 0 else inc.get((at, label))
        if nxt is None:
            return False
        at = nxt
    return at == graph.basepoint


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
    total: LabeledGraph
    components: tuple
    projection_1: dict = field(compare=False)
    projection_2: dict = field(compare=False)


def fibre_product(i1, i2):
    """The pullback {(y1, y2) : i1(y1) = i2(y2)} with its component data.

    This is the one full construction: `forge fibre` reports it, and the
    malnormality certifiers build it only to name a witness, deciding every
    other pair from the product edges alone (`_refutes`).  Components are
    numbered by least vertex pair; the diagonal component is flagged only
    when both factors are the same immersion.  The pairs are built with y1
    in the first factor's vertex order and, within the fibre of i1(y1), y2
    in the second's; both orders are canonical, so the pairs come out in
    canonical order and are not sorted again.
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
    for e2 in sorted(g2.edges, key=_id_key):
        s2, d2, label = g2.edges[e2]
        by_label.setdefault(label, []).append((e2, s2, d2))
    edges = {}
    for e1 in sorted(g1.edges, key=_id_key):
        s1, d1, label = g1.edges[e1]
        for e2, s2, d2 in by_label.get(label, ()):
            edges[(e1, e2)] = ((s1, s2), (d1, d2), label)
    bp = None
    if g1.basepoint is not None and g2.basepoint is not None \
            and i1.vmap[g1.basepoint] == i2.vmap[g2.basepoint]:
        bp = (g1.basepoint, g2.basepoint)
    total = LabeledGraph._presorted(vertices, edges, bp)
    comps = []
    for idx, (vs, e) in enumerate(_component_data(total)):
        r = e - len(vs) + 1
        diagonal = same and any(a == b for a, b in vs)
        comps.append(FibreProductComponent(
            index=idx, vertices=tuple(vs), edge_count=e, rank=r,
            is_tree=(r == 0), is_diagonal=diagonal))
    pr1 = {v: v[0] for v in total.vertices}
    pr2 = {v: v[1] for v in total.vertices}
    return FibreProductDecomposition(total, tuple(comps), pr1, pr2)


@dataclass(frozen=True)
class MalnormalityWitness:
    """A non-tree off-diagonal component of some pairwise fibre product."""

    pair: tuple
    component: FibreProductComponent


def _first_failure(fp, self_pair):
    """The first component refuting malnormality: a non-tree, unless it is
    the diagonal component of a self product."""
    for comp in fp.components:
        if not comp.is_tree and not (self_pair and comp.is_diagonal):
            return comp
    return None


def _refutes(i1, i2, self_pair):
    """Whether the fibre product of i1 and i2 has a component that refutes
    malnormality, as `_first_failure` would find, without building it.

    A vertex pair on no product edge is a one-vertex tree, so the
    union-find runs over the endpoints of the product edges only, each
    pair coded as index1(y1) * |V2| + index2(y2).  An edge whose endpoints
    already share a root closes a cycle (a loop or a parallel edge too).
    Off a self pair the first cycle refutes.  On a self pair of one
    immersion, a cycle is exempt when its final component holds a diagonal
    pair (y, y), so the cycles are judged after the last edge."""
    if i1.base != i2.base:
        raise BaseMismatchError("fibre product requires a common base graph")
    g1, g2 = i1.domain, i2.domain
    width = len(g2.vertices)
    index2 = {v: k for k, v in enumerate(g2.vertices)}
    by_label = {}
    for s2, d2, label in g2.edges.values():
        by_label.setdefault(label, []).append((index2[s2], index2[d2]))
    index1 = {v: k * width for k, v in enumerate(g1.vertices)}
    exempt = self_pair and i1 == i2
    parent = {}
    cycles = []
    for s1, d1, label in g1.edges.values():
        s1, d1 = index1[s1], index1[d1]
        for s2, d2 in by_label.get(label, ()):
            a, b = s1 + s2, d1 + d2
            # A code not yet seen is a root of its own.
            if parent.setdefault(a, a) != a:
                a = _find(parent, a)
            if parent.setdefault(b, b) != b:
                b = _find(parent, b)
            if a != b:
                parent[b] = a
            elif not exempt:
                return True
            else:
                cycles.append(a)
    if not cycles:
        return False
    diagonal = {_find(parent, code) for code in range(0, width * width, width + 1)
                if code in parent}
    return any(_find(parent, root) not in diagonal for root in cycles)


def malnormal_family_check(family):
    """Certify that a family of subgroups (given as immersions over a common
    base) is malnormal: every component of every pairwise fibre product must
    be a tree, except the diagonal component of each self product.

    Each pair is decided from its product edges alone (`_refutes`); only
    the first refuting pair's fibre product is built, to name its first
    failing component.  Returns (True, None) or (False, witness)."""
    family = list(family)
    for i in range(len(family)):
        for j in range(i, len(family)):
            if _refutes(family[i], family[j], i == j):
                comp = _first_failure(fibre_product(family[i], family[j]), i == j)
                return False, MalnormalityWitness(pair=(i, j), component=comp)
    return True, None


class RelabelingAction:
    """A finite group acting on a base graph by label-graph automorphisms.

    Elements are pairs (vertex permutation, edge-id permutation); the action
    table must contain the identity and be closed under composition.  A
    finite set S of permutations is closed iff S = <S>, so the check grows
    <T> from the identity by search, where an element of S joins the
    generators T only when it is not yet in <T>; the first product outside
    the table refutes closure.  <T> at least doubles with each generator, so
    that is O(k |T|) products for k elements, |T| <= log2 k, not all k^2.
    Every element must be a pair of permutations, but only the generators'
    edge maps are walked for automorphism; a rejected table re-runs the
    full per-element checks in table order first, so it raises the error
    checking every element first would.

    The action also records a few coordinates, base edges (whose images fix
    their endpoints' images) and then vertices, whose images tell its
    elements apart: one edge for a rotation of a rose.  A coordinate joins
    only when it splits elements the earlier ones did not.
    """

    def __init__(self, base, elements):
        self.base = base
        self.elements = [(dict(vp), dict(ep)) for vp, ep in elements]
        vertices, edges = set(base.vertices), set(base.edges)
        if any(_permutation_error(vertices, edges, vp, ep) for vp, ep in self.elements):
            self._reject()
        table = {}
        for el in self.elements:
            table.setdefault(self._key(el), el)
        self._keys = table.keys()
        identity = (base.vertices, tuple(base.edges))
        if identity not in table:
            self._reject("action table does not contain the identity")
        reached, generators = {identity}, []
        for key, (vp, ep) in table.items():
            if key in reached:
                continue
            # Only a generator's edges are walked: the key fixes an element,
            # so the rest of <T> are products of checked automorphisms.
            if _edge_error(base, vp, ep):
                self._reject()
            generators.append((vp.__getitem__, ep.__getitem__))
            queue = list(reached)
            while queue:
                images_v, images_e = queue.pop()
                for v, e in generators:
                    # The key of g after x is x's key mapped through g.
                    y = (tuple(map(v, images_v)), tuple(map(e, images_e)))
                    if y not in reached:
                        if y not in table:
                            self._reject("action table is not closed under composition")
                        reached.add(y)
                        queue.append(y)
        distinct = list(table.values())
        self._coords, points, classes = [], [()] * len(distinct), 1
        for kind, x in [(1, e) for e in base.edges] + [(0, v) for v in base.vertices]:
            if classes == len(distinct):
                break
            split = [p + (el[kind][x],) for p, el in zip(points, distinct)]
            if len(set(split)) > classes:
                self._coords.append((kind, x))
                points, classes = split, len(set(split))
        self._by_coords = dict(zip(points, distinct))

    def _reject(self, message=None):
        """Raise the first error of the per-element automorphism checks, in
        table order, as checking every element first would; else `message`."""
        vertices, edges = set(self.base.vertices), set(self.base.edges)
        for vp, ep in self.elements:
            error = (_permutation_error(vertices, edges, vp, ep)
                     or _edge_error(self.base, vp, ep))
            if error:
                raise InvalidActionError(error)
        raise InvalidActionError(message)

    def _key(self, el):
        """The images of the base's vertices and edges, in the base's own
        order; None when `el` is not a map on exactly those."""
        vp, ep = el
        if len(vp) != len(self.base.vertices) or len(ep) != len(self.base.edges):
            return None
        try:
            return (tuple(map(vp.__getitem__, self.base.vertices)),
                    tuple(map(ep.__getitem__, self.base.edges)))
        except KeyError:
            return None

    def __contains__(self, el):
        return self._key(el) in self._keys

    @classmethod
    def cyclic(cls, base, edge_image, vertex_image=None):
        """The cyclic group generated by one automorphism."""
        if vertex_image is None:
            vertex_image = {v: v for v in base.vertices}
        elements = []
        vp = {v: v for v in base.vertices}
        ep = {e: e for e in base.edges}
        while True:
            elements.append((dict(vp), dict(ep)))
            vp = {v: vertex_image[vp[v]] for v in vp}
            ep = {e: edge_image[ep[e]] for e in ep}
            if all(vp[v] == v for v in vp) and all(ep[e] == e for e in ep):
                break
        return cls(base, elements)


def _permutation_error(vertices, edges, vp, ep):
    """Why (vp, ep) is not a pair of permutations of the base's vertex and
    edge ids (given as sets), or None."""
    if vp.keys() != vertices or set(vp.values()) != vertices:
        return "vertex map is not a permutation of the base vertices"
    if ep.keys() != edges or set(ep.values()) != edges:
        return "edge map is not a permutation of the base edges"
    return None


def _edge_error(base, vp, ep):
    """Why the permutations (vp, ep) are not an automorphism of base, or None."""
    for eid, (src, dst, _) in base.edges.items():
        isrc, idst, _ = base.edges[ep[eid]]
        if isrc != vp[src] or idst != vp[dst]:
            return f"edge {eid!r} is not mapped compatibly with the vertex map"
    return None


def translate(immersion, element):
    """Push an immersion through a base automorphism."""
    vp, ep = element
    graph = immersion.domain
    edges = {eid: (src, dst, ep[label]) for eid, (src, dst, label) in graph.edges.items()}
    vmap = {v: vp[immersion.vmap[v]] for v in graph.vertices}
    base = immersion.base
    basepoint = graph.basepoint
    # A vertex-moving automorphism may carry the basepoint fibre elsewhere;
    # the translated copy is then an unbased subgraph, which is all the
    # malnormality check needs.
    if basepoint is not None and base.basepoint is not None \
            and vmap[basepoint] != base.basepoint:
        basepoint = None
    domain = LabeledGraph._presorted(graph.vertices, edges, basepoint)
    return GraphImmersion(domain, base, vmap, folded=immersion.folded)


def translate_family_check(base, action, subgroup, translates):
    """Malnormality certificate for the family of translated copies gH of a
    subgroup graph H (Stallings-side form of the double-coset criterion).

    `translates` are elements of the relabeling action.  The verdict is that
    of malnormal_family_check on the copies, but from fewer products: the
    fibre product of gH and hH has the same components (vertex pairs, edge
    counts, ranks) as that of H and g^-1 hH, so one product per distinct
    (g^-1 h, whether the pair is a self pair) decides every pair.  Each is
    decided from its product edges alone (`_refutes`) and the verdicts are
    kept for this call only.  Every translate is checked to be in the action
    and the action is closed, so g^-1 h is an action element, named by its
    images of the action's distinguishing coordinates: a pair costs those
    few lookups.  The pairs are scanned in order of (i, j), i <= j; only the
    first failing pair's own fibre product is built, so the witness is that
    pair and its first failing component, exactly as malnormal_family_check
    on the copies would report."""
    translates = [(dict(el[0]), dict(el[1])) for el in translates]
    if not all(el in action for el in translates):
        raise InvalidActionError("translate is not an element of the action")
    # Images are tagged with their kind (0 vertex, 1 edge), as names may
    # clash; each inverse maps a translate's tagged images back to plain ids.
    points = [tuple((kind, el[kind][x]) for kind, x in action._coords)
              for el in translates]
    kinds = {kind for kind, _ in action._coords}
    inverses = [{} for _ in translates]
    for inverse, el in zip(inverses, translates):
        for kind in kinds:
            inverse.update(zip(zip(repeat(kind), el[kind].values()), el[kind]))
    decided = {True: {}, False: {}}   # self pair -> {g^-1 h's images: verdict}
    for i, inverse in enumerate(inverses):
        for j in range(i, len(translates)):
            # g^-1 h's images of the coordinates: h's images mapped through g^-1.
            images = tuple(map(inverse.__getitem__, points[j]))
            ok = decided[i == j].get(images)
            if ok is None:
                element = action._by_coords[images]
                ok = decided[i == j][images] = not _refutes(
                    subgroup, translate(subgroup, element), i == j)
            if not ok:
                fp = fibre_product(translate(subgroup, translates[i]),
                                   translate(subgroup, translates[j]))
                comp = _first_failure(fp, i == j)
                return False, MalnormalityWitness(pair=(i, j), component=comp)
    return True, None


@dataclass(frozen=True)
class KernelRewriting:
    """Rewriting data for the kernel of the retraction sending the grading
    letter to 1 (mod N) and the emitting letter to 0.

    Convention: the kernel generator e_c is beta^c alpha beta^-c."""

    modulus: int
    alpha: str
    beta: str

    def __post_init__(self):
        if self.modulus < 1:
            raise DegenerateInputError("modulus must be >= 1")
        if self.alpha == self.beta:
            raise DegenerateInputError("alpha and beta must differ")


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
