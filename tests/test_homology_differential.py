"""Differential tests: the sparse homology kernels (the one pivot loop of
the Smith normal form, H_1 with a spanning forest's columns dropped,
one-pass vertex links), the
integer edge key of a complex and S(P) written cell by cell in place against
the original dense kernels, orders ranked by the order given and the staged
S(P) build, kept in helpers.py as oracles.

Matrices and complexes come from seeded generators; hypothesis picks the
seeds (derandomized, so every run sees the same ones) and prints the failing
seed.  Invariant factors, H_1 and the full list of link violations, in
order, must agree.
"""

import random

import pytest
from hypothesis import given, settings

from forge import words as W
from forge.errors import ConfigurationError
from forge.presentations import FinitePresentation, abelianization
from forge.fileformats import format_complex, format_presentation, parse_complex
from forge.snf import smith_normal_form
from forge.squarecx import (EdgeLoop, SquareComplex, _copy_killing_relators,
                            _pi1_with_letters, build_S_of_P, cellular_h1,
                            check_link_condition, link, one_square_torus,
                            pi1_presentation)
from helpers import (component_count, derandomized, directed_edges, dst, exponent_sum,
                     is_connected,
                     oracle_bfs_forest, oracle_build_S_of_P, oracle_canonical_square, oracle_cellular_h1,
                     oracle_check_link_condition,
                     oracle_copy_killing_relators, oracle_format_complex,
                     oracle_is_locally_geodesic, oracle_link,
                     oracle_pi1_with_names, oracle_rank_d1,
                     oracle_smith_normal_form, random_reduced_word,
                     reverse, seeds, sparse_rows, src)

# Mostly units, with non-units and large entries so that the pivot loop
# goes on past its last +-1 pivot.
ENTRIES = (1, -1) * 6 + (2, -2, 3, -6, 12, 2 ** 40 + 15, -(3 ** 30))


# Mostly non-units, so that many rows gain their first unit only through a
# row operation (3 - 2 * 1, say).
FEW_UNITS = (1, -1, 2, -2, 3, -3, 5)


def random_matrix(rng, entries=ENTRIES):
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    density = rng.choice((0.15, 0.3, 0.6))
    m = [[rng.choice(entries) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        m.insert(rng.randint(0, rows), [0] * cols)
    if rng.random() < 0.3:
        j = rng.randint(0, cols)
        for row in m:
            row.insert(j, 0)
    return m


@given(seeds)
@derandomized
def test_snf_matches_dense_kernel(seed):
    m = random_matrix(random.Random(seed))
    assert smith_normal_form(sparse_rows(m)) == oracle_smith_normal_form(m)


@given(seeds)
@derandomized
def test_snf_matches_dense_kernel_on_few_units(seed):
    m = random_matrix(random.Random(seed), FEW_UNITS)
    assert smith_normal_form(sparse_rows(m)) == oracle_smith_normal_form(m)


@given(seeds)
@derandomized
def test_snf_matches_on_single_rows_and_columns(seed):
    rng = random.Random(seed)
    row = [rng.choice(ENTRIES + (0,) * 8) for _ in range(rng.randint(1, 15))]
    for m in ([row], [[x] for x in row]):
        assert smith_normal_form(sparse_rows(m)) == oracle_smith_normal_form(m)


# [[2, 3], [1, 1]]: row 0 has no unit until the pivot on row 1 turns its 3
# into 1.  [[6, 4], [4, 6]] and the last two have no unit at all, and the
# least entry moves between rows and columns as remainders shrink.
@pytest.mark.parametrize("m", [[], [[]], [[], []], [[0, 0, 0]], [[0], [0]],
                               [[-1]], [[2 ** 70]], [[4, 6], [6, 9]],
                               [[2, 3], [1, 1]], [[6, 4], [4, 6]],
                               [[2 ** 40 + 15, -(3 ** 30)], [-(3 ** 30), 2 ** 40 + 15]],
                               [[2 ** 40 + 15, -(3 ** 30)], [0, 2 ** 40 + 15]]])
def test_snf_edge_shapes(m):
    assert smith_normal_form(sparse_rows(m)) == oracle_smith_normal_form(m)


@pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
def test_ragged_matrix_is_rejected(m):
    # Sparse rows have no length to disagree; only the dense oracle reads one.
    with pytest.raises(ValueError):
        oracle_smith_normal_form(m)


@pytest.mark.parametrize("m", [[[2.5, 0], [0, 3]], [["3", "4"]], [["0", "2"]],
                               [[0.0, 1]], [[1, None]], [[2 ** 70, 0.5]]])
def test_non_int_entry_is_rejected(m):
    with pytest.raises(ValueError):
        smith_normal_form(sparse_rows(m))


@pytest.mark.parametrize("rows", [[{0: "0", 1: "2"}], [{0: 1, 1: None}],
                                  [{0: 0.0, 1: 1}], [{"a": 1}, {"b": 0.0}],
                                  [{(0, 1): 2}, {}, {"x": "1"}]])
def test_non_int_sparse_entry_is_rejected(rows):
    with pytest.raises(ValueError):
        smith_normal_form(rows)


@given(seeds)
@derandomized
def test_snf_leaves_the_rows_unchanged(seed):
    rng = random.Random(seed)
    rows = sparse_rows(random_matrix(rng, rng.choice((ENTRIES, FEW_UNITS))))
    before = [dict(row) for row in rows]
    before_items = [list(row.items()) for row in rows]
    factors = smith_normal_form(rows)
    assert rows == before and [list(row.items()) for row in rows] == before_items
    assert smith_normal_form(rows) == factors


# Column keys of mixed types, which compare neither with each other nor
# with ints, so the kernel may hash its columns but never order them.
KEYS = ("e", "f", (0, "a"), (1, (2, 3)), 2 ** 64 + 1, -(10 ** 20), frozenset({4}), None)


@given(seeds)
@derandomized
def test_snf_reads_any_hashable_columns(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, rng.choice((ENTRIES, FEW_UNITS)))
    cols = len(m[0])
    keys = rng.sample(KEYS + tuple(range(100, 100 + cols)), cols)
    rows = []
    for r in m:
        items = [(keys[j], v) for j, v in enumerate(r) if v or rng.random() < 0.3]
        rng.shuffle(items)
        rows.append(dict(items))
    assert smith_normal_form(rows) == oracle_smith_normal_form(m)


# ---------------------------------------------------------------------------
# Complexes.

TORUS = one_square_torus()


def oracle_abelianization(p):
    matrix = [[exponent_sum(r, g) for g in p.generators] for r in p.relators]
    factors = oracle_smith_normal_form(matrix) if p.relators else []
    return len(p.generators) - len(factors), tuple(d for d in factors if d > 1)


def assert_same_homology_and_links(cx):
    assert cellular_h1(cx) == oracle_cellular_h1(cx)
    assert check_link_condition(cx) == oracle_check_link_condition(cx)
    # A sample of links: the least vertex ids by repr, points of copy 0.
    for v in sorted(cx.vertices, key=repr)[:4]:
        assert link(cx, v) == oracle_link(cx, v)


def cyclically_reduced(rng, alphabet, length):
    while True:
        w = random_reduced_word(rng, alphabet, length)
        (g, s), (h, t) = w.letters[0], w.letters[-1]
        if g != h or s != -t:
            return w


@given(seeds)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_scaled_copy_complexes(seed):
    """S(P) over the torus, 1-3 relators of 4-8 letters: H_1, the link
    verdict and violations, sampled links and the abelianized pi1 agree
    with the oracles, which rank cells by the order given."""
    rng = random.Random(seed)
    alphabet = W.Alphabet(["a", "b", "c"][:rng.randint(1, 3)])
    p = FinitePresentation(alphabet, [cyclically_reduced(rng, alphabet, rng.randint(4, 8))
                                      for _ in range(rng.randint(1, 3))])
    cx = build_S_of_P(p, TORUS, [("a", 1)] * rng.randint(2, 4)).complex
    assert_same_homology_and_links(cx)
    inv = abelianization(pi1_presentation(cx))
    assert (inv.betti, inv.torsion) == oracle_abelianization(pi1_presentation(cx))


@given(seeds)
@derandomized
def test_snf_matches_on_full_boundary_matrices(seed):
    """cellular_h1 drops the spanning forest's columns before the Smith
    normal form, so the kernel no longer meets a whole d2 there.  It must
    still reduce one: d2 of a small S(P) over the torus, forest columns and
    all, one column per edge in the order given."""
    rng = random.Random(seed)
    alphabet = W.Alphabet(["a", "b"][:rng.randint(1, 2)])
    p = FinitePresentation(alphabet, [cyclically_reduced(rng, alphabet, rng.randint(2, 6))
                                      for _ in range(rng.randint(1, 2))])
    cx = build_S_of_P(p, TORUS, [("a", 1)] * rng.randint(1, 4)).complex
    column = {e: j for j, e in enumerate(cx.edges)}
    d2 = [[0] * len(column) for _ in cx.square_codes]
    for row, sq in zip(d2, cx.squares):
        for e, s in sq:
            row[column[e]] += s
    assert smith_normal_form(sparse_rows(d2)) == oracle_smith_normal_form(d2)


def random_cells(rng, vertex_ids=(0, "v1", ("t", 2), "v3"),
                 edge_ids=("e0", 1, ("f", 2), "e3", 4, "e5")):
    """A few vertices and edges from the given ids, random closed 4-paths
    as squares (links with loops, bigons and triangles are common), often
    disconnected."""
    vertices = list(vertex_ids[:rng.randint(1, len(vertex_ids))])
    edges = {eid: (rng.choice(vertices), rng.choice(vertices))
             for eid in edge_ids[:rng.randint(1, len(edge_ids))]}
    skeleton = SquareComplex(vertices, edges)
    directed = directed_edges(skeleton)
    squares = []
    for _ in range(rng.randint(0, 5)):
        for _attempt in range(20):
            path = [rng.choice(directed)]
            while len(path) < 4:
                path.append(rng.choice([d for d in directed
                                        if src(skeleton, d) == dst(skeleton, path[-1])]))
            if dst(skeleton, path[-1]) == src(skeleton, path[0]):
                squares.append(tuple(path))
                break
    return vertices, edges, squares


def random_edge_loop(rng, cx):
    directed = directed_edges(cx)
    for _attempt in range(50):
        path = [rng.choice(directed)]
        for _ in range(rng.randint(0, 5)):
            options = [d for d in directed if src(cx, d) == dst(cx, path[-1])
                       and d != (path[-1][0], -path[-1][1])]
            if not options:
                break
            path.append(rng.choice(options))
        closes = dst(cx, path[-1]) == src(cx, path[0])
        if closes and path[0] != (path[-1][0], -path[-1][1]):
            return EdgeLoop(cx, path)
    return None


@given(seeds)
@derandomized
def test_random_small_complexes(seed):
    rng = random.Random(seed)
    cx = SquareComplex(*random_cells(rng))
    assert_same_homology_and_links(cx)
    assert component_count(cx) == len(cx.vertices) - oracle_rank_d1(cx)
    loop = random_edge_loop(rng, cx)
    if loop is not None:
        assert loop.is_locally_geodesic() == oracle_is_locally_geodesic(loop)


def crowded_cells(rng):
    """Many squares around one hub vertex: two to five loops there and a
    few edges out to a second vertex and back, and random closed 4-paths
    over them, so the hub's link is full of repeated corners (bigons),
    loops and triangles."""
    edges = {f"l{i}": ("hub", "hub") for i in range(rng.randint(2, 5))}
    for i in range(rng.randint(1, 3)):
        edges[f"o{i}"] = ("hub", "rim") if rng.random() < 0.5 else ("rim", "hub")
    skeleton = SquareComplex(["hub", "rim"], edges)
    directed = directed_edges(skeleton)
    squares, count = [], rng.randint(8, 40)
    while len(squares) < count:
        path = [rng.choice(directed)]
        while len(path) < 4:
            path.append(rng.choice([d for d in directed
                                    if src(skeleton, d) == dst(skeleton, path[-1])]))
        if dst(skeleton, path[-1]) == src(skeleton, path[0]):
            squares.append(tuple(path))
    return ["hub", "rim"], edges, squares


@given(seeds)
@derandomized
def test_crowded_links_match_the_oracle(seed):
    """The link check's code-indexed adjacency finds the same loops,
    bigons and triangles, in the same order, as one scan per vertex link,
    where a vertex's link holds many corners between few nodes."""
    cx = SquareComplex(*crowded_cells(random.Random(seed)))
    ok, violations = check_link_condition(cx)
    assert (ok, violations) == oracle_check_link_condition(cx)
    kinds = {kind for _, kind, _ in violations}
    assert len(cx.square_codes) < 12 or {"bigon", "triangle"} <= kinds


@given(seeds)
@derandomized
def test_spanning_forest_matches_the_oracle(seed):
    """The forest a complex keeps is the BFS forest over its edges in the
    order given, grown from each vertex in turn that no earlier tree
    reached (so each tree's root is its first vertex, and its edges fix
    every parent), and it is grown once."""
    rng = random.Random(seed)
    cx = SquareComplex(*(random_cells(rng) if rng.random() < 0.5 else mixed_cells(rng)))
    forest = cx.spanning_forest()
    assert len(forest) == len(cx.edge_order) and set(forest) <= {0, 1}
    expected = oracle_bfs_forest(cx, list(cx.edges), list(cx.vertices))[1]
    assert [e for e, t in zip(cx.edge_order, forest) if t] == [e for e in cx.edges if e in expected]
    assert cx.spanning_forest() is forest


def h1_both_ways(cx, pi1_first):
    """H_1 from cells and from pi1 (or pi1's refusal), either one first."""
    def from_pi1():
        try:
            return abelianization(pi1_presentation(cx))
        except ConfigurationError as exc:
            return str(exc)
    if pi1_first:
        via_pi1 = from_pi1()
        return cellular_h1(cx), via_pi1
    cellular = cellular_h1(cx)
    return cellular, from_pi1()


@given(seeds)
@derandomized
def test_h1_does_not_depend_on_call_order(seed):
    """The forest that pi1 and cellular_h1 share gives the same H_1 both
    ways, and the same refusal of a disconnected complex, whichever runs
    first; on a connected complex the two agree."""
    cells = random_cells(random.Random(seed))
    cellular, via_pi1 = h1_both_ways(SquareComplex(*cells), pi1_first=False)
    assert h1_both_ways(SquareComplex(*cells), pi1_first=True) == (cellular, via_pi1)
    assert cellular == oracle_cellular_h1(SquareComplex(*cells))
    if is_connected(SquareComplex(*cells)):
        assert via_pi1 == cellular
    else:
        assert via_pi1 == "complex is not connected"


def shuffled(rng, vertices, edges, squares):
    """The same cells in another order: vertices, edges and squares
    shuffled, and each square read from a random corner in a random
    direction."""
    vertices, edges, squares = list(vertices), list(edges.items()), list(squares)
    for cells in (vertices, edges, squares):
        rng.shuffle(cells)
    readings = []
    for sq in squares:
        if rng.random() < 0.5:
            sq = [reverse(d) for d in reversed(sq)]
        i = rng.randrange(4)
        readings.append(tuple(sq[i:]) + tuple(sq[:i]))
    return vertices, dict(edges), readings


def order_free_invariants(cx):
    """What a complex is up to the order of its cells: counts, Euler
    characteristic, link verdict, violation kinds, H_1, and H_1 of pi1
    (None when pi1 is refused for a disconnected complex)."""
    ok, violations = check_link_condition(cx)
    try:
        inv = abelianization(pi1_presentation(cx))
    except ConfigurationError:
        inv = None
    return ((len(cx.vertices), len(cx.edges), len(cx.square_codes)),
            cx.euler_characteristic(), ok, sorted(kind for _, kind, _ in violations),
            cellular_h1(cx), inv)


@given(seeds)
@derandomized
def test_outputs_ignore_the_order_of_the_cells(seed):
    """Positions are the order given, and nothing sorts it away: the same
    cells given in shuffled orders still make the same complex up to that
    order.  Cells come from a small S(P) over the torus, connected, or from
    random cells over plain or mixed ids, often disconnected."""
    rng = random.Random(seed)
    kind = rng.random()
    if kind < 0.4:
        alphabet = W.Alphabet(["a", "b"][:rng.randint(1, 2)])
        p = FinitePresentation(alphabet, [cyclically_reduced(rng, alphabet, rng.randint(1, 4))
                                          for _ in range(rng.randint(1, 2))])
        cx = build_S_of_P(p, TORUS, [("a", 1)] * rng.randint(1, 2)).complex
        cells = (cx.vertices, cx.edges, cx.squares)
    else:
        cells = random_cells(rng) if kind < 0.7 else mixed_cells(rng)
    expected = order_free_invariants(SquareComplex(*cells))
    for _ in range(3):
        assert order_free_invariants(SquareComplex(*shuffled(rng, *cells))) == expected


def place(cell):
    """Where a cell of S(P) lies, read off its id."""
    if cell[0] == "rose":
        return ("rose",)
    return ("copy" if cell[0] == "copy" else "cylinder", cell[1])


@given(seeds)
@derandomized
def test_S_of_P_matches_staged_build(seed):
    """S(P) written in place equals S(P) staged copy by copy with a
    provenance dict (helpers.py): vertices and edges in the same order,
    squares, written text, the pi1 presentation (or the refusal of a
    disconnected S(P)) and copy-killing relators, under one generator per
    edge and under pi1's own letters, all walked over edge ids in the
    oracle; and every cell's id names the place its provenance records.  Codes round-trip
    through their pairs in S(P) and in its written and parsed copy, whose
    edges e0, e1, ... keep the written order (e2 before e10), and the copy's
    squares are the canonical readings of the written ones.  Up to 11
    relators of up to 12 letters put two-digit relator indices and unit
    positions into the ids, and x over mixed ids with two Twin edges gives
    edges and vertices that print alike."""
    rng = random.Random(seed)
    kind = rng.random()
    if kind < 0.4:
        x, gamma = TORUS, [TORUS.directed(rng.randrange(4))] * rng.randint(1, 3)
    else:
        x = SquareComplex(*(random_cells(rng) if kind < 0.7 else mixed_cells(rng)))
        loop = random_edge_loop(rng, x)
        if loop is None or not loop.is_locally_geodesic():
            return
        gamma = loop.edges
    alphabet = W.Alphabet(["a", "b", "c"][:rng.randint(1, 3)])
    p = FinitePresentation(alphabet, [cyclically_reduced(rng, alphabet, rng.randint(1, 12))
                                      for _ in range(rng.randint(1, 11))])
    built = build_S_of_P(p, x, gamma)
    cx = built.complex
    staged, provenance = oracle_build_S_of_P(p, x, gamma)
    assert list(cx.vertices) == list(staged.vertices)
    assert list(cx.edges.items()) == list(staged.edges.items())
    assert cx.squares == staged.squares and cx.square_codes == staged.square_codes
    assert format_complex(cx) == format_complex(staged)
    assert provenance == {cell: place(cell) for cell in provenance}
    # One generator per edge, so every letter of a copy loop is kept.
    names = {e: f"g{i}" for i, e in enumerate(cx.edge_order)}
    per_edge = [(f"g{p}", s) for p in range(len(cx.edge_order)) for s in (-1, 1)]
    presentation = FinitePresentation(W.Alphabet(list(names.values())))
    assert (_copy_killing_relators(built, presentation, per_edge)
            == oracle_copy_killing_relators(staged, provenance, presentation, names))
    try:
        expected, names = oracle_pi1_with_names(staged)
    except ConfigurationError:
        with pytest.raises(ConfigurationError, match="not connected"):
            pi1_presentation(cx)
    else:
        assert format_presentation(pi1_presentation(cx)) == format_presentation(expected)
        presentation, letter = _pi1_with_letters(cx)
        assert (_copy_killing_relators(built, presentation, letter)
                == oracle_copy_killing_relators(staged, provenance, expected, names))
    written = [tuple((f"e{cx.position[e]}", s) for e, s in sq) for sq in cx.squares]
    assert_codes_and_squares(cx, staged.squares)
    assert_codes_and_squares(parse_complex(format_complex(cx)), written)


def assert_codes_and_squares(cx, squares):
    """Each code of cx decodes to a pair that its lookup codes back, and
    cx's squares are the oracle's canonical readings of `squares`, the
    squares cx was given."""
    codes = range(len(cx.head))
    assert [cx.code(cx.directed(c)) for c in codes] == list(codes)
    # A square's reading depends only on how its own edges rank, so each is
    # ranked among those, kept in the order given, not among all edges.
    given = {e: i for i, e in enumerate(cx.edges)}
    assert cx.squares == [
        oracle_canonical_square(sq, dict.fromkeys(sorted({e for e, _ in sq}, key=given.get)))
        for sq in squares]


class Twin:
    """Distinct ids that print alike.  A given hash fixes where the id
    falls in a set or dict's hash table."""

    def __init__(self, hash_=None):
        self.hash = hash_

    def __repr__(self):
        return "twin"

    def __hash__(self):
        return object.__hash__(self) if self.hash is None else self.hash


def mixed_cells(rng):
    """random_cells over ids of mixed types: the int 1 beside the str "1",
    and two edge ids with one repr."""
    edge_ids = [1, "1", ("1",), 0, -3, "e", ("f", 2), ("f", "2"), Twin(), Twin()]
    rng.shuffle(edge_ids)
    return random_cells(rng, (1, "1", ("v", 0), -2, "w"), tuple(edge_ids))


@given(seeds)
@derandomized
def test_edge_key_orders_as_given(seed):
    """Positions are the order given, and squares, links, violations and
    written text from the integer edge key equal those from ranking ids by
    the order given: ids of mixed types, the int 1 beside the str "1", and
    two ids with one repr."""
    vertices, edges, squares = mixed_cells(random.Random(seed))
    cx = SquareComplex(vertices, edges, squares)
    assert cx.vertex_order == tuple(dict.fromkeys(vertices))
    assert cx.edge_order == tuple(edges)
    assert_codes_and_squares(cx, squares)
    assert component_count(cx) == len(cx.vertices) - oracle_rank_d1(cx)
    for v in vertices:
        assert link(cx, v) == oracle_link(cx, v)
    assert check_link_condition(cx) == oracle_check_link_condition(cx)
    assert format_complex(cx) == oracle_format_complex(cx)
    assert cellular_h1(cx) == oracle_cellular_h1(cx)


def test_twin_ids_tie_in_the_order_given():
    """S(P) over a complex whose edges a and b print alike writes one file,
    one pi1 presentation and one list of copy-killing relators whatever
    their hashes: the vertices named after a and b keep the order they
    were written in, not the order of a hash table.  Over the torus on a
    and b the file lists them in that order; as loops at a vertex of their
    own beside a torus on c and d, the copy forest of that component grows
    from the copy of w, written before the points of a and b."""
    alphabet = W.Alphabet(["g"])
    p = FinitePresentation(alphabet, [W.parse_word(alphabet, "g^3")])
    outputs = set()
    for hashes in ((1, 2), (2, 1), (7, 1000003), (1000003, 7)):
        a, b = map(Twin, hashes)
        x = SquareComplex(["v"], {a: ("v", "v"), b: ("v", "v")},
                          [((a, 1), (b, 1), (a, -1), (b, -1))])
        cx = build_S_of_P(p, x, [(a, 1)]).complex
        beside = SquareComplex(["v", "w"], {"c": ("v", "v"), "d": ("v", "v"),
                                            a: ("w", "w"), b: ("w", "w")},
                               [(("c", 1), ("d", 1), ("c", -1), ("d", -1))])
        built = build_S_of_P(p, beside, [("c", 1)])
        n_edges = len(built.complex.edge_order)
        per_edge = [(f"g{p}", s) for p in range(n_edges) for s in (-1, 1)]
        relators = _copy_killing_relators(
            built, FinitePresentation(W.Alphabet([f"g{p}" for p in range(n_edges)])),
            per_edge)
        outputs.add((format_complex(cx), format_presentation(pi1_presentation(cx)),
                     tuple(map(W.format_word, relators))))
    assert len(outputs) == 1


@given(seeds)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_twin_vertices_tie_in_each_order(seed):
    """S(P) over random x whose vertices include two Twins, which print
    alike, and relators of 1-3 letters: the written files, link
    violations and links order the Twins' cells as given, and the copy
    forests grow each copy's tree from its edges' ends in the order the
    vertices were given.  Over one-letter relators a copy has no cut or
    inner points, so a part of x on the Twins alone puts them at the root
    of their copy's tree."""
    rng = random.Random(seed)
    others = ["w", 0, ("v", 1)]
    rng.shuffle(others)
    x = SquareComplex(*random_cells(rng, (Twin(), Twin(), *others[:rng.randint(0, 3)])))
    loop = random_edge_loop(rng, x)
    if loop is None or not loop.is_locally_geodesic():
        return
    alphabet = W.Alphabet(["a", "b"][:rng.randint(1, 2)])
    p = FinitePresentation(alphabet, [cyclically_reduced(rng, alphabet, rng.randint(1, 3))
                                      for _ in range(rng.randint(1, 3))])
    built = build_S_of_P(p, x, loop.edges)
    cx = built.complex
    staged, provenance = oracle_build_S_of_P(p, x, loop.edges)
    names = {e: f"g{i}" for i, e in enumerate(cx.edge_order)}
    per_edge = [(f"g{p}", s) for p in range(len(cx.edge_order)) for s in (-1, 1)]
    presentation = FinitePresentation(W.Alphabet(list(names.values())))
    assert (_copy_killing_relators(built, presentation, per_edge)
            == oracle_copy_killing_relators(staged, provenance, presentation, names))
    try:
        expected, names = oracle_pi1_with_names(staged)
    except ConfigurationError:
        pass
    else:
        presentation, letter = _pi1_with_letters(cx)
        assert format_presentation(presentation) == format_presentation(expected)
        assert (_copy_killing_relators(built, presentation, letter)
                == oracle_copy_killing_relators(staged, provenance, expected, names))
    for complex_ in (x, cx):
        assert format_complex(complex_) == oracle_format_complex(complex_)
        assert check_link_condition(complex_) == oracle_check_link_condition(complex_)
    corners = [("copy", j, "v", v) for j in range(len(p.relators)) for v in x.vertices]
    for complex_, v in [(x, v) for v in x.vertices] + [(cx, v) for v in corners]:
        assert link(complex_, v) == oracle_link(complex_, v)


LOOP =SquareComplex(["u", "v"], {"e": ("u", "v")},
                     [(("e", 1), ("e", -1), ("e", 1), ("e", -1))])
BIGON_CELLS = (["v"], {"a": ("v", "v"), "b": ("v", "v")},
               [(("a", 1), ("b", 1), ("a", -1), ("b", -1)),
                (("a", 1), ("b", -1), ("a", -1), ("b", 1))])
BIGON = SquareComplex(*BIGON_CELLS)
# Three squares around a cube corner: the link of o is a triangle.
TRIANGLE_CELLS = (
    ["o", "X", "Y", "Z", "XY", "YZ", "ZX"],
    {"x": ("o", "X"), "y": ("o", "Y"), "z": ("o", "Z"),
     "xy1": ("X", "XY"), "xy2": ("Y", "XY"), "yz1": ("Y", "YZ"),
     "yz2": ("Z", "YZ"), "zx1": ("Z", "ZX"), "zx2": ("X", "ZX")},
    [(("x", 1), ("xy1", 1), ("xy2", -1), ("y", -1)),
     (("y", 1), ("yz1", 1), ("yz2", -1), ("z", -1)),
     (("z", 1), ("zx1", 1), ("zx2", -1), ("x", -1))])
TRIANGLE = SquareComplex(*TRIANGLE_CELLS)


@pytest.mark.parametrize("cx, kind", [(LOOP, "loop"), (BIGON, "bigon"),
                                      (TRIANGLE, "triangle")])
def test_hand_made_link_failures(cx, kind):
    ok, violations = check_link_condition(cx)
    assert not ok and kind in {k for _, k, _ in violations}
    assert (ok, violations) == oracle_check_link_condition(cx)
    assert cellular_h1(cx) == oracle_cellular_h1(cx)


def with_twins(cells, names):
    """The complex of these cells, the named edges replaced by Twin ids,
    which print alike."""
    vertices, edges, squares = cells
    twin = {e: Twin() for e in names}
    return SquareComplex(vertices, {twin.get(e, e): ends for e, ends in edges.items()},
                         [tuple((twin.get(e, e), s) for e, s in sq) for sq in squares])


def test_twin_edge_triangle_refuted():
    """Edges that print alike are still two nodes of the link: the cube
    corner keeps its triangle at o."""
    cx = with_twins(TRIANGLE_CELLS, ("x", "y"))
    ok, violations = check_link_condition(cx)
    assert not ok and [(v, kind) for v, kind, _ in violations] == [("o", "triangle")]
    assert (ok, violations) == oracle_check_link_condition(cx)


def test_twin_edge_bigons_all_reported():
    cx = with_twins(BIGON_CELLS, ("a", "b"))

    def bigons(cx):
        return sum(kind == "bigon" for _, kind, _ in check_link_condition(cx)[1])

    assert bigons(cx) == bigons(BIGON) == 4
    assert check_link_condition(cx) == oracle_check_link_condition(cx)


def test_disconnected_complex():
    # Two tori, a Z/2 component (a b a b on a 2-cycle) and an isolated vertex.
    vertices = ["v", "w", "p", "q", "lone"]
    edges = {"a": ("v", "v"), "b": ("v", "v"), "c": ("w", "w"), "d": ("w", "w"),
             "s": ("p", "q"), "t": ("q", "p")}
    squares = [(("a", 1), ("b", 1), ("a", -1), ("b", -1)),
               (("c", 1), ("d", 1), ("c", -1), ("d", -1)),
               (("s", 1), ("t", 1), ("s", 1), ("t", 1))]
    cx = SquareComplex(vertices, edges, squares)
    assert component_count(cx) == 4 and not is_connected(cx)
    inv = cellular_h1(cx)
    assert (inv.betti, inv.torsion) == (4, (2,))
    assert inv == oracle_cellular_h1(cx)


def test_empty_complex_has_no_components():
    cx = SquareComplex([], {})
    assert component_count(cx) == 0 and is_connected(cx)
