"""Differential tests: the near-linear Stallings kernels, and
graph_of_subgroup's one pass over vertex positions, against the original
quadratic ones, kept in helpers.py as an oracle; the edge-driven
malnormality certifier against the oracle's full fibre product; and a
cyclic action's powers and translate check against powers composed one
generator step at a time.

Inputs are drawn from seeded generators; hypothesis picks the seeds
(derandomized, so every run sees the same ones) and prints the failing seed.
Canonical graphs are compared byte for byte through their file format,
fibre products component by component, and malnormality checks by verdict
and witness.
"""

import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings

from forge import stallings as S
from forge import words as W
from forge.encoder import (_kernel_base_family, _kernel_checks,
                           select_malnormal_words)
from forge.fileformats import format_immersion
from forge.errors import ConfigurationError, InvalidActionError
from helpers import (components, derandomized, random_reduced_word,
                     oracle_components, oracle_core, oracle_dict_refutes, oracle_factor,
                     oracle_fibre_product, oracle_fold,
                     oracle_malnormal_family_check, oracle_powers, oracle_rank,
                     oracle_translate_family_check, seeds)


def same_graph(a, b):
    return a == b and format_immersion(a, "base") == format_immersion(b, "base")


def random_letters(rng, names, length):
    """Letters of a word that need not be reduced, so folding has more to do."""
    return [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]


def wedge(base, words):
    """The unfolded wedge of subdivided circles that graph_of_subgroup
    starts from, for letter lists read in a rose."""
    vertices = ["*"]
    edges = {}
    for k, letters in enumerate(words):
        chain = ["*"] + [("w", k, i) for i in range(1, len(letters))] + ["*"]
        vertices.extend(chain[1:-1])
        for i, (label, sign) in enumerate(letters):
            u, v = chain[i], chain[i + 1]
            edges[("e", k, i)] = (u, v, label) if sign > 0 else (v, u, label)
    vmap = dict.fromkeys(vertices, base.basepoint)
    return S.GraphImmersion(S.LabeledGraph(vertices, edges, "*"), base, vmap,
                            folded=False)


def random_morphism(rng, base):
    """A random graph over a rose: mixed int, str and tuple vertex names,
    several components, isolated vertices, loops, maybe no basepoint."""
    pool = list(range(rng.randint(1, 9))) + ["x", "y", ("p", 1), ("p", 0)]
    vertices = rng.sample(pool, rng.randint(1, len(pool)))
    labels = list(base.edges)
    edges = {}
    for k in range(rng.randint(0, 14)):
        eid = k if rng.random() < 0.5 else f"f{k}"
        edges[eid] = (rng.choice(vertices), rng.choice(vertices), rng.choice(labels))
    basepoint = rng.choice(vertices + [None])
    vmap = dict.fromkeys(vertices, base.basepoint)
    return S.GraphImmersion(S.LabeledGraph(vertices, edges, basepoint), base,
                            vmap, folded=False)


def random_immersion(rng, base):
    """A random immersion into a rose, built directly: mixed int, str and
    tuple vertex names, several components, isolated vertices, loops,
    maybe no basepoint, and at most one edge of each label leaving and
    entering each vertex."""
    pool = list(range(rng.randint(1, 9))) + ["x", "y", ("p", 1), ("p", 0)]
    vertices = rng.sample(pool, rng.randint(1, len(pool)))
    labels = list(base.edges)
    edges, ends = {}, set()  # ends: (vertex, label, +1 leaving / -1 entering)
    for k in range(rng.randint(0, 14)):
        u, v, label = rng.choice(vertices), rng.choice(vertices), rng.choice(labels)
        if (u, label, 1) in ends or (v, label, -1) in ends:
            continue
        ends.update(((u, label, 1), (v, label, -1)))
        edges[k if rng.random() < 0.5 else f"f{k}"] = (u, v, label)
    basepoint = rng.choice(vertices + [None])
    vmap = dict.fromkeys(vertices, base.basepoint)
    return S.GraphImmersion(S.LabeledGraph(vertices, edges, basepoint), base,
                            vmap, folded=True)


def random_subgroups(rng, alphabet, base, count):
    return [S.graph_of_subgroup(base, [random_reduced_word(rng, alphabet,
                                                           rng.randint(1, 5))
                                       for _ in range(rng.randint(1, 4))])
            for _ in range(count)]


def check_fibre_product(i1, i2):
    fp, oracle = S.fibre_product(i1, i2), oracle_fibre_product(i1, i2)
    assert fp.total == oracle.total
    assert fp.total.vertices == oracle.total.vertices
    assert list(fp.total.edges.items()) == list(oracle.total.edges.items())
    assert fp.components == oracle.components


def refutes(i1, i2, self_pair):
    """The certifiers' kernel on one pair of immersions over one base."""
    first, n1 = S._factor(i1.domain)
    second, n2 = S._factor(i2.domain)
    return S._refutes(first, second, n1, n2, self_pair and i1 == i2)


def oracle_refutes(i1, i2, self_pair):
    return any(not c.is_tree and not (self_pair and c.is_diagonal)
               for c in oracle_fibre_product(i1, i2).components)


@given(seeds)
@derandomized
def test_fold_core_rank_on_subgroup_wedges(seed):
    rng = random.Random(seed)
    names = ["a", "b", "c"][:rng.randint(1, 3)]
    morphism = wedge(S.rose(names), [random_letters(rng, names, rng.randint(0, 7))
                                     for _ in range(rng.randint(1, 4))])
    folded = S.fold(morphism)
    assert same_graph(folded, oracle_fold(morphism))
    assert same_graph(S.core(folded), oracle_core(folded))
    assert S.rank(folded.domain) == oracle_rank(folded.domain)
    assert S.rank(morphism.domain) == oracle_rank(morphism.domain)


@given(seeds)
@derandomized
def test_graph_of_subgroup_is_the_core_of_the_folded_wedge(seed):
    """graph_of_subgroup folds, trims and relabels its wedge on vertex
    positions in one pass; it gives the graph that the oracle's fold and
    core, and forge's own, give on the named wedge.  Roses of 1-5 labels,
    0-4 generators.  A generator is a Word (empty, one letter, or longer,
    or a repeat, inverse or conjugate of the Word before it, which folds
    onto it) or an unreduced letter list read through a stand-in, since
    graph_of_subgroup reads only a word's letters; those leave hairs for
    the trim.  Some lists hold only words u u^-1: the trivial subgroup."""
    rng = random.Random(seed)
    alphabet = W.Alphabet([f"e{i}" for i in range(rng.randint(1, 5))])
    base = S.rose(alphabet.names)
    words = []
    trivial = rng.random() < 0.15
    for _ in range(rng.randint(0, 4)):
        pick = rng.random()
        if trivial:
            u = random_letters(rng, alphabet.names, rng.randint(0, 4))
            words.append(SimpleNamespace(letters=tuple(u + [(x, -s) for x, s in u[::-1]])))
        elif pick < 0.4:
            words.append(SimpleNamespace(letters=tuple(
                random_letters(rng, alphabet.names, rng.randint(0, 7)))))
        elif pick < 0.6 and words and isinstance(words[-1], W.Word):
            word, u = words[-1], random_reduced_word(rng, alphabet, rng.randint(0, 2))
            words.append(rng.choice((word, word.inverse(), u * word * u.inverse())))
        else:
            length = rng.choice((0, 1, rng.randint(2, 7)))
            words.append(random_reduced_word(rng, alphabet, length))
    morphism = wedge(base, [word.letters for word in words])
    graph = S.graph_of_subgroup(base, words)
    assert same_graph(graph, oracle_core(oracle_fold(morphism)))
    assert same_graph(graph, S.core(S.fold(morphism)))
    if trivial:
        assert graph.domain.vertices == (0,) and graph.domain.edges == {}


@given(seeds)
@derandomized
def test_fold_core_rank_on_random_graphs(seed):
    rng = random.Random(seed)
    base = S.rose(["a", "b", "c"][:rng.randint(1, 3)])
    morphism = random_morphism(rng, base)
    folded = S.fold(morphism)
    assert same_graph(folded, oracle_fold(morphism))
    assert same_graph(S.core(folded), oracle_core(folded))
    assert S.rank(morphism.domain) == oracle_rank(morphism.domain)
    assert S.rank(folded.domain) == oracle_rank(folded.domain)
    assert components(morphism.domain) == oracle_components(morphism.domain)


@given(seeds)
@derandomized
def test_fibre_products_of_non_canonical_immersions(seed):
    """fibre_product takes its factors' vertex order as canonical; here the
    factors are built directly, with mixed int, str and tuple names, most
    often as immersions.  The first-cycle rule decides a pair of two
    factors whether or not they are folded; the certifiers' self pairs
    need immersions, so they refuse a member that folding would change,
    and compare with the oracle where both members are immersions."""
    rng = random.Random(seed)
    base = S.rose(["a", "b", "c"][:rng.randint(1, 3)])
    i1, i2 = [random_immersion(rng, base) if rng.random() < 0.85
              else random_morphism(rng, base) for _ in range(2)]
    check_fibre_product(i1, i2)
    check_fibre_product(i2, i1)
    check_fibre_product(i1, i1)
    for pair in ((i1, i2), (i2, i1), (i1, i1)):
        assert refutes(*pair, False) == oracle_refutes(*pair, False)
    trivial = S.RelabelingAction.cyclic(base, {e: e for e in base.edges})
    unfolded = [i for i in (i1, i2)
                if len(S.fold(i).domain.edges) < len(i.domain.edges)]
    if unfolded:
        with pytest.raises(ConfigurationError, match="not an immersion"):
            S.malnormal_family_check([i1, i2])
        with pytest.raises(ConfigurationError, match="not an immersion"):
            S.translate_family_check(base, trivial, unfolded[0], [0])
    else:
        assert S.malnormal_family_check([i1, i2]) == \
            oracle_malnormal_family_check([i1, i2])


@given(seeds)
@derandomized
def test_malnormal_families_of_folded_graphs(seed):
    """Folded graphs that are not cores: several components, isolated
    vertices, hairs, loops and parallel edges, maybe no basepoint.  The
    certifier is also asked about every ordered pair as a self pair, where
    the diagonal exemption needs the factors to be one immersion."""
    rng = random.Random(seed)
    base = S.rose(["a", "b", "c"][:rng.randint(1, 3)])
    family = [S.fold(random_morphism(rng, base)) for _ in range(rng.randint(1, 3))]
    assert S.malnormal_family_check(family) == oracle_malnormal_family_check(family)
    for i1 in family:
        for i2 in family:
            for self_pair in (False, True):
                assert refutes(i1, i2, self_pair) == oracle_refutes(i1, i2, self_pair)


def kernel_outcomes(seed):
    """Check the flat kernel, with its parents in a list and in a dict,
    against the dict kernel it replaced, on every ordered pair of a few
    subgroup cores and folded random graphs over one rose (as a self pair
    too where both are one immersion); return the (self pair, equal vertex
    counts, verdict) cases met."""
    rng = random.Random(seed)
    alphabet = W.Alphabet(["a", "b", "c"][:rng.randint(1, 3)])
    base = S.rose(alphabet.names)
    graphs = random_subgroups(rng, alphabet, base, rng.randint(1, 3))
    graphs += [S.fold(random_morphism(rng, base)) for _ in range(rng.randint(1, 3))]
    outcomes = set()
    for i1 in graphs:
        for i2 in graphs:
            first, n1 = S._factor(i1.domain)
            second, n2 = S._factor(i2.domain)
            edges, _, _ = oracle_factor(i1.domain)
            _, by_label, width = oracle_factor(i2.domain)
            for self_pair in (False, True) if i1 is i2 else (False,):
                expected = oracle_dict_refutes(edges, by_label, width, self_pair)
                for codes_per_edge in (0, S._DENSE_CODES_PER_EDGE, 10 ** 9):
                    with mock.patch.object(S, "_DENSE_CODES_PER_EDGE", codes_per_edge):
                        assert S._refutes(first, second, n1, n2, self_pair) == expected
                outcomes.add((self_pair, n1 == n2, expected))
    return outcomes


@given(seeds)
@derandomized
def test_flat_kernel_matches_the_dict_kernel(seed):
    kernel_outcomes(seed)


def test_kernel_differential_meets_every_case():
    """Factors of unequal size and self pairs, each refuting and certified."""
    outcomes = set().union(*map(kernel_outcomes, range(40)))
    assert {(False, False, True), (False, False, False),
            (True, True, True), (True, True, False)} <= outcomes


def test_selected_certificates_match_the_dict_kernel():
    """select_malnormal_words gives the same words and certificate when
    every pair is decided by the dict kernel instead."""
    def dict_kernel(first, second, n1, n2, self_pair):
        edges = [(s, d, label) for label, pairs in first.items() for s, d in pairs]
        return oracle_dict_refutes(edges, second, n2, self_pair)

    for m in range(29):
        selected = select_malnormal_words(m)
        with mock.patch.object(S, "_refutes", dict_kernel):
            assert select_malnormal_words(m) == selected, m


def test_self_pair_with_two_diagonal_components():
    """Two one-loop vertices: the self product is four loops, two of them
    diagonal, so the witness is the first loop off the diagonal."""
    base = S.rose(["a"])
    graph = S.fold(S.GraphImmersion(
        S.LabeledGraph([0, 1], {0: (0, 0, "a"), 1: (1, 1, "a")}), base,
        {0: "*", 1: "*"}))
    fp = S.fibre_product(graph, graph)
    assert [c.index for c in fp.components if c.is_diagonal] == [0, 3]
    ok, witness = S.malnormal_family_check([graph])
    assert (ok, witness) == oracle_malnormal_family_check([graph])
    assert witness.pair == (0, 0) and witness.component.index == 1


@given(seeds)
@derandomized
def test_fibre_products_and_malnormal_families(seed):
    rng = random.Random(seed)
    alphabet = W.Alphabet(["a", "b", "c"][:rng.randint(1, 3)])
    base = S.rose(alphabet.names)
    family = random_subgroups(rng, alphabet, base, rng.randint(1, 3))
    for i1 in family:
        for i2 in family:
            check_fibre_product(i1, i2)
    assert S.malnormal_family_check(family) == oracle_malnormal_family_check(family)


def rotation_action(rng):
    """A rose on 2..9 letters, the cyclic action of a random permutation of
    its letters, and that generator's (vertex map, edge map)."""
    names = [f"e{i}" for i in range(rng.randint(2, 9))]
    image = names[:]
    rng.shuffle(image)
    base = S.rose(names)
    edge_image = dict(zip(names, image))
    return (W.Alphabet(names), base, S.RelabelingAction.cyclic(base, edge_image),
            ({"*": "*"}, edge_image))


def cycle_action(rng):
    """A cycle of k vertices with a loop at each, rotated one step: the
    action moves the basepoint, so translated copies lose it.  Also the
    generator's (vertex map, edge map)."""
    k = rng.randint(2, 4)
    edges = {}
    for i in range(k):
        edges[f"c{i}"] = (i, (i + 1) % k, f"c{i}")
        edges[f"l{i}"] = (i, i, f"l{i}")
    base = S.LabeledGraph(range(k), edges, 0)
    edge_image = {f"{t}{i}": f"{t}{(i + 1) % k}" for i in range(k) for t in "cl"}
    vertex_image = {i: (i + 1) % k for i in range(k)}
    return (k, base, S.RelabelingAction.cyclic(base, edge_image, vertex_image),
            (vertex_image, edge_image))


@given(seeds)
@derandomized
def test_maps_are_composed_powers_of_the_generator(seed):
    """maps(k), for every element k, is the generator composed k times, and
    the elements run up to the last power before the identity returns."""
    rng = random.Random(seed)
    for _, _, action, generator in (rotation_action(rng), cycle_action(rng)):
        assert action.elements == list(range(action.order))
        assert [action.maps(k) for k in action.elements] == oracle_powers(generator)


def test_cyclic_rejects_a_pair_of_permutations_that_is_no_automorphism():
    """Swapping the step c0 and the loop l0 permutes the edges but does not
    respect their endpoints."""
    k, base, _, _ = cycle_action(random.Random(4))
    edge_image = {e: e for e in base.edges}
    edge_image.update(c0="l0", l0="c0")
    with pytest.raises(InvalidActionError, match="not mapped compatibly"):
        S.RelabelingAction.cyclic(base, edge_image, {i: i for i in range(k)})


def cycle_word(rng, k):
    """A closed path at vertex 0: loops, whole turns and back-and-forths."""
    letters = []
    for _ in range(rng.randint(1, 3)):
        at = 0
        for _ in range(rng.randint(0, 3)):
            step = rng.randint(1, k - 1) if k > 1 else 0
            for i in range(step):
                letters.append((f"c{(at + i) % k}", 1))
            letters.append((f"l{(at + step) % k}", rng.choice((1, -1))))
            at = (at + step) % k
        # Walk on around the cycle back to vertex 0.
        while at != 0:
            letters.append((f"c{at}", 1))
            at = (at + 1) % k
        if rng.random() < 0.5:
            letters.extend((f"c{i}", 1) for i in range(k))
    return letters


def translate_lists(rng, elements):
    """Every element; a random subset in random order; a list with a
    duplicate, which refutes any nontrivial subgroup."""
    subset = rng.sample(elements, rng.randint(1, len(elements)))
    dup = subset + [rng.choice(subset)]
    rng.shuffle(dup)
    return [elements, subset, dup]


def check_translates(base, action, subgroup, lists):
    for translates in lists:
        got = S.translate_family_check(base, action, subgroup, translates)
        assert got == oracle_translate_family_check(base, action, subgroup, translates)


@given(seeds)
@derandomized
def test_translate_families_on_rotated_roses(seed):
    rng = random.Random(seed)
    alphabet, base, action, _ = rotation_action(rng)
    subgroup = random_subgroups(rng, alphabet, base, 1)[0]
    check_translates(base, action, subgroup, translate_lists(rng, action.elements))


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_translate_families_on_rotated_cycles(seed):
    rng = random.Random(seed)
    k, base, action, _ = cycle_action(rng)
    alphabet = W.Alphabet(sorted(base.edges))
    words = [W.Word(alphabet, tuple(cycle_word(rng, k)))
             for _ in range(rng.randint(1, 2))]
    subgroup = S.graph_of_subgroup(base, words)
    check_translates(base, action, subgroup, translate_lists(rng, action.elements))


# The rotation roses of the encoder's kernel check, at the sizes the
# benchmark runs (N = 56..60), where the translate check works row by row.


def large_rotation(n):
    """The rose on e_0..e_{n-1}, its rotation group in order of the powers,
    and the alphabet."""
    alphabet = W.Alphabet([f"e{i}" for i in range(n)])
    base = S.rose(alphabet.names)
    rotation = {f"e{i}": f"e{(i + 1) % n}" for i in range(n)}
    return alphabet, base, S.RelabelingAction.cyclic(base, rotation)


def test_translate_family_on_a_large_rotation_certifies():
    """The kernel subgroup <e_0, e_{N-1} e_{N-2}^-1, e_{N-1} e_1^-1>: all
    N translates form a malnormal family."""
    base, subgroup, action = _kernel_base_family(58)
    assert len(action.elements) == 58
    got = S.translate_family_check(base, action, subgroup, action.elements)
    assert got == (True, None)
    assert got == oracle_translate_family_check(base, action, subgroup,
                                                action.elements)


def test_translate_family_on_a_large_rotation_refutes():
    """<e_0, e_3>: the translates by 3 steps either way share a loop with
    it, so the first failing pair sits inside a row whose other names are
    certified; in a shuffled order it moves to a later row."""
    alphabet, base, action = large_rotation(60)
    subgroup = S.graph_of_subgroup(base, [alphabet.gen("e0"), alphabet.gen("e3")])
    shuffled = action.elements[:]
    random.Random(5860).shuffle(shuffled)
    for translates in (action.elements, shuffled, shuffled[:20]):
        got = S.translate_family_check(base, action, subgroup, translates)
        assert got == oracle_translate_family_check(base, action, subgroup,
                                                    translates)
        assert not got[0] and got[1].pair[0] < got[1].pair[1]
    assert S.translate_family_check(base, action, subgroup,
                                    action.elements)[1].pair == (0, 3)


def test_translate_family_with_refuting_elements_no_pair_names():
    """<e_0, e_3> and the translates at powers 0, 1, 2: the rotations by 3
    either way refute, but no g^-1 h is one of them, so the family is
    certified; a repeated translate names the identity and refutes."""
    alphabet, base, action = large_rotation(60)
    subgroup = S.graph_of_subgroup(base, [alphabet.gen("e0"), alphabet.gen("e3")])
    assert not S.translate_family_check(base, action, subgroup,
                                        [action.elements[0], action.elements[3]])[0]
    translates = action.elements[:3]
    got = S.translate_family_check(base, action, subgroup, translates)
    assert got == (True, None)
    assert got == oracle_translate_family_check(base, action, subgroup, translates)
    translates = translates + [translates[1]]
    got = S.translate_family_check(base, action, subgroup, translates)
    assert got == oracle_translate_family_check(base, action, subgroup, translates)
    assert not got[0] and got[1].pair == (1, 3)


def test_translate_family_of_the_trivial_action():
    """The trivial action, cyclic on the identity: its one element, power 0,
    decides a pair i < j only when the two translates are equal, so a
    duplicated identity refutes a nontrivial subgroup at the pair (0, 1).
    An empty list of translates is certified."""
    alphabet, base, _ = large_rotation(3)
    action = S.RelabelingAction.cyclic(base, {e: e for e in base.edges})
    assert action.elements == [0]
    for words in (["e0"], ["e0^2"], ["e0", "e1 e2"]):
        subgroup = S.graph_of_subgroup(base, [W.parse_word(alphabet, w)
                                              for w in words])
        for translates in ([], [0], [0, 0], [0] * 3):
            got = S.translate_family_check(base, action, subgroup, translates)
            assert got == oracle_translate_family_check(base, action, subgroup,
                                                        translates)
    subgroup = S.graph_of_subgroup(base, [alphabet.gen("e0")])
    ok, witness = S.translate_family_check(base, action, subgroup, [0, 0])
    assert not ok and witness.pair == (0, 1)


def test_translate_family_refuted_at_the_half_turn_only():
    """<e_0, e_{N/2}> over an even rotation meets its translates only at
    x = 0 and the half turn x = N/2, which maps it onto itself; the half
    turn is its own negative, and it alone refutes."""
    for n in (8, 14, 20):
        alphabet, base, action = large_rotation(n)
        subgroup = S.graph_of_subgroup(base, [alphabet.gen("e0"),
                                              alphabet.gen(f"e{n // 2}")])
        rng = random.Random(n)
        for translates in translate_lists(rng, action.elements) + [[3, 0, n // 2 + 3]]:
            got = S.translate_family_check(base, action, subgroup, translates)
            assert got == oracle_translate_family_check(base, action, subgroup,
                                                        translates)
        ok, witness = S.translate_family_check(base, action, subgroup,
                                               action.elements)
        assert not ok and witness.pair == (0, n // 2)
        assert S.translate_family_check(base, action, subgroup,
                                        [1, n // 2]) == (True, None)


@pytest.mark.parametrize("n", range(7, 21))
def test_translate_families_on_rotations_of_every_parity(n):
    """Odd and even orders 7..20, so both the middle power of an odd order
    and the half turn of an even one are decided: the kernel subgroup and
    random subgroups on two to four neighbouring letters, each with every
    translate, a subset and a list with a duplicate."""
    rng = random.Random(f"parity:{n}")
    alphabet, base, action = large_rotation(n)
    subgroups = [_kernel_base_family(n)[1]]
    for _ in range(3):
        names = alphabet.names[:rng.randint(2, 4)]
        local = W.Alphabet(names)
        words = [random_reduced_word(rng, local, rng.randint(1, 5))
                 for _ in range(rng.randint(1, 3))]
        subgroups.append(S.graph_of_subgroup(
            base, [W.Word(alphabet, w.letters) for w in words]))
    for subgroup in subgroups:
        check_translates(base, action, subgroup,
                         translate_lists(rng, action.elements))


def counted_refutes():
    """S._refutes wrapped so that its calls are counted."""
    return mock.patch.object(S, "_refutes", wraps=S._refutes)


def test_translate_family_meeting_no_translate_decides_no_power():
    """<e_0> shares a label with no translate but the identity, so beside
    the self pair a power is decided only when a translate repeats.
    <e_0^3> is refuted by its self pair, before any power."""
    alphabet, base, action = large_rotation(11)
    for word, counts in (("e0", (1, 1, 2)), ("e0^3", (1, 1, 1))):
        subgroup = S.graph_of_subgroup(base, [W.parse_word(alphabet, word)])
        for translates, calls in zip((action.elements, [4, 2, 9], [4, 2, 4]),
                                     counts):
            with counted_refutes() as spy:
                got = S.translate_family_check(base, action, subgroup, translates)
            assert spy.call_count == calls
            assert got == oracle_translate_family_check(base, action, subgroup,
                                                        translates)


def test_kernel_translate_check_decides_half_the_label_sharing_powers():
    """The modulus-58 kernel subgroup has labels e_-2, e_-1, e_0, e_1 (mod
    58): the check decides the self pair and each power x in 1..29 whose
    shifted labels meet those, and no other."""
    base, subgroup, action = _kernel_base_family(58)
    held = {-2 % 58, -1 % 58, 0, 1}
    sharing = [x for x in range(1, 30) if held & {(i + x) % 58 for i in held}]
    with counted_refutes() as spy:
        got = S.translate_family_check(base, action, subgroup, action.elements)
    assert got == (True, None)
    assert sharing == [1, 2, 3]
    assert spy.call_count == 1 + len(sharing)


def test_kernel_checks_certify_for_every_modulus_to_60():
    for n in range(7, 61):
        assert _kernel_checks(n)[1], n
