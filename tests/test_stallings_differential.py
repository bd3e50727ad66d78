"""Differential tests: the near-linear Stallings kernels against the
original quadratic ones, kept in helpers.py as an oracle.

Inputs are drawn from seeded generators; hypothesis picks the seeds
(derandomized, so every run sees the same ones) and prints the failing seed.
Canonical graphs are compared byte for byte through their file format,
fibre products component by component, and malnormality checks by verdict
and witness.
"""

import random

from hypothesis import given, settings

from forge import stallings as S
from forge import words as W
from forge.fileformats import format_immersion
from helpers import (derandomized, random_reduced_word, oracle_components,
                     oracle_core, oracle_fibre_product, oracle_fold,
                     oracle_malnormal_family_check, oracle_rank,
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
    assert fp.projection_1 == oracle.projection_1
    assert fp.projection_2 == oracle.projection_2


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
def test_fold_core_rank_on_random_graphs(seed):
    rng = random.Random(seed)
    base = S.rose(["a", "b", "c"][:rng.randint(1, 3)])
    morphism = random_morphism(rng, base)
    folded = S.fold(morphism)
    assert same_graph(folded, oracle_fold(morphism))
    assert same_graph(S.core(folded), oracle_core(folded))
    assert S.rank(morphism.domain) == oracle_rank(morphism.domain)
    assert S.rank(folded.domain) == oracle_rank(folded.domain)
    assert morphism.domain.components() == oracle_components(morphism.domain)


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
    """A rose on 2..9 letters and the cyclic action of a random permutation
    of its letters."""
    names = [f"e{i}" for i in range(rng.randint(2, 9))]
    image = names[:]
    rng.shuffle(image)
    base = S.rose(names)
    return W.Alphabet(names), base, S.RelabelingAction.cyclic(base, dict(zip(names, image)))


def cycle_action(rng):
    """A cycle of k vertices with a loop at each, rotated one step: the
    action moves the basepoint, so translated copies lose it."""
    k = rng.randint(2, 4)
    edges = {}
    for i in range(k):
        edges[f"c{i}"] = (i, (i + 1) % k, f"c{i}")
        edges[f"l{i}"] = (i, i, f"l{i}")
    base = S.LabeledGraph(range(k), edges, 0)
    edge_image = {f"{t}{i}": f"{t}{(i + 1) % k}" for i in range(k) for t in "cl"}
    vertex_image = {i: (i + 1) % k for i in range(k)}
    return k, base, S.RelabelingAction.cyclic(base, edge_image, vertex_image)


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
    alphabet, base, action = rotation_action(rng)
    subgroup = random_subgroups(rng, alphabet, base, 1)[0]
    check_translates(base, action, subgroup, translate_lists(rng, action.elements))


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_translate_families_on_rotated_cycles(seed):
    rng = random.Random(seed)
    k, base, action = cycle_action(rng)
    alphabet = W.Alphabet(sorted(base.edges))
    words = [W.Word(alphabet, tuple(cycle_word(rng, k)))
             for _ in range(rng.randint(1, 2))]
    subgroup = S.graph_of_subgroup(base, words)
    check_translates(base, action, subgroup, translate_lists(rng, action.elements))
