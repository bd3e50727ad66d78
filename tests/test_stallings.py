"""Subgroup graphs: folding, cores, fibre products, malnormality, kernels."""

import os
import random
import subprocess
import sys
import time

import pytest

import forge
from forge import stallings as S
from forge import words as W
from forge.errors import (BaseMismatchError, ConfigurationError,
                          DegenerateInputError, InvalidActionError,
                          NotALoopError)
from helpers import components, random_reduced_word, subgroup_ball

AB = W.Alphabet(["a", "b"])
ROSE = S.rose(["a", "b"])


def w(text):
    return W.parse_word(AB, text)


def sub(*texts):
    return S.graph_of_subgroup(ROSE, [w(t) for t in texts])


class TestGraphBasics:
    def test_rose(self):
        assert len(ROSE.vertices) == 1
        assert len(ROSE.edges) == 2
        assert ROSE.basepoint == "*"

    def test_bad_edge_rejected(self):
        with pytest.raises(ConfigurationError):
            S.LabeledGraph([0], {0: (0, 1, "a")})

    @pytest.mark.parametrize("args, cell", [
        (([0, 1], {"e": (0, 1, "a"), "f": (0, 2, "a")}), ("edge", "f")),
        (([0], {}, 1), ("basepoint", 1)),
        (([0, "x", 1, "x"], {}), ("vertex", "x")),
        (([0, 1, 1, 0], {}), ("vertex", 1)),   # the first repeat, not the first vertex repeated
    ])
    def test_refusal_names_its_cell(self, args, cell):
        with pytest.raises(ConfigurationError) as exc:
            S.LabeledGraph(*args)
        assert exc.value.cell == cell

    def test_repeat_among_many_refused_in_linear_time(self):
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match="^vertex 19999 is repeated$") as exc:
            S.LabeledGraph(list(range(20000)) + [19999], {})
        assert time.monotonic() - start < 0.5
        assert exc.value.cell == ("vertex", 19999)

    def test_refusals_and_the_order_given(self):
        with pytest.raises(ConfigurationError, match="endpoint outside"):
            S.LabeledGraph([0], {0: (0, 1, "a")})
        with pytest.raises(ConfigurationError, match="basepoint 1 is not a vertex"):
            S.LabeledGraph([0], {}, 1)
        with pytest.raises(ConfigurationError, match="vertex 'x' is repeated"):
            S.LabeledGraph([0, "x", 1, "x"], {})
        edges = {"e": (0, "x", "e")}
        graph = S.LabeledGraph(["x", 1, 0], edges, 1)
        assert graph.vertices == ("x", 1, 0)
        assert graph == S.LabeledGraph([0, 1, "x"], edges, 1)
        assert graph != S.LabeledGraph([0, 1, "x", "y"], edges, 1)

    def test_components(self):
        g = S.LabeledGraph([0, 1, 2], {"e": (0, 1, "e")})
        assert components(g) == [[0, 1], [2]]


class TestFolding:
    def test_full_group(self):
        g = sub("a", "b")
        assert g.domain == ROSE or len(g.domain.vertices) == 1
        assert len(g.domain.edges) == 2

    def test_canonical_independent_of_generator_order(self):
        assert sub("a^2", "b") == sub("b", "a^2")
        assert sub("a^2", "b", "a^2 b") == sub("a^2", "b")

    def test_redundant_generators_collapse(self):
        assert sub("a", "a^3") == sub("a")

    def test_labels_of_mixed_types(self):
        """Edge ids 1 and "a", an int and a name as a file gives them, order
        as the base lists them, 1 before a, at every step: z, reached by the
        1-edge, is numbered before y, reached by the a-edge."""
        base = S.LabeledGraph(["v"], {1: ("v", "v", 1), "a": ("v", "v", "a")}, "v")
        graph = S.LabeledGraph(["x", "y", "z"], {"e0": ("x", "y", "a"), "e1": ("x", "z", 1),
                                                 "e2": ("y", "y", 1)}, "x")
        folded = S.fold(S.GraphImmersion(graph, base, dict.fromkeys("xyz", "v"),
                                         folded=False))
        assert folded.domain.edges == {0: (0, 1, 1), 1: (0, 2, "a"), 2: (2, 2, 1)}
        assert S.canonical_form(folded) == folded
        assert S.core(folded).domain.edges == {0: (0, 1, "a"), 1: (1, 1, 1)}

    def test_unreadable_word_rejected(self):
        base = S.LabeledGraph([0, 1], {"e": (0, 1, "e")}, 0)
        e = W.Alphabet(["e"])
        with pytest.raises(NotALoopError):
            S.graph_of_subgroup(base, [e.gen("e")])


class TestMembership:
    def test_simple(self):
        g = sub("a^2", "b")
        assert S.membership(g, w("a^2"))
        assert S.membership(g, w("b a^2 b^-1"))
        assert not S.membership(g, w("a"))
        assert not S.membership(g, w("a b a^-1"))

    def test_unfolded_non_immersion_refused(self):
        """Membership is read by following edges, which is defined only on
        an immersion: e0 e2 reads a^2, but e1 also leaves 0 labelled a, so
        a graph built unfolded is refused there, naming e1."""
        base = S.rose(["a"])
        g = S.LabeledGraph([0, 1, 2], {"e0": (0, 1, "a"), "e1": (0, 2, "a"),
                                       "e2": (1, 0, "a")}, 0)
        imm = S.GraphImmersion(g, base, dict.fromkeys([0, 1, 2], "*"), folded=False)
        with pytest.raises(ConfigurationError, match="not an immersion") as info:
            S.membership(imm, W.parse_word(W.Alphabet(["a"]), "a^2"))
        assert info.value.cell == ("edge", "e1")

    def test_oracle_small(self):
        rng = random.Random(7301)
        print("seed 7301")
        for _ in range(25):
            gens = [random_reduced_word(rng, AB, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 2))]
            graph = S.graph_of_subgroup(ROSE, gens)
            ball = subgroup_ball(gens, 6)
            for _ in range(20):
                x = random_reduced_word(rng, AB, rng.randint(0, 6))
                assert S.membership(graph, x) == (x.letters in ball)


class TestRank:
    def test_free_ranks(self):
        assert S.total_rank(sub("a", "b").domain) == 2
        assert S.total_rank(sub("a^2", "b^2", "a b").domain) == 3
        assert S.total_rank(sub("a^2").domain) == 1


class TestFibreProduct:
    def test_intersection_of_powers(self):
        fp = S.fibre_product(sub("a^2"), sub("a^3"))
        based = [c for c in fp.components if (0, 0) in c.vertices]
        assert len(based) == 1
        assert based[0].rank == 1  # <a^2> meet <a^3> = <a^6>

    def test_self_product_flags_diagonal(self):
        g = sub("a^2")
        fp = S.fibre_product(g, g)
        diagonal = [c for c in fp.components if c.is_diagonal]
        assert len(diagonal) == 1
        assert not diagonal[0].is_tree

    def test_distinct_immersions_have_no_diagonal(self):
        fp = S.fibre_product(sub("a^2"), sub("a^4"))
        assert all(not c.is_diagonal for c in fp.components)

    def test_base_mismatch(self):
        other = S.rose(["a", "b", "c"])
        h = S.graph_of_subgroup(other, [W.parse_word(W.Alphabet(["a", "b", "c"]), "a")])
        with pytest.raises(BaseMismatchError):
            S.fibre_product(sub("a"), h)


class TestMalnormality:
    def test_cyclic_on_generator_certified(self):
        ok, witness = S.malnormal_family_check([sub("a")])
        assert ok and witness is None

    def test_proper_power_refuted(self):
        ok, witness = S.malnormal_family_check([sub("a^2")])
        assert not ok
        assert witness.component.rank >= 1

    def test_conjugate_family_refuted(self):
        ok, witness = S.malnormal_family_check([sub("a"), sub("b a b^-1")])
        assert not ok
        assert witness.pair == (0, 1)

    def test_family_over_two_bases_rejected(self):
        """Even when an earlier pair would refute: a family over two bases
        has no verdict."""
        other = S.rose(["a", "b", "c"])
        h = S.graph_of_subgroup(other, [W.parse_word(W.Alphabet(["a", "b", "c"]), "a")])
        for family in ([sub("a"), h], [sub("a^2"), h]):
            with pytest.raises(BaseMismatchError):
                S.malnormal_family_check(family)


# Two 20,000-vertex cycles over a rose, on labels x_i and y_i, that share
# the one label s: each self product has no edge, and the pair's product one.
SPARSE_PRODUCT_SCRIPT = """
from forge import stallings as S
n = 20000
xs, ys = [f"x{i}" for i in range(n - 1)], [f"y{i}" for i in range(n - 1)]
base = S.rose(xs + ys + ["s"])

def cycle(labels):
    edges = {k: (k, (k + 1) % n, label) for k, label in enumerate(labels)}
    return S.GraphImmersion(S.LabeledGraph(range(n), edges, 0), base,
                            dict.fromkeys(range(n), "*"))

print(S.malnormal_family_check([cycle(xs + ["s"]), cycle(ys + ["s"])]))
"""


def test_sparse_product_is_decided_in_small_memory():
    """Each product here has 4 * 10^8 vertex pairs, which a flat list of
    parents would hold in 3.2 GB, and at most one edge.  The child runs
    under a 256 MiB address-space limit and a timeout, so the certifier
    passes only if it keeps the parents of a sparse product in a dict."""
    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(forge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 28, 2 ** 28))

    run = subprocess.run([sys.executable, "-c", SPARSE_PRODUCT_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert (run.returncode, run.stdout, run.stderr) == (0, "(True, None)\n", "")


class TestRelabelingAction:
    def rotation(self, n):
        base = S.rose([f"e{i}" for i in range(n)])
        image = {f"e{i}": f"e{(i + 1) % n}" for i in range(n)}
        return base, S.RelabelingAction.cyclic(base, image)

    def test_cyclic_order(self):
        _, action = self.rotation(4)
        assert action.order == 4 and action.elements == [0, 1, 2, 3]

    @pytest.mark.parametrize("edge_image", [
        {"a": "a", "b": "a"},   # its powers never return to the identity
        {"a": "b"},
        {"a": "b", "b": ["a"]},
        {"a": "a", "c": "b"}])   # the right number of keys, not the right keys
    def test_cyclic_rejects_non_permutations(self, edge_image):
        with pytest.raises(InvalidActionError,
                           match="^edge map is not a permutation of the base edges$"):
            S.RelabelingAction.cyclic(S.rose(["a", "b"]), edge_image)

    @pytest.mark.parametrize("element", [5, [[5]], "ab"])
    def test_malformed_elements_rejected(self, element):
        """A generator that is not a map."""
        with pytest.raises(InvalidActionError, match="^action element is not an edge map$"):
            S.RelabelingAction.cyclic(S.rose(["a", "b"]), element)

    def test_cyclic_of_large_order_refused_at_once(self):
        """Cycle type 3, 4, 5, 7, 11, 13, 17 on 60 letters: order 1,021,020,
        and 61 images per power."""
        names = [f"e{i}" for i in range(60)]
        image, start = {}, 0
        for length in (3, 4, 5, 7, 11, 13, 17):
            cycle = names[start:start + length]
            image.update(zip(cycle, cycle[1:] + cycle[:1]))
            start += length
        with pytest.raises(DegenerateInputError, match="order 1021020"):
            S.RelabelingAction.cyclic(S.rose(names), image)

    def test_translate_family_rejects_another_base(self):
        base, action = self.rotation(3)
        other = S.rose(["e0", "e1", "e2", "e3"])
        e = W.Alphabet(["e0", "e1", "e2", "e3"])
        g = S.graph_of_subgroup(other, [e.gen("e0")])
        with pytest.raises(BaseMismatchError):
            S.translate_family_check(base, action, g, action.elements)
        with pytest.raises(BaseMismatchError):
            S.translate_family_check(other, action, g, action.elements)

    def test_translate_moves_labels(self):
        base, action = self.rotation(3)
        e = W.Alphabet([f"e{i}" for i in range(3)])
        g = S.graph_of_subgroup(base, [e.gen("e0")])
        moved = S.translate(g, action.maps(1))
        labels = {label for _, _, label in moved.domain.edges.values()}
        assert labels == {"e1"}

    def test_translate_family_rejects_foreign_element(self):
        """Elements are the powers 0..order-1 as ints: no other value, not
        even an equal bool, float or string, nor the maps of a power."""
        base, action = self.rotation(3)
        e = W.Alphabet([f"e{i}" for i in range(3)])
        g = S.graph_of_subgroup(base, [e.gen("e0")])
        for bogus in [action.order, -1, True, 1.0, "0", None, action.maps(0)]:
            with pytest.raises(InvalidActionError,
                               match="^translate is not an element of the action$"):
                S.translate_family_check(base, action, g, [0, bogus])


class TestKernelRewriting:
    def test_convention(self):
        rw = S.KernelRewriting(modulus=5, alpha="a", beta="b")
        x = W.Alphabet(["a", "b"])
        out = S.rewrite_to_kernel(rw, W.parse_word(x, "b^2 a b^-2"))
        assert out == W.parse_word(S.kernel_alphabet(rw), "e2")

    def test_outside_kernel_is_none(self):
        rw = S.KernelRewriting(modulus=5, alpha="a", beta="b")
        x = W.Alphabet(["a", "b"])
        assert S.rewrite_to_kernel(rw, W.parse_word(x, "b a")) is None

    def test_multiplicative(self):
        rw = S.KernelRewriting(modulus=4, alpha="a", beta="b")
        x = W.Alphabet(["a", "b"])
        rng = random.Random(7302)
        print("seed 7302")
        for _ in range(50):
            u = random_reduced_word(rng, x, rng.randint(0, 6))
            v = random_reduced_word(rng, x, rng.randint(0, 6))
            ru, rv = S.rewrite_to_kernel(rw, u), S.rewrite_to_kernel(rw, v)
            if ru is None or rv is None:
                continue
            assert S.rewrite_to_kernel(rw, u * v) == ru * rv

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            S.KernelRewriting(modulus=0, alpha="a", beta="b")
        with pytest.raises(DegenerateInputError):
            S.KernelRewriting(modulus=3, alpha="a", beta="a")


# A base that is no rose: a runs from x to y and b back.
PATH_BASE = S.LabeledGraph(["x", "y"], {"a": ("x", "y", "a"), "b": ("y", "x", "b")}, "x")
ABC = W.Alphabet(["a", "b", "c"])
PATH_SUB = S.graph_of_subgroup(PATH_BASE, [W.parse_word(ABC, "a b")])


@pytest.mark.parametrize("call, error, message", [
    (lambda: S.GraphImmersion(S.LabeledGraph([0], {}), ROSE, {}),
     ConfigurationError, "vertex 0 is not mapped into the base"),
    (lambda: S.GraphImmersion(S.LabeledGraph([0], {}), ROSE, {0: "*", 9: "*"}),
     ConfigurationError, "vmap names 9, which is not a vertex"),
    (lambda: S.GraphImmersion(S.LabeledGraph([0], {"e": (0, 0, "c")}), ROSE, {0: "*"}),
     ConfigurationError, "edge 'e' carries unknown label 'c'"),
    (lambda: S.GraphImmersion(S.LabeledGraph([0, 1], {"e": (0, 1, "a")}), PATH_BASE,
                              {0: "x", 1: "x"}),
     ConfigurationError, "edge 'e' is not label-consistent with the base"),
    (lambda: S.GraphImmersion(S.LabeledGraph([0, 1], {}, 1), PATH_BASE, {0: "x", 1: "y"}),
     ConfigurationError, "basepoints do not correspond under the map"),
    (lambda: S.GraphImmersion(S.LabeledGraph([0], {"e": (0, 0, "a"), "f": (0, 0, "a")}),
                              ROSE, {0: "*"}),
     ConfigurationError, "graph is not an immersion; fold it first"),
    (lambda: S.membership(PATH_SUB, W.parse_word(ABC, "c")),
     NotALoopError, "word uses unknown base edge 'c'"),
    (lambda: S.membership(PATH_SUB, W.parse_word(ABC, "b")),
     NotALoopError, "edge 'b' is not readable at 'x'"),
    (lambda: S.membership(PATH_SUB, W.parse_word(ABC, "a^-1")),
     NotALoopError, "edge 'a' is not readable backwards at 'x'"),
    (lambda: S.membership(PATH_SUB, W.parse_word(ABC, "a")),
     NotALoopError, "word does not close up at the basepoint"),
    (lambda: S.graph_of_subgroup(S.LabeledGraph(["*"], {"a": ("*", "*", "a")}), [w("a")]),
     ConfigurationError, "base graph has no basepoint"),
    (lambda: S.total_rank(S.LabeledGraph([0, 1], {})),
     ConfigurationError, "total_rank requires a connected graph"),
    (lambda: S.membership(S.GraphImmersion(S.LabeledGraph([0], {}), ROSE, {0: "*"}), w("a")),
     ConfigurationError, "domain graph has no basepoint"),
    (lambda: S.rewrite_to_kernel(S.KernelRewriting(modulus=5, alpha="a", beta="b"),
                                 W.parse_word(ABC, "a c")),
     DegenerateInputError, "kernel rewriting expects letters 'a'/'b', got 'c'"),
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
