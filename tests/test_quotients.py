"""Quotient searches against exhaustive enumeration, plus permutation
utilities and the presentation simplifier."""

import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest

import forge
from forge import quotients
from forge import words as W
from forge.encoder import encode_discrete
from forge.errors import AlphabetMismatchError, DegenerateInputError, IndependenceError
from forge.presentations import FinitePresentation
from forge.quotients import (OrderSpec, PermutationAssignment, SearchBudget,
                             _enumerate_homs,
                             _restore_assignment,
                             _transfer_word, cycle_notation, element_order,
                             has_nontrivial_quotient_upto, identity_perm,
                             perm_inv, perm_mul, perm_order, search,
                             search_homs,
                             search_order_targeted, simplify_presentation,
                             verify_order_spec, word_survives_upto)
from helpers import brute_force_homs, grushko_lower_bound, random_reduced_word


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


class TestPermutations:
    def test_mul_left_to_right(self):
        s = (1, 0, 2)  # (1 2)
        t = (0, 2, 1)  # (2 3)
        assert perm_mul(s, t) == tuple(t[s[i]] for i in range(3))

    def test_inverse(self):
        p = (2, 0, 1)
        assert perm_mul(p, perm_inv(p)) == identity_perm(3)

    def test_order(self):
        assert perm_order(identity_perm(4)) == 1
        assert perm_order((1, 0, 3, 2)) == 2
        assert perm_order((1, 2, 0, 4, 3)) == 6

    def test_cycle_notation(self):
        assert cycle_notation(identity_perm(3)) == "id"
        assert cycle_notation((1, 0, 2)) == "(1 2)"
        assert cycle_notation((1, 2, 0)) == "(1 2 3)"


class TestSearchHoms:
    def test_matches_brute_force(self):
        rng = random.Random(7401)
        print("seed 7401")
        for _ in range(12):
            names = ["a", "b"][:rng.randint(1, 2)]
            alphabet = W.Alphabet(names)
            rels = [random_reduced_word(rng, alphabet, rng.randint(1, 4))
                    for _ in range(rng.randint(0, 2))]
            p = FinitePresentation(alphabet, rels)
            for n in (2, 3):
                assert len(search_homs(p, n)) == len(brute_force_homs(p, n))

    def test_torus_degree_3(self):
        p = pres(["a", "b"], "a b a^-1 b^-1")
        assert len(search_homs(p, 3)) == 18


class TestSources:
    def test_large_source_leaves_with_its_search(self):
        """All of S_8 is past what a process keeps of one source, so the
        walk over it holds its permutations and inverses only while it
        runs; less than 1 MB is left once its result is gone, where a table kept
        for the process would hold 11.6 MB."""
        p = pres(["a"])
        tracemalloc.start()
        try:
            homs = search_homs(p, 8)
            assert len(homs) == math.factorial(8)
            del homs
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20

    def test_small_source_serves_later_searches(self):
        """A degree-5 source is kept: the first search builds each inverse
        of S_5 once, an identical second search builds none."""
        p = pres(["a", "b"], "a b a^-1 b^-1")
        with mock.patch.dict(quotients._SOURCES, clear=True), \
                mock.patch.object(quotients, "perm_inv", wraps=perm_inv) as built:
            first = search_homs(p, 5)
            assert built.call_count == math.factorial(5)
            built.reset_mock()
            assert search_homs(p, 5) == first
            assert built.call_count == 0


class TestSimplifier:
    def test_collapses_trivial_group(self):
        simp = simplify_presentation(pres(["a"], "a"))
        assert simp.presentation.generators == ()

    def test_preserves_hom_counts(self):
        rng = random.Random(7402)
        print("seed 7402")
        for _ in range(10):
            names = ["a", "b"][:rng.randint(1, 2)]
            alphabet = W.Alphabet(names)
            rels = [random_reduced_word(rng, alphabet, rng.randint(1, 4))
                    for _ in range(rng.randint(0, 2))]
            p = FinitePresentation(alphabet, rels)
            simp = simplify_presentation(p)
            assert len(search_homs(p, 3)) == len(search_homs(simp.presentation, 3))

    def test_restored_assignment_satisfies_relators(self):
        p = pres(["a", "b"], "a b^-2", "b a b a^-1")
        simp = simplify_presentation(p)
        for q in search_homs(simp.presentation, 4):
            full = _restore_assignment(p, simp, q)
            for r in p.relators:
                assert full.evaluate(r) == identity_perm(4)

    def test_doubling_chain_stops_at_the_letter_bound(self, tmp_path):
        """A chain a{i+1} = a{i}^2 whose last link is a relator doubles the
        words it substitutes at each elimination; past MAX_WORD_LETTERS it
        ends in exit 1 and one error line.  The child runs under a timeout
        and a 1 GB address-space limit, so an unbounded simplifier fails
        here instead of filling the machine."""
        resource = pytest.importorskip("resource")
        lines = ["gens: " + " ".join(f"a{i}" for i in range(26))]
        lines += [f"rel: a{i + 1}^-1 a{i} a{i}" for i in range(25)]
        lines.append("rel: a25 a0^-1 a25")
        chain = tmp_path / "chain25.txt"
        chain.write_text("\n".join(lines) + "\n")
        src = os.path.dirname(os.path.dirname(forge.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        run = subprocess.run(
            [sys.executable, "-m", "forge.cli", "quotients", str(chain),
             "--max-degree", "3", "--max-nodes", "100"], env=env, capture_output=True,
            text=True, timeout=60, preexec_fn=limit)
        assert run.returncode == 1 and run.stderr == ""
        assert "status: error" in run.stdout.splitlines()
        assert sum(line.startswith("error:") for line in run.stdout.splitlines()) == 1

    def test_transferred_word_evaluates_equally(self):
        p = pres(["a", "b"], "a b^-2")
        simp = simplify_presentation(p)
        word = p.word("a b a")
        ws = _transfer_word(simp, word)
        for q in search_homs(simp.presentation, 3):
            full = _restore_assignment(p, simp, q)
            assert full.evaluate(word) == q.evaluate(ws)


class TestBudgetedSearches:
    def test_word_survives_in_free_group(self):
        p = pres(["a"])
        out = word_survives_upto(p, p.word("a"), SearchBudget(max_degree=3))
        assert out.status == "witness"
        assert out.witness.evaluate(p.word("a")) != identity_perm(out.witness.degree)

    def test_dead_word_exhausts(self):
        p = pres(["a"], "a")
        out = word_survives_upto(p, p.word("a"), SearchBudget(max_degree=5))
        assert out.status == "exhausted"
        assert out.witness is None

    def test_has_nontrivial_quotient(self):
        out = has_nontrivial_quotient_upto(pres(["a"], "a^2"),
                                           SearchBudget(max_degree=3))
        assert out.status == "witness"
        out = has_nontrivial_quotient_upto(pres(["a"], "a"),
                                           SearchBudget(max_degree=5))
        assert out.status == "exhausted"

    def test_generator_free_search_stops_after_its_first_degree(self, tmp_path):
        """<a | a> simplifies to no generators, whose only hom at every
        degree is the trivial one and costs no node, so the search stops
        after degree 5 (H_1 = 0) however large max_degree is.  The child
        runs under a timeout, so a search that walks every degree fails
        here."""
        p = pres(["a"], "a")
        out = has_nontrivial_quotient_upto(p, SearchBudget(max_degree=200))
        assert out.status == "exhausted"
        assert out.degrees == [(5, 0, False)] and out.max_degree_searched == 5
        presentation = tmp_path / "a.txt"
        presentation.write_text("gens: a\nrel: a\n")
        src = os.path.dirname(os.path.dirname(forge.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run(
            [sys.executable, "-m", "forge.cli", "quotients", str(presentation),
             "--max-degree", "100000"], env=env, capture_output=True, text=True,
            timeout=30)
        assert run.returncode == 2 and run.stderr == ""
        assert [line for line in run.stdout.splitlines()
                if line.startswith("degree ")] == ["degree 5: nodes=0"]

    def test_generator_free_order_spec_keeps_its_witness(self):
        """An order spec met by the trivial hom is met at the first degree,
        and the search stops there with that witness."""
        empty = W.Word(W.Alphabet(()), ())
        spec = OrderSpec(targets=(empty, empty), kappa=1, exponents=(1, 1))
        out = search(FinitePresentation(empty.alphabet),
                     SearchBudget(max_degree=200), spec)
        assert out.status == "witness" and out.witness.degree == 2
        assert [n for n, _, _ in out.degrees] == [2]

    def test_node_budget_stops(self):
        p = pres(["a", "b"])
        out = word_survives_upto(
            p, p.word("a b a^-1 b^-1"),
            SearchBudget(max_degree=6, max_nodes=3))
        assert out.nodes <= 4

    @pytest.mark.parametrize("per_degree, degrees", [
        (False, [(5, 1024, True)]),
        (True, [(5, 1024, True)]),
    ])
    def test_time_limit_stops(self, per_degree, degrees):
        """The clock is read every 1,024 nodes, so an expired time limit
        stops the search at the 1,024th node of the tracker.  The encoder's
        output is perfect, so the search starts at degree 5 and stops
        there, with or without per_degree."""
        p = pres(["a"], "a^2")
        out = search(encode_discrete(p, p.word("a")),
                     SearchBudget(max_degree=5, time_limit=1e-9),
                     per_degree=per_degree)
        assert out.status == "exhausted"
        assert out.degrees == degrees
        assert out.nodes == sum(nodes for _, nodes, _ in degrees)
        assert out.excluded == (2, 3, 4) and out.even_only

    @pytest.mark.parametrize("per_degree, degrees", [
        (False, [(2, 15, False), (3, 130, False), (4, 879, True)]),
        (True, [(2, 15, False), (3, 130, False), (4, 1024, True)]),
    ])
    def test_time_limit_stops_the_tracker_of_each_degree(self, per_degree, degrees):
        """An expired time limit stops the search at the 1,024th node of
        the whole search, or of one degree with per_degree.  H_1 is
        (Z/2)^4, so the search starts at degree 2 over all of S_n, and the
        word, in the third derived subgroup, dies in every image in S_2,
        S_3 and S_4, which are solvable of derived length at most 3."""
        p = pres(["a", "b", "c", "d"], "d^2", "a d a d", "b d b d", "c d c d")
        a, b, c, d = map(p.alphabet.gen, "abcd")
        word = W.commutator(W.commutator(W.commutator(a, b), W.commutator(c, d)),
                            W.commutator(W.commutator(a, c), W.commutator(b, d)))
        out = search(p, SearchBudget(max_degree=5, time_limit=1e-9), word,
                     per_degree=per_degree)
        assert out.status == "exhausted"
        assert out.degrees == degrees
        assert out.nodes == sum(nodes for _, nodes, _ in degrees)
        assert out.excluded == () and not out.even_only


class TestOrders:
    def test_element_order_power_law(self):
        p = pres(["a"])
        rng = random.Random(7403)
        print("seed 7403")
        out = word_survives_upto(p, p.word("a"), SearchBudget(max_degree=5))
        q = out.witness
        o = element_order(q, p.word("a"))
        for k in range(1, 7):
            assert element_order(q, p.word("a") ** k) == o // math.gcd(o, k)

    def test_verify_order_spec(self):
        p = pres(["a", "b"])
        spec = OrderSpec(targets=(p.word("a"), p.word("b")),
                         kappa=1, exponents=(2, 3))
        out = search_order_targeted(p, spec, SearchBudget(max_degree=5))
        assert out.status == "witness"
        ok, report = verify_order_spec(out.witness, spec)
        assert ok
        assert [r["actual"] for r in report["orders"]] == [2, 3]

    def test_goal_without_letters_or_generators(self):
        """A goal word with no letters is decided at generator 0, also when
        the presentation has no generator at all: the identity never
        survives, and has order kappa * e exactly when that is 1."""
        empty = W.Word(W.Alphabet(()), ())
        p = FinitePresentation(empty.alphabet)
        assert list(_enumerate_homs(p, 3, None, empty)) == []
        spec = OrderSpec(targets=(empty, empty), kappa=1, exponents=(1, 1))
        assert len(list(_enumerate_homs(p, 3, None, spec))) == 1
        spec = OrderSpec(targets=(empty, empty), kappa=2, exponents=(1, 1))
        assert list(_enumerate_homs(p, 3, None, spec)) == []
        q = pres(["a"], "a^2")
        spec = OrderSpec(targets=(q.word("1"), q.word("a")), kappa=1, exponents=(1, 2))
        assert [h.images for h in _enumerate_homs(q, 2, None, spec)] == [{"a": (1, 0)}]

    def test_dependent_targets_rejected(self):
        p = pres(["a", "b"])
        spec = OrderSpec(targets=(p.word("a"), p.word("b a^2 b^-1")),
                         kappa=1, exponents=(2, 2))
        with pytest.raises(IndependenceError):
            search_order_targeted(p, spec, SearchBudget(max_degree=3))

    def test_spec_validation(self):
        p = pres(["a", "b"])
        with pytest.raises(DegenerateInputError):
            OrderSpec(targets=(p.word("a"),), kappa=1, exponents=(2,))
        with pytest.raises(DegenerateInputError):
            OrderSpec(targets=(p.word("a"), p.word("b")), kappa=0,
                      exponents=(2, 3))


class TestGrushko:
    def test_values(self):
        assert grushko_lower_bound(60) == 59
        assert grushko_lower_bound(1) == 1
        assert grushko_lower_bound(0) == 0
        assert grushko_lower_bound(61) == 60

    def test_negative_rejected(self):
        with pytest.raises(DegenerateInputError):
            grushko_lower_bound(-1)


AB2 = pres(["a", "b"])
FOREIGN = W.parse_word(W.Alphabet(["z"]), "z")


@pytest.mark.parametrize("call, error, message", [
    (lambda: OrderSpec(targets=(AB2.word("a"), AB2.word("b")), kappa=1, exponents=(2,)),
     DegenerateInputError, "one exponent per target is required"),
    (lambda: SearchBudget(max_degree=3, time_limit=0),
     DegenerateInputError, "time limit must be positive"),
    (lambda: search_homs(AB2, 0), DegenerateInputError, "degree must be >= 1"),
    (lambda: word_survives_upto(AB2, FOREIGN, SearchBudget(max_degree=3)),
     AlphabetMismatchError, "word over a different alphabet than the presentation"),
    (lambda: search_order_targeted(
        AB2, OrderSpec(targets=(AB2.word("a"), FOREIGN), kappa=1, exponents=(2, 3)),
        SearchBudget(max_degree=3)),
     AlphabetMismatchError, "spec target over a different alphabet"),
    (lambda: PermutationAssignment(2, {"a": (1, 0)}).evaluate(AB2.word("a b")),
     AlphabetMismatchError, "no image assigned for generator 'b'"),
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
