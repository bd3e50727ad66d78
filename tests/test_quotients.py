"""Quotient searches against exhaustive enumeration, plus permutation
utilities and the presentation simplifier."""

import math
import random

import pytest

from forge import words as W
from forge.encoder import encode_discrete
from forge.errors import DegenerateInputError, IndependenceError
from forge.presentations import FinitePresentation
from forge.quotients import (OrderSpec, SearchBudget, _enumerate_homs,
                             _restore_assignment,
                             _transfer_word, cycle_notation, element_order,
                             grushko_lower_bound,
                             has_nontrivial_quotient_upto, identity_perm,
                             perm_inv, perm_mul, perm_order, search,
                             search_homs,
                             search_order_targeted, simplify_presentation,
                             verify_order_spec, word_survives_upto)
from helpers import brute_force_homs, random_reduced_word


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

    def test_node_budget_stops(self):
        p = pres(["a", "b"])
        out = word_survives_upto(
            p, p.word("a b a^-1 b^-1"),
            SearchBudget(max_degree=6, max_nodes=3))
        assert out.nodes <= 4

    @pytest.mark.parametrize("per_degree, degrees", [
        (False, [(2, 32, False), (3, 521, False), (4, 471, True)]),
        (True, [(2, 32, False), (3, 521, False), (4, 1024, True)]),
    ])
    def test_time_limit_stops(self, per_degree, degrees):
        """The clock is read every 1,024 nodes, so an expired time limit
        stops the search at the 1,024th node of the tracker: of the whole
        search, or of one degree with per_degree."""
        p = pres(["a"], "a^2")
        out = search(encode_discrete(p, p.word("a")),
                     SearchBudget(max_degree=5, time_limit=1e-9),
                     per_degree=per_degree)
        assert out.status == "exhausted"
        assert out.degrees == degrees
        assert out.nodes == sum(nodes for _, nodes, _ in degrees)


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
