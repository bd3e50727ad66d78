"""Acceptance criteria: one test and one printed pass/fail line each.

Every check is exact-integer; randomness is seeded and the seed printed.
Time bounds are asserted per criterion.
"""

import contextlib
import random
import re
import time

from forge import stallings as S
from forge import words as W
from forge.encoder import (_kernel_base_family, encode, select_malnormal_words)
from forge.fileformats import trace_to_json
from forge.presentations import FinitePresentation, free_power
from forge.quotients import (OrderSpec, SearchBudget,
                             has_nontrivial_quotient_upto, search_homs,
                             search_order_targeted, verify_order_spec)
from forge.squarecx import (build_S_of_P, check_link_condition,
                            homs_killing_copies, one_square_torus,
                            SquareComplex)
from forge.cli import RunReport, run_encode_and_probe
from helpers import (brute_force_homs, exponent_sum, grushko_lower_bound,
                     random_reduced_word, subgroup_ball)

AB = W.Alphabet(["a", "b"])
ROSE = S.rose(["a", "b"])


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


@contextlib.contextmanager
def criterion(number, label, limit, announce):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        announce(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    announce(f"criterion {number:2d} ({label}): PASS [{elapsed:.1f}s]")


def test_01_membership_oracle(announce):
    with criterion(1, "membership oracle equivalence", 30, announce):
        rng = random.Random(20260823)
        announce("criterion  1 seed: 20260823")
        for _ in range(200):
            gens = [random_reduced_word(rng, AB, rng.randint(1, 6))
                    for _ in range(rng.randint(1, 3))]
            graph = S.graph_of_subgroup(ROSE, gens)
            ball = subgroup_ball(gens, 8)
            for _ in range(25):
                x = random_reduced_word(rng, AB, rng.randint(0, 8))
                assert S.membership(graph, x) == (x.letters in ball)


def test_02_kernel_core_rank(announce):
    with criterion(2, "rank-3 kernel core", 5, announce):
        for N in range(7, 13):
            _, sub, _ = _kernel_base_family(N)
            assert S.total_rank(sub.domain) == 3


def test_03_fibre_product_counts(announce):
    with criterion(3, "fibre-product counts at N=7", 5, announce):
        _, sub, action = _kernel_base_family(7)
        for i in (1, 2, 3):
            fp = S.fibre_product(sub, S.translate(sub, action.maps(i)))
            assert len(fp.total.edges) == 4 - i
            assert all(c.is_tree for c in fp.components)
        fp0 = S.fibre_product(sub, sub)
        off_diagonal = [c for c in fp0.components if not c.is_diagonal]
        assert all(len(c.vertices) == 1 and c.edge_count == 0
                   for c in off_diagonal)
        non_trees = [c for c in fp0.components if not c.is_tree]
        assert len(non_trees) == 1 and non_trees[0].is_diagonal


def test_04_malnormality_certification(announce):
    with criterion(4, "malnormality certification", 60, announce):
        for N in range(7, 13):
            base, sub, action = _kernel_base_family(N)
            ok, witness = S.translate_family_check(base, action, sub,
                                                   action.elements)
            assert ok and witness is None
        square = S.graph_of_subgroup(ROSE, [W.parse_word(AB, "a^2")])
        ok, witness = S.malnormal_family_check([square])
        assert not ok
        assert witness.component.rank >= 1  # a genuine cycle, not a tree


def test_05_word_selection_pipeline(announce):
    with criterion(5, "certified word selection", 300, announce):
        for m in (0, 1, 2):
            c_words, cert = select_malnormal_words(m, N=7)
            assert cert.is_valid()
            assert cert.rank == m + 2
            for c in c_words:
                assert exponent_sum(c, "t") == 0
                assert exponent_sum(c, "w") == 0


def test_06_almost_malnormal_example(announce):
    with criterion(6, "Z/4-Z/2 almost malnormal example", 5, announce):
        base = S.rose([f"e{i}" for i in range(4)])
        E = W.Alphabet([f"e{i}" for i in range(4)])
        rotation = {f"e{i}": f"e{(i + 1) % 4}" for i in range(4)}
        action = S.RelabelingAction.cyclic(base, rotation)
        sub = S.graph_of_subgroup(base, [E.gen("e0"), E.gen("e2")])
        # Coset representatives of the index-2 subgroup in the rotation group.
        reps = [action.elements[0], action.elements[1]]
        ok, witness = S.translate_family_check(base, action, sub, reps)
        assert ok and witness is None


def test_07_encoder_determinism_and_bookkeeping(announce):
    with criterion(7, "encoder determinism and bookkeeping", 60, announce):
        p = pres(["a"])
        first = encode(p, p.word("a"))
        second = encode(p, p.word("a"))
        assert trace_to_json(first) == trace_to_json(second)
        m = 1
        assert len(first.p_dagger.generators) == (m + 1) * (2 * m + 1)
        assert len(first.p_dagger.relators) == (2 * m + 1) * (len(p.relators) + 1)
        assert len(first.p_prime.generators) == (m + 1) * (2 * m + 1) + 1
        assert len(first.p1.generators) == 2 * len(first.p_prime.generators)
        assert len(first.p2.generators) == len(first.p1.generators) + 1
        assert len(first.p_w.generators) == 2 * len(first.p2.generators)
        samples = [(pres(["a"]), "a"), (pres(["a"], "a"), "a"),
                   (pres(["a"], "a^2"), "a")]
        for q, text in samples:
            trace = encode(q, q.word(text))
            inv = trace.abelianizations["p_w"]
            assert (inv.betti, inv.torsion) == (0, ())


def test_08_quotient_search_oracle(announce):
    with criterion(8, "quotient-search oracle equivalence", 60, announce):
        rng = random.Random(20260824)
        announce("criterion  8 seed: 20260824")
        torus = pres(["a", "b"], "a b a^-1 b^-1")
        assert len(search_homs(torus, 3)) == 18
        cases = [torus]
        while len(cases) < 20:
            names = ["a", "b"][:rng.randint(1, 2)]
            alphabet = W.Alphabet(names)
            rels = [random_reduced_word(rng, alphabet, rng.randint(1, 4))
                    for _ in range(rng.randint(0, 2))]
            cases.append(FinitePresentation(alphabet, rels))
        for p in cases:
            for n in (2, 3, 4):
                assert len(search_homs(p, n)) == len(brute_force_homs(p, n))


def test_09_order_targeted_search(announce):
    with criterion(9, "order-targeted quotient", 10, announce):
        p = pres(["a", "b"])
        spec = OrderSpec(targets=(p.word("a"), p.word("b")),
                         kappa=1, exponents=(2, 3))
        out = search_order_targeted(p, spec, SearchBudget(max_degree=5))
        assert out.status == "witness"
        assert out.max_degree_searched <= 5
        ok, _ = verify_order_spec(out.witness, spec)
        assert ok


def test_10_free_power_arithmetic(announce):
    with criterion(10, "free-power quotient arithmetic", 10, announce):
        budget = SearchBudget(max_degree=4)
        for p in (pres(["a"], "a^2"), pres(["a"], "a")):
            single = has_nontrivial_quotient_upto(p, budget)
            triple = has_nontrivial_quotient_upto(free_power(p, 3), budget)
            assert (single.status == "witness") == (triple.status == "witness")
        assert grushko_lower_bound(60) == 59
        assert grushko_lower_bound(1) == 1
        assert grushko_lower_bound(0) == 0


def test_11_square_complexes(announce):
    with criterion(11, "square complex link checks", 30, announce):
        torus = one_square_torus()
        ok, _ = check_link_condition(torus)
        assert ok
        identified = SquareComplex(
            ["v"], {"a": ("v", "v")},
            [(("a", 1), ("a", 1), ("a", 1), ("a", 1))])
        ok, violations = check_link_condition(identified)
        assert not ok and violations
        p = pres(["a", "b"], "a b a^-1 b^-1")
        built = build_S_of_P(p, torus, [("a", 1), ("a", 1)])
        ok, _ = check_link_condition(built.complex)
        assert ok
        n, m = len(p.generators), len(p.relators)
        assert built.complex.euler_characteristic() == \
            (1 - n) + m * torus.euler_characteristic()


def test_12_killing_copies_mechanism(announce):
    with criterion(12, "hom counts killing copies", 60, announce):
        p = pres(["a"], "a^2")
        built = build_S_of_P(p, one_square_torus(), [("a", 1), ("a", 1)])
        for n in (2, 3):
            assert homs_killing_copies(built, n) == len(search_homs(p, n))


def test_13_end_to_end_probe(announce):
    with criterion(13, "end-to-end probe", 300, announce):
        p = pres(["a"], "a")
        status, details = run_encode_and_probe(p, p.word("a"),
                                               SearchBudget(max_degree=5))
        report = RunReport("probe", {}, status, details=details)
        assert report.status == "inconclusive"
        assert report.exit_code() == 2
        text = report.to_text()
        # Text-level assertion: the report never claims triviality; every
        # occurrence of "trivial" is part of "nontrivial".
        assert not re.search(r"(?<!non)trivial", text, re.IGNORECASE)
        assert "status: inconclusive" in text
