"""Presentations: products, generator changes, abelianization."""

import random
import time

import pytest

from forge import words as W
from forge.errors import (AlphabetMismatchError, DegenerateInputError,
                          InvalidSubstitutionError, NameCollisionError)
from forge.presentations import (AbelianInvariants, FinitePresentation, _fresh_names,
                                 abelianization, add_conjugation_relators, exponent_matrix,
                                 free_power, free_product,
                                 free_product_with_renaming,
                                 tietze_change_generators,
                                 verify_generator_change)
from hypothesis import given

from helpers import (derandomized, exponent_sum, oracle_free_power, random_reduced_word,
                     seeds)


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


def random_presentation(rng, max_gens=3, max_rels=3, max_len=5):
    names = ["a", "b", "c"][:rng.randint(1, max_gens)]
    alphabet = W.Alphabet(names)
    rels = [random_reduced_word(rng, alphabet, rng.randint(1, max_len))
            for _ in range(rng.randint(0, max_rels))]
    return FinitePresentation(alphabet, rels)


class TestBasics:
    def test_identity_relators_dropped(self):
        p = pres(["a"], "1", "a a^-1")
        assert p.relators == ()

    def test_repr(self):
        assert "a" in repr(pres(["a"], "a^2"))


class TestAbelianization:
    def test_free(self):
        assert abelianization(pres(["a", "b"])).betti == 2

    def test_torus(self):
        inv = abelianization(pres(["a", "b"], "a b a^-1 b^-1"))
        assert (inv.betti, inv.torsion) == (2, ())

    def test_cyclic(self):
        inv = abelianization(pres(["a"], "a^2"))
        assert (inv.betti, inv.torsion) == (0, (2,))

    def test_trefoil(self):
        inv = abelianization(pres(["a", "b"], "a^2 b^-3"))
        assert (inv.betti, inv.torsion) == (1, ())

    def test_klein_bottle(self):
        inv = abelianization(pres(["a", "b"], "a b a b^-1"))
        assert (inv.betti, inv.torsion) == (1, (2,))


@given(seeds)
@derandomized
def test_exponent_matrix_matches_exponent_sums(seed):
    rng = random.Random(seed)
    p = random_presentation(rng, max_len=9)
    # [a, b] cancels in every column, a b^2 a^-1 in a's column.
    a, b = p.alphabet.gen(p.generators[0]), p.alphabet.gen(p.generators[-1])
    p = FinitePresentation(p.alphabet, list(p.relators) + [W.commutator(a, b),
                                                           a * b * b * a.inverse()])
    matrix = exponent_matrix(p)
    assert len(matrix) == len(p.relators)
    for row, r in zip(matrix, p.relators):
        assert set(row) <= set(p.generators)
        assert all(row.get(g, 0) == exponent_sum(r, g) for g in p.generators)


class TestFreeProduct:
    def test_renaming(self):
        p = pres(["a"], "a^2")
        product, rename = free_product_with_renaming(p, p)
        assert rename == {"a": "a_2"}
        assert len(product.generators) == 2
        assert len(product.relators) == 2

    def test_abelianization_additive(self):
        # Betti numbers add and torsion combines as a multiset of prime
        # powers (invariant-factor chains do not simply concatenate).
        def elementary_divisors(torsion):
            out = []
            for d in torsion:
                for prime in range(2, d + 1):
                    power = 1
                    while d % prime == 0:
                        power *= prime
                        d //= prime
                    if power > 1:
                        out.append(power)
            return sorted(out)

        rng = random.Random(7201)
        print("seed 7201")
        for _ in range(20):
            p = random_presentation(rng)
            q = random_presentation(rng)
            ip, iq = abelianization(p), abelianization(q)
            ipq = abelianization(free_product(p, q))
            assert ipq.betti == ip.betti + iq.betti
            assert elementary_divisors(ipq.torsion) == \
                elementary_divisors(ip.torsion + iq.torsion)

    def test_free_power(self):
        p = free_power(pres(["a"], "a^2"), 3)
        assert len(p.generators) == 3
        assert len(p.relators) == 3
        with pytest.raises(DegenerateInputError):
            free_power(pres(["a"]), 0)

    def test_free_power_bounded(self):
        p = pres(["a"], "a^99999")  # 100000 generators and relator letters
        assert len(free_power(p, 10).relators) == 10
        with pytest.raises(DegenerateInputError, match="more than 1000000"):
            free_power(p, 11)
        assert free_power(pres([]), 10 ** 9) == pres([])


def test_fresh_names_interleave_with_taken():
    """Each repeat takes the least suffix left, stepping over a_3, which
    the taken names already hold."""
    assert _fresh_names(["a", "a", "a"], ["a", "a_3"]) == ["a_2", "a_4", "a_5"]


def test_fresh_names_repeated_name_in_linear_time():
    start = time.monotonic()
    fresh = _fresh_names(["a"] * 20000, ["a"])
    assert time.monotonic() - start < 1.0
    assert fresh[0] == "a_2" and fresh[-1] == "a_20001" and len(set(fresh)) == 20000


@given(seeds)
@derandomized
def test_free_power_matches_nested_products(seed):
    """Generator names (suffixes skip names the input already uses, such as
    a_2 or a_2_2) and relator order equal those of nested free products."""
    rng = random.Random(seed)
    pool = ["a", "a_2", "a_3", "a_2_2", "b", "b_1", "a_10"]
    names = rng.sample(pool, rng.randint(1, 4))
    alphabet = W.Alphabet(names)
    p = FinitePresentation(alphabet, [
        random_reduced_word(rng, alphabet, rng.randint(1, 6))
        for _ in range(rng.randint(0, 3))])
    n = rng.randint(1, 12)
    new, old = free_power(p, n), oracle_free_power(p, n)
    assert new.generators == old.generators
    assert new.relators == old.relators


class TestConjugationRelators:
    def test_shape(self):
        p = pres(["a", "b"])
        q = add_conjugation_relators(
            p, p.word("a b"), [p.word("a"), p.word("b")], ["s", "t"])
        assert q.generators == ("a", "b", "s", "t")
        assert len(q.relators) == 2
        assert q.relators[0] == q.word("s^-1 a b s a^-1")

    def test_collision(self):
        p = pres(["a"])
        with pytest.raises(NameCollisionError):
            add_conjugation_relators(p, p.word("a"), [p.word("a")], ["a"])
        with pytest.raises(DegenerateInputError):
            add_conjugation_relators(p, p.word("a"), [p.word("a")], ["s", "t"])


class TestTietze:
    def test_simple_change(self):
        p = pres(["a", "b"], "a b a^-1 b^-1")
        new = W.Alphabet(["x", "y"])
        definitions = {"x": p.word("a"), "y": p.word("a b")}
        inverse = {"a": new.gen("x"), "b": new.gen("x", -1) * new.gen("y")}
        q = tietze_change_generators(p, definitions, inverse)
        assert q.generators == ("x", "y")
        iq = abelianization(q)
        ip = abelianization(p)
        assert (iq.betti, iq.torsion) == (ip.betti, ip.torsion)

    def test_consistency_relator_appended(self):
        """x and y both stand for a, and a is read back as x: x's relator
        reduces away, y's is y x^-1."""
        p = pres(["a"])
        new = W.Alphabet(["x", "y"])
        q = tietze_change_generators(p, {"x": p.word("a"), "y": p.word("a")},
                                     {"a": new.gen("x")})
        assert q == FinitePresentation(new, [W.parse_word(new, "y x^-1")])
        assert repr(q) == "<gens x, y | y x^-1>"

    def test_bad_inverse_rejected(self):
        p = pres(["a"])
        definitions = {"x": p.word("a^2")}
        inverse = {"a": W.Alphabet(["x"]).gen("x")}
        with pytest.raises(InvalidSubstitutionError):
            verify_generator_change(p, definitions, inverse)

    def test_missing_inverse_rejected(self):
        p = pres(["a", "b"])
        definitions = {"x": p.word("a"), "y": p.word("b")}
        new = W.Alphabet(["x", "y"])
        with pytest.raises(InvalidSubstitutionError):
            verify_generator_change(p, definitions, {"a": new.gen("x")})

    def test_preserves_abelianization_random(self):
        # Random change: x_i = old_i * old_0^k (always invertible).
        rng = random.Random(7202)
        print("seed 7202")
        for _ in range(20):
            p = random_presentation(rng)
            if not p.generators:
                continue
            names = [f"x{i}" for i in range(len(p.generators))]
            new = W.Alphabet(names)
            k = rng.randint(-2, 2)
            g0 = p.alphabet.gen(p.generators[0])
            definitions = {"x0": g0}
            inverse = {p.generators[0]: new.gen("x0")}
            for i, g in enumerate(p.generators[1:], 1):
                definitions[f"x{i}"] = p.alphabet.gen(g) * g0 ** k
                inverse[g] = new.gen(f"x{i}") * new.gen("x0") ** -k
            q = tietze_change_generators(p, definitions, inverse)
            assert abelianization(q) == abelianization(p)


P1, P2 = pres(["a"]), pres(["a", "b"])
XY, Z = W.Alphabet(["x", "y"]), W.parse_word(W.Alphabet(["z"]), "z")


@pytest.mark.parametrize("call, error, message", [
    (lambda: AbelianInvariants(0, (2, 3)), ValueError, "torsion divisors must form a chain"),
    (lambda: FinitePresentation(["a"], [Z]),
     AlphabetMismatchError, "relator over a different alphabet"),
    (lambda: add_conjugation_relators(P1, P1.word("a"), [P1.word("a")], ["s", "t"]),
     DegenerateInputError, "1 targets but 2 stable letters"),
    (lambda: add_conjugation_relators(P1, Z, [P1.word("a")], ["s"]),
     AlphabetMismatchError, "conjugated word over a different alphabet"),
    (lambda: add_conjugation_relators(P1, P1.word("a"), [P1.word("a")], ["a"]),
     NameCollisionError, "stable letter 'a' collides with a generator"),
    (lambda: add_conjugation_relators(P1, P1.word("a"), [P1.word("a")] * 2, ["s", "s"]),
     NameCollisionError, "duplicate stable letters"),
    (lambda: add_conjugation_relators(P1, P1.word("a"), [Z], ["s"]),
     AlphabetMismatchError, "target word over a different alphabet"),
    (lambda: verify_generator_change(P2, {"x": P2.word("a"), "y": P2.word("b")},
                                     {"a": XY.gen("x")}),
     InvalidSubstitutionError, "no inverse expression for 'b'"),
    (lambda: verify_generator_change(P2, {"x": P2.word("a"), "y": Z},
                                     {"a": XY.gen("x"), "b": XY.gen("y")}),
     AlphabetMismatchError, "definition of 'y' is not over the old alphabet"),
    (lambda: verify_generator_change(P2, {"x": P2.word("a"), "y": P2.word("b")},
                                     {"a": XY.gen("x"), "b": Z}),
     InvalidSubstitutionError, "inverse expression for 'b' is not over the new alphabet"),
    (lambda: verify_generator_change(P2, {"x": P2.word("a^2"), "y": P2.word("b")},
                                     {"a": XY.gen("x"), "b": XY.gen("y")}),
     InvalidSubstitutionError, "round-trip check failed for 'a': got a^2"),
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
