"""Word algebra: reduction, conjugacy, roots, independence, the grammar."""

import random
import time

import pytest
from hypothesis import given, strategies as st

from forge import words as W
from forge.errors import (AlphabetMismatchError, DegenerateInputError,
                          ParseError)
from helpers import (derandomized, exponent_sum, oracle_cyclic_reduction, oracle_format_word,
                     oracle_least_rotation, random_reduced_word, seeds)

AB = W.Alphabet(["a", "b"])
NAMES = W.Alphabet(["a", "b", "x1_2", "y'"])

letters_st = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])),
    max_size=24)


def w(text):
    return W.parse_word(AB, text)


class TestAlphabet:
    def test_rejects_bad_names(self):
        with pytest.raises(ParseError):
            W.Alphabet(["1bad"])
        with pytest.raises(ParseError):
            W.Alphabet(["a", "a"])

    def test_accepts_primes_and_underscores(self):
        W.Alphabet(["a'_0", "b_12", "x'"])


class TestReduce:
    @given(letters_st)
    def test_idempotent(self, letters):
        once = W.reduce(AB, letters)
        assert W.reduce(AB, once.letters) == once

    @given(letters_st)
    def test_inverse_cancels(self, letters):
        x = W.reduce(AB, letters)
        assert (x * x.inverse()).is_identity()
        assert (x.inverse() * x).is_identity()

    def test_example(self):
        assert w("a b b^-1 a^-1 b") == w("b")

    def test_rejects_unknown_generator(self):
        with pytest.raises(AlphabetMismatchError):
            W.reduce(AB, [("c", 1)])


class TestOperations:
    def test_commutator(self):
        assert W.commutator(w("a"), w("b")) == w("a b a^-1 b^-1")
        assert W.commutator(w("a"), w("a")).is_identity()

    def test_conjugate(self):
        assert W.conjugate(w("a"), w("b")) == w("b^-1 a b")

    def test_power(self):
        assert w("a b") ** 3 == w("a b a b a b")
        assert w("a b") ** -1 == w("b^-1 a^-1")
        assert (w("a") ** 0).is_identity()

    def test_inverse_is_kept(self):
        """A word keeps its inverse once built, and the kept inverse changes
        neither equality nor hashing."""
        x = w("a b^-1 a")
        inverse = x.inverse()
        assert x.inverse() is inverse
        assert inverse == w("a^-1 b a^-1")
        assert x == w("a b^-1 a") and hash(x) == hash(w("a b^-1 a"))

    def test_exponent_sum(self):
        assert exponent_sum(w("a b a b^-2"), "a") == 2
        assert exponent_sum(w("a b a b^-2"), "b") == -1


ABC = W.Alphabet(["a", "b", "c"])
XY = W.Alphabet(["x", "y"])
short_words = st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
                       max_size=12).map(lambda letters: W.reduce(ABC, letters))


class TestSeamKernel:
    """Products, powers, commutators, conjugates, renames and substitutions
    cancel only at the seams of reduced words; each equals reduce() of the
    concatenated letters."""

    @given(short_words, short_words, st.integers(-4, 4))
    def test_operations_match_reduce(self, x, y, n):
        inv = x.inverse()
        assert x * y == W.reduce(ABC, x.letters + y.letters)
        assert x ** n == W.reduce(ABC, (x if n > 0 else inv).letters * abs(n))
        assert W.commutator(x, y) == W.reduce(
            ABC, x.letters + y.letters + inv.letters + y.inverse().letters)
        assert W.conjugate(x, y) == W.reduce(ABC, y.inverse().letters + x.letters + y.letters)
        out = list(x.letters)
        W.extend_reduced(out, y.letters)
        assert tuple(out) == (x * y).letters

    @given(short_words, st.sampled_from([{"a": "x", "b": "y", "c": "z"},
                                         {"a": "y", "b": "x", "c": "x"},
                                         {"a": "x", "b": "x", "c": "x"},
                                         {"a": "x"}, {"b": "a", "c": "y"},
                                         {"a": "a"}, {}]))
    def test_map_word_matches_reduce(self, x, rename):
        """Full and partial renames; a name the table does not hold stands
        for itself, and a word that keeps every name keeps its letters."""
        from forge.presentations import map_word
        target = W.Alphabet(["a", "b", "c", "x", "y", "z"])
        mapped = map_word(x, target, rename)
        assert mapped == W.reduce(target, [(rename.get(g, g), s) for g, s in x.letters])
        if all(rename.get(g, g) == g for g, _ in x.letters):
            assert mapped.letters is x.letters

    @given(short_words, st.lists(st.lists(st.tuples(st.sampled_from(["x", "y"]),
                                                    st.sampled_from([1, -1])), max_size=4),
                                 min_size=3, max_size=3))
    def test_substitute_matches_reduce(self, x, images):
        from forge.presentations import substitute
        table = {g: W.reduce(XY, letters) for g, letters in zip("abc", images)}
        out = []
        for g, s in x.letters:
            out += table[g].letters if s > 0 else table[g].inverse().letters
        assert substitute(x, XY, table) == W.reduce(XY, out)

    def test_errors_are_unchanged(self):
        from forge.presentations import map_word, substitute
        x = w("a b^-1 a")
        with pytest.raises(AlphabetMismatchError, match="unknown generator 'b'"):
            map_word(x, XY, {"a": "x", "b": "b"})
        with pytest.raises(AlphabetMismatchError, match="unknown generator 'b'"):
            map_word(x, XY, {"a": "x"})
        with pytest.raises(AlphabetMismatchError, match="unknown generator 'b'"):
            substitute(x, XY, {"a": W.reduce(XY, [("x", 1)])})
        with pytest.raises(AlphabetMismatchError, match="unknown generator 'z'"):
            substitute(x, W.Alphabet(["x"]), {"a": W.reduce(XY, [("x", 1)]),
                                              "b": W.reduce(W.Alphabet(["z"]), [("z", 1)])})
        with pytest.raises(AlphabetMismatchError):
            x * W.reduce(ABC, [("a", 1)])

    def test_substitute_refuses_a_long_word_before_building_it(self, monkeypatch):
        """a^1000 through a -> b^1001 takes 1,001,000 letters before
        cancelling, past MAX_WORD_LETTERS: the refusal comes before any seam
        is joined."""
        from forge.presentations import substitute

        def joined(out, piece):
            raise AssertionError("a seam was joined")

        monkeypatch.setattr(W, "extend_reduced", joined)
        with pytest.raises(DegenerateInputError,
                           match="substituting for a makes a word of 1001000 letters"):
            substitute(w("a^1000"), AB, {"a": w("b^1001")})

    def test_a_word_is_checked_where_it_is_built(self):
        with pytest.raises(AlphabetMismatchError, match="unknown generator 'c'"):
            W.Word(AB, (("a", 1), ("c", 1)))
        with pytest.raises(ValueError, match="sign must be"):
            W.Word(AB, (("a", 2),))
        with pytest.raises(ValueError, match="not freely reduced"):
            W.Word(AB, (("c", 1), ("c", -1)))


class TestCyclic:
    def test_cyclic_reduction(self):
        core, conj = W.cyclic_reduction(w("b^-1 a b"))
        assert core == w("a")
        assert conj * core * conj.inverse() == w("b^-1 a b")

    @given(seeds)
    @derandomized
    def test_cyclic_reduction_matches_seed(self, seed):
        rng = random.Random(seed)
        x = random_reduced_word(rng, AB, rng.randint(0, 12))
        c = random_reduced_word(rng, AB, rng.randint(0, 6))
        for y in (x, W.conjugate(x, c)):
            assert W.cyclic_reduction(y) == oracle_cyclic_reduction(y)

    def test_cyclic_reduction_of_a_long_conjugate(self):
        """u c u^-1 with |u| = 20,000 and |c| = 1: the stem is read by
        index, not by copying the word once per stripped pair."""
        rng = random.Random(7003)
        u = random_reduced_word(rng, AB, 20_000)
        c = next(l for l in (("a", 1), ("b", 1))
                 if l[0] != u.letters[-1][0])
        x = u * W.Word(AB, (c,)) * u.inverse()
        assert len(x) == 40_001
        start = time.monotonic()
        core, conj = W.cyclic_reduction(x)
        assert time.monotonic() - start < 1.0
        assert core.letters == (c,) and conj == u

    @given(seeds)
    @derandomized
    def test_least_rotation_matches_seed(self, seed):
        """Random cyclically reduced words and periodic ones, whose least
        rotation starts at several indices: the least of them is kept."""
        rng = random.Random(seed)
        core, _ = W.cyclic_reduction(random_reduced_word(rng, AB, rng.randint(0, 16)))
        period = random_reduced_word(rng, AB, rng.randint(1, 4))
        periodic = W.cyclic_reduction(period ** rng.randint(2, 5))[0]
        for y in (core, periodic):
            assert W.CyclicWord(y).rotation_index == oracle_least_rotation(y.letters)

    def test_least_rotation_of_a_long_word(self):
        rng = random.Random(7004)
        core, _ = W.cyclic_reduction(random_reduced_word(rng, AB, 8_002))
        start = time.monotonic()
        cyclic = W.CyclicWord(core)
        assert time.monotonic() - start < 1.0
        assert cyclic.rotation_index == oracle_least_rotation(core.letters)

    def test_rotations_equal(self):
        assert W.CyclicWord(w("a b")) == W.CyclicWord(w("b a"))
        assert W.CyclicWord(w("a b")) != W.CyclicWord(w("a b^-1"))

    def test_is_conjugate_oracle(self):
        # Oracle: x ~ y iff the cyclic core of y is some rotation of the
        # cyclic core of x (rotation enumeration, no canonicalization).
        rng = random.Random(7001)
        print("seed 7001")
        from helpers import random_reduced_word
        for _ in range(200):
            x = random_reduced_word(rng, AB, rng.randint(0, 5))
            y = random_reduced_word(rng, AB, rng.randint(0, 5))
            cx, _ = W.cyclic_reduction(x)
            cy, _ = W.cyclic_reduction(y)
            oracle = any(cy.letters == cx.letters[i:] + cx.letters[:i]
                         for i in range(max(1, len(cx.letters))))
            assert W.is_conjugate(x, y) == oracle

    def test_conjugates_are_conjugate(self):
        rng = random.Random(7002)
        print("seed 7002")
        from helpers import random_reduced_word
        for _ in range(100):
            x = random_reduced_word(rng, AB, rng.randint(1, 5))
            c = random_reduced_word(rng, AB, rng.randint(0, 5))
            assert W.is_conjugate(x, W.conjugate(x, c))


class TestRoot:
    def test_power_root(self):
        r, k = W.root(w("a b a b a b"))
        assert r == W.CyclicWord(w("a b"))
        assert k == 3

    def test_primitive(self):
        r, k = W.root(w("a b"))
        assert k == 1

    def test_conjugated_power(self):
        r, k = W.root(w("b^-1 a^4 b"))
        assert k == 4

    def test_identity_rejected(self):
        with pytest.raises(DegenerateInputError):
            W.root(w("1"))


class TestIndependence:
    def test_dependent_pair(self):
        flag, witness = W.is_independent([w("a"), w("b a b^-1")])
        assert flag is False
        assert witness == (1, 2)

    def test_independent_pair(self):
        flag, witness = W.is_independent([w("a"), w("b")])
        assert flag is True
        assert witness is None

    def test_inverse_power_dependent(self):
        flag, witness = W.is_independent([w("a b"), w("b^-1 a^-1 b^-1 a^-1")])
        assert flag is False

    def test_identity_rejected(self):
        with pytest.raises(DegenerateInputError):
            W.is_independent([w("a"), w("1")])


class TestGrammar:
    @given(letters_st)
    def test_round_trip(self, letters):
        x = W.reduce(AB, letters)
        assert W.parse_word(AB, W.format_word(x)) == x

    @given(st.lists(st.tuples(st.sampled_from(NAMES.names), st.sampled_from([1, -1]),
                              st.integers(min_value=1, max_value=4)), max_size=16))
    def test_format_matches_the_run_scan(self, runs):
        """Words without runs take the token-table path, the rest the run
        scan; both print what the one-scan oracle prints, and parse back."""
        x = W.reduce(NAMES, [(name, sign) for name, sign, k in runs for _ in range(k)])
        text = W.format_word(x)
        assert text == oracle_format_word(x)
        assert W.parse_word(NAMES, text) == x

    def test_identity_token(self):
        assert w("1").is_identity()
        assert W.format_word(w("1")) == "1"

    def test_powers(self):
        assert w("a^3 b^-2") == W.Word(AB, (("a", 1),) * 3 + (("b", -1),) * 2)
        assert W.format_word(w("a a a b^-1 b^-1")) == "a^3 b^-2"
        assert W.format_word(w("a b^-1 a b")) == "a b^-1 a b"

    def test_errors(self):
        with pytest.raises(ParseError):
            w("a^0")
        with pytest.raises(ParseError):
            w("a^")
        with pytest.raises(AlphabetMismatchError):
            w("c")

    def test_power_limit(self, monkeypatch):
        with pytest.raises(ParseError, match="longer than 1000000 letters"):
            w("a^99999999999")
        monkeypatch.setattr(W, "MAX_WORD_LETTERS", 5)
        assert w("a^3 b^-2") == W.Word(AB, (("a", 1),) * 3 + (("b", -1),) * 2)
        assert w("a^3 a^-2").letters == (("a", 1),)
        with pytest.raises(ParseError, match="'a\\^-3' makes the word longer than 5"):
            w("a^3 a^-3")
