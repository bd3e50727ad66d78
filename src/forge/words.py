"""Exact free-group word algebra over named alphabets.

Words are stored freely reduced and all operations are pure.  A Word is
immutable: its two fields are set once, when it is built, and assigning
either raises AttributeError, so words can be shared freely between
workers.

Canonical orders used throughout:
  * letters compare by generator name, then sign (plain before inverse);
  * cyclic words are normalised to their lexicographically least rotation.
"""

from __future__ import annotations

import operator
import re

from .errors import AlphabetMismatchError, DegenerateInputError, ParseError

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")

# A letter is a pair (name, sign) with sign in {+1, -1}.


class Alphabet:
    """An ordered set of generator names; name is its own identity."""

    def __init__(self, names):
        names = tuple(names)
        for name in names:
            if not NAME_RE.fullmatch(name):
                raise ParseError(f"invalid generator name {name!r}")
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate generator names in {names}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return self is other or (isinstance(other, Alphabet)
                                 and self.names == other.names)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({', '.join(self.names)})"

    def check(self, name):
        if name not in self._index:
            raise AlphabetMismatchError(f"unknown generator {name!r} (alphabet {self.names})")

    def gen(self, name, sign=1):
        return reduce(self, [(name, sign)])


class Word:
    """A freely reduced word; the empty word is the identity.

    Words compare and hash by (alphabet, letters) alone; the inverse, kept
    in __dict__ once built, is not a field."""

    def __init__(self, alphabet, letters):
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a[0] == b[0] and a[1] == -b[1]:
                raise ValueError("Word letters are not freely reduced; use reduce()")
        check_letters(alphabet, letters)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Word:
            return NotImplemented
        return self.alphabet == other.alphabet and self.letters == other.letters

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other):
        _require_same_alphabet(self, other)
        return _product(self.alphabet, self, other)

    def __pow__(self, n):
        if n == 0:
            return Word(self.alphabet, ())
        letters = (self if n > 0 else self.inverse()).letters
        # letters = u c u^-1 with c cyclically reduced, so the power is
        # u c^|n| u^-1, reduced as it stands.
        i, end = _stem(letters), len(letters)
        return from_reduced(self.alphabet, letters[:i] + letters[i:end - i] * abs(n)
                            + letters[end - i:])

    def inverse(self):
        # Kept once built: a substitution asks for its image's inverse once
        # per word it rewrites.
        inverse = self.__dict__.get("_inverse")
        if inverse is None:
            inverse = self.__dict__["_inverse"] = from_reduced(
                self.alphabet, tuple((g, -s) for g, s in reversed(self.letters)))
        return inverse

    def is_identity(self):
        return not self.letters

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return f"Word({format_word(self)})"


def _require_same_alphabet(x, y):
    if x.alphabet != y.alphabet:
        raise AlphabetMismatchError(
            f"words over different alphabets: {x.alphabet} vs {y.alphabet}")


def from_reduced(alphabet, letters):
    """A Word from a letter tuple known to be freely reduced, without the
    rescan in Word.__init__; its fields are set past the guard in
    Word.__setattr__, as __init__ sets them."""
    word = object.__new__(Word)
    object.__setattr__(word, "alphabet", alphabet)
    object.__setattr__(word, "letters", letters)
    return word


def check_letters(alphabet, letters):
    """The checks reduce() makes of each letter: a name of `alphabet` and a
    sign +1 or -1."""
    known = alphabet._index
    for name, sign in letters:
        if name not in known:
            alphabet.check(name)
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")


def extend_reduced(out, piece):
    """Append the reduced letters `piece` to the reduced list `out`: letters
    can cancel only at the seam, so nothing else is rescanned."""
    k = 0
    while out and k < len(piece) and out[-1][0] == piece[k][0] \
            and out[-1][1] == -piece[k][1]:
        out.pop()
        k += 1
    out.extend(piece[k:])


def reduce(alphabet, letters):
    """Freely reduce a raw letter sequence, a list or tuple; idempotent."""
    check_letters(alphabet, letters)
    stack = []
    for letter in letters:
        name, sign = letter
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append(letter if type(letter) is tuple else (name, sign))
    return from_reduced(alphabet, tuple(stack))


def _product(alphabet, *words):
    """The product of reduced words, cancelling only at the seams."""
    out = []
    for word in words:
        extend_reduced(out, word.letters)
    return from_reduced(alphabet, tuple(out))


def commutator(x, y):
    """[x, y] = x y x^-1 y^-1, freely reduced."""
    _require_same_alphabet(x, y)
    return _product(x.alphabet, x, y, x.inverse(), y.inverse())


def conjugate(x, by):
    """x^by = by^-1 x by, freely reduced."""
    _require_same_alphabet(x, by)
    return _product(x.alphabet, by.inverse(), x, by)


def _stem(letters):
    """The length of the longest u with (reduced) letters = u c u^-1."""
    i, last = 0, len(letters) - 1
    while i < last - i and letters[i][0] == letters[last - i][0] \
            and letters[i][1] == -letters[last - i][1]:
        i += 1
    return i


def cyclic_reduction(x):
    """Strip matching first/last letters; returns (core, conjugator) with
    x = conjugator * core * conjugator^-1."""
    letters = x.letters
    i = _stem(letters)
    return (from_reduced(x.alphabet, letters[i:len(letters) - i]),
            from_reduced(x.alphabet, letters[:i]))


class CyclicWord:
    """A cyclically reduced word up to rotation, with a canonical rotation.

    Two CyclicWords are equal iff their canonical (lexicographically least)
    rotations coincide.
    """

    def __init__(self, word):
        core, _ = cyclic_reduction(word)
        self.representative = core
        self.rotation_index = _least_rotation(core.letters)
        letters = core.letters
        self.canonical = letters[self.rotation_index:] + letters[:self.rotation_index]

    @property
    def alphabet(self):
        return self.representative.alphabet

    def inverse(self):
        return CyclicWord(self.representative.inverse())

    def __len__(self):
        return len(self.canonical)

    def __eq__(self, other):
        return (isinstance(other, CyclicWord)
                and self.alphabet == other.alphabet
                and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.alphabet, self.canonical))

    def __repr__(self):
        return f"CyclicWord({format_word(Word(self.alphabet, self.canonical))})"


def _least_rotation(letters):
    """The least start of the least rotation, in linear time: when the
    rotations at candidates i < j first differ at offset k, the greater one
    and the k starts after it are out."""
    n, keys = len(letters), [(g, s < 0) for g, s in letters]
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[(i + k) % n], keys[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i


def is_conjugate(x, y):
    """Conjugacy in the free group: equality of canonical cyclic reductions."""
    _require_same_alphabet(x, y)
    return CyclicWord(x) == CyclicWord(y)


def root(x):
    """Primitive root: (p, k) with the cyclic reduction of x equal to p^k, k maximal."""
    if x.is_identity():
        raise DegenerateInputError("the identity has no primitive root")
    core, _ = cyclic_reduction(x)
    letters = core.letters
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return CyclicWord(from_reduced(x.alphabet, letters[:d])), n // d
    raise AssertionError("unreachable: d = n always matches")


def is_independent(words):
    """Pairwise independence of a tuple of non-identity words.

    In a free group, x and y are dependent iff root(x) is conjugate to
    root(y) or root(y)^-1.  Returns (flag, witness) where witness is the
    offending 1-based index pair (i, j) when the tuple is dependent, else
    None.
    """
    words = list(words)
    for w in words:
        if w.is_identity():
            raise DegenerateInputError("independence is undefined for the identity")
    roots = [root(w)[0] for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if roots[i] == roots[j] or roots[i] == roots[j].inverse():
                return False, (i + 1, j + 1)
    return True, None


TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_']*)(?:\^(-?\d+))?$")


# The most letters a parsed word may expand to before reduction.
MAX_WORD_LETTERS = 10 ** 6


def parse_word(alphabet, text):
    """Parse the word grammar: whitespace-separated tokens name, name^-1 or
    name^k; '1' (alone or as a token) denotes the identity.

    Each token is checked once and reduced into the word as it is read.  A
    power counts as its expanded letters before reduction, so a power that
    would take the word past MAX_WORD_LETTERS letters raises ParseError
    before anything is allocated."""
    known = alphabet._index
    stack, count = [], 0
    for token in text.split():
        if token in known:
            name, k = token, 1
        elif token == "1":
            continue
        else:
            match = TOKEN_RE.fullmatch(token)
            if not match:
                raise ParseError(f"bad word token {token!r}")
            name, power = match.groups()
            alphabet.check(name)
            k = 1 if power is None else int(power)
            if k == 0:
                raise ParseError(f"zero power in token {token!r}")
        count += abs(k)
        if count > MAX_WORD_LETTERS:
            raise ParseError(f"power in token {token!r} makes the word longer "
                             f"than {MAX_WORD_LETTERS} letters")
        letter, inverse = ((name, 1), (name, -1)) if k > 0 else ((name, -1), (name, 1))
        k = abs(k)
        while k and stack and stack[-1] == inverse:
            stack.pop()
            k -= 1
        stack += [letter] * k
    return from_reduced(alphabet, tuple(stack))


def format_word(word):
    """Inverse of parse_word, with runs printed as powers."""
    letters = word.letters
    if not letters:
        return "1"
    if not any(map(operator.eq, letters, letters[1:])):
        # No runs: one token per letter, read from a table of the letters used.
        token = {letter: letter[0] if letter[1] > 0 else letter[0] + "^-1"
                 for letter in set(letters)}
        return " ".join(map(token.__getitem__, letters))
    out = []
    i = 0
    while i < len(letters):
        name, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (name, sign):
            j += 1
        k = (j - i) * sign
        out.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(out)
