"""Finite presentations as data: free products, Tietze-style generator
changes, conjugation relators and abelianization via Smith normal form."""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from operator import itemgetter

from . import words as W
from .errors import (AlphabetMismatchError, DegenerateInputError,
                     InvalidSubstitutionError, NameCollisionError)
from .snf import smith_normal_form


class AbelianInvariants(namedtuple("AbelianInvariants", "betti torsion")):
    """H_1 of a presented group: free rank plus the divisor chain d_1 | d_2 | ..."""

    __slots__ = ()

    def __new__(cls, betti, torsion):
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion divisors must form a chain")
        return super().__new__(cls, betti, torsion)


class FinitePresentation:
    """Generators plus relator words.  Relators are stored freely reduced;
    identity relators are dropped (duplicates are kept)."""

    def __init__(self, alphabet, relators=()):
        if isinstance(alphabet, (list, tuple)):
            alphabet = W.Alphabet(alphabet)
        self.alphabet = alphabet
        rels = []
        for r in relators:
            if r.alphabet != alphabet:
                raise AlphabetMismatchError("relator over a different alphabet")
            if not r.is_identity():
                rels.append(r)
        self.relators = tuple(rels)

    @property
    def generators(self):
        return self.alphabet.names

    def word(self, text):
        return W.parse_word(self.alphabet, text)

    def __eq__(self, other):
        return (isinstance(other, FinitePresentation)
                and self.alphabet == other.alphabet
                and self.relators == other.relators)

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relators)
        return f"<gens {', '.join(self.generators)} | {rels}>"


def _fresh_names(names, taken):
    """Each name, or name_k for the least k >= 2 that is neither in `taken`
    nor picked for an earlier name.  The names in use only grow, so every
    name_j that a search for name passed over stays taken: the next search
    starts where the last one stopped and still finds the least k."""
    used, fresh, next_k = set(taken), [], {}
    for name in names:
        pick = name
        if pick in used:
            k = next_k.get(name, 2)
            while (pick := f"{name}_{k}") in used:
                k += 1
            next_k[name] = k + 1
        used.add(pick)
        fresh.append(pick)
    return fresh


def map_word(word, target_alphabet, rename):
    """Rename a word's letters through `rename` (old name -> new name) into
    the target alphabet; a name it does not hold stands for itself, and a
    word that keeps every name keeps its letters tuple.  A rename that is
    injective on the word's names keeps it reduced; any other reduces it."""
    images = {g: rename.get(g, g) for g in dict.fromkeys(map(itemgetter(0), word.letters))}
    for h in images.values():
        target_alphabet.check(h)
    letters = (word.letters if all(g == h for g, h in images.items())
               else tuple((images[g], s) for g, s in word.letters))
    if len(set(images.values())) == len(images):
        return W.from_reduced(target_alphabet, letters)
    return W.reduce(target_alphabet, letters)


def free_product(p, q):
    """Free product of two presentations; see free_product_with_renaming."""
    return free_product_with_renaming(p, q)[0]


def free_product_with_renaming(p, q):
    """Disjoint union of generators and relators; colliding names from the
    second factor get a deterministic `_k` suffix.  Also returns the map
    from q's generator names to their names in the product."""
    rename = dict(zip(q.generators, _fresh_names(q.generators, p.generators)))
    alphabet = W.Alphabet(p.generators + tuple(rename[g] for g in q.generators))
    relators = [map_word(r, alphabet, {}) for r in p.relators]
    relators += [map_word(r, alphabet, rename) for r in q.relators]
    return FinitePresentation(alphabet, relators), rename


def free_power(p, n):
    """n-fold free product of p with itself, with the names and relator
    order of n - 1 nested free_product calls: copies 2, 3, ... take their
    names from one `_fresh_names` call, as each nested product would."""
    if n < 1:
        raise DegenerateInputError("free_power requires n >= 1")
    size = n * (len(p.generators) + sum(len(r.letters) for r in p.relators))
    if size > W.MAX_WORD_LETTERS:
        raise DegenerateInputError(
            f"the {n}-fold free power has {size} generators and relator letters, "
            f"more than {W.MAX_WORD_LETTERS}")
    if not p.generators:
        return p  # every power of the empty presentation is itself
    gens, m = p.generators, len(p.generators)
    names = gens + tuple(_fresh_names(gens * (n - 1), gens))
    alphabet = W.Alphabet(names)
    renames = [dict(zip(gens, names[k:k + m])) for k in range(0, len(names), m)]
    return FinitePresentation(alphabet, [map_word(r, alphabet, rename)
                                         for rename in renames for r in p.relators])


def add_conjugation_relators(p, w, targets, stable_letters):
    """Adjoin fresh stable letters b_i and relators b_i^-1 w b_i target_i^-1."""
    if len(targets) != len(stable_letters):
        raise DegenerateInputError(
            f"{len(targets)} targets but {len(stable_letters)} stable letters")
    if w.alphabet != p.alphabet:
        raise AlphabetMismatchError("conjugated word over a different alphabet")
    for b in stable_letters:
        if b in p.alphabet:
            raise NameCollisionError(f"stable letter {b!r} collides with a generator")
    if len(set(stable_letters)) != len(stable_letters):
        raise NameCollisionError("duplicate stable letters")
    alphabet = W.Alphabet(p.generators + tuple(stable_letters))
    relators = [map_word(r, alphabet, {}) for r in p.relators]
    w_new = map_word(w, alphabet, {})
    for b, target in zip(stable_letters, targets):
        if target.alphabet != p.alphabet:
            raise AlphabetMismatchError("target word over a different alphabet")
        b_word = alphabet.gen(b)
        relators.append(W.conjugate(w_new, b_word)
                        * map_word(target, alphabet, {}).inverse())
    return FinitePresentation(alphabet, relators)


def substitute(word, target_alphabet, table):
    """Rewrite a word letterwise through a table name -> Word into the target
    alphabet; a name the table does not hold stands for itself.  Words are
    reduced, so letters cancel only at the seams around replaced letters.
    An image over another alphabet object is checked against the target,
    and a word of more than MAX_WORD_LETTERS letters before cancelling
    raises DegenerateInputError before it is built."""
    letters = word.letters
    names = list(map(itemgetter(0), letters))
    pieces, size = {}, len(letters)  # replaced name -> its image's letters, inverse's
    for g in dict.fromkeys(names):
        if g not in table:
            target_alphabet.check(g)
            continue
        image = table[g]
        if image.alphabet is not target_alphabet:
            W.check_letters(target_alphabet, image.letters)
        pieces[g] = (image.letters, image.inverse().letters)
        size += names.count(g) * (len(image) - 1)
    if size > W.MAX_WORD_LETTERS:
        raise DegenerateInputError(f"substituting for {', '.join(pieces)} makes a word of "
                                   f"{size} letters, more than {W.MAX_WORD_LETTERS}")
    out, start = [], 0
    for pos in compress(range(len(names)), map(pieces.__contains__, names)):
        if pos > start:
            W.extend_reduced(out, letters[start:pos])
        g, s = letters[pos]
        W.extend_reduced(out, pieces[g][s < 0])
        start = pos + 1
    W.extend_reduced(out, letters[start:])
    return W.from_reduced(target_alphabet, tuple(out))


def verify_generator_change(p, definitions, inverse_expressions):
    """Mandatory round-trip verification for a change of generating set.

    Checks that substituting each inverse expression back through the
    definitions freely reduces to the old generator it stands for; raises
    otherwise.  Returns the new alphabet."""
    new_alphabet = W.Alphabet(tuple(definitions.keys()))
    for g in p.generators:
        if g not in inverse_expressions:
            raise InvalidSubstitutionError(f"no inverse expression for {g!r}")
    for name, definition in definitions.items():
        if definition.alphabet != p.alphabet:
            raise AlphabetMismatchError(f"definition of {name!r} is not over the old alphabet")
    for g, expr in inverse_expressions.items():
        if expr.alphabet != new_alphabet:
            raise InvalidSubstitutionError(
                f"inverse expression for {g!r} is not over the new alphabet")
        round_trip = substitute(expr, p.alphabet, definitions)
        if round_trip.letters != ((g, 1),):
            raise InvalidSubstitutionError(
                f"round-trip check failed for {g!r}: got {round_trip}")
    return new_alphabet


def tietze_change_generators(p, definitions, inverse_expressions):
    """Change of generating set.

    `definitions` is an ordered mapping new name -> Word over p's generators;
    `inverse_expressions` maps each old generator to a Word over the new
    names.  The two directions must compose to the identity on every old
    generator after free reduction, otherwise the substitution is rejected.

    The result is presented on the new generators: every relator of p is
    rewritten through the inverse expressions, and a consistency relator
    new * rewrite(definition)^-1 is appended for each new generator (the
    presentation drops those that reduce to the identity).
    """
    new_alphabet = verify_generator_change(p, definitions, inverse_expressions)
    relators = [substitute(r, new_alphabet, inverse_expressions) for r in p.relators]
    for name, definition in definitions.items():
        rewritten = substitute(definition, new_alphabet, inverse_expressions)
        relators.append(new_alphabet.gen(name) * rewritten.inverse())
    return FinitePresentation(new_alphabet, relators)


def exponent_matrix(p):
    """Exponent sums as sparse rows for `smith_normal_form`: one dict
    generator -> exponent sum per relator, in one pass over its letters.
    A generator the relator does not use is absent; one whose letters
    cancel maps to 0."""
    matrix = []
    for r in p.relators:
        row = {}
        for g, s in r.letters:
            row[g] = row.get(g, 0) + s
        matrix.append(row)
    return matrix


def abelianization(p):
    """Betti number and torsion divisors of the abelianized group."""
    factors = smith_normal_form(exponent_matrix(p)) if p.relators else []
    betti = len(p.generators) - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(betti=betti, torsion=torsion)
