"""Finite presentations as data: free products, Tietze-style generator
changes, conjugation relators and abelianization via Smith normal form."""

from __future__ import annotations

from dataclasses import dataclass

from . import words as W
from .errors import (AlphabetMismatchError, DegenerateInputError,
                     InvalidSubstitutionError, NameCollisionError)
from .snf import smith_normal_form


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 of a presented group: free rank plus the divisor chain d_1 | d_2 | ..."""

    betti: int
    torsion: tuple

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion divisors must form a chain")


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


def _fresh_name(name, used):
    if name not in used:
        return name
    k = 2
    while f"{name}_{k}" in used:
        k += 1
    return f"{name}_{k}"


def map_word(word, target_alphabet, rename):
    """Rename a word's letters through `rename` (old name -> new name) into
    the target alphabet."""
    return W.reduce(target_alphabet,
                    [(rename[g], s) for g, s in word.letters])


def free_product(p, q):
    """Free product of two presentations; see free_product_with_renaming."""
    return free_product_with_renaming(p, q)[0]


def free_product_with_renaming(p, q):
    """Disjoint union of generators and relators; colliding names from the
    second factor get a deterministic `_k` suffix.  Also returns the map
    from q's generator names to their names in the product."""
    used = set(p.generators)
    rename = {}
    for name in q.generators:
        fresh = _fresh_name(name, used)
        rename[name] = fresh
        used.add(fresh)
    alphabet = W.Alphabet(p.generators + tuple(rename[g] for g in q.generators))
    lift = {g: g for g in p.generators}
    relators = [map_word(r, alphabet, lift) for r in p.relators]
    relators += [map_word(r, alphabet, rename) for r in q.relators]
    return FinitePresentation(alphabet, relators), rename


def free_power(p, n):
    """n-fold free product of p with itself, with the names and relator
    order of n - 1 nested free_product calls: copy 2, 3, ... renames g to
    g_k, k >= 2 least with g_k untaken.  The digits of k hold no "_", so
    g_k can clash only with an input name or an earlier g_j, and one
    rising k per generator suffices."""
    if n < 1:
        raise DegenerateInputError("free_power requires n >= 1")
    size = n * (len(p.generators) + sum(len(r.letters) for r in p.relators))
    if size > W.MAX_WORD_LETTERS:
        raise DegenerateInputError(
            f"the {n}-fold free power has {size} generators and relator letters, "
            f"more than {W.MAX_WORD_LETTERS}")
    if not p.generators:
        return p  # every power of the empty presentation is itself
    names, renames = list(p.generators), [{g: g for g in p.generators}]
    suffix = dict.fromkeys(p.generators, 1)
    for _ in range(n - 1):
        rename = {}
        for g in p.generators:
            suffix[g] += 1
            while f"{g}_{suffix[g]}" in p.alphabet:
                suffix[g] += 1
            rename[g] = f"{g}_{suffix[g]}"
        names += rename.values()
        renames.append(rename)
    alphabet = W.Alphabet(names)
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
    lift = {g: g for g in p.generators}
    relators = [map_word(r, alphabet, lift) for r in p.relators]
    w_new = map_word(w, alphabet, lift)
    for b, target in zip(stable_letters, targets):
        if target.alphabet != p.alphabet:
            raise AlphabetMismatchError("target word over a different alphabet")
        b_word = alphabet.gen(b)
        relators.append(W.conjugate(w_new, b_word)
                        * map_word(target, alphabet, lift).inverse())
    return FinitePresentation(alphabet, relators)


def substitute(word, target_alphabet, table):
    """Rewrite a word letterwise through a substitution table name -> Word."""
    inverses = {}  # name -> letters of table[name].inverse(), once per call
    out = []
    for g, s in word.letters:
        if s > 0:
            out.extend(table[g].letters)
        else:
            if g not in inverses:
                inverses[g] = table[g].inverse().letters
            out.extend(inverses[g])
    return W.reduce(target_alphabet, out)


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
    new * rewrite(definition)^-1 is appended for each new generator unless
    it reduces to the identity.
    """
    new_alphabet = verify_generator_change(p, definitions, inverse_expressions)
    relators = [substitute(r, new_alphabet, inverse_expressions) for r in p.relators]
    for name, definition in definitions.items():
        rewritten = substitute(definition, new_alphabet, inverse_expressions)
        consistency = new_alphabet.gen(name) * rewritten.inverse()
        if not consistency.is_identity():
            relators.append(consistency)
    return FinitePresentation(new_alphabet, relators)


def exponent_matrix(p):
    """Relators x generators matrix of exponent sums, one pass per relator."""
    column = {g: j for j, g in enumerate(p.generators)}
    matrix = []
    for r in p.relators:
        row = [0] * len(column)
        for g, s in r.letters:
            row[column[g]] += s
        matrix.append(row)
    return matrix


def abelianization(p):
    """Betti number and torsion divisors of the abelianized group."""
    factors = smith_normal_form(exponent_matrix(p)) if p.relators else []
    betti = len(p.generators) - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(betti=betti, torsion=torsion)
