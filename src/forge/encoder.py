"""The encoding pipeline: from (presentation, word) to a presentation whose
profinite completion is trivial exactly when the word dies in every finite
quotient of the input group.

The pipeline is a composition of four stages, each a plain presentation
transformation, with every intermediate object kept in an EncodingTrace:

  1. pass to generators that map injectively under the relevant quotients
     (2m+1 copies, then a verified change of generating set);
  2. adjoin a fresh letter and re-generate so orders can be controlled,
     replacing the word by a commutator;
  3. make every generator conjugate to the word via fresh stable letters,
     add one more free stable letter t, and certify the malnormal tuple
     of commutators c_j = [u^{j+1}, v^{j+1}] in the derived letters u, v;
  4. double the result and glue the b's of each half to the c's of the other.

Everything is deterministic: identical inputs give byte-identical traces.
"""

from __future__ import annotations

from collections import namedtuple

from . import stallings as S
from . import words as W
from .errors import (AlphabetMismatchError, DegenerateInputError, ForgeError,
                     ThresholdError)
from .presentations import (FinitePresentation, _fresh_names, abelianization,
                            add_conjugation_relators, free_product_with_renaming,
                            map_word, substitute, tietze_change_generators,
                            verify_generator_change)
from .records import Record

UV = W.Alphabet(["u", "v"])
TW = W.Alphabet(["t", "w"])

# u and v in terms of t and w (t, w playing the roles of the generator and
# the grading letter of the rank-3 kernel subgroup):
#   u = t^w (t^{w^2})^-1,  v = t^w (t^{w^-1})^-1
U_IN_TW = W.parse_word(TW, "w^-1 t w w^-2 t^-1 w^2")
V_IN_TW = W.parse_word(TW, "w^-1 t w w t^-1 w^-1")


def step_injective_generators(p, w):
    """Stage 1: build 2m+1 copies and change to the injectivity-friendly
    generating set x_ij = a_ij w_{j+m+1} w_{i+j}, y_j = w_j (indices 1-based
    mod 2m+1, residue 0 read as 2m+1).  Returns (P-dagger, w-dagger = y_1)."""
    if w.alphabet != p.alphabet:
        raise AlphabetMismatchError("word over a different alphabet than the presentation")
    if w.is_identity():
        raise DegenerateInputError("stage 1 requires a nonempty word")
    m = len(p.generators)
    k = 2 * m + 1

    def mod1(x):
        return (x - 1) % k + 1

    copy_names = [f"g{i}_{j}" for j in range(1, k + 1) for i in range(1, m + 1)]
    copies = W.Alphabet(copy_names)
    renames = {j: {g: f"g{i}_{j}" for i, g in enumerate(p.generators, 1)}
               for j in range(1, k + 1)}

    pre_relators = [map_word(r, copies, renames[j])
                    for j in range(1, k + 1) for r in p.relators]
    pre = FinitePresentation(copies, pre_relators)
    w_copy = {j: map_word(w, copies, renames[j]) for j in range(1, k + 1)}

    definitions = {}
    for i in range(1, m + 1):
        for j in range(1, k + 1):
            definitions[f"x{i}_{j}"] = (copies.gen(f"g{i}_{j}")
                                        * w_copy[mod1(j + m + 1)] * w_copy[mod1(i + j)])
    for j in range(1, k + 1):
        definitions[f"y{j}"] = w_copy[j]
    new_alphabet = W.Alphabet(tuple(definitions.keys()))
    inverse = {}
    for i in range(1, m + 1):
        for j in range(1, k + 1):
            inverse[f"g{i}_{j}"] = (new_alphabet.gen(f"x{i}_{j}")
                                    * new_alphabet.gen(f"y{mod1(i + j)}", -1)
                                    * new_alphabet.gen(f"y{mod1(j + m + 1)}", -1))
    verify_generator_change(pre, definitions, inverse)

    # The x-definitions become redundant once every y_j is pinned to the
    # rewritten w_j, so the presentation needs only the copied relators and
    # one relator per y.
    relators = [substitute(r, new_alphabet, inverse) for r in pre.relators]
    for j in range(1, k + 1):
        relators.append(new_alphabet.gen(f"y{j}")
                        * substitute(w_copy[j], new_alphabet, inverse).inverse())
    p_dagger = FinitePresentation(new_alphabet, relators)
    return p_dagger, new_alphabet.gen("y1")


def step_order_control(p_dagger, w_dagger):
    """Stage 2: adjoin a fresh a'_0 and re-generate with a'_i = (old_i) a'_0;
    the word becomes the commutator w' = [w-dagger, a'_0]."""
    if w_dagger.alphabet != p_dagger.alphabet:
        raise AlphabetMismatchError("word over a different alphabet than the presentation")
    product, rename = free_product_with_renaming(
        p_dagger, FinitePresentation(["a0"], []))
    a0 = rename["a0"]
    definitions = {"a'_0": product.alphabet.gen(a0)}
    for i, g in enumerate(p_dagger.generators, 1):
        definitions[f"a'_{i}"] = product.alphabet.gen(g) * product.alphabet.gen(a0)
    new_alphabet = W.Alphabet(tuple(definitions.keys()))
    inverse = {a0: new_alphabet.gen("a'_0")}
    for i, g in enumerate(p_dagger.generators, 1):
        inverse[g] = new_alphabet.gen(f"a'_{i}") * new_alphabet.gen("a'_0", -1)
    p_prime = tietze_change_generators(product, definitions, inverse)

    w_new = substitute(w_dagger, new_alphabet, inverse)
    w_prime = W.commutator(w_new, new_alphabet.gen("a'_0"))
    return p_prime, w_prime


def step_conjugators(p_prime, w_prime):
    """Stage 3a: adjoin b_0..b_m and relators (w')^{b_i} = i-th generator.
    A b_i that p' already holds becomes b_i_k (`_fresh_names`)."""
    targets = [p_prime.alphabet.gen(g) for g in p_prime.generators]
    letters = _fresh_names([f"b_{i}" for i in range(len(targets))], p_prime.generators)
    return add_conjugation_relators(p_prime, w_prime, targets, letters), letters


def _step_free_letter(p1, b_letters, w):
    """Stage 3b: adjoin a free t = b_{m+1} to the stage-3a output.  Returns
    (p2, the b-letters with t's name in p2 appended, t's name, w over p2)."""
    t_name = f"b_{len(b_letters)}"
    p2, rename = free_product_with_renaming(p1, FinitePresentation([t_name], []))
    return (p2, tuple(b_letters) + (rename[t_name],), rename[t_name],
            map_word(w, p2.alphabet, {}))


class MalnormalCertificate(namedtuple(
        "MalnormalCertificate", "m modulus tuple_uv rank family_malnormal "
        "base_rank translates_malnormal")):
    """Evidence that the commutator family works: its folded subgroup graph
    has the right rank and certifies malnormal, and the rank-3 base family
    of the modulus-N kernel passes the rotation-translate check.  tuple_uv
    holds the c_j as Words over {u, v}, rank is the rank of the folded
    family subgroup graph, and base_rank that of the <e_0, u, v> kernel
    core (3)."""

    __slots__ = ()

    def failures(self):
        """The names of the checks this certificate fails, in check order."""
        checks = ((f"kernel rank {self.base_rank} (need 3)", self.base_rank == 3),
                  ("kernel rotation-translate check", self.translates_malnormal),
                  (f"family rank {self.rank} (need {self.m + 2})",
                   self.rank == self.m + 2),
                  ("family malnormality check", self.family_malnormal))
        return [name for name, ok in checks if not ok]

    def is_valid(self):
        return not self.failures()


def _kernel_base_family(N):
    """The modulus-N instance: core graph of <e_0, e_{N-1}e_{N-2}^-1,
    e_{N-1}e_1^-1> in the rose on e_0..e_{N-1}, with the rotation action."""
    E = W.Alphabet([f"e{i}" for i in range(N)])
    base = S.rose(E.names)
    gens = [E.gen("e0"),
            E.gen(f"e{N - 1}") * E.gen(f"e{N - 2}", -1),
            E.gen(f"e{N - 1}") * E.gen("e1", -1)]
    sub = S.graph_of_subgroup(base, gens)
    rotation = {f"e{i}": f"e{(i + 1) % N}" for i in range(N)}
    action = S.RelabelingAction.cyclic(base, rotation)
    return base, sub, action


def _kernel_checks(N):
    """Rank of the modulus-N kernel core, and whether its rotation
    translates form a malnormal family.  A modulus that `_check_modulus`
    refuses is refused before the rose is built."""
    _check_modulus(N)
    base, kernel_sub, action = _kernel_base_family(N)
    translates_ok, _ = S.translate_family_check(base, action, kernel_sub,
                                                action.elements)
    return S.total_rank(kernel_sub.domain), translates_ok


def _family_checks(family):
    """Rank of the subgroup graph of a tuple of words over {u, v}, and
    whether it is malnormal."""
    graph = S.graph_of_subgroup(S.rose(["u", "v"]), family)
    ok, _ = S.malnormal_family_check([graph])
    return S.total_rank(graph.domain), ok


def _check_modulus(N):
    """Refuse N <= 6, below the certified threshold, and an N whose N
    rotation decisions over the rose's N + 1 ids pass MAX_WORD_LETTERS in
    all, the bound `RelabelingAction.cyclic` puts on an action."""
    if N <= 6:
        raise ThresholdError(f"modulus {N} is below the certified threshold (need > 6)")
    if N * (N + 1) > W.MAX_WORD_LETTERS:
        raise DegenerateInputError(
            f"modulus {N} makes {N} rotation decisions over {N + 1} ids, "
            f"more than {W.MAX_WORD_LETTERS} in all")


def select_malnormal_words(m, N=7):
    """The m+2 words c_j = [u^{j+1}, v^{j+1}], j = 0..m+1, rewritten over
    {t, w}, with a certificate that they freely generate a malnormal
    subgroup of rank m+2 of F(u, v); every claim is checked at runtime.

    Returns (tuple of Words over {t, w}, certificate).  Requires N > 6; the
    modulus-N rotation check (independent of the family) is part of the
    certificate.  Raises ForgeError naming m and the failed checks when the
    family does not certify."""
    if m < 0:
        raise DegenerateInputError("m must be nonnegative")
    base_rank, translates_ok = _kernel_checks(N)
    family = tuple(W.commutator(UV.gen("u") ** (j + 1), UV.gen("v") ** (j + 1))
                   for j in range(m + 2))
    rank, ok = _family_checks(family)
    cert = MalnormalCertificate(
        m=m, modulus=N, tuple_uv=family, rank=rank, family_malnormal=ok,
        base_rank=base_rank, translates_malnormal=translates_ok)
    if not cert.is_valid():
        raise ForgeError(f"m = {m}: the commutator family does not certify: "
                         + "; ".join(cert.failures()))
    table = {"u": U_IN_TW, "v": V_IN_TW}
    return tuple(substitute(c, TW, table) for c in family), cert


def revalidate_certificate(cert):
    """Re-run, from scratch, the checks that selection ran."""
    try:
        kernel = _kernel_checks(cert.modulus)
    except Exception:
        return False
    return (kernel == (cert.base_rank, cert.translates_malnormal)
            and _family_checks(cert.tuple_uv) == (cert.rank, cert.family_malnormal)
            and cert.is_valid())


def assemble_Gw(p2, b_letters, c_words):
    """Stage 4: double p2 with primed generator names (g', or g'_k where p2
    already holds g') and glue each half's b_i to the other half's c_i."""
    if len(b_letters) != len(c_words):
        raise DegenerateInputError(
            f"{len(b_letters)} b-letters but {len(c_words)} c-words")
    primed = dict(zip(p2.generators,
                      _fresh_names([g + "'" for g in p2.generators], p2.generators)))
    alphabet = W.Alphabet(p2.generators + tuple(primed.values()))
    relators = [map_word(r, alphabet, {}) for r in p2.relators]
    relators += [map_word(r, alphabet, primed) for r in p2.relators]
    for b, c in zip(b_letters, c_words):
        relators.append(map_word(c, alphabet, {}) * alphabet.gen(primed[b]).inverse())
        relators.append(alphabet.gen(b) * map_word(c, alphabet, primed).inverse())
    return FinitePresentation(alphabet, relators)


class EncodingTrace(Record):
    """Every intermediate object of one encoding run; a stage that did not
    run leaves its fields None, or () for its tuples of letters or words."""

    def __init__(self, input_presentation, input_word, modulus, short_circuited,
                 p_dagger=None, w_dagger=None, p_prime=None, w_prime=None, p1=None,
                 b_letters=(), p2=None, t_letter=None, u=None, v=None,
                 c_words_tw=(), c_words=(), certificate=None, p_w=None,
                 abelianizations=None):
        self.input_presentation, self.input_word = input_presentation, input_word
        self.modulus, self.short_circuited = modulus, short_circuited
        self.p_dagger, self.w_dagger = p_dagger, w_dagger
        self.p_prime, self.w_prime = p_prime, w_prime
        self.p1, self.b_letters = p1, b_letters
        self.p2, self.t_letter = p2, t_letter
        self.u, self.v = u, v
        self.c_words_tw, self.c_words = c_words_tw, c_words
        self.certificate, self.p_w = certificate, p_w
        self.abelianizations = abelianizations

    def stages(self):
        out = {"input": self.input_presentation}
        for name in ("p_dagger", "p_prime", "p1", "p2", "p_w"):
            stage = getattr(self, name)
            if stage is not None:
                out[name] = stage
        return out


def encode(p, w, N=7):
    """Run the full pipeline on (p, w) and keep every intermediate object.

    The identity word short-circuits to the trivial presentation <x | x>;
    otherwise the four stages run in order, the c_j are the certified
    commutator family of `select_malnormal_words`, and each stage's
    abelian invariants are recorded.  N must pass `_check_modulus` (above
    6, and small enough to check), even for the identity word."""
    _check_modulus(N)
    if w.is_identity():
        return _bare_trace(p, w, N, encode_discrete(p, w))  # <x | x>

    trace = EncodingTrace(p, w, N, short_circuited=False)
    trace.p_dagger, trace.w_dagger = step_injective_generators(p, w)
    trace.p_prime, trace.w_prime = step_order_control(trace.p_dagger, trace.w_dagger)
    trace.p1, b_letters = step_conjugators(trace.p_prime, trace.w_prime)
    trace.p2, trace.b_letters, trace.t_letter, w_prime_2 = _step_free_letter(
        trace.p1, b_letters, trace.w_prime)

    p2 = trace.p2
    table = {"t": p2.alphabet.gen(trace.t_letter), "w": w_prime_2}
    trace.u = substitute(U_IN_TW, p2.alphabet, table)
    trace.v = substitute(V_IN_TW, p2.alphabet, table)

    trace.c_words_tw, trace.certificate = select_malnormal_words(
        len(b_letters) - 1, N)
    trace.c_words = tuple(substitute(c, p2.alphabet, table)
                          for c in trace.c_words_tw)

    trace.p_w = assemble_Gw(p2, trace.b_letters, trace.c_words)
    trace.abelianizations = {name: abelianization(stage)
                             for name, stage in trace.stages().items()}
    return trace


def _bare_trace(p, w, modulus, p_w):
    """A trace that keeps only the input and the output, with both
    abelianizations; short-circuited exactly when w is the identity."""
    trace = EncodingTrace(p, w, modulus, short_circuited=w.is_identity(), p_w=p_w)
    trace.abelianizations = {"input": abelianization(p), "p_w": abelianization(p_w)}
    return trace


def discrete_c_word(w, t, j):
    """The discrete-case conjugator word (w^t)^{j+1} w (w^t)^{-1-j}."""
    w_t = W.conjugate(w, t)
    return (w_t ** (j + 1)) * w * (w_t ** (-1 - j))


def encode_discrete(p, w):
    """The simpler discrete-case construction.

    Adjoins a fresh a0 so the generator list reads a_0..a_m and replaces the
    word by the commutator [w, a0] (so a nontrivial word gains infinite
    order), conjugates every generator to it with stable letters b_0..b_m,
    adds a free b_{m+1}, takes c_j = (w^{b_{m+1}})^{j+1} w (w^{b_{m+1}})^{-1-j}
    and doubles."""
    if w.alphabet != p.alphabet:
        raise AlphabetMismatchError("word over a different alphabet than the presentation")
    if w.is_identity():
        x = W.Alphabet(["x"])
        return FinitePresentation(x, [x.gen("x")])
    # The first factor keeps its names; rename covers p's generators.
    g0, rename = free_product_with_renaming(FinitePresentation(["a0"], []), p)
    w_used = W.commutator(map_word(w, g0.alphabet, rename), g0.alphabet.gen("a0"))
    g1, letters = step_conjugators(g0, w_used)
    g2, b_letters, t_name, w2 = _step_free_letter(g1, letters, w_used)
    t = g2.alphabet.gen(t_name)
    cs = [discrete_c_word(w2, t, j) for j in range(len(b_letters))]
    return assemble_Gw(g2, b_letters, cs)


def discrete_trace(p, w):
    """encode_discrete(p, w) as a trace of input and output (modulus 0)."""
    return _bare_trace(p, w, 0, encode_discrete(p, w))
