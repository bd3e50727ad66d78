"""Finite-quotient search: homomorphisms into symmetric groups.

Survival of a word in every finite quotient is only semi-decidable, so all
searches run under an explicit budget and an exhausted search is reported
as inconclusive, never as a proof of triviality.

Every search is one degree loop, `search`, behind `word_survives_upto`,
`has_nontrivial_quotient_upto`, `search_order_targeted` and `forge
quotients`: it simplifies, runs the kernel at each degree from its first
one up to max_degree under one budget (or one per degree), stops at the
first witness or budget hit, restores the witness and records the nodes
spent at each degree.

For the nontrivial-image and word goals the loop first reads H_1 of the
presentation (skipped when it has fewer relators than generators, as H_1
then has positive rank).  Two exact rules follow, each dropping only
degrees and candidates that no homomorphism meeting the goal uses, so the
search yields the same complete homomorphisms in the same order and only
node counts fall.  When H_1 = 0 the group is perfect, and so is each of its images;
S_2, S_3 and S_4 are solvable, so every homomorphism into them is trivial,
and the loop starts at degree 5.  When H_1 (x) Z/2 = 0 (H_1 is finite of
odd order) sign o phi is trivial for every homomorphism phi, and the
kernel draws only even permutations; the only even permutation of degree
2 is the identity, so the loop starts at degree 3.  An order-spec search
keeps degree 2 and all of S_n: the trivial homomorphism can meet a spec
whose orders are all 1.

The search kernel (`_enumerate_homs`) is a depth-first search over
generator assignments.  Each relator is compiled once per search into
integer codes 2*i + (sign < 0) over one flat image table, in which slot 2*i
holds generator i's image and slot 2*i + 1 its inverse.  A relator is
checked by tracing points through its codes and fails at the first point
it moves; most candidates fail at point 0.  The relators checked at one
generator go shortest first, so a candidate is rejected by the shortest
relator it fails; the order of the checks does not change which
candidates pass.

Candidates: each generator draws, in lexicographic order, from a source
(`_Source`), a lazy list of (perm, inverse) pairs that reads its own
permutations (all of S_n, or the class-minimal ones) one pair at a time,
only as far as searches draw, and filters each permutation by its cycle
lengths before it builds the inverse.  The sources are class-minimal
(generator 0, when the search reduces it by conjugacy), even-only (when
|H_1| is odd) and fixed order (a generator that is a one-letter target of
an order spec draws only permutations of its order kappa * e_i, none if
two targets give it different orders); they combine.  A process keeps each
source in `_SOURCES` for later searches until it holds more image points
than all of S_7, so repeated small searches build no inverse twice; a
larger source leaves `_SOURCES` as it grows and goes with the searches
that read it, so a deep walk frees what it built when it ends.

Goal checkpoints: the search's goal is compiled into the same codes and
each of its conditions is checked at the checkpoint where it becomes
decided, the index of the last generator it reads (generator 0 for a
word with no letters).  A word must map to a nontrivial permutation; an
order spec's target must have order kappa * e_i, and a pair of targets
must meet trivially at the later of their two checkpoints.  A pruned
subtree holds only complete homomorphisms the goal rejects, so the
kernel yields exactly the goal-meeting homomorphisms of the full
enumeration, in the same order.  Node counts count this pruned tree, so
they are at most those of the unpruned one.  A candidate that a source
filters out is one the goal check at the same checkpoint rejects, and a
rejected candidate spends no node, so the sources leave the homomorphisms
yielded and the node counts as they are.  The loop still verifies the
hom it takes (`verify_order_spec`, or evaluating the word) and never
trusts the pruning alone.

Determinism: generators are assigned in alphabet order and candidate
permutations in lexicographic order of their image tuples, so witnesses are
canonical (the first homomorphism in that order that meets the goal) and
re-running a search reproduces them byte for byte.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, namedtuple
from operator import itemgetter

from . import words as W
from .errors import AlphabetMismatchError, DegenerateInputError, IndependenceError
from .presentations import FinitePresentation, abelianization, substitute
from .records import Record

# Permutations are tuples p with p[i] = image of point i (0-based internally;
# cycle notation is printed 1-based).


def identity_perm(n):
    return tuple(range(n))


def perm_mul(p, q):
    """p then q (left-to-right composition, matching word evaluation)."""
    return tuple(map(q.__getitem__, p))


def perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p):
    return math.lcm(*_cycle_lengths(p))


def _cycle_lengths(p):
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return lengths


def cycle_notation(p):
    """1-based disjoint-cycle string, 'id' for the identity."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "id"


class PermutationAssignment(namedtuple("PermutationAssignment", "degree images")):
    """A homomorphism to a symmetric group, given on the generators.  It
    keeps its own copy of the images, and hashes by degree alone, as the
    images are a dict."""

    __slots__ = ()

    def __new__(cls, degree, images):
        return super().__new__(cls, degree, dict(images))

    def __hash__(self):
        return hash((self.degree,))

    def evaluate(self, word):
        images = self.images
        inverses = {}  # name -> inverse image, computed on first use
        out = None  # the identity, until the first letter
        for name, sign in word.letters:
            if name not in images:
                raise AlphabetMismatchError(f"no image assigned for generator {name!r}")
            if sign > 0:
                image = images[name]
            else:
                if name not in inverses:
                    inverses[name] = perm_inv(images[name])
                image = inverses[name]
            out = image if out is None else perm_mul(out, image)
        return identity_perm(self.degree) if out is None else out

    def is_trivial(self):
        ident = identity_perm(self.degree)
        return all(p == ident for p in self.images.values())


class OrderSpec(namedtuple("OrderSpec", "targets kappa exponents")):
    """Targets gamma_1..gamma_m with required orders kappa * e_i and pairwise
    trivial cyclic intersections."""

    __slots__ = ()

    def __new__(cls, targets, kappa, exponents):
        targets = tuple(targets)
        exponents = tuple(int(e) for e in exponents)
        if len(targets) != len(exponents):
            raise DegenerateInputError("one exponent per target is required")
        if len(targets) < 2:
            raise DegenerateInputError("an order spec needs at least two targets")
        if kappa < 1 or any(e < 1 for e in exponents):
            raise DegenerateInputError("kappa and all exponents must be >= 1")
        return super().__new__(cls, targets, kappa, exponents)


class SearchBudget(namedtuple("SearchBudget", "max_degree max_nodes time_limit")):
    """Hard limits for a semi-decision search."""

    __slots__ = ()

    def __new__(cls, max_degree, max_nodes=10 ** 7, time_limit=None):
        if max_degree < 1 or max_nodes < 1:
            raise DegenerateInputError("budget bounds must be positive")
        if time_limit is not None and time_limit <= 0:
            raise DegenerateInputError("time limit must be positive")
        return super().__new__(cls, max_degree, max_nodes, time_limit)


class SearchOutcome(Record):
    """Result of a budgeted search.  status is 'witness' or 'exhausted';
    exhausted never proves anything and is reported as inconclusive.
    degrees holds (degree, nodes spent there, budget hit) for every degree
    the search entered.  even_only is set when it drew only even
    permutations because H_1 (x) Z/2 = 0, that is |H_1| is odd, and
    perfect when H_1 = 0.  excluded holds the degrees it skipped, as no
    homomorphism into them is nontrivial: 2-4 when H_1 = 0 (S_2, S_3 and
    S_4 are solvable), and 2 alone when |H_1| is odd and above 1 (the only
    even permutation of degree 2 is the identity, A_2 = 1)."""

    def __init__(self, status, witness, nodes, max_degree_searched, degrees=None,
                 excluded=(), even_only=False, perfect=False):
        self.status = status
        self.witness = witness
        self.nodes = nodes
        self.max_degree_searched = max_degree_searched
        self.degrees = [] if degrees is None else degrees
        self.excluded = excluded
        self.even_only = even_only
        self.perfect = perfect


# S_2, S_3 and S_4 are solvable; a perfect group's images into them are trivial.
FIRST_NONSOLVABLE_DEGREE = 5


class _Budget:
    def __init__(self, budget):
        self.max_nodes = budget.max_nodes
        self.deadline = (time.monotonic() + budget.time_limit
                         if budget.time_limit is not None else None)
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            return False
        if self.deadline is not None and self.nodes % 1024 == 0 \
                and time.monotonic() > self.deadline:
            return False
        return True


def _partitions(n, least=1):
    """Partitions of n into parts >= least, each as an ascending tuple."""
    if n == 0:
        yield ()
    for part in range(least, n + 1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _class_minimal_perms(n):
    """Lexicographically least permutation of each cycle type of degree n,
    lazily, in lexicographic order.  The least one of a type lays its
    cycles, in ascending length, on consecutive points: (s s+1 ... s+L-1).
    Where two types first differ, the shorter cycle sends its last point
    back to s and the longer one sends it on, so the shorter type comes
    first, as it does in `_partitions`."""
    for lengths in _partitions(n):
        p, start = [], 0
        for length in lengths:
            p.extend(range(start + 1, start + length))
            p.append(start)
            start += length
        yield tuple(p)


# A process keeps a source for later searches while it holds no more image
# points than all of S_7, which serves repeated small searches; past that it
# leaves `_SOURCES` and goes with the searches that read it, so a deep walk
# does not hold its n! pairs for the life of the process.
_KEPT_POINTS = 7 * math.factorial(7)

_SOURCES = {}  # (degree, minimal, even_only, order) -> its _Source, while small


class _Source:
    """The (perm, inverse) pairs of the class-minimal permutations of
    degree n (all of S_n if not minimal), only the even ones if even_only
    and only those of the given order unless it is None, in lexicographic
    order.  The list is read from its own permutations one pair at a time,
    as searches draw, and each permutation is filtered by its cycle lengths
    before its inverse is built."""

    def __init__(self, key):
        n, minimal, _, _ = self._key = key
        # None once read to the end, by this search or another that shares it
        self._unread = _class_minimal_perms(n) if minimal else itertools.permutations(range(n))
        self._pairs = []

    def draw(self):
        return self._pairs if self._unread is None else self._draw()

    def _draw(self):
        pairs, k = self._pairs, 0
        while k < len(pairs) or self._grow():
            yield pairs[k]
            k += 1

    def _grow(self):
        """Read one more pair into the list; False when it is complete."""
        n, _, even_only, order = key = self._key
        for perm in self._unread or ():
            if even_only or order is not None:
                lengths = _cycle_lengths(perm)
                if (even_only and (n - len(lengths)) % 2
                        or order not in (None, math.lcm(*lengths))):
                    continue
            self._pairs.append((perm, perm_inv(perm)))
            if len(self._pairs) * n > _KEPT_POINTS and _SOURCES.get(key) is self:
                del _SOURCES[key]
            return True
        self._unread = None
        return False


def _source(key):
    if key not in _SOURCES:
        _SOURCES[key] = _Source(key)
    return _SOURCES[key].draw


def _enumerate_homs(p, n, budget=None, goal=None, reduce_first=False,
                    even_only=False):
    """DFS over generator assignments in canonical order, yielding complete
    homomorphisms.  A relator is checked as soon as all its generators are
    assigned, and so is each condition of the goal (see `_goal_checks`):
    only homomorphisms that meet the goal are yielded, in the order the
    full enumeration would yield them.  Each generator draws from a source,
    a lazy list of (perm, inverse) pairs kept for later searches while it
    is small (see the module docstring).  With reduce_first=True generator
    0 draws only conjugacy-class-minimal permutations (sound for existence
    questions, since conjugating a homomorphism preserves relators,
    element orders, intersections and nontriviality).  With even_only=True
    every generator draws only even permutations, which loses nothing
    where H_1 (x) Z/2 = 0.  A generator that is a one-letter target of an
    OrderSpec goal draws only permutations of the order the goal fixes for
    it, which `_goal_checks` returns beside the checks.  A candidate a
    source drops is one the goal check at the same checkpoint rejects, and
    a rejected candidate spends no node, so neither the homomorphisms
    yielded nor the nodes change.
    """
    gens = p.generators
    code = {}
    for i, g in enumerate(gens):
        code[g, 1], code[g, -1] = 2 * i, 2 * i + 1

    def encode(word):
        return list(map(code.__getitem__, word.letters))

    checkpoints = [[] for _ in gens]  # last generator index -> coded relators
    for codes in map(encode, p.relators):
        checkpoints[_checkpoint(codes)].append(codes)
    for coded in checkpoints:
        coded.sort(key=len)  # a short relator rejects a candidate soonest
    table = [None] * (2 * len(gens))  # image, inverse, image, inverse, ...
    points = range(n)
    last = len(gens) - 1

    def holds(codes):
        for x in points:
            y = x
            for c in codes:
                y = table[c][y]
            if y != x:
                return False
        return True

    def image(codes):
        out = []
        for x in points:
            for c in codes:
                x = table[c][x]
            out.append(x)
        return tuple(out)

    size = max(1, len(gens))
    goal_checks, fixed = _goal_checks(goal, encode, holds, image, size)
    if not gens:
        if goal_checks[0] is None or goal_checks[0]():
            yield PermutationAssignment(n, {})
        return
    sources = [(lambda: ()) if order == 0
               else _source((n, reduce_first and i == 0, even_only, order))
               for i, order in enumerate(fixed)]

    def dfs(i):
        # Called once per inner node; a complete assignment is a node too,
        # spent in the loop below rather than in a call of its own.
        if budget is not None and not budget.spend():
            raise _BudgetStop
        checks, goal_check = checkpoints[i], goal_checks[i]
        for perm, inverse in sources[i]():
            table[2 * i] = perm
            table[2 * i + 1] = inverse
            if not all(map(holds, checks)):
                continue
            if goal_check is not None and not goal_check():
                continue
            if i < last:
                yield from dfs(i + 1)
                continue
            if budget is not None and not budget.spend():
                raise _BudgetStop
            yield PermutationAssignment(n, dict(zip(gens, table[::2])))

    yield from dfs(0)


def _goal_checks(goal, encode, holds, image, size):
    """The goal as one check per generator index (None where it has none),
    each at the checkpoint of the last generator its words read, and the
    order the goal fixes for each generator's source; a word with no
    letters is read at generator 0.  A Word must not hold, that is map to
    the identity.  Each OrderSpec target must have order kappa * e_i at
    its checkpoint, and each pair of targets whose orders are not coprime
    must meet trivially at the later of their two checkpoints; each cyclic
    subgroup is built once per permutation.  A one-letter target's order
    is fixed for its generator instead of checked: its source draws only
    permutations of that order (order 0, no permutation, where two targets
    fix different orders; None where the goal fixes none).  encode turns a
    word into codes; holds and image read codes under the kernel's current
    assignment."""
    checks, fixed = [None] * size, [None] * size
    if not isinstance(goal, OrderSpec):
        if goal is not None:
            codes = encode(goal)
            checks[_checkpoint(codes)] = lambda: not holds(codes)
        return checks, fixed
    targets = list(map(encode, goal.targets))
    orders = [goal.kappa * e for e in goal.exponents]
    for codes, order in zip(targets, orders):
        if len(codes) == 1:
            i = codes[0] // 2
            fixed[i] = order if fixed[i] in (None, order) else 0
    at = list(map(_checkpoint, targets))
    pairs = [(i, j) for j in range(len(at)) for i in range(j)
             if math.gcd(orders[i], orders[j]) != 1]
    paired = {t for pair in pairs for t in pair}
    perms = [None] * len(targets)  # target images, set at their checkpoints
    subgroups = {}  # perm -> its cyclic subgroup

    def subgroup(perm):
        if perm not in subgroups:
            subgroups[perm] = _cyclic_subgroup(perm)
        return subgroups[perm]

    def check_at(mine, meets):
        def check():
            for t in mine:
                perm = image(targets[t])
                if len(targets[t]) != 1 and perm_order(perm) != orders[t]:
                    return False
                perms[t] = perm
            return all(len(subgroup(perms[i]) & subgroup(perms[j])) == 1
                       for i, j in meets)
        return check

    for k in set(at):
        mine = [t for t, c in enumerate(at)
                if c == k and (len(targets[t]) != 1 or t in paired)]
        meets = [(i, j) for i, j in pairs if max(at[i], at[j]) == k]
        if mine or meets:
            checks[k] = check_at(mine, meets)
    return checks, fixed


def _checkpoint(codes):
    return max(codes) // 2 if codes else 0


class _BudgetStop(Exception):
    pass


def search_homs(p, n):
    """All homomorphisms of the presented group into the degree-n symmetric
    group.  The full assignment space is enumerated (no symmetry
    reduction), so the count matches brute-force enumeration."""
    if n < 1:
        raise DegenerateInputError("degree must be >= 1")
    return list(_enumerate_homs(p, n))


# ---------------------------------------------------------------------------
# Presentation simplification (internal).
#
# One Tietze move, applied to a fixpoint: a generator occurring exactly once
# in some relator (with exponent +-1) can be solved for there; it is then
# substituted away in every other relator and dropped along with the solving
# relator.  Each move removes one generator and one relator, so the loop
# terminates.  Each move is kept as a step (generator, its expression over
# the alphabet left after it), so homomorphisms and words transfer back and
# forth exactly by replaying the steps.


class SimplifiedPresentation(Record):
    def __init__(self, presentation, steps):
        self.presentation = presentation
        self.steps = steps  # (eliminated generator, Word over the alphabet after it)


def simplify_presentation(p):
    """Iterate the deletion move to a fixpoint.

    The simplified presentation presents an isomorphic group; replaying its
    `steps` rewrites every original generator over the surviving generators,
    which is what lets searches run on the small presentation and report
    witnesses on the original one."""
    alphabet = p.alphabet
    relators = list(p.relators)
    scans = list(map(_scan, relators))
    steps = []
    while True:
        move = _find_move(relators, scans)
        if move is None:
            break
        gen, expr_letters, drop_index = move
        new_alphabet = W.Alphabet(tuple(g for g in alphabet.names if g != gen))
        expr = W.from_reduced(new_alphabet, expr_letters)
        steps.append((gen, expr))
        new_relators, new_scans = [], []
        for idx, (r, scan) in enumerate(zip(relators, scans)):
            if idx == drop_index:
                continue
            if gen in scan[1]:
                r = substitute(r, new_alphabet, {gen: expr})
                if r.is_identity():
                    continue
                scan = _scan(r)
            else:
                r = W.from_reduced(new_alphabet, r.letters)
            new_relators.append(r)
            new_scans.append(scan)
        alphabet, relators, scans = new_alphabet, new_relators, new_scans
    return SimplifiedPresentation(FinitePresentation(alphabet, relators), steps)


def _scan(word):
    """(position of the first letter whose generator occurs once in the
    word, or None; occurrences per generator)."""
    names = list(map(itemgetter(0), word.letters))
    counts = Counter(names)
    # Counter keeps first-occurrence order, so the first single is leftmost.
    single = next((g for g, count in counts.items() if count == 1), None)
    return (None if single is None else names.index(single)), counts


def _find_move(relators, scans):
    """Next elimination: a generator with exactly one occurrence in some
    relator, from each relator's `_scan`.  The shortest usable relator is
    preferred (then relator index, then position), which keeps the
    substitution blow-up small.  Returns (generator, reduced expression
    letters, index of relator to drop) or None."""
    usable = [(len(r.letters), idx) for idx, (r, (pos, _)) in
              enumerate(zip(relators, scans)) if pos is not None]
    if not usable:
        return None
    _, idx = min(usable)
    pos = scans[idx][0]
    letters = relators[idx].letters
    g, sign = letters[pos]
    # r = u g^sign v = 1  =>  g^sign = u^-1 v^-1, which can cancel only at the seam
    solved = [(h, -s) for h, s in reversed(letters[:pos])]
    W.extend_reduced(solved, tuple((h, -s) for h, s in reversed(letters[pos + 1:])))
    if sign < 0:
        solved = [(h, -s) for h, s in reversed(solved)]
    return g, tuple(solved), idx


def _transfer_word(simp, word):
    """A word over the original alphabet, rewritten over the simplified one
    by replaying the elimination steps."""
    for gen, expr in simp.steps:
        word = substitute(word, expr.alphabet, {gen: expr})
    return W.from_reduced(simp.presentation.alphabet, word.letters)


def _restore_assignment(p, simp, q):
    """Extend a hom on the simplified presentation to the original
    generators: each step's expression is evaluated under the images of
    the generators left after it, last step first."""
    full = PermutationAssignment(q.degree, q.images)  # a copy of q's images
    for gen, expr in reversed(simp.steps):
        full.images[gen] = full.evaluate(expr)  # evaluate reads the grown dict
    return PermutationAssignment(q.degree, {g: full.images[g] for g in p.generators})


def search(p, budget, goal=None, per_degree=False):
    """The one degree loop: the first homomorphism into S_2, S_3, ...,
    S_max_degree that meets the goal, which is None (nontrivial image), a
    Word over p's alphabet (it survives) or an OrderSpec (it holds).  Words
    and None search the simplified presentation and restore the witness
    to p's generators; an order spec searches p as given.  For words and
    None, H_1 of p sets the first degree (5 when H_1 = 0, 3 when |H_1| is
    odd) and limits the candidates to even permutations when
    H_1 (x) Z/2 = 0; with no degree
    left the search returns before simplifying.  The node budget covers
    all degrees together, or each degree afresh with per_degree.  The
    kernel prunes by the goal (the word as transferred); accept still
    verifies the hom it yields, so the pruning is never trusted alone."""
    first, even_only, perfect = 2, False, False
    if not isinstance(goal, OrderSpec) and len(p.relators) >= len(p.generators):
        h1 = abelianization(p)
        if h1.betti == 0 and all(d % 2 for d in h1.torsion):  # |H_1| is odd
            perfect, even_only = not h1.torsion, True
            first = FIRST_NONSOLVABLE_DEGREE if perfect else 3  # A_2 = 1
    excluded = tuple(range(2, min(first, budget.max_degree + 1)))
    if first > budget.max_degree:
        return SearchOutcome("exhausted", None, 0, 1, excluded=excluded,
                             perfect=perfect)
    simp = None if isinstance(goal, OrderSpec) else simplify_presentation(p)
    search_p = p if simp is None else simp.presentation
    word = None if simp is None or goal is None else _transfer_word(simp, goal)
    kernel_goal = goal if simp is None else word

    def accept(q):
        if simp is None:
            return verify_order_spec(q, goal)[0]
        if word is None:  # the restored hom is trivial exactly when q is
            return not q.is_trivial()
        return q.evaluate(word) != identity_perm(q.degree)

    tracker = _Budget(budget)
    degrees, witness = [], None
    for n in range(first, budget.max_degree + 1):
        if per_degree:
            tracker = _Budget(budget)
        start = tracker.nodes
        try:
            found = next(filter(accept, _enumerate_homs(
                search_p, n, tracker, kernel_goal, reduce_first=True,
                even_only=even_only)), None)
        except _BudgetStop:
            degrees.append((n, tracker.nodes - start, True))
            break
        degrees.append((n, tracker.nodes - start, False))
        if found is not None:
            witness = found if simp is None else _restore_assignment(p, simp, found)
            break
    return SearchOutcome("exhausted" if witness is None else "witness", witness,
                         sum(nodes for _, nodes, _ in degrees),
                         degrees[-1][0], degrees, excluded, even_only, perfect)


def word_survives_upto(p, w, budget):
    """Look for a finite quotient in which w is nontrivial.

    An exhausted search is NOT evidence that w dies in every finite
    quotient; callers must report it as inconclusive."""
    if w.alphabet != p.alphabet:
        raise AlphabetMismatchError("word over a different alphabet than the presentation")
    return search(p, budget, w)


def has_nontrivial_quotient_upto(p, budget):
    """First-nontrivial search up to the budget's max degree; exhausted is
    inconclusive."""
    return search(p, budget)


def element_order(q, w):
    """Multiplicative order of the image of w."""
    return perm_order(q.evaluate(w))


def verify_order_spec(q, spec):
    """Check o(q(gamma_i)) = kappa*e_i and that distinct cyclic subgroups
    <q(gamma_i)> intersect trivially.  Returns (ok, report).  The order of
    an element is the size of the cyclic subgroup it generates."""
    subgroups = [_cyclic_subgroup(q.evaluate(t)) for t in spec.targets]
    trivial = {identity_perm(q.degree)}
    ok = True
    order_report = []
    for i, (subgroup, e) in enumerate(zip(subgroups, spec.exponents)):
        expected = spec.kappa * e
        actual = len(subgroup)
        good = actual == expected
        ok = ok and good
        order_report.append({"target": i, "expected": expected,
                             "actual": actual, "ok": good})
    pair_report = []
    for i in range(len(subgroups)):
        for j in range(i + 1, len(subgroups)):
            meet = subgroups[i] & subgroups[j]
            good = meet == trivial
            ok = ok and good
            pair_report.append({"pair": (i, j), "intersection_size": len(meet),
                                "ok": good})
    return ok, {"orders": order_report, "intersections": pair_report}


def _cyclic_subgroup(perm):
    ident = identity_perm(len(perm))
    out = {ident}
    cur = perm
    while cur != ident:
        out.add(cur)
        cur = perm_mul(cur, perm)
    return out


def search_order_targeted(p, spec, budget):
    """Search for a hom satisfying an order spec.

    For a free presentation the targets must be pairwise independent, which
    is a necessary condition for such quotients to exist with unconstrained
    kappa; dependence is rejected up front."""
    for t in spec.targets:
        if t.alphabet != p.alphabet:
            raise AlphabetMismatchError("spec target over a different alphabet")
    if not p.relators:
        flag, pair = W.is_independent(spec.targets)
        if not flag:
            raise IndependenceError(f"targets {pair[0]} and {pair[1]} are dependent")
    return search(p, budget, spec)
