"""Differential tests: the compiled search kernel (integer-coded relators,
point tracing, lazy permutations, class-minimal permutations in closed
form, goal checks at their checkpoints), the step-replay restore and word
transfer, the order-spec check, free reduction and the simplifier against
the original code, kept in helpers.py as an oracle; `forge quotients`
against its own former degree loop.

Presentations come from seeded generators; hypothesis picks the seeds
(derandomized, so every run sees the same ones) and prints the failing
seed.  Without a goal the homomorphisms yielded, in order, and the node
count where a budget stops the search must agree exactly; with one, the
kernel yields exactly the oracle's homomorphisms that meet it.  A search
or a `forge quotients` report may spend fewer nodes at each degree than
the seed's, never more, and must find the seed's witness, or, where only
it finds one, the seed's first witness under an unbounded budget.  The
lines a report prints about what H_1 ruled out are checked against the
oracle's |H_1| (determinantal divisors).

H_1 pruning is checked against the degree loop as it was (`oracle_search`:
from degree 2, over all of S_n) on presentations with H_1 = 0, with |H_1|
odd and of any kind, and on the encoder's perfect outputs.
"""

import contextlib
import io
import itertools
import math
import os
import random
import re
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given

from forge import quotients
from forge import words as W
from forge.cli import main
from forge.encoder import encode_discrete
from forge.errors import ForgeError
from forge.fileformats import format_presentation
from forge.presentations import FinitePresentation, substitute
from forge.quotients import (OrderSpec, PermutationAssignment, SearchBudget,
                             _Budget, _BudgetStop, _class_minimal_perms,
                             _cycle_lengths, _enumerate_homs, _find_move,
                             _restore_assignment, _scan, _transfer_word,
                             cycle_notation, has_nontrivial_quotient_upto,
                             identity_perm, perm_order, search,
                             search_order_targeted, simplify_presentation,
                             verify_order_spec, word_survives_upto)
from helpers import (derandomized, oracle_class_minimal_perms,
                     oracle_cycle_notation, oracle_cycles, oracle_perm_order,
                     oracle_enumerate_homs, oracle_evaluate,
                     oracle_find_move, oracle_h1_order,
                     oracle_has_nontrivial_quotient_upto,
                     oracle_pruned_enumerate_homs,
                     oracle_quotients_command, oracle_reduce,
                     oracle_restore_assignment, oracle_search,
                     oracle_search_order_targeted,
                     oracle_simplify_presentation, oracle_substitute,
                     oracle_transfer_word, oracle_verify_order_spec,
                     oracle_word_survives_upto, random_reduced_word,
                     seed_search_kernel, seeds)


def random_presentation(rng):
    """1-3 generators, 0-4 relators of length 1-12."""
    alphabet = W.Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
    return FinitePresentation(alphabet, [
        random_reduced_word(rng, alphabet, rng.randint(1, 12))
        for _ in range(rng.randint(0, 4))])


def random_word(rng, alphabet, longest):
    return random_reduced_word(rng, alphabet, rng.randint(0, longest))


def hom_key(q):
    """Everything a homomorphism prints: degree and images in key order."""
    return None if q is None else (q.degree, tuple(q.images.items()))


def run_homs(enumerate_homs, p, n, max_nodes, reduce_first):
    """The yielded homs in order, whether the budget stopped the search,
    and the nodes spent."""
    tracker = None if max_nodes is None else _Budget(
        SearchBudget(max_degree=n, max_nodes=max_nodes))
    homs, stopped = [], False
    try:
        for q in enumerate_homs(p, n, tracker, reduce_first=reduce_first):
            homs.append(hom_key(q))
    except _BudgetStop:
        stopped = True
    return homs, stopped, tracker and tracker.nodes


@given(seeds)
@derandomized
def test_enumeration_matches_seed(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    n = rng.randint(1, 4)
    max_nodes = rng.choice((None, rng.randint(1, 40), rng.randint(1, 400)))
    reduce_first = rng.random() < 0.5
    assert (run_homs(_enumerate_homs, p, n, max_nodes, reduce_first)
            == run_homs(oracle_enumerate_homs, p, n, max_nodes, reduce_first))


@given(seeds)
@derandomized
def test_full_enumeration_matches_seed_on_one_relator(seed):
    """Every hom of a one-relator group on three generators into S_3.  Here
    a relator r and its reverse often have different solutions, which
    catches a kernel that reads a letter's image for its inverse."""
    rng = random.Random(seed)
    alphabet = W.Alphabet(("a", "b", "c"))
    p = FinitePresentation(alphabet, [random_reduced_word(rng, alphabet, rng.randint(1, 12))])
    assert (run_homs(_enumerate_homs, p, 3, None, False)
            == run_homs(oracle_enumerate_homs, p, 3, None, False))


def random_order_spec(rng, alphabet):
    count = rng.randint(2, 3)
    return OrderSpec(targets=[random_word(rng, alphabet, 4) for _ in range(count)],
                     kappa=rng.randint(1, 2),
                     exponents=[rng.randint(1, 2) for _ in range(count)])


def goal_holds(q, goal):
    """The goal as the search loop's accept decides it, on oracle code."""
    if goal is None:
        return True
    if isinstance(goal, OrderSpec):
        return oracle_verify_order_spec(q, goal)[0]
    return oracle_evaluate(q, goal) != identity_perm(q.degree)


def assert_goal_pruning_exact(p, goal, max_degree):
    """With no budget, the goal-constrained kernel yields exactly the
    oracle kernel's homs that meet the goal, in the oracle's order."""
    for n in range(2, max_degree + 1):
        new = [hom_key(q) for q in _enumerate_homs(p, n, None, goal, reduce_first=True)]
        old = [hom_key(q) for q in oracle_enumerate_homs(p, n, reduce_first=True)
               if goal_holds(q, goal)]
        assert new == old


def assert_goals_pruned_exactly(p, w, spec, max_degree):
    """The three goals as the searches hand them to the kernel: none and
    the transferred word on the simplified presentation, an order spec on
    p as given."""
    simp = oracle_simplify_presentation(p)
    assert_goal_pruning_exact(simp.presentation, None, max_degree)
    if w is not None:
        assert_goal_pruning_exact(simp.presentation, oracle_transfer_word(simp, w),
                                  max_degree)
    if spec is not None:
        assert_goal_pruning_exact(p, spec, max_degree)


def run_search(search, *args):
    try:
        return search(*args)
    except ForgeError as exc:
        return type(exc).__name__, str(exc)


def assert_search_pruned(new, old, first):
    """new is a search as it is, old the seed kernel's search under the same
    budget, first() the seed kernel's under an unbounded budget.  Nodes per
    degree can only go down: at a degree the seed finished, below its
    count; at one the shared budget cut short or never let it reach, below
    its unbounded count there.  The seed's witness is found again, and a
    witness only the new search finds (it spent fewer nodes) is the seed's
    first one.  Degrees the new search excludes are left out of the seed's
    degree order."""
    if type(old) is tuple:
        assert new == old  # the same ForgeError
        return
    bound = {n: nodes for n, nodes, hit in old.degrees if not hit}
    if any(n not in bound for n, _, _ in new.degrees):
        bound = {n: nodes for n, nodes, _ in first().degrees} | bound
    for n, nodes, _ in new.degrees:
        assert nodes <= bound[n]
    old_order = [n for n, _, _ in old.degrees if n not in new.excluded]
    assert [n for n, _, _ in new.degrees][:len(old_order)] \
        == old_order[:len(new.degrees)]
    if old.witness is not None:
        assert hom_key(new.witness) == hom_key(old.witness)
        assert new.max_degree_searched == old.max_degree_searched
    elif new.witness is not None:
        assert hom_key(new.witness) == hom_key(first().witness)
    assert new.nodes == sum(nodes for _, nodes, _ in new.degrees)


UNBOUNDED = 10 ** 7


@given(seeds)
@derandomized
def test_searches_match_seed(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    budget = SearchBudget(max_degree=rng.randint(1, 4),
                          max_nodes=rng.choice((rng.randint(1, 60), 400)))
    unbounded = SearchBudget(max_degree=budget.max_degree, max_nodes=UNBOUNDED)
    w = random_word(rng, p.alphabet, 6)
    spec = random_order_spec(rng, p.alphabet)
    assert_goals_pruned_exactly(p, w, spec, budget.max_degree)
    searches = [(word_survives_upto, oracle_word_survives_upto, (p, w)),
                (has_nontrivial_quotient_upto, oracle_has_nontrivial_quotient_upto, (p,)),
                (search_order_targeted, oracle_search_order_targeted, (p, spec))]
    for search, oracle, args in searches:
        new = run_search(search, *args, budget)
        with seed_search_kernel():
            old = run_search(oracle, *args, budget)

        def first():
            with seed_search_kernel():
                return oracle(*args, unbounded)
        assert_search_pruned(new, old, first)


def cli_report(argv):
    """Exit code and stdout of `forge`, without the timing line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = [line for line in out.getvalue().splitlines()
             if not line.startswith("timing:")]
    return code, lines


DEGREE_LINE = re.compile(r"degree (\d+): nodes=(\d+)( \(budget hit\))?$")
H1_LINE = re.compile(r"(degrees? [-\d]+: excluded \(H1 = 0\)"
                     r"|degree 2: excluded \(\|H1\| odd\)"
                     r"|candidates: even permutations \(\|H1\| odd\))$")
EXCLUDED_LINE = re.compile(r"degrees? (\d+)(?:-(\d+))?: excluded")


def split_report(report):
    """(degree lines as (degree, nodes), the lines saying what H_1 ruled
    out, every other line with the exit code)."""
    code, lines = report
    degrees = [DEGREE_LINE.match(line) for line in lines]
    rest = [line for line, m in zip(lines, degrees) if not m]
    return ([(int(m[1]), int(m[2])) for m in degrees if m],
            [line for line in rest if H1_LINE.match(line)],
            (code, [line for line in rest if not H1_LINE.match(line)]))


def h1_lines(p, argv):
    """The H_1 lines a `forge quotients` report must print, from the
    oracle's |H_1|: degrees 2-4 are excluded when H_1 = 0, degree 2 when
    |H_1| is odd and above 1 (A_2 = 1), and candidates are even
    permutations at the degrees searched when |H_1| is odd.  An order-spec
    search prints neither."""
    if "--orders" in argv:
        return []
    max_degree, order = int(argv[argv.index("--max-degree") + 1]), oracle_h1_order(p)
    first = 5 if order == 1 else 3 if order % 2 else 2
    lines = []
    if first == 3 and max_degree >= 2:
        lines.append("degree 2: excluded (|H1| odd)")
    elif first > 2 and max_degree >= 2:
        top = min(first - 1, max_degree)
        lines.append("degree 2: excluded (H1 = 0)" if top == 2
                     else f"degrees 2-{top}: excluded (H1 = 0)")
    if order % 2 and first <= max_degree:
        lines.append("candidates: even permutations (|H1| odd)")
    return lines


def excluded_degrees(rules):
    """The degrees a report's H_1 lines say were excluded."""
    out = set()
    for m in filter(None, map(EXCLUDED_LINE.match, rules)):
        out.update(range(int(m[1]), int(m[2] or m[1]) + 1))
    return out


def assert_report_pruned(new, old, first, rules):
    """The report form of assert_search_pruned: each degree line's nodes
    can only go down, the new report's H_1 lines are rules, and every
    other line (status, inputs, witness or conclusion) equals the seed's,
    or, for a witness only the new search finds, the seed's report under
    an unbounded budget.  The seed's lines for degrees the new report
    excludes are dropped before the degree lines are compared."""
    new_degrees, new_rules, new_rest = split_report(new)
    old_degrees, _, old_rest = split_report(old)
    assert new_rules == rules
    excluded = excluded_degrees(rules)
    old_degrees = [(n, nodes) for n, nodes in old_degrees if n not in excluded]
    for (n, nodes), (old_n, old_nodes) in zip(new_degrees, old_degrees):
        assert n == old_n and nodes <= old_nodes
    if old_rest[0] != 0 and new_rest[0] == 0:
        assert new_rest == split_report(first())[2]
    else:
        assert new_rest == old_rest


def cli_goals(p, word, orders):
    """The word and order spec a `forge quotients` argv asks about."""
    w = W.parse_word(p.alphabet, word)
    exponents = [int(e) for e in orders.split(":")[1].split(",")]
    spec = None if len(exponents) < 2 else OrderSpec(
        targets=[p.alphabet.gen(g) for g in p.generators], kappa=1, exponents=exponents)
    return w, spec


def unbounded_argv(argv):
    argv = list(argv)
    if "--max-nodes" in argv:
        argv[argv.index("--max-nodes") + 1] = str(UNBOUNDED)
    return argv


@given(seeds)
@derandomized
def test_cli_quotients_report_matches_seed(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    word = W.format_word(random_word(rng, p.alphabet, 6))
    orders = "1:" + ",".join(str(rng.randint(1, 3)) for _ in p.generators)
    max_degree = rng.randint(1, 4)
    assert_goals_pruned_exactly(p, *cli_goals(p, word, orders), max_degree)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(p))
        search = ["quotients", path, "--max-degree", str(max_degree),
                  "--max-nodes", str(rng.choice((rng.randint(1, 60), 400)))]
        for argv in (search, search + ["--word", word], search + ["--orders", orders]):
            new = cli_report(argv)
            with seed_search_kernel():
                old = cli_report(argv)

            def first():
                with seed_search_kernel():
                    return cli_report(unbounded_argv(argv))
            assert_report_pruned(new, old, first, h1_lines(p, argv))


@given(seeds)
@derandomized
def test_cli_quotients_report_matches_former_loop(seed):
    """Full reports of the one search loop against the CLI's former loop:
    plain, --word and --orders, each under a drawn budget, with
    --max-degree 1, and with a budget of a few nodes, which mostly stops
    the search at its first or second degree."""
    rng = random.Random(seed)
    p = random_presentation(rng)
    word = W.format_word(random_word(rng, p.alphabet, 6))
    orders = "1:" + ",".join(str(rng.randint(1, 3)) for _ in p.generators)
    budgets = (["--max-degree", str(rng.randint(1, 4)),
                "--max-nodes", str(rng.choice((rng.randint(1, 60), 400)))],
               ["--max-degree", "1"],
               ["--max-degree", "4", "--max-nodes", str(rng.randint(1, 8))])
    assert_goals_pruned_exactly(p, *cli_goals(p, word, orders), 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(p))
        for budget in budgets:
            search = ["quotients", path, *budget]
            for argv in (search, search + ["--word", word],
                         search + ["--orders", orders]):
                new = cli_report(argv)
                with oracle_quotients_command(), seed_search_kernel():
                    old = cli_report(argv)

                def first():
                    with oracle_quotients_command(), seed_search_kernel():
                        return cli_report(unbounded_argv(argv))
                assert_report_pruned(new, old, first, h1_lines(p, argv))


@given(seeds)
@derandomized
def test_evaluate_matches_seed(seed):
    rng = random.Random(seed)
    alphabet = W.Alphabet(("a", "b", "c"))
    n = rng.randint(1, 6)
    q = PermutationAssignment(n, {g: tuple(rng.sample(range(n), n))
                                  for g in alphabet.names})
    w = random_word(rng, alphabet, 20)
    assert q.evaluate(w) == oracle_evaluate(q, w)


@given(seeds)
@derandomized
def test_substitute_matches_seed(seed):
    """Full tables into a disjoint alphabet, and partial tables whose
    missing names pass through into a target that holds them."""
    rng = random.Random(seed)
    source = W.Alphabet(("a", "b", "c"))
    target = W.Alphabet(("x", "y"))
    table = {g: random_word(rng, target, 5) for g in source.names}
    w = random_word(rng, source, 15)
    assert substitute(w, target, table) == oracle_substitute(w, target, table)
    kept = rng.sample(source.names, rng.randint(0, 2))
    both = W.Alphabet(("a", "b", "c", "x", "y"))
    partial = {g: random_word(rng, both, 5) for g in source.names if g not in kept}
    assert substitute(w, both, partial) == oracle_substitute(w, both, partial)


@given(seeds)
@derandomized
def test_verify_order_spec_matches_seed(seed):
    rng = random.Random(seed)
    alphabet = W.Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
    n = rng.randint(1, 5)
    q = PermutationAssignment(n, {g: tuple(rng.sample(range(n), n))
                                  for g in alphabet.names})
    spec = random_order_spec(rng, alphabet)
    assert verify_order_spec(q, spec) == oracle_verify_order_spec(q, spec)


def raw_letters(rng, names, signs=(1, -1)):
    """Up to 20 letters, not reduced: cancelling pairs are common."""
    return [(rng.choice(names), rng.choice(signs))
            for _ in range(rng.randint(0, 20))]


def reduce_outcome(reduce, alphabet, letters):
    try:
        word = reduce(alphabet, letters)
    except Exception as exc:
        return type(exc), str(exc)
    return word, W.Word(alphabet, word.letters) == word


@given(seeds)
@derandomized
def test_reduce_matches_seed(seed):
    rng = random.Random(seed)
    alphabet = W.Alphabet(("a", "b"))
    names = ("a", "b") if rng.random() < 0.8 else ("a", "b", "z")
    signs = (1, -1) if rng.random() < 0.8 else (1, -1, 2)
    letters = raw_letters(rng, names, signs)
    if rng.random() < 0.3:
        letters = [list(letter) for letter in letters]
    assert (reduce_outcome(W.reduce, alphabet, letters)
            == reduce_outcome(oracle_reduce, alphabet, letters))


@given(seeds)
@derandomized
def test_find_move_matches_seed(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    relators = list(p.relators) + [random_reduced_word(rng, p.alphabet, rng.randint(1, 6))
                                   for _ in range(rng.randint(0, 3))]
    old = oracle_find_move(p.alphabet, relators)
    if old is not None:  # the oracle leaves the solved expression unreduced
        g, letters, idx = old
        old = g, oracle_reduce(p.alphabet, letters).letters, idx
    assert _find_move(relators, list(map(_scan, relators))) == old


def random_long_presentation(rng):
    """2-4 generators, 1-4 relators of length 1-40: simplification runs
    several moves, and the substituted words cancel at their seams."""
    alphabet = W.Alphabet(("a", "b", "c", "d")[:rng.randint(2, 4)])
    return FinitePresentation(alphabet, [
        random_reduced_word(rng, alphabet, rng.randint(1, 40))
        for _ in range(rng.randint(1, 4))])


def random_solvable_presentation(rng):
    """3-5 generators; most get a relator in which they occur once among
    generators later in the alphabet, so simplification runs several
    moves, and a step's expression reads generators a later step
    eliminates."""
    alphabet = W.Alphabet(("a", "b", "c", "d", "e")[:rng.randint(3, 5)])
    relators = []
    for i, g in enumerate(alphabet.names[:-1]):
        if rng.random() < 0.8:
            later = W.Alphabet(alphabet.names[i + 1:])
            letters = list(random_reduced_word(rng, later, rng.randint(0, 8)).letters)
            letters.insert(rng.randint(0, len(letters)), (g, rng.choice((1, -1))))
            relators.append(W.reduce(alphabet, letters))
    relators += [random_reduced_word(rng, alphabet, rng.randint(1, 12))
                 for _ in range(rng.randint(0, 2))]
    return FinitePresentation(alphabet, relators)


def random_simplifiable_presentation(rng):
    return rng.choice((random_long_presentation, random_solvable_presentation,
                       random_presentation))(rng)


@given(seeds)
@derandomized
def test_simplify_presentation_matches_seed(seed):
    rng = random.Random(seed)
    p = random_simplifiable_presentation(rng)
    new, old = simplify_presentation(p), oracle_simplify_presentation(p)
    assert new.presentation.alphabet == old.presentation.alphabet
    assert new.presentation.relators == old.presentation.relators
    assert new.steps == old.steps


def test_simplify_drops_relators_that_cancel():
    """Solving a b^-1 for a cancels the relators that say the same again;
    the result equals the oracle's, which drops them as they cancel."""
    alphabet = W.Alphabet(["a", "b"])
    p = FinitePresentation(alphabet, [W.parse_word(alphabet, r)
                                      for r in ("a b^-1", "b a^-1", "b^2", "a b^-1")])
    new, old = simplify_presentation(p), oracle_simplify_presentation(p)
    assert repr(new.presentation) == "<gens b | b^2>"
    assert new.presentation == old.presentation and new.steps == old.steps


@given(seeds)
@derandomized
def test_step_replay_matches_expressions(seed):
    """Restoring an assignment and transferring a word by replaying the
    steps agree with substituting through the oracle's eager expressions,
    for any images of the simplified generators, homomorphism or not."""
    rng = random.Random(seed)
    p = random_simplifiable_presentation(rng)
    new, old = simplify_presentation(p), oracle_simplify_presentation(p)
    w = random_word(rng, p.alphabet, 20)
    assert _transfer_word(new, w) == oracle_transfer_word(old, w)
    n = rng.randint(1, 5)
    q = PermutationAssignment(n, {g: tuple(rng.sample(range(n), n))
                                  for g in new.presentation.generators})
    assert (hom_key(_restore_assignment(p, new, q))
            == hom_key(oracle_restore_assignment(p, old, q)))


@pytest.mark.parametrize("n", range(1, 8))
def test_class_minimal_perms_match_brute_force(n):
    assert list(_class_minimal_perms(n)) == oracle_class_minimal_perms(n)


def test_cycle_walk_matches_oracle():
    """perm_order, _cycle_lengths and cycle_notation against the oracle's
    own cycle walk on every permutation of degree 1-7."""
    perms = [p for n in range(1, 8) for p in itertools.permutations(range(n))]
    assert len(perms) == 5913
    for p in perms:
        assert _cycle_lengths(p) == [len(cycle) for cycle in oracle_cycles(p)]
        assert perm_order(p) == oracle_perm_order(p)
        assert cycle_notation(p) == oracle_cycle_notation(p)


def test_class_minimal_perms_are_lazy():
    """The first permutations of degree 60 come at once, before the other
    966,464 classes are built: the identity, then a transposition and a
    3-cycle on the last points."""
    first = list(itertools.islice(_class_minimal_perms(60), 3))
    fixed = tuple(range(57))
    assert first == [fixed + (57, 58, 59), fixed + (57, 59, 58),
                     fixed + (58, 59, 57)]


def random_kernel_goal(rng, alphabet):
    """None, a word, or an order spec of one of four kinds: one-letter
    targets (as `forge quotients --orders` gives), one generator targeted
    twice with conflicting orders, kappa above 1, or targets of any length."""
    gens = alphabet.names
    kind = rng.choice(("none", "word", "letters", "conflict", "kappa", "words"))
    if kind == "none":
        return None
    if kind == "word":
        return random_word(rng, alphabet, 6)

    def letter():
        return W.from_reduced(alphabet, ((rng.choice(gens), rng.choice((1, -1))),))
    count = rng.randint(2, 4)
    targets = [letter() for _ in range(count)]
    exponents = [rng.randint(1, 3) for _ in range(count)]
    kappa = rng.randint(2, 3) if kind == "kappa" else 1
    if kind == "conflict":
        g = rng.choice(gens)
        targets[:2] = [W.from_reduced(alphabet, ((g, 1),)),
                       W.from_reduced(alphabet, ((g, rng.choice((1, -1))),))]
        exponents[1] = exponents[0] % 3 + 1
    if kind == "words":
        targets = [t if rng.random() < 0.5 else random_word(rng, alphabet, 4)
                   for t in targets]
    return OrderSpec(targets=targets, kappa=kappa, exponents=exponents)


def kernel_trace(enumerate_homs, p, n, max_nodes, goal, reduce_first, even_only):
    """Each yielded hom with the nodes spent when it came, then the nodes
    at a budget stop (or None where the kernel ran to the end)."""
    tracker = None if max_nodes is None else _Budget(
        SearchBudget(max_degree=n, max_nodes=max_nodes))
    trace = []
    try:
        for q in enumerate_homs(p, n, tracker, goal, reduce_first=reduce_first,
                                even_only=even_only):
            trace.append((hom_key(q), tracker and tracker.nodes))
    except _BudgetStop:
        trace.append(("budget stop", tracker.nodes))
    return trace


@given(seeds)
@derandomized
def test_candidate_sources_match_pruned_kernel(seed):
    """The kernel with candidate sources against the pruned kernel it
    replaced (`oracle_pruned_enumerate_homs`), at degrees 2-5, for every
    kind of goal, reduce_first and even_only on and off, unbudgeted where
    that is small and under budgets that stop mid-degree: the same homs in
    the same order, the same nodes at every yield and at the stop."""
    rng = random.Random(seed)
    alphabet = W.Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
    p = FinitePresentation(alphabet, [
        random_reduced_word(rng, alphabet, rng.randint(1, 8))
        for _ in range(rng.randint(0, 2))])
    for n in range(2, 6):
        goal = random_kernel_goal(rng, alphabet)
        small = math.factorial(n) ** len(alphabet.names) <= 600
        max_nodes = rng.choice(((None,) if small else ())
                               + (rng.randint(1, 40), rng.randint(1, 400)))
        args = (p, n, max_nodes, goal, rng.random() < 0.5, rng.random() < 0.5)
        assert (kernel_trace(_enumerate_homs, *args)
                == kernel_trace(oracle_pruned_enumerate_homs, *args))


def test_degree_60_order_spec_search_is_lazy():
    """A degree-60 search for a of order 2 and b of order 3 in <a, b>
    under 40 nodes returns at once, with the replaced kernel's trace, and
    builds no more candidates than that kernel drew, which its per-call
    inverse memo held (each counted by its perm_inv calls).  It starts
    with no source kept, so every candidate it reads is built here."""
    p = FinitePresentation(W.Alphabet(("a", "b")))
    a, b = map(p.alphabet.gen, "ab")
    spec = OrderSpec(targets=(a, b), kappa=1, exponents=(2, 3))
    with mock.patch.dict(quotients._SOURCES, clear=True), \
            mock.patch.object(quotients, "perm_inv", wraps=quotients.perm_inv) as built:
        start = time.monotonic()
        new = kernel_trace(_enumerate_homs, p, 60, 40, spec, True, False)
        assert time.monotonic() - start < 1.0
    with mock.patch.object(quotients, "perm_inv", wraps=quotients.perm_inv) as drawn:
        old = kernel_trace(oracle_pruned_enumerate_homs, p, 60, 40, spec, True, False)
    assert new == old and new[-1] == ("budget stop", 41)
    drawn_perms = [c.args[0] for c in drawn.call_args_list]
    assert built.call_count <= len(drawn_perms) == len(set(drawn_perms))


# ---------------------------------------------------------------------------
# H_1 pruning against the loop as it was (oracle_search), which starts every
# search at degree 2 and draws candidates from all of S_n.


def random_h1_presentation(rng, kinds=("perfect", "odd", "any")):
    """1-2 generators and relators of length 1-12 of a kind drawn from
    kinds: H_1 = 0, |H_1| odd and above 1, or any (0-3 relators).  The
    first two have as many relators as generators or one more, redrawn
    until the oracle's |H_1| is of the kind; half of the perfect ones are
    built to map onto A_5 (`a5_relators`)."""
    kind = rng.choice(kinds)
    onto_a5 = kind == "perfect" and rng.random() < 0.5
    while True:
        alphabet = W.Alphabet(("a", "b")[:2 if onto_a5 else rng.randint(1, 2)])
        count = (rng.randint(0, 3) if kind == "any"
                 else len(alphabet.names) + rng.randint(0, 1))
        p = FinitePresentation(alphabet, a5_relators(rng, alphabet, count) if onto_a5 else [
            random_reduced_word(rng, alphabet, rng.randint(1, 12))
            for _ in range(count)])
        order = oracle_h1_order(p)
        if kind == "any" or (order == 1) == (kind == "perfect") and order % 2:
            return p


def a5_relators(rng, alphabet, count):
    """count words that map to the identity under a seeded assignment of
    even permutations of degree 5, not all the identity.  A perfect group
    so presented maps onto a perfect subgroup of A_5 other than 1, which
    is A_5 itself, so it has a nontrivial image at degree 5."""
    even = [p for p in itertools.permutations(range(5))
            if sum(x > y for i, x in enumerate(p) for y in p[i + 1:]) % 2 == 0]
    images = {g: rng.choice(even[1:]) for g in alphabet.names}
    q = PermutationAssignment(5, images)
    relators = []
    while len(relators) < count:
        w = random_reduced_word(rng, alphabet, rng.randint(1, 12))
        if oracle_evaluate(q, w) == identity_perm(5):
            relators.append(w)
    return relators


@given(seeds)
@derandomized
def test_search_matches_oracle_search(seed):
    """Unbudgeted to degree 5, a search finds the loop's witness, or none
    where it finds none, for no goal and for a word.  It skips degrees 2-4
    exactly when H_1 = 0 and degree 2 alone when |H_1| is odd and above 1,
    draws even permutations exactly when |H_1| is odd, and spends at most
    the loop's nodes at each degree it enters."""
    rng = random.Random(seed)
    p = random_h1_presentation(rng)
    order = oracle_h1_order(p)
    budget = SearchBudget(max_degree=5)
    for goal in (None, random_word(rng, p.alphabet, 6)):
        new, old = search(p, budget, goal), oracle_search(p, budget, goal)
        assert (new.status, hom_key(new.witness)) == (old.status, hom_key(old.witness))
        assert new.max_degree_searched == old.max_degree_searched
        assert new.excluded == ((2, 3, 4) if order == 1 else (2,) if order % 2 else ())
        assert new.perfect == (order == 1)
        assert new.even_only == (order % 2 == 1)
        old_nodes = {n: nodes for n, nodes, _ in old.degrees}
        assert all(nodes <= old_nodes[n] for n, nodes, _ in new.degrees)


@given(seeds)
@derandomized
def test_perfect_presentation_has_no_image_below_degree_5(seed):
    """Where H_1 = 0 the loop finds no nontrivial homomorphism and no
    surviving word at degrees 2-4, and a search enters none of them."""
    rng = random.Random(seed)
    p = random_h1_presentation(rng, ("perfect",))
    assert_no_image_below_degree_5(p, random_word(rng, p.alphabet, 6))


@pytest.mark.parametrize("k, j", [(2, 1), (5, 2)])
def test_encoder_output_has_no_image_below_degree_5(k, j):
    """The encoder's output for <a | a^k> and a^j is perfect."""
    p = FinitePresentation(W.Alphabet(("a",)))
    p = FinitePresentation(p.alphabet, [p.word(f"a^{k}")])
    p_w = encode_discrete(p, p.word(f"a^{j}"))
    assert_no_image_below_degree_5(p_w, p_w.alphabet.gen(p_w.generators[0]))


def assert_no_image_below_degree_5(p, w):
    budget = SearchBudget(max_degree=4)
    for goal in (None, w):
        old = oracle_search(p, budget, goal)
        assert old.status == "exhausted"
        assert [n for n, _, hit in old.degrees if not hit] == [2, 3, 4]
        new = search(p, budget, goal)
        assert (new.status, new.degrees, new.nodes) == ("exhausted", [], 0)
        assert new.excluded == (2, 3, 4) and not new.even_only


@given(seeds)
@derandomized
def test_even_candidates_match_oracle_kernel(seed):
    """Where |H_1| is odd, the kernel drawing only even permutations
    yields exactly the oracle kernel's homomorphisms over all of S_n that
    meet the goal, in the same order."""
    rng = random.Random(seed)
    p = random_h1_presentation(rng, ("perfect", "odd"))
    goal = rng.choice((None, random_word(rng, p.alphabet, 6)))
    reduce_first = rng.random() < 0.5
    for n in range(1, 5):
        new = [hom_key(q) for q in _enumerate_homs(
            p, n, None, goal, reduce_first=reduce_first, even_only=True)]
        old = [hom_key(q) for q in oracle_enumerate_homs(p, n, reduce_first=reduce_first)
               if goal_holds(q, goal)]
        assert new == old


def test_even_candidates_drop_odd_images():
    """<a | a^2> has |H_1| = 2: its transpositions are homomorphisms the
    even candidates leave out."""
    p = FinitePresentation(W.Alphabet(("a",)))
    p = FinitePresentation(p.alphabet, [p.word("a^2")])
    assert [q.images["a"] for q in _enumerate_homs(p, 3, even_only=True)] == [(0, 1, 2)]
    assert len(list(_enumerate_homs(p, 3))) == 4
