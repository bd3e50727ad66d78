"""Differential tests: the compiled search kernel (integer-coded relators,
point tracing, lazy permutations, class-minimal permutations in closed
form), the witness-only restore, the order-spec check, free reduction and
the simplifier against the original code, kept in helpers.py as an
oracle; `forge quotients` against its own former degree loop.

Presentations come from seeded generators; hypothesis picks the seeds
(derandomized, so every run sees the same ones) and prints the failing
seed.  The homomorphisms yielded, in order, the node count where a budget
stops the search, every search outcome and the `forge quotients` report
must agree exactly.
"""

import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given

from forge import words as W
from forge.cli import main
from forge.errors import ForgeError
from forge.fileformats import format_presentation
from forge.presentations import FinitePresentation, substitute
from forge.quotients import (OrderSpec, PermutationAssignment, SearchBudget,
                             _Budget, _BudgetStop, _class_minimal_perms,
                             _enumerate_homs, _find_move,
                             has_nontrivial_quotient_upto,
                             search_order_targeted, simplify_presentation,
                             verify_order_spec, word_survives_upto)
from helpers import (derandomized, oracle_class_minimal_perms,
                     oracle_enumerate_homs, oracle_evaluate, oracle_find_move,
                     oracle_has_nontrivial_quotient_upto,
                     oracle_quotients_command, oracle_reduce,
                     oracle_search_order_targeted, oracle_simplify_presentation,
                     oracle_substitute, oracle_verify_order_spec,
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


def outcome_key(search, *args):
    try:
        out = search(*args)
    except ForgeError as exc:
        return type(exc).__name__, str(exc)
    return out.status, hom_key(out.witness), out.nodes, out.max_degree_searched


def random_order_spec(rng, alphabet):
    count = rng.randint(2, 3)
    return OrderSpec(targets=[random_word(rng, alphabet, 4) for _ in range(count)],
                     kappa=rng.randint(1, 2),
                     exponents=[rng.randint(1, 2) for _ in range(count)])


@given(seeds)
@derandomized
def test_searches_match_seed(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    budget = SearchBudget(max_degree=rng.randint(1, 4),
                          max_nodes=rng.choice((rng.randint(1, 60), 400)))
    w = random_word(rng, p.alphabet, 6)
    spec = random_order_spec(rng, p.alphabet)
    new = [outcome_key(word_survives_upto, p, w, budget),
           outcome_key(has_nontrivial_quotient_upto, p, budget),
           outcome_key(search_order_targeted, p, spec, budget)]
    with seed_search_kernel():
        old = [outcome_key(oracle_word_survives_upto, p, w, budget),
               outcome_key(oracle_has_nontrivial_quotient_upto, p, budget),
               outcome_key(oracle_search_order_targeted, p, spec, budget)]
    assert new == old


def cli_report(argv):
    """Exit code and stdout of `forge`, without the timing line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = [line for line in out.getvalue().splitlines()
             if not line.startswith("timing:")]
    return code, lines


@given(seeds)
@derandomized
def test_cli_quotients_report_matches_seed(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    word = W.format_word(random_word(rng, p.alphabet, 6))
    orders = "1:" + ",".join(str(rng.randint(1, 3)) for _ in p.generators)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(p))
        search = ["quotients", path, "--max-degree", str(rng.randint(1, 4)),
                  "--max-nodes", str(rng.choice((rng.randint(1, 60), 400)))]
        for argv in (search, search + ["--word", word], search + ["--orders", orders]):
            new = cli_report(argv)
            with seed_search_kernel():
                assert cli_report(argv) == new


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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(p))
        for budget in budgets:
            search = ["quotients", path, *budget]
            for argv in (search, search + ["--word", word],
                         search + ["--orders", orders]):
                new = cli_report(argv)
                with oracle_quotients_command():
                    assert cli_report(argv) == new


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
    rng = random.Random(seed)
    source = W.Alphabet(("a", "b", "c"))
    target = W.Alphabet(("x", "y"))
    table = {g: random_word(rng, target, 5) for g in source.names}
    w = random_word(rng, source, 15)
    assert substitute(w, target, table) == oracle_substitute(w, target, table)


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
    assert _find_move(p.alphabet, relators) == oracle_find_move(p.alphabet, relators)


def random_long_presentation(rng):
    """2-4 generators, 1-4 relators of length 1-40: simplification runs
    several moves, and the substituted words cancel at their seams."""
    alphabet = W.Alphabet(("a", "b", "c", "d")[:rng.randint(2, 4)])
    return FinitePresentation(alphabet, [
        random_reduced_word(rng, alphabet, rng.randint(1, 40))
        for _ in range(rng.randint(1, 4))])


@given(seeds)
@derandomized
def test_simplify_presentation_matches_seed(seed):
    rng = random.Random(seed)
    p = random_long_presentation(rng) if rng.random() < 0.7 else random_presentation(rng)
    new, old = simplify_presentation(p), oracle_simplify_presentation(p)
    assert new.presentation.alphabet == old.presentation.alphabet
    assert new.presentation.relators == old.presentation.relators
    assert list(new.expressions.items()) == list(old.expressions.items())


@pytest.mark.parametrize("n", range(1, 8))
def test_class_minimal_perms_match_brute_force(n):
    assert _class_minimal_perms(n) == oracle_class_minimal_perms(n)
