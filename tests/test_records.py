"""forge's records against the @dataclass declarations they replaced, kept
in helpers.py as oracles.

For each record a seeded generator draws constructor arguments, valid or
not, optional ones passed or left out.  The record and its oracle, built
from the same arguments, must refuse the same inputs with the same error,
or agree on repr, on == and != with a second pair drawn from the same seed
or another, and on hash (or its refusal).  A record its oracle froze must
refuse assignment to each field; one it left mutable must take it.
"""

import inspect
import random
from collections import namedtuple

import pytest
from hypothesis import given

from forge import cli, encoder, presentations, quotients, squarecx, stallings
from forge import words as W
from forge.presentations import FinitePresentation
from helpers import Dataclass, derandomized, seeds

ALPHABET = W.Alphabet(["a", "b", "c"])


def word(rng, alphabet=ALPHABET):
    letters = [(rng.choice(alphabet.names), rng.choice((1, -1)))
               for _ in range(rng.randint(0, 4))]
    return W.reduce(alphabet, letters)


def optional(rng, **fields):
    """Each field as a keyword argument, or left to its default."""
    return {name: value for name, value in fields.items() if rng.random() < 0.5}


def draw_word(rng):
    names = ("a", "b", "c", "d") if rng.random() < 0.2 else ("a", "b", "c")
    signs = (1, -1, 2) if rng.random() < 0.1 else (1, -1)
    letters = tuple((rng.choice(names), rng.choice(signs)) for _ in range(rng.randint(0, 4)))
    if rng.random() < 0.5 and all(s in (1, -1) for _, s in letters):
        letters = W.reduce(W.Alphabet(names), letters).letters
    return (ALPHABET, letters), {}


def draw_abelian_invariants(rng):
    torsion = tuple(rng.choice((0, 1, 2, 3, 4, 6, 12)) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.5:
        torsion = tuple(sorted(torsion))
    return (rng.randint(0, 3),), {"torsion": torsion}


def draw_permutation_assignment(rng):
    degree = rng.randint(1, 3)
    images = {g: tuple(rng.sample(range(degree), degree))
              for g in rng.sample(ALPHABET.names, rng.randint(0, 3))}
    return (degree, images), {}


def draw_order_spec(rng):
    targets = [word(rng) for _ in range(rng.choice((1, 2, 2, 3)))]
    count = len(targets) if rng.random() < 0.8 else rng.randint(1, 3)
    exponents = [rng.choice((1, 2, "2")) if rng.random() < 0.9 else rng.choice((0, "x"))
                 for _ in range(count)]
    return (targets,), {"kappa": rng.choice((0, 1, 1, 2)), "exponents": exponents}


def draw_search_budget(rng):
    return (rng.randint(0, 4),), optional(rng, max_nodes=rng.choice((0, 5, 10 ** 7)),
                                          time_limit=rng.choice((None, 0, -1.0, 1.5)))


def draw_search_outcome(rng):
    return (rng.choice(("witness", "exhausted")),
            rng.choice((None, quotients.PermutationAssignment(
                *draw_permutation_assignment(rng)[0]))),
            rng.randint(0, 99), rng.randint(1, 5)), optional(
        rng, degrees=[(n, rng.randint(0, 9), rng.random() < 0.5) for n in range(2, 4)],
        excluded=rng.choice(((), (2,), (2, 3, 4))), even_only=rng.random() < 0.5,
        perfect=rng.random() < 0.5)


def draw_simplified_presentation(rng):
    return (FinitePresentation(ALPHABET, [word(rng)]),
            [(rng.choice(ALPHABET.names), word(rng))]), {}


def component_fields(rng):
    return {"index": rng.randint(0, 3),
            "vertices": tuple((rng.randint(0, 2), rng.randint(0, 2))
                              for _ in range(rng.randint(1, 3))),
            "edge_count": rng.randint(0, 4), "rank": rng.randint(0, 2),
            "is_tree": rng.random() < 0.5, "is_diagonal": rng.random() < 0.5}


def draw_fibre_product_component(rng):
    return (), component_fields(rng)


def draw_fibre_product_decomposition(rng):
    total = stallings.LabeledGraph([0, 1], {"e": (0, rng.randint(0, 1), "a")})
    components = tuple(stallings.FibreProductComponent(**component_fields(rng))
                       for _ in range(rng.randint(0, 2)))
    return (total, components), {}


def draw_malnormality_witness(rng):
    return ((rng.randint(0, 2), rng.randint(0, 2)),
            stallings.FibreProductComponent(**component_fields(rng))), {}


def draw_kernel_rewriting(rng):
    return (rng.randint(-1, 8), rng.choice("ab")), {"beta": rng.choice("abt")}


def certificate_fields(rng):
    return {"m": rng.randint(1, 4), "modulus": rng.randint(7, 12),
            "tuple_uv": tuple(word(rng, encoder.UV) for _ in range(rng.randint(0, 3))),
            "rank": rng.randint(2, 6), "family_malnormal": rng.random() < 0.5,
            "base_rank": rng.randint(2, 4), "translates_malnormal": rng.random() < 0.5}


def draw_malnormal_certificate(rng):
    return (), certificate_fields(rng)


def draw_encoding_trace(rng):
    p = FinitePresentation(ALPHABET, [word(rng)])
    stages = optional(
        rng, p_dagger=p, w_dagger=word(rng), p_prime=p, w_prime=word(rng), p1=p,
        b_letters=("b_0", "b_1"), p2=p, t_letter="b_2", u=word(rng), v=word(rng),
        c_words_tw=(word(rng, encoder.TW),), c_words=(word(rng),),
        certificate=encoder.MalnormalCertificate(**certificate_fields(rng)), p_w=p,
        abelianizations={"input": presentations.AbelianInvariants(rng.randint(0, 2), ())})
    return (p, word(rng), rng.randint(7, 9), rng.random() < 0.5), stages


def draw_link_graph(rng):
    nodes = tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 3)))
    return (rng.choice(("v", 0, ("x", 1))), nodes), optional(
        rng, arcs=[(nodes[:1], nodes[-1:], (0, rng.randint(0, 3)))])


def draw_built_complex(rng):
    if rng.random() < 0.5:
        return (squarecx.one_square_torus(),), {}
    return (squarecx.SquareComplex([], {}),), {}


def draw_run_report(rng):
    return (rng.choice(("abel", "sqc check")), {"presentation": "00ff"},
            rng.choice(sorted(cli.EXIT_CODES) + ["maybe"])), optional(
        rng, timing=rng.choice((0.0, 1.25)), artifacts=["out.txt"],
        details=[("betti", str(rng.randint(0, 2)))])


# Each record, the module it lives in, and its argument generator.
RECORDS = {
    "Word": (W, draw_word),
    "AbelianInvariants": (presentations, draw_abelian_invariants),
    "PermutationAssignment": (quotients, draw_permutation_assignment),
    "OrderSpec": (quotients, draw_order_spec),
    "SearchBudget": (quotients, draw_search_budget),
    "SearchOutcome": (quotients, draw_search_outcome),
    "SimplifiedPresentation": (quotients, draw_simplified_presentation),
    "FibreProductComponent": (stallings, draw_fibre_product_component),
    "FibreProductDecomposition": (stallings, draw_fibre_product_decomposition),
    "MalnormalityWitness": (stallings, draw_malnormality_witness),
    "KernelRewriting": (stallings, draw_kernel_rewriting),
    "MalnormalCertificate": (encoder, draw_malnormal_certificate),
    "EncodingTrace": (encoder, draw_encoding_trace),
    "LinkGraph": (squarecx, draw_link_graph),
    "BuiltComplex": (squarecx, draw_built_complex),
    "RunReport": (cli, draw_run_report),
}


Refusal = namedtuple("Refusal", "kind message")


def attempt(call):
    """call()'s result, or the type and message of the error it raised."""
    try:
        return call()
    except Exception as exc:
        return Refusal(type(exc), str(exc))


def build_pair(name, seed):
    """The record and its oracle, from one draw of arguments, each built or
    the error it was refused with."""
    module, draw = RECORDS[name]
    args, kwargs = draw(random.Random(seed))
    return (attempt(lambda: getattr(module, name)(*args, **kwargs)),
            attempt(lambda: getattr(Dataclass, name)(*args, **kwargs)))


def test_every_record_has_an_oracle():
    assert sorted(RECORDS) == sorted(n for n, v in vars(Dataclass).items()
                                     if isinstance(v, type))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_signature_kept(name):
    """The same parameters in the same order, the same ones required."""
    def shape(cls):
        return [(p.name, p.kind, p.default is p.empty)
                for p in inspect.signature(cls).parameters.values()]
    assert shape(getattr(RECORDS[name][0], name)) == shape(getattr(Dataclass, name))


@pytest.mark.parametrize("name", sorted(RECORDS))
@given(seed=seeds)
@derandomized
def test_record_matches_its_dataclass(name, seed):
    rng = random.Random(seed)
    first = rng.randrange(2 ** 32)
    second = first if rng.random() < 0.5 else rng.randrange(2 ** 32)
    new, old = build_pair(name, first)
    if Refusal in (type(new), type(old)):
        assert new == old   # both refused, with one error type and message
        return
    assert repr(new) == repr(old)
    new2, old2 = build_pair(name, second)
    if type(old2) is not Refusal:
        assert (new == new2, new != new2) == (old == old2, old != old2)
    assert attempt(lambda: hash(new)) == attempt(lambda: hash(old))
    oracle = getattr(Dataclass, name)
    fields = list(oracle.__dataclass_fields__)
    if oracle.__dataclass_params__.frozen:
        for field in fields:
            for record in (new, old):
                with pytest.raises(AttributeError):
                    setattr(record, field, None)
        assert repr(new) == repr(old)
    else:
        for field in fields:
            setattr(new, field, "set")
            setattr(old, field, "set")
        assert repr(new) == repr(old)
