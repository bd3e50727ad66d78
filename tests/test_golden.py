"""Golden digests: the encoder's traces and the S(P) constructions must stay
byte-identical to those of earlier versions, not only deterministic within
one version.

The digests are sha256 over the outputs of fixed inputs: for the encoder,
`trace_to_json(encode(...))`, `encode_discrete` and `discrete_trace`; for a
dozen seeded S(P) complexes over the torus, the written complex, its pi1
presentation, the relators that kill each copy, and cellular H_1.  A
complex numbers its cells in the order the builder writes them, and the
written file, the pi1 tree and the copy forests follow those positions, so
a change of that order moves these digests (but not H_1).  A refactor that
changes any byte fails here; a deliberate change of output must update the
digests and say why.
"""

import hashlib
import random

import pytest

from forge import fileformats as FF
from forge import words as W
from forge.encoder import discrete_trace, encode, encode_discrete
from forge.presentations import FinitePresentation
from forge.squarecx import (_copy_killing_relators, _pi1_with_letters,
                            build_S_of_P, cellular_h1, one_square_torus)

from helpers import random_reduced_word


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (generators, comma-separated relators, word) -> digests of encode, encode_discrete and
# discrete_trace.  The last input is the identity word (short-circuited).
ENCODE_GOLDEN = {
    ("a", "a^2", "a"): (
        "3426baa7a12b87fe72d4f592d32ad40caa18edd35b13c6d39072bb2097c800da",
        "6a4d3d1db5f0154f7ae82e8892e2d61f4d6362809b08941ae496128c0738442d",
        "aaffe773b25535cba8add3211d8ab7b34340cde1fc746e7fd258e660ae09e881"),
    ("a", "", "a"): (
        "8b82eab348cf0b10b0e116a0b7a4ca4d1d84cd22dd9915480b4d642790416071",
        "911d5369e62e657a66a806069ab894c1226b4e2e60dd7f65fe3ce95e4b1fc117",
        "5fd9d9001207c8c050538770514f673947fb2ac90aec68853217491008045adf"),
    ("a b", "a b a^-1 b^-1", "a b"): (
        "e4aecd760cd943deaf5fcd31b4c8db0b4c2e7c3d7ee8a95e2e206646777163b6",
        "56ffcc453f3ea2138d26f33e400089de44e12d0f45bf851c9b9b1e78b0fe7de3",
        "01eb470a422f9a8be861bd3e65650e4c302340fba4104feaaf34fc9059a8dc27"),
    ("a b", "a^3,b^2,a b a b", "a"): (
        "f73472a77962e5cbe924262a6f5beb34a92f5c18d907c310545e350ea8730a9c",
        "89e999a4dfa29e0f0352be0a38146c02e9265036182b2211d297485ffecd3d46",
        "ae11799d94719a970dc63198ddd2992b358273bf51b12b60c52a125e0bdbfea7"),
    ("a", "a^5", ""): (
        "914e42a2cf5063055fcc39f2b8ad4c2329d6a52dd63147592835747c1504ec25",
        "1d4a922ef3e862e7d7ad8148894388473ca369e1c500db392fbc5bc697233349",
        "df94b188ceccc6987e3864d408008d22d3abd40584fa1c55c9bfe745e5e9c590"),
}


def encoder_digests(gens, rels, word):
    p = FinitePresentation(gens.split())
    p = FinitePresentation(p.alphabet, [p.word(r) for r in rels.split(",") if r])
    w = p.word(word)
    return (sha(FF.trace_to_json(encode(p, w))),
            sha(FF.format_presentation(encode_discrete(p, w))),
            sha(FF.trace_to_json(discrete_trace(p, w))))


@pytest.mark.parametrize("case", sorted(ENCODE_GOLDEN))
def test_encoder_outputs_match_golden(case):
    assert encoder_digests(*case) == ENCODE_GOLDEN[case]


def seeded_S_of_P(seed):
    """1-3 generators, 1-3 cyclically reduced relators of length 4-8, and
    gamma a power (2-4) of one torus loop."""
    rng = random.Random(seed)
    alphabet = W.Alphabet(["a", "b", "c"][:rng.randint(1, 3)])
    relators, count = [], rng.randint(1, 3)
    while len(relators) < count:
        r = random_reduced_word(rng, alphabet, rng.randint(4, 8))
        (g, s), (h, t) = r.letters[0], r.letters[-1]
        if g != h or s != -t:
            relators.append(r)
    p = FinitePresentation(alphabet, relators)
    loop = rng.choice(["a", "b"])
    return build_S_of_P(p, one_square_torus(), [(loop, 1)] * rng.randint(2, 4))


def complex_texts(built):
    cx = built.complex
    presentation, letter = _pi1_with_letters(cx)
    killing = _copy_killing_relators(built, presentation, letter)
    return {"complex": FF.format_complex(cx),
            "pi1": FF.format_presentation(presentation),
            "killing": "".join(W.format_word(r) + "\n" for r in killing),
            "h1": repr(cellular_h1(cx))}


SEEDS = range(12)

# item -> digest over the twelve seeded complexes in seed order.
COMPLEX_GOLDEN = {
    "complex": "126c734ac80e1fbcd7455ce6faabdba90016bce7190c34e32bc081abf43cd2f6",
    "pi1": "daf36e0936c4240397d2ff4a94d760c29058fc9bba675d26bf325000dbe627b9",
    "killing": "c7a6c3600028fabe9b2bacd95eb47382e424e56ab6459f6269681952a6f76bd5",
    "h1": "2a94ea5c0cbc78e3119a844b98bba6bc66cf1990d1f97dadd495eaa73d28b7ea",
}


@pytest.fixture(scope="module")
def complex_outputs():
    texts = [complex_texts(seeded_S_of_P(seed)) for seed in SEEDS]
    return {item: [t[item] for t in texts] for item in COMPLEX_GOLDEN}


@pytest.mark.parametrize("item", sorted(COMPLEX_GOLDEN))
def test_S_of_P_outputs_match_golden(complex_outputs, item):
    assert sha("\f".join(complex_outputs[item])) == COMPLEX_GOLDEN[item]
