"""The benchmark's three workloads: seeded input generation and the request
runners that call forge.

Inputs are plain data (letter tuples, presentation files) made from the
workload seed with this module's own generators; forge sees only those
inputs.  A workload's timed list is a fixed number of rounds.  Every round
has the same fixed mix of request shapes; the seed picks each shape's
concrete input, so two seeds give the same size mix and different words.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

from check import free_reduce, inverse, word_text

AB = ("a", "b")


# ---------------------------------------------------------------------------
# Seeded input generators.


def random_word(rng, names, length):
    letters = []
    while len(letters) < length:
        letter = (rng.choice(names), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return tuple(letters)


def cyclic_word(rng, names, length):
    """A cyclically reduced word that is not a proper power."""
    while True:
        w = random_word(rng, names, length)
        if w[0] == (w[-1][0], -w[-1][1]):
            continue
        if any(length % d == 0 and w == w[:d] * (length // d)
               for d in range(1, length)):
            continue
        return w


def generator_product(rng, gens):
    """A random product of 2-4 subgroup generators and their inverses."""
    letters = []
    for _ in range(rng.randint(2, 4)):
        g = rng.choice(gens)
        letters.extend(g if rng.random() < 0.5 else inverse(g))
    return free_reduce(letters)


def presentation_text(names, relators):
    return "gens: " + " ".join(names) + "\n" + "".join(
        f"rel: {word_text(r)}\n" for r in relators)


# ---------------------------------------------------------------------------
# encode: the full pipeline plus subgroup-family requests.

# Each round's requests, cheapest first.  The median falls inside the
# MEDIAN_FAMILY block (as many requests below it as above it), and the tail
# (the 11th slowest of the two rounds) inside the large rotation block, so both
# statistics are medians of one homogeneous block, not a jump between blocks.
# Family shapes: (generators per subgroup, shortest and longest generator,
# subgroups in the family).
SMALL_FAMILY, SMALL_FAMILY_COUNT = (2, 8, 8, 2), 6
SMALL_ROTATIONS = (10, 30)         # N range, 4 per round
MEDIAN_FAMILY, MEDIAN_FAMILY_COUNT = (2, 12, 12, 2), 16
LARGE_FAMILY, LARGE_FAMILY_COUNT = (2, 16, 20, 1), 3
LARGE_ROTATIONS = (56, 57, 58, 59, 60)   # each twice per round


def family_request(rng, shape):
    ng, lo, hi, size = shape
    subgroups = [[random_word(rng, AB, rng.randint(lo, hi)) for _ in range(ng)]
                 for _ in range(size)]
    return {"kind": "family", "check": "family",
            "size": f"family{size}x{ng}x{hi}",
            "subgroups": subgroups,
            "products": [(i, generator_product(rng, gens))
                         for i, gens in enumerate(subgroups) for _ in range(3)],
            "expect_malnormal": None}


def proper_power_request(rng):
    """<x^e> is normalised by x, which it does not contain: never malnormal."""
    x = cyclic_word(rng, AB, rng.randint(3, 8))
    gens = [x * rng.randint(2, 3)]
    return {"kind": "family", "check": "family", "size": "power",
            "subgroups": [gens], "products": [(0, generator_product(rng, gens))],
            "expect_malnormal": False}


def conjugate_pair_request(rng):
    """<x> and <g^-1 x g> meet in a conjugate of an infinite group: refuted."""
    x = cyclic_word(rng, AB, rng.randint(3, 10))
    g = random_word(rng, AB, rng.randint(1, 5))
    y = free_reduce(inverse(g) + x + g)
    return {"kind": "family", "check": "family", "size": "conjugates",
            "subgroups": [[x], [y]],
            "products": [(0, generator_product(rng, [x])),
                         (1, generator_product(rng, [y]))],
            "expect_malnormal": False}


def rotation_request(rng, lo, hi, size="rotation"):
    """The pipeline's kernel family <e_s, e_{s-1} e_{s-2}^-1, e_{s-1} e_{s+1}^-1>
    over the rose on e_0..e_{N-1}, shifted by s, with all N rotation
    translates; certified malnormal for every N > 6."""
    n = rng.randint(lo, hi)
    s = rng.randrange(n)
    e = [f"e{(s + i) % n}" for i in range(n)]
    gens = [((e[0], 1),), ((e[n - 1], 1), (e[n - 2], -1)),
            ((e[n - 1], 1), (e[1], -1))]
    return {"kind": "rotation", "check": "family", "size": size, "N": n, "subgroups": [gens],
            "products": [(0, generator_product(rng, gens)) for _ in range(3)],
            "expect_malnormal": True}


def pipeline_request(rng, n):
    k = rng.randint(2, 9)
    return {"kind": "pipeline", "check": "pipeline", "size": "pipeline",
            "presentation": presentation_text(("a",), [(("a", 1),) * k]),
            "word": f"a^{rng.randint(1, 9)}", "N": n,
            "m": 6}  # select_malnormal_words runs at m = 6 for one generator


def encode_rounds(rng, workdir, count):
    """Pipeline N is drawn from 7..12 as n in even rounds and 19 - n in odd
    ones, so two rounds' pipeline work is the same whichever n the seed
    draws."""
    n = rng.randint(7, 12)
    return [encode_round(rng, n if r % 2 == 0 else 19 - n) for r in range(count)]


def encode_round(rng, n):
    reqs = [proper_power_request(rng) for _ in range(2)]
    reqs += [conjugate_pair_request(rng) for _ in range(2)]
    reqs += [family_request(rng, SMALL_FAMILY) for _ in range(SMALL_FAMILY_COUNT)]
    reqs += [rotation_request(rng, *SMALL_ROTATIONS, "rotation-small")
             for _ in range(4)]
    reqs += [family_request(rng, MEDIAN_FAMILY) for _ in range(MEDIAN_FAMILY_COUNT)]
    reqs += [family_request(rng, LARGE_FAMILY) for _ in range(LARGE_FAMILY_COUNT)]
    reqs += [rotation_request(rng, n, n, "rotation-large")
             for n in LARGE_ROTATIONS * 2]
    reqs.append(pipeline_request(rng, n))
    rng.shuffle(reqs)
    return reqs


def encode_warmup(rng, workdir):
    return [family_request(rng, (1, 6, 6, 1)), rotation_request(rng, 7, 8),
            {"kind": "pipeline_small"}]


def run_pipeline(F, req):
    p = F.fileformats.parse_presentation(req["presentation"])
    w = F.words.parse_word(p.alphabet, req["word"])
    trace = F.encoder.encode(p, w, N=req["N"])
    revalidated = F.encoder.revalidate_certificate(trace.certificate)
    text = F.fileformats.trace_to_json(trace)
    return {"revalidated": revalidated, "json": text,
            "p_w": (trace.p_w.generators,
                    [r.letters for r in trace.p_w.relators])}


def run_pipeline_small(F, req):
    """The pipeline's pieces at their smallest size, never a full encode."""
    p = F.fileformats.parse_presentation("gens: a\nrel: a^2\n")
    trace = F.encoder.encode(p, p.word("1"))
    F.fileformats.trace_to_json(trace)
    _, cert = F.encoder.select_malnormal_words(0, 7)
    F.encoder.revalidate_certificate(cert)
    return {}


def _members(F, graphs, alphabet, products):
    return [F.stallings.membership(graphs[i], F.words.Word(alphabet, w))
            for i, w in products]


def run_family(F, req):
    alphabet = F.words.Alphabet(AB)
    base = F.stallings.rose(AB)
    graphs = [F.stallings.graph_of_subgroup(
        base, [F.words.Word(alphabet, g) for g in gens])
        for gens in req["subgroups"]]
    members = _members(F, graphs, alphabet, req["products"])
    ok, _ = F.stallings.malnormal_family_check(graphs)
    return {"members": members, "malnormal": ok}


def run_rotation(F, req):
    n = req["N"]
    names = [f"e{i}" for i in range(n)]
    alphabet = F.words.Alphabet(names)
    base = F.stallings.rose(names)
    sub = F.stallings.graph_of_subgroup(
        base, [F.words.Word(alphabet, g) for g in req["subgroups"][0]])
    action = F.stallings.RelabelingAction.cyclic(
        base, {f"e{i}": f"e{(i + 1) % n}" for i in range(n)})
    ok, _ = F.stallings.translate_family_check(base, action, sub, action.elements)
    members = _members(F, [sub], alphabet, req["products"])
    return {"members": members, "malnormal": ok}


# ---------------------------------------------------------------------------
# probe: quotient searches on pipeline output, and short CLI queries.

HEAVY = {"max_degree": 4, "max_nodes": 40}
# Every one-generator input <x | x^k>, x^j with 3 <= k <= 7 runs once per
# round, so the slowest searches (the tail: the 11th slowest of six rounds
# falls among the six <x | x^7>, x^5 searches) are the same groups in every
# run; fresh generator names keep any two requests' inputs distinct.
HEAVY_ONE = tuple((k, j) for k in range(3, 8) for j in range(1, k))
HEAVY_TWO_COUNT = 4
CLI_DEGREE, CLI_NODES = "4", "2000"
CLI_PRESENTATIONS = 30    # each asked quotients --word, --orders, abel, freepow


def fresh_names(rng, count):
    """Seeded generator names g<n>, h<n>: they sort like a, b, so renaming
    leaves forge's work unchanged while no two requests repeat an input."""
    n = rng.randrange(1, 10 ** 6)
    return (f"g{n}", f"h{n}")[:count]


def search_request(rng, kj=None):
    """One-generator input (k, j), or a seeded two-generator input
    <g, h | r> with |r| = 4 and a word of length 4."""
    if kj is not None:
        k, j = kj
        names = fresh_names(rng, 1)
        x = names[0]
        relators, word = [((x, 1),) * k], ((x, 1),) * j
    else:
        names = fresh_names(rng, 2)
        relators = [cyclic_word(rng, names, 4)]
        word = random_word(rng, names, 4)
    return {"kind": "search", "check": "search",
            "size": f"search{len(names)}gen", "names": names,
            "input_relators": relators, "word": word, **HEAVY}


def cli_requests(rng, path_of):
    """The four CLI questions about one seeded presentation file."""
    names = ("a", "b", "c")[:rng.randint(2, 3)]
    relators = [random_word(rng, names, rng.randint(4, 10))
                for _ in range(rng.randint(1, 3))]
    return cli_questions(path_of, names, relators,
                         word=random_word(rng, names, rng.randint(1, 6)),
                         orders=(1, tuple(rng.randint(1, 3) for _ in names)),
                         n=rng.randint(2, 4))


def cli_questions(path_of, names, relators, word, orders, n):
    path = path_of(presentation_text(names, relators))
    search = ["--max-degree", CLI_DEGREE, "--max-nodes", CLI_NODES]
    common = {"kind": "cli", "check": "cli", "names": names, "relators": relators}
    return [
        dict(common, size="word", word=word,
             argv=["quotients", path, *search, "--word", word_text(word)]),
        dict(common, size="orders", orders=orders,
             argv=["quotients", path, *search, "--orders",
                   "1:" + ",".join(map(str, orders[1]))]),
        dict(common, size="abel", argv=["abel", path]),
        dict(common, size="freepow", n=n, argv=["freepow", path, str(n)]),
    ]


def _file_writer(workdir, tag):
    """Writes each text to the next numbered file.  A file that exists from
    an earlier set-up is rewritten in place, not truncated first: on ext4
    truncating and reallocating costs several times more, and unevenly."""
    os.makedirs(workdir, exist_ok=True)
    counter = iter(range(10 ** 9))

    def path_of(text):
        path = os.path.join(workdir, f"{tag}-{next(counter)}.txt")
        data = text.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
        return path
    return path_of


def probe_rounds(rng, workdir, count):
    path_of = _file_writer(workdir, "timed")
    return [probe_round(rng, path_of) for _ in range(count)]


def probe_round(rng, path_of):
    reqs = [search_request(rng, kj) for kj in HEAVY_ONE]
    reqs += [search_request(rng) for _ in range(HEAVY_TWO_COUNT)]
    for _ in range(CLI_PRESENTATIONS):
        reqs += cli_requests(rng, path_of)
    rng.shuffle(reqs)
    return reqs


def probe_warmup(rng, workdir):
    """One small search and the four CLI questions about <a, b | a^2, b^3>,
    whose searches all end at once, so the warm-up costs the same for every
    seed."""
    a, b = ("a", 1), ("b", 1)
    small = dict(search_request(rng, (2, 1)), max_degree=2, max_nodes=5)
    return [small] + cli_questions(_file_writer(workdir, "warmup"), AB,
                                   [(a, a), (b, b, b)], word=(a, b),
                                   orders=(1, (2, 3)), n=2)


def run_search(F, req):
    W, Q = F.words, F.quotients
    alphabet = W.Alphabet(req["names"])
    p = F.presentations.FinitePresentation(
        alphabet, [W.Word(alphabet, r) for r in req["input_relators"]])
    p_w = F.encoder.encode_discrete(p, W.Word(alphabet, req["word"]))
    outcome = Q.has_nontrivial_quotient_upto(
        p_w, Q.SearchBudget(max_degree=req["max_degree"],
                            max_nodes=req["max_nodes"]))
    witness = outcome.witness
    return {"status": outcome.status, "nodes": outcome.nodes,
            "witness": dict(witness.images) if witness else None,
            "degree": witness.degree if witness else None,
            "relators": [r.letters for r in p_w.relators]}


def run_cli(F, req):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = F.cli.main(list(req["argv"]))
    return {"code": code, "stdout": out.getvalue()}


# ---------------------------------------------------------------------------
# complex: the scaled-copy complex over the one-square torus.

# Each round's (relators, relator length, k, count), cheapest first; gamma
# is a^k.  As many requests come before the median block (1, 5, 3) as after
# it, and the tail (11th slowest of the five rounds) falls inside the last
# two blocks, which cost about the same.
COMPLEX_SHAPES = ((1, 4, 2, 11), (1, 5, 3, 6),
                  (1, 6, 2, 2), (1, 8, 3, 1), (2, 5, 2, 2), (2, 6, 3, 1),
                  (3, 5, 2, 1), (2, 8, 2, 1), (3, 6, 4, 3))


def complex_request(rng, relators, length, k):
    names = fresh_names(rng, 2)
    return {"kind": "complex", "check": "complex",
            "size": f"complex{relators}x{length}k{k}", "names": names, "k": k,
            "relators": [cyclic_word(rng, names, length) for _ in range(relators)]}


def complex_rounds(rng, workdir, count):
    return [complex_round(rng) for _ in range(count)]


def complex_round(rng):
    reqs = [complex_request(rng, *shape)
            for *shape, count in COMPLEX_SHAPES for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


def complex_warmup(rng, workdir):
    return [complex_request(rng, 1, 4, 2)]


def run_complex(F, req):
    W, SQ, FF = F.words, F.squarecx, F.fileformats
    alphabet = W.Alphabet(req["names"])
    p = F.presentations.FinitePresentation(
        alphabet, [W.Word(alphabet, r) for r in req["relators"]])
    built = SQ.build_S_of_P(p, SQ.one_square_torus(), [("a", 1)] * req["k"])
    cx = built.complex
    link_ok, _ = SQ.check_link_condition(cx)
    h1_pi1 = F.presentations.abelianization(SQ.pi1_presentation(cx))
    h1_cellular = SQ.cellular_h1(cx)
    back = FF.parse_complex(FF.format_complex(cx))
    return {"cells": (len(cx.vertices), len(cx.edges), len(cx.squares)),
            "euler": cx.euler_characteristic(), "link_ok": link_ok,
            "h1_pi1": (h1_pi1.betti, h1_pi1.torsion),
            "h1_cellular": (h1_cellular.betti, h1_cellular.torsion),
            "round_trip_cells": (len(back.vertices), len(back.edges),
                                 len(back.squares))}


RUNNERS = {"pipeline": run_pipeline, "pipeline_small": run_pipeline_small,
           "family": run_family, "rotation": run_rotation,
           "search": run_search, "cli": run_cli, "complex": run_complex}


class Workload:
    """A named request mix served as `count` rounds: `make_rounds(rng,
    workdir, count)` builds the rounds and `make_warmup(rng, workdir)` the
    warm-up requests."""

    def __init__(self, name, count, make_rounds, make_warmup):
        self.name = name
        self.count = count
        self.make_rounds = make_rounds
        self.make_warmup = make_warmup

    def rounds(self, seed, workdir, count=None):
        """The first `count` rounds (all of them by default) for this seed."""
        return self.make_rounds(random.Random(f"{self.name}:{seed}"), workdir,
                                self.count if count is None else count)

    def warmup(self, seed, workdir):
        return self.make_warmup(random.Random(f"{self.name}:{seed}:warmup"),
                                workdir)


# Rounds per run: 20-35 s of the seed code on a 2-vCPU Xeon VM, whose speed
# drifts by up to 2x.
WORKLOADS = {w.name: w for w in (
    Workload("encode", 2, encode_rounds, encode_warmup),
    Workload("probe", 6, probe_rounds, probe_warmup),
    Workload("complex", 5, complex_rounds, complex_warmup),
)}
