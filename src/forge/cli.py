"""The `forge` command line: thin sequential orchestration over the library
modules, structured-text reports with a stable field order, and the exit-code
contract 0 = certified/witness, 2 = inconclusive, 1 = error (refuted
certification checks also exit 1).

Every command has one report path: `main` calls its handler as
`handler(args, inputs, artifacts)`.  The handler reads each input file
through `_load` or `_load_immersion`, which digest it into `inputs` and
name the file at fault in a parse error, lists each `--out` file it writes
in `artifacts`, and returns `(status, details)`.  `main` alone builds,
names, times and prints the report; an error report lists no inputs or
artifacts.  `run_encode_and_probe`, the end-to-end pipeline, returns the
pair that `forge probe`'s handler returns as is.

No report ever claims that a group has no nontrivial finite quotient; an
exhausted search is always reported as inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from collections import namedtuple

from . import fileformats as FF
from . import words as W
from .encoder import discrete_trace, encode
from .errors import ForgeError
from .presentations import abelianization, free_power
from .quotients import (OrderSpec, SearchBudget, cycle_notation,
                        has_nontrivial_quotient_upto, search)
from .squarecx import (build_S_of_P, check_link_condition, pi1_presentation)
from .stallings import core, fibre_product, fold, malnormal_family_check

EXIT_CODES = {"certified": 0, "witness": 0, "refuted": 1, "inconclusive": 2,
              "error": 1}


class RunReport(namedtuple("RunReport",
                           "command inputs status timing artifacts details")):
    """One run's outcome.  Fields print in a fixed order so reports diff
    cleanly; inputs are content hashes, never raw paths."""

    __slots__ = ()

    def __new__(cls, command, inputs, status, timing=0.0, artifacts=None,
                details=None):
        if status not in EXIT_CODES:
            raise ValueError(f"unknown status {status!r}")
        return super().__new__(cls, command, inputs, status, timing,
                               [] if artifacts is None else artifacts,
                               [] if details is None else details)

    def exit_code(self):
        return EXIT_CODES[self.status]

    def to_text(self):
        out = [f"command: {self.command}", f"status: {self.status}"]
        for label in sorted(self.inputs):
            out.append(f"input {label}: sha256:{self.inputs[label]}")
        out.append(f"timing: {self.timing:.3f}s")
        for path in self.artifacts:
            out.append(f"artifact: {path}")
        for key, value in self.details:
            out.append(f"{key}: {value}")
        return "\n".join(out) + "\n"


def _digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _emit(text, out_path, artifacts):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        artifacts.append(out_path)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# End-to-end pipeline.


def run_encode_and_probe(p, w, budget, N=7):
    """Encode (p, w) and search the output presentation for a nontrivial
    finite quotient; returns the handler pair (status, details).  The
    details give the output's size, then the search lines every search
    report prints (see _search_details).  A witness certifies the output
    group has a nontrivial finite quotient; a search that finds none
    decides nothing."""
    trace = encode(p, w, N=N)
    status, lines = _search_details(has_nontrivial_quotient_upto(trace.p_w, budget))
    return status, [("output generators", str(len(trace.p_w.generators))),
                    ("output relators", str(len(trace.p_w.relators))), *lines]


def _search_details(outcome):
    """The status and lines of a search report: what H_1 ruled out
    (degrees, then odd candidates), one line per degree entered with the
    nodes spent there, then the witness or the one conclusion that holds
    of every search that found none, wherever it stopped."""
    details = []
    if outcome.excluded:
        lo, hi = outcome.excluded[0], outcome.excluded[-1]
        details.append((f"degree {lo}" if lo == hi else f"degrees {lo}-{hi}",
                        "excluded (H1 = 0)" if outcome.perfect
                        else "excluded (|H1| odd)"))
    if outcome.even_only:
        details.append(("candidates", "even permutations (|H1| odd)"))
    details += [(f"degree {n}", f"nodes={nodes}" + (" (budget hit)" if hit else ""))
                for n, nodes, hit in outcome.degrees]
    witness = outcome.witness
    if witness is None:
        details.append(("conclusion", "no witness found; no conclusion"))
        return "inconclusive", details
    details.append(("witness degree", str(witness.degree)))
    details += [(f"witness {g}", cycle_notation(witness.images[g]))
                for g in sorted(witness.images)]
    return "witness", details


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each takes the parsed arguments, the run's `inputs`
# and `artifacts`, which it fills, and returns (status, details).


def _load(inputs, label, path, parse):
    """parse(the text of the file at path), with a ParseError led by the
    path; the text's digest becomes input `label`."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    inputs[label] = _digest(text)
    return FF.in_file(path, parse, text)


def _load_immersion(inputs, label, path, folded=True):
    """FF.load_immersion's immersion and base path; the digest of the graph
    file's text becomes input `label`."""
    imm, base_path, text = FF.load_immersion(path, folded=folded)
    inputs[label] = _digest(text)
    return imm, base_path


def _cmd_fold(args, inputs, artifacts):
    """`fold`, and `core`: fold, then trim to the core."""
    imm, base_path = _load_immersion(inputs, "graph", args.graph, folded=False)
    result = fold(imm)
    if args.subcommand == "core":
        result = core(result)
    _emit(FF.format_immersion(result, base_path), args.out, artifacts)
    return "certified", [("vertices", str(len(result.domain.vertices))),
                         ("edges", str(len(result.domain.edges)))]


def _component_details(decomp):
    details = [("components", str(len(decomp.components)))]
    for c in decomp.components:
        details.append((f"component {c.index}",
                        f"vertices={len(c.vertices)} edges={c.edge_count} "
                        f"rank={c.rank} tree={c.is_tree} diagonal={c.is_diagonal}"))
    return details


def _cmd_fibre(args, inputs, artifacts):
    i1, _ = _load_immersion(inputs, "graph1", args.graph1)
    i2, _ = _load_immersion(inputs, "graph2", args.graph2)
    return "certified", _component_details(fibre_product(i1, i2))


def _cmd_malnormal(args, inputs, artifacts):
    family = [_load_immersion(inputs, f"graph{k}", path)[0]
              for k, path in enumerate(args.graphs)]
    ok, witness = malnormal_family_check(family)
    if ok:
        return "certified", [("family size", str(len(family)))]
    c = witness.component
    return "refuted", [("witness pair", f"{witness.pair[0]},{witness.pair[1]}"),
                       ("witness component",
                        f"vertices={len(c.vertices)} edges={c.edge_count} rank={c.rank}")]


def _invariant_details(p):
    inv = abelianization(p)
    return [("betti", str(inv.betti)),
            ("torsion", " ".join(map(str, inv.torsion)) or "none")]


def _cmd_abel(args, inputs, artifacts):
    p = _load(inputs, "presentation", args.presentation, FF.parse_presentation)
    return "certified", _invariant_details(p)


def _cmd_freepow(args, inputs, artifacts):
    p = _load(inputs, "presentation", args.presentation, FF.parse_presentation)
    inputs["n"] = _digest(str(args.n))
    q = free_power(p, args.n)
    _emit(FF.format_presentation(q), args.out, artifacts)
    return "certified", [("generators", str(len(q.generators))),
                         ("relators", str(len(q.relators)))]


def _cmd_encode(args, inputs, artifacts):
    p = _load(inputs, "presentation", args.presentation, FF.parse_presentation)
    w = W.parse_word(p.alphabet, args.word)
    inputs["word"] = _digest(args.word)
    trace = discrete_trace(p, w) if args.discrete else encode(p, w, N=args.N)
    details = [(f"stage {name}",
                f"generators={len(stage.generators)} relators={len(stage.relators)}")
               for name, stage in trace.stages().items()]
    _emit(FF.trace_to_json(trace), args.out, artifacts)
    return "certified", details


def _parse_orders(text):
    try:
        kappa_text, exp_text = text.split(":", 1)
        kappa = int(kappa_text)
        exponents = tuple(int(e) for e in exp_text.split(","))
    except ValueError as exc:
        raise ForgeError(f"bad --orders spec {text!r}; expected k:e1,e2,...") from exc
    return kappa, exponents


def _cmd_quotients(args, inputs, artifacts):
    if args.orders is not None and args.word is not None:
        raise ForgeError("--orders and --word cannot be combined")
    budget = SearchBudget(max_degree=args.max_degree, max_nodes=args.max_nodes)
    p = _load(inputs, "presentation", args.presentation, FF.parse_presentation)
    goal = None
    if args.orders is not None:
        kappa, exponents = _parse_orders(args.orders)
        targets = tuple(p.alphabet.gen(g) for g in p.generators)
        if len(exponents) != len(targets):
            raise ForgeError(f"--orders gives {len(exponents)} exponents for "
                             f"{len(targets)} generators")
        goal = OrderSpec(targets=targets, kappa=kappa, exponents=exponents)
        inputs["orders"] = _digest(args.orders)
    elif args.word is not None:
        inputs["word"] = _digest(args.word)
        goal = W.parse_word(p.alphabet, args.word)
    return _search_details(search(p, budget, goal, per_degree=True))


def _complex_details(cx):
    return [("vertices", str(len(cx.vertices))),
            ("edges", str(len(cx.edges))),
            ("squares", str(len(cx.square_codes))),
            ("euler characteristic", str(cx.euler_characteristic()))]


def _cmd_sqc_check(args, inputs, artifacts):
    cx = _load(inputs, "complex", args.complex, FF.parse_complex)
    ok, violations = check_link_condition(cx)
    details = _complex_details(cx)
    if ok:
        return "certified", details
    details.append(("violations", str(len(violations))))
    for v, kind, _ in violations[:5]:
        details.append(("violation", f"{kind} in link of {v!r}"))
    return "refuted", details


def _cmd_sqc_build(args, inputs, artifacts):
    p = _load(inputs, "presentation", args.pres, FF.parse_presentation)
    cx = _load(inputs, "complex", args.complex, FF.parse_complex)
    inputs["gamma"] = _digest(args.gamma)
    gamma = [cx.directed(c) for c in FF.parse_edge_codes(args.gamma.split(), cx, "gamma")]
    built = build_S_of_P(p, cx, gamma)
    _emit(FF.format_complex(built.complex), args.out, artifacts)
    return "certified", _complex_details(built.complex)


def _cmd_sqc_pi1(args, inputs, artifacts):
    p = pi1_presentation(_load(inputs, "complex", args.complex, FF.parse_complex))
    _emit(FF.format_presentation(p), args.out, artifacts)
    return "certified", [("generators", str(len(p.generators))),
                         ("relators", str(len(p.relators))), *_invariant_details(p)]


def _cmd_probe(args, inputs, artifacts):
    """run_encode_and_probe's pair; the presentation file and the word are
    digested as given, as every other command digests them."""
    p = _load(inputs, "presentation", args.presentation, FF.parse_presentation)
    w = W.parse_word(p.alphabet, args.word)
    inputs["word"] = _digest(args.word)
    budget = SearchBudget(max_degree=args.max_degree, max_nodes=args.max_nodes)
    return run_encode_and_probe(p, w, budget, N=args.N)


# ---------------------------------------------------------------------------
# Argument parsing.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 would read as "inconclusive"
        raise ForgeError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="forge",
        description="Subgroup graphs, presentations, quotient searches and "
                    "the encoding pipeline.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("fold", help="fold a graph morphism to an immersion")
    s.add_argument("graph")
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_fold)

    s = sub.add_parser("core", help="fold and trim to the core graph")
    s.add_argument("graph")
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_fold)

    s = sub.add_parser("fibre", help="fibre product of two immersions")
    s.add_argument("graph1")
    s.add_argument("graph2")
    s.set_defaults(handler=_cmd_fibre)

    s = sub.add_parser("malnormal", help="certify a family of immersions malnormal")
    s.add_argument("graphs", nargs="+")
    s.set_defaults(handler=_cmd_malnormal)

    s = sub.add_parser("abel", help="abelian invariants of a presentation")
    s.add_argument("presentation")
    s.set_defaults(handler=_cmd_abel)

    s = sub.add_parser("freepow", help="n-fold free power of a presentation")
    s.add_argument("presentation")
    s.add_argument("n", type=int)
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_freepow)

    s = sub.add_parser("encode", help="run the encoding pipeline")
    s.add_argument("presentation")
    s.add_argument("--word", required=True)
    s.add_argument("--N", type=int, default=7)
    s.add_argument("--discrete", action="store_true")
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_encode)

    s = sub.add_parser("quotients", help="search finite symmetric quotients")
    s.add_argument("presentation")
    s.add_argument("--max-degree", type=int, required=True)
    s.add_argument("--word")
    s.add_argument("--orders", help="k:e1,e2,... target orders for the generators")
    s.add_argument("--max-nodes", type=int, default=10 ** 7,
                   help="search-node budget per degree; each degree searched "
                        "starts from zero, and one that hits the budget reports "
                        "it + 1 nodes, the refused node included")
    s.set_defaults(handler=_cmd_quotients)

    s = sub.add_parser("sqc", help="square complex tools")
    sqc = s.add_subparsers(dest="sqc_command", required=True)

    t = sqc.add_parser("check", help="link condition check")
    t.add_argument("complex")
    t.set_defaults(handler=_cmd_sqc_check)

    t = sqc.add_parser("build", help="build the scaled-copy complex of a presentation")
    t.add_argument("--pres", required=True)
    t.add_argument("--complex", required=True)
    t.add_argument("--gamma", required=True,
                   help="directed edge list, e.g. 'a b-' (minus for reverse)")
    t.add_argument("--out")
    t.set_defaults(handler=_cmd_sqc_build)

    t = sqc.add_parser("pi1", help="fundamental group presentation")
    t.add_argument("complex")
    t.add_argument("--out")
    t.set_defaults(handler=_cmd_sqc_pi1)

    s = sub.add_parser("probe", help="encode then search the output for a "
                                     "nontrivial finite quotient")
    s.add_argument("presentation")
    s.add_argument("--word", required=True)
    s.add_argument("--max-degree", type=int, default=5)
    s.add_argument("--max-nodes", type=int, default=10 ** 7,
                   help="search-node budget over all degrees together; at a "
                        "hit the degree lines sum to it + 1 nodes, the refused "
                        "node included")
    s.add_argument("--N", type=int, default=7)
    s.set_defaults(handler=_cmd_probe)

    return parser


@functools.cache
def _parser():
    """The process's one parser; parsing leaves it unchanged, so main
    reuses it instead of rebuilding every subcommand on each call."""
    return build_parser()


def main(argv=None):
    start = time.monotonic()
    command = "forge"  # until the command line parses
    inputs, artifacts = {}, []
    try:
        args = _parser().parse_args(argv)
        command = " ".join(filter(None, (args.subcommand,
                                         getattr(args, "sqc_command", None))))
        status, details = args.handler(args, inputs, artifacts)
    except (ForgeError, OSError, ValueError, MemoryError) as exc:
        # A MemoryError has no message; the frames that held memory are gone.
        error = "memory ran out" if isinstance(exc, MemoryError) else str(exc)
        inputs, artifacts = {}, []
        status, details = "error", [("error", error)]
    report = RunReport(command, inputs, status, time.monotonic() - start,
                       artifacts, details)
    sys.stdout.write(report.to_text())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
