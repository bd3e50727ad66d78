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

import hashlib
import re
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

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
# The command table.  Every command line forge reads is declared here, once:
# parse_args walks argv against it, and each --help is rendered from it.

# One argument of a command: a long option if its name starts with "--",
# else a positional.  `kind` is the type of what it stores: str, int, bool
# (an option that takes no value and stores True) or list (a positional
# that takes one or more values).
Arg = namedtuple("Arg", "name kind default required help",
                 defaults=(str, None, False, ""))
Command = namedtuple("Command", "help handler args")
# A command whose first positional names one of its `commands`, kept as `dest`.
Group = namedtuple("Group", "help dest commands")

_OUT = Arg("--out")

COMMANDS = Group(
    "Subgroup graphs, presentations, quotient searches and the encoding pipeline.",
    "subcommand", {
        "fold": Command("fold a graph morphism to an immersion", _cmd_fold,
                        (Arg("graph"), _OUT)),
        "core": Command("fold and trim to the core graph", _cmd_fold,
                        (Arg("graph"), _OUT)),
        "fibre": Command("fibre product of two immersions", _cmd_fibre,
                         (Arg("graph1"), Arg("graph2"))),
        "malnormal": Command("certify a family of immersions malnormal",
                             _cmd_malnormal, (Arg("graphs", list),)),
        "abel": Command("abelian invariants of a presentation", _cmd_abel,
                        (Arg("presentation"),)),
        "freepow": Command("n-fold free power of a presentation", _cmd_freepow,
                           (Arg("presentation"), Arg("n", int), _OUT)),
        "encode": Command("run the encoding pipeline", _cmd_encode, (
            Arg("presentation"), Arg("--word", required=True), Arg("--N", int, 7),
            Arg("--discrete", bool, False), _OUT)),
        "quotients": Command("search finite symmetric quotients", _cmd_quotients, (
            Arg("presentation"), Arg("--max-degree", int, required=True), Arg("--word"),
            Arg("--orders", help="k:e1,e2,... target orders for the generators"),
            Arg("--max-nodes", int, 10 ** 7,
                help="search-node budget per degree; each degree searched starts "
                     "from zero, and one that hits the budget reports it + 1 "
                     "nodes, the refused node included"))),
        "sqc": Group("square complex tools", "sqc_command", {
            "check": Command("link condition check", _cmd_sqc_check,
                             (Arg("complex"),)),
            "build": Command("build the scaled-copy complex of a presentation",
                             _cmd_sqc_build, (
                Arg("--pres", required=True), Arg("--complex", required=True),
                Arg("--gamma", required=True,
                    help="directed edge list, e.g. 'a b-' (minus for reverse)"),
                _OUT)),
            "pi1": Command("fundamental group presentation", _cmd_sqc_pi1,
                           (Arg("complex"), _OUT)),
        }),
        "probe": Command("encode then search the output for a nontrivial "
                         "finite quotient", _cmd_probe, (
            Arg("presentation"), Arg("--word", required=True),
            Arg("--max-degree", int, 5),
            Arg("--max-nodes", int, 10 ** 7,
                help="search-node budget over all degrees together; at a hit "
                     "the degree lines sum to it + 1 nodes, the refused node "
                     "included"),
            Arg("--N", int, 7))),
    })

_HELP = Arg("-h/--help", help="show this help message and exit")
_HELP_ONLY = {"-h": _HELP, "--help": _HELP}
_UNKNOWN = Arg("")  # an option-like token that names no option
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def parse_args(argv):
    """Read a forge command line against COMMANDS in one pass, as argparse
    reads it: options may come before, between or after positionals, as
    `--opt value` or `--opt=value`, or by a unique prefix; a negative number
    is a value; `--` ends the options.  Returns a namespace of the group
    dests (`subcommand`, and `sqc_command` under `sqc`), the command's
    arguments (each default that argv leaves) and its `handler`.  A line
    that does not parse raises ForgeError in argparse's words, led by the
    prog that refused it; -h or --help prints that prog's help and raises
    SystemExit(0)."""
    args, extras = SimpleNamespace(), []
    node, prog, i = COMMANDS, "forge", 0
    while type(node) is Group:
        while True:  # only help is an option before the command's name
            if argv[i:] in ([], ["--"]):
                raise _required(prog, [node.dest])
            token = argv[i]
            i += 1
            found = None if token == "--" else _option(_HELP_ONLY, token, prog)
            if found is None:
                break
            if found[0] is _UNKNOWN:
                extras.append(token)
            else:
                _flag(*found, node, prog)
        if token not in node.commands:
            raise ForgeError(f"{prog}: argument {node.dest}: invalid choice: {token!r} "
                             f"(choose from {', '.join(map(repr, node.commands))})")
        setattr(args, node.dest, token)
        node, prog = node.commands[token], f"{prog} {token}"
    _read_command(node, prog, argv[i:], args, extras)
    if extras:
        raise ForgeError(f"forge: unrecognized arguments: {' '.join(extras)}")
    return args


def _read_command(command, prog, tokens, args, extras):
    """Read a command's tokens into `args`; tokens it takes no place for
    go to `extras`, in order."""
    options, waiting = dict(_HELP_ONLY), []
    for arg in command.args:
        if arg.name[0] == "-":
            options[arg.name] = arg
        else:
            waiting.append(arg)
        setattr(args, _dest(arg), arg.default)
    waiting.reverse()
    # argparse reads every token's kind before it takes any, so an ambiguous
    # prefix is refused first; after "--" every token is a value.
    n = len(tokens)
    end = tokens.index("--") if "--" in tokens else n
    kinds = [_option(options, token, prog) for token in tokens[:end]] + [None] * (n - end)
    seen = set()
    run = None       # the values of a list positional, until an option ends them
    taken = False    # the token before was a positional's value
    k = 0
    while k < n:
        token, kind = tokens[k], kinds[k]
        k += 1
        if k == end + 1:
            # A "--" next to a positional's values is theirs; any other is left over.
            if not (taken or waiting):
                extras.append(token)
        elif kind is None:
            taken = run is not None or bool(waiting)
            if run is not None:
                run.append(token)
            elif waiting:
                arg = waiting.pop()
                seen.add(arg.name)
                if arg.kind is list:
                    run = [token]
                    setattr(args, arg.name, run)
                else:
                    setattr(args, arg.name, _value(arg, token, prog))
            else:
                extras.append(token)
        else:
            arg, value = kind
            run, taken = None, False
            if arg is _UNKNOWN:
                extras.append(token)
                continue
            seen.add(arg.name)
            if arg is _HELP or arg.kind is bool:
                value = _flag(arg, value, command, prog)
            elif value is None:
                if k == end or kinds[k] is not None:
                    raise ForgeError(f"{prog}: argument {arg.name}: expected one argument")
                value = tokens[k]
                k += 1
            setattr(args, _dest(arg), _value(arg, value, prog))
    missing = [arg.name for arg in command.args if arg.name not in seen
               and (arg.required or arg.name[0] != "-")]
    if missing:
        raise _required(prog, missing)
    args.handler = command.handler


def _option(options, token, prog):
    """What argparse makes of `token` among `options`: None for a value,
    else (the option, its `=value` or None), with _UNKNOWN for an
    option-like token that names none.  A unique prefix of a long option
    names it; an ambiguous one is refused."""
    if token in options:
        return options[token], None
    if len(token) < 2 or token[0] != "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name], value
    if token[1] == "-":
        matches = [flag for flag in options if flag.startswith(name)]
        if len(matches) > 1:
            raise ForgeError(f"{prog}: ambiguous option: {token} could match "
                             f"{', '.join(matches)}")
        if matches:
            return options[matches[0]], value if eq else None
    elif _NEGATIVE_NUMBER.match(token):
        return None
    return None if " " in token else (_UNKNOWN, None)


def _flag(arg, value, node, prog):
    """A flag's value, True; -h and --help print node's help and exit 0."""
    if value is not None:
        raise ForgeError(f"{prog}: argument {arg.name}: ignored explicit argument {value!r}")
    if arg is _HELP:
        sys.stdout.write(_help_text(node, prog))
        raise SystemExit(0)
    return True


def _value(arg, text, prog):
    if arg.kind is not int:
        return text
    try:
        return int(text)
    except ValueError:
        raise ForgeError(f"{prog}: argument {arg.name}: invalid int value: {text!r}") from None


def _dest(arg):
    return arg.name.lstrip("-").replace("-", "_")


def _required(prog, names):
    return ForgeError(f"{prog}: the following arguments are required: {', '.join(names)}")


def _help_text(node, prog):
    """The --help of a command or group, rendered from its table entry."""
    import textwrap  # only help needs it
    usage, positionals, options = ["[-h]"], [], [("-h, --help", _HELP.help)]
    if type(node) is Group:
        choices = "{" + ",".join(node.commands) + "}"
        usage += [choices, "..."]
        positionals = [(choices, "")] + [(f"  {name}", sub.help)
                                         for name, sub in node.commands.items()]
    else:
        tail = []
        for arg in node.args:
            if arg.name[0] != "-":
                tail.append(f"{arg.name} [{arg.name} ...]" if arg.kind is list else arg.name)
                positionals.append((arg.name, arg.help))
                continue
            spelled = arg.name if arg.kind is bool else f"{arg.name} {_dest(arg).upper()}"
            usage.append(spelled if arg.required else f"[{spelled}]")
            options.append((spelled, arg.help))
        usage += tail
    lines = [f"usage: {prog}"]
    for unit in usage:  # a usage line breaks between units, at 80 columns
        if len(lines[-1]) + len(unit) >= 80:
            lines.append(" " * (len(prog) + 7))
        lines[-1] += " " + unit
    lines += ["", node.help]
    for heading, rows in (("positional arguments:", positionals), ("options:", options)):
        if rows:
            lines += ["", heading]
        for spelled, text in rows:
            wrapped = textwrap.wrap(text, 56)
            if wrapped and len(spelled) <= 20:
                lines.append(f"  {spelled:<22}{wrapped.pop(0)}")
            else:
                lines.append(f"  {spelled}")
            lines += [" " * 24 + line for line in wrapped]
    return "\n".join(lines) + "\n"


def main(argv=None):
    start = time.monotonic()
    command = "forge"  # until the command line parses
    inputs, artifacts = {}, []
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
