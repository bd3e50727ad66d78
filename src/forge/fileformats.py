"""Structured-text file formats: presentations, graphs and immersions,
square complexes, and the JSON trace emitted by the encoder pipeline.

All formats are line-oriented; blank lines and lines starting with `#` are
ignored.  Every parser reports errors with 1-based line (and, where it makes
sense, column) positions, and every writer round-trips through its parser.
"""

from __future__ import annotations

import json

from . import words as W
from .encoder import UV, MalnormalCertificate
from .errors import ConfigurationError, ForgeError, ParseError
from .presentations import FinitePresentation
from .squarecx import SquareComplex
from .stallings import GraphImmersion, LabeledGraph


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), with any failure raised as a ParseError."""
    try:
        return make(*args, **kwargs)
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def _lines(text):
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


# ---------------------------------------------------------------------------
# Presentations.


def parse_presentation(text):
    """Parse `gens: <names>` followed by `rel: <word>` lines."""
    alphabet = None
    relators = []
    for i, line in _lines(text):
        if line.startswith("gens:"):
            if alphabet is not None:
                raise ParseError("duplicate gens: line", line=i)
            names = line[len("gens:"):].split()
            try:
                alphabet = W.Alphabet(names)
            except ParseError as exc:
                raise ParseError(str(exc), line=i) from exc
        elif line.startswith("rel:"):
            if alphabet is None:
                raise ParseError("rel: before any gens: line", line=i)
            body = line[len("rel:"):]
            try:
                relators.append(W.parse_word(alphabet, body))
            except Exception as exc:
                column = len(line) - len(body.lstrip()) + 1
                raise ParseError(str(exc), line=i, column=column) from exc
        else:
            raise ParseError(f"expected gens: or rel:, got {line.split()[0]!r}",
                             line=i, column=1)
    if alphabet is None:
        raise ParseError("presentation has no gens: line", line=1)
    return FinitePresentation(alphabet, relators)


def format_presentation(p):
    out = ["gens: " + " ".join(p.generators)]
    out.extend("rel: " + W.format_word(r) for r in p.relators)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Graphs and immersions.
#
# A base file has header `base`; a graph (immersion) file has header `graph`
# and a `base <path>` line referencing its base file.  Both list cells as
#   vertex <id>
#   edge <id> <src> <dst> <label>
#   basepoint <id>
# and immersion files add `vmap <vertex> <base-vertex>` lines (`emap` lines
# are accepted and checked against the labels, which already determine the
# edge map).  Ids are plain whitespace-free tokens; decimal tokens are read
# as integers so canonically relabeled graphs round-trip.


def _token(tok):
    if tok[:1].isalpha():  # int() cannot parse it
        return tok
    try:
        return int(tok)
    except ValueError:
        return tok


def _id_str(x):
    s = str(x)
    if not s or any(c.isspace() for c in s):
        raise ParseError(f"id {x!r} is not writable as a single token")
    return s


def _parse_cells(text, header):
    """Check a graph file's header line and read its vertex, edge and
    basepoint lines; returns them and the remaining (line number, line)s."""
    entries = list(_lines(text))
    if not entries or entries[0][1] != header:
        raise ParseError(f"{header} file must start with a `{header}` header line",
                         line=entries[0][0] if entries else 1)
    vertices = []
    edges = {}
    basepoint = None
    rest = []
    for i, line in entries[1:]:
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise ParseError("vertex takes exactly one id", line=i)
            vertices.append(_token(args[0]))
        elif kind == "edge":
            if len(args) != 4:
                raise ParseError("edge takes id, src, dst, label", line=i)
            eid = _token(args[0])
            if eid in edges:
                raise ParseError(f"duplicate edge id {args[0]}", line=i)
            edges[eid] = (_token(args[1]), _token(args[2]), _token(args[3]))
        elif kind == "basepoint":
            if len(args) != 1:
                raise ParseError("basepoint takes exactly one id", line=i)
            if basepoint is not None:
                raise ParseError("duplicate basepoint line", line=i)
            basepoint = _token(args[0])
        else:
            rest.append((i, line))
    return vertices, edges, basepoint, rest


def parse_base_graph(text):
    """Parse a base-graph file (header `base`; labels must equal edge ids)."""
    vertices, edges, basepoint, rest = _parse_cells(text, "base")
    if rest:
        i, line = rest[0]
        raise ParseError(f"unexpected line in base file: {line!r}", line=i)
    for eid, (src, dst, label) in edges.items():
        if label != eid:
            raise ParseError(
                f"base edge {eid!r} must carry its own id as label, got {label!r}")
    return _build(LabeledGraph, vertices, edges, basepoint)


def parse_graph_file(text):
    """Parse a graph/immersion file; returns (graph, base_path, vmap).

    `base_path` is the reference from the `base <path>` line (None when
    absent); `vmap` maps domain vertices to base vertices and may be partial
    (missing entries are resolved by the loader)."""
    vertices, edges, basepoint, rest = _parse_cells(text, "graph")
    base_path = None
    vmap = {}
    for i, line in rest:
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "base":
            if len(args) != 1:
                raise ParseError("base takes exactly one path", line=i)
            if base_path is not None:
                raise ParseError("duplicate base line", line=i)
            base_path = args[0]
        elif kind == "vmap":
            if len(args) != 2:
                raise ParseError("vmap takes vertex and base vertex", line=i)
            vmap[_token(args[0])] = _token(args[1])
        elif kind == "emap":
            # The edge map is determined by the labels; accept and check.
            if len(args) != 2:
                raise ParseError("emap takes edge and base edge", line=i)
            eid = _token(args[0])
            if eid not in edges or edges[eid][2] != _token(args[1]):
                raise ParseError(
                    f"emap for {args[0]} contradicts the edge label", line=i)
        else:
            raise ParseError(f"unexpected line in graph file: {line!r}", line=i)
    return _build(LabeledGraph, vertices, edges, basepoint), base_path, vmap


def resolve_immersion(graph, base, vmap, folded=True):
    """Complete a partial vmap and build the immersion.

    Missing vmap entries are only resolvable when the base has exactly one
    vertex (a rose); otherwise they are an error."""
    vmap = dict(vmap)
    for v in graph.vertices:
        if v not in vmap:
            if len(base.vertices) == 1:
                vmap[v] = base.vertices[0]
            else:
                raise ParseError(f"no vmap entry for vertex {v!r} "
                                 "and the base is not a rose")
    return _build(GraphImmersion, graph, base, vmap, folded=folded)


def load_immersion(path, folded=True):
    """Read an immersion file and its referenced base file from disk.
    Returns (immersion, the `base` line's path, the immersion file's text)."""
    import os

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    graph, base_path, vmap = parse_graph_file(text)
    if base_path is None:
        raise ParseError(f"{path}: graph file has no base line")
    full = os.path.join(os.path.dirname(os.path.abspath(path)), base_path)
    with open(full, encoding="utf-8") as fh:
        base = parse_base_graph(fh.read())
    return resolve_immersion(graph, base, vmap, folded=folded), base_path, text


def _cell_lines(graph):
    """A graph's vertex, edge and basepoint lines."""
    out = [f"vertex {_id_str(v)}" for v in graph.vertices]
    for eid in sorted(graph.edges, key=_id_str):
        src, dst, label = graph.edges[eid]
        out.append(f"edge {_id_str(eid)} {_id_str(src)} {_id_str(dst)} {_id_str(label)}")
    if graph.basepoint is not None:
        out.append(f"basepoint {_id_str(graph.basepoint)}")
    return out


def format_base_graph(base):
    return "\n".join(["base"] + _cell_lines(base)) + "\n"


def format_immersion(immersion, base_path):
    graph = immersion.domain
    out = ["graph", f"base {base_path}"] + _cell_lines(graph)
    out.extend(f"vmap {_id_str(v)} {_id_str(immersion.vmap[v])}"
               for v in graph.vertices)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Square complexes.
#
#   vertex <id>
#   edge <id> <src> <dst>
#   square <d1> <d2> <d3> <d4>      (reverse of edge e spelled `e-`)
#
# Lines may come in any order; square tokens are read once all edges are
# known, straight to codes (forge.squarecx: repr order, ties in file order).


def parse_edge_codes(tokens, complex_, referrer, line=None):
    """The codes in complex_ of the directed edges spelled `e` or `e-` (the
    reverse of edge e), each read by the complex's own lookup; an unknown
    id is an error naming the referrer ("square", "gamma")."""
    code, out = complex_.code, []
    for tok in tokens:
        try:
            out.append(code((_token(tok[:-1]), -1) if tok.endswith("-") else (_token(tok), 1)))
        except ConfigurationError:
            raise ParseError(f"{referrer} references unknown edge {tok!r}", line=line) from None
    return out


def parse_complex(text):
    vertices = []
    edges = {}
    squares = []
    for i, line in _lines(text):
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise ParseError("vertex takes exactly one id", line=i)
            vertices.append(_token(args[0]))
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError("edge takes id, src, dst", line=i)
            eid = _token(args[0])
            if eid in edges:
                raise ParseError(f"duplicate edge id {args[0]}", line=i)
            edges[eid] = (_token(args[1]), _token(args[2]))
        elif kind == "square":
            if len(args) != 4:
                raise ParseError("square takes exactly four directed edges", line=i)
            squares.append((i, args))
        else:
            raise ParseError(f"expected vertex/edge/square, got {kind!r}",
                             line=i, column=1)
    complex_ = _build(SquareComplex, vertices, edges)
    for i, tokens in squares:
        try:
            complex_.add_square(parse_edge_codes(tokens, complex_, "square", i))
        except ConfigurationError as exc:
            raise ParseError(str(exc), line=i) from exc
    return complex_


def format_complex(complex_):
    """Write a complex with its cells named by their places, vertex p as
    v{p} and edge i as e{i}, so structured ids (e.g. from build_S_of_P)
    serialize as single tokens.  Edge i runs from head[2i] to head[2i + 1]."""
    head = complex_.head
    out = [f"vertex v{p}" for p in range(len(complex_.vertices))]
    out += [f"edge e{i} v{head[2 * i]} v{head[2 * i + 1]}"
            for i in range(len(complex_.edge_order))]
    # Edge i has codes 2i (reversed) and 2i + 1.
    token = [f"e{c >> 1}" if c & 1 else f"e{c >> 1}-" for c in range(len(head))]
    for codes in complex_.square_codes:
        out.append("square " + " ".join([token[c] for c in codes]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Encoding traces.


def _word_str(word):
    return W.format_word(word) if word is not None else None


def certificate_to_dict(cert):
    return {
        "m": cert.m,
        "modulus": cert.modulus,
        "tuple_uv": [W.format_word(c) for c in cert.tuple_uv],
        "rank": cert.rank,
        "family_malnormal": cert.family_malnormal,
        "base_rank": cert.base_rank,
        "translates_malnormal": cert.translates_malnormal,
    }


_CERTIFICATE_FIELDS = {"m": int, "modulus": int, "rank": int, "base_rank": int,
                       "family_malnormal": bool, "translates_malnormal": bool}


def certificate_from_dict(data):
    """Inverse of certificate_to_dict; raises ParseError on any other shape."""
    if not isinstance(data, dict):
        raise ParseError("a certificate must be a JSON object")
    for key, kind in _CERTIFICATE_FIELDS.items():
        if type(data.get(key)) is not kind:
            raise ParseError(f"certificate field {key!r} must be a {kind.__name__}")
    words = data.get("tuple_uv")
    if not isinstance(words, list) or not all(isinstance(c, str) for c in words):
        raise ParseError("certificate field 'tuple_uv' must be a list of words")
    try:
        tuple_uv = tuple(W.parse_word(UV, c) for c in words)
    except ForgeError as exc:
        raise ParseError(f"certificate word: {exc}") from exc
    return MalnormalCertificate(
        m=data["m"],
        modulus=data["modulus"],
        tuple_uv=tuple_uv,
        rank=data["rank"],
        family_malnormal=data["family_malnormal"],
        base_rank=data["base_rank"],
        translates_malnormal=data["translates_malnormal"],
    )


def trace_to_json(trace):
    """Serialize an EncodingTrace: every stage presentation in the
    presentation file format, plus words, letters and the certificate."""
    data = {
        "input": {
            "presentation": format_presentation(trace.input_presentation),
            "word": W.format_word(trace.input_word),
        },
        "modulus": trace.modulus,
        "short_circuited": trace.short_circuited,
        "stages": {name: format_presentation(stage)
                   for name, stage in trace.stages().items()},
        "words": {
            "w_dagger": _word_str(trace.w_dagger),
            "w_prime": _word_str(trace.w_prime),
            "u": _word_str(trace.u),
            "v": _word_str(trace.v),
            "c_words_tw": [W.format_word(c) for c in trace.c_words_tw],
            "c_words": [W.format_word(c) for c in trace.c_words],
        },
        "b_letters": list(trace.b_letters),
        "t_letter": trace.t_letter,
        "certificate": (certificate_to_dict(trace.certificate)
                        if trace.certificate is not None else None),
        "abelianizations": {
            name: {"betti": inv.betti, "torsion": list(inv.torsion)}
            for name, inv in (trace.abelianizations or {}).items()
        },
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def trace_from_json(text):
    """Parse a serialized trace back into presentations and certificate.

    Returns a dict with parsed `stages`, the `certificate` (or None) and the
    raw data; enough to re-validate a run without re-encoding."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(data, dict):
        raise ParseError("a trace must be a JSON object")
    if "stages" not in data:
        raise ParseError("the trace has no stages")
    if not isinstance(data["stages"], dict) \
            or not all(isinstance(src, str) for src in data["stages"].values()):
        raise ParseError("trace stages must map names to presentation texts")
    stages = {name: parse_presentation(src)
              for name, src in data["stages"].items()}
    cert = (certificate_from_dict(data["certificate"])
            if data.get("certificate") is not None else None)
    return {"stages": stages, "certificate": cert, "data": data}
