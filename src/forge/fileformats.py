"""Structured-text file formats: presentations, graphs and immersions,
square complexes, and the JSON trace emitted by the encoder pipeline.

All formats are line-oriented; blank lines and lines starting with `#` are
ignored.  Every parser reports errors with 1-based line (and, where it makes
sense, column) positions.  What a writer writes, its parser reads back
equal; a graph and a square complex keep their cells in file order, so a
written one reads back to the same positions and writes the same bytes.
"""

from __future__ import annotations

import json

from . import words as W
from .encoder import UV, MalnormalCertificate
from .errors import ConfigurationError, ForgeError, ParseError
from .presentations import FinitePresentation
from .squarecx import SquareComplex
from .stallings import GraphImmersion, LabeledGraph


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
# as integers so canonically relabeled graphs round-trip, and a writer
# refuses an id that its token would not read back as (the name "1", or
# True).  Vertices and edges keep their file order, and a writer writes
# them in the graph's order, so a graph forge wrote reads back and writes
# the same bytes.


def _token(tok):
    if tok[:1].isalpha():  # int() cannot parse it
        return tok
    try:
        return int(tok)
    except ValueError:
        return tok


def _id_str(x):
    """The token of id x, which `_token` must read back as x.  Two ids that
    each read back from one token are equal, so no two ids of a graph write
    alike."""
    s = str(x)
    if not s or any(c.isspace() for c in s):
        raise ParseError(f"id {x!r} is not writable as a single token")
    if (back := _token(s)) != x:
        raise ParseError(f"id {x!r} is written as {s}, which reads back as {back!r}")
    return s


def _read_cells(text, header):
    """Read a graph (`header` "graph") or base ("base") file in one pass,
    each line split once: parse_graph_file's (graph, base_path, vmap) and
    the line of each cell, keyed as a ConfigurationError names it: ("vertex",
    id) (a repeated vertex's second), ("edge", id), ("basepoint", id), and
    ("vmap", v).  Each line's own fault is named in file order, then the
    cells the graph refuses, then an emap contradicting its edge's label."""
    entries = _lines(text)
    first = next(entries, None)
    if first is None or first[1] != header:
        raise ParseError(f"{header} file must start with a `{header}` header line",
                         line=first[0] if first else 1)
    in_graph = header == "graph"
    vertices, edges, lines, repeated = [], {}, {}, set()
    basepoint = base_path = None
    vmap, emaps = {}, []
    for i, line in entries:
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise ParseError("vertex takes exactly one id", line=i)
            v = _token(args[0])
            vertices.append(v)
            if lines.setdefault(("vertex", v), i) != i and v not in repeated:
                repeated.add(v)
                lines["vertex", v] = i
        elif kind == "edge":
            if len(args) != 4:
                raise ParseError("edge takes id, src, dst, label", line=i)
            eid = _token(args[0])
            if eid in edges:
                raise ParseError(f"duplicate edge id {args[0]}", line=i)
            edges[eid] = (_token(args[1]), _token(args[2]), _token(args[3]))
            lines["edge", eid] = i
        elif kind == "basepoint":
            if len(args) != 1:
                raise ParseError("basepoint takes exactly one id", line=i)
            if basepoint is not None:
                raise ParseError("duplicate basepoint line", line=i)
            basepoint = _token(args[0])
            lines["basepoint", basepoint] = i
        elif kind == "vmap" and in_graph:
            if len(args) != 2:
                raise ParseError("vmap takes vertex and base vertex", line=i)
            v = _token(args[0])
            if v in vmap:
                raise ParseError(f"duplicate vmap line for vertex {args[0]}", line=i)
            vmap[v] = _token(args[1])
            lines["vmap", v] = i
        elif kind == "emap" and in_graph:
            # The edge map is determined by the labels; accept and check.
            if len(args) != 2:
                raise ParseError("emap takes edge and base edge", line=i)
            emaps.append((i, args))
        elif kind == "base" and in_graph:
            if len(args) != 1:
                raise ParseError("base takes exactly one path", line=i)
            if base_path is not None:
                raise ParseError("duplicate base line", line=i)
            base_path = args[0]
        else:
            raise ParseError(f"unexpected line in {header} file: {line!r}", line=i)
    try:
        graph = LabeledGraph(vertices, edges, basepoint)
    except ConfigurationError as exc:   # a repeated vertex, or a cell naming no vertex
        raise ParseError(str(exc), line=lines[exc.cell]) from exc
    for i, (eid, label) in emaps:
        edge = graph.edges.get(_token(eid))
        if edge is None or edge[2] != _token(label):
            raise ParseError(f"emap for {eid} contradicts the edge label", line=i)
    return graph, base_path, vmap, lines


def parse_base_graph(text):
    """Parse a base-graph file (header `base`; labels must equal edge ids)."""
    base, _, _, lines = _read_cells(text, "base")
    for eid, (src, dst, label) in base.edges.items():
        if label != eid:
            raise ParseError(f"base edge {eid!r} must carry its own id as label, "
                             f"got {label!r}", line=lines["edge", eid])
    return base


def parse_graph_file(text):
    """Parse a graph/immersion file; returns (graph, base_path, vmap).

    `base_path` is the reference from the `base <path>` line (None when
    absent); `vmap` maps domain vertices to base vertices and may be partial
    (missing entries are resolved by the loader)."""
    return _read_cells(text, "graph")[:3]


def resolve_immersion(graph, base, vmap, folded=True):
    """Complete a partial vmap and build the immersion.

    Missing vmap entries are only resolvable when the base has exactly one
    vertex (a rose); otherwise they are an error."""
    return _resolve(graph, base, vmap, folded, {})


def _resolve(graph, base, vmap, folded, lines):
    """resolve_immersion, with each refusal at the line of the cell at
    fault, read from `lines` as `_read_cells` keeps them: a vertex's vmap
    line where it has one, else the line that names the cell."""
    def line_of(cell):
        return (cell[0] == "vertex" and lines.get(("vmap", cell[1]))) or lines.get(cell)

    vmap = dict(vmap)
    for v in graph.vertices:
        if v not in vmap:
            if len(base.vertices) == 1:
                vmap[v] = base.vertices[0]
            else:
                raise ParseError(f"no vmap entry for vertex {v!r} "
                                 "and the base is not a rose", line=line_of(("vertex", v)))
    try:
        return GraphImmersion(graph, base, vmap, folded=folded)
    except ConfigurationError as exc:
        raise ParseError(str(exc), line=exc.cell and line_of(exc.cell)) from exc


def load_immersion(path, folded=True):
    """Read an immersion file and its referenced base file from disk.
    Returns (immersion, the `base` line's path, the immersion file's text).
    A ParseError names the file at fault: the immersion file by path, the
    base file as the `base` line spells it."""
    import os

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    graph, base_path, vmap, lines = in_file(path, _read_cells, text, "graph")
    if base_path is None:
        raise ParseError(f"{path}: graph file has no base line")
    full = os.path.join(os.path.dirname(os.path.abspath(path)), base_path)
    with open(full, encoding="utf-8") as fh:
        base = in_file(base_path, parse_base_graph, fh.read())
    return in_file(path, _resolve, graph, base, vmap, folded, lines), base_path, text


def in_file(name, read, *args):
    """read(*args), with a ParseError's message led by the file's name; its
    line and column stay as they were."""
    try:
        return read(*args)
    except ParseError as exc:
        error = ParseError(f"{name}: {exc}")
        error.line, error.column = exc.line, exc.column
        raise error from exc


def _cell_lines(graph):
    """A graph's vertex, edge and basepoint lines."""
    out = [f"vertex {_id_str(v)}" for v in graph.vertices]
    for eid, (src, dst, label) in graph.edges.items():
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
#   edge <id> <src> <dst>           (an edge id may not end in `-`)
#   square <d1> <d2> <d3> <d4>      (reverse of edge e spelled `e-`)
#
# Lines may come in any order, and cells take their positions in file order.
# The lines are read in one pass; square lines are then read again, once all
# edges are known, through one table from each edge token as written (`e`,
# and `e-` for its reverse) to its code.  A token the table lacks, another
# spelling of an id (`01` for edge 1) or an unknown edge, goes through
# parse_edge_codes, which names the fault.


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
    vertices, edges, squares = [], {}, []   # squares: (line number, 4 edge tokens)
    # vertex token -> id; edge tokens; cell -> line (a repeated vertex's second)
    ids, written, at, repeated = {}, [], {}, set()
    for i, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        kind = parts[0]
        if kind == "square":
            if len(parts) != 5:
                raise ParseError("square takes exactly four directed edges", line=i)
            squares.append((i, *parts[1:]))
        elif kind == "edge":
            if len(parts) != 4:
                raise ParseError("edge takes id, src, dst", line=i)
            _, tok, a, b = parts
            if tok[-1] == "-":
                raise ParseError(f"edge id {tok!r} ends in '-', which reads as a reverse", line=i)
            eid = _token(tok)
            if eid in edges:
                raise ParseError(f"duplicate edge id {tok}", line=i)
            # An endpoint spelled as on its vertex line shares that line's id,
            # so the reader holds one copy of each id while it reads, not three.
            edges[eid] = (ids[a] if a in ids else _token(a), ids[b] if b in ids else _token(b))
            written.append(tok)
            at["edge", eid] = i
        elif kind == "vertex":
            if len(parts) != 2:
                raise ParseError("vertex takes exactly one id", line=i)
            v = ids[parts[1]] = _token(parts[1])
            vertices.append(v)
            if at.setdefault(("vertex", v), i) != i and v not in repeated:
                repeated.add(v)
                at["vertex", v] = i
        else:
            raise ParseError(f"expected vertex/edge/square, got {kind!r}",
                             line=i, column=1)
    try:
        complex_ = SquareComplex(vertices, edges)
    except ConfigurationError as exc:   # a repeated vertex, or an endpoint no vertex line names
        raise ParseError(str(exc), line=at[exc.cell]) from exc
    table = {}
    for p, tok in enumerate(written):
        table[tok], table[tok + "-"] = 2 * p + 1, 2 * p
    for i, a, b, c, d in squares:
        try:
            codes = [table[a], table[b], table[c], table[d]]
        except KeyError:   # another spelling of an id, or an unknown edge
            codes = parse_edge_codes((a, b, c, d), complex_, "square", i)
        try:
            complex_.add_square(codes)
        except ConfigurationError as exc:
            raise ParseError(str(exc), line=i) from exc
    return complex_


def format_complex(complex_):
    """Write a complex with its cells named by their places, vertex p as
    v{p} and edge i as e{i}, so ids of any type serialize as single
    tokens.  Edge i runs from head[2i] to head[2i + 1]."""
    head = complex_.head
    out = [f"vertex v{p}" for p in range(len(complex_.vertices))]
    out += [f"edge e{i} v{head[2 * i]} v{head[2 * i + 1]}"
            for i in range(len(complex_.edges))]
    # Edge i has codes 2i (reversed) and 2i + 1.
    token = [f"e{c >> 1}" if c & 1 else f"e{c >> 1}-" for c in range(len(head))]
    for codes in complex_.square_codes:
        out.append("square " + " ".join([token[c] for c in codes]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Encoding traces.


def _word_str(word):
    return W.format_word(word) if word is not None else None


# The certificate's fields and their JSON types, but for tuple_uv, its
# words, written as strings.
_CERTIFICATE_FIELDS = {"m": int, "modulus": int, "rank": int, "base_rank": int,
                       "family_malnormal": bool, "translates_malnormal": bool}


def certificate_to_dict(cert):
    data = {key: getattr(cert, key) for key in _CERTIFICATE_FIELDS}
    data["tuple_uv"] = [W.format_word(c) for c in cert.tuple_uv]
    return data


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
    return MalnormalCertificate(tuple_uv=tuple_uv,
                                **{key: data[key] for key in _CERTIFICATE_FIELDS})


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
