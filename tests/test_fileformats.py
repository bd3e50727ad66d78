"""File formats: round trips and error positions."""

import random

import pytest
from hypothesis import given

from forge import fileformats as FF
from forge import stallings as S
from forge import words as W
from forge.encoder import encode_discrete, select_malnormal_words, \
    revalidate_certificate, EncodingTrace
from forge.errors import ParseError
from forge.presentations import FinitePresentation, abelianization
from forge.squarecx import build_S_of_P, one_square_torus, pi1_presentation

from helpers import derandomized, oracle_parse_complex, seeds
from test_golden import SEEDS, seeded_S_of_P


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


class TestPresentationFormat:
    def test_examples(self):
        p = FF.parse_presentation("gens: a\nrel: a^2")
        assert p.generators == ("a",)
        assert p.relators == (p.word("a^2"),)
        q = FF.parse_presentation("gens: a b\nrel: a b a^-1 b^-1")
        assert q == pres(["a", "b"], "a b a^-1 b^-1")

    def test_round_trip(self):
        corpus = [pres(["a"]), pres(["a"], "a^2"),
                  pres(["a", "b"], "a b a^-1 b^-1", "a^3"),
                  pres(["x'", "y_2"], "x' y_2^-3")]
        for p in corpus:
            assert FF.parse_presentation(FF.format_presentation(p)) == p

    def test_rel_before_gens_is_error(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_presentation("rel: a")
        assert exc.value.line == 1

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_presentation("gens: a\n\nrel: a q")
        assert exc.value.line == 3
        with pytest.raises(ParseError) as exc:
            FF.parse_presentation("gens: a a")
        assert exc.value.line == 1

    def test_comments_ignored(self):
        p = FF.parse_presentation("# comment\ngens: a\n# more\nrel: a^2\n")
        assert len(p.relators) == 1

    @pytest.mark.parametrize("text, message, line, column", [
        ("gens: a\ngens: b\n", "duplicate gens: line", 2, None),
        ("gens: a\nrelator: a\n", "expected gens: or rel:, got 'relator:'", 2, 1),
        ("# no generators\n", "presentation has no gens: line", 1, None)])
    def test_faults_name_their_line(self, text, message, line, column):
        assert_parse_error(lambda: FF.parse_presentation(text), message, line, column)


def assert_parse_error(call, message, line, column=None):
    """call() raises a ParseError with this message, line and column."""
    with pytest.raises(ParseError) as exc:
        call()
    assert (exc.value.args[0], exc.value.line, exc.value.column) == (
        ParseError(message, line, column).args[0], line, column)


def int_or_token(tok):
    """The id-token rule before tokens starting with a letter skipped int()."""
    try:
        return int(tok)
    except ValueError:
        return tok


# U+0663 is the Arabic-Indic digit three, U+00E4 a letter a with umlaut.
@pytest.mark.parametrize("tok", ["12", "-3", "+4", "1_000", "\u0663", "e1",
                                 "\u00e41", "_1", "x-", "v0"])
def test_token_matches_int_parse(tok):
    got, want = FF._token(tok), int_or_token(tok)
    assert (type(got), got) == (type(want), want)


def read_over_rose(text):
    """A graph file resolved over the rose on a, b, each refusal at its
    line, as load_immersion reads one."""
    graph, _, vmap, lines = FF._read_cells(text, "graph")
    return FF._resolve(graph, S.rose(["a", "b"]), vmap, True, lines)


class TestGraphFormat:
    BASE = "base\nvertex *\nedge a * * a\nedge b * * b\nbasepoint *\n"

    def test_base_round_trip(self):
        base = FF.parse_base_graph(self.BASE)
        assert FF.parse_base_graph(FF.format_base_graph(base)) == base

    def test_written_edges_keep_the_order_given(self):
        text = "base\nvertex *\nedge b * * b\nedge a * * a\n"
        assert FF.format_base_graph(FF.parse_base_graph(text)) == text

    def test_base_header_required(self):
        with pytest.raises(ParseError):
            FF.parse_base_graph("graph\nvertex 0\n")

    def test_label_must_equal_id(self):
        with pytest.raises(ParseError):
            FF.parse_base_graph("base\nvertex *\nedge a * * b\nedge b * * b\n")

    def test_immersion_round_trip(self, tmp_path):
        (tmp_path / "base.txt").write_text(self.BASE)
        base = FF.parse_base_graph(self.BASE)
        ab = W.Alphabet(["a", "b"])
        imm = S.graph_of_subgroup(base, [W.parse_word(ab, "a^2"),
                                         W.parse_word(ab, "b")])
        text = FF.format_immersion(imm, "base.txt")
        (tmp_path / "sub.txt").write_text(text)
        assert FF.load_immersion(tmp_path / "sub.txt") == (imm, "base.txt", text)

    def test_vmap_defaults_on_rose(self, tmp_path):
        (tmp_path / "base.txt").write_text(self.BASE)
        (tmp_path / "g.txt").write_text(
            "graph\nbase base.txt\nvertex 0\nedge e 0 0 a\nbasepoint 0\n")
        imm, _, _ = FF.load_immersion(tmp_path / "g.txt")
        assert imm.vmap == {0: "*"}

    def test_emap_checked(self):
        text = ("graph\nbase b.txt\nvertex 0\nedge e 0 0 a\n"
                "emap e b\n")
        with pytest.raises(ParseError):
            FF.parse_graph_file(text)
        # An emap may come before its edge: it is checked once all edges are read.
        graph, _, _ = FF.parse_graph_file("graph\nvertex 0\nemap e a\nedge e 0 0 a\n")
        assert graph.edges == {"e": (0, 0, "a")}
        before = "graph\nvertex 0\nemap e b\nedge e 0 0 a\n"
        assert_parse_error(lambda: FF.parse_graph_file(before),
                           "emap for e contradicts the edge label", 3)

    def test_edge_endpoint_names_its_line(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_graph_file("graph\nvertex 0\nedge 0 0 1 a\nvertex 2\n")
        assert exc.value.line == 3
        assert "edge 0 has an endpoint outside the graph" in str(exc.value)

    def test_basepoint_names_its_line(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_graph_file("graph\nbasepoint 9\nvertex 0\n")
        assert exc.value.line == 2
        assert "basepoint 9 is not a vertex" in str(exc.value)

    def test_unknown_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_graph_file("graph\nwibble 1 2\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("read, text, message, line", [
        (FF.parse_graph_file, "graph\nvertex 0 1\n", "vertex takes exactly one id", 2),
        (FF.parse_base_graph, "base\nvertex *\nedge a * *\n", "edge takes id, src, dst, label", 3),
        (FF.parse_base_graph, "base\nvertex *\nbasepoint\n", "basepoint takes exactly one id", 3),
        (FF.parse_graph_file, "graph\nbase b.txt c.txt\n", "base takes exactly one path", 2),
        (FF.parse_graph_file, "graph\nvertex 0\nvmap 0\n", "vmap takes vertex and base vertex", 3),
        (FF.parse_graph_file, "graph\nvertex 0\nedge e 0 0 a\nemap e\n",
         "emap takes edge and base edge", 4),
        (FF.parse_graph_file, "graph\nvertex 0\nedge e 0 0 a\nedge e 0 0 b\n",
         "duplicate edge id e", 4),
        (FF.parse_graph_file, "graph\nvertex 0\nvertex 1\nvertex 0\nbasepoint 0\n",
         "vertex 0 is repeated", 4),
        (FF.parse_base_graph, "base\nvertex *\nbasepoint *\nbasepoint *\n",
         "duplicate basepoint line", 4),
        (FF.parse_graph_file, "graph\nbase b.txt\nbase c.txt\n", "duplicate base line", 3),
        (FF.parse_base_graph, "base\nvertex *\nvmap * *\n",
         "unexpected line in base file: 'vmap * *'", 3),
        (FF.parse_base_graph, "base\nvmap * *\nvertex 0 1\n",
         "unexpected line in base file: 'vmap * *'", 2),
        (FF.parse_graph_file, "graph\nvmap 0\nvertex 0 1\n",
         "vmap takes vertex and base vertex", 2),
        (FF.parse_graph_file, "graph\nvertex 0\nvertex 1\nvertex 0\nvertex 1\nvertex 0\n",
         "vertex 0 is repeated", 4),
        (FF.parse_graph_file, "graph\nvertex 0\nvertex 1\nvmap 0 x\nvmap 1 x\nvmap 1 y\n",
         "duplicate vmap line for vertex 1", 6),
        (read_over_rose, "graph\nvertex 0\nvmap 9 *\n", "vmap names 9, which is not a vertex", 3),
        (read_over_rose, "graph\nvertex 0\nedge e 0 0 a\nedge f 0 0 a\nvmap 9 *\n",
         "vmap names 9, which is not a vertex", 5)])
    def test_faults_name_their_line(self, read, text, message, line):
        assert_parse_error(lambda: read(text), message, line)

    def test_unmapped_vertex_needs_a_rose(self):
        base = FF.parse_base_graph("base\nvertex x\nvertex y\nedge a x y a\n")
        graph, _, vmap = FF.parse_graph_file("graph\nvertex 0\n")
        assert_parse_error(lambda: FF.resolve_immersion(graph, base, vmap),
                           "no vmap entry for vertex 0 and the base is not a rose", None)

    def test_label_outside_the_base(self):
        base = FF.parse_base_graph(self.BASE)
        graph, _, vmap = FF.parse_graph_file("graph\nvertex 0\nedge e 0 0 c\n")
        assert_parse_error(lambda: FF.resolve_immersion(graph, base, vmap),
                           "edge 'e' carries unknown label 'c'", None)

    def test_loader_names_the_file(self, tmp_path):
        (tmp_path / "base.txt").write_text(self.BASE + "wibble\n")
        (tmp_path / "g.txt").write_text("graph\nbase base.txt\nvertex 0\n")
        with pytest.raises(ParseError) as exc:
            FF.load_immersion(tmp_path / "g.txt")
        assert (str(exc.value), exc.value.line) == (
            "base.txt: line 6: unexpected line in base file: 'wibble'", 6)

    def test_graph_file_needs_a_base_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("graph\nvertex 0\n")
        assert_parse_error(lambda: FF.load_immersion(path),
                           f"{path}: graph file has no base line", None)

    def test_id_with_whitespace_is_not_written(self):
        imm = S.GraphImmersion(S.LabeledGraph([(0, 1)], {}), S.rose(["a"]), {(0, 1): "*"})
        assert_parse_error(lambda: FF.format_immersion(imm, "base.txt"),
                           "id (0, 1) is not writable as a single token", None)

    def test_ids_that_write_alike_are_not_written(self):
        graph = S.LabeledGraph([1, "1"], {"e": (1, "1", "e")}, 1)
        assert_parse_error(lambda: FF.format_base_graph(graph),
                           "id '1' is written as 1, which reads back as 1", None)


# Ids of both types, some of whose tokens read back as another id: the name
# "1" and the int 1 both write `1`, "01", "+2" and "1_0" read as ints, and
# "٣" (an Arabic-Indic three) reads as the int 3.
MIXED_IDS = (0, 1, 2, 3, 10, -3, "0", "1", "01", "+2", "1_0", "٣", "a", "b1", "x-")


def read_alone(x):
    """The id that a base file reads from x's token, on its own line."""
    return FF.parse_base_graph(f"base\nvertex {x}\n").vertices[0]


@given(seeds)
@derandomized
def test_written_graphs_read_back_or_are_refused(seed):
    """A base graph over mixed int and str ids writes a file that reads
    back to the same graph and is written again in the same bytes, unless
    some id's token reads back, on its own, as another id; then the writer
    refuses it and writes nothing."""
    rng = random.Random(seed)
    vertices = rng.sample(MIXED_IDS, rng.randint(1, 5))
    edges = {e: (rng.choice(vertices), rng.choice(vertices), e)
             for e in rng.sample(MIXED_IDS, rng.randint(0, 4))}
    graph = S.LabeledGraph(vertices, edges, rng.choice([None, *vertices]))
    faithful = all(read_alone(x) == x for x in [*vertices, *edges])
    try:
        text = FF.format_base_graph(graph)
    except ParseError:
        assert not faithful
        return
    assert faithful
    back = FF.parse_base_graph(text)
    assert (back.vertices, back.edges, back.basepoint) == (
        graph.vertices, graph.edges, graph.basepoint)
    assert FF.format_base_graph(back) == text


class TestComplexFormat:
    def test_round_trip(self):
        torus = one_square_torus()
        again = FF.parse_complex(FF.format_complex(torus))
        assert len(again.vertices) == 1
        assert len(again.edges) == 2
        assert len(again.squares) == 1
        assert again.euler_characteristic() == torus.euler_characteristic()
        # A written complex reads back to the positions it was written in,
        # past v9 and e9 too: the same bytes and the same pi1 presentation.
        # S(P) of a^3 has 10 vertices and 22 edges.
        a3 = build_S_of_P(pres(["a"], "a^3"), torus, [("a", 1)])
        for built in [a3] + [seeded_S_of_P(seed) for seed in SEEDS]:
            text = FF.format_complex(built.complex)
            again = FF.parse_complex(text)
            assert FF.format_complex(again) == text
            assert pi1_presentation(again) == pi1_presentation(built.complex)

    def test_reverse_marker(self):
        cx = FF.parse_complex(
            "vertex v\nedge a v v\nedge b v v\nsquare a b a- b-\n")
        signs = sorted(s for _, s in cx.squares[0])
        assert signs == [-1, -1, 1, 1]
        from forge.squarecx import check_link_condition
        ok, _ = check_link_condition(cx)
        assert ok

    def test_unknown_edge_in_square(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_complex("vertex v\nedge a v v\nsquare a a a c\n")
        assert exc.value.line == 3

    def test_edge_endpoint_names_its_line(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_complex("vertex v\nedge a v w\nvertex u\n")
        assert exc.value.line == 2
        assert "edge 'a' has an endpoint outside the complex" in str(exc.value)

    def test_open_square_names_its_line(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_complex("vertex u\nvertex v\nedge a u v\nsquare a a a a\n")
        assert exc.value.line == 4
        assert "not a closed edge path" in str(exc.value)

    @pytest.mark.parametrize("text, message, line", [
        ("vertex v\nvertex v\nedge a v v\n", "vertex 'v' is repeated", 2),
        ("vertex 1\nvertex 01\nedge a 1 1\n", "vertex 1 is repeated", 2),
        ("vertex 0\nvertex 1\nvertex 1\nvertex 0\n", "vertex 1 is repeated", 3)])
    def test_repeated_vertex_names_its_line(self, text, message, line):
        """Two vertex lines for one id, also in two spellings, are refused
        at the second, as the graph reader refuses them; of several repeats,
        the first is named."""
        assert_parse_error(lambda: FF.parse_complex(text), message, line)


# Ids the reader's token table holds as written, and spellings it does not:
# ints written with a leading 0 or +, ids ending in `-`, and `-` alone.
VERTEX_TOKENS = ("v", "w-", "0", "01", "+2", "-")
EDGE_TOKENS = ("a", "a-", "b--", "-", "01", "+2", "3", "e")


def spellings(tok):
    """Ways to write the id that tok names: tok, and for an int its other
    decimal spellings."""
    try:
        n = int(tok)
    except ValueError:
        return [tok]
    return [tok, str(n), f"0{n}", f"+{n}"]


def odd_id_lines(rng):
    """Vertex and edge lines over odd ids, each endpoint in some spelling of
    its vertex, and squares along closed 4-paths, each edge in some
    spelling and reversed with a `-`."""
    vertices = rng.sample(VERTEX_TOKENS, rng.randint(1, len(VERTEX_TOKENS)))
    edges = {t: (rng.choice(vertices), rng.choice(vertices))
             for t in rng.sample(EDGE_TOKENS, rng.randint(1, len(EDGE_TOKENS)))}
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {e} {rng.choice(spellings(a))} {rng.choice(spellings(b))}"
              for e, (a, b) in edges.items()]
    steps = [(e, 1, FF._token(a), FF._token(b)) for e, (a, b) in edges.items()]
    steps += [(e, -1, end, start) for e, _, start, end in steps]
    for _ in range(rng.randint(0, 5)):
        path = [rng.choice(steps)]
        while len(path) < 4:
            path.append(rng.choice([d for d in steps if d[2] == path[-1][3]]))
        lines.append("square " + " ".join(rng.choice(spellings(e)) + ("" if s > 0 else "-")
                                          for e, s, _, _ in path))
    return lines


def break_one(rng, lines):
    """The lines with one fault: an unknown edge, a line of the wrong
    arity, an open square, a duplicate edge id, an endpoint outside the
    complex or an unknown line kind."""
    lines = list(lines)
    squares = [i for i, line in enumerate(lines) if line.startswith("square")]
    edges = [line.split()[1] for line in lines if line.startswith("edge")]
    v = lines[0].split()[1]   # the first vertex
    fault = rng.randrange(6)
    if fault == 0 and squares:
        i = rng.choice(squares)
        tokens = lines[i].split()
        tokens[rng.randint(1, 4)] = rng.choice(("zz", "zz-", "a--", "0x1"))
        lines[i] = " ".join(tokens)
    elif fault == 1:
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        lines[i] = " ".join(tokens[:-1] if rng.random() < 0.5 else tokens + ["x"])
    elif fault == 2 and squares and edges:
        i = rng.choice(squares)
        tokens = lines[i].split()
        tokens[rng.randint(1, 4)] = rng.choice(edges) + rng.choice(("", "-"))
        lines[i] = " ".join(tokens)
    elif fault == 3 and edges:
        lines.append(f"edge {rng.choice(spellings(rng.choice(edges)))} {v} {v}")
    elif fault == 4:
        lines.append(f"edge stray {rng.choice(('nowhere', '7'))} {v}")
    else:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("face a b c d", "v 1", "Vertex v")))
    return lines


def decorate(rng, lines):
    """The same lines in another order, with comments, blank lines and
    other whitespace between and around the tokens."""
    lines = list(lines)
    if rng.random() < 0.7:
        rng.shuffle(lines)
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(("", "   ", "\t", "# note", "  #square a b c d", "#")))
    gaps = (" ", "  ", "\t", " \t ")
    return "\n".join(rng.choice(("", " ", "\t")) + rng.choice(gaps).join(line.split())
                     + rng.choice(("", " ")) for line in lines) + rng.choice(("", "\n"))


def read_with(parse, text):
    """What a reader makes of text: its cell tables, or its error."""
    try:
        cx = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return cx.vertex_order, cx.edge_order, cx.head, cx.square_codes


@given(seeds)
@derandomized
def test_reader_matches_the_oracle(seed):
    """parse_complex reads squares through a table of edge tokens as
    written; the reader it replaced (helpers.py) reads each token alone.
    On written S(P) files and on odd ids, shuffled and decorated, with a
    fault or not, both give the same vertex and edge orders, heads and
    square codes, or the same error at the same line and column."""
    rng = random.Random(seed)
    if rng.random() < 0.4:
        lines = FF.format_complex(seeded_S_of_P(rng.randrange(2 ** 32)).complex).splitlines()
    else:
        lines = odd_id_lines(rng)
    if rng.random() < 0.5:
        lines = break_one(rng, lines)
    text = decorate(rng, lines)
    assert read_with(FF.parse_complex, text) == read_with(oracle_parse_complex, text)


class TestTraceFormat:
    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"s"', '{"x": 1}',
                                      '{"stages": 5}', '{"stages": [1]}',
                                      '{"stages": {"p_w": 5}}',
                                      '{"stages": {}, "certificate": 5}',
                                      '{"stages": {}, "certificate": [1]}',
                                      '{"stages": {}, "certificate": {"m": 1}}',
                                      "{not json", '{"stages": {},\n  not json}'])
    def test_wrong_shape_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            FF.trace_from_json(text)
        # Malformed JSON names its line; a trace of the wrong shape has none.
        assert exc.value.line == {"{not json": 1,
                                  '{"stages": {},\n  not json}': 2}.get(text)

    @pytest.mark.parametrize("tuple_uv, message", [
        ('"u v"', "certificate field 'tuple_uv' must be a list of words"),
        ('["u", 1]', "certificate field 'tuple_uv' must be a list of words"),
        ('["u q"]', "certificate word: unknown generator 'q' (alphabet ('u', 'v'))"),
        ('["u^"]', "certificate word: bad word token 'u^'")])
    def test_certificate_words_are_checked(self, tuple_uv, message):
        text = ('{"stages": {}, "certificate": {"m": 1, "modulus": 7, "rank": 3, '
                '"base_rank": 3, "family_malnormal": true, '
                f'"translates_malnormal": true, "tuple_uv": {tuple_uv}}}}}')
        assert_parse_error(lambda: FF.trace_from_json(text), message, None)

    def test_certificate_round_trip(self):
        _, cert = select_malnormal_words(0, N=7)
        data = FF.certificate_to_dict(cert)
        again = FF.certificate_from_dict(data)
        assert again == cert
        assert revalidate_certificate(again)

    def test_discrete_trace_round_trip(self):
        p = pres(["a"], "a^3")
        p_w = encode_discrete(p, p.word("a"))
        trace = EncodingTrace(p, p.word("a"), modulus=0,
                              short_circuited=False, p_w=p_w,
                              abelianizations={"input": abelianization(p),
                                               "p_w": abelianization(p_w)})
        text = FF.trace_to_json(trace)
        parsed = FF.trace_from_json(text)
        assert parsed["stages"]["p_w"] == p_w
        assert parsed["certificate"] is None
        assert parsed["data"]["abelianizations"]["p_w"]["betti"] == \
            abelianization(p_w).betti
