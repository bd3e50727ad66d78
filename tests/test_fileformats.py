"""File formats: round trips and error positions."""

import pytest

from forge import fileformats as FF
from forge import stallings as S
from forge import words as W
from forge.encoder import encode_discrete, select_malnormal_words, \
    revalidate_certificate, EncodingTrace
from forge.errors import ParseError
from forge.presentations import FinitePresentation, abelianization
from forge.squarecx import one_square_torus


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


class TestGraphFormat:
    BASE = "base\nvertex *\nedge a * * a\nedge b * * b\nbasepoint *\n"

    def test_base_round_trip(self):
        base = FF.parse_base_graph(self.BASE)
        assert FF.parse_base_graph(FF.format_base_graph(base)) == base

    def test_written_edges_are_sorted(self):
        base = FF.parse_base_graph("base\nvertex *\nedge b * * b\nedge a * * a\n")
        assert FF.format_base_graph(base) == "base\nvertex *\nedge a * * a\nedge b * * b\n"

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

    def test_unknown_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            FF.parse_graph_file("graph\nwibble 1 2\n")
        assert exc.value.line == 2


class TestComplexFormat:
    def test_round_trip(self):
        torus = one_square_torus()
        again = FF.parse_complex(FF.format_complex(torus))
        assert len(again.vertices) == 1
        assert len(again.edges) == 2
        assert len(again.squares) == 1
        assert again.euler_characteristic() == torus.euler_characteristic()

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


class TestTraceFormat:
    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"s"', '{"x": 1}',
                                      '{"stages": 5}', '{"stages": [1]}',
                                      '{"stages": {"p_w": 5}}',
                                      '{"stages": {}, "certificate": 5}',
                                      '{"stages": {}, "certificate": [1]}',
                                      '{"stages": {}, "certificate": {"m": 1}}'])
    def test_wrong_shape_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            FF.trace_from_json(text)

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
                              short_circuited=False, p_w=p_w)
        trace.abelianizations = {"input": abelianization(p),
                                 "p_w": abelianization(p_w)}
        text = FF.trace_to_json(trace)
        parsed = FF.trace_from_json(text)
        assert parsed["stages"]["p_w"] == p_w
        assert parsed["certificate"] is None
        assert parsed["data"]["abelianizations"]["p_w"]["betti"] == \
            abelianization(p_w).betti
