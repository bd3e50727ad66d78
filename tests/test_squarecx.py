"""Square complexes: links, geodesics, the scaled-copy construction, pi1."""

import ast
import os
import subprocess
import sys

import pytest

import forge
from forge.cli import main
from forge.errors import ConfigurationError, DegenerateInputError, ParseError
from forge.fileformats import parse_complex
from forge.presentations import FinitePresentation, abelianization
from forge.squarecx import (EdgeLoop, SquareComplex, build_S_of_P,
                            cellular_h1, check_link_condition,
                            homs_killing_copies, link, one_square_torus,
                            pi1_presentation)
from helpers import is_connected, oracle_canonical_square, reverse


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


TORUS = one_square_torus()
TORUS_TEXT = "vertex v\nedge a v v\nedge b v v\nsquare a b a- b-\n"
NOT_PAIRS = r"is not a path of \(edge, sign\) pairs"


class TestBasics:
    def test_torus_counts(self):
        assert len(TORUS.vertices) == 1
        assert len(TORUS.edges) == 2
        assert len(TORUS.squares) == 1
        assert TORUS.euler_characteristic() == 0

    def test_canonical_square_dihedral(self):
        sq = (("a", 1), ("b", 1), ("a", -1), ("b", -1))
        rotated = sq[2:] + sq[:2]
        flipped = tuple(reverse(d) for d in reversed(sq))
        squares = [SquareComplex(TORUS.vertices, TORUS.edges, [reading]).squares
                   for reading in (sq, rotated, flipped)]
        assert squares[0] == squares[1] == squares[2] == TORUS.squares

    def test_endpoint_refusal_names_its_edge(self):
        with pytest.raises(ConfigurationError,
                           match="^edge 'b' has an endpoint outside the complex$") as exc:
            SquareComplex(["v"], {"a": ("v", "v"), "b": ("v", "w")})
        assert exc.value.cell == ("edge", "b")

    def test_repeated_vertex_refusal_names_it(self):
        with pytest.raises(ConfigurationError, match="^vertex 'v' is repeated$") as exc:
            SquareComplex(["u", "v", "w", "v"], {"a": ("v", "v")})
        assert exc.value.cell == ("vertex", "v")

    def test_open_square_rejected(self):
        with pytest.raises(ConfigurationError):
            SquareComplex(["u", "v"], {"e": ("u", "v")},
                          [(("e", 1), ("e", 1), ("e", 1), ("e", 1))])

    def test_unknown_square_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown edge 'c'"):
            SquareComplex(TORUS.vertices, TORUS.edges,
                          [(("a", 1), ("b", 1), ("a", -1), ("c", -1))])

    def test_zero_sign_rejected(self):
        with pytest.raises(ConfigurationError, match="sign 0"):
            SquareComplex(TORUS.vertices, TORUS.edges,
                          [(("a", 1), ("b", 1), ("a", 0), ("b", -1))])

    # Each fault as one square of pairs, and where a file or --gamma can
    # spell it, the tokens that spell it and the unknown edge they name.
    # The ids number the rows as pytest did when the table had one column.
    @pytest.mark.parametrize("squares, message, spelled", [
        ([(5, 6, 7, 8)], NOT_PAIRS, ("5 6 7 8", "5")),
        ([(("a",), ("b", 1), ("a", -1), ("b", -1))], NOT_PAIRS, None),
        ([((["a"], 1), ("b", 1), ("a", -1), ("b", -1))], NOT_PAIRS, None),
        ([5], NOT_PAIRS, None),
        (["abcd"], NOT_PAIRS, None),
        ([(("a", 1), ("b", 1), ("a", -1), ("c", -1))], "unknown edge 'c'", ("a b a- c-", "c-")),
        ([(("a", 1), ("b", 1), ("a", 0), ("b", -1))], "has sign 0, not 1 or -1", None),
    ], ids=[f"squares{i}" for i in range(7)])
    def test_malformed_square_rejected(self, squares, message, spelled, tmp_path, capsys):
        """The complex's one lookup names each fault alike in a square, an
        edge loop, a `square` line of a file and --gamma."""
        with pytest.raises(ConfigurationError, match=message):
            SquareComplex(TORUS.vertices, TORUS.edges, squares)
        with pytest.raises(ConfigurationError, match=message):
            EdgeLoop(TORUS, squares[0])
        if spelled is None:
            return
        tokens, unknown = spelled
        with pytest.raises(ParseError, match=f"square references unknown edge '{unknown}'"):
            parse_complex(TORUS_TEXT + f"square {tokens}\n")
        (tmp_path / "p.txt").write_text("gens: a\nrel: a^2\n")
        (tmp_path / "x.txt").write_text(TORUS_TEXT)
        assert main(["sqc", "build", "--pres", str(tmp_path / "p.txt"), "--complex",
                     str(tmp_path / "x.txt"), "--gamma", tokens]) == 1
        assert f"error: gamma references unknown edge '{unknown}'" in capsys.readouterr().out

    @pytest.mark.parametrize("square, message", [
        ((("a", 1), ("b", 1), ("a", -1), ("c", -1)), "unknown edge 'c'"),
        ((("a", 1), ("b", 1), ("a", 0), ("b", -1)), "has sign 0, not 1 or -1"),
        ((5, 6, 7, 8), r"is not a path of \(edge, sign\) pairs"),
        ((("a", 1), ("b", 1), ("a", -1)), "must have exactly 4 edges"),
        ((("a", 1), ("b", 1), ("a", -1), ("b", -1), ("a", 1)), "must have exactly 4 edges"),
        ((("e", 1),) * 4, r"square boundary \(\('e', 1\), \('e', 1\), \('e', 1\), "
                          r"\('e', 1\)\) is not a closed edge path")])
    def test_coded_validation_keeps_its_messages(self, square, message):
        """Each fault is named as before, for squares of tuples and of lists."""
        vertices, edges = ["u", "v", "w"], {"a": ("w", "w"), "b": ("w", "w"), "e": ("u", "v")}
        for form in (square, [list(d) if isinstance(d, tuple) else d for d in square]):
            with pytest.raises(ConfigurationError, match=message):
                SquareComplex(vertices, edges, [form])

    @pytest.mark.parametrize("square", [
        [["a", 1], ["b", 1], ["a", -1], ["b", -1]],
        [("b", True), ("a", -1), ("b", -1), ("a", True)],
        [["b", -1], ["a", -1], ["b", True], ["a", 1]],
        (("a", -1), ("b", -1), ("a", 1), ("b", 1))])
    def test_lists_and_bool_signs_read_as_tuples(self, square):
        cx = SquareComplex(TORUS.vertices, TORUS.edges, [square])
        assert (cx.squares == [oracle_canonical_square(map(tuple, square), TORUS.edges)]
                == TORUS.squares)
        (codes,) = cx.square_codes
        assert cx.squares == [tuple(map(cx.directed, codes))]
        assert all(type(s) is int for _, s in cx.squares[0])


class TestLinkCondition:
    def test_torus_passes(self):
        ok, violations = check_link_condition(TORUS)
        assert ok and violations == []

    def test_torus_link_size(self):
        lk = link(TORUS, "v")
        assert len(lk.nodes) == 4
        assert len(lk.arcs) == 4

    def test_link_of_unknown_vertex_refused(self):
        with pytest.raises(ConfigurationError, match="^vertex 'w' is not in the complex$"):
            link(TORUS, "w")

    def test_all_edges_identified_fails(self):
        cx = SquareComplex(["v"], {"a": ("v", "v")},
                           [(("a", 1), ("a", 1), ("a", 1), ("a", 1))])
        ok, violations = check_link_condition(cx)
        assert not ok
        assert violations

    def test_bigon_detected(self):
        cx = SquareComplex(
            ["v"], {"a": ("v", "v"), "b": ("v", "v")},
            [(("a", 1), ("b", 1), ("a", -1), ("b", -1)),
             (("a", 1), ("b", -1), ("a", -1), ("b", 1))])
        ok, violations = check_link_condition(cx)
        assert not ok
        assert any(kind == "bigon" for _, kind, _ in violations)


HASH_SEED_SCRIPT = """
from forge.squarecx import SquareComplex, check_link_condition
names = "abcd"
squares = [((x, 1), (y, 1), (x, -1), (y, -1))
           for i, x in enumerate(names) for y in names[i + 1:]]
cx = SquareComplex(["v"], {g: ("v", "v") for g in names}, squares)
print(repr(check_link_condition(cx)))
"""


def test_violation_order_ignores_the_hash_seed():
    """Four loops at one vertex and the six commutator squares: 32
    violations, most of them triangles, listed alike under any hash seed."""
    src = os.path.dirname(os.path.dirname(forge.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    ok, violations = ast.literal_eval(outputs[0])
    assert not ok and len(violations) == 32


class TestEdgeLoop:
    def test_backtrack_rejected(self):
        for edges in ((("a", 1), ("a", -1)), [["a", 1], ["a", -1]]):
            with pytest.raises(ConfigurationError):
                EdgeLoop(TORUS, edges)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            EdgeLoop(TORUS, ())

    @pytest.mark.parametrize("edges", [[("zz", 1)], [("a", 2)], [("a", 0)],
                                       [("a", 1), ("zz", -1)],
                                       [("a",)], [("a", 1, 2)], [(["a"], 1)], [5]])
    def test_unknown_edge_or_sign_rejected(self, edges):
        with pytest.raises(ConfigurationError):
            EdgeLoop(TORUS, edges)
        with pytest.raises(ConfigurationError):
            build_S_of_P(pres(["a"], "a^2"), TORUS, edges)

    def test_aa_locally_geodesic(self):
        assert EdgeLoop(TORUS, (("a", 1), ("a", 1))).is_locally_geodesic()

    def test_ab_not_locally_geodesic(self):
        assert not EdgeLoop(TORUS, (("a", 1), ("b", 1))).is_locally_geodesic()


class TestBuild:
    def test_torus_relator_complex(self):
        p = pres(["a", "b"], "a b a^-1 b^-1")
        built = build_S_of_P(p, TORUS, [("a", 1), ("a", 1)])
        s = built.complex
        assert is_connected(s)
        n, m = len(p.generators), len(p.relators)
        assert s.euler_characteristic() == (1 - n) + m * TORUS.euler_characteristic()
        ok, _ = check_link_condition(s)
        assert ok

    def test_provenance_partition(self):
        """Every vertex and edge id says where it lies: the rose, or the
        copy or cylinder of a relator of p."""
        p = pres(["a", "b"], "a^2", "a b a^-1 b^-1")
        s = build_S_of_P(p, TORUS, [("a", 1), ("a", 1)]).complex
        places = set()
        for cell in list(s.vertices) + list(s.edges):
            assert cell[0] in ("rose", "copy", "cyl")
            if cell[0] != "rose":
                assert cell[1] in range(len(p.relators))
            places.add(cell[:1] if cell[0] == "rose" else cell[:2])
        assert places == {("rose",), ("copy", 0), ("copy", 1), ("cyl", 0), ("cyl", 1)}

    def test_non_geodesic_gamma_rejected(self):
        p = pres(["a"], "a^2")
        with pytest.raises(DegenerateInputError):
            build_S_of_P(p, TORUS, [("a", 1), ("b", 1)])

    def test_cell_count_bounded_before_building(self):
        """A relator of length l puts l * l squares in its copy: the count
        is checked against MAX_WORD_LETTERS before any cell is built."""
        with pytest.raises(DegenerateInputError, match="more than 1000000"):
            build_S_of_P(pres(["a", "b"], "a^5000"), TORUS, [("a", 1)])
        # The bound is on all the cells: 1 + 2 + (1 + 2 * 39 + 39 ** 2 + 40).
        s = build_S_of_P(pres(["a", "b"], "a^20"), TORUS, [("a", 1)]).complex
        assert len(s.vertices) + len(s.edges) + len(s.squares) == 1643

    def test_non_cyclically_reduced_relator_rejected(self):
        p = pres(["a", "b"], "a b a^-1")
        with pytest.raises(DegenerateInputError):
            build_S_of_P(p, TORUS, [("a", 1), ("a", 1)])


class TestPi1:
    def test_torus_pi1_abelianization(self):
        inv = abelianization(pi1_presentation(TORUS))
        assert (inv.betti, inv.torsion) == (2, ())

    def test_pi1_matches_cellular_h1(self):
        p = pres(["a", "b"], "a b a^-1 b^-1")
        built = build_S_of_P(p, TORUS, [("a", 1), ("a", 1)])
        assert abelianization(pi1_presentation(built.complex)) == \
            cellular_h1(built.complex)

    def test_cellular_h1_torus(self):
        inv = cellular_h1(TORUS)
        assert (inv.betti, inv.torsion) == (2, ())

    def test_cellular_h1_projective_like(self):
        # One loop, one square reading a^2 twice around: H1 = Z/2.
        cx = SquareComplex(
            ["v", "u"], {"a": ("v", "u"), "b": ("u", "v")},
            [(("a", 1), ("b", 1), ("a", 1), ("b", 1))])
        inv = cellular_h1(cx)
        assert (inv.betti, inv.torsion) == (0, (2,))

    @pytest.mark.parametrize("first", [
        (), (cellular_h1,), (SquareComplex.component_count,),
        (is_connected, cellular_h1)])
    def test_disconnected_pi1_refused_after_any_call(self, first):
        """A torus and a loop apart: the kept spanning forest has two trees,
        whichever call grew it, so pi1 refuses the complex every time."""
        cx = SquareComplex(
            ["u", "v", "w"], {"a": ("u", "u"), "b": ("u", "u"), "c": ("v", "w")},
            [(("a", 1), ("b", 1), ("a", -1), ("b", -1))])
        for call in first:
            call(cx)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="^complex is not connected$"):
                pi1_presentation(cx)
        assert cx.component_count() == 2
        assert cellular_h1(cx) == cellular_h1(TORUS)


class TestKillingCopies:
    def test_matches_hom_count(self):
        from forge.quotients import search_homs
        p = pres(["a"], "a^2")
        built = build_S_of_P(p, TORUS, [("a", 1), ("a", 1)])
        for n in (1, 2):
            assert homs_killing_copies(built, n) == len(search_homs(p, n))

    @pytest.mark.parametrize("gens, rels, gamma", [
        (["a"], ["a^2"], [("a", 1), ("a", 1)]),
        (["a"], ["a^3"], [("a", 1)]),
        (["a", "b"], ["a b a^-1 b^-1"], [("a", 1)]),
    ])
    def test_simplified_count_matches_unsimplified(self, gens, rels, gamma):
        """The count runs on the simplified killed presentation; hom counts
        are a group invariant, so it equals the count on the killed
        presentation as built."""
        from forge.quotients import search_homs
        from forge.squarecx import _copy_killing_relators, _pi1_with_letters
        built = build_S_of_P(pres(gens, *rels), TORUS, gamma)
        presentation, letter = _pi1_with_letters(built.complex)
        killed = FinitePresentation(presentation.alphabet, list(presentation.relators)
                                    + _copy_killing_relators(built, presentation, letter))
        for n in (2, 3):
            assert homs_killing_copies(built, n) == len(search_homs(killed, n))
