"""Square complexes: links, geodesics, the scaled-copy construction, pi1."""

import pytest

from forge.errors import ConfigurationError, DegenerateInputError
from forge.presentations import FinitePresentation, abelianization
from forge.squarecx import (EdgeLoop, SquareComplex, build_S_of_P,
                            cellular_h1, check_link_condition,
                            homs_killing_copies, link, one_square_torus,
                            pi1_presentation, reverse)


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


TORUS = one_square_torus()


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


class TestLinkCondition:
    def test_torus_passes(self):
        ok, violations = check_link_condition(TORUS)
        assert ok and violations == []

    def test_torus_link_size(self):
        lk = link(TORUS, "v")
        assert len(lk.nodes) == 4
        assert len(lk.arcs) == 4

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


class TestEdgeLoop:
    def test_backtrack_rejected(self):
        with pytest.raises(ConfigurationError):
            EdgeLoop(TORUS, (("a", 1), ("a", -1)))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            EdgeLoop(TORUS, ())

    def test_aa_locally_geodesic(self):
        assert EdgeLoop(TORUS, (("a", 1), ("a", 1))).is_locally_geodesic()

    def test_ab_not_locally_geodesic(self):
        assert not EdgeLoop(TORUS, (("a", 1), ("b", 1))).is_locally_geodesic()


class TestBuild:
    def test_torus_relator_complex(self):
        p = pres(["a", "b"], "a b a^-1 b^-1")
        built = build_S_of_P(p, TORUS, [("a", 1), ("a", 1)])
        s = built.complex
        assert s.is_connected()
        n, m = len(p.generators), len(p.relators)
        assert s.euler_characteristic() == (1 - n) + m * TORUS.euler_characteristic()
        ok, _ = check_link_condition(s)
        assert ok

    def test_provenance_partition(self):
        p = pres(["a"], "a^2")
        built = build_S_of_P(p, TORUS, [("a", 1), ("a", 1)])
        kinds = {prov[0] for prov in built.provenance.values()}
        assert kinds == {"rose", "copy", "cylinder"}

    def test_non_geodesic_gamma_rejected(self):
        p = pres(["a"], "a^2")
        with pytest.raises(DegenerateInputError):
            build_S_of_P(p, TORUS, [("a", 1), ("b", 1)])

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
        from forge.squarecx import _copy_killing_relators, _pi1_with_names
        built = build_S_of_P(pres(gens, *rels), TORUS, gamma)
        presentation, names = _pi1_with_names(built.complex)
        killed = FinitePresentation(presentation.alphabet, list(presentation.relators)
                                    + _copy_killing_relators(built, presentation, names))
        for n in (2, 3):
            assert homs_killing_copies(built, n) == len(search_homs(killed, n))
