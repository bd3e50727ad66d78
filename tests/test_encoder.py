"""The encoding pipeline: stage bookkeeping, certificates, determinism."""

import tracemalloc

import pytest

from forge import encoder
from forge import words as W
from forge.encoder import (TW, U_IN_TW, UV, V_IN_TW, MalnormalCertificate,
                           assemble_Gw, discrete_c_word, encode,
                           encode_discrete, revalidate_certificate,
                           select_malnormal_words, step_conjugators,
                           step_injective_generators, step_order_control)
from forge.errors import (AlphabetMismatchError, DegenerateInputError, ForgeError,
                          ThresholdError)
from forge.fileformats import trace_to_json
from forge.presentations import FinitePresentation, abelianization, substitute
from helpers import exponent_sum


def pres(gens, *rels):
    p = FinitePresentation(gens)
    return FinitePresentation(p.alphabet, [p.word(r) for r in rels])


class TestDerivedLetters:
    def test_zero_exponent_sums(self):
        for word in (U_IN_TW, V_IN_TW):
            assert exponent_sum(word, "t") == 0
            assert exponent_sum(word, "w") == 0

    def test_reduced_forms(self):
        assert str(U_IN_TW) == "w^-1 t w^-1 t^-1 w^2"
        assert str(V_IN_TW) == "w^-1 t w^2 t^-1 w^-1"


class TestStageOne:
    def test_counts(self):
        p = pres(["a"], "a^2")
        pd, wd = step_injective_generators(p, p.word("a"))
        m = 1
        assert len(pd.generators) == (m + 1) * (2 * m + 1)
        assert len(pd.relators) == (2 * m + 1) * (len(p.relators) + 1)
        assert str(wd) == "y1"

    def test_counts_two_generators(self):
        p = pres(["a", "b"], "a b")
        pd, _ = step_injective_generators(p, p.word("a b"))
        m = 2
        assert len(pd.generators) == (m + 1) * (2 * m + 1)
        assert len(pd.relators) == (2 * m + 1) * (len(p.relators) + 1)

    def test_identity_word_rejected(self):
        p = pres(["a"])
        with pytest.raises(DegenerateInputError):
            step_injective_generators(p, p.word("1"))


class TestStageTwoThree:
    def test_order_control_shapes(self):
        p = pres(["a"], "a^2")
        pd, wd = step_injective_generators(p, p.word("a"))
        pp, wp = step_order_control(pd, wd)
        assert len(pp.generators) == len(pd.generators) + 1
        assert pp.generators[0] == "a'_0"
        # w' is a commutator, so it dies under abelianization.
        assert all(exponent_sum(wp, g) == 0 for g in pp.generators)

    def test_conjugators(self):
        p = pres(["a"], "a^2")
        pd, wd = step_injective_generators(p, p.word("a"))
        pp, wp = step_order_control(pd, wd)
        p1, b_letters = step_conjugators(pp, wp)
        assert len(b_letters) == len(pp.generators)
        assert len(p1.generators) == 2 * len(pp.generators)
        assert len(p1.relators) == len(pp.relators) + len(b_letters)


class TestSelection:
    def test_certificates_for_small_m(self):
        for m in (0, 1):
            c_words, cert = select_malnormal_words(m, N=7)
            assert len(c_words) == m + 2
            assert cert.is_valid()
            assert cert.rank == m + 2
            assert revalidate_certificate(cert)

    def test_low_modulus_rejected(self):
        with pytest.raises(ThresholdError):
            select_malnormal_words(0, N=6)

    def test_commutator_family_certifies(self):
        """For m = 0..20 selection returns the family [u^{j+1}, v^{j+1}],
        j = 0..m+1, rewritten over {t, w}, and a certificate that
        revalidates."""
        u, v = UV.gen("u"), UV.gen("v")
        table = {"u": U_IN_TW, "v": V_IN_TW}
        for m in range(21):
            family = tuple(W.commutator(u ** (j + 1), v ** (j + 1))
                           for j in range(m + 2))
            c_words, cert = select_malnormal_words(m)
            assert cert.tuple_uv == family
            assert c_words == tuple(substitute(c, TW, table) for c in family)
            assert cert.is_valid()
            assert revalidate_certificate(cert)

    def test_failed_family_check_raises_once(self, monkeypatch):
        """A family that does not certify raises at once, naming m and the
        check; there is no second candidate to fall back to."""
        calls = []

        def short_rank(family):
            calls.append(family)
            return len(family) - 1, True

        monkeypatch.setattr(encoder, "_family_checks", short_rank)
        with pytest.raises(ForgeError, match=r"^m = 3: .* family rank 4 \(need 5\)$"):
            select_malnormal_words(3)
        assert len(calls) == 1

    def test_huge_modulus_refused_before_the_rose(self):
        """N rotation decisions over N + 1 ids, past MAX_WORD_LETTERS in
        all: selection raises and revalidation fails, with no rose of that
        size built."""
        with pytest.raises(DegenerateInputError, match="modulus 1000 "):
            select_malnormal_words(0, N=1000)
        _, cert = select_malnormal_words(0, N=7)
        assert not revalidate_certificate(cert._replace(modulus=10 ** 9))

    @pytest.mark.parametrize("N, error", [(6, ThresholdError),
                                          (1000, DegenerateInputError)])
    def test_kernel_checks_refuse_what_selection_refuses(self, N, error):
        """The kernel checks run the modulus check themselves, so
        revalidation refuses every modulus that selection refuses."""
        with pytest.raises(error, match=f"^modulus {N} "):
            encoder._kernel_checks(N)
        _, cert = select_malnormal_words(0, N=7)
        assert not revalidate_certificate(cert._replace(modulus=N))

    def test_revalidation_propagates_errors_it_does_not_refuse(self, monkeypatch):
        """Only a ForgeError from the kernel checks means the certificate
        fails; any other error, such as running out of memory, is raised
        and never reported as an invalid certificate."""
        _, cert = select_malnormal_words(0, N=7)

        def out_of_memory(N):
            raise MemoryError

        monkeypatch.setattr(encoder, "_kernel_checks", out_of_memory)
        with pytest.raises(MemoryError):
            revalidate_certificate(cert)

    def test_largest_modulus_check_stays_small(self):
        """The N = 999 rotation check keeps g's image tuples, not one
        element per power: its peak stays under 5 MB (the per-element maps
        it replaced held about 43 MB)."""
        tracemalloc.start()
        try:
            assert encoder._kernel_checks(999) == (3, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_tampered_certificate_fails(self):
        _, cert = select_malnormal_words(0, N=7)
        bad = MalnormalCertificate(
            m=cert.m, modulus=cert.modulus, tuple_uv=cert.tuple_uv,
            rank=cert.rank + 1, family_malnormal=cert.family_malnormal,
            base_rank=cert.base_rank,
            translates_malnormal=cert.translates_malnormal)
        assert not revalidate_certificate(bad)


class TestAssemble:
    def test_doubling(self):
        p = pres(["a", "s"], "a^2")
        c = [p.word("a s"), p.word("s")]
        q = assemble_Gw(p, ["a", "s"], c)
        assert len(q.generators) == 4
        assert "a'" in q.generators
        assert len(q.relators) == 2 * len(p.relators) + 4

    def test_mismatch_rejected(self):
        p = pres(["a"], "a^2")
        with pytest.raises(DegenerateInputError):
            assemble_Gw(p, ["a"], [])


class TestEncode:
    def test_identity_short_circuit(self):
        p = pres(["a"])
        trace = encode(p, p.word("1"))
        assert trace.short_circuited
        assert trace.p_w.generators == ("x",)
        assert len(trace.p_w.relators) == 1

    @pytest.mark.parametrize("word", ["1", "a"])
    @pytest.mark.parametrize("N", [0, 6])
    def test_low_modulus_rejected_for_every_word(self, word, N):
        """The identity word's short cut comes after the modulus check."""
        p = pres(["a"])
        with pytest.raises(ThresholdError, match=rf"^modulus {N} is below the "
                                                 r"certified threshold \(need > 6\)$"):
            encode(p, p.word(word), N=N)

    @pytest.mark.parametrize("word", ["1", "a"])
    def test_huge_modulus_rejected_for_every_word(self, word):
        """The identity word's short cut comes after the modulus size check
        too, so no trace of a modulus that selection refuses is written."""
        p = pres(["a"])
        with pytest.raises(DegenerateInputError,
                           match=r"^modulus 1000 makes 1000 rotation decisions over "
                                 r"1001 ids, more than 1000000 in all$"):
            encode(p, p.word(word), N=1000)

    @pytest.mark.parametrize("N", [998, 999])
    def test_largest_moduli_certify(self, N):
        """999 is the largest modulus `_check_modulus` admits (999 * 1000
        decisions' worth of ids): the kernel's N rotation translates still
        certify there, and the certificate revalidates."""
        p = pres(["a"], "a^2")
        trace = encode(p, p.word("a"), N=N)
        assert trace.certificate.modulus == N
        assert trace.certificate.is_valid()
        assert revalidate_certificate(trace.certificate)

    def test_deterministic(self):
        p = pres(["a"])
        t1 = encode(p, p.word("a"))
        t2 = encode(p, p.word("a"))
        assert trace_to_json(t1) == trace_to_json(t2)

    def test_stage_sizes(self):
        p = pres(["a"])
        trace = encode(p, p.word("a"))
        m = 1
        assert len(trace.p_dagger.generators) == (m + 1) * (2 * m + 1)
        assert len(trace.p_prime.generators) == (m + 1) * (2 * m + 1) + 1
        assert len(trace.p1.generators) == 2 * len(trace.p_prime.generators)
        assert len(trace.p2.generators) == len(trace.p1.generators) + 1
        assert len(trace.p_w.generators) == 2 * len(trace.p2.generators)

    def test_output_abelianization_trivial(self):
        p = pres(["a"])
        trace = encode(p, p.word("a"))
        inv = trace.abelianizations["p_w"]
        assert (inv.betti, inv.torsion) == (0, ())


class TestDiscrete:
    def test_c_word_formula(self):
        tw = W.Alphabet(["t", "w"])
        w_ = tw.gen("w")
        t = tw.gen("t")
        c0 = discrete_c_word(w_, t, 0)
        assert c0 == W.parse_word(tw, "t^-1 w t w t^-1 w^-1 t")

    def test_trivial_abelianization(self):
        p = pres(["a"])
        g = encode_discrete(p, p.word("a"))
        inv = abelianization(g)
        assert (inv.betti, inv.torsion) == (0, ())

    def test_identity_short_circuit(self):
        p = pres(["a"])
        g = encode_discrete(p, p.word("1"))
        assert g.generators == ("x",)

    def test_deterministic(self):
        p = pres(["a"], "a^3")
        assert encode_discrete(p, p.word("a")) == encode_discrete(p, p.word("a"))

    @pytest.mark.parametrize("gens, rel, word, taken, fresh", [
        (["b_0"], "b_0^2", "b_0", "b_0", "b_0_2"),   # a stable letter's name
        (["a", "a'"], "a^2", "a", "a'", "a'_2")])     # a's primed name
    def test_names_clashing_with_its_own_get_a_suffix(self, gens, rel, word, taken, fresh):
        """An input generator that holds a name the construction would
        pick keeps it; the construction's letter takes the next free
        `_k` name instead, as `encode` would do, and the output is the
        group of a clash-free input with the same shape."""
        p = pres(gens, rel)
        g = encode_discrete(p, p.word(word))
        assert taken in g.generators and fresh in g.generators
        assert len(set(g.generators)) == len(g.generators)
        q = pres([f"x{i}" for i in range(len(gens))], rel.replace(gens[0], "x0"))
        h = encode_discrete(q, q.word(word.replace(gens[0], "x0")))
        assert (len(g.generators), len(g.relators)) == (len(h.generators), len(h.relators))
        assert abelianization(g) == abelianization(h)


FOREIGN = W.parse_word(W.Alphabet(["z"]), "z")
FOREIGN_WORD = "word over a different alphabet than the presentation"


@pytest.mark.parametrize("call, error, message", [
    (lambda: step_injective_generators(pres(["a"]), FOREIGN), AlphabetMismatchError,
     FOREIGN_WORD),
    (lambda: step_order_control(pres(["a"]), FOREIGN), AlphabetMismatchError, FOREIGN_WORD),
    (lambda: step_conjugators(pres(["a"]), FOREIGN), AlphabetMismatchError,
     "conjugated word over a different alphabet"),
    (lambda: encode_discrete(pres(["a"]), FOREIGN), AlphabetMismatchError, FOREIGN_WORD),
    (lambda: select_malnormal_words(-1, 7), DegenerateInputError, "m must be nonnegative"),
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
