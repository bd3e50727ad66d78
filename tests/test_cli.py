"""The forge command line: exit codes, report shape, file plumbing."""

import os
import re
import subprocess
import sys

import pytest

import forge
from forge.cli import EXIT_CODES, RunReport, main

BASE = "base\nvertex *\nedge a * * a\nedge b * * b\nbasepoint *\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "base.txt").write_text(BASE)
    (tmp_path / "sub.txt").write_text(
        "graph\nbase base.txt\n"
        "vertex 0\nvertex 1\n"
        "edge e0 0 1 a\nedge e1 1 0 a\n"
        "basepoint 0\n")
    (tmp_path / "free.txt").write_text("gens: a b\n")
    (tmp_path / "torus_pres.txt").write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    (tmp_path / "dead.txt").write_text("gens: a\nrel: a\n")
    (tmp_path / "torus_cx.txt").write_text(
        "vertex v\nedge a v v\nedge b v v\nsquare a b a- b-\n")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def untimed_lines(out):
    return [line for line in out.splitlines() if not line.startswith("timing: ")]


SUB_DIGEST = "sha256:4d1092fee14a3f04"  # of sub.txt's text


class TestReport:
    def test_field_order_stable(self):
        r = RunReport("demo", {"x": "00", "a": "11"}, "certified",
                      timing=0.5, artifacts=["out.txt"],
                      details=[("k", "v")])
        lines = r.to_text().splitlines()
        assert lines[0] == "command: demo"
        assert lines[1] == "status: certified"
        assert lines[2] == "input a: sha256:11"
        assert lines[3] == "input x: sha256:00"
        assert lines[4] == "timing: 0.500s"
        assert lines[5] == "artifact: out.txt"
        assert lines[6] == "k: v"

    def test_status_vocabulary_fixed(self):
        with pytest.raises(ValueError):
            RunReport("demo", {}, "maybe")
        assert EXIT_CODES == {"certified": 0, "witness": 0, "refuted": 1,
                              "inconclusive": 2, "error": 1}


# Each command on tiny inputs: its argv, whether it takes --out, and its
# argv with one bad input file.
COMMANDS = {
    "fold": (("fold", "sub.txt"), True, ("fold", "bad_graph.txt")),
    "core": (("core", "sub.txt"), True, ("core", "bad_graph.txt")),
    "fibre": (("fibre", "sub.txt", "sub.txt"), False,
              ("fibre", "sub.txt", "bad_graph.txt")),
    "malnormal": (("malnormal", "sub.txt"), False,
                  ("malnormal", "sub.txt", "bad_graph.txt")),
    "abel": (("abel", "torus_pres.txt"), False, ("abel", "bad_pres.txt")),
    "freepow": (("freepow", "torus_pres.txt", "2"), True,
                ("freepow", "bad_pres.txt", "2")),
    "encode": (("encode", "dead.txt", "--word", "a", "--discrete"), True,
               ("encode", "bad_pres.txt", "--word", "a", "--discrete")),
    "quotients": (("quotients", "torus_pres.txt", "--max-degree", "3"), False,
                  ("quotients", "bad_pres.txt", "--max-degree", "3")),
    "sqc check": (("sqc", "check", "torus_cx.txt"), False,
                  ("sqc", "check", "bad_cx.txt")),
    "sqc build": (("sqc", "build", "--pres", "torus_pres.txt",
                   "--complex", "torus_cx.txt", "--gamma", "a a"), True,
                  ("sqc", "build", "--pres", "torus_pres.txt",
                   "--complex", "bad_cx.txt", "--gamma", "a a")),
    "sqc pi1": (("sqc", "pi1", "torus_cx.txt"), True, ("sqc", "pi1", "bad_cx.txt")),
    "probe": (("probe", "a2.txt", "--word", "a", "--max-degree", "1"), False,
              ("probe", "bad_pres.txt", "--word", "a")),
}


class TestReportPath:
    """main builds every command's report: it names the command, sets the
    exit code from the status and lists what the handler wrote."""

    @pytest.fixture
    def files(self, workdir):
        (workdir / "a2.txt").write_text("gens: a\nrel: a^2\n")
        (workdir / "bad_graph.txt").write_text("graph\nbase base.txt\nvertex 0\nwibble\n")
        (workdir / "bad_pres.txt").write_text("gens: a b\nrel: a zz\n")
        (workdir / "bad_cx.txt").write_text("vertex v\nedge a v w\n")
        return workdir

    @staticmethod
    def run_lines(capsys, workdir, argv):
        """The exit code and the report's lines, which follow what a
        command without --out writes to stdout."""
        code, out = run(capsys, *[workdir / a if a.endswith(".txt") else a for a in argv])
        lines = out.splitlines()
        return code, lines[max(i for i, line in enumerate(lines)
                               if line.startswith("command: ")):]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_report_path(self, files, capsys, command):
        argv, takes_out, bad_argv = COMMANDS[command]
        out_file = files / "out.txt"
        for out in ((), ("--out", "out.txt")) if takes_out else ((),):
            code, lines = self.run_lines(capsys, files, argv + out)
            assert lines[0] == f"command: {command}"
            status = lines[1].removeprefix("status: ")
            assert status != "error" and code == EXIT_CODES[status], lines
            assert [line for line in lines if line.startswith("input ")]
            assert len([line for line in lines if line.startswith("timing: ")]) == 1
            assert [line for line in lines if line.startswith("artifact:")] \
                == ([f"artifact: {out_file}"] if out else [])
        code, lines = self.run_lines(capsys, files, bad_argv)
        assert code == 1
        assert lines[:2] == [f"command: {command}", "status: error"]
        assert not [line for line in lines if line.startswith(("input ", "artifact:"))]
        bad = next(a for a in bad_argv if a.startswith("bad_"))
        assert lines[-1].startswith(f"error: {files / bad}: line ")

    @pytest.mark.parametrize("pres, complex_, error", [
        ("bad_pres.txt", "torus_cx.txt",
         "bad_pres.txt: line 2, column 6: unknown generator 'zz' (alphabet ('a', 'b'))"),
        ("torus_pres.txt", "bad_cx.txt",
         "bad_cx.txt: line 2: edge 'a' has an endpoint outside the complex")])
    def test_sqc_build_names_the_bad_file(self, files, capsys, pres, complex_, error):
        """`sqc build` reads two files; its error names the one at fault."""
        code, lines = self.run_lines(capsys, files, (
            "sqc", "build", "--pres", pres, "--complex", complex_, "--gamma", "a"))
        assert code == 1
        assert [line for line in lines if line.startswith("error:")] \
            == [f"error: {files}/{error}"]


class TestGraphCommands:
    def test_core(self, workdir, capsys):
        out_file = workdir / "core.txt"
        code, out = run(capsys, "core", workdir / "sub.txt", "--out", out_file)
        assert code == 0
        assert "status: certified" in out
        assert out_file.read_text().startswith("graph\n")

    def test_fold(self, workdir, capsys):
        code, out = run(capsys, "fold", workdir / "sub.txt")
        assert code == 0
        assert untimed_lines(out) == [
            "graph", "base base.txt", "vertex 0", "vertex 1", "edge 0 0 1 a",
            "edge 1 1 0 a", "basepoint 0", "vmap 0 *", "vmap 1 *",
            "command: fold", "status: certified", f"input graph: {SUB_DIGEST}",
            "vertices: 2", "edges: 2"]

    def test_fold_and_core_of_mixed_label_types(self, workdir, capsys):
        # Edge ids `1` and `a` read as an int and a name; labels order as
        # the base lists them, so the 1-edge comes first.
        (workdir / "mixed_base.txt").write_text(
            "base\nvertex v\nedge 1 v v 1\nedge a v v a\nbasepoint v\n")
        (workdir / "mixed.txt").write_text(
            "graph\nbase mixed_base.txt\nvertex 0\nvertex 1\n"
            "edge e0 0 0 a\nedge e1 0 1 1\nbasepoint 0\n")
        digest = "input graph: sha256:096d767564e7d13e"
        code, out = run(capsys, "fold", workdir / "mixed.txt")
        assert code == 0
        assert untimed_lines(out) == [
            "graph", "base mixed_base.txt", "vertex 0", "vertex 1", "edge 0 0 1 1",
            "edge 1 0 0 a", "basepoint 0", "vmap 0 v", "vmap 1 v",
            "command: fold", "status: certified", digest, "vertices: 2", "edges: 2"]
        code, out = run(capsys, "core", workdir / "mixed.txt")
        assert code == 0
        assert untimed_lines(out) == [
            "graph", "base mixed_base.txt", "vertex 0", "edge 0 0 0 a",
            "basepoint 0", "vmap 0 v", "command: core", "status: certified",
            digest, "vertices: 1", "edges: 1"]

    def test_fold_writes_edges_in_numeric_order_and_again_the_same_bytes(
            self, workdir, capsys):
        (workdir / "ring.txt").write_text(
            "graph\nbase base.txt\n"
            + "".join(f"vertex {v}\n" for v in range(12))
            + "".join(f"edge r{v} {v} {(v + 1) % 12} a\n" for v in range(12))
            + "basepoint 0\n")
        first, again = workdir / "fold1.txt", workdir / "fold2.txt"
        assert run(capsys, "fold", workdir / "ring.txt", "--out", first)[0] == 0
        written = first.read_text()
        assert [line.split()[1] for line in written.splitlines()
                if line.startswith("edge ")] == [str(k) for k in range(12)]
        assert run(capsys, "fold", first, "--out", again)[0] == 0
        assert again.read_bytes() == first.read_bytes()

    def test_fibre_reports_components(self, workdir, capsys):
        code, out = run(capsys, "fibre", workdir / "sub.txt", workdir / "sub.txt")
        assert code == 0
        assert untimed_lines(out) == [
            "command: fibre", "status: certified",
            f"input graph1: {SUB_DIGEST}", f"input graph2: {SUB_DIGEST}",
            "components: 2",
            "component 0: vertices=2 edges=2 rank=1 tree=False diagonal=True",
            "component 1: vertices=2 edges=2 rank=1 tree=False diagonal=False"]

    def test_malnormal_refuted_exits_1(self, workdir, capsys):
        code, out = run(capsys, "malnormal", workdir / "sub.txt")
        assert code == 1
        assert untimed_lines(out) == [
            "command: malnormal", "status: refuted", f"input graph0: {SUB_DIGEST}",
            "witness pair: 0,0", "witness component: vertices=2 edges=2 rank=1"]

    def test_malnormal_self_pair_witness_off_the_diagonal(self, workdir, capsys):
        # Two one-loop vertices: the self product has four loops, (0,0) and
        # (1,1) diagonal, so the witness is the loop at (0,1), component 1.
        (workdir / "loops.txt").write_text(
            "graph\nbase base.txt\nvertex 0\nvertex 1\n"
            "edge e0 0 0 a\nedge e1 1 1 a\n")
        code, out = run(capsys, "fibre", workdir / "loops.txt", workdir / "loops.txt")
        assert code == 0
        assert untimed_lines(out)[4:] == [
            "components: 4",
            "component 0: vertices=1 edges=1 rank=1 tree=False diagonal=True",
            "component 1: vertices=1 edges=1 rank=1 tree=False diagonal=False",
            "component 2: vertices=1 edges=1 rank=1 tree=False diagonal=False",
            "component 3: vertices=1 edges=1 rank=1 tree=False diagonal=True"]
        code, out = run(capsys, "malnormal", workdir / "loops.txt")
        assert code == 1
        assert untimed_lines(out) == [
            "command: malnormal", "status: refuted",
            "input graph0: sha256:f7ad521c5a4ff737",
            "witness pair: 0,0", "witness component: vertices=1 edges=1 rank=1"]

    def test_bases_in_another_vertex_order_are_one_base(self, workdir, capsys):
        # The same two-vertex base and graph, with their `vertex` lines in
        # the other order: one base and one immersion, so the product's one
        # component is diagonal, and the pair refutes off the self products.
        pq = "base\nvertex p\nvertex q\nedge a p q a\nedge b q p b\nbasepoint p\n"
        (workdir / "pq.txt").write_text(pq)
        (workdir / "qp.txt").write_text(pq.replace("vertex p\nvertex q", "vertex q\nvertex p"))
        cycle = ("graph\nbase {}\nvertex 0\nvertex 1\nedge e0 0 1 a\nedge e1 1 0 b\n"
                 "basepoint 0\nvmap 0 p\nvmap 1 q\n")
        (workdir / "g1.txt").write_text(cycle.format("pq.txt"))
        (workdir / "g2.txt").write_text(
            cycle.format("qp.txt").replace("vertex 0\nvertex 1", "vertex 1\nvertex 0"))
        code, out = run(capsys, "fibre", workdir / "g1.txt", workdir / "g2.txt")
        assert code == 0
        assert untimed_lines(out)[4:] == [
            "components: 1",
            "component 0: vertices=2 edges=2 rank=1 tree=False diagonal=True"]
        code, out = run(capsys, "malnormal", workdir / "g1.txt", workdir / "g2.txt")
        assert code == 1
        assert untimed_lines(out)[4:] == [
            "witness pair: 0,1", "witness component: vertices=2 edges=2 rank=1"]

    def test_malnormal_certified_exits_0(self, workdir, capsys):
        # <a> over the rose on a, b: its self product is the diagonal loop.
        (workdir / "gen.txt").write_text(
            "graph\nbase base.txt\nvertex 0\nedge e0 0 0 a\nbasepoint 0\n")
        code, out = run(capsys, "malnormal", workdir / "gen.txt")
        assert code == 0
        assert untimed_lines(out) == [
            "command: malnormal", "status: certified",
            "input graph0: sha256:dbb8e90057ddaf26", "family size: 1"]

    def test_malnormal_base_mismatch_is_one_error_line(self, workdir, capsys):
        # <a> certifies on its own, so the scan reaches the pair over two bases.
        (workdir / "base3.txt").write_text(BASE.replace("basepoint", "edge c * * c\nbasepoint"))
        (workdir / "gen.txt").write_text(
            "graph\nbase base.txt\nvertex 0\nedge e0 0 0 a\nbasepoint 0\n")
        (workdir / "other.txt").write_text(
            "graph\nbase base3.txt\nvertex 0\nedge e0 0 0 c\nbasepoint 0\n")
        code, out = run(capsys, "malnormal", workdir / "gen.txt", workdir / "other.txt")
        assert code == 1
        assert untimed_lines(out) == [
            "command: malnormal", "status: error",
            "error: fibre product requires a common base graph"]


class TestPresentationCommands:
    def test_abel(self, workdir, capsys):
        code, out = run(capsys, "abel", workdir / "torus_pres.txt")
        assert code == 0
        assert "betti: 2" in out

    def test_freepow(self, workdir, capsys):
        code, out = run(capsys, "freepow", workdir / "dead.txt", "3")
        assert code == 0
        assert "gens: a a_2 a_3" in out

    def test_quotients_witness(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "torus_pres.txt",
                        "--max-degree", "3")
        assert code == 0
        assert "status: witness" in out
        assert re.search(r"degree 2: nodes=\d+", out)

    def test_quotients_inconclusive(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "dead.txt",
                        "--max-degree", "4")
        assert code == 2
        assert "status: inconclusive" in out

    def test_quotients_orders(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "free.txt",
                        "--max-degree", "5", "--orders", "1:2,3")
        assert code == 0
        assert "status: witness" in out

    def test_quotients_word(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "free.txt",
                        "--max-degree", "3", "--word", "a b a^-1 b^-1")
        assert code == 0

    def test_quotients_empty_word_is_the_identity(self, workdir, capsys):
        """An empty --word asks about the identity word, as --word 1 does:
        no quotient can make it survive, so the search is inconclusive."""
        (workdir / "a2.txt").write_text("gens: a b\nrel: a^2\n")
        reports = []
        for word in ("", "1"):
            code, out = run(capsys, "quotients", workdir / "a2.txt",
                            "--max-degree", "3", "--word", word)
            assert code == 2
            reports.append([line for line in untimed_lines(out)
                            if not line.startswith("input word: ")])
        assert reports[0] == reports[1]
        assert "status: inconclusive" in reports[0]

    def test_quotients_perfect_group_starts_at_degree_5(self, workdir, capsys):
        """A_5 has H_1 = 0: degrees 2-4 are excluded, candidates are even,
        and the degree-5 witness is the one the search from degree 2 finds."""
        (workdir / "a5.txt").write_text(
            "gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b a b a b\n")
        code, out = run(capsys, "quotients", workdir / "a5.txt", "--max-degree", "5")
        assert code == 0
        assert untimed_lines(out)[2:] == [
            "input presentation: sha256:8a31463313504d4a",
            "degrees 2-4: excluded (H1 = 0)",
            "candidates: even permutations (|H1| odd)",
            "degree 5: nodes=5",
            "witness degree: 5",
            "witness a: (2 3)(4 5)",
            "witness b: (1 2 4)"]

    def test_quotients_odd_torsion_draws_even_candidates(self, workdir, capsys):
        """H_1 = Z/3: candidates are even, and degree 2, whose only even
        permutation is the identity, is excluded."""
        (workdir / "a3.txt").write_text("gens: a\nrel: a^3\n")
        code, out = run(capsys, "quotients", workdir / "a3.txt", "--max-degree", "3")
        assert code == 0
        assert untimed_lines(out)[3:] == [
            "degree 2: excluded (|H1| odd)",
            "candidates: even permutations (|H1| odd)",
            "degree 3: nodes=3",
            "witness degree: 3", "witness a: (1 2 3)"]


class TestProbeCommand:
    @pytest.fixture
    def a2(self, workdir):
        path = workdir / "a2.txt"
        path.write_text("gens: a\nrel: a^2\n")
        return path

    def test_perfect_output_enters_no_degree_below_5(self, a2, capsys):
        """The encoder's output is perfect, so a search to degree 4 spends
        no node and says why."""
        code, out = run(capsys, "probe", a2, "--word", "a", "--max-degree", "4")
        assert code == 2
        assert untimed_lines(out)[4:] == [
            "output generators: 30", "output relators: 42",
            "degrees 2-4: excluded (H1 = 0)",
            "conclusion: no witness found; no conclusion"]

    def test_no_degree_to_search(self, a2, capsys):
        code, out = run(capsys, "probe", a2, "--word", "a", "--max-degree", "1")
        assert code == 2
        assert untimed_lines(out)[4:] == [
            "output generators: 30", "output relators: 42",
            "conclusion: no witness found; no conclusion"]

    def test_budget_hit_names_the_degree(self, a2, capsys):
        """A search the node budget stops says where, in the degree lines
        forge quotients prints; the refused node is counted."""
        code, out = run(capsys, "probe", a2, "--word", "a", "--max-degree", "5",
                        "--max-nodes", "200")
        assert code == 2
        assert untimed_lines(out)[4:] == [
            "output generators: 30", "output relators: 42",
            "degrees 2-4: excluded (H1 = 0)",
            "candidates: even permutations (|H1| odd)",
            "degree 5: nodes=201 (budget hit)",
            "conclusion: no witness found; no conclusion"]

    def test_inputs_digested_as_given(self, workdir, capsys):
        """probe digests its presentation file and its word as written, as
        abel and quotients do, not as forge would write them."""
        path = workdir / "aa.txt"
        path.write_text("gens: a\nrel: a a\n")
        _, abel = run(capsys, "abel", path)
        _, quotients = run(capsys, "quotients", path, "--word", "a^1", "--max-degree", "1")
        _, probe = run(capsys, "probe", path, "--word", "a^1", "--max-degree", "1")
        inputs = [line for line in probe.splitlines() if line.startswith("input ")]
        assert inputs == ["input presentation: sha256:959c6548ee530cec",
                          "input word: sha256:"
                          + quotients.split("input word: sha256:")[1].split()[0]]
        assert inputs[0] in abel.splitlines()

    def test_writes_no_presentation_or_word(self, a2, capsys, monkeypatch):
        """probe digests its files as given, so it never writes the
        presentation or the word back out; its report is the same with
        both writers made to fail."""
        argv = ("probe", a2, "--word", "a", "--max-degree", "1")
        code, plain = run(capsys, *argv)

        def refuse(*args):
            raise AssertionError("probe wrote its input back out")
        monkeypatch.setattr("forge.fileformats.format_presentation", refuse)
        monkeypatch.setattr("forge.words.format_word", refuse)
        patched_code, patched = run(capsys, *argv)
        assert patched_code == code == 2
        assert untimed_lines(patched) == untimed_lines(plain)


class TestSqcCommands:
    def test_check_pass(self, workdir, capsys):
        code, out = run(capsys, "sqc", "check", workdir / "torus_cx.txt")
        assert code == 0

    def test_check_fail(self, workdir, capsys):
        bad = workdir / "bad.txt"
        bad.write_text("vertex v\nedge a v v\nsquare a a a a\n")
        code, out = run(capsys, "sqc", "check", bad)
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("violation")] \
            == ["violations: 1", "violation: bigon in link of 'v'"]

    def test_build_and_pi1(self, workdir, capsys):
        out_file = workdir / "s.txt"
        code, out = run(capsys, "sqc", "build",
                        "--pres", workdir / "torus_pres.txt",
                        "--complex", workdir / "torus_cx.txt",
                        "--gamma", "a a", "--out", out_file)
        assert code == 0
        assert "euler characteristic: -1" in out
        code, out = run(capsys, "sqc", "pi1", out_file)
        assert code == 0
        assert "betti" in out

    def test_build_unknown_gamma_edge(self, workdir, capsys):
        code, out = run(capsys, "sqc", "build",
                        "--pres", workdir / "torus_pres.txt",
                        "--complex", workdir / "torus_cx.txt", "--gamma", "a zz")
        assert code == 1
        assert untimed_lines(out) == [
            "command: sqc build", "status: error",
            "error: gamma references unknown edge 'zz'"]

    def test_error_names_the_sqc_command(self, workdir, capsys):
        code, out = run(capsys, "sqc", "pi1", workdir / "nope.txt")
        assert code == 1
        assert untimed_lines(out)[:2] == ["command: sqc pi1", "status: error"]


class TestEncodeCommand:
    def test_discrete_encode(self, workdir, capsys):
        out_file = workdir / "trace.json"
        code, out = run(capsys, "encode", workdir / "dead.txt",
                        "--word", "a", "--discrete", "--out", out_file)
        assert code == 0
        assert out_file.exists()
        assert "stage p_w" in out

    @pytest.mark.parametrize("text, word", [
        ("gens: b_0\nrel: b_0^2\n", "b_0"),     # a stable letter's name
        ("gens: a a'\nrel: a^2\n", "a")])       # a's primed name
    def test_discrete_encode_of_clashing_names(self, workdir, capsys, text, word):
        (workdir / "clash.txt").write_text(text)
        code, out = run(capsys, "encode", workdir / "clash.txt", "--word", word,
                        "--discrete", "--out", workdir / "trace.json")
        assert code == 0, out
        assert "stage p_w" in out

    def test_encode_certifies_once(self, workdir, capsys, monkeypatch):
        """The encoder's family and kernel checks run once per run: the
        report reads the certificate that selection built."""
        from forge import encoder
        calls = []
        for name in ("_family_checks", "_kernel_checks"):
            check = getattr(encoder, name)
            monkeypatch.setattr(encoder, name, lambda arg, name=name, check=check:
                                calls.append(name) or check(arg))
        code, out = run(capsys, "encode", workdir / "torus_pres.txt", "--word", "a b",
                        "--out", workdir / "trace.json")
        assert code == 0
        assert sorted(calls) == ["_family_checks", "_kernel_checks"]
        assert "status: certified" in out and "certificate" not in out


class TestErrors:
    def test_missing_file(self, workdir, capsys):
        code, out = run(capsys, "abel", workdir / "nope.txt")
        assert code == 1
        assert "status: error" in out

    def test_malformed_word(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "free.txt",
                        "--max-degree", "2", "--word", "a q")
        assert code == 1
        assert "status: error" in out

    @pytest.mark.parametrize("bound", [("--max-degree", "0"),
                                       ("--max-degree", "-1"),
                                       ("--max-nodes", "0")])
    def test_quotients_nonpositive_budget(self, workdir, capsys, bound):
        code, out = run(capsys, "quotients", workdir / "free.txt",
                        "--max-degree", "3", *bound)
        assert code == 1
        assert "status: error" in out
        assert "budget bounds must be positive" in out

    @pytest.mark.parametrize("argv, error", [
        (("encode", "dead.txt", "--word", "a", "--budget", "-1"),
         "forge: unrecognized arguments: --budget -1"),
        (("probe", "dead.txt", "--word", "a", "--budget", "-1"),
         "forge: unrecognized arguments: --budget -1"),
        (("encode", "dead.txt", "--word", "a^99999999999"),
         "power in token 'a^99999999999' makes the word longer than 1000000 letters"),
        (("probe", "dead.txt", "--word", "a^-99999999999"),
         "power in token 'a^-99999999999' makes the word longer than 1000000 letters"),
        (("abel", "huge.txt"), "{workdir}/huge.txt: line 2, column 6: power in token "
                               "'a^600000' makes the word longer than 1000000 letters"),
        (("encode", "dead.txt", "--word", "a", "--N", "1000"),
         "modulus 1000 makes 1000 rotation decisions over 1001 ids, "
         "more than 1000000 in all"),
        (("encode", "dead.txt", "--word", "a^400000"),
         "substituting for x1_1, y2, y3 makes a word of 1600001 letters, "
         "more than 1000000"),
        *((("encode", "dead.txt", "--word", word, "--N", N),
           f"modulus {N} is below the certified threshold (need > 6)")
          for N in ("0", "6") for word in ("1", "a")),
        (("encode", "dead.txt", "--word", "1", "--N", "1000"),
         "modulus 1000 makes 1000 rotation decisions over 1001 ids, "
         "more than 1000000 in all"),
        (("sqc", "pi1", "empty.txt"), "empty complex"),
        (("sqc", "build", "--pres", "torus_pres.txt", "--complex", "path_cx.txt",
          "--gamma", "a"), "edge loop is not a closed path"),
    ])
    def test_bad_input_is_one_error_line(self, workdir, capsys, argv, error):
        (workdir / "huge.txt").write_text("gens: a\nrel: a^500000 a^600000\n")
        (workdir / "empty.txt").write_text("")
        (workdir / "path_cx.txt").write_text("vertex u\nvertex v\nedge a u v\n")
        code, out = run(capsys, *[workdir / a if a.endswith(".txt") else a for a in argv])
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == [f"error: {error.format(workdir=workdir)}"]

    @pytest.mark.parametrize("argv, error", [
        (("fold", "on_bad_base.txt"),
         "bad_base.txt: line 4: unexpected line in base file: 'vmap * *'"),
        (("fibre", "sub.txt", "bad.txt"),
         "{workdir}/bad.txt: line 4: unexpected line in graph file: 'wibble'"),
    ])
    def test_graph_error_names_its_file(self, workdir, capsys, argv, error):
        """A graph file is named by its path as given, a base file as its
        graph file's base line spells it."""
        (workdir / "bad_base.txt").write_text("base\nvertex *\nedge a * * a\nvmap * *\n")
        (workdir / "on_bad_base.txt").write_text("graph\nbase bad_base.txt\nvertex 0\n")
        (workdir / "bad.txt").write_text("graph\nbase base.txt\nvertex 0\nwibble\n")
        code, out = run(capsys, *[workdir / a if a.endswith(".txt") else a for a in argv])
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == [f"error: {error.format(workdir=workdir)}"]

    @pytest.mark.parametrize("argv, graph, error", [
        (("fold",), "vertex 0\nvmap 0 x\nedge e 0 0 c\n",
         "{workdir}/g.txt: line 5: edge 'e' carries unknown label 'c'"),
        (("fold",), "vertex 0\nvertex 1\nvmap 0 x\n",
         "{workdir}/g.txt: line 4: no vmap entry for vertex 1 and the base is not a rose"),
        (("fold",), "vertex 0\nvmap 0 z\nvertex 1\nvmap 1 y\n",
         "{workdir}/g.txt: line 4: vertex 0 is not mapped into the base"),
        (("fold",), "vertex 0\nvertex 1\nvmap 0 x\nvmap 1 x\nedge e 0 1 a\n",
         "{workdir}/g.txt: line 7: edge 'e' is not label-consistent with the base"),
        (("fold",), "vertex 0\nvmap 0 y\nbasepoint 0\n",
         "{workdir}/g.txt: line 5: basepoints do not correspond under the map"),
        # Certified when the last vmap line for a vertex was the one read.
        (("malnormal",), "vertex 0\nvertex 1\nedge e 0 1 a\nbasepoint 0\n"
         "vmap 0 x\nvmap 1 x\nvmap 1 y\n",
         "{workdir}/g.txt: line 9: duplicate vmap line for vertex 1"),
        (("fold",), "vertex 0\nvmap 0 x\nvmap 9 x\n",
         "{workdir}/g.txt: line 5: vmap names 9, which is not a vertex"),
        (("fibre", "sub.txt"), "vertex 0\nvertex 1\nvmap 0 x\nvmap 1 y\n"
         "edge e0 0 1 a\nedge e1 1 0 b\nedge e2 0 1 a\n",
         "{workdir}/g.txt: line 9: graph is not an immersion; fold it first"),
        (("fibre", "on_bad_label.txt"), "vertex 0\nvmap 0 x\n",
         "bad_label.txt: line 4: base edge 'b' must carry its own id as label, got 'c'"),
    ])
    def test_graph_refusal_names_its_line(self, workdir, capsys, argv, graph, error):
        """What the graph fails against its base is reported at the line of
        the cell at fault: the edge, the vertex (its vmap line where it has
        one), the basepoint, or a vmap line that names no vertex or repeats
        one.  A base edge that does not carry its own id as label is
        reported at its line in the base file."""
        (workdir / "base2.txt").write_text(
            "base\nvertex x\nvertex y\nedge a x y a\nedge b y x b\nbasepoint x\n")
        (workdir / "sub.txt").write_text(
            "graph\nbase base2.txt\nvertex 0\nvertex 1\nvmap 0 x\nvmap 1 y\n"
            "edge e0 0 1 a\n")
        (workdir / "bad_label.txt").write_text("base\nvertex *\nedge a * * a\nedge b * * c\n")
        (workdir / "on_bad_label.txt").write_text("graph\nbase bad_label.txt\nvertex 0\n")
        (workdir / "g.txt").write_text("graph\nbase base2.txt\n" + graph)
        code, out = run(capsys, *argv[:1], *[workdir / a for a in argv[1:]],
                        workdir / "g.txt")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == [f"error: {error.format(workdir=workdir)}"]

    @pytest.mark.parametrize("text, error", [
        ("vertex v\nvertex v\nedge a v v\n", "line 2: vertex 'v' is repeated"),
        ("vertex 1\nvertex 01\nedge a 1 1\n", "line 2: vertex 1 is repeated")])
    def test_repeated_complex_vertex_refused(self, workdir, capsys, text, error):
        """Two vertex lines for one id are refused, not read as one vertex
        and certified; the error names the file."""
        (workdir / "twice.txt").write_text(text)
        code, out = run(capsys, "sqc", "check", workdir / "twice.txt")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == [f"error: {workdir}/twice.txt: {error}"]

    def test_oversized_scaled_copy_refused_at_once(self, workdir, capsys):
        (workdir / "long_rel.txt").write_text("gens: a b\nrel: a^5000\n")
        code, out = run(capsys, "sqc", "build",
                        "--pres", workdir / "long_rel.txt",
                        "--complex", workdir / "torus_cx.txt", "--gamma", "a")
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == ["error: S(P) would have 100010003 cells, more than 1000000"]

    def test_memory_ran_out_is_one_error_line(self, workdir):
        """The 5-generator encode needs about 210 MiB of address space to
        certify; under 160 MiB its certifier's allocation fails, and the
        child reports that as an error, not a traceback."""
        resource = pytest.importorskip("resource")
        (workdir / "five.txt").write_text(
            "gens: a b c d e\nrel: a b a^-1 b^-1 c d c^-1 d^-1 e^2\n")
        src = os.path.dirname(os.path.dirname(forge.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (160 * 2 ** 20, 160 * 2 ** 20))

        run = subprocess.run(
            [sys.executable, "-m", "forge.cli", "encode", "five.txt", "--word", "a",
             "--out", "trace.json"], cwd=workdir, env=env, capture_output=True,
            text=True, timeout=60, preexec_fn=limit)
        assert (run.returncode, run.stderr) == (1, "")
        lines = untimed_lines(run.stdout)
        assert lines[:2] == ["command: encode", "status: error"]
        assert [line for line in lines if line.startswith("error:")] \
            == ["error: memory ran out"]

    def test_orders_with_word_rejected(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "free.txt", "--max-degree",
                        "3", "--word", "b", "--orders", "1:2,3")
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == ["error: --orders and --word cannot be combined"]

    @pytest.mark.parametrize("argv, error", [
        (("quotients", "free.txt", "--max-degree", "abc"),
         "forge quotients: argument --max-degree: invalid int value: 'abc'"),
        (("probe", "dead.txt"),
         "forge probe: the following arguments are required: --word"),
        ((), "forge: the following arguments are required: subcommand"),
    ])
    def test_usage_error_exits_1(self, workdir, capsys, argv, error):
        code = main([str(workdir / a) if a.endswith(".txt") else a for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = untimed_lines(captured.out)
        assert lines[:2] == ["command: forge", "status: error"]
        assert [line for line in lines if line.startswith("error:")] \
            == [f"error: {error}"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quotients", "--help"])
        assert exc.value.code == 0
        assert "--max-degree" in capsys.readouterr().out

    def test_freepow_too_large(self, workdir, capsys):
        code, out = run(capsys, "freepow", workdir / "dead.txt", "100000000")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == ["error: the 100000000-fold free power has 200000000 generators "
                "and relator letters, more than 1000000"]

    def test_bad_orders_spec(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "free.txt",
                        "--max-degree", "2", "--orders", "nonsense")
        assert code == 1

    def test_orders_exponent_count_must_match_generators(self, workdir, capsys):
        code, out = run(capsys, "quotients", workdir / "free.txt",
                        "--max-degree", "3", "--orders", "1:2")
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == ["error: --orders gives 1 exponents for 2 generators"]

    def test_empty_orders_spec(self, workdir, capsys):
        (workdir / "a2.txt").write_text("gens: a b\nrel: a^2\n")
        code, out = run(capsys, "quotients", workdir / "a2.txt",
                        "--max-degree", "3", "--orders", "")
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == ["error: bad --orders spec ''; expected k:e1,e2,..."]


def test_import_loads_no_dataclasses():
    """Each forge command starts a fresh process, so its records are
    namedtuples and plain classes: importing forge.cli loads neither
    dataclasses nor the inspect module that dataclasses pulls in."""
    src = os.path.dirname(os.path.dirname(forge.__file__))
    run = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, forge.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
