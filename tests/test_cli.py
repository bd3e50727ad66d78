"""The forge command line: exit codes, report shape, file plumbing."""

import re

import pytest

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
         "the candidate budget must be nonnegative"),
        (("probe", "dead.txt", "--word", "a", "--budget", "-1"),
         "the candidate budget must be nonnegative"),
        (("encode", "dead.txt", "--word", "a^99999999999"),
         "power in token 'a^99999999999' makes the word longer than 1000000 letters"),
        (("probe", "dead.txt", "--word", "a^-99999999999"),
         "power in token 'a^-99999999999' makes the word longer than 1000000 letters"),
        (("abel", "huge.txt"), "line 2, column 6: power in token 'a^600000' "
                               "makes the word longer than 1000000 letters"),
    ])
    def test_bad_input_is_one_error_line(self, workdir, capsys, argv, error):
        (workdir / "huge.txt").write_text("gens: a\nrel: a^500000 a^600000\n")
        command, path, *rest = argv
        code, out = run(capsys, command, workdir / path, *rest)
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == [f"error: {error}"]

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

    def test_empty_orders_spec(self, workdir, capsys):
        (workdir / "a2.txt").write_text("gens: a b\nrel: a^2\n")
        code, out = run(capsys, "quotients", workdir / "a2.txt",
                        "--max-degree", "3", "--orders", "")
        assert code == 1
        assert "status: error" in out
        assert [line for line in out.splitlines() if line.startswith("error:")] \
            == ["error: bad --orders spec ''; expected k:e1,e2,..."]
