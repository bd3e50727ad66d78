"""Self-tests for the benchmark: every workload passes at a tiny size, the
traced path reports every declared per-layer metric, and the checker
rejects corrupted outcomes, so failed_ratio = 0 means something.

    python3 -m pytest perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import check
import run
import tracer as tracing
from workloads import RUNNERS, WORKLOADS, conjugate_pair_request, rotation_request


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.fixture(scope="module")
def forge():
    return run.load_forge()


def one_of_each_size(name, seed, workdir, skip=()):
    """The first request of every size class in round 0."""
    picked = {}
    for req in WORKLOADS[name].rounds(seed, str(workdir), 1)[0]:
        if req["size"] not in skip:
            picked.setdefault(req["size"], req)
    return list(picked.values())


def serve_all(forge, name, reqs, workdir, tracer=None):
    runner = run.Runner(WORKLOADS[name], 0, str(workdir))
    runner.F = forge
    for req in reqs:
        runner.serve(req, tracer)
    return runner.records


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_at_tiny_size(forge, name, tmp_path):
    records = serve_all(forge, name, one_of_each_size(name, 3, tmp_path), tmp_path)
    assert records
    assert [rec for rec in records if rec[4]] == []


def test_same_seed_same_inputs(tmp_path):
    for name, workload in WORKLOADS.items():
        a = workload.rounds(5, str(tmp_path / "a"), 2)
        b = workload.rounds(5, str(tmp_path / "b"), 2)
        strip = lambda reqs: [{k: v for k, v in r.items() if k != "argv"} for r in reqs]
        assert [strip(r) for r in a] == [strip(r) for r in b], name
        assert strip(a[0]) != strip(workload.rounds(6, str(tmp_path / "c"), 1)[0])


def test_every_run_serves_the_same_mix(tmp_path):
    for name, workload in WORKLOADS.items():
        for seed in (1, 2):
            rounds = workload.rounds(seed, str(tmp_path / name))
            assert len(rounds) == workload.count
            mixes = {tuple(sorted(req["size"] for req in reqs)) for reqs in rounds}
            assert len(mixes) == 1, name
    pipelines = [req["N"] for reqs in WORKLOADS["encode"].rounds(7, str(tmp_path))
                 for req in reqs if req["kind"] == "pipeline"]
    assert len(pipelines) == 2 and sum(pipelines) == 19 and min(pipelines) >= 7


def test_drift_correction_scales_by_the_nearby_reference():
    quiet = run.QUIET_REFERENCE_S
    assert run.drift_corrected([0.1, 0.2], [quiet, quiet]) == [0.1, 0.2]
    # The machine ran at half speed for the last 30 requests.
    refs = [quiet] * 30 + [2 * quiet] * 30
    fixed = run.drift_corrected([0.2] * 60, refs)
    assert fixed[0] == pytest.approx(0.2) and fixed[-1] == pytest.approx(0.1)
    metrics = run.time_metrics([0.1] * 12 + [0.2] * 12, 12, [1.0, 2.0, 3.0])
    assert metrics == {"setup_s": 2.0, "requests_per_s": pytest.approx(7.5),
                       "latency_p50_s": pytest.approx(0.15),
                       "latency_tail_s": 0.2}


def test_trace_reports_every_layer_metric(forge, tmp_path):
    t = tracing.Tracer()
    t.install()
    try:
        start = run.time.perf_counter()
        for name in sorted(WORKLOADS):
            reqs = one_of_each_size(name, 4, tmp_path / name, skip=("pipeline",))
            records = serve_all(forge, name, reqs, tmp_path / name, tracer=t)
            assert [rec for rec in records if rec[4]] == []
        wall = run.time.perf_counter() - start
    finally:
        t.uninstall()
    assert forge.presentations.abelianization.__name__ == "abelianization"
    assert not hasattr(forge.encoder.abelianization, "__wrapped__")
    metrics = t.layer_metrics(wall)
    metrics["trace.overhead_ratio"] = 1.0
    for name in declared("per_layer"):
        assert name in metrics, name
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["trace.layer_self_total_s"] <= wall
    assert metrics["quotients.nodes"] > 0 and metrics["stallings.fibre_vertices"] > 0
    t.write(str(tmp_path / "spans.json"))
    with open(tmp_path / "spans.json", encoding="utf-8") as fh:
        assert len(json.load(fh)["spans"]) == metrics["trace.spans"]


def test_benchmark_json_matches_the_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert "setup_s" in declared("end_to_end")
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "requests_per_s", "latency_p50_s", "latency_tail_s",
        "peak_rss_mb", "decided_ratio"}


# ---------------------------------------------------------------------------
# The checker against outcomes known to be wrong.


def test_invariant_factors():
    assert check.invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert check.invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert check.invariant_factors([[0, 0]]) == []
    a, b = ("a", 1), ("b", 1)
    assert check.abelian_invariants([(a, a), (b, b, b)], ["a", "b"]) == (0, (6,))
    assert check.abelian_invariants([(a, b, ("a", -1), ("b", -1))], ["a", "b"]) == (2, ())


def cli_outcome(forge, tmp_path, text, argv):
    path = tmp_path / "p.txt"
    path.write_text(text)
    req = {"kind": "cli", "check": "cli", "size": argv[0], "argv": [argv[0], str(path)] + argv[1:]}
    return req, RUNNERS["cli"](forge, req)


def test_checker_flags_a_corrupted_witness(forge, tmp_path):
    a, b = ("a", 1), ("b", 1)
    req, outcome = cli_outcome(forge, tmp_path, "gens: a b\nrel: a a\nrel: b b b\n",
                               ["quotients", "--max-degree", "5", "--word", "a b"])
    req.update(names=("a", "b"), relators=[(a, a), (b, b, b)], word=(a, b))
    assert outcome["code"] == 0 and check.check(req, outcome) == []
    assert "witness b: id" in outcome["stdout"]
    breaks_relator = outcome["stdout"].replace("witness b: id", "witness b: (1 2)")
    assert check.check(req, dict(outcome, stdout=breaks_relator))
    kills_word = "\n".join(line if not line.startswith("witness ") or "degree" in line
                           else line.split(":")[0] + ": id"
                           for line in outcome["stdout"].splitlines())
    assert check.check(req, dict(outcome, stdout=kills_word))
    assert check.check(req, dict(outcome, code=2))


def test_checker_flags_wrong_invariants(forge, tmp_path):
    a, b = ("a", 1), ("b", 1)
    req, outcome = cli_outcome(forge, tmp_path, "gens: a b\nrel: a a\n", ["abel"])
    req.update(names=("a", "b"), relators=[(a, a)])
    assert check.check(req, outcome) == []
    assert check.check(req, dict(outcome, stdout=outcome["stdout"].replace(
        "betti: 1", "betti: 2")))

    cx = {"kind": "complex", "check": "complex", "size": "t", "names": ("a", "b"),
          "k": 3, "relators": [(a, a, b, b)]}
    good = RUNNERS["complex"](forge, cx)
    assert check.check(cx, good) == []
    betti, torsion = good["h1_cellular"]
    assert check.check(cx, dict(good, h1_cellular=(betti + 1, torsion)))
    assert check.check(cx, dict(good, h1_pi1=(betti, torsion + (2,))))
    assert check.check(cx, dict(good, euler=good["euler"] + 1))
    assert check.check(cx, dict(good, link_ok=False))


def test_checker_flags_a_swapped_malnormality_verdict(forge):
    rng = random.Random(1)
    for req in (conjugate_pair_request(rng), rotation_request(rng, 8, 9)):
        outcome = RUNNERS[req["kind"]](forge, req)
        assert check.check(req, outcome) == []
        assert check.check(req, dict(outcome, malnormal=not outcome["malnormal"]))
        assert check.check(req, dict(outcome, members=[False] + outcome["members"][1:]))


def test_checker_flags_a_wrong_pipeline_output():
    outcome = {"revalidated": True, "p_w": (("x", "y"), [(("x", 1),)]),
               "json": json.dumps({"stages": {"p_w": "gens: x y\nrel: x\n"},
                                   "certificate": {"m": 6}})}
    req = {"check": "pipeline", "m": 6}
    assert check.check(req, outcome) == ["output abelianization is not trivial"]
    assert check.check(req, dict(outcome, revalidated=False))


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the run
    exits nonzero without printing a result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "complex",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
