"""forge's benchmark: forge as a long-lived, single-process verdict service.

    python3 perfbench/run.py --workload encode --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; forge is imported from its src/ directory.
Each workload is a closed loop with one client: requests run back to back
in this process, with no threads or subprocesses.  Inputs come from --seed.
Every run serves the workload's fixed number of rounds, each with the same
size mix; the seed code takes about --seconds for them, and no further round
starts once twice --seconds have passed.  Every outcome goes to the
independent checker in check.py.  Time metrics are corrected for drift of
the machine's speed (see QUIET_REFERENCE_S); the raw times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 serves a fixed number of
rounds both untraced and traced, prints the per-layer metrics and writes all
spans to perfbench/out/.  The last line of output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types

import check as checker
import tracer as tracing
from workloads import RUNNERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is timed this many times before the timed rounds and as many times
# after them; setup_s is the median of all.
SETUP_REPEATS = 12
# Drift correction.  The speed of a shared VM drifts by up to 2x within
# minutes (other tenants' load, not steal time), and that moves every wall
# time.  A fixed pure-Python loop is timed after every request and after
# every set-up.  Each time metric scales the measured time by
# QUIET_REFERENCE_S over the median of the loop times next to it, so it
# reads as seconds on a machine that runs the loop in QUIET_REFERENCE_S.
# The raw times are printed too.
REFERENCE_LOOPS = 20_000
QUIET_REFERENCE_S = 0.0015
REFERENCE_WINDOW = 10   # loop times on each side of a request
# A traced run serves this many rounds, each both untraced and traced, so
# its counts repeat exactly for a given seed.  Even, so that each order
# (untraced first, traced first) comes up equally often.
TRACE_ROUNDS = 2

PER_LAYER_EXTRA = ("trace.spans", "trace.layer_self_total_s", "trace.wall_s")


def load_forge():
    """Import (or re-import) forge from this checkout's src/."""
    for name in [n for n in sys.modules if n == "forge" or n.startswith("forge.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {layer: importlib.import_module(f"forge.{layer}")
               for layer in tracing.LAYERS}
    where = os.path.dirname(os.path.abspath(sys.modules["forge"].__file__))
    if where != os.path.join(SRC, "forge"):
        raise SystemExit(f"forge was imported from {where}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or "unknown",
            "python": platform.python_version()}


def reference_s():
    """One timed pass of the drift-correction loop.  It allocates no
    containers, so it never sets off the cyclic garbage collector."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def decided(req, outcome):
    """A definite verdict: witness, certified or refuted."""
    kind = req["kind"]
    if kind == "search":
        return outcome["status"] == "witness"
    if kind == "cli":
        return outcome["code"] == 0
    return True


class Runner:
    """The forge modules, the workload's inputs and the results so far."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.F = None
        self.rounds = []
        self.records = []   # (kind, size, latency_s, decided, problems)
        self.references = []   # reference_s() after each request

    def setup(self):
        """Import forge, generate the inputs and run the warm-up."""
        start = time.perf_counter()
        self.F = load_forge()
        os.makedirs(self.workdir, exist_ok=True)
        warmup = self.workload.warmup(self.seed, self.workdir)
        self.rounds = self.workload.rounds(self.seed, self.workdir)
        for req in warmup:
            RUNNERS[req["kind"]](self.F, req)
        return time.perf_counter() - start

    def timed_setup(self):
        """One set-up: (raw seconds, drift-corrected seconds)."""
        raw = self.setup()
        reference = statistics.median(reference_s() for _ in range(5))
        return raw, raw * QUIET_REFERENCE_S / reference

    def serve(self, req, tracer=None):
        run = RUNNERS[req["kind"]]
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = run(self.F, req)
            else:
                with tracer.request(f"request.{req['kind']}"):
                    outcome = run(self.F, req)
        except Exception as exc:  # a failed request is counted, not fatal
            latency = time.perf_counter() - start
            self.records.append((req["kind"], req["size"], latency, False,
                                 [f"raised {exc!r}"]))
            return latency
        latency = time.perf_counter() - start
        try:
            problems = checker.check(req, outcome)
        except Exception as exc:
            problems = [f"checker could not read the outcome: {exc!r}"]
        self.records.append((req["kind"], req["size"], latency,
                             not problems and decided(req, outcome), problems))
        return latency

    def serve_round(self, r, tracer=None):
        """Serve round r, timing the reference loop after each request;
        returns the round's summed request latency."""
        busy = 0.0
        for req in self.rounds[r]:
            busy += self.serve(req, tracer)
            self.references.append(reference_s())
        return busy

    def serve_all(self, stop_s):
        """Serve every round, starting none after stop_s; returns the
        number served."""
        start = time.perf_counter()
        for r in range(len(self.rounds)):
            if r and time.perf_counter() - start > stop_s:
                return r
            self.serve_round(r)
        return len(self.rounds)


def drift_corrected(latencies, references):
    """Each latency scaled by QUIET_REFERENCE_S over the median of the
    reference loop times around it."""
    return [latency * QUIET_REFERENCE_S / statistics.median(
                references[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1])
            for i, latency in enumerate(latencies)]


def time_metrics(latencies, per_round, setups):
    """requests_per_s is the median over rounds of the round's requests per
    second of request time, so a slow spell during one round moves it less;
    every round has the same mix."""
    n = len(latencies)
    if n < 11:
        raise SystemExit(f"only {n} requests ran; the tail needs at least 11")
    rates = [per_round / sum(latencies[i:i + per_round])
             for i in range(0, n, per_round)]
    ordered = sorted(latencies)
    return {"setup_s": statistics.median(setups),
            "requests_per_s": statistics.median(rates),
            "latency_p50_s": statistics.median(ordered),
            "latency_tail_s": ordered[n - 11]}


def end_to_end(runner, setups, peak_rss_mb):
    """The end-to-end metrics, drift-corrected, and the time metrics
    uncorrected.  `setups` holds (raw, corrected) set-up times."""
    latencies = [rec[2] for rec in runner.records]
    per_round = len(runner.rounds[0])
    raw = time_metrics(latencies, per_round, [s[0] for s in setups])
    metrics = time_metrics(drift_corrected(latencies, runner.references),
                           per_round, [s[1] for s in setups])
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["decided_ratio"] = (
        sum(rec[3] for rec in runner.records) / len(runner.records))
    return metrics, raw


def describe(runner, args, facts):
    w = runner.workload
    why = next(x["why"] for x in declared("workloads") if x["name"] == w.name)
    mix = {}
    for req in runner.rounds[0]:
        mix[req["size"]] = mix.get(req["size"], 0) + 1
    print(f"workload: {w.name} (--seed {args.seed}, --seconds {args.seconds}, "
          f"--trace {args.trace})")
    print(f"why: {why}")
    print(f"round: {', '.join(f'{k} {v}' for k, v in sorted(mix.items()))}; "
          f"{len(runner.rounds)} rounds")
    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu']!r} "
          f"python={facts['python']}")


def summarize(records):
    n = len(records)
    failed = [rec for rec in records if rec[4]]
    sizes = {}
    for rec in records:
        sizes.setdefault(rec[1], []).append(rec[2])
    print(f"requests: {n}")
    for size, lat in sorted(sizes.items()):
        print(f"  {size}: {len(lat)} requests, median {statistics.median(lat):.4g} s, "
              f"total {sum(lat):.4g} s")
    print(f"failed_ratio: {len(failed) / n if n else 0:.6f} ratio ({len(failed)} of {n})")
    for kind, size, _, _, problems in failed[:10]:
        print(f"  failed {kind}/{size}: {'; '.join(problems)}")
    return len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    runner = Runner(workload, args.seed, workdir)
    try:
        setups = [runner.timed_setup() for _ in range(SETUP_REPEATS)]
        facts = machine_facts()
        describe(runner, args, facts)
        if args.trace:
            metrics = traced_run(runner, args)
            units = declared_units("per_layer")
        else:
            served = runner.serve_all(2 * args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups += [runner.timed_setup() for _ in range(SETUP_REPEATS)]
            metrics, raw = end_to_end(runner, setups, rss)
            units = declared_units("end_to_end")
            n = len(runner.records)
            print(f"rounds: {served} of {len(runner.rounds)}")
            print(f"reference loop: median {1000 * statistics.median(runner.references):.3f} ms "
                  f"(quiet: {1000 * QUIET_REFERENCE_S:.3f} ms); uncorrected: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
            print(f"latency_tail_s: the p{100 * (n - 10) / n:.1f} latency "
                  f"of {n} samples (10 above it)")
        for name, unit in units.items():
            print(f"{name}: {metrics[name]:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = summarize(runner.records)
    result = {"correct": failed == 0, "attempted": len(runner.records),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


def traced_run(runner, args):
    """Serve each of the first TRACE_ROUNDS rounds twice, untraced and
    traced, alternating which goes first, so the overhead ratio compares the
    same inputs and drift of the machine's speed cancels out.  Per-layer
    metrics come from the traced servings only."""
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for r in range(TRACE_ROUNDS):
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if not traced:
                untraced_s += runner.serve_round(r)
                continue
            tracer.install()
            try:
                traced_s += runner.serve_round(r, tracer)
            finally:
                tracer.uninstall()
    layer = tracer.layer_metrics(traced_s)
    layer["trace.overhead_ratio"] = traced_s / untraced_s
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    tracer.write(path)
    print(f"rounds: {TRACE_ROUNDS}, each served untraced and "
          f"traced; spans: {path}")
    for name in PER_LAYER_EXTRA:
        print(f"{name}: {layer[name]:.6g}")
    return layer


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in declared(kind)}


if __name__ == "__main__":
    sys.exit(main())
