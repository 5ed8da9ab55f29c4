"""Benchmark of hvconic through its command line, one workload per process.

    python3 bench/run.py --workload {anneal,oracle,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` and every operation calls ``hvconic.cli.run(argv)`` in process on
files the benchmark writes under ``bench/runs/``.  One caller sends its
next command only after the previous one returns (a closed loop), in
whole rounds of the workload's operations, until the operations have run
for at least S seconds and at least five rounds.  An operation's latency
is its median over the rounds; the metrics are taken over those latencies.
Every output is checked against the reference computations in
``reference.py``; the clock is stopped while checking.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every operation runs untraced and
traced back to back, and the run reports the per-layer metrics of the
traced runs and the tracing overhead, and writes every span to
``bench/runs/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

# The machine has 2 cores; each workload runs single-threaded, numpy's BLAS included.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Input files are built this many times per run; setup_s takes the median build.
SETUP_REPEATS = 5
# Each operation's latency is its median over the rounds, so a run has at least five.
MIN_ROUNDS = 5


class BenchError(Exception):
    """The run cannot produce a result (no sources, a set-up command failed)."""


def _invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = cli.run(argv)
        t1 = perf_counter()
    return t1 - t0, rc, out.getvalue(), err.getvalue()


def _reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a reading of how fast the
    machine runs at the moment, printed next to the results (not a metric)."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _import_program():
    """Import hvconic from this checkout; returns (package, cli, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "hvconic", "__init__.py")):
        raise BenchError(f"no hvconic sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    hv = importlib.import_module("hvconic")
    cli = importlib.import_module("hvconic.cli")
    seconds = perf_counter() - t0
    if not os.path.abspath(hv.__file__).startswith(SRC + os.sep):
        raise BenchError(f"hvconic was imported from {hv.__file__}, not from {SRC}")
    return hv, cli, seconds


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict[str, dict] = {}
        self._verified: dict[str, str] = {}

    def run(self, op, traced: bool) -> float:
        """One operation; returns its latency (sum over its CLI calls)."""
        self.attempted += 1
        latency = 0.0
        stdouts = []
        if traced:
            self.tracer.op += 1
            self.tracer.op_keys.append(op.key)
            self.tracer.install()
            self.tracer.active = True
        try:
            for argv in op.calls:
                dt, rc, out, err = _invoke(self.cli, argv)
                latency += dt
                stdouts.append(out)
                if rc != 0:
                    raise BenchError(f"exit {rc}: {err.strip()}")
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"# FAILED {op.key}: {argv}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, BenchError):
                traceback.print_exc(file=sys.stderr)
            return latency
        finally:
            if traced:
                self.tracer.active = False
                self.tracer.uninstall()
        self._check(op, stdouts)
        return latency

    def _check(self, op, stdouts) -> None:
        files = {}
        for path in op.files:
            with open(path, encoding="utf-8") as fh:
                files[path] = fh.read()
        digest = hashlib.sha256(json.dumps([stdouts, files], sort_keys=True).encode()).hexdigest()
        if self._verified.get(op.key) == digest:
            return  # byte-identical to outputs of this operation already checked
        try:
            problems, facts = op.check(stdouts, files)
        except Exception as exc:  # malformed output
            problems, facts = [f"check raised {exc!r}"], {}
        if problems:
            self.problems += [f"{op.key}: {p}" for p in problems]
        else:
            self._verified[op.key] = digest
            self.facts[op.key] = facts


def _builder(workload, cli, hv, ref, seed: int, work: str):
    """Returns ``build``, which writes the workload's input files into a fresh
    directory and returns the operations of one round, and the list of
    seconds each build took."""
    builds: list[float] = []

    def call(argv):
        _, rc, _, err = _invoke(cli, argv)
        if rc != 0:
            raise BenchError(f"set-up command {argv} exited {rc}: {err.strip()}")

    def build():
        d = os.path.join(work, f"inputs{len(builds)}")
        os.mkdir(d)
        t0 = perf_counter()
        ops = workload.build(call, d, seed, hv, ref)
        builds.append(perf_counter() - t0)
        return ops

    return build, builds


def _seen_share(ops_in_order) -> float:
    """Share of operations whose grid family an earlier operation already used."""
    seen, hits = set(), 0
    for op in ops_in_order:
        hits += op.grid in seen
        seen.add(op.grid)
    return hits / len(ops_in_order)


def run(workload_name: str, seed: int, seconds: int, trace: bool, work: str) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    ref = workload.reference()  # the benchmark's own oracle, made before set-up starts
    machine_before = _reference_loop_ms()

    hv, cli, import_s = _import_program()
    build, builds = _builder(workload, cli, hv, ref, seed, work)
    ops = build()

    tracer = Tracer()
    runner = Runner(cli, tracer)
    # latencies[traced][round][i] is the latency of ops[i] in that round
    latencies: dict[bool, list[list[float]]] = {False: [], True: []}
    rounds = 0
    # a traced run spends its seconds on the untraced and traced runs together
    while sum(sum(map(sum, rows)) for rows in latencies.values()) < seconds or rounds < MIN_ROUNDS:
        for with_trace in ((False, True) if trace else (False,)):
            latencies[with_trace].append([])
        for i, op in enumerate(ops):
            # in a traced run each operation runs untraced and traced back to back,
            # in alternating order, so both timings see the same machine state
            order = (False, True) if (rounds + i) % 2 == 0 else (True, False)
            for with_trace in (order if trace else (False,)):
                latencies[with_trace][-1].append(runner.run(op, with_trace))
        rounds += 1
        if len(builds) < SETUP_REPEATS:
            build()  # the repeated set-ups are spread over the run, as its noise is
    while len(builds) < SETUP_REPEATS:
        build()
    setup_s = import_s + statistics.median(builds)
    # each operation's latency is its median over the rounds: the outputs are the
    # same every round, so the timings differ only by load from outside, which on
    # a shared host shifts for seconds at a time; the median of a run's rounds
    # holds steadier from run to run than the least, which rests on a rare quiet spell
    best = {t: [statistics.median(col) for col in zip(*rows)] for t, rows in latencies.items() if rows}

    exact = sum(1 for f in runner.facts.values() if f.get("exact"))
    print(f"# set-up: import {import_s:.4f} s, builds {', '.join(f'{b:.4f}' for b in builds)} s")
    print(f"# machine: reference loop {machine_before:.2f} ms before, "
          f"{_reference_loop_ms():.2f} ms after the run")
    print(f"# {workload_name} seed {seed}: {rounds} rounds of {len(ops)} operations, untraced rounds "
          f"{', '.join(f'{sum(r):.2f}' for r in latencies[False])} s; grid already seen by "
          f"{_seen_share(ops * rounds):.4f} of operations"
          + (f"; exact recoveries {exact} of {len(ops)} targets" if workload_name == "anneal" else ""))
    for p in runner.problems[:20]:
        print(f"# WRONG {p}", file=sys.stderr)

    if trace:
        overhead = 100.0 * (sum(best[True]) / sum(best[False]) - 1.0)
        totals = tracer.layer_totals()
        metrics = layer_metrics(totals, tracer.op + 1, exact)
        metrics["bench.trace_overhead_pct"] = (overhead, "%")
        os.makedirs(RUNS, exist_ok=True)
        path = os.path.join(RUNS, f"trace-{workload_name}-seed{seed}.json")
        tracer.dump(path, {
            "workload": workload_name, "seed": seed, "rounds": rounds,
            "ops_per_round": len(ops), "latencies_s": {"untraced": latencies[False],
                                                       "traced": latencies[True]},
            "trace_overhead_pct": overhead, "layers": totals,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        print(f"# tracing overhead {overhead:.2f}% ({sum(best[True]):.3f} s traced vs "
              f"{sum(best[False]):.3f} s untraced, same operations, median over rounds); "
              f"spans in {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "ops_per_s": (len(ops) / sum(best[False]), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(best[False]), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(best[False], n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("anneal", "oracle", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"

    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-{args.seed}-", dir=RUNS)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
