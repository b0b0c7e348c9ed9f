#!/usr/bin/env python3
"""Benchmark of the talex package on three closed-loop workloads.

Run it from the repository root:

    python3 bench/run.py --workload pretzel935 --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``pretzel935`` (the character-curve
pipeline), ``monic_scan`` (a trefoil monic scan whose solves mostly fail)
and ``torus_exact`` (exact and complex twists and signatures of T(2,n)).
Operations run back to back in one process and one thread, in whole
rounds of the same inputs, at least two rounds and no more than fit in
``--seconds``; every output is checked against closed forms and a failed
check counts as a failed operation.  Every time the benchmark reports
is a wall time scaled to a machine of fixed speed by the gauge in
gauge.py, which times a fixed reference computation during each
operation, so that the slowdowns of a shared machine, which last seconds
to minutes, do not move the result.  op_s and ops_per_s come from each
input's median scaled time over its runs, so that an input run once more
than another does not tilt them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
operations untraced and then traced, reports the per-layer metrics and
writes the spans to bench/out/.  The metric names and units are the ones
BENCHMARK.json declares.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

The script imports talex from the checkout's src/ directory.  Without it
the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One thread everywhere: set before numpy, which gauge imports, reads it.
os.environ.pop("TALEX_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9
SETUP_GAUGE_EDGE = 5
MIN_ROUNDS = 2
MAX_REPORTED_FAILURES = 5


def _import_talex() -> None:
    """Import talex from src/; TALEX_THREADS is unset, so it starts no pools."""
    sys.path.insert(0, SRC)
    import talex
    if not os.path.abspath(talex.__file__).startswith(SRC + os.sep):
        raise ImportError("talex was imported from %s, not from %s"
                          % (talex.__file__, SRC))


def _declared_metrics() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Scaled wall time of fresh interpreters that import talex and build
    the inputs.  The gauge samples only around each child, in this process,
    so that nothing runs beside the child."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        with gauge.Gauge(interval_s=0, edge=SETUP_GAUGE_EDGE) as g:
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        out.append(g.scaled())
    return out


class Phase:
    """Operations run back to back: wall times, the same scaled to the
    nominal machine speed, failures, and the outputs of traced operations,
    which carry some per-layer readings."""

    def __init__(self):
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.speed: list[float] = []
        self.args: list = []
        self.outputs: list = []
        self.failures: list[str] = []

    def fastest(self, arg) -> float:
        return min(t for a, t in zip(self.args, self.times) if a == arg)

    def per_input(self) -> list[float]:
        """The median scaled time of each distinct input, in first-run order."""
        runs: dict = {}
        for arg, t in zip(self.args, self.scaled):
            runs.setdefault(arg, []).append(t)
        return [statistics.median(ts) for ts in runs.values()]

    def run(self, wl, args, tracer=None) -> None:
        """Run and check each operation under the gauge; a raising op or
        check is a failure."""
        for arg in args:
            traced = (tracer.installed(len(self.times)) if tracer
                      else contextlib.nullcontext())
            try:
                with gauge.Gauge() as g, traced:
                    out = wl.op(arg)
            except Exception as exc:
                out, raised = None, exc
            else:
                raised = None
            self.times.append(g.wall)
            self.scaled.append(g.scaled())
            self.speed.append(statistics.fmean(g.samples) / gauge.NOMINAL_S)
            self.args.append(arg)
            if tracer is not None and out is not None:
                self.outputs.append(out)
            try:
                if raised is not None:
                    raise raised
                bad = wl.check(arg, out)
            except Exception:
                bad = [traceback.format_exc()]
            if bad:
                self.failures.append("%r: %s" % (arg, "; ".join(bad)))


def closed_loop(wl, seconds: float, min_rounds: int) -> Phase:
    """Rounds of operations and their checks: `min_rounds` whole rounds,
    then each further operation whose input's fastest time so far says it
    ends within `seconds`."""
    phase = Phase()
    start = time.perf_counter()
    for done, round_args in enumerate(wl.rounds()):
        for arg in round_args:
            if done >= min_rounds and (time.perf_counter() - start
                                       + phase.fastest(arg) > seconds):
                return phase
            phase.run(wl, [arg])


def end_to_end(wl, workload: str, seed: int, seconds: float):
    setup = _setup_seconds(workload, seed)
    phase = closed_loop(wl, seconds, MIN_ROUNDS)
    n = len(phase.times)
    per_input = phase.per_input()
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(per_input),
        "ops_per_s": (n - len(phase.failures)) / n * len(per_input) / sum(per_input),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("%s seed %d: %d ops over %d inputs, %d failed (fail_frac %.3g); "
          "median wall time %.4g s on a machine %.3gx slower than nominal; "
          "op_s and ops_per_s use each input's median scaled time; setup_s "
          "is the median of %d fresh interpreters"
          % (workload, seed, n, len(per_input), len(phase.failures),
             len(phase.failures) / n, statistics.median(phase.times),
             statistics.median(phase.speed), len(setup)))
    return n, phase.failures, metrics


def per_layer(wl, workload: str, seed: int, seconds: float):
    import tracing

    plain = closed_loop(wl, seconds / 2.0, 1)
    tracer = tracing.Tracer()
    traced = Phase()
    traced.run(wl, plain.args, tracer)
    if not tracer.restored():
        raise RuntimeError("tracer left a talex binding wrapped")
    n = len(traced.times)
    metrics = tracer.layer_metrics(n)
    metrics.update(wl.trace_metrics(traced.outputs))
    untraced_op = statistics.median(plain.scaled)
    metrics["trace.overhead_frac"] = (statistics.median(traced.scaled)
                                      - untraced_op) / untraced_op
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    tracer.dump(os.path.join(BENCH, "out", "spans-%s-seed%d.json"
                             % (workload, seed)))
    print("%s seed %d: %d ops untraced, then the same %d traced (%d spans)"
          % (workload, seed, n, n, len(tracer.spans)))
    return 2 * n, plain.failures + traced.failures, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import talex, build the inputs and exit")
    args = ap.parse_args(argv)
    try:
        declared = _declared_metrics()
        _import_talex()
        import workloads
    except (OSError, ImportError, ValueError, KeyError) as exc:
        print("bench: cannot start: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0
    gauge.reference()   # warm up: the first call fills numpy's caches

    measure = per_layer if args.trace else end_to_end
    attempted, failures, values = measure(wl, args.workload, args.seed,
                                          args.seconds)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if not set(values) <= set(units):
        print("bench: metrics missing from BENCHMARK.json %s: %s"
              % (kind, sorted(set(values) - set(units))), file=sys.stderr)
        return 3
    if args.trace:   # layers this workload never reaches read 0
        values = {**dict.fromkeys(units, 0.0), **values}
    elif set(values) != set(units):
        print("bench: end-to-end metrics not measured: %s"
              % sorted(set(units) - set(values)), file=sys.stderr)
        return 3
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print("bench: failed op %s" % failure, file=sys.stderr)
    if len(failures) > MAX_REPORTED_FAILURES:
        print("bench: %d more failed ops" % (len(failures) - MAX_REPORTED_FAILURES),
              file=sys.stderr)
    for name in units:
        print("  %-44s %.6g %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
