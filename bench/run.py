#!/usr/bin/env python3
"""adekit benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; adekit is imported from ``src``.
The run first times set-up (import adekit and build the workload's
inputs) in fresh interpreters, then runs whole passes over the workload's
operations until ``--seconds`` have gone by, checking every output.
Every operation and every set-up is timed next to a fixed reference
computation (``reference.py``), and the times are reported as medians of
their ratio to it, in seconds at the reference's quiet-machine speed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
of the run (every pass's times, the outputs, the counters and the
shallow spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# set-up is timed in this many fresh interpreters per measuring process,
# spread over the run
SETUP_SAMPLES = 6
SETUP_TIMEOUT_S = 60
# the untraced passes run in this many processes at once, one per CPU
WORKERS = 2
WORKER_GRACE_S = 150

WORKLOAD_NAMES = ("search", "iterate", "transfer", "float")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(workload: str, seed: int):
    """Import adekit and build the workload's inputs; the time it took."""
    start = time.perf_counter()
    import workloads

    ops = workloads.build(workload, seed)
    return ops, time.perf_counter() - start


def _setup_in_child(workload: str, seed: int):
    """Set-up time in a fresh interpreter, and the reference's time there
    just before it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up failed in a child interpreter (exit {done.returncode})")
    took, ref = done.stdout.split()[-2:]
    return float(took), float(ref)


def _run_pass(ops, tracer=None):
    """One pass over the operations: per-op seconds, the reference's
    seconds before each operation and after the last, records and
    errors."""
    import check
    import reference

    times, refs, records, errors = [], [], [], []
    for op in ops:
        refs.append(reference.time_reference())
        start = time.perf_counter()
        try:
            rec = op.run() if tracer is None else tracer.span(f"op.{op.name}", op.run)
        except Exception as exc:  # an operation that raises is a failed one
            rec, err = None, f"{type(exc).__name__}: {exc}"
        else:
            err = None
        times.append(time.perf_counter() - start)
        if err is None:
            try:
                op.check(rec)
            except check.CheckError as exc:
                err = str(exc)
        records.append(rec)
        errors.append(err)
    refs.append(reference.time_reference())
    return {"times": times, "refs": refs, "records": records, "errors": errors}


def _layer_values(tracer) -> dict:
    """Per-layer metrics of the traced pass just made: name -> (value, unit)."""
    import tracer as tracing

    stats, extra = tracer.stats, tracer.extra

    def col(k, *names):
        return sum(stats[n][k] for n in names if n in stats)

    def calls(*names):
        return col(0, *names), "count"

    def self_s(*names):
        return col(1, *names), "s"

    def incl_s(*names):
        return col(2, *names), "s"

    def counter(name, unit="count"):
        return extra.get(name, 0), unit

    out = {
        "scalars.frac.calls": calls("scalars.frac"),
        "scalars.frac.self_s": self_s("scalars.frac"),
        "scalars.poly_exact_div.calls": calls("scalars.poly_exact_div"),
        "scalars.poly_exact_div.self_s": self_s("scalars.poly_exact_div"),
        "scalars.poly_gcd.calls": calls("scalars.poly_gcd"),
        "scalars.poly_gcd.self_s": self_s("scalars.poly_gcd"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.self_s": self_s("series.mul"),
        "series.mul.coeff_products": counter("series.mul.coeff_products"),
        "series.compose.calls": calls("series.compose"),
        "series.compose.self_s": self_s("series.compose"),
        "series.elementary.self_s": self_s("series.series_exp", "series.series_sin_cos"),
        "expr.expand_series.calls": calls("expr.expand_series"),
        "expr.expand_series.self_s": self_s("expr.expand_series"),
        "expr.nth_derivative.self_s": self_s("expr.nth_derivative"),
        "diffpoly.holds_on.calls": calls("diffpoly.holds_on"),
        "diffpoly.holds_on.incl_s": incl_s("diffpoly.holds_on"),
        "diffpoly.normalize.self_s": self_s("diffpoly.normalize"),
        "chain_rewrite.transfer_support.self_s": self_s("chain_rewrite.transfer_support"),
        "chain_rewrite.transfer_residual.incl_s": incl_s("chain_rewrite.transfer_residual"),
        "discovery.exact_nullspace.calls": calls("discovery.exact_nullspace"),
        "discovery.exact_nullspace.self_s": self_s("discovery.exact_nullspace"),
        "discovery.exact_nullspace.cells": counter("discovery.exact_nullspace.cells"),
        "discovery.exact_nullspace.full_rank": counter("discovery.exact_nullspace.full_rank"),
        "discovery.kernel_bits_max": counter("discovery.kernel_bits_max", "bits"),
        "discovery.numeric_nullspace.self_s": self_s("discovery.numeric_nullspace"),
        "pipeline.transfer_ade.incl_s": incl_s("pipeline.transfer_ade"),
        "pipeline.iterate_ade.incl_s": incl_s("pipeline.iterate_ade"),
        "pipeline.check_permutable.incl_s": incl_s("pipeline.check_permutable"),
        "growth.eval_log_polar.samples": calls("growth.eval_log_polar"),
        "growth.eval_log_polar.self_s": self_s("growth.eval_log_polar"),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = self_s(*(n for n in stats if n.split(".")[0] == layer))
    return out


def _fastest(passes):
    """Each operation's fastest time over the passes, in seconds."""
    return [min(t) for t in zip(*(p["times"] for p in passes))]


def _relative(passes):
    """Each operation's median time over the passes, in seconds at the
    reference's quiet-machine speed: the median of its ratio to the mean
    of the reference times just before and just after it, times
    REFERENCE_S."""
    import reference

    def of_pass(p):
        refs = p["refs"]
        return [2 * t / (refs[j] + refs[j + 1]) for j, t in enumerate(p["times"])]

    ratios = zip(*(of_pass(p) for p in passes))
    return [reference.REFERENCE_S * statistics.median(col) for col in ratios]


def _measure(args, tracer=None):
    """Build the workload, then make whole passes for --seconds, timing
    set-up in a fresh interpreter after each pass until there are
    SETUP_SAMPLES of them.  A pass is not started when the last one
    would no longer fit, so a run ends close to --seconds."""
    setup_times = [_setup_in_child(args.workload, args.seed)]
    ops, _ = _setup(args.workload, args.seed)
    plain, traced, layer_rows, tables = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        plain.append(_run_pass(ops))
        if tracer is not None:
            # traced passes alternate with plain ones, so the overhead is
            # measured on passes made under the same load
            tracer.install()
            try:
                tracer.reset()
                traced.append(_run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            layer_rows.append(_layer_values(tracer))
            tables.append(tracer.table())
        if len(setup_times) < SETUP_SAMPLES:
            setup_times.append(_setup_in_child(args.workload, args.seed))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(_setup_in_child(args.workload, args.seed))
    return ops, setup_times, plain, traced, layer_rows, tables


def _worker(args) -> int:
    """One measuring process pinned to one CPU; its passes go to stdout."""
    os.sched_setaffinity(0, {args.worker})
    _, setup_times, plain, _, _, _ = _measure(args)
    first = [repr(r) for r in plain[0]["records"]]
    print(json.dumps({
        "cpu": args.worker,
        "setup_times": setup_times,
        "passes": [{"times": p["times"], "refs": p["refs"], "errors": p["errors"]} for p in plain],
        "records": first,
        "records_repeat": all([repr(r) for r in p["records"]] == first for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def _measure_on_workers(args):
    """Run one pinned worker per CPU (at most WORKERS) at the same time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    cpus = sorted(os.sched_getaffinity(0))[:WORKERS]
    procs = [
        subprocess.Popen(cmd + ["--worker", str(cpu)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        for cpu in cpus
    ]
    results, failure = [], None
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        if proc.returncode != 0:
            failure = failure or (proc.returncode, err)
        else:
            results.append(json.loads(out.splitlines()[-1]))
    if failure is not None:
        sys.stderr.write(failure[1])
        raise SystemExit(f"a measuring process failed (exit {failure[0]})")
    return results


def main(argv=None) -> int:
    args = _args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    if args.setup_only:
        import reference

        ref = statistics.median(reference.time_reference() for _ in range(3))
        _, took = _setup(args.workload, args.seed)
        print(repr(took), repr(ref))
        return 0
    if args.worker is not None:
        return _worker(args)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        workers = _measure_on_workers(args)
        ops, _ = _setup(args.workload, args.seed)
        passes = [p for w in workers for p in w["passes"]]
        errors = [(op, err) for p in passes for op, err in zip(ops, p["errors"]) if err is not None]
        unexpected = [f"{op.name}: {err}" for op, err in errors if not op.faulty]
        if not all(w["records_repeat"] and w["records"] == workers[0]["records"] for w in workers):
            unexpected.append("outputs differ from one pass to another")
        # The machine's speed changes by up to a factor of two for minutes
        # at a time, on both CPUs at once, so seconds as measured follow the
        # minute.  Times are reported relative to the reference computation
        # timed around each operation and before each set-up (see
        # reference.py); the raw seconds go to the detail file.
        import reference

        relative = _relative(passes)
        setups = [t / r for w in workers for t, r in w["setup_times"]]
        metrics = {
            "setup_s": (reference.REFERENCE_S * statistics.median(setups), "s"),
            "run_s": (sum(relative), "s"),
            "slowest_op_s": (max(relative), "s"),
            "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        }
        fastest = _fastest(passes)
        detail.update(
            workers=workers,
            relative_op_s=relative,
            fastest_op_s=fastest,
            median_op_s=[statistics.median(t) for t in zip(*(p["times"] for p in passes))],
            median_reference_s=statistics.median(r for p in passes for r in p["refs"]),
        )
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        ops, setup_times, plain, traced, layer_rows, tables = _measure(args, tracer)
        passes = plain + traced
        errors = [(op, err) for p in passes for op, err in zip(ops, p["errors"]) if err is not None]
        unexpected = [f"{op.name}: {err}" for op, err in errors if not op.faulty]
        if any(p["records"] != plain[0]["records"] for p in passes):
            unexpected.append("outputs differ from one pass to another")
        # counts come from the first traced pass; times are medians
        metrics = {
            name: (statistics.median(row[name][0] for row in layer_rows) if unit == "s" else value, unit)
            for name, (value, unit) in layer_rows[0].items()
        }
        metrics["trace.overhead_s"] = (sum(_relative(traced)) - sum(_relative(plain)), "s")
        detail.update(
            setup_times=setup_times,
            plain_pass_times=[p["times"] for p in plain],
            traced_pass_times=[p["times"] for p in traced],
            records=[repr(r) for r in plain[0]["records"]],
            layers=tables[0],
            counts_repeat=all(tracing.counts(t) == tracing.counts(tables[0]) for t in tables),
            spans=tracer.spans,
        )

    detail.update(
        ops=[op.name for op in ops],
        errors=sorted({f"{op.name}: {err}" for op, err in errors}),
        unexpected=unexpected[:20],
        metrics=metrics,
    )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    result = {
        "correct": not unexpected,
        "attempted": len(ops) * len(passes),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
