#!/usr/bin/env python3
"""LMFAO benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload batch-repeat --seed 1 --seconds 10 --trace 0

Starts a Spark session sized from this machine, generates the workload's
data from ``--seed``, sets up (data loaded several times, then the
workload's warm-up rounds), then runs rounds back to back for ``--seconds``
and checks every output of the timed rounds against an independent
computation (gate.py). See README.md for the workloads and metrics.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics from the traced
ones plus the tracing overhead (traced minus untraced). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Every file the run writes goes under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: How many times set-up loads the data; ``setup_s`` uses the median load.
SETUP_LOADS = 3

#: End-to-end metrics in the result line (BENCHMARK.json bounds them). The
#: others are printed above it: per-batch, ingest and train times exist only
#: on some workloads or vary too much between runs to bound, and peak RSS
#: moves with garbage-collection timing.
GATED = ("setup_s", "round_s", "aggregates_per_s")


def median(values):
    return statistics.median(values) if values else None


def evaluate_checks(rounds) -> tuple[int, int]:
    """Run the deferred checks of ``rounds``; returns (attempted, failed)."""
    attempted = failed = 0
    for res in rounds:
        attempted += res.attempted
        for reason in res.errors:
            failed += 1
            print(f"FAILED (raised) {reason}", file=sys.stderr)
        for label, check in res.checks:
            try:
                reason = check()
            except Exception:
                reason = traceback.format_exc(limit=3)
            if reason is not None:
                failed += 1
                print(f"FAILED (check) {label}: {reason}", file=sys.stderr)
    return attempted, failed


def report(name: str, value, unit: str, note: str = "") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<28} {shown:>14} {unit:<6} {note}")


def end_to_end(wl, setup_s: float, rounds, rss_mb: float, attempted: int, failed: int) -> dict:
    walls = [r.wall_s for r in rounds]
    n = len(rounds)
    kinds = sorted({k for r in rounds for k in r.batch_s})
    batch = {k: median([r.batch_s[k] for r in rounds if k in r.batch_s]) for k in kinds}
    ingest = median([r.ingest_s for r in rounds if r.ingest_s is not None])
    train = median([r.train_s for r in rounds if r.train_s is not None])
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (median(walls), "s"),
        # application aggregates of the median round over its wall time
        "aggregates_per_s": (median([r.aggregates / r.wall_s for r in rounds]), "1/s"),
        **{f"batch_{k}_s": (batch.get(k), "s") for k in ("count", "cm", "rt", "mi", "dc")},
        "ingest_s": (ingest, "s"),
        "train_s": (train, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    print(f"end-to-end ({wl.name}, {n} timed rounds; timings are medians):")
    print("  round walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    for name, (value, unit) in metrics.items():
        report(name, value, unit, "(not run)" if value is None else "")
    return {k: metrics[k] for k in GATED}


def per_layer(wl, tracer, layer_rounds, untraced, traced, setup_cache_s) -> dict:
    from repro.core.engine import LMFAO
    from tracing import median_metrics

    m = median_metrics(layer_rounds)
    if traced[0].ingest_s is None:
        # relations are cached once, during set-up
        m["datasets.cache_s"] = median(setup_cache_s)
        m["datasets.rows"] = sum(wl.sizes.values())
    else:
        m["datasets.rows"] = wl.sizes[wl.spec.fact]
    first = tracer.batches[0]["round"]
    unmerged = LMFAO(wl.spec.tree(), wl.sizes, merge_views=False)
    i_unmerged = sum(
        unmerged.compile(b["queries"]).stats()["I"]
        for b in tracer.batches if b["round"] == first
    )
    i_merged = sum(b["views.I"] for b in tracer.batches if b["round"] == first)
    m["views.I_unmerged"] = i_unmerged
    m["views.atom_reuse"] = 1 - i_merged / i_unmerged
    m["executor.jobs_per_view"] = m["executor.spark_jobs"] / m["executor.views_run"]

    def overhead(attr):
        a = [getattr(r, attr) for r in traced if getattr(r, attr) is not None]
        b = [getattr(r, attr) for r in untraced if getattr(r, attr) is not None]
        return median(a) - median(b) if a and b else 0.0

    m["trace.overhead_round_s"] = overhead("wall_s")
    m["trace.overhead_train_s"] = overhead("train_s")
    print(f"per-layer ({wl.name}, medians over {len(traced)} traced rounds):")
    out = {}
    for name in sorted(m):
        out[name] = (m[name], unit_of(name))
        report(name, *out[name])
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric in ("views.atom_reuse", "executor.jobs_per_view"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sparkenv
    from gate_selftest import selftest
    from tracing import Tracer, TracedLMFAO
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    problems = selftest()
    if problems:
        print(f"perfbench: correctness gate self-test failed: {problems}", file=sys.stderr)
        return 1

    workdir = OUT / "work"
    conf = sparkenv.session_config(str(workdir))
    print("config: " + " ".join(f"{k}={v}" for k, v in conf.items()) + " pool_workers=4 (engine default)")
    t0 = time.perf_counter()
    spark = sparkenv.start_session(str(workdir), conf)
    session_s = time.perf_counter() - t0
    jvm = sparkenv.jvm_pid(spark)
    try:
        wl = WORKLOADS[args.workload](spark, args.seed)
        load_s, cache_s = [], []
        for _ in range(SETUP_LOADS):
            t = time.perf_counter()
            cache_s.append(wl.load())
            load_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        wl.prepare()
        engine = wl.engine()
        warm = [wl.run_round(i, engine) for i in range(wl.warmup_rounds)]
        warm_s = time.perf_counter() - t
        setup_s = session_s + statistics.median(load_s) + warm_s
        print(
            f"setup: session {session_s:.3f}s, data load median {statistics.median(load_s):.3f}s "
            f"of {[round(x, 3) for x in load_s]}, prepare+{len(warm)} warm-up rounds {warm_s:.3f}s"
        )
        for res in warm:
            if res.errors:
                print(f"warm-up errors: {res.errors}", file=sys.stderr)

        r = len(warm)
        start = time.perf_counter()
        if not args.trace:
            rounds = []
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(wl.run_round(r, engine))
                r += 1
            checked = rounds
        else:
            tracer = Tracer(spark)
            traced_engine = wl.engine(TracedLMFAO, tracer=tracer)
            untraced, traced, layer_rounds = [], [], []
            while not traced or time.perf_counter() - start < args.seconds:
                # alternate which goes first, so a drift in round times does
                # not land on one side of the overhead
                for with_trace in (len(traced) % 2 == 1, len(traced) % 2 == 0):
                    if not with_trace:
                        untraced.append(wl.run_round(r, engine))
                    else:
                        cpu0 = sparkenv.cpu_seconds(jvm)
                        with tracer.instrumented(r):
                            traced.append(wl.run_round(r, traced_engine, tracer))
                        metrics = tracer.round_metrics(r)
                        metrics["executor.jvm_cpu_s"] = sparkenv.cpu_seconds(jvm) - cpu0
                        layer_rounds.append(metrics)
                    r += 1
            checked = untraced + traced
        rss_mb = sparkenv.peak_rss_mb([os.getpid(), jvm])

        attempted, failed = evaluate_checks(checked)
        print(f"correctness: {attempted - failed}/{attempted} batches and models passed; "
              f"error_rate {failed / attempted:.6g}")
        if not args.trace:
            metrics = end_to_end(wl, setup_s, rounds, rss_mb, attempted, failed)
        else:
            metrics = per_layer(wl, tracer, layer_rounds, untraced, traced, cache_s)
            OUT.mkdir(parents=True, exist_ok=True)
            path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.write(str(path), {"workload": wl.name, "seed": args.seed, "layers": layer_rounds})
            print(f"spans written to {path.relative_to(ROOT)}")
    finally:
        sparkenv.stop_session(spark)
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
