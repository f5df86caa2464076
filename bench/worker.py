"""One measured process: set-up, cold pass, warm pass, output checks.

Usage (run.py starts it; it is not meant to be called by hand):

    python3 bench/worker.py --workload NAME --seed N [--setup-only] [--trace]
        [--spans PATH]

The set-up time covers `import delbound` and the construction of the
workload's spaces. With --trace, the layer wrappers are installed after
set-up, so set-up is never traced. Every time is reported both as
measured ("raw") and scaled to the reference speed of speed.py; the
metrics use the scaled ones. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import ops

    specs = ops.op_specs(args.workload)
    labels = ops.space_labels(specs)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import delbound

    spaces = ops.build_spaces(delbound, labels)
    raw_setup_s = time.perf_counter() - t0

    # imports numpy, so only after set-up is timed
    import speed

    log = speed.SpeedLog()
    setup_s = raw_setup_s * log.setup_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": raw_setup_s}}))
        return 0

    import numpy

    reference = ops.load_reference()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    calls = ops.bind_ops(delbound, specs, spaces)
    order = ops.permutation(len(calls), args.seed)

    passes = []
    for p in range(2):
        on_op = None
        if tracer is not None:
            def on_op(i, _base=p * len(calls)):
                tracer.op_id = _base + i
        passes.append(ops.run_pass(calls, order, on_op, log))
    (raw_wall, cold, cold_raw, cold_starts), (raw_warm_wall, warm, warm_raw, warm_starts) = passes
    cold_lat = log.scale(cold_starts, cold_raw)
    warm_lat = log.scale(warm_starts, warm_raw)

    counts, warm_counts, failures = ops.check_passes(specs, cold, warm, reference)
    out = {
        "setup_s": setup_s,
        "wall_s": sum(cold_lat),
        "warm_wall_s": sum(warm_lat),
        "latencies_s": cold_lat,
        "raw": {"setup_s": raw_setup_s, "wall_s": raw_wall, "warm_wall_s": raw_warm_wall},
        "probes": {"count": len(log.times), "median_s": statistics.median(log.times),
                   "min_s": min(log.times), "max_s": max(log.times)},
        "cold": counts,
        "warm": warm_counts,
        "failures": [list(f) for f in failures[:20]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        bound_ops = 2 * sum(1 for s in specs if s[1] != "lp")
        certified_bound_ops = counts["certified"] + warm_counts["certified"] if bound_ops else 0
        out["layers"] = tracing.layer_metrics(
            tracer.spans, bound_ops, certified_bound_ops, tracing.cache_stats(),
            [log.factor_at(t) for t in cold_starts + warm_starts])
        out["builds_by_method"] = tracing.builds_by_method(
            tracer.spans, [s[4] for s in specs] * 2)
        out["spans"] = len(tracer.spans)
        out["missing_wrappers"] = tracer.missing
        if args.spans:
            keys = [("cold:" if p == 0 else "warm:") + s[0] for p in range(2) for s in specs]
            tracer.dump(args.spans, keys)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
