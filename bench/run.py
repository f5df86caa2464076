"""delbound benchmark: certified bounds, cold and warm, on four workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one caller: a researcher waiting on each bound. Each
repetition is a fresh Python process (worker.py) that does set-up, a cold
pass over the workload's ops, a warm pass over the same ops, and the
output checks. Repetitions run back to back until --seconds have passed
and at least MIN_REPS have run.
Every time is scaled to a fixed reference CPU speed by probes run between
the ops (speed.py), because the host's own speed swings by 1.5x for tens
of seconds at a time; the raw times are printed and recorded beside them.
Time metrics are medians over the repetitions; op_p50_ms and op_p90_ms
pool the cold-pass ops of every repetition. Set-up alone is also timed
in nine extra processes, so setup_s has at least ten samples.

With --trace 1 each repetition is a pair: an untraced process and a traced
one (tracing.py), and the metrics are the per-layer ones, plus
trace.overhead_s, the traced cold wall minus the untraced one.

Without --workload, every workload runs in turn and the exit code is
non-zero if any check failed. The last line of standard output is one
JSON object per the BENCHMARK.json contract; a record of the run, with
the environment and per-op outcome counts, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 9
# large-n's cold pass is ruled by a few cache-filling ops of seconds each,
# so one repetition is not enough for a steady median
MIN_REPS = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s

sys.path.insert(0, HERE)
import ops  # noqa: E402


class RunError(Exception):
    """A worker process did not produce a result."""


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_env():
    env = dict(os.environ)
    # one caller, one core: BLAS threads would only add contention noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("no time left for %s" % " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args, cwd=ROOT, env=worker_env(),
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise RunError("worker %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("worker %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                                     proc.stderr[-4000:]))
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """All worker results of one run: set-up samples, then repetitions."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    base = ["--workload", workload]
    setups = [run_worker(base + ["--seed", str(seed), "--setup-only"], deadline)
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    loop_start = time.monotonic()
    rep = 0
    while rep < MIN_REPS or time.monotonic() - loop_start < seconds:
        t0 = time.monotonic()
        rep_args = base + ["--seed", str(seed * 1000 + rep)]
        plain.append(run_worker(rep_args, deadline))
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl.gz" % (workload, seed))
            traced.append(run_worker(rep_args + ["--trace", "--spans", spans], deadline))
        rep += 1
        # stop early rather than overrun the time limit
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            break
    return setups, plain, traced


def end_to_end(setups, plain, latency):
    return {
        "setup_s": median([r["setup_s"] for r in setups + plain]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "warm_wall_s": median([r["warm_wall_s"] for r in plain]),
        "op_p50_ms": latency["p50_ms"],
        "op_p90_ms": latency["p90_ms"],
        "certified": median([r["cold"]["certified"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer(plain, traced):
    layers = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                  - median([r["wall_s"] for r in plain]))
    return layers


def run_workload(workload, seed, seconds, trace, contract):
    setups, plain, traced = measure(workload, seed, seconds, trace)
    results = plain + traced
    attempted = sum(sum(r[p].values()) for r in results for p in ("cold", "warm"))
    failed = sum(r[p]["failed"] for r in results for p in ("cold", "warm"))
    # percentiles over the cold-pass ops of every repetition
    lat = ops.latency_summary([t for r in plain for t in r.pop("latencies_s")])
    for r in traced:
        del r["latencies_s"]
    e2e = end_to_end(setups, plain, lat)
    e2e["failed_share"] = failed / attempted
    print("workload %s, seed %d, %d repetition(s), %d set-up samples"
          % (workload, seed, len(plain), len(setups) + len(plain)))
    print("  cold passes: %d ops each; op percentiles over %d samples, %d above p90"
          % (len(ops.op_specs(workload)), lat["samples"], lat["above_p90"]))
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units["failed_share"] = "ratio"
    for name, value in e2e.items():
        print("  %-16s %.6g %s" % (name, value, units[name]))
    raw = {name: median([r["raw"][name] for r in (setups + plain if name == "setup_s" else plain)])
           for name in ("setup_s", "wall_s", "warm_wall_s")}
    print("  as measured, before scaling to the reference speed: %s"
          % ", ".join("%s %.6g s" % kv for kv in raw.items()))
    for r in results:
        for key, where, reason in r["failures"]:
            print("  FAILED %s (%s): %s" % (key, where, reason))

    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    values = per_layer(plain, traced) if trace else e2e
    if trace:
        for name, value in sorted(values.items()):
            print("  %-40s %.6g %s" % (name, value, units.get(name, "")))
        print("  builds per op by method: %s" % json.dumps(traced[0]["builds_by_method"]))

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "env": plain[0]["env"],
        "ops": len(ops.op_specs(workload)), "latency": lat, "outcomes": [{"cold": r["cold"], "warm": r["warm"]} for r in results],
        "end_to_end": e2e, "per_layer": values if trace else None,
        "setups": setups, "repetitions": plain, "traced": traced,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "delbound", "__init__.py")):
        print("no delbound sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    ok = True
    for workload in [args.workload] if args.workload else ops.WORKLOADS:
        try:
            result = run_workload(workload, args.seed, seconds, args.trace, contract)
        except RunError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
