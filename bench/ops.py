"""Workload op lists, the timed pass loop, and the output checks.

One op is one call of an entry point that `delbound table/bound/lp` uses:
`bound_for_distance`, `bound_for_s` or `delsarte_lp`. Every op has a
stable key (for example `hamming:64/d=5/mrrw`) under which the seed's
certified value is kept in `reference.json`.

Each op ends in one of three outcomes:

- certified: a BoundResult that passes every check, or an optimal LP;
- refused: NotCertifiedError, DegreeBudgetError or SingularOperatorError;
- failed: any other exception, or any failed check.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("table-h64", "large-n", "sphere-grid", "lp-small")

BOUND_REL = 1e-12  # bound against 1/fhat_0
CLOSED_REL = 1e-9  # bound against its closed form
REFERENCE_REL = 1e-9  # bound against the seed's value, float LP against exact


def _delta_grid(n: int, count: int):
    """Distances d = round(delta * n) for delta evenly spaced on [0.1, 0.5]."""
    return sorted({round(n * (0.1 + 0.4 * i / (count - 1))) for i in range(count)})


def op_specs(workload: str):
    """The op list of a workload, in its canonical order.

    Each entry is (key, kind, space, arg, method): kind "distance" calls
    bound_for_distance(space, arg, method), "s" calls bound_for_s(space,
    arg, method) and "lp" calls delsarte_lp(space, arg, mode=method), where
    space is then the length n.
    """
    ops = []
    if workload == "table-h64":
        # the sweep of `delbound table --space hamming:64`
        for d in range(1, 65):
            for m in ("mrrw", "lev", "spectral"):
                ops.append(("distance", "hamming:64", d, m))
    elif workload == "large-n":
        # Op costs spread over two decades, so every op that the seed moves
        # to the top (the dozen that pay a cache fill or run an mrrw scan)
        # shifts the percentiles; a dense grid keeps that shift to a few per
        # cent. n=1024 is left out: its first op at delta=0.1 fills the
        # caches in one call of 10-13 s, longer than the host keeps one
        # speed (see speed.py), and mrrw there takes about 30 s an op. At
        # n=384 that op takes about 3 s.
        for n, count in ((256, 48), (384, 96)):
            for d in _delta_grid(n, count):
                for m in ("lev", "spectral"):
                    ops.append(("distance", "hamming:%d" % n, d, m))
        for delta in (0.2, 0.3, 0.4):
            ops.append(("distance", "hamming:256", round(256 * delta), "mrrw"))
    elif workload == "sphere-grid":
        for dim in (4, 8, 24, 100):
            for i in range(21):
                for m in ("mrrw", "lev", "spectral"):
                    ops.append(("s", "sphere:%d" % dim, (i - 10) / 20, m))
    elif workload == "lp-small":
        # n <= 14 is the oracle's cap
        for mode in ("float", "exact"):
            for n in range(1, 15):
                for d in range(1, n + 1):
                    ops.append(("lp", n, d, mode))
    else:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
    return [(op_key(*op),) + op for op in ops]


def op_key(kind, space, arg, method) -> str:
    if kind == "distance":
        return "%s/d=%d/%s" % (space, arg, method)
    if kind == "s":
        return "%s/s=%r/%s" % (space, arg, method)
    return "lp/n=%d/d=%d/%s" % (space, arg, method)


def space_labels(specs):
    return sorted({spec[2] for spec in specs if spec[1] != "lp"})


def build_spaces(delbound, labels):
    out = {}
    for label in labels:
        kind, size = label.split(":")
        make = delbound.hamming_space if kind == "hamming" else delbound.sphere_space
        out[label] = make(int(size))
    return out


def bind_ops(delbound, specs, spaces):
    """Zero-argument callables, looked up through the package namespace so
    that a traced run calls the wrapped entry points."""
    calls = []
    for _key, kind, space, arg, method in specs:
        if kind == "distance":
            fn = delbound.bound_for_distance
            calls.append(lambda fn=fn, sp=spaces[space], d=arg, m=method: fn(sp, d, method=m))
        elif kind == "s":
            fn = delbound.bound_for_s
            calls.append(lambda fn=fn, sp=spaces[space], s=arg, m=method: fn(sp, s, method=m))
        else:
            fn = delbound.delsarte_lp
            calls.append(lambda fn=fn, n=space, d=arg, m=method: fn(n, d, mode=m))
    return calls


def permutation(count: int, seed: int):
    """The op order of a run: the canonical order rotated to start at an op
    the seed picks, as a sweep started part-way through.

    The seed moves which op pays each cache fill. A rotation keeps the
    number of ops that pay one near two per (space, method) series; under
    a full shuffle that number varied with the seed and moved op_p90_ms
    by up to a factor of three between seeds.
    """
    start = random.Random(seed).randrange(count)
    return list(range(start, count)) + list(range(start))


def run_pass(calls, order, on_op=None, speed=None):
    """Issue the ops back to back. Returns (wall_s, outcomes, latencies_s,
    starts), the last three indexed like calls; starts are perf_counter()
    times. on_op(i) runs before op i, untimed, and so does
    speed.maybe_probe() when a speed.SpeedLog is given."""
    outcomes = [None] * len(calls)
    latencies = [0.0] * len(calls)
    starts = [0.0] * len(calls)
    clock = time.perf_counter
    start = clock()
    for i in order:
        if on_op is not None:
            on_op(i)
        if speed is not None:
            speed.maybe_probe()
        t0 = starts[i] = clock()
        try:
            out = calls[i]()
        except Exception as exc:  # classified after the pass
            out = exc
        latencies[i] = clock() - t0
        outcomes[i] = out
    return clock() - start, outcomes, latencies, starts


def latency_summary(latencies_s):
    """Median and p90 in ms, with the sample count and how many lie above p90."""
    vals = sorted(latencies_s)
    p90 = statistics.quantiles(vals, n=10, method="inclusive")[8] if len(vals) > 1 else vals[0]
    return {
        "p50_ms": statistics.median(vals) * 1e3,
        "p90_ms": p90 * 1e3,
        "samples": len(vals),
        "above_p90": sum(1 for v in vals if v > p90),
    }


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


REFUSALS = ("NotCertifiedError", "DegreeBudgetError", "SingularOperatorError")


def _rel(a, b) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def classify(key, kind, method, out, reference):
    """(outcome, reason) for one op result; reason names the failed check."""
    if isinstance(out, BaseException):
        if any(cls.__name__ in REFUSALS for cls in type(out).__mro__):
            return "refused", None
        return "failed", "%s: %s" % (type(out).__name__, out)
    if kind == "lp":
        return _check_lp(key, method, out, reference)
    return _check_bound(key, out, reference)


def _check_bound(key, res, reference):
    cert = res.certificate
    if not cert.passed:
        return "failed", "certificate did not pass: %s" % (cert.reason,)
    bound = res.bound
    if not (math.isfinite(bound) and bound > 0):
        return "failed", "bound %r is not a positive finite number" % (bound,)
    if _rel(bound, 1.0 / cert.fhat[0]) > BOUND_REL:
        return "failed", "bound %r != 1/fhat_0 = %r" % (bound, 1.0 / cert.fhat[0])
    closed = getattr(res, "closed_form", None)
    if closed is not None and _rel(bound, closed) > CLOSED_REL:
        return "failed", "bound %r != closed form %r" % (bound, closed)
    ref = reference.get(key)
    if ref is not None and _rel(bound, ref) > REFERENCE_REL:
        return "failed", "bound %r != seed reference %r" % (bound, ref)
    return "certified", None


def _check_lp(key, method, sol, reference):
    if sol.status != "optimal":
        return "failed", "LP status %r" % (sol.status,)
    exact_key = key.rsplit("/", 1)[0] + "/exact"
    ref = reference.get(exact_key)
    if ref is None:
        return "failed", "no seed reference for %s" % exact_key
    ref = Fraction(ref)
    if method == "exact":
        if sol.value != ref:
            return "failed", "exact LP %s != seed %s" % (sol.value, ref)
    elif _rel(float(sol.value), float(ref)) > REFERENCE_REL:
        return "failed", "float LP %r != exact %s" % (sol.value, ref)
    return "certified", None


def fingerprint(out):
    """Everything a result reports, for the exact warm-equals-cold check."""
    if isinstance(out, BaseException):
        return (type(out).__name__, str(out))
    if hasattr(out, "status"):
        return ("lp", out.status, out.value, out.B)
    cert = out.certificate
    return (
        "bound", out.method, out.s, out.degree, out.bound, out.d,
        out.closed_form, cert.verdict, cert.fhat, cert.max_on_audit,
        cert.min_coeff_value, cert.audit_size,
    )


def check_passes(specs, cold, warm, reference):
    """Classify the cold pass, check the warm pass against it.

    Returns (counts_cold, counts_warm, failures) where failures lists
    (key, pass, reason) for every failed op.
    """
    cold_counts = dict.fromkeys(("certified", "refused", "failed"), 0)
    warm_counts = dict(cold_counts)
    failures = []
    for i, (key, kind, _space, _arg, method) in enumerate(specs):
        outcome, reason = classify(key, kind, method, cold[i], reference)
        cold_counts[outcome] += 1
        if reason:
            failures.append((key, "cold", reason))
        if fingerprint(warm[i]) != fingerprint(cold[i]):
            outcome = "failed"
            failures.append((key, "warm", "warm result differs from cold result"))
        warm_counts[outcome] += 1
    return cold_counts, warm_counts, failures
