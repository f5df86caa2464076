"""Span tracing of delbound's layers, installed from outside the package.

Only a traced worker process installs it. Each public function listed in
LAYERS is replaced by a wrapper in every `delbound` module namespace that
binds it (`from .orthopoly import eval_basis_table` makes a copy of the
binding, and each copy is wrapped). A wrapper records one span:

    [name, start, end, parent, op_id, work, raised]

Spans stay in memory and are written out when the run ends. Self time is
a span's duration minus the durations of its direct children; with one
thread, children nest inside their parent and do not overlap. The
metrics scale it to the reference speed like the end-to-end times
(speed.py); the written spans keep the raw clock.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np


def _lp_span(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "float")
    return "lp_oracle.solve_exact" if mode == "exact" else "lp_oracle.solve_float"


def _basis_values(args, kwargs, _out):
    deg = kwargs.get("deg", args[2] if len(args) > 2 else 0)
    x = kwargs.get("x", args[3] if len(args) > 3 else ())
    return (deg + 1) * int(np.size(x))


# (module, function, span name or namer, work counter or None)
LAYERS = (
    ("spaces", "max_degree", "spaces.max_degree", None),
    ("spaces", "node_weights", "spaces.node_weights", None),
    ("spaces", "quadrature", "spaces.quadrature", None),
    ("orthopoly", "recurrence_coeffs", "orthopoly.recurrence", None),
    ("orthopoly", "zeros", "orthopoly.zeros", None),
    ("orthopoly", "tridiagonal_eigenvalues", "orthopoly.eigvals",
     lambda a, k, out: int(np.size(out))),
    ("orthopoly", "eval_basis_table", "orthopoly.basis_table", _basis_values),
    ("orthopoly", "discrete_basis_table", "orthopoly.node_table", None),
    ("constructions", "mrrw_poly", "constructions.build", None),
    ("constructions", "lev_odd_poly", "constructions.build", None),
    ("constructions", "lev_even_poly", "constructions.build", None),
    ("constructions", "lev_degree_select", "constructions.window", None),
    ("constructions", "mrrw_bound_closed", "constructions.closed_form", None),
    ("constructions", "bound_for_distance", "constructions.op", None),
    ("constructions", "bound_for_s", "constructions.op", None),
    ("feasibility", "fourier_expand", "feasibility.expand", None),
    ("feasibility", "cone_certificate", "feasibility.audit",
     lambda a, k, out: (out.audit_size, int(out.passed))),
    ("spectral", "build_Tk", "spectral.operator", None),
    ("spectral", "top_eigenpair", "spectral.eigensolve",
     lambda a, k, out: int(np.size(out.vector))),
    ("spectral", "spectral_recover_bound", "spectral.route", None),
    ("lp_oracle", "delsarte_lp", _lp_span, None),
    ("lp_oracle", "krawtchouk", "lp_oracle.krawtchouk", None),
)

MODULES = ("spaces", "orthopoly", "constructions", "feasibility", "spectral", "lp_oracle")

NAME, START, END, PARENT, OP, WORK, RAISED = range(7)


class Tracer:
    """Holds the span list and the stack of open spans of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.missing = []

    def wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, clock(), 0.0,
                    stack[-1] if stack else -1, self.op_id, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, out)
            return out

        return traced

    def install(self, package="delbound"):
        """Wrap every LAYERS function in every namespace of the package."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == package or key.startswith(package + "."))]
        for module, func, name, work in LAYERS:
            home = sys.modules.get("%s.%s" % (package, module))
            original = getattr(home, func, None)
            if original is None:
                self.missing.append("%s.%s" % (module, func))
                continue
            wrapper = self.wrap(original, name, work)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

    def dump(self, path, op_keys):
        """Write the spans as gzipped JSON lines, one list per span in the
        field order above, after a header line naming the fields and ops."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op",
                                            "work", "raised"], "ops": op_keys}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans, op_factors=None):
    """Per-span self time: duration minus the durations of direct children.
    With op_factors, each is multiplied by the scale factor of its span's
    op (speed.py), indexed by op id."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    if op_factors is not None:
        own = [t * op_factors[s[OP]] for t, s in zip(own, spans)]
    return own


def cache_stats(package="delbound"):
    """Sum cache_info() over every module-level object of the package that
    has one, looking through wrappers to the cached function."""
    seen = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == package or key.startswith(package + ".")):
            continue
        for value in vars(mod).values():
            obj = value
            while obj is not None and not callable(getattr(obj, "cache_info", None)):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None:
                seen[id(obj)] = obj
    hits = misses = entries = 0
    for obj in seen.values():
        info = obj.cache_info()
        hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


def layer_metrics(spans, bound_ops, certified_ops, cache, op_factors=None):
    """The per-layer metrics of one traced run, keyed by metric name.

    bound_ops counts the bound_for_* calls the run made and certified_ops
    how many of them returned a certified bound. op_factors scale self
    times as in self_times.
    """
    own = self_times(spans, op_factors)
    calls, selfs = {}, {}
    values = {"orthopoly.eigvals": 0, "orthopoly.basis_table": 0, "spectral.eigensolve": 0}
    points = passed = 0
    raised = dict.fromkeys(MODULES, 0)
    module_self = dict.fromkeys(MODULES, 0.0)
    for i, s in enumerate(spans):
        name = s[NAME]
        module = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + own[i]
        module_self[module] += own[i]
        if name in values and s[WORK] is not None:
            values[name] += s[WORK]
        if name == "feasibility.audit" and s[WORK] is not None:
            points += s[WORK][0]
            passed += s[WORK][1]
        # an exception leaves the module when the caller is outside it
        if s[RAISED] and (s[PARENT] < 0 or
                          spans[s[PARENT]][NAME].split(".", 1)[0] != module):
            raised[module] += 1

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return selfs.get(name, 0.0)

    builds = c("constructions.build")
    audits_returned = sum(1 for s in spans if s[NAME] == "feasibility.audit" and s[WORK] is not None)
    lookups = cache["hits"] + cache["misses"]
    out = {
        "spaces.max_degree.calls": c("spaces.max_degree"),
        "spaces.node_weights.calls": c("spaces.node_weights"),
        "spaces.self_s": module_self["spaces"],
        "spaces.quadrature.calls": c("spaces.quadrature"),
        "spaces.quadrature.self_s": t("spaces.quadrature"),
        "orthopoly.eigvals.order_sum": values["orthopoly.eigvals"],
        "orthopoly.basis_table.values": values["orthopoly.basis_table"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.entries": cache["entries"],
        "constructions.build.per_op": builds / bound_ops if bound_ops else 0.0,
        "constructions.build.useful_ratio": certified_ops / builds if builds else 0.0,
        "constructions.op.self_s": t("constructions.op"),
        "feasibility.audit.points": points,
        "feasibility.audit.pass_ratio": passed / audits_returned if audits_returned else 0.0,
        "spectral.eigensolve.order_sum": values["spectral.eigensolve"],
        "spectral.route.self_s": t("spectral.route"),
    }
    for name in ("orthopoly.recurrence", "orthopoly.zeros", "orthopoly.eigvals",
                 "orthopoly.basis_table", "orthopoly.node_table", "constructions.build",
                 "constructions.window", "constructions.closed_form", "feasibility.expand",
                 "feasibility.audit", "spectral.operator", "spectral.eigensolve",
                 "lp_oracle.solve_float", "lp_oracle.solve_exact", "lp_oracle.krawtchouk"):
        out[name + ".calls"] = c(name)
        out[name + ".self_s"] = t(name)
    for module in MODULES:
        out[module + ".raised"] = raised[module]
    return out


def builds_by_method(spans, op_methods):
    """Polynomial builds per bound op, split by the op's method."""
    ops, builds = {}, {}
    for method in op_methods:
        ops[method] = ops.get(method, 0) + 1
    for s in spans:
        if s[NAME] == "constructions.build" and s[OP] >= 0:
            method = op_methods[s[OP]]
            builds[method] = builds.get(method, 0) + 1
    return {m: {"ops": ops[m], "builds": builds.get(m, 0),
                "per_op": builds.get(m, 0) / ops[m]} for m in sorted(ops)}
