"""Self-tests of the benchmark's checker, span arithmetic, speed scaling
and percentiles.

    python3 bench/selftest.py

They use synthetic results, spans and probe times, and need no delbound
import beyond its exception classes.
"""

from __future__ import annotations

import os
import sys
import unittest
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from delbound.errors import NotCertifiedError, NumericError  # noqa: E402

KEY = "hamming:8/d=3/lev"
SPEC = (KEY, "distance", "hamming:8", 3, "lev")


def bound_result(bound=20.0, fhat0=0.05, passed=True, closed=None):
    cert = SimpleNamespace(passed=passed, verdict="pass" if passed else "fail",
                           reason=None if passed else "fhat_3 < 0", fhat=(fhat0, 0.1),
                           max_on_audit=-1.0, min_coeff_value=0.1, audit_size=5)
    return SimpleNamespace(method="lev_odd", s=0.25, degree=3, bound=bound, d=3,
                           closed_form=closed, certificate=cert)


class CheckerTest(unittest.TestCase):
    reference = {KEY: 20.0, "lp/n=8/d=3/exact": "20"}

    def outcome(self, out, spec=SPEC):
        key, kind, _space, _arg, method = spec
        return ops.classify(key, kind, method, out, self.reference)[0]

    def test_good_result_certifies(self):
        self.assertEqual(self.outcome(bound_result()), "certified")

    def test_perturbed_bound_fails(self):
        # 1/fhat_0 moves with the bound, so only the reference catches it
        self.assertEqual(self.outcome(bound_result(20.0 * (1 + 1e-6), 1 / (20.0 * (1 + 1e-6)))),
                         "failed")
        # a bound that disagrees with its own 1/fhat_0
        self.assertEqual(self.outcome(bound_result(20.0, 0.05 * (1 + 1e-10))), "failed")

    def test_closed_form_gap_fails(self):
        self.assertEqual(self.outcome(bound_result(closed=20.0 * (1 + 1e-12))), "certified")
        self.assertEqual(self.outcome(bound_result(closed=20.0 * (1 + 1e-8))), "failed")

    def test_failed_certificate_fails(self):
        self.assertEqual(self.outcome(bound_result(passed=False)), "failed")

    def test_numeric_error_fails_and_refusal_does_not(self):
        self.assertEqual(self.outcome(NumericError("no convergence")), "failed")
        self.assertEqual(self.outcome(NotCertifiedError("outside the cone")), "refused")

    def test_lp_checks(self):
        spec_exact = ("lp/n=8/d=3/exact", "lp", 8, 3, "exact")
        spec_float = ("lp/n=8/d=3/float", "lp", 8, 3, "float")
        lp = lambda value, status="optimal": SimpleNamespace(status=status, value=value, B=())
        self.assertEqual(self.outcome(lp(Fraction(20)), spec_exact), "certified")
        self.assertEqual(self.outcome(lp(Fraction(41, 2)), spec_exact), "failed")
        self.assertEqual(self.outcome(lp(20.0 + 1e-12), spec_float), "certified")
        self.assertEqual(self.outcome(lp(20.0 + 1e-6), spec_float), "failed")
        self.assertEqual(self.outcome(lp(None, "unbounded"), spec_float), "failed")

    def test_warm_mismatch_fails(self):
        cold = [bound_result()]
        same = [bound_result()]
        drifted = [bound_result(bound=20.0 + 1e-13)]
        counts, warm, failures = ops.check_passes([SPEC], cold, same, self.reference)
        self.assertEqual((counts["certified"], warm["certified"], failures), (1, 1, []))
        counts, warm, failures = ops.check_passes([SPEC], cold, drifted, self.reference)
        self.assertEqual(warm["failed"], 1)
        self.assertEqual(failures[0][:2], (KEY, "warm"))


class SpanTest(unittest.TestCase):
    def test_self_time_on_nested_tree(self):
        # op [0, 10] > build [1, 6] > table [2, 3], table [4, 5.5]; audit [7, 9]
        spans = [
            ["constructions.op", 0.0, 10.0, -1, 0, None, False],
            ["constructions.build", 1.0, 6.0, 0, 0, None, False],
            ["orthopoly.basis_table", 2.0, 3.0, 1, 0, 6, False],
            ["orthopoly.basis_table", 4.0, 5.5, 1, 0, None, True],
            ["feasibility.audit", 7.0, 9.0, 0, 0, (10, 1), False],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.5, 1.0, 1.5, 2.0])
        self.assertEqual(tracing.self_times(spans, [0.5]), [1.5, 1.25, 0.5, 0.75, 1.0])
        m = tracing.layer_metrics(spans, bound_ops=1, certified_ops=0,
                                  cache={"hits": 3, "misses": 1, "entries": 1})
        self.assertEqual(m["constructions.op.self_s"], 3.0)
        self.assertEqual(m["constructions.build.self_s"], 2.5)
        self.assertEqual(m["orthopoly.basis_table.self_s"], 2.5)
        self.assertEqual(m["orthopoly.basis_table.calls"], 2)
        self.assertEqual(m["orthopoly.basis_table.values"], 6)
        self.assertEqual(m["feasibility.audit.points"], 10)
        self.assertEqual(m["feasibility.audit.pass_ratio"], 1.0)
        self.assertEqual(m["orthopoly.raised"], 1)
        self.assertEqual(m["constructions.raised"], 0)
        self.assertEqual(m["cache.hit_ratio"], 0.75)
        self.assertEqual(m["constructions.build.per_op"], 1.0)


class SpeedTest(unittest.TestCase):
    def test_ops_are_scaled_by_the_probes_around_them(self):
        log = speed.SpeedLog()
        ref = speed.REF_PROBE_S
        # probes at t = 0..19: reference speed, then half speed from t = 10
        log.starts = [float(t) for t in range(20)]
        log.times = [ref] * 10 + [2 * ref] * 10
        self.assertEqual(log.factor_at(2.5), 1.0)
        self.assertEqual(log.factor_at(17.5), 0.5)
        # an op before the first probe uses the first probes
        self.assertEqual(log.factor_at(-1.0), 1.0)
        self.assertEqual(log.scale([2.5, 17.5], [0.1, 0.4]), [0.1, 0.2])


class PercentileTest(unittest.TestCase):
    def test_percentiles_carry_sample_counts(self):
        summary = ops.latency_summary([i / 1000 for i in range(1, 101)])
        self.assertAlmostEqual(summary["p50_ms"], 50.5)
        self.assertAlmostEqual(summary["p90_ms"], 90.1)
        self.assertEqual(summary["samples"], 100)
        self.assertEqual(summary["above_p90"], 10)


if __name__ == "__main__":
    unittest.main()
