"""Record the reference values the output checks compare against.

    python3 bench/record_reference.py

Runs every workload's ops once and writes bench/reference.json: the bound
of every op that certifies, and the exact Fraction of every LP. The
committed file was recorded on the seed code; re-record only when a change
is meant to alter the numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import delbound  # noqa: E402
import ops  # noqa: E402


def main() -> int:
    reference = {}
    for workload in ops.WORKLOADS:
        specs = ops.op_specs(workload)
        spaces = ops.build_spaces(delbound, ops.space_labels(specs))
        calls = ops.bind_ops(delbound, specs, spaces)
        _, outcomes, _, _ = ops.run_pass(calls, range(len(calls)))
        for (key, kind, _space, _arg, method), out in zip(specs, outcomes):
            if kind == "lp":
                if method == "exact" and out.status == "optimal":
                    reference[key] = str(out.value)
                continue
            outcome, reason = ops.classify(key, kind, method, out, {})
            if outcome == "failed":
                print("%s failed: %s" % (key, reason), file=sys.stderr)
                return 1
            if outcome == "certified":
                reference[key] = out.bound
        print("%s: %d ops" % (workload, len(specs)), file=sys.stderr)
    with open(ops.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
