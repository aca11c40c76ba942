"""Write reference/perturbed-seed0.json, the committed perturbed reports.

The file holds the verify and diff rows of every model of the perturbed
workload at the default seed.  Each report must first pass the gate's
seed-independent rules.  Run from the repository root, and only when the
reports are meant to change:

    python3 bench/make_reference.py
"""
from __future__ import annotations

import json
import sys

from run import diff, verdict
from gate import DEFAULT_SEED, REFERENCE, Gate
from workloads import make_workload


def main() -> int:
    workload = make_workload("perturbed", DEFAULT_SEED)
    gate = Gate("perturbed", seed=DEFAULT_SEED + 1)   # the rules without the reference
    reports = {}
    for case in workload.cases:
        rows = {"suite": verdict(case), "diff": diff(case)}
        for kind, report in rows.items():
            problem = gate.check(kind, case, report)
            if problem is not None:
                print(f"{case.spec.name} {kind}: {problem}", file=sys.stderr)
                return 1
        reports[case.spec.name] = rows
    REFERENCE.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
