"""Paired in-process A/B timing of two source trees on the benchmark workloads.

Run from the repository root, with a second checkout as the base:

    mkdir /tmp/base && git archive <base-commit> | tar -x -C /tmp/base
    python3 tools/paired_ab.py /tmp/base

The base tree's and this checkout's `src/ccmv` are copied into a
temporary directory under two package names (`ccmv_base`, `ccmv_change`;
the package imports itself only relatively), and both are imported into
one interpreter.  For every workload of `bench/workloads.py`, at seed 0,
the script then times the base and the change back to back on the same
case, 200 pairs alternating which runs first, for a `verdict` (model text
to the verify TSV rows) and a `diff` (model text and expected table to the
diff TSV rows), the two reports that `bench/run.py` times.  Every pair
must give identical rows, or the script stops with exit code 1.  It
prints, per workload and report, the median of the per-pair ratios
change/base with its quartiles, and the pairs the change won.  A base
tree without `src/ccmv` stops it with exit code 2.

This is a pre-check before `bench/run.py`, not a substitute for it: the
two sides share the interpreter, the allocator and the machine's state of
the moment, so the ratio of a pair holds to a few per cent while the speed
of the machine drifts by up to 2x between separate runs.  The gain a change
claims is still measured by `bench/run.py` on both commits.  The script
reads `bench/` (its workloads) and writes nothing there.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ("verdict", "diff")
PAIRS = 200


def load_tree(tree: Path, name: str, into: Path):
    """Import `tree`'s `src/ccmv` as the package `name`, copied into `into`."""
    shutil.copytree(tree / "src" / "ccmv", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def report(pkg, kind: str, case) -> list[str]:
    """One report as `bench/run.py` makes it, through the package `pkg`."""
    m = pkg.load_model(case.text)
    if kind == "verdict":
        return pkg.suite_tsv_rows(pkg.run_suite(m, "all"))
    return pkg.diff_tsv_rows(pkg.diff_expected(m, pkg.parse_expected(case.expected, m.dim)))


def timed(pkg, kind: str, case) -> tuple[float, list[str]]:
    gc.collect()
    start = perf_counter()
    rows = report(pkg, kind, case)
    return perf_counter() - start, rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the base tree (a checkout of the parent)")
    args = parser.parse_args(argv)
    if not (args.base / "src" / "ccmv").is_dir():
        print(f"paired_ab: {args.base} has no src/ccmv to compare against", file=sys.stderr)
        return 2

    # nothing is compiled to disk: not in bench/, not in the copies; the
    # path, the flag and the modules imported here are put back on return
    saved, before = (list(sys.path), sys.dont_write_bytecode), set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    try:
        from workloads import WORKLOAD_NAMES, make_workload

        with tempfile.TemporaryDirectory() as tmp:
            sys.path.insert(0, tmp)
            sides = {"base": load_tree(args.base.resolve(), "ccmv_base", Path(tmp)),
                     "change": load_tree(ROOT, "ccmv_change", Path(tmp))}
            for name in WORKLOAD_NAMES:
                cases = make_workload(name, 0).cases
                for kind in REPORTS:
                    ratios, wins = [], 0
                    for case in cases:  # warm-up: every case once on each side
                        for pkg in sides.values():
                            report(pkg, kind, case)
                    for k in range(PAIRS):
                        case = cases[k % len(cases)]
                        order = ("base", "change") if k % 2 == 0 else ("change", "base")
                        seconds, rows = {}, {}
                        for side in order:
                            seconds[side], rows[side] = timed(sides[side], kind, case)
                        if rows["base"] != rows["change"]:
                            print(f"{name} {kind}: the two trees' rows differ on pair {k}",
                                  file=sys.stderr)
                            return 1
                        ratios.append(seconds["change"] / seconds["base"])
                        wins += seconds["change"] < seconds["base"]
                    median, q1, q3 = quartiles(ratios)
                    print(f"{name:10} {kind:8} change/base {median:.3f} [{q1:.3f}-{q3:.3f}]  "
                          f"change faster in {wins}/{PAIRS} pairs")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        for name in set(sys.modules) - before:
            if name.split(".")[0] in ("ccmv_base", "ccmv_change", "workloads"):
                del sys.modules[name]
    return 0


if __name__ == "__main__":
    sys.exit(main())
