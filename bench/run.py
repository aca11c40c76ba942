"""ccmv benchmark: time from model text to a checked verdict, per workload.

Run from the repository root:

    python3 bench/run.py --workload iwasawa --seed 0 --seconds 25 --trace 0

Workloads: iwasawa, heis-n2, perturbed (see bench/README.md for why each).
With --trace 0 the run measures the end-to-end metrics with nothing
installed; with --trace 1 it measures the per-layer metrics from traced
passes and a separate op-counting pass.  Every report is checked by the
gate in gate.py; the run exits 1 when any report is wrong or raised.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric
with its unit.  Spans and raw samples go to .bench_out/.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(SRC), str(BENCH)]

import ccmv  # noqa: E402  (the checkout's own source tree, put first on the path)
from ccmv import cli  # noqa: E402

from gate import Gate  # noqa: E402
from tracing import Tracer, fraction_op_counts  # noqa: E402
from workloads import WORKLOAD_NAMES, Case, Workload, make_workload  # noqa: E402

GROUPS = ("axioms", "contact", "normality", "curvature", "ricci")
DIFFS_PER_ROUND = 2
# The speed of a shared machine drifts by up to 1.5x for spells of tens of
# seconds to tens of minutes, and all timings of a run move together.  So a
# timer signal runs a fixed probe kernel every PROBE_INTERVAL_S seconds of a
# run, also in the middle of a report.  Each sample, less the probe time
# inside it, is scaled by REFERENCE_PROBE_S / (mean time of the probes within
# PROBE_WINDOW_S of it).  Wall-clock medians and the machine's speed are
# printed and kept in the run record.
REFERENCE_PROBE_S = 0.005
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW_S = 0.5

SETUP_CHILD = """\
import sys
from time import perf_counter
start = perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import ccmv
from workloads import make_workload
workload = make_workload({workload!r}, {seed!r})
ccmv.load_model(workload.cases[0].text)
print(perf_counter() - start)
"""

# Layers whose self time in the traced verdict is a per-layer metric.
VERDICT_LAYERS = ("model.load_model", "model.lie_checks",
                  "model.structure_tensor_checks", "connection.levi_civita",
                  "curvature.riemann", "curvature.ricci", "verify.workspace",
                  "curvature.second_bianchi_failures", "structures.check_normality")


def verdict(case: Case) -> list[str]:
    """Model text to the complete verify report, as `ccmv verify --format tsv` rows."""
    m = ccmv.load_model(case.text)
    return ccmv.suite_tsv_rows(ccmv.run_suite(m, "all"))


def diff(case: Case) -> list[str]:
    """Model text plus `.ccmx` text to the diff report rows."""
    m = ccmv.load_model(case.text)
    expected = ccmv.parse_expected(case.expected, m.dim)
    return ccmv.diff_tsv_rows(ccmv.diff_expected(m, expected))


def probe_kernel() -> Fraction:
    """Fixed work, independent of ccmv, in the mix a report does: stdlib
    Fraction arithmetic, small tuples and rendering to text.  It keeps
    nothing: a kernel that kept its tuples slowed the reports it interrupted."""
    total = Fraction(0)
    for i in range(1, 1000):
        term = Fraction(1, i % 7 + 1) * Fraction(3, i % 5 + 1)
        total += term
        str((term, i))
    return total


class SpeedProbe:
    """Probes the machine's speed from a timer signal while a run samples."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []   # (start, duration)

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()   # a collection would time the heap of the interrupted report
        try:
            began = perf_counter()
            probe_kernel()
            self.probes.append((began, perf_counter() - began))
        finally:
            if collecting:
                gc.enable()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Probe time spent within [start, end]."""
        return sum(d for s, d in self.probes if start <= s and s + d <= end)

    def scale(self, start: float, end: float) -> float:
        """Factor from the machine's speed around [start, end] to the reference."""
        near = [d for s, d in self.probes
                if start - PROBE_WINDOW_S <= s + d / 2 <= end + PROBE_WINDOW_S]
        return REFERENCE_PROBE_S / statistics.fmean(near)


class Tally:
    """Reports attempted and reports that were wrong or raised."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.attempted = 0
        self.failed = 0

    def check(self, kind: str, case: Case, rows: list[str] | None) -> None:
        self.attempted += 1
        problem = "raised" if rows is None else self.gate.check(kind, case, rows)
        if problem is not None:
            self.failed += 1
            print(f"wrong {kind} report: {problem}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


@dataclass
class Sample:
    began: float
    ended: float
    seconds: float   # wall time, less the probe time inside it


def timed_report(kind: str, fn, case: Case, tally: Tally, speed: SpeedProbe,
                 samples: list[Sample]) -> None:
    """Time one report; a report that raises is counted, not timed."""
    began = perf_counter()
    try:
        rows = fn(case)
    except Exception:
        traceback.print_exc()
        rows = None
    else:
        ended = perf_counter()
        samples.append(Sample(began, ended, ended - began - speed.inside(began, ended)))
    tally.check(kind, case, rows)


def timed_setup(workload: str, seed: int, samples: list[Sample]) -> None:
    """A fresh interpreter imports ccmv, generates the inputs and loads the
    first model; it times itself."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    began = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    samples.append(Sample(began, perf_counter(), float(done.stdout.strip().splitlines()[-1])))


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100 * rank / len(ordered), ordered[rank - 1]


def end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally):
    """Rounds of one set-up, one verdict and DIFFS_PER_ROUND diffs, until the
    window is spent.  Interleaving makes every metric sample the whole window."""
    timed: dict[str, list[Sample]] = {"verdict_s": [], "diff_s": [], "setup_s": []}
    speed = SpeedProbe()
    start = perf_counter()
    rounds = 0
    with speed.running():
        while rounds < workload.min_rounds or perf_counter() - start < seconds:
            case = workload.cases[rounds % len(workload.cases)]
            rounds += 1
            timed_setup(workload.name, seed, timed["setup_s"])
            timed_report("suite", verdict, case, tally, speed, timed["verdict_s"])
            for _ in range(DIFFS_PER_ROUND):
                timed_report("diff", diff, case, tally, speed, timed["diff_s"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    what = {"verdict_s": "reports", "diff_s": "reports", "setup_s": "fresh interpreters"}
    metrics, notes = {}, {}
    for name, samples in timed.items():
        scaled = [s.seconds * speed.scale(s.began, s.ended) for s in samples]
        metrics[name] = (statistics.median(scaled), "s")
        notes[name] = (f"median of {len(samples)} {what[name]} at reference speed; "
                       f"wall-clock median {statistics.median(s.seconds for s in samples):.6g} s")
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    probe_mean = statistics.fmean(d for _, d in speed.probes)
    diagnostics = [f"machine_speed {REFERENCE_PROBE_S / probe_mean:.6g} ratio (reference "
                   f"probe time over mean probe time, {len(speed.probes)} probes)",
                   f"error_rate {tally.error_rate:.6g} ratio "
                   f"({tally.failed} wrong or raised of {tally.attempted} reports)"]
    verdict_wall = [s.seconds for s in timed["verdict_s"]]
    t = tail(verdict_wall)
    if t is None:
        diagnostics.append(f"verdict_s.tail n/a s ({len(verdict_wall)} samples; a percentile "
                           "with ten samples beyond it needs at least 11)")
    else:
        diagnostics.append(f"verdict_s.tail {t[1]:.6f} s (wall-clock p{t[0]:.1f} of "
                           f"{len(verdict_wall)} samples, 10 beyond it)")
    samples = {name: [[s.began, s.ended, s.seconds] for s in samples]
               for name, samples in timed.items()}
    samples["probes"] = speed.probes
    return metrics, notes, diagnostics, samples, None


def _sum_self(tracer: Tracer, own: list[float], run: int, name: str) -> float:
    return sum(own[i] for i, s in enumerate(tracer.spans) if s.run == run and s.name == name)


def per_layer(workload: Workload, seed: int, seconds: float, tally: Tally):
    case = workload.cases[0]
    tracer = Tracer()
    untraced, verdict_runs = [], []
    start = perf_counter()
    while not verdict_runs or perf_counter() - start < seconds / 2:
        began = perf_counter()
        rows = verdict(case)
        untraced.append(perf_counter() - began)
        tally.check("suite", case, rows)
        with tracer.installed(), tracer.span("verdict") as root:
            with tracer.span("model.load_model"):
                m = ccmv.load_model(case.text)
            report = ccmv.run_suite(m, "all")
            with tracer.span("verify.render"):
                rows = ccmv.suite_tsv_rows(report)
        verdict_runs.append(root.run)
        tally.check("suite", case, rows)

    with tracer.installed():
        with tracer.span("groups") as groups:
            for group in GROUPS:
                with tracer.span(f"verify.group.{group}"):
                    ccmv.run_suite(m, group)

        with tracer.span("diff") as diff_root:
            with tracer.span("model.load_model"):
                m = ccmv.load_model(case.text)
            expected = ccmv.parse_expected(case.expected, m.dim)
            with tracer.span("verify.diff_expected"):
                report = ccmv.diff_expected(m, expected)
            with tracer.span("verify.render"):
                rows = ccmv.diff_tsv_rows(report)
        tally.check("diff", case, rows)

        OUT.mkdir(exist_ok=True)
        model_path = OUT / f"{workload.name}-model.ccm"
        model_path.write_text(case.text, encoding="utf-8")
        captured = io.StringIO()
        with redirect_stdout(captured), tracer.span("cli.main") as cli_root:
            cli.main(["verify", str(model_path), "--format", "tsv"])
        tally.check("suite", case, captured.getvalue().splitlines())

    m = ccmv.load_model(case.text)
    with fraction_op_counts() as counts:
        report = ccmv.run_suite(m, "all")
    tally.check("suite", case, ccmv.suite_tsv_rows(report))

    problems = tracer.problems()
    if problems:
        raise RuntimeError("span tree not well formed: " + "; ".join(problems[:5]))
    own = tracer.self_times()
    roots = {s.run: i for i, s in enumerate(tracer.spans) if s.parent is None}

    def verdict_median(name: str) -> float:
        return statistics.median(_sum_self(tracer, own, run, name) for run in verdict_runs)

    metrics = {f"{name}_s": (verdict_median(name), "s") for name in VERDICT_LAYERS}
    metrics["model.lie_checks.spans"] = (sum(
        1 for s in tracer.spans if s.run == verdict_runs[0] and s.name == "model.lie_checks"),
        "count")
    for group in GROUPS:
        name = f"verify.group.{group}"
        metrics[f"{name}_s"] = (_sum_self(tracer, own, groups.run, name), "s")
    metrics["verify.diff_expected_s"] = (
        _sum_self(tracer, own, diff_root.run, "verify.diff_expected"), "s")
    metrics["verify.render_s"] = (
        verdict_median("verify.render")
        + _sum_self(tracer, own, diff_root.run, "verify.render"), "s")
    metrics["cli.main_s"] = (own[roots[cli_root.run]], "s")
    metrics["ops.fraction_new"] = (counts["new"], "count")
    metrics["ops.fraction_mul"] = (counts["mul"], "count")
    metrics["ops.fraction_add"] = (counts["add"], "count")
    traced = [tracer.duration(roots[run]) for run in verdict_runs]
    metrics["trace.coverage"] = (statistics.median(
        1 - own[roots[run]] / tracer.duration(roots[run]) for run in verdict_runs), "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")

    notes = {name: "self time, median of traced verdicts" for name in metrics}
    notes.update({f"verify.group.{g}_s": "run_suite(m, selector) minus its layer spans"
                  for g in GROUPS})
    notes.update({"ops.fraction_new": "exact count in one run_suite, separate counting pass",
                  "ops.fraction_mul": "exact count in one run_suite, separate counting pass",
                  "ops.fraction_add": "exact count in one run_suite, separate counting pass",
                  "verify.diff_expected_s": "self time in the traced diff",
                  "verify.render_s": "suite_tsv_rows + diff_tsv_rows self time",
                  "cli.main_s": "self time of ccmv.cli.main verify --format tsv",
                  "trace.coverage": "share of the traced verdict_s in layer spans",
                  "trace.overhead_s": f"traced minus untraced verdict_s, "
                                      f"{len(verdict_runs)} pairs",
                  "model.lie_checks.spans": "model.lie_checks spans per verdict"})
    samples = {"untraced_verdict_s": untraced, "traced_verdict_s": traced}
    return metrics, notes, [], samples, tracer.to_json()


def machine_identity() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": str(len(os.sched_getaffinity(0))),
            "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(ccmv.__file__).resolve().parent != SRC / "ccmv":
        print(f"ccmv imported from {ccmv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    tally = Tally(Gate(args.workload, args.seed))
    measure = per_layer if args.trace else end_to_end
    metrics, notes, diagnostics, samples, spans = measure(workload, args.seed,
                                                          args.seconds, tally)

    machine = machine_identity()
    print(f"# ccmv bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {unit} ({notes[name]})")
    for line in diagnostics:
        print(line)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "samples": samples, "spans": spans}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
