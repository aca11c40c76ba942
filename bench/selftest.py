"""Self-test of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py

It checks that the generator emits the models it claims to, that a
corrupted report is counted and fails the run, that the span tree is well
formed, that samples are scaled by the probes near them, that the op counts
equal cProfile's, and that the gate's second route reproduces the frozen
diff.  Exits 1 if any check fails.
"""
from __future__ import annotations

import contextlib
import cProfile
import io
import json
import platform
import pstats
import signal
import sys
import traceback

import run  # puts the checkout's src/ first on sys.path
import ccmv
from gate import ERRATA, Gate, ReferenceGeometry, check_diff_by_second_route
from tracing import Span, Tracer, fraction_op_counts
from workloads import (EXPECTED_CCMX, heisenberg_spec, make_workload,
                       perturbed_spec)


def test_generator_n1_is_the_bundled_model():
    assert ccmv.load_model(heisenberg_spec(1).text()) == ccmv.build_heisenberg()


def test_generator_n2_passes_every_structural_check():
    report = ccmv.validate_structure(ccmv.load_model(heisenberg_spec(2).text()))
    assert len(report.checks) == 12 and report.all_pass, report.failures


def test_perturbed_models_are_valid_and_seeded():
    for index in range(2):
        spec = perturbed_spec(7, index)
        assert spec.text() == perturbed_spec(7, index).text()
        report = ccmv.validate_structure(ccmv.load_model(spec.text()))
        assert report.all_pass, report.failures
    assert perturbed_spec(7, 0).text() != perturbed_spec(8, 0).text()


def _flip_status(rows: list[str]) -> list[str]:
    index = next(i for i, row in enumerate(rows) if "\tPASS\t" in row)
    return rows[:index] + [rows[index].replace("\tPASS\t", "\tFAIL\t")] + rows[index + 1:]


def _alter_witness_byte(rows: list[str]) -> list[str]:
    index = next(i for i, row in enumerate(rows) if "lhs=" in row)
    row = rows[index]
    at = row.index("lhs=") + 4
    altered = row[:at] + ("7" if row[at] != "7" else "8") + row[at + 1:]
    return rows[:index] + [altered] + rows[index + 1:]


def _run_with_corruption(corrupt, workload: str, which: int) -> tuple[int, dict]:
    """One benchmark run in which report number `which` is corrupted."""
    real = run.verdict
    calls = {"n": 0}

    def corrupted(case):
        rows = real(case)
        calls["n"] += 1
        return corrupt(rows) if calls["n"] == which else rows

    out = io.StringIO()
    run.verdict = corrupted
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0"])
    finally:
        run.verdict = real
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_corrupted_report_fails_the_run():
    # the first report of the model, and a later one that must repeat it
    for corrupt, which in ((_flip_status, 1), (_alter_witness_byte, 2)):
        code, result = _run_with_corruption(corrupt, "iwasawa", which)
        assert code == 1 and result["correct"] is False, (corrupt.__name__, which)
        assert result["failed"] == 1 and result["attempted"] > 1, result


def test_gate_rejects_corruption_on_every_workload():
    frozen = (ERRATA / "iwasawa_suite.tsv").read_text(encoding="utf-8").splitlines()
    for name in ("heis-n2", "perturbed"):
        case = make_workload(name, 0).cases[0]
        good = run.verdict(case)
        for corrupt in (_flip_status, _alter_witness_byte):
            assert Gate(name, 0).check("suite", case, good) is None
            assert Gate(name, 0).check("suite", case, corrupt(good)) is not None, \
                (name, corrupt.__name__)
    assert Gate("iwasawa", 0).check("suite", make_workload("iwasawa", 0).cases[0], frozen) is None


def test_span_tree_is_well_formed():
    tracer = Tracer()
    m = ccmv.build_heisenberg()
    with tracer.installed(), tracer.span("verdict"):
        ccmv.run_suite(m, "all")
    assert not tracer.problems(), tracer.problems()
    names = [s.name for s in tracer.spans]
    assert names.count("model.lie_checks") == 2, names
    for s in tracer.spans[1:]:
        parent = tracer.spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end and parent.run == s.run
    assert abs(sum(tracer.self_times()) - tracer.duration(0)) < 1e-9
    assert ccmv.verify.riemann is ccmv.curvature.riemann, "tracer left a patch installed"

    broken = Tracer()
    broken.spans = [Span("root", 0.0, 1.0, None, 1), Span("child", 0.5, 1.5, 0, 1)]
    assert broken.problems(), "a child outside its parent must be reported"


def test_speed_probe_scales_by_the_probes_near_a_sample():
    speed = run.SpeedProbe()
    ref = run.REFERENCE_PROBE_S
    speed.probes = [(0.0, 2 * ref), (1.0, ref), (1.2, ref), (5.0, 4 * ref)]
    assert speed.inside(0.9, 1.5) == 2 * ref
    assert speed.scale(0.9, 1.5) == 1.0          # probes at 1.0 and 1.2 only
    assert speed.scale(4.8, 4.9) == 0.25         # a machine four times slower
    before = signal.getsignal(signal.SIGALRM)
    with speed.running():
        assert signal.getsignal(signal.SIGALRM) != before
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_op_counts_equal_cprofile():
    m = ccmv.build_heisenberg()
    with fraction_op_counts() as counts:
        ccmv.run_suite(m, "all")
    profile = cProfile.Profile()
    profile.runcall(ccmv.run_suite, m, "all")
    calls = {name: nc for (path, _, name), (_, nc, *_rest) in pstats.Stats(profile).stats.items()
             if path.endswith("fractions.py")}
    assert counts == {"new": calls["__new__"], "mul": calls["_mul"], "add": calls["_add"]}, \
        (counts, calls)
    if platform.python_version() == "3.11.7":
        assert counts == {"new": 1038659, "mul": 531986, "add": 352404}, counts


def test_second_route_reproduces_the_frozen_diff():
    rows = (ERRATA / "iwasawa_diff.tsv").read_text(encoding="utf-8").splitlines()
    published = EXPECTED_CCMX.read_text(encoding="utf-8")
    assert check_diff_by_second_route(rows, ReferenceGeometry(heisenberg_spec(1)),
                                      published) is None
    wrong = rows[:3] + [rows[3].replace("MATCH", "MISMATCH")] + rows[4:]
    assert check_diff_by_second_route(wrong, ReferenceGeometry(heisenberg_spec(1)),
                                      published) is not None


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
