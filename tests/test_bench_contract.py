"""The benchmark's tracer patches named layer calls; keep those names alive.

bench/tracing.py wraps each `(module, attribute)` in LAYER_CALLS with a
timing span.  A rename in ccmv would silently drop a layer from the
benchmark's attribution, so tier-1 checks that every name still resolves
and that a traced suite run records the spans the benchmark pins.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import ccmv
from ccmv import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    name = "bench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module   # dataclasses resolve the module by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_layer_call_resolves():
    for module_name, attr, span_name in _tracing().LAYER_CALLS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, span_name)


def test_traced_suite_records_one_lie_check_span():
    tracer = _tracing().Tracer()
    with tracer.installed(), tracer.span("verdict"):
        ccmv.run_suite(ccmv.build_heisenberg(), "all")
    assert not tracer.problems(), tracer.problems()
    names = [s.name for s in tracer.spans]
    # require_lie_algebra and Workspace.model_checks read one cached result
    assert names.count("model.lie_checks") == 1, names
    assert ccmv.verify.riemann is ccmv.curvature.riemann, "tracer left a patch installed"


def test_traced_suite_records_one_normality_span():
    tracer = _tracing().Tracer()
    with tracer.installed(), tracer.span("verdict"):
        ccmv.run_suite(ccmv.build_heisenberg(), "all")
    names = [s.name for s in tracer.spans]
    assert names.count("structures.check_normality") == 1, names


def test_traced_suite_records_one_second_bianchi_span():
    tracer = _tracing().Tracer()
    with tracer.installed(), tracer.span("verdict"):
        ccmv.run_suite(ccmv.build_heisenberg(), "all")
    names = [s.name for s in tracer.spans]
    assert names.count("curvature.second_bianchi_failures") == 1, names


def test_traced_cli_verify_records_the_spans_under_cli_main(tmp_path, capsys):
    # bench/run.py reads cli.main_s as the self time of a traced
    # `ccmv verify MODEL --format tsv`, the run minus its layer spans, of
    # which these three are called by the command itself
    path = tmp_path / "heisenberg.ccm"
    path.write_text(ccmv.HEISENBERG_CCM, encoding="utf-8")
    tracer = _tracing().Tracer()
    with tracer.installed(), tracer.span("cli.main"):
        assert cli.main(["verify", str(path), "--format", "tsv"]) == 1
    assert not tracer.problems(), tracer.problems()
    names = [s.name for s in tracer.spans]
    for name in ("model.load_model", "verify.run_suite", "verify.render"):
        assert names.count(name) == 1, names
        assert tracer.spans[names.index(name)].parent == 0, name
    assert len(capsys.readouterr().out.splitlines()) == 73
