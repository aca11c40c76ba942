"""The helper scripts under tools/ fail with a message, not a traceback."""
from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRED_AB = ROOT / "tools" / "paired_ab.py"


def load_paired_ab():
    spec = importlib.util.spec_from_file_location("paired_ab", PAIRED_AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def imported_by_paired_ab() -> list[str]:
    """The loaded modules of the two tree copies and of bench's workloads."""
    roots = {"ccmv_base", "ccmv_change", "workloads"}
    return [name for name in sys.modules if name.split(".")[0] in roots]


def test_paired_ab_rejects_a_base_without_the_package(tmp_path, capsys):
    module = load_paired_ab()
    missing = tmp_path / "nonexistent"
    assert module.main([str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"paired_ab: {missing} has no src/ccmv to compare against\n"


def test_paired_ab_stops_when_the_trees_render_a_row_differently(tmp_path, capsys):
    # a base tree whose verify TSV prints `-` for an empty witness field:
    # the first pair of the first workload differs, and nothing is timed
    shutil.copytree(ROOT / "src" / "ccmv", tmp_path / "src" / "ccmv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    verify = tmp_path / "src" / "ccmv" / "verify.py"
    source = verify.read_text()
    field = "{r.witness or ''}"
    assert source.count(field) == 1
    verify.write_text(source.replace(field, "{r.witness or '-'}"))
    # main puts the trees and bench/ on the path, sets the bytecode flag and
    # imports both copies and the workloads; it puts all three back on return
    path, flag = list(sys.path), sys.dont_write_bytecode
    assert imported_by_paired_ab() == []
    assert load_paired_ab().main([str(tmp_path)]) == 1
    assert sys.path == path and sys.dont_write_bytecode is flag
    assert imported_by_paired_ab() == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "iwasawa verdict: the two trees' rows differ on pair 0\n"


def test_reach_lists_unreached_statements_of_the_package_only(capsys):
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, path = sys.modules["ccmv"], list(sys.path)
    assert module.main() == 0
    # the fresh import under the trace is undone: the test run's package stays
    assert sys.modules["ccmv"] is package and sys.path == path
    out, err = capsys.readouterr()
    assert err == ""
    rows = out.splitlines()
    assert rows
    for row in rows:
        where, line, text = row.split(":", 2)
        assert where.startswith("src/ccmv/") and (ROOT / where).is_file(), row
        assert int(line) > 0 and text.strip(), row


def test_hostile_inputs_keep_the_cli_contract(tmp_path):
    spec = importlib.util.spec_from_file_location("hostile_inputs",
                                                  ROOT / "tools" / "hostile_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = module.sweep(200, tmp_path)
    # validate and verify on each model mutant, diff on each table mutant
    assert len(runs) == 600
    for run in runs:
        where = (run.document, run.index, run.argv[0], run.err)
        # None: an exception other than argparse's exit left main
        assert run.code in (0, 1, 2), where
        if run.code == 2:
            assert run.out == "", where
            assert run.err.startswith("ccmv: ") and run.err.endswith("\n"), where
            assert len(run.err.splitlines()) == 1, where
        else:
            assert run.err == "", where
        assert run.seconds < 2, where
