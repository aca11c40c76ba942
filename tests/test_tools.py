"""The helper scripts under tools/ fail with a message, not a traceback."""
from __future__ import annotations

import importlib.util
from pathlib import Path

PAIRED_AB = Path(__file__).resolve().parent.parent / "tools" / "paired_ab.py"


def test_paired_ab_rejects_a_base_without_the_package(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("paired_ab", PAIRED_AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    missing = tmp_path / "nonexistent"
    assert module.main([str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"paired_ab: {missing} has no src/ccmv to compare against\n"
