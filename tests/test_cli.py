"""Command-line behavior: exit codes, golden rows, and byte determinism."""
from __future__ import annotations

import importlib.resources
import sys
from pathlib import Path

import pytest

from ccmv import HEISENBERG_CCM, load_model
from ccmv.cli import main
from conftest import (
    make_heisenberg_model,
    make_nilpotent_model,
    make_two_step_model,
    model_source,
    run_python,
)

EXPECTED_FILE = str(importlib.resources.files("ccmv")
                    .joinpath("data/iwasawa_expected.ccmx"))


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_text_output(self, capsys, heis_path):
        code, out, err = run_cli(capsys, "validate", heis_path)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "# ccmv validate model=heisenberg"
        assert lines[1] == "LIE-ANTISYM PASS"
        assert lines[-1] == "# 12 checks: 12 pass, 0 fail"
        assert len(lines) == 14

    def test_tsv_output(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "validate", heis_path, "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12
        assert lines[0] == "LIE-ANTISYM\tPASS\t"
        assert all("\tPASS\t" in line for line in lines)

    def test_broken_model_exits_1(self, capsys, tmp_path):
        broken = tmp_path / "broken.ccm"
        broken.write_text(HEISENBERG_CCM.replace("G 3 1 -1", "G 3 1 1"))
        code, out, _ = run_cli(capsys, "validate", str(broken))
        assert code == 1
        assert any(" FAIL " in line for line in out.splitlines())
        assert "AX-G2 FAIL" in out


class TestConnection:
    def test_text_output(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "connection", heis_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# ccmv connection model=heisenberg"
        assert len(lines) == 37  # banner + 6*6 rows
        assert "conn 0 2 = -1:4" in lines
        assert "conn 0 0 = 0" in lines

    def test_tsv_output(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "connection", heis_path,
                               "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 36
        assert lines[0] == "conn\t0\t0\t0"
        assert "conn\t4\t0\t1:2" in lines


class TestCurvature:
    def test_dump(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "curvature", heis_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# ccmv curvature model=heisenberg"
        assert len(lines) == 91  # banner + 15 pairs * 6 columns
        assert "R 0 2 0 = 3:2" in lines
        assert "R 4 5 0 = 2:1" in lines
        assert "R 0 1 0 = 0" in lines

    def test_component(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "curvature", heis_path,
                               "--component", "0", "2", "0", "2")
        assert code == 0
        assert out.splitlines()[1] == "R 0 2 0 2 = 3"

    def test_component_tsv(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "curvature", heis_path, "--format",
                               "tsv", "--component", "0", "2", "0", "2")
        assert code == 0
        assert out == "R\t0\t2\t0\t2\t3\n"

    def test_non_canonical_component_is_usage_error(self, capsys, heis_path):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", heis_path, "--component", "+0", "0_1", "2", "4"])
        assert exc.value.code == 2
        assert "argument --component: not an integer: '+0'" in capsys.readouterr().err

    def test_component_out_of_range(self, capsys, heis_path):
        code, out, err = run_cli(capsys, "curvature", heis_path,
                                 "--component", "0", "2", "0", "9")
        assert code == 2
        assert out == ""
        assert err == "ccmv: component index 9 out of range for dimension 6\n"


class TestRicci:
    def test_text_output(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "ricci", heis_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# ccmv ricci model=heisenberg"
        # banner + 21 upper-triangle entries + 6 operator columns + scal
        assert len(lines) == 29
        assert "ric 0 0 = -4" in lines
        assert "ric 4 4 = 4" in lines
        assert "ric 0 2 = 0" in lines
        assert "Q 0 = -4:0" in lines
        assert "Q 4 = 4:4" in lines
        assert lines[-1] == "scal = -8"

    def test_tsv_output(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "ricci", heis_path, "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 28
        assert "ric\t0\t0\t-4" in lines
        assert lines[-1] == "scal\t-8"


class TestSectional:
    def test_value(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "sectional", heis_path,
                               "--plane", "0", "2")
        assert code == 0
        assert out.splitlines()[1] == "sec 0 2 = -3"

    def test_tsv_value(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "sectional", heis_path, "--format",
                               "tsv", "--plane", "0", "4")
        assert code == 0
        assert out == "sec\t0\t4\t1\n"

    def test_degenerate_plane_exits_2(self, capsys, heis_path):
        code, out, err = run_cli(capsys, "sectional", heis_path,
                                 "--plane", "2", "2")
        assert code == 2
        assert "nondegenerate plane" in err

    def test_non_ascii_plane_is_usage_error(self, capsys, heis_path):
        with pytest.raises(SystemExit) as exc:
            main(["sectional", heis_path, "--plane", "\u0660", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --plane: not an integer: '\u0660'" in captured.err

    def test_out_of_range_exits_2(self, capsys, heis_path):
        code, _, err = run_cli(capsys, "sectional", heis_path,
                               "--plane", "0", "6")
        assert code == 2
        assert "plane index 6 out of range" in err


class TestVerify:
    def test_full_suite_tsv_matches_errata(self, capsys, heis_path):
        # a fresh end-to-end run must reproduce the committed report exactly
        code, out, _ = run_cli(capsys, "verify", heis_path, "--format", "tsv")
        assert code == 1  # known failures on the published tables
        frozen = Path("errata/iwasawa_suite.tsv").read_text()
        assert out == frozen

    @pytest.mark.parametrize("name,build", [
        ("heisenberg_n2", lambda: make_heisenberg_model(2)),
        *[(f"nilpotent{seed}", lambda seed=seed: make_nilpotent_model(seed))
          for seed in range(5)],
        ("two_step", make_two_step_model),
    ])
    def test_off_bundle_suite_tsv_matches_errata(self, capsys, tmp_path, name, build):
        m = build()
        path = tmp_path / f"{name}.ccm"
        path.write_text(model_source(m), encoding="utf-8")
        assert load_model(path.read_text(encoding="utf-8")) == m
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "tsv")
        assert code == 1
        assert out == Path(f"errata/{name}_suite.tsv").read_text()

    @pytest.mark.parametrize("command", ["connection", "curvature", "ricci"])
    @pytest.mark.parametrize("name,build", [
        ("heisenberg_n2", lambda: make_heisenberg_model(2)),
        ("nilpotent3", lambda: make_nilpotent_model(3)),
        ("two_step", make_two_step_model),
    ])
    def test_off_bundle_table_tsv_matches_errata(self, capsys, tmp_path, name, build,
                                                 command):
        path = tmp_path / f"{name}.ccm"
        path.write_text(model_source(build()), encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(path), "--format", "tsv")
        assert (code, err) == (0, "")
        assert out == Path(f"errata/{name}_{command}.tsv").read_text()

    def test_subgroup_text_output(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "verify", heis_path,
                               "--suite", "contact")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "# ccmv verify model=heisenberg suite=contact"
        assert lines[-1] == "# 22 identities: 19 pass, 3 fail"
        assert "EQ-3.11 FAIL slots=0,0 lhs=-2 rhs=0" in lines
        assert "EQ-2.22 PASS" in lines

    def test_passing_subgroup_exits_0(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "verify", heis_path,
                               "--suite", "ricci")
        assert code == 0
        assert out.splitlines()[-1] == "# 8 identities: 8 pass, 0 fail"

    def test_curvature_subgroup_text_output(self, capsys, heis_path):
        code, out, err = run_cli(capsys, "verify", heis_path, "--suite", "curvature")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "# ccmv verify model=heisenberg suite=curvature"
        assert "EQ-2.19 FAIL slots=0 lhs=2:1 rhs=-1:1" in lines

    # the frame sweep decides every identity, so there is nothing to sample
    @pytest.mark.parametrize("flag,value", [("--samples", "4"), ("--seed", "7")])
    def test_sampling_options_are_unrecognized(self, capsys, heis_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", heis_path, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert "Traceback" not in captured.err

    def test_help_names_no_sampling_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--suite" in out
        assert "--samples" not in out and "--seed" not in out

    @pytest.mark.parametrize("command,flag,values,bad", [
        ("curvature", "--component", ("0", "1_0", "2", "4"), "1_0"),
        ("sectional", "--plane", ("\u0663", "2"), "\u0663"),
    ], ids=["component", "plane"])
    def test_non_canonical_integer_option_is_usage_error(self, capsys, heis_path,
                                                         command, flag, values, bad):
        with pytest.raises(SystemExit) as exc:
            main([command, heis_path, flag, *values])
        assert exc.value.code == 2
        assert f"argument {flag}: not an integer: {bad!r}" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys, heis_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", heis_path, "--suite", "everything"])
        assert exc.value.code == 2


class TestDiff:
    def test_against_bundled_expected_file(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "diff", heis_path,
                               "--expected", EXPECTED_FILE)
        assert code == 1  # the published tables contain refuted entries
        lines = out.splitlines()
        assert lines[0] == "# ccmv diff model=heisenberg"
        assert lines[-1] == "# 100 entries: 78 match, 22 mismatch"
        assert "R 0 2 0 MATCH" in lines
        assert "scal MISMATCH expected 24 computed -8" in lines
        assert "sec 0 2 MISMATCH expected 3 computed -3" in lines

    def test_tsv_matches_errata(self, capsys, heis_path):
        code, out, _ = run_cli(capsys, "diff", heis_path, "--format", "tsv",
                               "--expected", EXPECTED_FILE)
        assert code == 1
        frozen = Path("errata/iwasawa_diff.tsv").read_text()
        assert out == frozen

    def test_all_match_exits_0(self, capsys, heis_path, tmp_path):
        good = tmp_path / "good.ccmx"
        good.write_text("scal = -8\nric 0 0 = -4\nhol 3 = 0\n")
        code, out, _ = run_cli(capsys, "diff", heis_path,
                               "--expected", str(good))
        assert code == 0
        assert out.splitlines()[-1] == "# 3 entries: 3 match, 0 mismatch"

    def test_bad_expected_file_exits_2(self, capsys, heis_path, tmp_path):
        bad = tmp_path / "bad.ccmx"
        bad.write_text("scal = -8\nwhat 0 = 1\n")
        code, _, err = run_cli(capsys, "diff", heis_path,
                               "--expected", str(bad))
        assert code == 2
        assert "line 2: unknown entry kind" in err

    def test_non_ascii_expected_index_exits_2(self, capsys, heis_path, tmp_path):
        bad = tmp_path / "bad.ccmx"
        bad.write_text("scal = -8\nhol \u0664 = 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "diff", heis_path,
                                 "--expected", str(bad))
        assert code == 2
        assert out == ""
        assert "line 2: indices must be integers" in err

    def test_missing_expected_file_exits_2(self, capsys, heis_path):
        code, _, err = run_cli(capsys, "diff", heis_path,
                               "--expected", "/nonexistent.ccmx")
        assert code == 2
        assert "cannot read /nonexistent.ccmx" in err


class TestExample:
    def test_stdout_dump(self, capsys):
        code, out, _ = run_cli(capsys, "example", "heisenberg")
        assert code == 0
        assert out == HEISENBERG_CCM
        assert load_model(out).name == "heisenberg"

    def test_emit_writes_loadable_file(self, capsys, tmp_path):
        target = tmp_path / "out.ccm"
        code, out, _ = run_cli(capsys, "example", "heisenberg",
                               "--emit", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == HEISENBERG_CCM

    def test_unknown_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["example", "nilmanifold"])
        assert exc.value.code == 2

    def test_runs_as_a_module(self):
        done = run_python("-m", "ccmv", "example", "heisenberg")
        assert (done.returncode, done.stdout, done.stderr) == (0, HEISENBERG_CCM, "")


class TestErrorPaths:
    def test_missing_model_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/nonexistent.ccm")
        assert code == 2
        assert err.startswith("ccmv: cannot read /nonexistent.ccm")

    def test_model_parse_error_carries_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.ccm"
        bad.write_text("version 1\nn 1\nbracket 2 0 4 1\n")
        code, _, err = run_cli(capsys, "connection", str(bad))
        assert code == 2
        assert "line 3: bracket 2 0: i must be < j" in err

    def test_signed_model_index_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ccm"
        bad.write_text("version 1\nn 1\nbracket 0 2 +4 -2\n")
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert "line 3: expected a frame index, got '+4'" in err

    def test_huge_n_exits_2_with_a_message(self, capsys, tmp_path):
        huge = tmp_path / "huge.ccm"
        huge.write_text("version 1\nn 1000000\n")
        code, out, err = run_cli(capsys, "verify", str(huge))
        assert code == 2
        assert out == ""
        assert "line 2: n exceeds the supported maximum" in err

    # a 3001-digit bracket loads and the connection, linear in the brackets,
    # prints; the curvature is quadratic in them, and its values pass the
    # interpreter's limit on converting an int to text
    @pytest.mark.parametrize("command", ["verify", "curvature"])
    def test_unprintable_value_exits_2_with_a_message(self, capsys, tmp_path, command):
        big = tmp_path / "big.ccm"
        big.write_text(HEISENBERG_CCM.replace("bracket 0 2 4 -2",
                                              "bracket 0 2 4 -1" + "0" * 3000))
        for printable in ("validate", "connection"):
            assert run_cli(capsys, printable, str(big))[0] == 0
        code, out, err = run_cli(capsys, command, str(big))
        assert (code, out) == (2, "")
        assert err == (f"ccmv: a computed value has more than "
                       f"{sys.get_int_max_str_digits()} decimal digits and cannot be printed\n")

    # a 5,001-digit value passes the interpreter's limit on converting text
    # to an int; the message names the limit, not the interpreter setting
    def test_overlong_bracket_exits_2_with_a_message(self, capsys, tmp_path):
        line = "bracket 0 2 4 -2"
        line_no = HEISENBERG_CCM.splitlines().index(line) + 1
        big = tmp_path / "big.ccm"
        big.write_text(HEISENBERG_CCM.replace(line, "bracket 0 2 4 -1" + "0" * 5000))
        code, out, err = run_cli(capsys, "validate", str(big))
        assert (code, out) == (2, "")
        assert f"line {line_no}: a value has more than " in err
        assert "Traceback" not in err and "set_int_max_str_digits" not in err
        assert "0" * 100 not in err

    def test_overlong_expected_value_exits_2_with_a_message(self, capsys, tmp_path,
                                                           heis_path):
        bad = tmp_path / "big.ccmx"
        bad.write_text("scal = -8\nscal = 1" + "0" * 5000 + "\n")
        code, out, err = run_cli(capsys, "diff", heis_path, "--expected", str(bad))
        assert (code, out) == (2, "")
        assert err == (f"ccmv: {bad}: line 2: a value has more than "
                       f"{sys.get_int_max_str_digits()} decimal digits\n")

    def test_non_lie_model_rejected(self, capsys, tmp_path):
        bad = tmp_path / "nonlie.ccm"
        bad.write_text("version 1\nname nonlie\nn 1\n"
                       "bracket 0 1 2 1\nbracket 0 2 0 1\n")
        code, _, err = run_cli(capsys, "curvature", str(bad))
        assert code == 2
        assert "rejected: LIE-JACOBI fails" in err

    # every command that reads a model, and diff reading --expected, on the
    # same hostile files; None is a directory at the path
    @pytest.mark.parametrize("argv", [
        ("validate", "{file}"), ("verify", "{file}"),
        ("diff", "{file}", "--expected", EXPECTED_FILE),
        ("diff", "{model}", "--expected", "{file}")],
        ids=["validate", "verify", "diff-model", "diff-expected"])
    @pytest.mark.parametrize("content", [
        b"version 1\nn 1\n\xff\n", b"version 1\nn 1\x00\n", None,
        b"version 1\nn 1000000\n", b""],
        ids=["invalid-utf8", "nul-bytes", "directory", "huge-n", "empty"])
    def test_hostile_file_exits_2_with_a_message(self, capsys, tmp_path, heis_path,
                                                 argv, content):
        path = tmp_path / "hostile"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run_cli(capsys, *(arg.format(file=path, model=heis_path)
                                           for arg in argv))
        if content == b"" and argv[-2:] == ("--expected", "{file}"):
            # an empty expected-values file is an empty table
            assert (code, err) == (0, "")
            return
        assert code == 2
        assert out == ""
        assert err.startswith("ccmv: ") and str(path) in err.splitlines()[0]
        assert "Traceback" not in err
        if content and content.startswith(b"version 1\nn 1\n\xff"):
            assert err == f"ccmv: cannot read {path}: not UTF-8 text (byte 0xff at offset 14)\n"

    def test_validate_still_reports_non_lie_model(self, capsys, tmp_path):
        # validate is the diagnostic entry point: it reports rather than refuses
        bad = tmp_path / "nonlie.ccm"
        bad.write_text("version 1\nn 1\nbracket 0 1 2 1\nbracket 0 2 0 1\n")
        code, out, _ = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "LIE-JACOBI FAIL" in out


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, heis_path):
        # full-suite determinism follows from two independent runs matching
        # the errata file byte-for-byte; rerun one group here for direct
        # evidence on the sampled evaluations
        first = run_cli(capsys, "verify", heis_path, "--suite", "axioms",
                        "--format", "tsv")
        second = run_cli(capsys, "verify", heis_path, "--suite", "axioms",
                         "--format", "tsv")
        assert first == second
        assert first[0] == 0
