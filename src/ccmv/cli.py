"""Command-line interface.

Every subcommand reads a model file, computes exactly, and prints a
deterministic report: byte-identical output for identical inputs.  Text
mode carries `#` banner and summary lines for humans; TSV mode emits
bare machine-readable rows only.

Exit codes: 0 success / all checks pass; 1 verification failures or
expected-value mismatches; 2 usage, parse, or validation errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .connection import levi_civita
from .core import (
    UnprintableValue,
    format_scalar,
    format_sparse_vector,
    parse_frame_index,
)
from .curvature import DegeneratePlane, riemann, sectional
from .model import (
    HEISENBERG_CCM,
    InvalidModelError,
    ManifoldModel,
    ModelFormatError,
    SuiteReport,
    load_model,
    require_lie_algebra,
    validate_structure,
)
from .verify import (
    SELECTORS,
    ExpectedFormatError,
    Workspace,
    check_rows,
    diff_expected,
    diff_text_rows,
    diff_tsv_rows,
    parse_expected,
    run_suite,
    suite_tsv_rows,
)

PROG = "ccmv"


class _CliError(Exception):
    """Carries a user-facing message for an exit-2 condition."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: not UTF-8 text "
                        f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})") from exc


def _load(path: str) -> ManifoldModel:
    source = _read_text(path)
    try:
        return load_model(source)
    except ModelFormatError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_lie(path: str) -> ManifoldModel:
    m = _load(path)
    try:
        require_lie_algebra(m)
    except InvalidModelError as exc:
        raise _CliError(str(exc)) from exc
    return m


def _integer(text: str) -> int:
    """argparse type of the integer options: ASCII decimal digits with an
    optional leading minus, so that `+0`, `0_1` and non-ASCII digits are a
    usage error (exit 2)."""
    try:
        return parse_frame_index(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _index_range_check(m: ManifoldModel, indices, what: str) -> None:
    for idx in indices:
        if not 0 <= idx < m.dim:
            raise _CliError(f"{what} index {idx} out of range for dimension {m.dim}")


def _report(args: argparse.Namespace, m: ManifoldModel, rows: list[str],
            summary: str = "", ok: bool = True) -> int:
    """Print a command's rows, in text mode under the `# ccmv COMMAND
    model=M` banner, which names the suite of a command that has one, and
    over the `# summary` line when there is one; return the exit code, 1
    unless `ok`."""
    if args.format == "text":
        suite = f" suite={args.suite}" if "suite" in args else ""
        rows = [f"# {PROG} {args.command} model={m.name}{suite}", *rows,
                *([f"# {summary}"] if summary else [])]
    sys.stdout.write("\n".join(rows) + "\n")
    return 0 if ok else 1


def _report_checks(args: argparse.Namespace, m: ManifoldModel, report: SuiteReport,
                   noun: str) -> int:
    """A check report's rows, summed up as `N <noun>: P pass, F fail`."""
    rows = suite_tsv_rows(report) if args.format == "tsv" else check_rows("text", report.checks)
    total, failed = len(report.checks), len(report.failures)
    return _report(args, m, rows, f"{total} {noun}: {total - failed} pass, {failed} fail",
                   report.all_pass)


def _cmd_validate(args: argparse.Namespace) -> int:
    m = _load(args.model)
    return _report_checks(args, m, validate_structure(m), "checks")


def _value_row(fmt: str, kind: str, keys: Sequence[int], value: str) -> str:
    """One value row: `kind k... = value` in text, the same fields
    tab-joined without the `=` in tsv."""
    fields = [kind, *map(str, keys)]
    if fmt == "tsv":
        return "\t".join([*fields, value])
    return " ".join([*fields, "=", value])


def _cmd_connection(args: argparse.Namespace) -> int:
    m = _load_lie(args.model)
    conn = levi_civita(m)
    return _report(args, m, [
        _value_row(args.format, "conn", (i, j), format_sparse_vector(conn.row(i, j)))
        for i in range(m.dim) for j in range(m.dim)])


def _cmd_curvature(args: argparse.Namespace) -> int:
    m = _load_lie(args.model)
    rt = riemann(m, levi_civita(m))
    if args.component is not None:
        _index_range_check(m, args.component, "component")
        value = format_scalar(rt.entry(*args.component))
        rows = [_value_row(args.format, "R", args.component, value)]
    else:
        rows = [_value_row(args.format, "R", (i, j, k), format_sparse_vector(rt.row(i, j, k)))
                for i in range(m.dim) for j in range(i + 1, m.dim) for k in range(m.dim)]
    return _report(args, m, rows)


def _cmd_ricci(args: argparse.Namespace) -> int:
    m = _load_lie(args.model)
    ws = Workspace(m)
    fmt = args.format
    rows = [_value_row(fmt, "ric", (i, j), format_scalar(ws.rho.entry(i, j)))
            for i in range(m.dim) for j in range(i, m.dim)]
    rows += [_value_row(fmt, "Q", (i,), format_sparse_vector(ws.rho.row(i)))
             for i in range(m.dim)]
    rows.append(_value_row(fmt, "scal", (), format_scalar(ws.tau)))
    return _report(args, m, rows)


def _cmd_sectional(args: argparse.Namespace) -> int:
    m = _load_lie(args.model)
    i, j = args.plane
    _index_range_check(m, (i, j), "plane")
    rt = riemann(m, levi_civita(m))
    try:
        value = sectional(rt, m.basis(i), m.basis(j))
    except DegeneratePlane as exc:
        raise _CliError(str(exc)) from exc
    return _report(args, m, [_value_row(args.format, "sec", (i, j), format_scalar(value))])


def _cmd_verify(args: argparse.Namespace) -> int:
    m = _load_lie(args.model)
    return _report_checks(args, m, run_suite(m, selector=args.suite), "identities")


def _cmd_diff(args: argparse.Namespace) -> int:
    m = _load_lie(args.model)
    source = _read_text(args.expected)
    try:
        report = diff_expected(m, parse_expected(source, m.dim))
    except (ExpectedFormatError, DegeneratePlane) as exc:
        raise _CliError(f"{args.expected}: {exc}") from exc
    rows = diff_tsv_rows(report) if args.format == "tsv" else diff_text_rows(report)
    summary = (f"{len(report.entries)} entries: {report.match_count} match, "
               f"{report.mismatch_count} mismatch")
    return _report(args, m, rows, summary, report.all_match)


def _cmd_example(args: argparse.Namespace) -> int:
    text = HEISENBERG_CCM
    if args.emit is not None:
        try:
            Path(args.emit).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {args.emit}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact verification of complex contact metric structure "
                    "identities on homogeneous frame models.")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "tsv"), default="text",
                     help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[fmt],
                       help="run structural well-formedness checks")
    p.add_argument("model", help="model file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("connection", parents=[fmt],
                       help="print the metric connection table")
    p.add_argument("model")
    p.set_defaults(func=_cmd_connection)

    p = sub.add_parser("curvature", parents=[fmt],
                       help="print curvature operator values")
    p.add_argument("model")
    p.add_argument("--component", nargs=4, type=_integer,
                   metavar=("I", "J", "K", "L"),
                   help="print the single scalar component instead")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("ricci", parents=[fmt],
                       help="print the Ricci form, Ricci operator, and "
                            "scalar curvature")
    p.add_argument("model")
    p.set_defaults(func=_cmd_ricci)

    p = sub.add_parser("sectional", parents=[fmt],
                       help="print the sectional curvature of a frame plane")
    p.add_argument("model")
    p.add_argument("--plane", nargs=2, type=_integer, metavar=("I", "J"),
                   required=True)
    p.set_defaults(func=_cmd_sectional)

    p = sub.add_parser("verify", parents=[fmt],
                       help="evaluate the identity registry")
    p.add_argument("model")
    p.add_argument("--suite", choices=SELECTORS, default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("diff", parents=[fmt],
                       help="compare computed values against an expected file")
    p.add_argument("model")
    p.add_argument("--expected", required=True, help="expected-values file")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("example", parents=[fmt],
                       help="emit a bundled model file")
    p.add_argument("name", choices=("heisenberg",))
    p.add_argument("--emit", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, UnprintableValue) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
