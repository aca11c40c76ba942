"""The statements of `src/ccmv` that no report reaches.

Run from the repository root:

    python3 tools/reach.py

Under `sys.settrace` the script imports this checkout's `ccmv` afresh.
For every case of the workloads of `bench/workloads.py`, at seed 0, it
then runs `run_suite` with every selector and `diff_expected` on the
case's table.  It also runs every report command of `cli.main` (`validate`,
`connection`, `curvature` whole and at one component, `ricci`, `sectional`,
`verify` and `diff`), in text and in tsv, on the bundled model and the
bundled `iwasawa_expected.ccmx`.  It prints, module by module, each
statement of `src/ccmv` that no run executed, as `path:line: source`,
leaving out `raise` statements; it exits 0.

A statement counts as executed when a line of its own (for a compound
statement, of its header) that holds code ran.  A statement without such
a line, such as `pass` or a docstring, is never listed.  The script reads
`bench/` (its workloads) and writes nothing there; the model file it hands
the CLI is a temporary one.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ccmv"


def code_lines(path: Path) -> set[int]:
    """The lines of a module that hold code: those of its code objects."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def own_lines(node: ast.stmt) -> range:
    """A statement's own lines: all of a simple one, a compound one's header
    (with its decorators) up to its first nested statement."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    nested = [child.lineno for field in ("body", "orelse", "handlers", "finalbody")
              for child in getattr(node, field, ())]
    return range(first, (min(nested) if nested else node.end_lineno + 1))


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """Each statement of the module, other than `raise`, with code on its own
    lines and none of them run: (line, its first source line)."""
    source = path.read_text(encoding="utf-8")
    text, code = source.splitlines(), code_lines(path)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        lines = code.intersection(own_lines(node))
        if lines and not lines & ran:
            found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def exercise(ccmv, workloads) -> None:
    """Every run the module docstring names, with the CLI's output discarded."""
    from ccmv.cli import main
    from ccmv.verify import SELECTORS

    for name in workloads.WORKLOAD_NAMES:
        for case in workloads.make_workload(name, 0).cases:
            m = ccmv.load_model(case.text)
            for selector in SELECTORS:
                ccmv.run_suite(m, selector)
            ccmv.diff_expected(m, ccmv.parse_expected(case.expected, m.dim))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "heisenberg.ccm"
        model.write_text(ccmv.HEISENBERG_CCM, encoding="utf-8")
        commands = [["validate"], ["connection"], ["curvature"],
                    ["curvature", "--component", "0", "2", "0", "2"], ["ricci"],
                    ["sectional", "--plane", "0", "2"], ["verify"],
                    ["diff", "--expected", str(workloads.EXPECTED_CCMX)]]
        for command in commands:
            for fmt in ("text", "tsv"):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main([command[0], str(model), *command[1:], "--format", fmt])


def main() -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    # this checkout's package is imported afresh under the trace, and the
    # tracer, the path, the flag and the modules held before are put back
    saved_trace, saved_path, saved_flag = sys.gettrace(), list(sys.path), sys.dont_write_bytecode
    saved = {name: module for name, module in sys.modules.items()
             if name.split(".")[0] in ("ccmv", "workloads")}
    for name in saved:
        del sys.modules[name]
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    try:
        import workloads

        sys.settrace(trace)
        try:
            import ccmv

            exercise(ccmv, workloads)
        finally:
            sys.settrace(saved_trace)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        for name in [name for name in sys.modules if name.split(".")[0] in ("ccmv", "workloads")]:
            del sys.modules[name]
        sys.modules.update(saved)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
