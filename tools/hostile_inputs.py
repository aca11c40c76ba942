"""Seeded malformed-input mutants of the two input documents, run through the CLI.

Run from the repository root:

    python3 tools/hostile_inputs.py

The script mutates the bundled model (`ccmv.HEISENBERG_CCM`) and the bundled
table (`src/ccmv/data/iwasawa_expected.ccmx`), 1,500 mutants of each, from a
fixed seed.  A mutant makes one to three edits to its document: it replaces
a token with one from `POOL`, or it deletes, duplicates, swaps or truncates a
line.  Each model mutant is run through `ccmv.cli.main` as `validate` and as
`verify --format tsv`, each table mutant as `diff` against the bundled model,
in this interpreter, with the files in a temporary directory.

The CLI's contract on any input: the exit code is 0, 1 or 2, no exception
but argparse's exit leaves `main`, an exit 2 prints nothing on stdout and
exactly one line starting `ccmv: ` on stderr, an exit 0 or 1 prints nothing
on stderr, and no run takes 2 s.  The script prints the count of runs per
exit code, the slowest run and every run that breaks the contract; it exits
1 if one does, else 0.  Only the standard library is used.
"""
from __future__ import annotations

import importlib.resources
import io
import random
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 14
MUTANTS = 1500
SECONDS = 2.0

POOL = [
    "1/0", "-0", "+1", "1_0", "1e3", "\u0663", "9" * 4400,
    # the model's directives and the table's entry kinds
    "version", "name", "n", "bracket", "G", "H", "J",
    "R", "conn", "ric", "scal", "sec", "hol",
    "=", "#",
    # the characters other than \n and \r at which `str.splitlines` ends a
    # line, and a byte-order mark
    "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\ufeff",
]


class Run(NamedTuple):
    document: str  # "model" or "table"
    index: int  # the mutant's number in its document's sequence
    argv: list[str]
    code: int | None  # None when an exception other than argparse's exit escaped
    out: str
    err: str  # with the traceback of an escaped exception
    seconds: float


def mutate(text: str, rng: random.Random) -> str:
    """The document with one to three edits, each a token replaced from
    `POOL` or a line deleted, duplicated, swapped with another or truncated."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        edit = rng.choice(("token", "token", "delete", "duplicate", "swap", "truncate"))
        if edit == "token":
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(POOL)
            lines[i] = " ".join(tokens)
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "truncate":
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    return "\n".join(lines)


def run(argv: list[str]) -> tuple[int | None, str, str, float]:
    """`ccmv.cli.main(argv)`: its exit code, stdout, stderr and wall time."""
    from ccmv.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's exit
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def sweep(count: int, folder: Path) -> list[Run]:
    """The first `count` mutants of each document, run in `folder`."""
    from ccmv import HEISENBERG_CCM

    table = (importlib.resources.files("ccmv") / "data" / "iwasawa_expected.ccmx"
             ).read_text(encoding="utf-8")
    bundled = folder / "bundled.ccm"
    bundled.write_text(HEISENBERG_CCM, encoding="utf-8")
    runs = []
    for document, text, path in (("model", HEISENBERG_CCM, folder / "mutant.ccm"),
                                 ("table", table, folder / "mutant.ccmx")):
        rng = random.Random(SEED)
        for index in range(count):
            path.write_text(mutate(text, rng), encoding="utf-8")
            commands = ([["validate", str(path)], ["verify", str(path), "--format", "tsv"]]
                        if document == "model"
                        else [["diff", str(bundled), "--expected", str(path)]])
            runs += [Run(document, index, argv, *run(argv)) for argv in commands]
    return runs


def breach(r: Run) -> str | None:
    """How a run breaks the CLI's contract, or None when it keeps it."""
    if r.code not in (0, 1, 2):
        return f"exit {r.code}: {r.err.strip()}"
    if r.code == 2 and r.out:
        return "exit 2 printed on stdout"
    if r.code == 2 and not (r.err.startswith("ccmv: ") and r.err.endswith("\n")
                            and len(r.err.splitlines()) == 1):
        return f"exit 2 stderr is not one `ccmv: ` line: {r.err!r}"
    if r.code != 2 and r.err:
        return f"exit {r.code} printed on stderr: {r.err!r}"
    if r.seconds >= SECONDS:
        return f"took {r.seconds:.2f} s"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = sweep(MUTANTS, Path(tmp))
    tally: dict[tuple[str, str], Counter] = {}
    for r in runs:
        tally.setdefault((r.document, r.argv[0]), Counter())[r.code] += 1
    for (document, command), codes in tally.items():
        print(f"{document} {command:8} "
              + "  ".join(f"exit {code}: {n}" for code, n in sorted(codes.items(), key=str)))
    slowest = max(runs, key=lambda r: r.seconds)
    print(f"slowest: {slowest.seconds * 1000:.1f} ms, {slowest.document} mutant "
          f"{slowest.index}, {slowest.argv[0]}")
    broken = [(r, why) for r in runs if (why := breach(r))]
    for r, why in broken:
        print(f"broken: {r.document} mutant {r.index}, {r.argv[0]}: {why}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
