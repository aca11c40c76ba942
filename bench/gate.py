"""Correctness gate: every report the benchmark times is checked here.

A report is the list of TSV rows the program renders.  The gate knows what
each workload's reports must say:

- iwasawa: the verify and diff rows are byte-identical to the frozen
  errata files.
- heis-n2: 64 PASS and exactly the nine FAIL ids of the bundled model, and
  each row equal to the frozen iwasawa row with U, V (4, 5) renamed to the
  dim-10 vertical pair (8, 9): block 0 of the model is the bundled model.
- perturbed, any seed: the 12 structural checks, RIEM-SYM, BIANCHI-1 and
  BIANCHI-2 PASS and the three NORM routes agree; for the default seed the
  reports equal the committed reference.
- heis-n2 and perturbed diff rows: every computed value equals the value
  recomputed here by a second route (Koszul formula and the defining
  formula of R on sparse vectors), and MATCH is reported exactly where
  that value equals the expected one.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import ROOT, Case, ModelSpec, vertical_map

ERRATA = ROOT / "errata"
REFERENCE = Path(__file__).resolve().parent / "reference" / "perturbed-seed0.json"
DEFAULT_SEED = 0

NINE_FAILS = frozenset({"EQ-2.5", "EQ-2.19", "EQ-3.11", "EQ-4.6", "EQ-4.7",
                        "EQ-4.9", "EQ-4.10", "EQ-4.12", "EQ-4.13"})
STRUCTURAL = frozenset({"LIE-ANTISYM", "LIE-JACOBI", "AX-G2", "AX-H2", "AX-J2",
                        "AX-ANTICOMM", "AX-KERNEL", "AX-SKEW", "AX-HGJ", "AX-JH",
                        "AX-JV", "AX-HERM"})
NORM_ROUTES = ("NORM-KORKMAZ", "NORM-PROP21", "NORM-THM45")
REGISTRY_SIZE = 73


def _tsv(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


def _statuses(rows: list[str]) -> dict[str, str]:
    return {row.split("\t")[0]: row.split("\t")[1] for row in rows}


def check_frozen(rows: list[str], frozen: str) -> str | None:
    """Byte comparison with a frozen errata file, as the CLI would print it."""
    expected = (ERRATA / frozen).read_text(encoding="utf-8")
    if _tsv(rows) == expected:
        return None
    for number, (got, want) in enumerate(zip(rows, expected.splitlines()), 1):
        if got != want:
            return f"{frozen} row {number}: got {got!r}, want {want!r}"
    return f"{frozen}: {len(rows)} rows, want {len(expected.splitlines())}"


def _remap_witness(witness: str, mapping: dict[int, int]) -> str:
    """Rename frame indices in a `slots=... lhs=... rhs=...` witness."""
    def index(text: str) -> str:
        return str(mapping.get(int(text), int(text)))

    out = []
    for token in witness.split(" "):
        key, eq, value = token.partition("=")
        if key == "slots" and value not in ("", "-") and not value.startswith("sample"):
            value = ",".join(index(i) for i in value.split(","))
        elif key in ("lhs", "rhs") and ":" in value:
            value = ",".join(f"{c}:{index(i)}" for c, _, i in
                             (part.rpartition(":") for part in value.split(",")))
        out.append(key + eq + value)
    return " ".join(out)


def check_heisenberg_suite(rows: list[str], mapping: dict[int, int]) -> str | None:
    status = _statuses(rows)
    fails = {ident for ident, s in status.items() if s != "PASS"}
    if len(rows) != REGISTRY_SIZE or fails != NINE_FAILS:
        return (f"{len(rows)} rows; non-PASS ids {sorted(fails)}, "
                f"want exactly {sorted(NINE_FAILS)}")
    frozen = (ERRATA / "iwasawa_suite.tsv").read_text(encoding="utf-8").splitlines()
    for got, row in zip(rows, frozen):
        ident, verdict, witness = row.split("\t")
        want = f"{ident}\t{verdict}\t{_remap_witness(witness, mapping)}"
        if got != want:
            return f"row {got!r}, want the bundled model's row on block 0: {want!r}"
    return None


def check_perturbed_suite(rows: list[str]) -> str | None:
    status = _statuses(rows)
    if len(rows) != REGISTRY_SIZE:
        return f"{len(rows)} rows, want {REGISTRY_SIZE}"
    must_pass = STRUCTURAL | {"RIEM-SYM", "BIANCHI-1", "BIANCHI-2"}
    failing = sorted(i for i in must_pass if status.get(i) != "PASS")
    if failing:
        return f"must PASS but did not: {failing}"
    routes = {status.get(i) for i in NORM_ROUTES}
    if len(routes) != 1:
        return f"normality routes disagree: {[status.get(i) for i in NORM_ROUTES]}"
    return None


# ----- second route for diff values -----

Vec = dict[int, Fraction]


def _add(out: Vec, vec: Vec, scale: Fraction) -> None:
    for k, value in vec.items():
        out[k] = out.get(k, Fraction(0)) + scale * value


class ReferenceGeometry:
    """Levi-Civita connection and curvature of a model, from its spec alone."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        d = spec.dim
        c: dict[tuple[int, int], Vec] = {}
        for (i, j, k), value in spec.brackets.items():
            if value:
                c.setdefault((i, j), {})[k] = value
                c.setdefault((j, i), {})[k] = -value
        self.bracket = c

        def cst(i: int, j: int, k: int) -> Fraction:
            return c.get((i, j), {}).get(k, Fraction(0))

        # g(nabla_{e_i} e_j, e_k) = (c_ij^k - c_jk^i + c_ki^j) / 2
        self.nabla_basis = {
            (i, j): {k: v for k in range(d)
                     if (v := (cst(i, j, k) - cst(j, k, i) + cst(k, i, j)) / 2)}
            for i in range(d) for j in range(d)}
        self._r: dict[tuple[int, int, int], Vec] = {}

    def nabla(self, i: int, y: Vec) -> Vec:
        out: Vec = {}
        for j, yj in y.items():
            _add(out, self.nabla_basis[(i, j)], yj)
        return out

    def curvature(self, i: int, j: int, k: int) -> Vec:
        """R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k."""
        key = (i, j, k)
        if key not in self._r:
            out: Vec = {}
            _add(out, self.nabla(i, self.nabla_basis[(j, k)]), Fraction(1))
            _add(out, self.nabla(j, self.nabla_basis[(i, k)]), Fraction(-1))
            for m, cm in self.bracket.get((i, j), {}).items():
                _add(out, self.nabla_basis[(m, k)], -cm)
            self._r[key] = {el: v for el, v in out.items() if v}
        return self._r[key]

    def r4(self, x: Vec, y: Vec, z: Vec, w: Vec) -> Fraction:
        total = Fraction(0)
        for i, xi in x.items():
            for j, yj in y.items():
                for k, zk in z.items():
                    r = self.curvature(i, j, k)
                    total += xi * yj * zk * sum((r.get(el, 0) * wl
                                                 for el, wl in w.items()), Fraction(0))
        return total

    def ricci(self, j: int, k: int) -> Fraction:
        return sum((self.curvature(a, j, k).get(a, Fraction(0))
                    for a in range(self.spec.dim)), Fraction(0))

    def sectional(self, x: Vec, y: Vec) -> Fraction:
        def dot(a: Vec, b: Vec) -> Fraction:
            return sum((v * b.get(k, 0) for k, v in a.items()), Fraction(0))
        return self.r4(x, y, y, x) / (dot(x, x) * dot(y, y) - dot(x, y) ** 2)

    def value(self, kind: str, idx: tuple[int, ...]):
        """The value a diff row of this kind reports, as a Fraction or sparse vector."""
        if kind == "conn":
            return self.nabla_basis[idx]
        if kind == "R":
            return self.curvature(*idx)
        if kind == "ric":
            return self.ricci(*idx)
        if kind == "scal":
            return sum((self.ricci(a, a) for a in range(self.spec.dim)), Fraction(0))
        basis = {idx[0]: Fraction(1)}
        if kind == "sec":
            return self.sectional(basis, {idx[1]: Fraction(1)})
        if kind == "hol":
            jx = {k: v for (i, k), v in self.spec.tensors["J"].items() if i == idx[0]}
            return self.sectional(basis, jx)
        raise ValueError(f"unknown diff kind {kind!r}")


def _render(value) -> str:
    if isinstance(value, dict):
        parts = [f"{_render(value[k])}:{k}" for k in sorted(value) if value[k]]
        return ",".join(parts) if parts else "0"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _expected_entries(source: str) -> list[tuple[str, tuple[int, ...], str]]:
    entries = []
    for raw in source.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            eq = tokens.index("=")
            entries.append((tokens[0], tuple(int(t) for t in tokens[1:eq]),
                            tokens[eq + 1]))
    return entries


def _canonical(text: str) -> str:
    """Canonical rendering of an expected value: scalar or sparse vector."""
    if ":" not in text:
        return _render(Fraction(text))
    vec: Vec = {}
    for part in text.split(","):
        coeff, _, idx = part.partition(":")
        vec[int(idx)] = vec.get(int(idx), Fraction(0)) + Fraction(coeff)
    return _render(vec)


def check_diff_by_second_route(rows: list[str], geometry: ReferenceGeometry,
                               expected: str) -> str | None:
    entries = _expected_entries(expected)
    if len(rows) != len(entries):
        return f"{len(rows)} diff rows for {len(entries)} expected entries"
    for row, (kind, idx, want_text) in zip(rows, entries):
        computed = _render(geometry.value(kind, idx))
        verdict = "MATCH" if computed == _canonical(want_text) else "MISMATCH"
        key = " ".join([kind, *map(str, idx)])
        if row != f"{key}\t{verdict}\t{computed}":
            return f"diff row {row!r}, second route gives {key} {verdict} {computed}"
    return None


class Gate:
    """Checks the reports of one workload run.

    The first report of each case is checked against the workload's rules;
    every later report of the same case must equal it, because the program
    is deterministic.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.reference = None
        if workload == "perturbed" and seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self._accepted: dict[tuple[str, str], list[str]] = {}
        self._geometry: dict[str, ReferenceGeometry] = {}

    def check(self, kind: str, case: Case, rows: list[str]) -> str | None:
        """Return a description of what is wrong with the report, or None."""
        key = (kind, case.text)
        if key in self._accepted:
            if rows != self._accepted[key]:
                return f"{kind} report differs from an earlier report of the same model"
            return None
        problem = self._first_check(kind, case, rows)
        if problem is None:
            self._accepted[key] = rows
        return problem

    def _first_check(self, kind: str, case: Case, rows: list[str]) -> str | None:
        if self.workload == "iwasawa":
            return check_frozen(rows, f"iwasawa_{kind}.tsv")
        if self.reference is not None:
            want = self.reference[case.spec.name][kind]
            if rows != want:
                return f"{kind} report of {case.spec.name} differs from the committed reference"
        if kind == "suite":
            if self.workload == "heis-n2":
                return check_heisenberg_suite(rows, vertical_map(case.spec.dim))
            return check_perturbed_suite(rows)
        geometry = self._geometry.setdefault(case.text, ReferenceGeometry(case.spec))
        return check_diff_by_second_route(rows, geometry, case.expected)
