"""Identity registry, suite runner, and expected-value diffing."""
from __future__ import annotations

import importlib.resources
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import ccmv
from ccmv.core import Status, Table, combine, format_sparse_vector
from ccmv.curvature import DegeneratePlane
from ccmv.model import (
    HEISENBERG_CCM,
    InvalidModelError,
    ManifoldModel,
    build_heisenberg,
    load_model,
    validate_structure,
)
from ccmv.verify import (
    REGISTRY,
    Identity,
    SELECTORS,
    ExpectedFormatError,
    Workspace,
    diff_expected,
    diff_text_rows,
    diff_tsv_rows,
    parse_expected,
    registry_ids,
    run_suite,
    suite_text_rows,
    suite_tsv_rows,
)
from conftest import (
    ERRATA,
    cayley_rotation,
    make_heisenberg_model,
    make_nilpotent_model,
    make_two_step_model,
    rotate_model,
)

EXPECTED_FILE = str(importlib.resources.files("ccmv").joinpath("data/iwasawa_expected.ccmx"))

# every identity that fails on the built-in model, with its exact witness
FROZEN_FAILURES = {
    "EQ-2.5": "slots=4,0,1 lhs=-2 rhs=2",
    "EQ-2.19": "slots=0 lhs=2:1 rhs=-1:1",
    "EQ-3.11": "slots=0,0 lhs=-2 rhs=0",
    "EQ-4.6": "slots=0 lhs=2:1 rhs=-1:1",
    "EQ-4.7": "slots=5,0 lhs=-1:1 rhs=1:1",
    "EQ-4.9": "slots=5,0 lhs=-2:1 rhs=1:1",
    "EQ-4.10": "slots=4,0 lhs=2:1 rhs=-1:1",
    "EQ-4.12": "slots=5,0 lhs=2:1 rhs=-2:1",
    "EQ-4.13": "slots=4,4 lhs=0 rhs=-2:5",
}

GROUP_SIZES = {"axioms": 14, "contact": 22, "normality": 5,
               "curvature": 24, "ricci": 8}


class TestRegistry:
    def test_selectors(self):
        assert SELECTORS == ("all", "axioms", "contact", "normality",
                             "curvature", "ricci")

    def test_group_sizes(self):
        assert len(registry_ids("all")) == sum(GROUP_SIZES.values())
        for group, size in GROUP_SIZES.items():
            assert len(registry_ids(group)) == size, group

    def test_groups_partition_registry(self):
        combined = sorted(identity_id for group in GROUP_SIZES
                          for identity_id in registry_ids(group))
        assert combined == sorted(registry_ids("all"))
        assert len(set(combined)) == len(combined)

    def test_natural_ordering(self):
        ids = registry_ids("all")
        assert ids.index("EQ-2.9") < ids.index("EQ-2.10")
        assert ids.index("EQ-2.10") < ids.index("EQ-2.11")
        assert ids.index("AX-ANTICOMM") == 0
        assert ids.index("EQ-5.13") > ids.index("EQ-5.2")

    def test_unknown_selector(self):
        with pytest.raises(ValueError, match="unknown selector"):
            registry_ids("bogus")

    def test_registry_ids_unique(self):
        ids = [ident.identity_id for ident in REGISTRY]
        assert len(set(ids)) == len(ids)

    def test_direct_curvature_identities(self):
        # RIEM-SYM and the two Bianchi identities read the stored tables;
        # EQ-2.11 compares two scalars
        direct = {ident.identity_id for ident in REGISTRY
                  if ident.group == "curvature" and ident.direct is not None}
        assert direct == {"RIEM-SYM", "BIANCHI-1", "BIANCHI-2", "EQ-2.11"}

    def test_every_identity_is_tables_or_direct(self):
        assert Identity._fields == ("identity_id", "group", "slots", "tables", "direct")
        for ident in REGISTRY:
            assert (ident.tables is None) != (ident.direct is None), ident.identity_id
            assert ident.direct is None or ident.slots == (), ident.identity_id
        slotless = {i.identity_id for i in REGISTRY if i.tables is not None and not i.slots}
        assert slotless == {"EQ-2.8"}

    def test_every_exported_name_resolves(self):
        assert len(set(ccmv.__all__)) == len(ccmv.__all__)
        for name in ccmv.__all__:
            assert getattr(ccmv, name) is not None, name

    def test_exported_names_are_pinned(self):
        # a removed name cannot come back, nor a new one arrive, unnoticed
        assert sorted(ccmv.__all__) == [
        "CheckResult", "DegeneratePlane", "DiffReport", "DimensionMismatch",
        "ExpectedFormatError", "ExpectedValues", "HEISENBERG_CCM",
        "InvalidModelError", "MAX_N", "ManifoldModel", "ModelFormatError", "NormalityReport",
        "SELECTORS", "Scalar", "Status", "SuiteReport", "Table",
        "ValidationReport", "Workspace", "build_abelian", "build_heisenberg",
        "check_normality", "diff_expected", "diff_text_rows",
        "diff_tsv_rows", "exterior_d_oneform", "format_scalar", "format_sparse_vector",
        "holomorphic_sectional", "levi_civita", "lie_checks", "load_model", "parse_expected",
        "parse_scalar", "parse_sparse_vector", "registry_ids", "require_lie_algebra", "ricci",
        "riemann", "riemann_symmetry_failures", "run_suite", "scalar_curvature",
        "sectional", "sigma_form", "structure_tensor_checks",
        "suite_text_rows", "suite_tsv_rows", "validate_structure", "wedge"]


class TestSuite:
    def test_frozen_outcome(self, heis_suite):
        assert heis_suite.model_name == "heisenberg"
        assert heis_suite.selector == "all"
        assert heis_suite.pass_count == 64
        assert heis_suite.fail_count == 9
        assert not heis_suite.all_pass

    def test_frozen_failures(self, heis_suite):
        failures = {r.check_id: r.witness for r in heis_suite.results
                    if r.status is Status.FAIL}
        assert failures == FROZEN_FAILURES

    def test_passes_have_no_witness(self, heis_suite):
        for r in heis_suite.results:
            if r.status is Status.PASS:
                assert r.witness is None, r.check_id

    def test_results_in_report_order(self, heis_suite):
        assert [r.check_id for r in heis_suite.results] == registry_ids("all")

    def test_result_lookup(self, heis_suite):
        assert heis_suite.result("EQ-2.19").status is Status.FAIL
        assert heis_suite.result("BIANCHI-2").status is Status.PASS
        with pytest.raises(KeyError):
            heis_suite.result("EQ-99.9")

    def test_selector_subsets(self, heisenberg):
        report = run_suite(heisenberg, "ricci")
        assert [r.check_id for r in report.results] == registry_ids("ricci")
        assert report.all_pass

    def test_normality_group_counts(self, heis_suite):
        group = set(registry_ids("normality"))
        statuses = [r.status for r in heis_suite.results
                    if r.check_id in group]
        assert statuses.count(Status.PASS) == 4
        assert statuses.count(Status.FAIL) == 1

    def test_deterministic(self, heisenberg):
        # full-suite determinism is pinned byte-for-byte against the errata
        # file elsewhere; here rerun one group twice
        first = run_suite(heisenberg, "axioms")
        second = run_suite(heisenberg, "axioms")
        assert first == second

    def test_unknown_selector(self, heisenberg):
        with pytest.raises(ValueError, match="unknown selector"):
            run_suite(heisenberg, "everything")

    def test_diff_builds_no_normality_tables(self, heisenberg, monkeypatch):
        import ccmv.structures as structures
        import ccmv.verify as verify
        built = []

        class Recorded(verify.Workspace):
            def __init__(self, m):
                super().__init__(m)
                built.append(self)
        monkeypatch.setattr(verify, "Workspace", Recorded)
        exp = parse_expected(Path(EXPECTED_FILE).read_text(), 6)
        assert diff_expected(heisenberg, exp).entries
        tables = {name for name, attr in vars(structures.ConnectionWorkspace).items()
                  if isinstance(attr, cached_property)}
        assert {"nabla_G", "prop21_G", "thm45_G", "obstruction_S"} <= tables
        assert len(built) == 1
        assert not tables & set(vars(built[0]))

    def test_connection_quantities_are_derived_once(self, heisenberg, monkeypatch):
        # the normality routes read the run's own workspace: one sigma, one
        # nabla of each of G, H and J, and the three d of sigma, u, v
        import ccmv.structures as structures
        calls = {}
        for name in ("sigma_form", "cov_deriv_table", "exterior_d_oneform"):
            def counted(*args, _name=name, _fn=getattr(structures, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(structures, name, counted)
        run_suite(heisenberg)
        assert calls == {"sigma_form": 1, "cov_deriv_table": 3, "exterior_d_oneform": 3}

    def test_riemann_symmetry_is_swept_once(self, heisenberg, monkeypatch):
        # RIEM-SYM's row and BIANCHI-2's choice of sweep read one result
        import ccmv.verify as verify
        calls = []

        def counted(rt, _fn=verify.riemann_symmetry_failures):
            calls.append(rt)
            return _fn(rt)
        monkeypatch.setattr(verify, "riemann_symmetry_failures", counted)
        report = run_suite(heisenberg)
        assert len(calls) == 1
        assert report.result("RIEM-SYM").status is Status.PASS
        assert report.result("BIANCHI-2").status is Status.PASS

    @pytest.mark.parametrize("build", [
        build_heisenberg, lambda: make_heisenberg_model(2), make_two_step_model,
        *[lambda seed=seed: make_nilpotent_model(seed) for seed in range(5)],
        *[lambda line=line, moved=moved: load_model(HEISENBERG_CCM.replace(line, moved))
          for line, moved in (("G 3 1 -1", "G 4 1 -1"), ("H 3 0 1", "H 4 0 1"),
                              ("J 4 5 -1", "J 5 5 -1"))],
    ], ids=["bundled", "heis-n2", "two-step", *[f"nilpotent-{seed}" for seed in range(5)],
            "G4-moved", "H4-moved", "JV-moved"])
    def test_axiom_rows_are_the_model_checks(self, build):
        # the registry hands out the model's own check results, unchanged
        m = build()
        checks = validate_structure(m).checks
        rows = {r.check_id: r for r in run_suite(m, "axioms").results}
        assert len(checks) == 12
        for check in checks:
            assert rows[check.check_id] == check

    def test_rejects_non_lie_model(self):
        text = "version 1\nn 1\nbracket 0 1 2 1\nbracket 0 2 0 1\n"
        with pytest.raises(InvalidModelError, match="LIE-JACOBI"):
            run_suite(load_model(text))

    def test_failed_identity_is_an_honest_mismatch(self, heisenberg, heis_curv):
        # the first EQ-2.19 witness compares R(U, V) e0 against J e0
        e0, e1 = heisenberg.basis(0), heisenberg.basis(1)
        lhs = heis_curv.row(heisenberg.U_index, heisenberg.V_index, 0)
        assert lhs == combine([(2, e1)])  # rendered as 2:1
        assert heisenberg.J.contract(e0) == combine([(-1, e1)])  # rendered as -1:1

    def test_abelian_failures_are_witnessed(self, abelian):
        report = run_suite(abelian, "normality")
        assert report.result("EQ-2.4").witness == "slots=0,0,4 lhs=0 rhs=1"
        assert report.result("EQ-2.5").witness == "slots=0,0,5 lhs=0 rhs=1"
        assert (report.result("NORM-KORKMAZ").witness
                == "S slots=0,2 lhs=2:4 rhs=0")
        assert (report.result("NORM-THM45").witness
                == "G slots=0,0 lhs=0 rhs=1:4")
        assert report.fail_count == 5


def _statuses(report) -> dict[str, Status]:
    return {r.check_id: r.status for r in report.results}


class TestFrameInvariance:
    """Every status is a property of the structure, not of the frame: the
    horizontal block turned by a rational Cayley rotation (`rotate_model`)
    keeps each identity's status, while the witnesses, read in the new
    frame, move."""

    @pytest.mark.parametrize("h,seed", [(4, 0), (4, 1), (8, 0)])
    def test_cayley_rotation_is_orthogonal(self, h, seed):
        q = cayley_rotation(h, random.Random(seed))
        assert all(sum(q[k][i] * q[k][j] for k in range(h)) == (i == j)
                   for i in range(h) for j in range(h))
        assert any(q[i][j] not in (-1, 0, 1) for i in range(h) for j in range(h))

    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_bundled_model_keeps_every_status(self, heisenberg, heis_suite, seed):
        rotated = rotate_model(heisenberg, seed)
        # G is no longer a signed permutation: some e_p is reached from 3 inputs
        assert max(Counter(p for _, p in rotated.G.entries).values()) == 3
        report = run_suite(rotated)
        assert _statuses(report) == _statuses(heis_suite)
        assert report.fail_count == 9
        assert suite_tsv_rows(report) != suite_tsv_rows(heis_suite)

    def test_a_partial_rotation_changes_statuses(self, heisenberg, heis_suite):
        # the control: the brackets turned, but not G, H and J
        rotated = rotate_model(heisenberg)
        partial = ManifoldModel("partial", 1, rotated.constants,
                                heisenberg.G, heisenberg.H, heisenberg.J)
        assert _statuses(run_suite(partial)) != _statuses(heis_suite)

    def test_rotated_heisenberg_n2_keeps_every_status(self):
        m = make_heisenberg_model(2)
        plain, rotated = run_suite(m), run_suite(rotate_model(m))
        assert _statuses(rotated) == _statuses(plain)
        assert suite_tsv_rows(rotated) != suite_tsv_rows(plain)


class TestRenderers:
    def test_tsv_rows(self, heis_suite):
        rows = suite_tsv_rows(heis_suite)
        assert rows[0] == "AX-ANTICOMM\tPASS\t"
        assert "EQ-2.19\tFAIL\tslots=0 lhs=2:1 rhs=-1:1" in rows
        assert len(rows) == 73

    def test_text_rows(self, heis_suite):
        rows = suite_text_rows(heis_suite)
        assert "AX-ANTICOMM PASS" in rows
        assert "EQ-2.19 FAIL slots=0 lhs=2:1 rhs=-1:1" in rows

    def test_rows_match_errata_file(self, heis_suite):
        frozen = (ERRATA / "iwasawa_suite.tsv").read_text().splitlines()
        assert suite_tsv_rows(heis_suite) == frozen


class TestParseExpected:
    def test_happy_path(self):
        text = ("# comment\n\nR 0 2 0 = 3:2\nconn 0 2 = -1:4\n"
                "ric 0 0 = -4\nscal = -8\nsec 0 2 = -3\nhol 0 = 0\n")
        exp = parse_expected(text, 6)
        kinds = [e.kind for e in exp.entries]
        assert kinds == ["R", "conn", "ric", "scal", "sec", "hol"]
        assert exp.entries[0].key == "R 0 2 0"
        assert exp.entries[3].key == "scal"
        assert exp.entries[0].line == 3

    def test_duplicate_keys_allowed(self):
        exp = parse_expected("scal = -8\nscal = 24\n", 6)
        assert [e.key for e in exp.entries] == ["scal", "scal"]

    @pytest.mark.parametrize("text,line,fragment", [
        ("R 0 1 0 = 0\nbogus 0 = 1\n", 2, "unknown entry kind"),
        ("R 0 1 = 0\n", 1, "must look like"),
        ("scal -8\n", 1, "must look like"),
        ("ric 0 x = 1\n", 1, "indices must be integers"),
        ("ric 0 +1 = 1\n", 1, "indices must be integers"),
        ("ric 0_1 0 = 1\n", 1, "indices must be integers"),
        ("hol \u0664 = 0\n", 1, "indices must be integers"),
        ("scal = \u0663\n", 1, "not an exact rational"),
        ("conn 0 1 = 1:+2\n", 1, "bad frame index"),
        ("conn 0 1 = 1:0_2\n", 1, "bad frame index"),
        ("R 0 1 2 = 1:\u0662\n", 1, "bad frame index"),
        ("hol 6 = 0\n", 1, "index out of range"),
        ("sec -1 0 = 0\n", 1, "index out of range"),
        ("scal = 1.5\n", 1, "not an exact rational"),
        ("R 0 1 2 = 1:9\n", 1, "out of range"),
    ])
    def test_rejects(self, text, line, fragment):
        with pytest.raises(ExpectedFormatError) as err:
            parse_expected(text, 6)
        assert err.value.line == line
        assert fragment in str(err.value)


class TestDiff:
    def test_verdicts(self, heisenberg):
        text = ("R 0 2 0 = 3:2\nR 0 1 0 = 0\nconn 0 2 = -1:4\n"
                "ric 0 0 = -4\nscal = -8\nscal = 24\nsec 0 2 = 3\nhol 0 = 0\n")
        report = diff_expected(heisenberg, parse_expected(text, 6))
        assert report.model_name == "heisenberg"
        assert report.match_count == 6
        assert report.mismatch_count == 2
        assert not report.all_match
        assert report.entry("R 0 2 0").matched
        assert report.entry("scal").matched  # first occurrence wins the lookup
        scal_rows = [e for e in report.entries if e.key == "scal"]
        assert [e.matched for e in scal_rows] == [True, False]
        assert scal_rows[1].computed_text == "-8"
        sec_row = report.entry("sec 0 2")
        assert not sec_row.matched
        assert sec_row.expected_text == "3"
        assert sec_row.computed_text == "-3"

    def test_text_and_tsv_rows(self, heisenberg):
        report = diff_expected(heisenberg,
                               parse_expected("scal = 24\nhol 0 = 0\n", 6))
        assert diff_text_rows(report) == [
            "scal MISMATCH expected 24 computed -8",
            "hol 0 MATCH",
        ]
        assert diff_tsv_rows(report) == ["scal\tMISMATCH\t-8", "hol 0\tMATCH\t0"]

    def test_degenerate_expected_plane_propagates(self, heisenberg):
        exp = parse_expected("sec 0 0 = 0\n", 6)
        with pytest.raises(DegeneratePlane):
            diff_expected(heisenberg, exp)

    def test_rejects_non_lie_model(self):
        text = "version 1\nn 1\nbracket 0 1 2 1\nbracket 0 2 0 1\n"
        with pytest.raises(InvalidModelError):
            diff_expected(load_model(text), parse_expected("scal = 0\n", 6))

    @pytest.mark.parametrize("build", [
        build_heisenberg, lambda: make_heisenberg_model(2), make_two_step_model,
        *[lambda seed=seed: make_nilpotent_model(seed) for seed in range(5)]],
        ids=["bundled", "heisenberg-n2", "two-step",
             *[f"nilpotent-{seed}" for seed in range(5)]])
    def test_printed_rows_diff_as_matches(self, build):
        # `diff` compares a parsed row with a computed one by `==`: every
        # printed conn and R row must read back as a MATCH, and a bump of one
        # coefficient of one row must turn exactly that entry into a MISMATCH
        m = build()
        ws = Workspace(m)
        d = m.dim
        rows = {f"conn {i} {j}": ws.conn.row(i, j) for i in range(d) for j in range(d)}
        rows.update({f"R {i} {j} {k}": ws.curv.row(i, j, k)
                     for i in range(d) for j in range(d) for k in range(d)})
        lines = [f"{key} = {format_sparse_vector(row)}" for key, row in rows.items()]
        report = diff_expected(m, parse_expected("\n".join(lines) + "\n", d))
        assert report.match_count == len(rows) and report.all_match
        for kind in ("conn", "R"):
            # the last stored row of the kind, its first coefficient bumped by 1/7
            key, row = [(key, row) for key, row in rows.items()
                        if key.startswith(kind + " ") and not row.is_zero()][-1]
            (k,), value = row.items()[0]
            bumped = row.add([(Fraction(1, 7), Table(d, 1, {(k,): 1}))])
            text = "\n".join(f"{key} = {format_sparse_vector(bumped)}" if line.startswith(key + " =")
                             else line for line in lines)
            report = diff_expected(m, parse_expected(text + "\n", d))
            assert [e.key for e in report.entries if not e.matched] == [key], kind
            assert report.entry(key).computed_text == format_sparse_vector(row)

    def test_missing_key_lookup(self, heisenberg):
        report = diff_expected(heisenberg, parse_expected("scal = -8\n", 6))
        with pytest.raises(KeyError):
            report.entry("hol 0")
