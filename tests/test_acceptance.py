"""Acceptance suite: one test per shipping criterion, all exact.

Every assertion is zero-tolerance rational arithmetic.  Each criterion is
a single test function so the verbose runner emits one pass/fail line per
criterion.
"""
from __future__ import annotations

import importlib.resources
import time
from itertools import product

from ccmv import (
    HEISENBERG_CCM,
    build_abelian,
    build_heisenberg,
    check_normality,
    exterior_d_oneform,
    levi_civita,
    lie_checks,
    load_model,
    ricci,
    riemann,
    riemann_symmetry_failures,
    run_suite,
    scalar_curvature,
    sectional,
    sigma_form,
    suite_tsv_rows,
    validate_structure,
)
from ccmv.cli import main
from ccmv.core import Status, combine
from ccmv.curvature import holomorphic_sectional, second_bianchi_failures
from ccmv.structures import ConnectionWorkspace
from ccmv.verify import parse_expected
from conftest import ERRATA, make_nilpotent_model

EXPECTED_FILE = (importlib.resources.files("ccmv")
                 .joinpath("data/iwasawa_expected.ccmx"))

# identities that must PASS on the built-in model
PINNED_PASS = (
    ["LIE-ANTISYM", "LIE-JACOBI", "AX-G2", "AX-H2", "AX-J2", "AX-ANTICOMM",
     "AX-KERNEL", "AX-SKEW", "AX-HGJ", "AX-JH", "AX-JV", "AX-HERM",
     "AX-du", "AX-dv", "EQ-2.1", "EQ-2.22", "EQ-3.1", "EQ-4.1",
     "EQ-5.6", "EQ-5.7", "NORM-KORKMAZ", "NORM-PROP21", "NORM-THM45",
     "RIEM-SYM", "BIANCHI-1", "BIANCHI-2"]
    + [f"EQ-2.{k}" for k in range(7, 19)]
)


def test_c01_structure_checks_pass_and_sign_flips_are_caught(heisenberg):
    report = validate_structure(heisenberg)
    assert report.all_pass
    assert len(report.checks) == 12

    flipped = load_model(HEISENBERG_CCM.replace("G 3 1 -1", "G 3 1 1"))
    broken = validate_structure(flipped)
    assert not broken.all_pass
    assert {c.check_id for c in broken.failures} >= {"AX-G2"}
    assert all(c.witness for c in broken.failures)
    print("criterion 1 PASS")


def test_c02_connection_table_matches_published_values(heisenberg, heis_conn):
    source = EXPECTED_FILE.read_text(encoding="utf-8")
    conn_entries = [e for e in parse_expected(source, 6).entries
                    if e.kind == "conn"]
    assert len(conn_entries) == 21
    for entry in conn_entries:
        i, j = entry.indices
        assert heis_conn.row(i, j) == entry.expected, entry.key
    print("criterion 2 PASS")


def test_c03_rotation_form_and_its_derivative_vanish(heisenberg, heis_conn):
    sigma = sigma_form(heisenberg, heis_conn)
    assert sigma.is_zero()
    dsigma = exterior_d_oneform(heisenberg, sigma)
    assert all(dsigma.contract(heisenberg.basis(i), heisenberg.basis(j)) == 0
               for i in range(6) for j in range(6))
    print("criterion 3 PASS")


def test_c04_normality_routes_agree_both_ways(heisenberg, heis_conn):
    report = check_normality(ConnectionWorkspace(heisenberg, heis_conn))
    assert report.all_pass and report.agreement

    flat = build_abelian()
    control = check_normality(ConnectionWorkspace(flat, levi_civita(flat)))
    assert control.agreement
    for route in control.routes:
        assert route.status is Status.FAIL
        assert route.witness
    print("criterion 4 PASS")


def test_c05_curvature_operator_spot_values(heisenberg, heis_curv):
    e = [heisenberg.basis(i) for i in range(6)]
    assert heis_curv.row(0, 2, 0) == combine([(3, e[2])])
    assert heis_curv.row(0, 2, 2) == combine([(-3, e[0])])
    assert heis_curv.row(0, 4, 4) == e[0]
    assert heis_curv.row(4, 5, 5).is_zero()
    assert heis_curv.row(4, 5, 0) == combine([(2, e[1])])
    print("criterion 5 PASS")


def test_c06_ricci_values_and_scalar_curvature(heisenberg, heis_curv):
    rho = ricci(heisenberg, heis_curv)
    assert rho.entry(4, 4) == 4
    assert rho.entry(5, 5) == 4
    assert rho.entry(4, 5) == 0
    assert rho.entry(0, 4) == 0
    assert rho.entry(0, 0) == -4
    assert scalar_curvature(rho) == -8
    print("criterion 6 PASS")


def test_c07_sectional_curvature_values(heisenberg, heis_curv):
    for i in range(4):
        assert sectional(heis_curv, heisenberg.basis(i), heisenberg.U) == 1, i
    assert sectional(heis_curv, heisenberg.U, heisenberg.V) == 0
    for i in range(6):
        assert holomorphic_sectional(heisenberg, heis_curv,
                                     heisenberg.basis(i)) == 0, i
    assert sectional(heis_curv, heisenberg.basis(0), heisenberg.basis(2)) == -3
    print("criterion 7 PASS")


def test_c08_identity_suite_statuses_are_frozen_and_fast():
    started = time.perf_counter()
    report = run_suite(build_heisenberg())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"

    for identity_id in PINNED_PASS:
        assert report.result(identity_id).status is Status.PASS, identity_id

    refuted = report.result("EQ-2.19")
    assert refuted.status is Status.FAIL
    assert refuted.witness == "slots=0 lhs=2:1 rhs=-1:1"

    frozen = (ERRATA / "iwasawa_suite.tsv").read_text().splitlines()
    assert suite_tsv_rows(report) == frozen
    print("criterion 8 PASS")


def test_c09_published_tables_diff_with_exact_verdicts(capsys, heis_path):
    code = main(["diff", heis_path, "--expected", str(EXPECTED_FILE)])
    out = capsys.readouterr().out
    assert code == 1
    lines = out.splitlines()
    for key in ("R 0 2 0", "R 0 2 2", "sec 0 4", "hol 0"):
        assert f"{key} MATCH" in lines, key
    assert "scal MISMATCH expected 24 computed -8" in lines
    assert "sec 0 2 MISMATCH expected 3 computed -3" in lines
    assert "ric 0 0 MISMATCH expected 4 computed -4" in lines
    assert "R 0 1 4 MISMATCH expected 0 computed 2:5" in lines
    print("criterion 9 PASS")


def test_c10_symmetry_and_bianchi_properties_on_perturbed_models(heis_suite,
                                                                 heis_curv):
    # built-in model: registry evaluations are exhaustive sweeps
    assert riemann_symmetry_failures(heis_curv) is None
    for identity_id in ("RIEM-SYM", "BIANCHI-1", "BIANCHI-2"):
        assert heis_suite.result(identity_id).status is Status.PASS

    for seed in range(5):
        m = make_nilpotent_model(seed)
        assert all(c.status is Status.PASS for c in lie_checks(m)), seed
        conn = levi_civita(m)
        rt = riemann(m, conn)
        assert riemann_symmetry_failures(rt) is None, seed
        for i, j, k in product(range(6), repeat=3):
            cyclic = combine([(1, rt.row(i, j, k)), (1, rt.row(j, k, i)),
                              (1, rt.row(k, i, j))])
            assert cyclic.is_zero(), (seed, i, j, k)
        assert second_bianchi_failures(m, conn, rt) is None, seed
    print("criterion 10 PASS")
