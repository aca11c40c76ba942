"""The nonzero-driven kernels agree with the dense formulas they replace.

Each reference below is the dense index-range formula, kept here as an
independent second route: the Jacobi sweep, the curvature assembly, the
exhaustive second-Bianchi sweep, the frame sweeps and product-order index
sweeps of the Riemann symmetries and of the first Bianchi identity, the
per-tuple evaluators of EQ-2.20, EQ-2.21 and EQ-4.1, the pullback of a
table through an endomorphism, and the quadrilinear and trilinear
contractions.  They are compared on the bundled model, generated
nilpotent perturbations, the n=2 block-diagonal model, systematic
mutations of the bundled model, random two-step nilpotent models with
random structure tensors, and random sparse 4-tensors.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmv import (
    HEISENBERG_CCM,
    ConnectionCoeffs,
    Endomorphism,
    FrameVector,
    ManifoldModel,
    Status,
    StructureConstants,
    Table,
    Tensor4,
    build_heisenberg,
    format_scalar,
    inner_product,
    levi_civita,
    lie_checks,
    load_model,
    riemann,
    riemann_symmetry_failures,
    second_bianchi_cyclic_sum,
    second_bianchi_failures,
)
from ccmv.curvature import add_nabla_r, first_bianchi_failures
from ccmv.verify import REGISTRY, Identity, IdentityResult, Workspace, _run_slots
from conftest import make_heisenberg_model, make_nilpotent_model

ZERO = Fraction(0)

MODELS = {
    "bundled": build_heisenberg,
    **{f"nilpotent-{seed}": (lambda seed=seed: make_nilpotent_model(seed))
       for seed in range(5)},
    "heisenberg-n2": lambda: make_heisenberg_model(2),
}


# ----- dense reference routes -----

def dense_view(t) -> list:
    """The table as dense nested lists, for the index-range formulas."""
    def block(depth):
        if depth == t.rank - 1:
            return [ZERO] * t.dim
        return [block(depth + 1) for _ in range(t.dim)]

    view = block(0)
    for idx, value in t.items():
        node = view
        for i in idx[:-1]:
            node = node[i]
        node[idx[-1]] = value
    return view


def dense_jacobi_witness(m) -> str | None:
    d = m.dim
    c = m.constants.entry
    for i, j, el, k in product(range(d), repeat=4):
        total = sum((c(i, j, mm) * c(mm, el, k)
                     + c(j, el, mm) * c(mm, i, k)
                     + c(el, i, mm) * c(mm, j, k) for mm in range(d)), ZERO)
        if total:
            return f"entry=({i},{j},{el},{k}) lhs={format_scalar(total)} rhs=0"
    return None


def dense_riemann(m, conn) -> Tensor4:
    d = m.dim
    gamma = dense_view(conn)
    c = dense_view(m.constants)

    def component(i, j, k, el):
        total = ZERO
        for mm in range(d):
            total += gamma[j][k][mm] * gamma[i][mm][el]
            total -= gamma[i][k][mm] * gamma[j][mm][el]
            total -= c[i][j][mm] * gamma[mm][k][el]
        return total

    return Tensor4.from_function(d, component)


def dense_cyclic_sum(m, conn, rt, mm, i, j, k, el) -> Fraction:
    gamma = dense_view(conn)

    def nabla_r(s, a, b, cc, dd):
        total = ZERO
        for p in range(m.dim):
            total -= gamma[s][a][p] * rt.entry(p, b, cc, dd)
            total -= gamma[s][b][p] * rt.entry(a, p, cc, dd)
            total -= gamma[s][cc][p] * rt.entry(a, b, p, dd)
            total -= gamma[s][dd][p] * rt.entry(a, b, cc, p)
        return total

    return (nabla_r(mm, i, j, k, el) + nabla_r(i, j, mm, k, el)
            + nabla_r(j, mm, i, k, el))


def dense_bianchi_failure(m, conn, rt) -> tuple[int, ...] | None:
    """First failing tuple of the exhaustive sweep; the dense formula with
    the connection read through its zero-free rows only, to stay fast."""
    d = m.dim
    r = dense_view(rt)
    gamma = dense_view(conn)
    rows = [[[(p, gamma[s][a][p]) for p in range(d) if gamma[s][a][p]]
             for a in range(d)] for s in range(d)]

    def nabla_r(s, a, b, cc, dd):
        total = ZERO
        for p, q in rows[s][a]:
            total -= q * r[p][b][cc][dd]
        for p, q in rows[s][b]:
            total -= q * r[a][p][cc][dd]
        for p, q in rows[s][cc]:
            total -= q * r[a][b][p][dd]
        for p, q in rows[s][dd]:
            total -= q * r[a][b][cc][p]
        return total

    for mm, i, j, k, el in product(range(d), repeat=5):
        if (nabla_r(mm, i, j, k, el) + nabla_r(i, j, mm, k, el)
                + nabla_r(j, mm, i, k, el)):
            return (mm, i, j, k, el)
    return None


def dense_contract(t: Tensor4, x, y, z, w) -> Fraction:
    d = t.dim
    return sum((x[i] * y[j] * z[k] * w[el] * t.entry(i, j, k, el)
                for i, j, k, el in product(range(d), repeat=4)), ZERO)


def dense_contract3(t: Tensor4, x, y, z) -> FrameVector:
    d = t.dim
    return FrameVector(tuple(
        sum((x[i] * y[j] * z[k] * t.entry(i, j, k, el)
             for i, j, k in product(range(d), repeat=3)), ZERO)
        for el in range(d)))


def frame_sweep_riemann_symmetry(ws: Workspace) -> IdentityResult:
    """RIEM-SYM as a slot identity: three R4 clauses over every frame
    4-tuple, then the random samples."""
    ident = Identity("RIEM-SYM", "curvature", ("any",) * 4, evaluate=lambda ws, vs: [
        ("swap-first-pair", ws.R4(vs[0], vs[1], vs[2], vs[3]),
         -ws.R4(vs[1], vs[0], vs[2], vs[3])),
        ("swap-second-pair", ws.R4(vs[0], vs[1], vs[2], vs[3]),
         -ws.R4(vs[0], vs[1], vs[3], vs[2])),
        ("pair-exchange", ws.R4(vs[0], vs[1], vs[2], vs[3]),
         ws.R4(vs[2], vs[3], vs[0], vs[1]))])
    return _run_slots(ws, ident, samples=32, seed=0)


def frame_sweep_first_bianchi(ws: Workspace) -> IdentityResult:
    """BIANCHI-1 as a slot identity: the cyclic R4 sum over every frame
    4-tuple, then the random samples."""
    ident = Identity("BIANCHI-1", "curvature", ("any",) * 4, evaluate=lambda ws, vs: [(
        "", ws.R4(vs[0], vs[1], vs[2], vs[3])
        + ws.R4(vs[1], vs[2], vs[0], vs[3])
        + ws.R4(vs[2], vs[0], vs[1], vs[3]), ZERO)])
    return _run_slots(ws, ident, samples=32, seed=0)


# EQ-2.20, EQ-2.21 and EQ-4.1 as the per-tuple evaluators the table
# equations replaced: R4 contracted on the G or H images of each frame tuple.
HORIZONTAL_REFERENCES = {
    "EQ-2.20": lambda ws, vs: [(
        "", ws.R4(ws.G(vs[0]), ws.G(vs[1]), ws.G(vs[2]), ws.G(vs[3])),
        ws.R4(vs[0], vs[1], vs[2], vs[3])
        - 2 * inner_product(ws.J(vs[2]), vs[3]) * ws.dsig(vs[0], vs[1])
        + 2 * inner_product(ws.H(vs[0]), vs[1]) * ws.dsig(ws.G(vs[2]), vs[3])
        + 2 * inner_product(ws.J(vs[0]), vs[1]) * ws.dsig(vs[2], vs[3])
        - 2 * inner_product(ws.H(vs[2]), vs[3]) * ws.dsig(ws.G(vs[0]), vs[1]))],
    "EQ-2.21": lambda ws, vs: [(
        "", ws.R4(ws.H(vs[0]), ws.H(vs[1]), ws.H(vs[2]), ws.H(vs[3])),
        ws.R4(vs[0], vs[1], vs[2], vs[3])
        - 2 * inner_product(ws.J(vs[2]), vs[3]) * ws.dsig(vs[0], vs[1])
        + 2 * inner_product(ws.G(vs[0]), vs[1]) * ws.dsig(ws.H(vs[2]), vs[3])
        + 2 * inner_product(ws.J(vs[0]), vs[1]) * ws.dsig(vs[2], vs[3])
        - 2 * inner_product(ws.G(vs[2]), vs[3]) * ws.dsig(ws.H(vs[0]), vs[1]))],
    "EQ-4.1": lambda ws, vs: [
        ("G", ws.R4(ws.G(vs[0]), ws.G(vs[1]), ws.G(vs[2]), ws.G(vs[3])),
         ws.R4(vs[0], vs[1], vs[2], vs[3])),
        ("H", ws.R4(ws.H(vs[0]), ws.H(vs[1]), ws.H(vs[2]), ws.H(vs[3])),
         ws.R4(vs[0], vs[1], vs[2], vs[3]))],
}


def frame_sweep_horizontal(ws: Workspace, identity_id: str,
                           samples: int = 32) -> IdentityResult:
    """EQ-2.20, EQ-2.21 or EQ-4.1 by its reference evaluator over every
    horizontal frame 4-tuple, then the random samples."""
    ident = Identity(identity_id, "curvature", ("hor",) * 4,
                     evaluate=HORIZONTAL_REFERENCES[identity_id])
    return _run_slots(ws, ident, samples=samples, seed=0)


def registry_identity(identity_id: str) -> Identity:
    return next(i for i in REGISTRY if i.identity_id == identity_id)


def table_result(ws: Workspace, identity_id: str, samples: int = 32) -> IdentityResult:
    ident = registry_identity(identity_id)
    assert ident.tables is not None
    return _run_slots(ws, ident, samples=samples, seed=0)


def dense_pullback(t: Table, endo: Endomorphism, slots, keep) -> dict:
    """Every nonzero entry of the pullback on index tuples in `keep`: the
    dense 4-fold sum of t over the images of the pulled-back slots."""
    d = t.dim
    view = dense_view(t)
    out = {}
    for idx in product(keep, repeat=4):
        x, y, z, w = (endo.row(i) if s in slots else FrameVector.basis(d, i)
                      for s, i in enumerate(idx))
        total = sum((x[a] * y[b] * z[c] * w[e] * view[a][b][c][e]
                     for a, b, c, e in product(range(d), repeat=4)
                     if x[a] and y[b] and z[c] and w[e]), ZERO)
        if total:
            out[idx] = total
    return out


def product_order_riemann_symmetry_failure(rt: Tensor4) -> tuple[int, ...] | None:
    r = rt.entry
    for i, j, k, el in product(range(rt.dim), repeat=4):
        value = r(i, j, k, el)
        if (value != -r(j, i, k, el) or value != -r(i, j, el, k)
                or value != r(k, el, i, j)):
            return (i, j, k, el)
    return None


def product_order_first_bianchi_failure(rt: Tensor4) -> tuple[int, ...] | None:
    r = rt.entry
    for i, j, k, el in product(range(rt.dim), repeat=4):
        if r(i, j, k, el) + r(j, k, i, el) + r(k, i, j, el):
            return (i, j, k, el)
    return None


def direct_result(ws: Workspace, identity_id: str) -> IdentityResult:
    return registry_identity(identity_id).direct(ws, 32, 0)


def _jacobi_witness(m) -> str | None:
    check = {c.check_id: c for c in lie_checks(m)}["LIE-JACOBI"]
    assert (check.status is Status.FAIL) == (check.witness is not None)
    return check.witness


# ----- generated models -----

@pytest.fixture(scope="module", params=sorted(MODELS))
def geometry(request):
    m = MODELS[request.param]()
    conn = levi_civita(m)
    return m, conn, riemann(m, conn)


class TestGeneratedModels:
    def test_jacobi_matches_dense_sweep(self, geometry):
        m, _, _ = geometry
        assert _jacobi_witness(m) == dense_jacobi_witness(m)

    def test_riemann_matches_dense_assembly(self, geometry):
        m, conn, rt = geometry
        assert rt == dense_riemann(m, conn)

    def test_bianchi_sweep_matches_dense_sweep(self, geometry):
        m, conn, rt = geometry
        assert second_bianchi_failures(m, conn, rt) == dense_bianchi_failure(m, conn, rt)

    def test_riemann_symmetry_matches_frame_sweep(self, geometry):
        ws = Workspace(geometry[0])
        assert direct_result(ws, "RIEM-SYM") == frame_sweep_riemann_symmetry(ws)

    def test_first_bianchi_matches_frame_sweep(self, geometry):
        ws = Workspace(geometry[0])
        assert direct_result(ws, "BIANCHI-1") == frame_sweep_first_bianchi(ws)

    @pytest.mark.parametrize("identity_id", sorted(HORIZONTAL_REFERENCES))
    def test_horizontal_identities_match_frame_sweep(self, geometry, identity_id):
        ws = Workspace(geometry[0])
        assert table_result(ws, identity_id) == frame_sweep_horizontal(ws, identity_id)

    def test_index_sweeps_match_product_order(self, geometry):
        _, _, rt = geometry
        assert riemann_symmetry_failures(rt) == product_order_riemann_symmetry_failure(rt)
        assert first_bianchi_failures(rt) == product_order_first_bianchi_failure(rt)


# ----- mutated models -----

BRACKET_LINES = [line for line in HEISENBERG_CCM.splitlines()
                 if line.startswith("bracket ")]


def _flip_sign(line: str) -> str:
    *head, value = line.split()
    return " ".join(head + [value[1:] if value.startswith("-") else f"-{value}"])


def _retarget(line: str) -> str:
    """Send the bracket into the horizontal span: the algebra stops being
    two-step nilpotent, and the Jacobi identity generally breaks."""
    keyword, i, j, _, value = line.split()
    return " ".join([keyword, i, j, str((int(j) + 1) % 4), value])


class TestMutatedModels:
    @pytest.mark.parametrize("line", BRACKET_LINES)
    def test_sign_flip_gives_the_same_jacobi_witness(self, line):
        m = load_model(HEISENBERG_CCM.replace(line, _flip_sign(line)))
        assert _jacobi_witness(m) == dense_jacobi_witness(m)

    def test_retargeted_brackets_give_the_same_jacobi_witness(self):
        witnesses = []
        for line in BRACKET_LINES:
            m = load_model(HEISENBERG_CCM.replace(line, _retarget(line)))
            witness = _jacobi_witness(m)
            assert witness == dense_jacobi_witness(m), line
            witnesses.append(witness)
        assert sum(w is not None for w in witnesses) >= 2, witnesses

    def test_non_antisymmetric_table_gives_the_same_jacobi_witness(self):
        base = build_heisenberg()
        c = dict(base.constants.items())
        c[(2, 0, 1)] = Fraction(3)           # only one of the pair (0,2), (2,0)
        raw = StructureConstants.from_values(6, 3, c)
        m = ManifoldModel("raw", 1, raw, base.G, base.H, base.J)
        witness = _jacobi_witness(m)
        assert witness is not None and witness == dense_jacobi_witness(m)

    @pytest.mark.parametrize("where", [(0, 2, 2, 0), (0, 1, 0, 1), (1, 3, 4, 5),
                                       (4, 5, 4, 5), (5, 4, 0, 1), (3, 3, 2, 0)])
    def test_bumped_curvature_gives_the_same_bianchi_witness(self, heisenberg,
                                                             heis_conn, heis_curv, where):
        def bumped(*idx):
            return heis_curv.entry(*idx) + (Fraction(1) if idx == where else ZERO)

        bad = Tensor4.from_function(heisenberg.dim, bumped)
        found = second_bianchi_failures(heisenberg, heis_conn, bad)
        assert found is not None
        assert found == dense_bianchi_failure(heisenberg, heis_conn, bad)
        value = second_bianchi_cyclic_sum(heisenberg, heis_conn, bad, *found)
        assert value != 0
        assert value == dense_cyclic_sum(heisenberg, heis_conn, bad, *found)
        slab = found[:3]
        for k, el in product(range(heisenberg.dim), repeat=2):
            assert (second_bianchi_cyclic_sum(heisenberg, heis_conn, bad, *slab, k, el)
                    == dense_cyclic_sum(heisenberg, heis_conn, bad, *slab, k, el)), (k, el)

    # Each break adds 1 to R(a, b, c, e) and to signed partner entries, so
    # that every symmetry clause before the named one still holds there.
    @pytest.mark.parametrize("clause,partners", [
        ("swap-first-pair", []),
        ("swap-second-pair", [((1, 0, 2, 3), -1)]),
        ("pair-exchange", [((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1)]),
    ])
    @pytest.mark.parametrize("where", [(0, 1, 2, 3), (5, 4, 1, 0), (3, 0, 5, 2)])
    def test_broken_symmetry_gives_the_same_riemann_witness(self, heisenberg, heis_curv,
                                                            clause, partners, where):
        bumps = {where: 1}
        for order, sign in partners:
            bumps[tuple(where[p] for p in order)] = sign

        def broken(*idx):
            return heis_curv.entry(*idx) + bumps.get(idx, 0)

        ws = Workspace(heisenberg)
        ws.curv = Tensor4.from_function(heisenberg.dim, broken)
        result = direct_result(ws, "RIEM-SYM")
        assert result.status is Status.FAIL
        assert result == frame_sweep_riemann_symmetry(ws)
        if where == (0, 1, 2, 3):
            assert result.witness.startswith(f"slots=0,1,2,3 part={clause} ")


# ----- witnesses reached only through a rotation, a partner or an orbit -----

def _bumped(rt: Tensor4, bumps: dict[tuple[int, ...], int]) -> Tensor4:
    values = dict(rt.items())
    for idx, delta in bumps.items():
        values[idx] = values.get(idx, ZERO) + delta
    return Tensor4.from_values(rt.dim, 4, values)


class TestCandidateWitnesses:
    """Each first failure is a tuple whose own entry is zero, so a sweep that
    read only the stored entries, or only one slab of an orbit, would
    report another tuple."""

    @pytest.mark.parametrize("bump", [(2, 4, 1, 3), (4, 1, 2, 3)])
    def test_first_bianchi_witness_is_a_rotation(self, heisenberg, heis_curv, bump):
        # either bump first shows at its rotation (1, 2, 4, 3)
        ws = Workspace(heisenberg)
        ws.curv = _bumped(heis_curv, {bump: 1})
        assert ws.curv.entry(1, 2, 4, 3) == 0
        result = direct_result(ws, "BIANCHI-1")
        assert result.status is Status.FAIL
        assert result.witness == "slots=1,2,4,3 lhs=1 rhs=0"
        assert result == frame_sweep_first_bianchi(ws)
        assert first_bianchi_failures(ws.curv) == product_order_first_bianchi_failure(ws.curv)

    @pytest.mark.parametrize("bumps,where,clause", [
        ({(2, 0, 1, 4): 1}, (0, 2, 1, 4), "swap-first-pair"),
        ({(0, 2, 4, 1): 1}, (0, 2, 1, 4), "swap-second-pair"),
        ({(2, 3, 0, 4): 1, (3, 2, 0, 4): -1, (2, 3, 4, 0): -1, (3, 2, 4, 0): 1},
         (0, 4, 2, 3), "pair-exchange"),
    ])
    def test_riemann_symmetry_witness_is_a_partner(self, heisenberg, heis_curv,
                                                   bumps, where, clause):
        ws = Workspace(heisenberg)
        ws.curv = _bumped(heis_curv, bumps)
        assert ws.curv.entry(*where) == 0
        result = direct_result(ws, "RIEM-SYM")
        slots = ",".join(map(str, where))
        assert result.witness.startswith(f"slots={slots} part={clause} lhs=0 ")
        assert result == frame_sweep_riemann_symmetry(ws)
        assert (riemann_symmetry_failures(ws.curv)
                == product_order_riemann_symmetry_failure(ws.curv))

    # EQ-4.1 on the bundled model, where G and H act on horizontal frame
    # indices as signed permutations.  The first bump is the sum of a
    # delta and its G-pullback, so the G clause holds everywhere; the
    # second and third are one delta at a zero entry, whose first failure
    # is the delta's own tuple (only the rhs, R, is stored there) or its
    # G-image (only the lhs, G*R, is stored there).
    @pytest.mark.parametrize("bumps,where,clause,witness", [
        ({(1, 2, 0, 3): 1, (3, 0, 2, 1): 1}, (0, 3, 1, 2), "H",
         "slots=0,3,1,2 part=H lhs=2 rhs=1"),
        ({(0, 0, 0, 0): 1}, (0, 0, 0, 0), "G", "slots=0,0,0,0 part=G lhs=0 rhs=1"),
        ({(2, 0, 0, 0): 1}, (0, 2, 2, 2), "G", "slots=0,2,2,2 part=G lhs=-1 rhs=0"),
    ])
    def test_pulled_back_curvature_witness(self, heisenberg, heis_curv, bumps, where,
                                           clause, witness):
        ws = Workspace(heisenberg)
        ws.curv = _bumped(heis_curv, bumps)
        result = table_result(ws, "EQ-4.1")
        assert result.status is Status.FAIL
        assert result.witness == witness
        assert result == frame_sweep_horizontal(ws, "EQ-4.1")
        # an entry the witness prints as 0 is not stored in its table
        lhs = ws.curv_G if clause == "G" else ws.curv_H
        assert (where in dict(lhs.items())) == (" lhs=0 " not in witness)
        assert (where in dict(ws.curv_hor.items())) == (not witness.endswith(" rhs=0"))
        if clause == "H":
            assert ws.curv_G == ws.curv_hor
            assert where not in bumps

    def test_second_bianchi_witness_comes_from_a_rotated_term(self, heisenberg,
                                                              heis_conn, heis_curv):
        # the bump at (0, 4, 1, 0) first breaks the slab (0, 1, 3), and there
        # only through the rotated terms: nabla_0 R(e_1, e_3) is zero at (1, 0)
        bad = _bumped(heis_curv, {(0, 4, 1, 0): 1})
        found = second_bianchi_failures(heisenberg, heis_conn, bad)
        assert found == (0, 1, 3, 1, 0)
        assert found == dense_bianchi_failure(heisenberg, heis_conn, bad)
        own: dict = {}
        add_nabla_r(own, heis_conn, bad, 0, 1, 3)
        assert not own.get((1, 0))
        value = second_bianchi_cyclic_sum(heisenberg, heis_conn, bad, *found)
        assert value != 0
        assert value == dense_cyclic_sum(heisenberg, heis_conn, bad, *found)


# ----- the curvature sweeps on random sparse tensors -----

small_values = st.integers(-3, 3).filter(bool).map(Fraction)


def algebraic_part(dim: int, values: dict) -> dict:
    """Project a 4-tensor onto the tensors with the Riemann symmetries: the
    average over the pair swaps and the pair exchange, minus a third of
    its cyclic sum (which is then alternating)."""
    t = {}
    for (i, j, k, el), a in values.items():
        for idx, sign in (((i, j, k, el), 1), ((j, i, k, el), -1),
                          ((i, j, el, k), -1), ((j, i, el, k), 1)):
            for key in (idx, idx[2:] + idx[:2]):
                t[key] = t.get(key, ZERO) + Fraction(sign, 8) * a
    r = t.get
    return {(i, j, k, el): r((i, j, k, el), ZERO)
            - (r((i, j, k, el), ZERO) + r((j, k, i, el), ZERO) + r((k, i, j, el), ZERO)) / 3
            for i, j, k, el in product(range(dim), repeat=4)}


@st.composite
def sparse_curvature(draw):
    """(dim, connection, curvature, clean): random sparse tables of dim 2-5;
    half the curvature tensors are projected onto the Riemann symmetries,
    and `clean` marks those left unbumped."""
    dim = draw(st.integers(2, 5))
    index = st.integers(0, dim - 1)
    values = draw(st.dictionaries(st.tuples(index, index, index, index), small_values,
                                  max_size=6))
    clean = False
    if draw(st.booleans()):
        values = algebraic_part(dim, values)
        bump = draw(st.none() | st.tuples(index, index, index, index))
        if bump is None:
            clean = True
        else:
            values[bump] = values.get(bump, ZERO) + 1
    gamma = draw(st.dictionaries(st.tuples(index, index, index), small_values, max_size=5))
    return (dim, ConnectionCoeffs.from_values(dim, 3, gamma),
            Tensor4.from_values(dim, 4, values), clean)


@given(sparse_curvature())
@settings(max_examples=150, deadline=None)
def test_curvature_sweeps_match_product_order(case):
    dim, conn, rt, clean = case
    sym = riemann_symmetry_failures(rt)
    first = first_bianchi_failures(rt)
    assert sym == product_order_riemann_symmetry_failure(rt)
    assert first == product_order_first_bianchi_failure(rt)
    if clean:
        assert sym is None and first is None
    # the sweeps read only the frame dimension of the model
    model = SimpleNamespace(dim=dim)
    assert (second_bianchi_failures(model, conn, rt)
            == dense_bianchi_failure(model, conn, rt))


# ----- the table equations on random models and random tables -----

@st.composite
def two_step_models(draw):
    """Random two-step nilpotent model of dim 6 with random sparse G, H, J.

    The brackets map the span of A = {0, 1, U, V} into Z = {2, 3}, so the
    Jacobi identity holds.  [U, V] and [e_0, e_1] both have an e_2
    component, so sigma(e_2) and dsigma(e_0, e_1) are nonzero and the
    dsigma terms of EQ-2.20 and EQ-2.21 take part.  G, H and J are not
    signed permutations: one input has two image coefficients and one
    output coefficient is reached from two inputs.
    """
    a_pairs = [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    brackets = draw(st.dictionaries(
        st.tuples(st.sampled_from(a_pairs), st.sampled_from([2, 3])).map(
            lambda pair: (*pair[0], pair[1])), small_values, max_size=6))
    brackets[(0, 1, 2)] = draw(small_values)
    brackets[(4, 5, 2)] = draw(small_values)
    index = st.integers(0, 5)

    def endomorphism():
        values = draw(st.dictionaries(st.tuples(index, index), small_values, max_size=8))
        i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        values.update({(i, i): draw(small_values), (i, j): draw(small_values),
                       (j, i): draw(small_values)})
        return Endomorphism.from_values(6, 2, values)

    return ManifoldModel("two-step", 1, StructureConstants.from_entries(6, brackets),
                         endomorphism(), endomorphism(), endomorphism())


@given(two_step_models())
@settings(max_examples=15, deadline=None)
def test_horizontal_tables_match_reference_evaluators(m):
    # entry by entry on every horizontal tuple, not only at the witness
    assert _jacobi_witness(m) is None
    ws = Workspace(m)
    assert ws.horizontal(ws.dsigma).entry(0, 1) != 0
    for identity_id, reference in sorted(HORIZONTAL_REFERENCES.items()):
        clauses = registry_identity(identity_id).tables(ws)
        for idx in product(m.horizontal_indices, repeat=4):
            expected = reference(ws, tuple(ws.basis[i] for i in idx))
            assert [(name, lhs.entry(*idx), rhs.entry(*idx))
                    for name, lhs, rhs in clauses] == expected, (identity_id, idx)
        assert (table_result(ws, identity_id, samples=2)
                == frame_sweep_horizontal(ws, identity_id, samples=2)), identity_id


@st.composite
def pullback_cases(draw):
    """(table, endomorphism, slots, keep): a random sparse 4-tensor of dim
    2-4 and an endomorphism with more than one nonzero per row and per
    column, pulled back through a random set of slots on a leading range."""
    dim = draw(st.integers(2, 4))
    index = st.integers(0, dim - 1)
    values = draw(st.dictionaries(st.tuples(index, index, index, index), small_values,
                                  max_size=8))
    endo = draw(st.dictionaries(st.tuples(index, index), small_values, max_size=5))
    i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    endo.update({(i, i): draw(small_values), (i, j): draw(small_values),
                 (j, i): draw(small_values)})
    slots = tuple(sorted(draw(st.sets(st.integers(0, 3)))))
    keep = range(draw(st.integers(1, dim)))
    return (Tensor4.from_values(dim, 4, values), Endomorphism.from_values(dim, 2, endo),
            slots, keep)


@given(pullback_cases())
@settings(max_examples=60, deadline=None)
def test_pullback_matches_dense_sum(case):
    t, endo, slots, keep = case
    pulled = t.pullback(endo, slots, keep)
    assert type(pulled) is Table
    assert dict(pulled.items()) == dense_pullback(t, endo, slots, keep)


def test_horizontal_identities_sweep_without_contractions(monkeypatch):
    """With no samples, EQ-2.20, EQ-2.21 and EQ-4.1 compare stored table
    entries only: no contraction of any table (Table.contract and its
    aliases apply/value) runs, not even while the tables are built."""
    ws = Workspace(make_heisenberg_model(2))
    calls = []
    original = Table.contract

    def counted(self, *vectors):
        calls.append(type(self).__name__)
        return original(self, *vectors)

    classes = [Table]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for cls in classes:
        for name, attr in list(vars(cls).items()):
            if attr is original:
                monkeypatch.setattr(cls, name, counted)
    for identity_id in ("EQ-2.20", "EQ-2.21", "EQ-4.1"):
        assert table_result(ws, identity_id, samples=0).status is Status.PASS
    assert calls == []
    # the wrapper does see the contractions of the sample phase
    table_result(ws, "EQ-4.1", samples=1)
    assert calls


# ----- contractions on random rational vectors -----

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
sparse_rationals = st.one_of(st.just(ZERO), rationals)
vectors6 = st.lists(sparse_rationals, min_size=6, max_size=6).map(
    lambda cs: FrameVector(tuple(cs)))


@pytest.fixture(scope="module")
def workspace():
    return Workspace(build_heisenberg())


@given(vectors6, vectors6, vectors6, vectors6)
@settings(max_examples=25, deadline=None)
def test_contract_matches_dense_sum(x, y, z, w):
    t = Tensor4.from_function(6, lambda i, j, k, el: Fraction((i - j) * (k - el), el + 1)
                              if (i + k) % 3 else ZERO)
    assert t.contract(x, y, z, w) == dense_contract(t, x, y, z, w)


@given(vectors6, vectors6, vectors6, vectors6)
@settings(max_examples=25, deadline=None)
def test_workspace_contractions_match_dense_sums(workspace, x, y, z, w):
    r = workspace.curv
    assert workspace.R4(x, y, z, w) == dense_contract(r, x, y, z, w)
    assert workspace.R(x, y, z) == dense_contract3(r, x, y, z)
