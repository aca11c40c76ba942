"""Shared fixtures.

The full identity suite on the bundled model is expensive relative to
the rest of the tests, so it is computed once per session and shared.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import ccmv
from ccmv import (
    ManifoldModel,
    Table,
    build_abelian,
    build_heisenberg,
    format_scalar,
    levi_civita,
    load_model,
    riemann,
    run_suite,
)
from ccmv.model import structure_constants

# the frozen reports, read from the checkout whatever the working directory
ERRATA = Path(__file__).resolve().parent.parent / "errata"


@pytest.fixture(scope="session")
def heisenberg() -> ManifoldModel:
    return build_heisenberg()


@pytest.fixture(scope="session")
def abelian() -> ManifoldModel:
    return build_abelian()


@pytest.fixture(scope="session")
def heis_conn(heisenberg):
    return levi_civita(heisenberg)


@pytest.fixture(scope="session")
def heis_curv(heisenberg, heis_conn):
    return riemann(heisenberg, heis_conn)


@pytest.fixture(scope="session")
def heis_suite(heisenberg):
    return run_suite(heisenberg)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the source tree of the ccmv under test
    first on its path, capturing stdout and stderr as text."""
    src = str(Path(ccmv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def random_rational_vector(rng: random.Random, dim: int) -> Table:
    """Small deterministic rational vector, a rank-1 table: each coefficient
    p/q with p in [-3, 3] and q in [1, 3], drawn in frame order."""
    return Table.from_values(dim, 1, {(i,): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                      for i in range(dim)})


def vector(coefficients) -> Table:
    """The rank-1 table of a coefficient list over the frame."""
    return Table.from_values(len(coefficients), 1, {(i,): Fraction(c)
                                                    for i, c in enumerate(coefficients)})


def basis(dim: int, index: int) -> Table:
    """The frame vector e_index as a rank-1 table."""
    return Table.from_values(dim, 1, {(index,): 1})


def tensor4_from_function(dim: int, fn) -> Table:
    """The rank-4 table of fn(i, j, k, el) over every frame tuple; zeros
    are dropped."""
    return Table.from_values(dim, 4, {
        idx: value for idx in product(range(dim), repeat=4)
        if (value := Fraction(fn(*idx)))})


def horizontal_projection(m: ManifoldModel, x: Table) -> Table:
    """X - u(X) U - v(X) V: the vector with its two vertical coefficients zeroed."""
    return x.restrict(m.horizontal_indices)


def make_nilpotent_model(seed: int) -> ManifoldModel:
    """Random two-step nilpotent perturbation of the bundled model.

    Horizontal pairs bracket into the vertical span only, and vertical
    directions are central, so the Jacobi identity holds by construction;
    callers still assert it before use.
    """
    rng = random.Random(f"nilpotent:{seed}")
    base = build_heisenberg()
    entries = {}
    for i in range(4):
        for j in range(i + 1, 4):
            for k in (4, 5):
                value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if value:
                    entries[(i, j, k)] = value
    constants = structure_constants(base.dim, entries)
    return ManifoldModel(name=f"nilpotent-{seed}", n=base.n,
                         constants=constants, G=base.G, H=base.H, J=base.J)


def make_heisenberg_model(n: int) -> ManifoldModel:
    """Block-diagonal complex Heisenberg model of dimension 4n + 2.

    n copies of the bundled model's 4-dim horizontal block, every block
    bracketing into one shared vertical pair U = e_4n, V = e_4n+1; n=1 is
    the bundled model.
    """
    u, v = 4 * n, 4 * n + 1
    lines = ["version 1", f"name heisenberg-n{n}", f"n {n}"]
    for o in range(0, 4 * n, 4):
        lines += [f"bracket {o} {o + 2} {u} -2", f"bracket {o} {o + 3} {v} -2",
                  f"bracket {o + 1} {o + 2} {v} -2", f"bracket {o + 1} {o + 3} {u} 2",
                  f"G {o} {o + 2} -1", f"G {o + 1} {o + 3} 1",
                  f"G {o + 2} {o} 1", f"G {o + 3} {o + 1} -1",
                  f"H {o} {o + 3} -1", f"H {o + 1} {o + 2} -1",
                  f"H {o + 2} {o + 1} 1", f"H {o + 3} {o} 1",
                  f"J {o} {o + 1} -1", f"J {o + 1} {o} 1",
                  f"J {o + 2} {o + 3} -1", f"J {o + 3} {o + 2} 1"]
    lines += [f"J {u} {v} -1", f"J {v} {u} 1"]
    return load_model("\n".join(lines) + "\n")


def make_two_step_model() -> ManifoldModel:
    """A fixed model drawn from the `two_step_models` recipe in
    test_kernels.py, with [U, V] != 0.

    The brackets map the span of A = {0, 1, U, V} into Z = {2, 3}, so the
    Jacobi identity holds.  [U, V] and [e_0, e_1] both have an e_2
    component, so dsigma(U, V) and dsigma(e_0, e_1) are nonzero and every
    dsigma(U, V) term of the registry counts.  The values have
    denominators 2, 3 and 5, so no table is integral.  G, H and J are the
    bundled model's with one extra coefficient each: one input then has two
    image coefficients and one output is reached from two inputs.
    """
    base = build_heisenberg()
    brackets = {(0, 1, 2): Fraction(1, 2), (0, 1, 3): Fraction(-2, 3),
                (0, 4, 3): Fraction(-1, 2), (1, 5, 2): Fraction(2, 5),
                (4, 5, 2): Fraction(3, 5), (4, 5, 3): Fraction(1, 3)}

    def perturbed(tensor, extra):
        values = dict(tensor.items())
        values.update(extra)
        return Table.from_values(base.dim, 2, values)

    return ManifoldModel(name="two-step", n=1,
                         constants=structure_constants(base.dim, brackets),
                         G=perturbed(base.G, {(0, 3): Fraction(1, 2)}),
                         H=perturbed(base.H, {(1, 3): Fraction(-2, 3)}),
                         J=perturbed(base.J, {(2, 0): Fraction(3, 5)}))


def cayley_rotation(h: int, rng: random.Random) -> list[list[Fraction]]:
    """(I - S)(I + S)^-1 for a random skew h x h matrix S with entries p/q,
    |p| <= 2 and 1 <= q <= 3, drawn above the diagonal in row order: a
    rational orthogonal matrix.  I + S is invertible because S is skew;
    Gauss-Jordan elimination solves (I + S) Q = I - S, and the two factors
    commute."""
    s = [[Fraction(0)] * h for _ in range(h)]
    for i in range(h):
        for j in range(i + 1, h):
            s[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            s[j][i] = -s[i][j]
    rows = [[(i == j) + s[i][j] for j in range(h)] + [(i == j) - s[i][j] for j in range(h)]
            for i in range(h)]
    for c in range(h):
        pivot = next(r for r in range(c, h) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(h):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[h:] for row in rows]


def rotate_model(m: ManifoldModel, seed: int = 0) -> ManifoldModel:
    """The model in the frame f_a = sum_i Q[i][a] e_i: the horizontal block
    turned by the Cayley transform Q of `cayley_rotation`, seeded, with U
    and V fixed.  The brackets, G, H and J are read in the new frame, each
    slot pulled back through the rotation.  Q is orthogonal, so the new
    frame is orthonormal too, and every identity keeps its status."""
    h = 4 * m.n
    q = cayley_rotation(h, random.Random(f"cayley:{seed}"))
    turn = {(a, i): q[i][a] for a in range(h) for i in range(h) if q[i][a]}
    turn.update({(v, v): Fraction(1) for v in range(h, m.dim)})
    turn = Table.from_values(m.dim, 2, turn)
    every = range(m.dim)
    return ManifoldModel(f"{m.name}-rotated", m.n, m.constants.pullback(turn, range(3), every),
                         *(t.pullback(turn, (0, 1), every) for t in (m.G, m.H, m.J)))


def model_source(m: ManifoldModel) -> str:
    """The model as a model document that `load_model` reads back."""
    d = m.dim
    c = m.constants.entry
    lines = ["version 1", f"name {m.name}", f"n {m.n}"]
    lines += [f"bracket {i} {j} {k} {format_scalar(c(i, j, k))}"
              for i, j, k in product(range(d), repeat=3) if i < j and c(i, j, k)]
    for label, tensor in (("G", m.G), ("H", m.H), ("J", m.J)):
        lines += [f"{label} {i} {k} {format_scalar(tensor.entry(i, k))}"
                  for i, k in product(range(d), repeat=2) if tensor.entry(i, k)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def heis_path(tmp_path_factory) -> str:
    """A model file on disk for command-line tests."""
    from ccmv import HEISENBERG_CCM
    path = tmp_path_factory.mktemp("models") / "heisenberg.ccm"
    path.write_text(HEISENBERG_CCM, encoding="utf-8")
    return str(path)
