"""Benchmark inputs: model text generated from a seed, and the three workloads.

The program only ever sees the generated text.  The generator keeps the
model data (brackets and J) next to the text so that the correctness gate
can recompute diff values by its own route.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_CCMX = ROOT / "src" / "ccmv" / "data" / "iwasawa_expected.ccmx"

PERTURBED_BATCH = 12


@dataclass(frozen=True)
class ModelSpec:
    """A frame model as data: entries keyed (i, j, k) for brackets, (i, k) for tensors."""

    name: str
    n: int
    brackets: dict[tuple[int, int, int], Fraction]
    tensors: dict[str, dict[tuple[int, int], Fraction]]

    @property
    def dim(self) -> int:
        return 4 * self.n + 2

    def text(self) -> str:
        """The model as `.ccm` text, in the loader's format."""
        lines = ["version 1", f"name {self.name}", f"n {self.n}"]
        lines += [f"bracket {i} {j} {k} {_rational(v)}"
                  for (i, j, k), v in self.brackets.items() if v]
        for kind in ("G", "H", "J"):
            lines += [f"{kind} {i} {k} {_rational(v)}"
                      for (i, k), v in self.tensors[kind].items()]
        return "\n".join(lines) + "\n"


def _rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def heisenberg_spec(n: int) -> ModelSpec:
    """Block-diagonal complex Heisenberg model: n copies of the 4-dim
    horizontal block of the bundled model, all bracketing into one shared
    vertical pair U = e_4n, V = e_4n+1.  n=1 is the bundled model."""
    if n < 1:
        raise ValueError("n must be positive")
    u, v = 4 * n, 4 * n + 1
    brackets: dict[tuple[int, int, int], Fraction] = {}
    tensors: dict[str, dict[tuple[int, int], Fraction]] = {"G": {}, "H": {}, "J": {}}
    for block in range(n):
        o = 4 * block
        brackets.update({(o, o + 2, u): Fraction(-2), (o, o + 3, v): Fraction(-2),
                         (o + 1, o + 2, v): Fraction(-2), (o + 1, o + 3, u): Fraction(2)})
        tensors["G"].update({(o, o + 2): Fraction(-1), (o + 1, o + 3): Fraction(1),
                             (o + 2, o): Fraction(1), (o + 3, o + 1): Fraction(-1)})
        tensors["H"].update({(o, o + 3): Fraction(-1), (o + 1, o + 2): Fraction(-1),
                             (o + 2, o + 1): Fraction(1), (o + 3, o): Fraction(1)})
        tensors["J"].update({(o, o + 1): Fraction(-1), (o + 1, o): Fraction(1),
                             (o + 2, o + 3): Fraction(-1), (o + 3, o + 2): Fraction(1)})
    tensors["J"].update({(u, v): Fraction(-1), (v, u): Fraction(1)})
    name = "heisenberg" if n == 1 else f"heisenberg-n{n}"
    return ModelSpec(name, n, brackets, tensors)


def perturbed_spec(seed: int, index: int) -> ModelSpec:
    """Random two-step nilpotent perturbation of the bundled model.

    Same recipe as the test suite's nilpotent models: every horizontal
    pair brackets into U and V with a p/q coefficient, p in [-3, 3] and
    q in [1, 3]; vertical directions are central, so Jacobi holds.
    """
    rng = random.Random(f"perturbed:{seed}:{index}")
    base = heisenberg_spec(1)
    brackets = {}
    for i in range(4):
        for j in range(i + 1, 4):
            for k in (4, 5):
                brackets[(i, j, k)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return ModelSpec(f"perturbed-{seed}-{index}", 1, brackets, base.tensors)


def vertical_map(dim: int) -> dict[int, int]:
    """Frame renaming from the bundled dim-6 model onto block 0 of a model of
    dimension `dim`: horizontal 0..3 stay, U and V move to the last two."""
    return {4: dim - 2, 5: dim - 1}


def remap_expected(source: str, mapping: dict[int, int]) -> str:
    """Rewrite every frame index of an expected-values document.

    Used with `vertical_map` to place the published dim-6 table on block 0
    of a larger model.
    """
    out = []
    for raw in source.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            out.append(raw)
            continue
        kind, rest = line[0], line[1:]
        eq = rest.index("=")
        keys = [str(mapping.get(int(t), int(t))) for t in rest[:eq]]
        value = rest[eq + 1]
        if kind in ("R", "conn") and value != "0":
            parts = []
            for part in value.split(","):
                coeff, _, idx = part.partition(":")
                parts.append(f"{coeff}:{mapping.get(int(idx), int(idx))}")
            value = ",".join(parts)
        out.append(" ".join([kind, *keys, "=", value]))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Case:
    """One model of a workload: the inputs the program sees, plus its data."""

    spec: ModelSpec | None   # None for the bundled model text
    text: str
    expected: str            # `.ccmx` text fed to the diff


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    min_rounds: int          # a run covers every case at least once


WORKLOAD_NAMES = ("iwasawa", "heis-n2", "perturbed")


def make_workload(name: str, seed: int) -> Workload:
    """The inputs of one workload; the same seed gives the same inputs."""
    published = EXPECTED_CCMX.read_text(encoding="utf-8")
    if name == "iwasawa":
        from ccmv import HEISENBERG_CCM
        return Workload(name, (Case(None, HEISENBERG_CCM, published),), 3)
    if name == "heis-n2":
        spec = heisenberg_spec(2)
        expected = remap_expected(published, vertical_map(spec.dim))
        return Workload(name, (Case(spec, spec.text(), expected),), 1)
    if name == "perturbed":
        specs = [perturbed_spec(seed, k) for k in range(PERTURBED_BATCH)]
        cases = tuple(Case(s, s.text(), published) for s in specs)
        return Workload(name, cases, PERTURBED_BATCH)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
