"""Workload inputs, made from the seed; set-up time covers importing this module and `build`.

Importing this module imports vdwcp (and with it numpy and PyYAML) and
nothing the benchmark needs only for checking, such as mpmath.
"""
from __future__ import annotations

import math
import random
from pathlib import Path

import program  # noqa: F401  (vdwcp from this checkout)
from vdwcp import AtomModel, DiamagneticSpec, Transition, load_atom_file

DATA = Path(__file__).resolve().parent / "data"
# The selftest's composite pair as atom files; bench/check_bench.py checks
# that parsing them gives selftest._composite_pair() exactly.
COMPOSITE_FILES = (DATA / "composite_a.yaml", DATA / "composite_b.yaml")


def manyline_atom(seed: int) -> AtomModel:
    """30 electric and 20 magnetic transitions plus a beta_d, drawn from the seed.

    Frequencies are stratified over [0.5, 5] on a log scale and dipole weights
    drawn from [0.2, 1], so every seed spans the same spectral range and the
    quadrature effort barely depends on the seed.
    """
    rng = random.Random(seed)

    def transitions(count: int, kind: str):
        lo, hi = math.log(0.5), math.log(5.0)
        return tuple(
            Transition(
                omega=math.exp(lo + (hi - lo) * (k + rng.random()) / count),
                dipole_sq=rng.uniform(0.2, 1.0),
                kind=kind,
            )
            for k in range(count)
        )

    return AtomModel(
        label=f"manyline-{seed}",
        electric_transitions=transitions(30, "electric"),
        magnetic_transitions=transitions(20, "magnetic"),
        diamagnetic=DiamagneticSpec(direct_beta_d=-rng.uniform(0.2, 1.0)),
    )


def build(workload: str, seed: int):
    """The inputs a user of `workload` would build before the first request."""
    if workload == "pair_composite":
        return tuple(load_atom_file(path) for path in COMPOSITE_FILES)
    if workload == "manyline":
        return manyline_atom(seed)
    if workload == "verify":
        return None  # the battery builds its own fixtures
    raise ValueError(f"unknown workload {workload!r}")
