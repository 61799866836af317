#!/usr/bin/env python3
"""Print one sha256 over a fixed corpus of vdwcp outputs, to show that a change keeps every bit.

    python3 scripts/output_digest.py

The corpus is the bytes and exit codes of the `pair`, `mirror`, `slopes`,
`tables` and `selftest` commands (SI and natural units, CSV and JSON) on the
atom files in atoms/ and bench/data/, and the raw float64 bits of mirror
(both plates), self-pair and mixed-pair curves on four grids for 30 seeded
random atoms (every third with magnetic lines within 0.4% of electric ones)
and for the 50-line atoms of seeds 1-3. It imports vdwcp from the src/ next
to this script, so a copy of the script in another checkout digests that
checkout. Run it before and after a change: equal digests, equal outputs.
"""
import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vdwcp import AtomModel, DiamagneticSpec, PlateKind, Transition, UnitSystem  # noqa: E402
from vdwcp.cli import main as cli_main  # noqa: E402
from vdwcp.potentials import mirror_curve, pair_curve  # noqa: E402

ATOMS = ROOT / "atoms"
DATA = ROOT / "bench" / "data"
GRIDS = (
    np.array([0.7]),
    np.geomspace(1e-2, 1e2, 5),
    np.geomspace(0.3, 3.0, 17),
    np.geomspace(1e-3, 1e3, 61),
)


def _commands() -> list[list[str]]:
    electric, para, dia = (str(ATOMS / f"{n}_unit.yaml") for n in ("electric", "paramagnetic", "diamagnetic"))
    hydrogen = str(ATOMS / "hydrogen_si.yaml")
    a, b = str(DATA / "composite_a.yaml"), str(DATA / "composite_b.yaml")
    natural = ["--units", "natural"]
    runs = []
    for fmt in ("csv", "json"):
        out = ["--format", fmt]
        runs += [
            ["pair", "--atom", a, "--atom-b", b, "--grid", "1e-3:1e3:61", *natural, *out],
            ["pair", "--atom", a, "--atom-b", a, "--grid", "1e-2:1e2:7", *natural, *out],
            ["pair", "--atom", electric, "--atom-b", dia, "--grid", "0.1:10:9", *natural, *out],
            ["pair", "--atom", hydrogen, "--atom-b", hydrogen, "--grid", "1e-10:1e-6:9", *out],
            ["mirror", "--atom", a, "--plate", "conducting", "--grid", "1e-2:1e2:40", *natural, *out],
            ["mirror", "--atom", para, "--plate", "permeable", "--grid", "0.1:10:5", *natural, *out],
            ["mirror", "--atom", hydrogen, "--plate", "conducting", "--grid", "1e-10:1e-6:9", *out],
            ["slopes", "--atom", a, "--atom-b", b, "--grid", "1e-2:1e2:21", "--channel", "ed",
             *natural, *out],
            ["slopes", "--atom", a, "--plate", "conducting", "--grid", "1e-2:1e2:21", *natural, *out],
            ["slopes", "--atom", hydrogen, "--plate", "permeable", "--grid", "1e-10:1e-6:9",
             "--channel", "d", *out],
            ["tables", *out],
            ["selftest", *out],
        ]
    runs.append(["selftest"])
    return runs


def _random_atom(seed: int) -> AtomModel:
    """1-10 lines of each kind; every third seed puts its magnetic lines within 0.4% of its electric ones."""
    rng = np.random.default_rng(seed)
    electric = np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(1, 11))))
    if seed % 3 == 0:
        magnetic = electric * (1.0 + rng.uniform(-0.004, 0.004, electric.size))
    else:
        magnetic = np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(1, 11))))

    def transitions(omegas, kind):
        return tuple(Transition(omega=float(w), dipole_sq=float(rng.uniform(0.1, 1.0)), kind=kind) for w in omegas)

    return AtomModel(
        label=f"random-{seed}",
        electric_transitions=transitions(electric, "electric"),
        magnetic_transitions=transitions(magnetic, "magnetic"),
        diamagnetic=DiamagneticSpec(direct_beta_d=-float(rng.uniform(0.1, 1.0))),
    )


def _manyline_atom(seed: int) -> AtomModel:
    """30 electric and 20 magnetic lines stratified over [0.5, 5] plus a beta_d, drawn from the seed."""
    rng = random.Random(seed)

    def transitions(count: int, kind: str):
        lo, hi = math.log(0.5), math.log(5.0)
        return tuple(
            Transition(omega=math.exp(lo + (hi - lo) * (k + rng.random()) / count),
                       dipole_sq=rng.uniform(0.2, 1.0), kind=kind)
            for k in range(count)
        )

    return AtomModel(
        label=f"manyline-{seed}",
        electric_transitions=transitions(30, "electric"),
        magnetic_transitions=transitions(20, "magnetic"),
        diamagnetic=DiamagneticSpec(direct_beta_d=-rng.uniform(0.2, 1.0)),
    )


def _curves(atoms, partners):
    for atom, partner in zip(atoms, partners):
        for grid in GRIDS:
            for plate in PlateKind:
                yield mirror_curve(atom, grid, plate, UnitSystem.NATURAL)
            yield pair_curve(atom, atom, grid, UnitSystem.NATURAL)
            if partner is not None:
                yield pair_curve(atom, partner, grid, UnitSystem.NATURAL)


def main() -> int:
    digest = hashlib.sha256()
    commands = _commands()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = cli_main([*argv, "--out", str(out)])
            digest.update(f"{argv[0]} {status}\n".encode())
            digest.update(out.read_bytes())
    random_atoms = [_random_atom(seed) for seed in range(30)]
    manyline = [_manyline_atom(seed) for seed in (1, 2, 3)]
    count = 0
    for curve in _curves(random_atoms + manyline, random_atoms[1:] + random_atoms[:1] + [None] * 3):
        digest.update(np.stack([curve.distances, *curve.values.values(), curve.total]).tobytes())
        count += 1
    print(digest.hexdigest())
    print(f"{len(commands)} command outputs, {count} curves", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
