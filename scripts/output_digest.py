#!/usr/bin/env python3
"""Print one sha256 over a fixed corpus of vdwcp outputs, to show that a change keeps every bit.

    python3 scripts/output_digest.py 2> parts.txt

The corpus is the bytes and exit codes of the `pair`, `mirror`, `slopes`,
`tables` and `selftest` commands (SI and natural units, CSV and JSON) on the
atom files in atoms/ and bench/data/, and the raw float64 bits of mirror
(both plates), self-pair and mixed-pair curves on four grids for 30 seeded
random atoms (every third with magnetic lines within 0.4% of electric ones)
and for the 50-line atoms of seeds 1-3. It imports vdwcp from the src/ next
to this script, so a copy of the script in another checkout digests that
checkout. Run it before and after a change: equal digests, equal outputs.

On stderr it prints one sha256 per part, so that `diff` of two runs' stderr
names the outputs a change moved: one per command output (labelled by its
unit system and command line, atom paths relative to the checkout) and one
per curve family and channel, where a family is a geometry (mirror at each
plate, self-pair, mixed pair) in one unit system. The SI families rerun the
corpus with every frequency scaled by 1e16 rad/s, electric and magnetic
dipoles by 1e-58 C^2 m^2 and 1e-46 J^2/T^2, beta_d by 1e-29 J/T^2 and the
grids by 1e-8 m, so that 2 omega d / c spans the same range; they are not
part of the stdout digest.
"""
import contextlib
import dataclasses
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


# The SI corpus: (electric dipole_sq, magnetic dipole_sq, beta_d, frequency, distance) scales.
SI_SCALES = (1e-58, 1e-46, 1e-29, 1e16, 1e-8)


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


def _si_atom(atom: AtomModel) -> AtomModel:
    """The atom with SI_SCALES applied to its frequencies, dipoles and beta_d."""
    electric, magnetic, beta_d, frequency, _ = SI_SCALES

    def scaled(transitions, dipole):
        return tuple(
            dataclasses.replace(t, omega=t.omega * frequency, dipole_sq=t.dipole_sq * dipole) for t in transitions
        )

    return AtomModel(
        label=atom.label,
        electric_transitions=scaled(atom.electric_transitions, electric),
        magnetic_transitions=scaled(atom.magnetic_transitions, magnetic),
        diamagnetic=DiamagneticSpec(direct_beta_d=atom.diamagnetic.direct_beta_d * beta_d),
    )


def _curves(atoms, partners, units=UnitSystem.NATURAL, scale=1.0):
    """(family, curve) over the corpus; a family is a geometry."""
    for atom, partner in zip(atoms, partners):
        for grid in GRIDS:
            grid = grid * scale
            for plate in PlateKind:
                yield f"mirror-{plate.value}", mirror_curve(atom, grid, plate, units)
            yield "self-pair", pair_curve(atom, atom, grid, units)
            if partner is not None:
                yield "mixed-pair", pair_curve(atom, partner, grid, units)


def _label(argv: list[str]) -> str:
    """The command line with atom paths relative to the checkout, and its unit system."""
    words = [str(Path(word).relative_to(ROOT)) if word.startswith(str(ROOT)) else word for word in argv]
    hydrogen = any(word.endswith("hydrogen_si.yaml") for word in words)
    return f"{'si' if hydrogen else 'natural'} command {' '.join(words)}"


def main() -> int:
    digest, parts = hashlib.sha256(), {}

    def part(name: str):
        return parts.setdefault(name, hashlib.sha256())

    commands = _commands()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = cli_main([*argv, "--out", str(out)])
            for sink in (digest, part(_label(argv))):
                sink.update(f"{argv[0]} {status}\n".encode())
                sink.update(out.read_bytes())
    random_atoms = [_random_atom(seed) for seed in range(30)]
    manyline = [_manyline_atom(seed) for seed in (1, 2, 3)]
    partners = random_atoms[1:] + random_atoms[:1] + [None] * 3
    count = 0
    for family, curve in _curves(random_atoms + manyline, partners):
        digest.update(np.stack([curve.distances, *curve.values.values(), curve.total]).tobytes())
        count += 1
        for name, values in [*((ch.value, v) for ch, v in curve.values.items()), ("total", curve.total)]:
            part(f"natural {family} {name}").update(values.tobytes())
    si_atoms = [_si_atom(atom) for atom in random_atoms + manyline]
    si_partners = si_atoms[1:30] + si_atoms[:1] + [None] * 3
    for family, curve in _curves(si_atoms, si_partners, UnitSystem.SI, SI_SCALES[-1]):
        for name, values in [*((ch.value, v) for ch, v in curve.values.items()), ("total", curve.total)]:
            part(f"si {family} {name}").update(values.tobytes())
    print(digest.hexdigest())
    for name, sink in parts.items():
        print(f"{sink.hexdigest()}  {name}", file=sys.stderr)
    print(f"{len(commands)} command outputs, {count} curves in natural units and as many in SI", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
