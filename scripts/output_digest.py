#!/usr/bin/env python3
"""Print one sha256 over a fixed corpus of vdwcp outputs, to show that a change keeps every bit.

    python3 scripts/output_digest.py 2> parts.txt

The corpus is the bytes and exit codes of the `pair`, `mirror`, `slopes`,
`tables` and `selftest` commands (SI and natural units, CSV and JSON) on the
atom files in atoms/ and bench/data/, and the raw float64 bits of mirror
(both plates), self-pair and mixed-pair curves on four grids for 30 seeded
random atoms (every third with magnetic lines within 0.4% of electric ones)
and for the benchmark's 50-line atoms of seeds 1-3. It imports vdwcp from
the src/ next to this script and those atoms from bench/inputs.py, so a copy
of the script in another checkout digests that checkout. Run it before and after a change: equal digests, equal outputs.

On stderr it prints one sha256 per part, so that `diff` of two runs' stderr
names the outputs a change moved: one per command output (labelled by its
unit system and command line, atom paths relative to the checkout) and one
per curve family and channel, where a family is a geometry (mirror at each
plate, self-pair, mixed pair) in one unit system. The SI families rerun the
corpus with every frequency scaled by 1e16 rad/s, electric and magnetic
dipoles by 1e-58 C^2 m^2 and 1e-46 J^2/T^2, beta_d by 1e-29 J/T^2 and the
grids by 1e-8 m, so that 2 omega d / c spans the same range; they are not
part of the stdout digest. Nor are the closed forms' parts, one per unit
system, channel and regime of vdw_asymptote over every corpus atom with
itself and with its partner at every grid distance (a channel without a
closed form hashes a marker), and one per unit system and plate of
cp_mirror_diamagnetic_closed with each atom's beta_d there. Nor are the
oracle quadratures' parts, one per rel_tol in ORACLE_TOLS: the value, error
estimate and evaluation count of every integrate_semiinf call in the
selftest's four kernel moments, its 26 q-integral points and
vdw_pair_total_direct on its composite pair at l = 0.5, 1 and 2.2 (natural
units, and SI with the corpus scales), and the value each of those returns;
a ConvergenceError hashes a marker and its best estimate.

Last, it prints one line per unit system and curve family with the number
of _moments calls its curves made, the elements they took and the largest
call, so that a change to the engine's call pattern and working set shows
next to the bits it kept. These counters are not part of any digest.
"""
import contextlib
import dataclasses
import hashlib
import io
import struct
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))

from vdwcp import AtomModel, DiamagneticSpec, PlateKind, Transition, UnitSystem  # noqa: E402
from vdwcp import green, potentials, quad, selftest  # noqa: E402
from vdwcp.cli import main as cli_main  # noqa: E402
from vdwcp.potentials import (  # noqa: E402
    PAIR_CHANNELS,
    Regime,
    UnsupportedAsymptoteError,
    cp_mirror_diamagnetic_closed,
    mirror_curve,
    pair_curve,
    vdw_asymptote,
)
from vdwcp.response import diamagnetisability  # noqa: E402
from vdwcp.units import constants_for  # noqa: E402
from inputs import DATA, manyline_atom  # noqa: E402  (bench/inputs.py)

ATOMS = ROOT / "atoms"
GRIDS = (
    np.array([0.7]),
    np.geomspace(1e-2, 1e2, 5),
    np.geomspace(0.3, 3.0, 17),
    np.geomspace(1e-3, 1e3, 61),
)


# The SI corpus: (electric dipole_sq, magnetic dipole_sq, beta_d, frequency, distance) scales.
SI_SCALES = (1e-58, 1e-46, 1e-29, 1e16, 1e-8)
ORACLE_TOLS = (1e-13, 1e-10, 1e-6)


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


def _counted(curves, units: str, counters: dict):
    """curves, adding each curve's _moments calls, elements and largest call to counters[f"{units} {family}"]."""
    sizes = []
    real = potentials._moments

    def counting(a):
        sizes.append(a.size)
        return real(a)

    with mock.patch.object(potentials, "_moments", counting):
        for family, curve in curves:
            calls, elements, largest = counters.get(f"{units} {family}", (0, 0, 0))
            counters[f"{units} {family}"] = calls + len(sizes), elements + sum(sizes), max([largest, *sizes])
            sizes.clear()
            yield family, curve


def _closed_forms(atoms, partners, units, scale):
    """(part, bytes) of every closed-form value over the corpus, in the grids' distances."""
    consts, distances = constants_for(units), (np.concatenate(GRIDS) * scale).tolist()
    for atom, partner in zip(atoms, partners):
        beta_d = diamagnetisability(atom.diamagnetic)
        for plate in PlateKind:
            for z in distances:
                value = cp_mirror_diamagnetic_closed(beta_d, z, plate, consts)
                yield f"mirror-{plate.value} closed d", struct.pack("<d", value)
        for other in (atom, partner) if partner is not None else (atom,):
            for channel in PAIR_CHANNELS:
                for regime in Regime:
                    for l in distances:
                        try:
                            value = struct.pack("<d", vdw_asymptote(channel, atom, other, l, regime, consts))
                        except UnsupportedAsymptoteError:
                            value = b"unsupported"
                        yield f"asymptote {channel.value} {regime.value}", value


def _quadrature(result) -> bytes:
    return struct.pack("<ddq", result.value, result.error_estimate, result.evaluations)


def _oracles(rel_tol: float) -> list[bytes]:
    """The bytes of every oracle quadrature at rel_tol and of the values they give, in call order."""
    spec, out = quad.QuadratureSpec(rel_tol=rel_tol), []

    def recording(f, *args, **kwargs):
        result = quad.integrate_semiinf(f, *args, **kwargs)
        out.append(_quadrature(result))
        return result

    def value(compute):
        try:
            out.append(struct.pack("<d", compute()))
        except quad.ConvergenceError as error:
            out.append(b"ConvergenceError" + _quadrature(error.best))

    a, b = selftest._composite_pair()
    with contextlib.ExitStack() as patches:
        for module in (selftest, green, potentials):
            patches.enter_context(mock.patch.object(module, "integrate_semiinf", recording))
        out += [struct.pack("<d", moment) for moment in selftest._kernel_moments(spec)]
        for xi in np.geomspace(0.01, 10.0, 13).tolist():
            for plate in PlateKind:
                value(lambda: green.mirror_gmm_trace_via_q_integral(1.0, xi, plate, 1.0, spec))
        for units, scale, pair in (
            (UnitSystem.NATURAL, 1.0, (a, b)),
            (UnitSystem.SI, SI_SCALES[-1], (_si_atom(a), _si_atom(b))),
        ):
            for l in (0.5, 1.0, 2.2):
                value(lambda: potentials.vdw_pair_total_direct(*pair, l * scale, constants_for(units), spec))
    return out


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
    manyline = [manyline_atom(seed) for seed in (1, 2, 3)]
    partners = random_atoms[1:] + random_atoms[:1] + [None] * 3
    count, counters = 0, {}
    for family, curve in _counted(_curves(random_atoms + manyline, partners), "natural", counters):
        digest.update(np.stack([curve.distances, *curve.values.values(), curve.total]).tobytes())
        count += 1
        for name, values in [*((ch.value, v) for ch, v in curve.values.items()), ("total", curve.total)]:
            part(f"natural {family} {name}").update(values.tobytes())
    si_atoms = [_si_atom(atom) for atom in random_atoms + manyline]
    si_partners = si_atoms[1:30] + si_atoms[:1] + [None] * 3
    si_curves = _curves(si_atoms, si_partners, UnitSystem.SI, SI_SCALES[-1])
    for family, curve in _counted(si_curves, "si", counters):
        for name, values in [*((ch.value, v) for ch, v in curve.values.items()), ("total", curve.total)]:
            part(f"si {family} {name}").update(values.tobytes())
    closed = 0
    for units, scale, atoms, others in (
        (UnitSystem.NATURAL, 1.0, random_atoms + manyline, partners),
        (UnitSystem.SI, SI_SCALES[-1], si_atoms, si_partners),
    ):
        for name, value in _closed_forms(atoms, others, units, scale):
            part(f"{units.value} {name}").update(value)
            closed += 1
    oracles = 0
    for rel_tol in ORACLE_TOLS:
        for value in _oracles(rel_tol):
            part(f"oracle quadratures rel_tol {rel_tol:g}").update(value)
            oracles += 1
    print(digest.hexdigest())
    for name, sink in parts.items():
        print(f"{sink.hexdigest()}  {name}", file=sys.stderr)
    print(f"{len(commands)} command outputs, {count} curves in natural units and as many in SI", file=sys.stderr)
    print(f"{closed} closed-form values in natural units and SI", file=sys.stderr)
    print(f"{oracles} oracle quadratures and values", file=sys.stderr)
    for name, (calls, elements, largest) in counters.items():
        print(f"{calls} _moments calls, {elements} elements, largest {largest}  {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
