"""The benchmark's workloads: inputs from a seed, one request, and its check.

A request is one unit of user work. The constructor takes the inputs from
bench/inputs.py, `prepare` computes the references once per process outside
any timing, `request` is the timed call into vdwcp, and `check` compares one
request's output with the references and with the first request's output.
Every workload runs in natural units, which bench/reference.py assumes.
"""
from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path

import numpy as np

import inputs
import reference
import vdwcp.asymptotics
import vdwcp.cli
import vdwcp.potentials
import vdwcp.selftest
from vdwcp import PlateKind, QuadratureSpec, UnitSystem
from vdwcp.potentials import MIRROR_CHANNELS, PAIR_CHANNELS, Channel

REL_TOL = 1e-10
# A checked value may deviate from its reference by the selftest's own margin.
MARGIN = max(1e-9, 10.0 * REL_TOL)
PAIR_LETTERS = [ch.value for ch in PAIR_CHANNELS]
SWAPPED = {"ep": "pe", "ed": "de", "pd": "dp"}


class CheckFailed(Exception):
    """A request's output is wrong."""


class Check:
    """Accumulates the worst relative deviation of one request's output."""

    def __init__(self):
        self.max_rel_err = 0.0

    def close(self, what: str, value: float, ref: float, margin: float = MARGIN) -> None:
        err = reference.rel_err(float(value), ref)
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= margin:
            raise CheckFailed(f"{what}: {value!r} deviates from reference {ref!r} by {err:.3e}")


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _strata_sample(rng: random.Random, size: int, strata: int) -> list[int]:
    """One random grid index from each of `strata` equal slices of range(size)."""
    edges = [round(k * size / strata) for k in range(strata + 1)]
    return [rng.randrange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


class PairComposite:
    """`vdwcp pair` in-process on the composite pair, CSV written to a file."""

    name = "pair_composite"
    grid_text = "1e-3:1e3:61"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.paths = inputs.COMPOSITE_FILES
        self.out = out_dir / "pair_composite.csv"
        self.grid = np.geomspace(1e-3, 1e3, 61)
        self.argv = [
            "pair", "--atom", str(self.paths[0]), "--atom-b", str(self.paths[1]),
            "--grid", self.grid_text, "--units", "natural",
            "--rel-tol", repr(REL_TOL), "--out", str(self.out),
        ]
        self.first_output = None

    def prepare(self) -> None:
        atoms = inputs.build(self.name, self.seed)
        if atoms != vdwcp.selftest._composite_pair():
            raise CheckFailed("bench/data composite atoms differ from selftest._composite_pair()")
        a, b = atoms
        beta_a, beta_b = a.diamagnetic.direct_beta_d, b.diamagnetic.direct_beta_d
        self.refs = {(i, "dd"): reference.pair_dd_closed(beta_a, beta_b, l) for i, l in enumerate(self.grid)}
        rng = random.Random(self.seed)
        for channel in PAIR_LETTERS[:-1]:
            for i in _strata_sample(rng, self.grid.size, 3):
                self.refs[(i, channel)] = reference.pair_channel(a, b, channel, self.grid[i])

    def request(self):
        self.out.unlink(missing_ok=True)
        return vdwcp.cli.main(self.argv)

    def check(self, status) -> tuple[float, int]:
        require(status == 0, f"vdwcp pair exited with {status}")
        data = self.out.read_bytes()
        if self.first_output is None:
            self.first_output = data
        require(data == self.first_output, "CSV output differs from the first request's")
        lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        header, body = rows[0], rows[1:]
        expected = ["distance"] + [f"channel:{c}" for c in PAIR_LETTERS] + ["total"]
        require(header == expected, f"unexpected CSV header {header}")
        table = np.array([[float(v) for v in row] for row in body])
        require(np.array_equal(table[:, 0], self.grid), "CSV distances differ from the grid")
        check = Check()
        for (i, channel), ref in self.refs.items():
            check.close(f"{channel} at l={self.grid[i]:.6g}", table[i, 1 + PAIR_LETTERS.index(channel)], ref)
        for row in table:
            check.close(f"total at l={row[0]:.6g}", row[-1], math.fsum(row[1:-1]))
        return check.max_rel_err, int(np.count_nonzero(table[:, 1:-1]))


class Manyline:
    """mirror_curve and a self-paired pair_curve of a seeded 50-transition atom."""

    name = "manyline"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.atom = inputs.build(self.name, seed)
        self.mirror_grid = np.geomspace(1e-2, 1e2, 40)
        self.pair_grid = np.geomspace(1e-2, 1e2, 21)
        self.first_output = None

    def prepare(self) -> None:
        atom = self.atom
        beta = atom.diamagnetic.direct_beta_d
        sign = PlateKind.CONDUCTING.sign
        self.mirror_refs = {(i, "d"): reference.mirror_d_closed(beta, z, sign) for i, z in enumerate(self.mirror_grid)}
        self.pair_refs = {(i, "dd"): reference.pair_dd_closed(beta, beta, l) for i, l in enumerate(self.pair_grid)}
        rng = random.Random(self.seed)
        # Each channel at the far end of its grid, where the deviation from
        # mpmath is largest (the retarded kernel moments), plus one seeded
        # interior point; the swapped pair channels follow by symmetry.
        for letter in ("e", "p"):
            last = self.mirror_grid.size - 1
            for i in (last, rng.randrange(last)):
                self.mirror_refs[(i, letter)] = reference.mirror_channel(atom, letter, self.mirror_grid[i], sign)
        for channel in ("ee", "ep", "ed", "pp", "pd"):
            last = self.pair_grid.size - 1
            for i in (last, rng.randrange(last)):
                self.pair_refs[(i, channel)] = reference.pair_channel(atom, atom, channel, self.pair_grid[i])

    def request(self):
        mirror = vdwcp.potentials.mirror_curve(
            self.atom, self.mirror_grid, PlateKind.CONDUCTING, UnitSystem.NATURAL,
            QuadratureSpec(rel_tol=REL_TOL),
        )
        pair = vdwcp.potentials.pair_curve(
            self.atom, self.atom, self.pair_grid, UnitSystem.NATURAL,
            QuadratureSpec(rel_tol=REL_TOL),
        )
        return mirror, pair

    def check(self, output) -> tuple[float, int]:
        mirror, pair = output
        arrays = np.concatenate([mirror.values[c] for c in MIRROR_CHANNELS] + [pair.values[c] for c in PAIR_CHANNELS])
        if self.first_output is None:
            self.first_output = arrays
        require(np.array_equal(arrays, self.first_output), "curve values differ from the first request's")
        for a, b in SWAPPED.items():
            require(
                np.array_equal(pair.values[Channel(a)], pair.values[Channel(b)]),
                f"self-pair channels {a} and {b} are not bit-identical",
            )
        check = Check()
        for (i, letter), ref in self.mirror_refs.items():
            check.close(f"mirror {letter} at z={self.mirror_grid[i]:.6g}", mirror.values[Channel(letter)][i], ref)
        for (i, channel), ref in self.pair_refs.items():
            check.close(f"pair {channel} at l={self.pair_grid[i]:.6g}", pair.values[Channel(channel)][i], ref)
        return check.max_rel_err, int(np.count_nonzero(arrays))


class Verify:
    """verify_tables() then run_selftest(); both must pass in full."""

    name = "verify"
    cells = 23
    checks = 12

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.first_output = None

    def prepare(self) -> None:
        # Reference log-log slope of every table cell: the same central
        # difference the table uses, taken on 30-digit channel values.
        fixtures = vdwcp.asymptotics.default_fixtures()
        self.ref_slopes = []
        for entry in vdwcp.asymptotics.ALL_TABLE_ENTRIES:
            center = vdwcp.asymptotics.REGIME_DEPTH[entry.regime]
            grid = center * 1.02 ** np.arange(-2, 3)
            lo, hi = float(grid[1]), float(grid[3])
            letters = entry.channel.value
            if entry.geometry == "mirror":
                atom = fixtures[letters]
                sign = PlateKind.CONDUCTING.sign
                u_lo = reference.mirror_channel(atom, letters, lo, sign)
                u_hi = reference.mirror_channel(atom, letters, hi, sign)
            else:
                a, b = fixtures[letters[0]], fixtures[letters[1]]
                u_lo = reference.pair_channel(a, b, letters, lo)
                u_hi = reference.pair_channel(a, b, letters, hi)
            slope = math.log(abs(u_hi) / abs(u_lo)) / math.log(hi / lo)
            # Values within MARGIN of their references move ln U by at most
            # about MARGIN each, so the slope by 2*MARGIN/ln(hi/lo).
            self.ref_slopes.append((slope, 2.0 * MARGIN / (math.log(hi / lo) * abs(slope))))

    def request(self):
        tables = vdwcp.asymptotics.verify_tables(rel_tol=REL_TOL)
        selftest = vdwcp.selftest.run_selftest(rel_tol=REL_TOL)
        return tables, selftest

    def check(self, output) -> tuple[float, None]:
        tables, selftest = output
        reports = ([cell.as_dict() for cell in tables.cells], selftest.as_dict())
        if self.first_output is None:
            self.first_output = reports
        require(reports == self.first_output, "reports differ from the first request's")
        require(tables.all_passed and len(tables.cells) == self.cells, "verify_tables did not pass all 23 cells")
        require(selftest.all_passed and len(selftest.checks) == self.checks, "run_selftest did not pass all 12 checks")
        check = Check()
        for cell, (ref, margin) in zip(tables.cells, self.ref_slopes):
            check.close(f"slope of {cell.entry.channel.value} {cell.entry.regime}", cell.measured_slope, ref, margin)
        # The battery delivers reports, not channel values; the benchmark
        # counts the values it computes with a traced request instead.
        return check.max_rel_err, None


WORKLOADS = {w.name: w for w in (PairComposite, Manyline, Verify)}
