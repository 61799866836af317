"""Command-line behaviour: formats, determinism, exit codes."""
import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vdwcp.cli
from vdwcp.cli import main
from vdwcp.quad import ConvergenceError, QuadratureResult
from vdwcp.selftest import run_selftest

ATOMS = Path(__file__).resolve().parents[1] / "atoms"
ELEC = str(ATOMS / "electric_unit.yaml")
PARA = str(ATOMS / "paramagnetic_unit.yaml")
DIA = str(ATOMS / "diamagnetic_unit.yaml")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    """Split a CSV document into its metadata dict and data rows."""
    meta, data_lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            data_lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    return meta, rows[0], rows[1:]


def test_mirror_csv_shape_and_metadata(capsys):
    code, out, err = _run(
        capsys, "mirror", "--atom", DIA, "--plate", "conducting",
        "--grid", "0.5:4:7", "--units", "natural",
    )
    assert code == 0 and err == ""
    meta, header, rows = _parse_csv(out)
    assert header == ["distance", "channel:e", "channel:p", "channel:d", "total"]
    assert meta["engine"] == "vdwcp 0.1.0"
    assert meta["plate"] == "conducting"
    assert meta["units"] == "natural"
    assert len(rows) == 7
    d_col = np.array([float(r[3]) for r in rows])
    assert np.all(d_col < 0.0)
    assert np.all(np.diff(d_col) > 0.0)  # attraction weakens with distance
    # pure z^-4 law, visible directly in the emitted numbers
    z = np.array([float(r[0]) for r in rows])
    slopes = np.diff(np.log(-d_col)) / np.diff(np.log(z))
    assert np.max(np.abs(slopes + 4.0)) <= 1e-6


def test_mirror_plate_swap_negates_every_channel(capsys):
    base = ["mirror", "--atom", DIA, "--grid", "0.5:4:5", "--units", "natural"]
    _, out_cond, _ = _run(capsys, *base, "--plate", "conducting")
    _, out_perm, _ = _run(capsys, *base, "--plate", "permeable")
    _, _, rows_cond = _parse_csv(out_cond)
    _, _, rows_perm = _parse_csv(out_perm)
    for rc, rp in zip(rows_cond, rows_perm):
        assert rc[0] == rp[0]
        for a, b in zip(rc[1:], rp[1:]):
            assert float(a) == -float(b)


def test_pair_csv_matches_closed_form_and_roundtrips(capsys):
    code, out, _ = _run(
        capsys, "pair", "--atom", DIA, "--atom-b", DIA,
        "--grid", "0.1:100:20", "--units", "natural",
    )
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header[-2:] == ["channel:dd", "total"]
    from vdwcp.units import UnitSystem, constants_for
    consts = constants_for(UnitSystem.NATURAL)
    coeff = 23.0 * consts.hbar * consts.mu0**2 * consts.c / (64.0 * np.pi**3)
    for row in rows:
        distance = float(row[0])
        value = float(row[-1])
        expected = -coeff / distance**7
        assert abs(value - expected) <= 1e-9 * abs(expected)
        # 17 significant digits reproduce the float exactly
        assert float(format(value, ".17g")) == value


def test_pair_atom_order_is_irrelevant_to_the_byte(capsys):
    grid = "0.3:30:9"
    _, out_ab, _ = _run(
        capsys, "pair", "--atom", ELEC, "--atom-b", PARA,
        "--grid", grid, "--units", "natural",
    )
    _, out_ba, _ = _run(
        capsys, "pair", "--atom", PARA, "--atom-b", ELEC,
        "--grid", grid, "--units", "natural",
    )
    _, header_ab, rows_ab = _parse_csv(out_ab)
    _, header_ba, rows_ba = _parse_csv(out_ba)
    ep, pe = header_ab.index("channel:ep"), header_ba.index("channel:pe")
    total = header_ab.index("total")
    for ra, rb in zip(rows_ab, rows_ba):
        assert ra[ep] == rb[pe]
        assert ra[total] == rb[total]


def test_slopes_deep_retarded_pair(capsys):
    code, out, _ = _run(
        capsys, "slopes", "--atom", DIA, "--atom-b", DIA,
        "--grid", "400:2500:7", "--units", "natural", "--channel", "dd",
    )
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header == ["distance", "slope", "sign"]
    for row in rows:
        assert abs(float(row[1]) + 7.0) <= 1e-6
        assert row[2] == "-1"


@pytest.mark.parametrize(
    "grid, power",
    [("5e-4:2e-3:7", -5.0), ("5e2:2e3:7", -7.0)],
)
def test_slopes_electric_diamagnetic_regimes(capsys, grid, power):
    code, out, _ = _run(
        capsys, "slopes", "--atom", ELEC, "--atom-b", DIA,
        "--grid", grid, "--units", "natural", "--channel", "ed",
    )
    assert code == 0
    _, _, rows = _parse_csv(out)
    mid = rows[len(rows) // 2]
    assert abs(float(mid[1]) - power) <= 0.05
    assert mid[2] == "-1"


def test_slopes_mirror_needs_plate(capsys):
    code, _, err = _run(capsys, "slopes", "--atom", DIA, "--grid", "0.5:2:7")
    assert code == 2
    assert "--plate" in err


def test_slopes_pair_rejects_plate(capsys):
    code, out, err = _run(
        capsys, "slopes", "--atom", ELEC, "--atom-b", DIA, "--plate", "conducting",
        "--grid", "0.5:2:7", "--units", "natural",
    )
    assert code == 2
    assert out == ""
    assert "--plate" in err


def test_slopes_mirror_channel(capsys):
    code, out, _ = _run(
        capsys, "slopes", "--atom", DIA, "--plate", "conducting",
        "--grid", "0.5:2:7", "--units", "natural", "--channel", "d",
    )
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert all(abs(float(r[1]) + 4.0) <= 1e-6 for r in rows)


def test_tables_pass_in_both_formats(capsys):
    code, out, _ = _run(capsys, "tables")
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header[0] == "channel" and header[-1] == "status"
    assert len(rows) == 23
    assert all(row[-1] == "PASS" for row in rows)
    # table order: each channel's nonretarded cell, then its retarded one; dd last, at every separation
    regimes = ["nonretarded", "retarded"] * 11 + ["all"]
    assert [row[header.index("regime")] for row in rows] == regimes

    code, out, _ = _run(capsys, "tables", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["cells"]) == 23
    assert all(cell["passed"] is True for cell in doc["cells"])
    assert [cell["regime"] for cell in doc["cells"]] == regimes


def test_tables_reject_si_units(capsys):
    # tables runs in natural units only and takes no --units
    with pytest.raises(SystemExit) as exit_:
        main(["tables", "--units", "si"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --units si" in capsys.readouterr().err


def test_selftest_text_contains_adjudication(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == 0
    assert "all 12 checks passed" in out
    assert "32π²" in out and "SUPPORTED" in out
    assert "NOT SUPPORTED (deviates by factor π" in out
    pass_lines = [l for l in out.splitlines() if l.startswith("PASS ")]
    assert len(pass_lines) == 12


def test_selftest_json_document(capsys):
    code, out, _ = _run(capsys, "selftest", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 12
    assert doc["metadata"]["subcommand"] == "selftest"


def test_selftest_loosened_tolerance_still_passes(capsys):
    code, _, _ = _run(capsys, "selftest", "--rel-tol", "1e-4")
    assert code == 0


def test_selftest_rejects_out_of_range_tolerance(capsys):
    code, _, err = _run(capsys, "selftest", "--rel-tol", "1e-1")
    assert code == 2
    assert "rel_tol" in err


def test_selftest_rejects_a_tolerance_the_oracle_cannot_meet(capsys):
    # 2e-14 ran out of subdivisions (exit 3); 1e-13 is the tightest accepted
    code, out, err = _run(capsys, "selftest", "--rel-tol", "2e-14")
    assert code == 2
    assert out == ""
    assert "rel_tol must lie in [1e-13, 1e-2]" in err


def test_missing_atom_file_is_a_usage_error(capsys):
    code, _, err = _run(
        capsys, "mirror", "--atom", "/nope/missing.yaml",
        "--plate", "conducting", "--grid", "1:2:5",
    )
    assert code == 2
    assert "/nope/missing.yaml" in err


def test_malformed_grid_is_a_usage_error(capsys):
    code, _, err = _run(
        capsys, "mirror", "--atom", DIA, "--plate", "conducting", "--grid", "5:1:9",
    )
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize(
    "subcommand, grid, named",
    [
        ("pair", "1e-60:1e-50:3", "separation l 1e-60"),  # l**7 underflows
        ("pair", "1e300:1e308:3", "separation l 1e+300"),  # l**7 overflows
        ("mirror", "1e300:1e308:3", "mirror distance z 1e+300"),
        ("pair", "1:inf:3", "grid max must be finite, got 'inf'"),
        ("mirror", "nan:2:3", "grid min must be finite, got 'nan'"),
        # point counts that numpy refuses before it allocates anything
        ("mirror", "1:2:1000000000000000", "grid of 1000000000000000 points is too large to build"),
        ("pair", "1:2:9223372036854775807", "grid of 9223372036854775807 points is too large to build"),
        ("mirror", "1:2:1" + "0" * 30, f"grid of 1{'0' * 30} points is too large to build"),
    ],
)
def test_unrepresentable_distance_is_a_usage_error(capsys, subcommand, grid, named):
    if subcommand == "pair":
        atoms = ["--atom", DIA, "--atom-b", DIA]
    else:
        atoms = ["--atom", DIA, "--plate", "conducting"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, subcommand, *atoms, "--grid", grid)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("label: x\nelectric_transitions:\n  - omega: 1.0\n    mu_sq: nan\n", 3, "dipole"),
        ("label: x\nmagnetic_transitions:\n  - {omega: inf, m_sq: 1.0}\n", 3, "frequency"),
        ("label: x\nbeta_d: nan\n", 2, "diamagnetisability"),
        # omega^2 overflows, and omega^2 underflows to zero
        ("label: x\nelectric_transitions:\n  - {omega: 1e200, mu_sq: 1e300}\n", 3, "omega^2"),
        ("label: x\nelectric_transitions:\n  - {omega: 1e-200, mu_sq: 1.0}\n", 3, "omega^2"),
    ],
)
def test_non_finite_atom_parameter_is_a_usage_error(tmp_path, capsys, text, line, message):
    atom = tmp_path / "atom.yaml"
    atom.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            capsys, "mirror", "--atom", str(atom), "--plate", "conducting",
            "--grid", "1:2:3", "--units", "natural",
        )
    assert code == 2
    assert out == ""
    assert f"{atom}:{line}:" in err
    assert message in err


@pytest.mark.parametrize(
    "text, line, expected",
    [
        ("label: x\n? [a]\n: 1\n", 2,
         "['beta_d', 'electric_transitions', 'label', 'magnetic_transitions', 'particles']"),
        ("label: x\nelectric_transitions:\n  - {[a]: 1}\n", 3, "['mu_sq', 'omega']"),
    ],
    ids=["top_level", "entry"],
)
def test_non_scalar_key_is_a_usage_error(tmp_path, capsys, text, line, expected):
    atom = tmp_path / "atom.yaml"
    atom.write_text(text)
    code, out, err = _run(
        capsys, "mirror", "--atom", str(atom), "--plate", "conducting",
        "--grid", "1:2:3", "--units", "natural",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {atom}:{line}: unknown sequence key, expected one of {expected}\n"


def test_all_zero_atom_is_a_usage_error(tmp_path, capsys):
    atom = tmp_path / "atom.yaml"
    atom.write_text("label: x\nelectric_transitions:\n  - {omega: 1.0, mu_sq: 0}\n")
    code, out, err = _run(
        capsys, "mirror", "--atom", str(atom), "--plate", "conducting",
        "--grid", "1:2:3", "--units", "natural",
    )
    assert code == 2
    assert out == ""
    assert f"{atom}:1:" in err
    assert "every static response is zero" in err


def test_mirror_with_cancelling_channels_exits_zero(tmp_path, capsys):
    # the total is a few 1e-4 of each channel here, too close to zero for a re-summed check
    atom = tmp_path / "atom.yaml"
    atom.write_text(
        "label: cancelling\n"
        "electric_transitions:\n  - {omega: 1.0, mu_sq: 1.0}\n"
        "magnetic_transitions:\n  - {omega: 0.2, m_sq: 1.0}\n"
        "beta_d: -0.1\n"
    )
    code, out, err = _run(
        capsys, "mirror", "--atom", str(atom), "--plate", "conducting",
        "--units", "natural", "--grid", "0.6119:0.6121:2",
    )
    assert code == 0 and err == ""
    _, header, rows = _parse_csv(out)
    assert header == ["distance", "channel:e", "channel:p", "channel:d", "total"]
    assert len(rows) == 2
    for row in rows:
        e, p, d, total = (float(v) for v in row[1:])
        assert total == e + (p + d)


@pytest.mark.parametrize(
    "units, text, message",
    [
        # finite terms: alpha(0) = 1e280 * 2/(3 hbar) overflows only in SI
        ("si", "electric_transitions:\n  - {omega: 1.0, mu_sq: 1e280}\n", "polarisability alpha(0) is inf"),
        # two finite terms whose sum overflows
        (
            "natural",
            "electric_transitions:\n  - {omega: 1.0, mu_sq: 1e308}\n  - {omega: 1.0, mu_sq: 1e308}\n",
            "polarisability alpha(0) is inf",
        ),
        ("si", "magnetic_transitions:\n  - {omega: 1.0, m_sq: 1e280}\n", "paramagnetisability beta_p(0) is inf"),
        # q^2 is not a float, and a finite q^2 <r^2> / 6m that is not either
        ("natural", "particles:\n  - {q: 1e200, m: 1.0, r_sq: 1.0}\n", "diamagnetisability beta_d is -inf"),
        ("natural", "particles:\n  - {q: 1e150, m: 1e-300, r_sq: 1e10}\n", "diamagnetisability beta_d is -inf"),
    ],
)
def test_static_response_out_of_float_range_is_a_usage_error(tmp_path, capsys, units, text, message):
    atom = tmp_path / "atom.yaml"
    atom.write_text("label: huge\n" + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            capsys, "mirror", "--atom", str(atom), "--plate", "conducting",
            "--grid", "1:2:3", "--units", units,
        )
    assert code == 2
    assert out == ""
    assert "atom 'huge'" in err
    assert message in err


@pytest.mark.parametrize(
    "subcommand, grid, named",
    [
        # alpha(0) is finite, alpha(0) / (eps0 z^4) is not
        ("mirror", "1e-70:1e-69:3", "channel 'e' at mirror distance z 1e-70 is -inf"),
        # alpha(0)^2 is not finite although each factor is
        ("pair", "1e-40:1e-39:3", "channel 'ee' at separation l 1e-40 is -inf"),
    ],
)
def test_channel_value_out_of_float_range_is_a_usage_error(
    tmp_path, capsys, subcommand, grid, named
):
    atom = tmp_path / "atom.yaml"
    atom.write_text("label: huge\nelectric_transitions:\n  - {omega: 1.0, mu_sq: 1e266}\n")
    if subcommand == "pair":
        atoms = ["--atom", str(atom), "--atom-b", str(atom)]
    else:
        atoms = ["--atom", str(atom), "--plate", "conducting"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, subcommand, *atoms, "--grid", grid, "--units", "si")
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize(
    "mu_sq, grid",
    [
        # alpha(0) ~ 6e159: its square leaves the float range, U_ee ~ -3e292 does not
        ("1e126", "1e3:1e4:2"),
        # alpha(0) ~ 6e-167: its square underflows to zero, U_ee ~ -3e-285 does not
        ("1e-200", "1e-9:1e-8:2"),
    ],
)
def test_pair_of_extreme_statics_keeps_a_representable_ee(tmp_path, capsys, mu_sq, grid):
    atom = tmp_path / "atom.yaml"
    atom.write_text(f"label: extreme\nelectric_transitions:\n  - {{omega: 1.0, mu_sq: {mu_sq}}}\n")
    code, out, err = _run(capsys, "pair", "--atom", str(atom), "--atom-b", str(atom), "--grid", grid)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    column = rows[0].index("channel:ee")
    values = [float(row[column]) for row in rows[1:]]
    assert all(math.isfinite(value) and value < 0.0 for value in values)


def test_numerical_failure_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError(QuadratureResult(0.0, 1.0, 15), 1e-10)

    monkeypatch.setattr("vdwcp.cli.mirror_curve", explode)
    target = tmp_path / "mirror.csv"
    code, _, err = _run(
        capsys, "mirror", "--atom", DIA, "--plate", "conducting", "--grid", "1:2:5",
        "--out", str(target),
    )
    assert code == 3
    assert "numerical failure" in err
    assert not target.exists()


def test_out_in_a_missing_directory_writes_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "mirror.csv"
    code, out, err = _run(
        capsys, "mirror", "--atom", DIA, "--plate", "conducting", "--grid", "1:2:5",
        "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "geometry, channel",
    [(["--atom-b", DIA], "e"), (["--plate", "conducting"], "ee")],
)
def test_slopes_rejects_a_channel_of_the_other_geometry_before_loading(
    capsys, monkeypatch, geometry, channel
):
    calls = []
    for name in ("load_atom_file", "mirror_curve", "pair_curve"):
        def counted(*args, _original=getattr(vdwcp.cli, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(vdwcp.cli, name, counted)
    code, out, err = _run(
        capsys, "slopes", "--atom", DIA, *geometry, "--grid", "0.5:2:7", "--channel", channel,
    )
    assert code == 2
    assert out == ""
    assert f"channel {channel!r} does not exist in this geometry" in err
    assert calls == []
    # the channel is checked first, so a missing atom file is not what gets reported
    code, _, err = _run(
        capsys, "slopes", "--atom", "/nope/missing.yaml", *geometry, "--grid", "0.5:2:7",
        "--channel", channel,
    )
    assert code == 2
    assert f"channel {channel!r} does not exist in this geometry" in err


def test_unexpected_exception_maps_to_exit_four(capsys, monkeypatch):
    def explode(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("vdwcp.cli.cmd_curve", explode)
    code, out, err = _run(
        capsys, "mirror", "--atom", DIA, "--plate", "conducting", "--grid", "1:2:5",
    )
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_output_file_is_byte_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["pair", "--atom", ELEC, "--atom-b", DIA, "--grid", "0.01:10:9"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"# engine: vdwcp")


def test_column_rows_are_the_bytes_of_csv_writer_and_format(tmp_path):
    # every special float, 1,000 random bit patterns (nan payloads among them) and an int column
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
    bits = np.random.default_rng(2718).integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([specials, bits.view(np.float64)])
    columns = {"distance": values, "channel:e": values[::-1].copy(), "sign": np.sign(np.arange(values.size) - 5)}
    meta = {"engine": "vdwcp test", "subcommand": "slopes"}
    out = tmp_path / "columns.csv"
    vdwcp.cli._write_columns(argparse.Namespace(format="csv", out=str(out)), meta, columns)
    expected = io.StringIO()
    expected.writelines(f"# {key}: {value}\n" for key, value in meta.items())
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(list(columns))
    lists = [column.tolist() for column in columns.values()]
    writer.writerows([format(v, ".17g") for v in row] for row in zip(*lists))
    assert isinstance(lists[-1][0], int)
    assert out.read_bytes() == expected.getvalue().encode("utf-8")


_DOCUMENTS = {
    "mirror": ["mirror", "--atom", DIA, "--plate", "conducting", "--grid", "0.5:4:5", "--units", "natural"],
    "pair": ["pair", "--atom", ELEC, "--atom-b", DIA, "--grid", "0.01:10:9"],
    "slopes": ["slopes", "--atom", ELEC, "--atom-b", DIA, "--grid", "0.01:10:9", "--channel", "ed"],
    "tables": ["tables"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize(
    "command, fmt",
    [(command, fmt) for command in _DOCUMENTS for fmt in ("csv", "json")] + [("selftest", None)],
)
def test_stdout_and_out_file_carry_the_same_bytes(tmp_path, capsysbinary, command, fmt):
    argv = _DOCUMENTS[command] + (["--format", fmt] if fmt else [])
    target = tmp_path / "document"
    assert main([*argv, "--out", str(target)]) == 0
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed == target.read_bytes()
    text = printed.decode("utf-8")
    if fmt == "json":
        assert json.loads(text)["metadata"]["subcommand"] == command
    elif fmt == "csv":
        meta, header, rows = _parse_csv(text)
        assert meta["subcommand"] == command
        assert rows and all(len(row) == len(header) for row in rows)
        if command == "selftest":
            details = [check.detail for check in run_selftest().checks]
            assert any("," in detail for detail in details)
            assert [row[2] for row in rows] == details
    else:
        assert text.startswith("# engine: vdwcp") and "all 12 checks passed" in text


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
def test_stdout_is_utf8_whatever_its_own_encoding(tmp_path, monkeypatch, fmt):
    # the selftest report holds a π, which latin-1 cannot encode
    target = tmp_path / "selftest"
    assert main(["selftest", *fmt, "--out", str(target)]) == 0
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="latin-1"))
    assert main(["selftest", *fmt]) == 0
    assert raw.getvalue() == target.read_bytes()
    assert "π".encode("utf-8") in raw.getvalue()


def test_text_only_stdout_receives_the_document(tmp_path):
    target = tmp_path / "selftest"
    assert main(["selftest", "--out", str(target)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(["selftest"]) == 0
    assert text.getvalue().encode("utf-8") == target.read_bytes()


def test_module_entry_point_runs_selftest():
    proc = subprocess.run(
        [sys.executable, "-m", "vdwcp", "selftest", "--format", "json",
         "--rel-tol", "1e-8"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_passed"] is True


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "vdwcp", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "vdwcp 0.1.0"
