"""Log-log slope extraction and the full sign/power table verification."""
import numpy as np
import pytest

import vdwcp.asymptotics
from vdwcp.asymptotics import (
    ALL_TABLE_ENTRIES,
    MIRROR_TABLE,
    PAIR_TABLE,
    REGIME_DEPTH,
    default_fixtures,
    local_log_slope,
    verify_tables,
)
from vdwcp.green import PlateKind
from vdwcp.potentials import (
    MIRROR_CHANNELS,
    PAIR_CHANNELS,
    Channel,
    PotentialCurve,
    mirror_curve,
    pair_curve,
)
from vdwcp.units import UnitSystem


def _pair_power_curve(power: float, amplitude: float = 2.0) -> PotentialCurve:
    distances = np.geomspace(1.0, 4.0, 9)
    dd = amplitude * distances**power
    values = {ch: np.zeros(9) for ch in PAIR_CHANNELS}
    values[Channel.DD] = dd
    return PotentialCurve(distances=distances, values=values)


def test_exact_power_law_slope():
    profile = local_log_slope(_pair_power_curve(-7.0), Channel.DD)
    assert profile.distances.size == 7
    assert np.max(np.abs(profile.exponent + 7.0)) <= 1e-9
    assert np.all(profile.sign == 1)


def test_total_channel_slope():
    profile = local_log_slope(_pair_power_curve(-4.0, amplitude=-1.0), "total")
    assert np.max(np.abs(profile.exponent + 4.0)) <= 1e-9
    assert np.all(profile.sign == -1)


def test_zero_and_sign_change_points_are_masked():
    curve = _pair_power_curve(-7.0)
    dd = curve.values[Channel.DD].copy()
    dd[4] = 0.0
    values = dict(curve.values)
    values[Channel.DD] = dd
    masked = PotentialCurve(distances=curve.distances, values=values)
    profile = local_log_slope(masked, Channel.DD)
    # interior points 3, 4 and 5 have the zero in their stencil
    assert profile.distances.size == 4
    assert not np.any(np.isin(profile.distances, curve.distances[3:6]))


def test_all_zero_channel_yields_empty_profile():
    profile = local_log_slope(_pair_power_curve(-7.0), Channel.EE)
    assert profile.distances.size == 0


def test_non_geometric_grid_rejected():
    curve = _pair_power_curve(-7.0)
    distances = curve.distances.copy()
    distances[3] *= 1.01
    values = {ch: np.interp(distances, curve.distances, v) for ch, v in curve.values.items()}
    bad = PotentialCurve(distances=distances, values=values)
    with pytest.raises(ValueError, match="geometric"):
        local_log_slope(bad, Channel.DD)


def test_short_grid_rejected():
    curve = _pair_power_curve(-7.0)
    values = {ch: v[:4] for ch, v in curve.values.items()}
    short = PotentialCurve(distances=curve.distances[:4], values=values)
    with pytest.raises(ValueError, match="5"):
        local_log_slope(short, Channel.DD)


def test_mirror_diamagnetic_slope_is_quartic():
    curve = mirror_curve(
        default_fixtures()["d"],
        np.geomspace(0.5, 2.0, 7),
        PlateKind.CONDUCTING,
        UnitSystem.NATURAL,
    )
    profile = local_log_slope(curve, Channel.D)
    assert np.max(np.abs(profile.exponent + 4.0)) <= 1e-6
    assert np.all(profile.sign == -1)


def test_table_entry_inventory():
    assert len(MIRROR_TABLE) == 6
    assert len(PAIR_TABLE) == 17
    assert len(ALL_TABLE_ENTRIES) == 23
    dd_entries = [e for e in PAIR_TABLE if e.channel is Channel.DD]
    assert len(dd_entries) == 1 and dd_entries[0].regime == "all"
    for channel in MIRROR_CHANNELS:
        assert sum(1 for e in MIRROR_TABLE if e.channel is channel) == 2


def test_verify_tables_all_cells_pass():
    report = verify_tables()
    assert len(report.cells) == 23
    failed = [cell for cell in report.cells if not cell.passed]
    assert report.all_passed, failed


def test_verify_tables_is_deterministic():
    assert verify_tables() == verify_tables()


def test_verify_tables_cell_dict_roundtrip():
    cell = verify_tables().cells[0]
    as_dict = cell.as_dict()
    assert as_dict["channel"] == cell.entry.channel.value
    assert as_dict["passed"] is True
    assert isinstance(as_dict["measured_slope"], float)


def test_table_cells_are_bitwise_the_per_fixture_curves(monkeypatch):
    # verify_tables takes one mirror and one self-pair curve of a fixture with the e, p and d
    # responses; each cell's five values are those of its single-response fixtures' own curve
    curves = {"mirror_curve": [], "pair_curve": []}
    for name, taken in curves.items():
        def recorded(*args, _original=getattr(vdwcp.asymptotics, name), _taken=taken, **kwargs):
            _taken.append(_original(*args, **kwargs))
            return _taken[-1]

        monkeypatch.setattr(vdwcp.asymptotics, name, recorded)
    report = verify_tables()
    assert [len(taken) for taken in curves.values()] == [1, 1]
    (mirror,), (pair,) = curves.values()
    fixtures = default_fixtures()
    for entry, cell in zip(ALL_TABLE_ENTRIES, report.cells):
        grid = 1.02 ** np.arange(-2, 3) * REGIME_DEPTH[entry.regime]
        if entry.geometry == "mirror":
            atom = fixtures[entry.channel.value]
            curve, alone = mirror, mirror_curve(atom, grid, PlateKind.CONDUCTING, UnitSystem.NATURAL)
        else:
            atoms = [fixtures[letter] for letter in entry.channel.value]
            curve, alone = pair, pair_curve(*atoms, grid, UnitSystem.NATURAL)
        start = int(np.flatnonzero(curve.distances == grid[0])[0])
        assert curve.distances[start : start + 5].tobytes() == grid.tobytes()
        values = curve.values[entry.channel][start : start + 5]
        assert values.tobytes() == alone.values[entry.channel].tobytes(), entry
        profile = local_log_slope(alone, entry.channel)
        assert cell.measured_slope == profile.exponent[profile.exponent.size // 2], entry


def _loop_log_slope(d, u):
    """The per-point loop that local_log_slope's array form replaced, as its reference."""
    kept, slopes, signs = [], [], []
    log_d = np.log(d)
    for i in range(1, d.size - 1):
        window = u[i - 1 : i + 2]
        s = np.sign(window)
        if np.any(window == 0.0) or not (s == s[0]).all():
            continue
        slopes.append((np.log(abs(u[i + 1])) - np.log(abs(u[i - 1]))) / (log_d[i + 1] - log_d[i - 1]))
        kept.append(i)
        signs.append(int(s[0]))
    return d[kept], np.array(slopes), np.array(signs, dtype=int)


@pytest.mark.parametrize("seed", range(6))
def test_slopes_are_bitwise_the_per_point_loop(seed):
    rng = np.random.default_rng(seed)
    distances = np.geomspace(0.5, 8.0, 13)
    signs = rng.choice([-1.0, 0.0, 1.0], p=[0.3, 0.1, 0.6], size=13)
    dd = signs * rng.uniform(0.5, 2.0, size=13) * distances ** rng.uniform(-7.0, -3.0)
    values = {ch: np.zeros(13) for ch in PAIR_CHANNELS}
    values[Channel.DD] = dd
    profile = local_log_slope(PotentialCurve(distances=distances, values=values), Channel.DD)
    reference = _loop_log_slope(distances, dd)
    for got, expected in zip((profile.distances, profile.exponent, profile.sign), reference):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
