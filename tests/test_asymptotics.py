"""Log-log slope extraction and the full sign/power table verification."""
import numpy as np
import pytest

from vdwcp.asymptotics import (
    ALL_TABLE_ENTRIES,
    MIRROR_TABLE,
    PAIR_TABLE,
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
