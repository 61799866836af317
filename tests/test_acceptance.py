"""Acceptance gate: vdwcp's own oracle battery, one verdict per check.

The battery is run_selftest (12 checks of closed forms against independent
routes) and verify_tables (23 sign/power cells), the calls behind `vdwcp
selftest`, `vdwcp tables` and the benchmark's verify workload. Each runs once
here, timed as a whole against its budget. Every test records its check's own
verdict and detail through the acceptance_log fixture, so the terminal summary
shows the whole gate at a glance, and fails if the check did. The engine's unit
tests (test_potentials, test_green, test_quad) are the coverage beside it.
"""
from time import perf_counter

import pytest

from vdwcp.asymptotics import verify_tables
from vdwcp.selftest import run_selftest

# run_selftest's checks, in report order
SELFTEST_CHECKS = (
    "pair-kernel-identities",
    "free-tensor-traces",
    "kernel-moment-integrals",
    "mirror-reflection-q-integral",
    "mirror-diamagnetic-closed-form",
    "mirror-prefactor-adjudication",
    "pair-dd-closed-form",
    "pair-ed-asymptotes",
    "pair-dp-asymptotes",
    "pair-swap-symmetry",
    "lenz-sign-flips",
    "channel-additivity",
)
SELFTEST_BUDGET_S = 1.0
TABLE_CELLS = 23
TABLE_BUDGET_S = 30.0


def _timed(run):
    start = perf_counter()
    report = run()
    return report, perf_counter() - start


@pytest.fixture(scope="module")
def selftest():
    return _timed(run_selftest)


@pytest.fixture(scope="module")
def tables():
    return _timed(verify_tables)


@pytest.mark.parametrize("name", SELFTEST_CHECKS)
def test_selftest_check(selftest, acceptance_log, name):
    report, elapsed = selftest
    check = report.checks[SELFTEST_CHECKS.index(name)]
    acceptance_log(check.name, check.passed, check.detail)
    assert tuple(c.name for c in report.checks) == SELFTEST_CHECKS
    assert check.passed, check.detail
    assert elapsed < SELFTEST_BUDGET_S, f"run_selftest took {elapsed:.2f}s"


def test_sign_and_power_table_fully_verified(tables, acceptance_log):
    report, elapsed = tables
    failed = [cell for cell in report.cells if not cell.passed]
    detail = f"{len(report.cells) - len(failed)}/{len(report.cells)} cells, {elapsed:.2f}s"
    if failed:
        detail += "; failing: " + ", ".join(
            f"{c.entry.geometry} {c.entry.channel.value}/{c.as_dict()['regime']}: {c.detail}" for c in failed
        )
    acceptance_log("sign and power table (mirror + pair)", report.all_passed, detail)
    assert len(report.cells) == TABLE_CELLS
    assert report.all_passed, detail
    assert elapsed < TABLE_BUDGET_S, detail
