"""Tests of the benchmark itself.

    python3 -m pytest -q bench/check_bench.py

The file is not named test_*.py, so the repository's own test run does not
collect it: the pinned counts below describe the engine at the commit that
defined the benchmark, and a later engine is expected to move them.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import tracer
import vdwcp.asymptotics
import vdwcp.cli
import vdwcp.green
import vdwcp.potentials
import vdwcp.selftest
import workloads

BENCH = Path(__file__).resolve().parent
TRACED_MODULES = (vdwcp.asymptotics, vdwcp.cli, vdwcp.green, vdwcp.potentials, vdwcp.selftest)


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return workloads.WORKLOADS[request.param](seed=3, out_dir=tmp_path)


def _output(workload, traced: bool):
    """One request's output in a comparable form, run with or without the tracer."""
    if traced:
        with tracer.Tracer() as trace:
            result = trace.call("request", "harness", workload.request)
    else:
        result = workload.request()
    if workload.name == "pair_composite":
        assert result == 0
        return workload.out.read_bytes()
    if workload.name == "manyline":
        return np.concatenate([np.concatenate(list(curve.values.values())) for curve in result])
    tables, selftest = result
    return [cell.as_dict() for cell in tables.cells], selftest.as_dict()


def _traced_request(workload):
    trace = tracer.Tracer()
    with trace:
        trace.call("request", "harness", workload.request)
    return trace


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        ("request", "harness", 0.0, 10.0, -1),
        ("curve", "potentials", 1.0, 9.0, 0),
        ("quad", "quad", 2.0, 6.0, 1),
        ("integrand", "potentials.integrand", 2.5, 4.5, 2),
        ("kernel", "green", 3.0, 3.5, 3),
        ("quad", "quad", 6.5, 8.0, 1),
    ]
    assert tracer.self_times(spans) == {
        "harness": 2.0,
        "potentials": 8.0 - 4.0 - 1.5,
        "quad": (4.0 - 2.0) + 1.5,
        "potentials.integrand": 2.0 - 0.5,
        "green": 0.5,
    }


def test_composite_atom_files_parse_to_the_selftest_pair():
    assert inputs.build("pair_composite", seed=0) == vdwcp.selftest._composite_pair()


def test_run_accepts_every_workload():
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def test_manyline_atom_depends_only_on_the_seed():
    atom = inputs.manyline_atom(7)
    assert atom == inputs.manyline_atom(7) != inputs.manyline_atom(8)
    assert len(atom.electric_transitions) == 30 and len(atom.magnetic_transitions) == 20


def test_traced_and_untraced_outputs_are_bit_identical(workload):
    plain = _output(workload, traced=False)
    traced = _output(workload, traced=True)
    if workload.name == "manyline":
        assert np.array_equal(plain, traced)
    else:
        assert plain == traced


def test_tracer_restores_every_wrapped_name():
    before = {
        (module.__name__, attr): value
        for module in TRACED_MODULES
        for attr, value in vars(module).items()
    }
    with tracer.Tracer():
        assert vdwcp.potentials.integrate_semiinf is not before[("vdwcp.potentials", "integrate_semiinf")]
    after = {
        (module.__name__, attr): value
        for module in TRACED_MODULES
        for attr, value in vars(module).items()
    }
    assert after == before


def test_counters_repeat_exactly(tmp_path):
    workload = workloads.PairComposite(seed=1, out_dir=tmp_path)
    first = _traced_request(workload).counts
    second = _traced_request(workload).counts
    assert first == second
    # The engine's counts at the commit that defined the benchmark.
    assert first["quad.calls"] == 549
    assert first["quad.evaluations"] == 101_112
    assert first["quad.panels"] == 6_631
    assert first["quad.extensions"] == 0
    assert first["response.eval.calls"] == 11_370
    assert first["potentials.channel_values"] == 549


def test_layer_self_times_add_up_to_the_request(workload):
    trace = _traced_request(workload)
    root = trace.spans[0]
    assert root[0] == "request" and root[4] == -1
    layers = tracer.self_times(trace.spans)
    assert all(value >= 0.0 for value in layers.values())
    assert sum(layers.values()) == pytest.approx(root[3] - root[2], rel=1e-9)
    expected_layers = {
        "pair_composite": {"cli", "response.load", "potentials", "quad", "response.eval", "green"},
        "manyline": {"potentials", "quad", "response.eval", "green"},
        "verify": {"asymptotics", "selftest", "potentials", "quad", "response.eval", "green"},
    }[workload.name]
    assert expected_layers <= set(layers)


def test_checks_pass_and_reject_a_perturbed_value(tmp_path):
    workload = workloads.PairComposite(seed=2, out_dir=tmp_path)
    workload.prepare()
    err, values = workload.check(workload.request())
    assert 0.0 < err <= workloads.MARGIN
    assert values == 549
    (i, channel), ref = next((k, v) for k, v in workload.refs.items() if k[1] == "ee")
    workload.refs[(i, channel)] = ref * (1.0 + 10.0 * workloads.MARGIN)
    with pytest.raises(workloads.CheckFailed):
        workload.check(workload.request())


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_slope_check_scales_the_value_margin(tmp_path):
    workload = workloads.Verify(seed=1, out_dir=tmp_path)
    workload.prepare()
    output = workload.request()
    measured = output[0].cells[0].measured_slope
    _, margin = workload.ref_slopes[0]
    # The slope margin is wider than the value margin, by 2/(ln(hi/lo)*|slope|).
    assert margin > workloads.MARGIN
    workload.ref_slopes[0] = (measured * (1.0 + 0.5 * margin), margin)
    workload.check(output)
    workload.ref_slopes[0] = (measured * (1.0 + 2.0 * margin), margin)
    with pytest.raises(workloads.CheckFailed):
        workload.check(output)
