"""The benchmark's calls into vdwcp: names its tracer wraps and the requests of its workloads must stay bound."""
import importlib
import sys
from pathlib import Path

import pytest

import vdwcp.asymptotics
import vdwcp.cli
import vdwcp.green
import vdwcp.potentials
import vdwcp.selftest

ROOT = Path(__file__).resolve().parents[1]
TRACED = (vdwcp.asymptotics, vdwcp.cli, vdwcp.green, vdwcp.potentials, vdwcp.selftest)
# bench/ modules a test imports, directly or through another
BENCH_MODULES = ("tracer", "program", "workloads", "inputs", "reference")


@pytest.fixture
def bench(monkeypatch):
    """Imports from bench/ for one test; the modules it loads are dropped again afterwards."""
    if Path(vdwcp.__file__).resolve().parent != (ROOT / "src" / "vdwcp").resolve():
        pytest.skip("bench/ imports vdwcp from this checkout's src/ only")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the undo also drops the src/ that program.py adds
    fresh = [name for name in BENCH_MODULES if name not in sys.modules]
    try:
        yield importlib.import_module
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


def test_bench_tracer_installs_and_restores(bench):
    # install looks up every name it wraps, so a name that a refactor unbinds fails here
    before = [dict(vars(module)) for module in TRACED]
    trace = bench("tracer").Tracer()
    try:
        trace.install()
        for module, attr in (
            (vdwcp.potentials, "mirror_kernel"),
            (vdwcp.potentials, "alpha_iso"),
            (vdwcp.potentials, "integrate_semiinf"),
            (vdwcp.selftest, "integrate_semiinf"),
            (vdwcp.asymptotics, "verify_tables"),
        ):
            assert getattr(module, attr) is not before[TRACED.index(module)][attr], attr
    finally:
        trace.remove()
    assert [dict(vars(module)) for module in TRACED] == before


@pytest.mark.parametrize("name", ["pair_composite", "manyline", "verify"])
def test_bench_workload_request_runs(bench, monkeypatch, tmp_path, name):
    # one timed call as the benchmark makes it: a name, option or keyword a refactor drops fails here.
    # Its _moments calls and their elements are pinned too: the tracer has no span for them, so a changed
    # call pattern shows here, also where the number of calls holds
    moment_calls, moment_elements = {"pair_composite": (2, 244), "manyline": (82, 4142), "verify": (8, 120)}[name]
    workload = bench("workloads").WORKLOADS[name](1, tmp_path)
    calls = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: calls.append(a.size) or real(a))
    output = workload.request()
    if name == "pair_composite":
        assert output == 0, "vdwcp pair exited with an error"
    assert (len(calls), sum(calls)) == (moment_calls, moment_elements)
