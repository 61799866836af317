"""Runnable examples: the scripts and the README's Python API block."""
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["crossover_scan"])
# the last three hold counts that numpy refuses before it allocates anything
@pytest.mark.parametrize("grid", ["1:0:5", "1e-3:1e3", "1:inf:5", "a:b:c", "1:2:1000000000000000",
                                  "1:2:9223372036854775807", "1:2:1" + "0" * 30])
def test_script_rejects_a_bad_grid_in_one_line(capsys, script, grid):
    code = _script(script).main(["--grid", grid])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid") and err.count("\n") == 1


@pytest.mark.parametrize("script", ["crossover_scan"])
def test_script_rejects_an_out_it_cannot_open_in_one_line(tmp_path, capsys, script):
    out = tmp_path / "missing" / "out.csv"
    code = _script(script).main(["--grid", "0.5:2:5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"


@pytest.mark.parametrize("script, rows", [("crossover_scan", 3)])
def test_script_writes_its_csv(tmp_path, script, rows):
    out = tmp_path / "out.csv"
    assert _script(script).main(["--grid", "0.5:2:5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + rows


def test_moment_table_is_the_one_the_script_derives():
    from vdwcp import moment_table

    assert _script("moment_table").table() == (
        moment_table.EDGES,
        moment_table.CENTRES,
        moment_table.COEFFICIENTS,
    )


def test_readme_python_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
