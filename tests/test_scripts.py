"""The experiment scripts run end to end on tiny sizes.

Each script's main(argv) is called in-process, so a library change that
breaks one of them fails here rather than on the next manual run.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = {
    "bump_scaling": ["--mismatches", "1e-2", "1e-4", "--m", "1"],
    "decay_tables": ["--sizes", "8", "--m", "1"],
    "finiteness_refinement": ["--sizes", "6", "8", "--m", "1"],
}


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", RUNS)
def test_script_main_exits_0(name, capsys):
    assert load(name).main(RUNS[name]) == 0
    assert capsys.readouterr().out.strip()
