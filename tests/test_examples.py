"""Smoke-run every example script end-to-end.

Each example asserts its own headline property internally; these tests
just execute them in-process (so pipeline caches are shared) and confirm
they complete.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
@pytest.mark.parametrize(
    "name",
    ["quickstart", "custom_workload", "memory_hierarchy_pitfall",
     "design_space_sweep"],
)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100
