"""The benchmark harness's hooks into ``src/`` still resolve.

``perfbench/`` reaches into the program by name: its traced mode wraps
the functions that ``layers.py`` lists and patches, and its workloads
import names from ``repro``.  A rename in ``src/`` breaks those only when
the benchmark runs (``--trace 1`` fails on the first missing attribute),
so tier-1 checks every one of them here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


def _perfbench_trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _patch_targets():
    """``(module, path)`` of every literal ``patches.replace`` call."""
    targets = []
    for _, tree in _perfbench_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "replace"
                    and len(node.args) >= 2
                    and all(isinstance(a, ast.Constant)
                            and isinstance(a.value, str)
                            for a in node.args[:2])
                    and node.args[0].value.startswith("repro")):
                targets.append((node.args[0].value, node.args[1].value))
    return targets


def _repro_imports():
    """``(file, module, name)`` of every ``from repro... import name``."""
    found = []
    for filename, tree in _perfbench_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                found.extend(
                    (filename, node.module, alias.name)
                    for alias in node.names
                )
    return found


HOOKS = list(dict.fromkeys([
    (module, path)
    for module, path, _ in (
        LAYERS.TIMED_LAYERS + LAYERS.CLIENT_LAYERS + LAYERS.SERVER_LAYERS
    )
] + _patch_targets()))

IMPORTS = _repro_imports()


def test_scans_find_the_known_hooks():
    assert ("repro.cache.fused", "FusedHierarchy.submit_slice") in HOOKS
    assert ("repro.pin.engine", "Engine.run") in HOOKS
    assert ("fig8_cold.py", "repro.experiments.common",
            "metrics_to_payload") in IMPORTS


@pytest.mark.parametrize(
    "module,path", HOOKS, ids=[f"{m}:{p}" for m, p in HOOKS]
)
def test_layer_hook_resolves(module, path):
    owner, attr = LAYERS._resolve(module, path)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize(
    "filename,module,name", IMPORTS,
    ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS],
)
def test_repro_import_resolves(filename, module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return
    try:  # ``from package import submodule`` names a module
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        pytest.fail(f"perfbench/{filename} imports {name!r} from {module}, "
                    "which no longer has it")
