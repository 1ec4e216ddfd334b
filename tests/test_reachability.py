"""Every module in ``src/repro`` is reached from an entry point, or is
listed in :data:`UNREACHED` with the reason it stays.

The walk reads imports from the AST, including the lazy ones inside
function bodies, so it follows what an entry point can execute without
importing anything.  ``src/repro`` uses absolute imports only; a
relative one would leave its target unreached.  A module that only
tests, bench files or examples import fails this test until it is
listed here or deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The console script, the campaign CLI and the two ``python -m`` modules.
ENTRY_POINTS = (
    "repro.cli",
    "repro.campaign.cli",
    "repro.__main__",
    "repro.lint.__main__",
)

#: Modules no entry point imports, each with the reason it is kept.
UNREACHED = {
    "repro.cache.warming": "the double-run warming of Sec. IV-D, measured "
    "by benchmarks/bench_ext_warming.py",
    "repro.stats.confidence": "jackknife intervals for the tolerances of "
    "sampled estimates",
    "repro.stats.distribution": "formal instruction-mix comparisons for the "
    "tolerances of sampled estimates",
}


def source_modules():
    """Dotted module name to source path, for every module under repro."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path):
    """Every dotted name an import in the module could load."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            # ``from pkg import name`` loads ``pkg.name`` when it is a module.
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def reached_modules(modules):
    """Modules an entry point imports, directly or transitively."""
    seen = set()
    pending = list(ENTRY_POINTS)
    while pending:
        parts = pending.pop().split(".")
        # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in modules and name not in seen:
                seen.add(name)
                pending.extend(imported_names(modules[name]))
    return seen


def test_only_the_listed_modules_are_unreached():
    modules = source_modules()
    assert set(ENTRY_POINTS) <= set(modules)
    unreached = set(modules) - reached_modules(modules)
    assert unreached == set(UNREACHED)
