"""AST walking driver: parse modules, run rules, apply waivers.

The walker owns everything rule bodies share: reading and parsing a
file, resolving imported names back to dotted module paths (so
``rng()`` after ``from numpy.random import default_rng as rng`` is
still recognized), and running every registered rule over every file
into waiver-filtered, sorted :class:`Finding` lists.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import LintError
from repro.lint.registry import Finding, all_rules
from repro.lint.suppressions import scan_suppressions

__all__ = [
    "ModuleContext",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "relativize",
]

#: Directories never linted: ``tests/lint_fixtures`` breaks every rule
#: on purpose to pin its fire and no-fire cases.
_FIXTURE_DIR = "lint_fixtures"


class ModuleContext:
    """One parsed module plus the lookup helpers rules need."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        #: POSIX-style path used in reports and by path-scoped rules.
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{rel_path}: cannot parse: {exc}") from exc
        self.aliases = _collect_import_aliases(self.tree)

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name a Name/Attribute refers to, through import aliases.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the module did ``import numpy as np``.  Returns ``None`` for
        expressions that are not plain attribute chains.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported from."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".", 1)[0]
                target = item.name if item.asname else item.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            prefix = "." * node.level + module
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{prefix}.{item.name}" if prefix else item.name
    return aliases


def relativize(path: Path, root: Optional[Path] = None) -> str:
    """POSIX-style report path for ``path``, relative to root or cwd."""
    resolved = Path(path).resolve()
    for base in (root, Path.cwd()):
        if base is None:
            continue
        try:
            return resolved.relative_to(base.resolve()).as_posix()
        except ValueError:
            continue
    return resolved.as_posix()


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of lintable modules."""
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            if path.suffix != ".py":
                raise LintError(f"not a python file: {path}")
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    seen = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        if _FIXTURE_DIR in relativize(path).split("/"):
            continue
        unique.append(path)
    return unique


def lint_file(path: Path, root: Optional[Path] = None) -> List[Finding]:
    """Run every rule over one file; waivers applied.

    Report paths are relative to ``root`` (default: the working
    directory), and path-scoped rules read them.
    """
    path = Path(path)
    rel = relativize(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {rel}: {exc}") from exc
    ctx = ModuleContext(path, rel, source)
    waived = scan_suppressions(source, rel)
    findings: List[Finding] = []
    for spec in all_rules():
        for node, message in spec.func(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if spec.id in waived.get(line, ()):
                continue
            findings.append(
                Finding(
                    rule=spec.id,
                    path=rel,
                    line=line,
                    col=col,
                    message=message,
                    snippet=ctx.snippet(line),
                )
            )
    return sorted(findings, key=Finding.sort_key)


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint files and directories; the main library entry point.

    Expands ``paths`` with :func:`iter_python_files` and runs
    :func:`lint_file` over each module.
    """
    findings: List[Finding] = []
    for path in iter_python_files([Path(p) for p in paths]):
        findings.extend(lint_file(path))
    return sorted(findings, key=Finding.sort_key)
