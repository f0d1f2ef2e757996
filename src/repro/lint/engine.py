"""Core lint engine: file discovery, rule dispatch, suppression filtering.

The engine is deliberately dependency-free (``ast`` + stdlib only) so it
can gate CI before the numeric stack is even importable.  It parses each
file once, hands the tree to every applicable rule, then drops the
findings silenced by inline ``# repro-lint: disable=RULE`` comments (see
:mod:`repro.lint.suppressions`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint.suppressions import suppressions_for_source

#: Directory names never descended into during discovery.
SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "venv", "build", "dist",
             ".eggs", "node_modules"}


class LintUsageError(ValueError):
    """A run that cannot check anything: unknown rule, missing path, or no
    Python file under the given paths (``repro lint`` exits 2)."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    ``line``/``col`` are 1-based / 0-based (ast conventions).  ``span``
    is the inclusive line range used when matching inline suppressions —
    for a multi-line expression the ``disable=`` comment may sit on any
    line of the expression, not just the first.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    span: Tuple[int, int] = (0, 0)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class FileContext:
    """Everything a rule may need about one parsed file."""

    path: str                 # display path (as discovered, POSIX separators)
    module: str               # dotted module name, "" when not in a package
    tree: ast.Module
    source: str
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, repr=False)
    _walked: Optional[List[ast.AST]] = field(default=None, repr=False)

    def walk(self) -> List[ast.AST]:
        """Every node of the tree, walked once and shared by all rules."""
        if self._walked is None:
            self._walked = list(ast.walk(self.tree))
        return self._walked

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent links, built lazily and cached per file."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in self.walk()
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parent_map()
        while node in parents:
            node = parents[node]
            yield node

    def in_packages(self, *packages: str) -> bool:
        return any(self.module == pkg or self.module.startswith(pkg + ".")
                   for pkg in packages)


class Rule:
    """Base class for lint rules.

    Subclasses set ``name``/``severity``/``description`` and implement
    :meth:`check`.  :meth:`applies` lets a rule scope itself to parts of
    the tree (e.g. HOTLOOP only watches the hot-path packages).
    """

    name: str = ""
    severity: str = "error"
    description: str = ""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                span: Optional[Tuple[int, int]] = None) -> Finding:
        line = getattr(node, "lineno", 1)
        if span is None:
            span = (line, getattr(node, "end_lineno", line) or line)
        return Finding(rule=self.name, severity=self.severity, path=ctx.path,
                       line=line, col=getattr(node, "col_offset", 0),
                       message=message, span=span)


@dataclass
class LintResult:
    """Outcome of one engine run, after suppression filtering."""

    findings: List[Finding]
    suppressed: int
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the ``__init__.py`` chain.

    Walks up from ``path`` while each parent directory is a package; the
    result is what ``import`` would call the file.  Returns ``""`` for a
    module that is not inside any package.  Rules use this (not raw
    filesystem paths) to scope themselves, so the linter behaves the same
    whether invoked on ``src/repro`` or from inside ``src``.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files or directories).

    Directory listings are sorted by POSIX string path — not by the
    platform Path ordering — so discovery order (and with it report
    order) is byte-identical across filesystems and OSes.  A path that
    does not exist raises :class:`LintUsageError`: a typo in a CI path
    must not pass the gate by checking nothing.
    """
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root
        elif root.is_dir():
            for candidate in sorted(root.rglob("*.py"),
                                    key=lambda p: p.as_posix()):
                if any(part in SKIP_DIRS for part in candidate.parts):
                    continue
                yield candidate
        else:
            raise LintUsageError(f"no such file or directory: {raw}")


def load_context(path: Path) -> Tuple[Optional[FileContext], Optional[Finding]]:
    """Parse one file into a :class:`FileContext`, once, for all rules.

    Returns ``(ctx, None)`` on success and ``(None, finding)`` when the
    file is unreadable or does not parse — a broken file must fail the
    gate, not silently skip every rule.
    """
    display = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (OSError, UnicodeDecodeError, SyntaxError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = (getattr(exc, "offset", None) or 1) - 1
        reason = (f"file does not parse: {exc.msg}"
                  if isinstance(exc, SyntaxError)
                  else f"file is unreadable: {exc}")
        return None, Finding(rule="SYNTAX", severity="error", path=display,
                             line=line, col=col, message=reason,
                             span=(line, line))
    return FileContext(path=display, module=module_name_for(path),
                       tree=tree, source=source), None


def select_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Registry lookup honoring a ``--select`` list (case-insensitive)."""
    from repro.lint.rules import RULES  # late: rules import this module

    if not select:
        return list(RULES.values())
    wanted = {name.strip().upper() for name in select if name.strip()}
    unknown = wanted - set(RULES)
    if unknown:
        raise LintUsageError(f"unknown rule(s) {sorted(unknown)}; "
                             f"available: {sorted(RULES)}")
    return [rule for name, rule in RULES.items() if name in wanted]


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None) -> LintResult:
    """Run the registry's rules (or the ``select``-ed ones) over ``paths``."""
    rules = select_rules(select)
    findings: List[Finding] = []
    suppressed = 0
    files = 0
    for path in iter_python_files(paths):
        files += 1
        ctx, error = load_context(path)
        if error is not None:
            findings.append(error)
            continue
        suppress = suppressions_for_source(ctx.source)
        for rule in rules:
            if not rule.applies(ctx):
                continue
            for f in rule.check(ctx):
                if suppress.is_suppressed(f.rule, f.span):
                    suppressed += 1
                else:
                    findings.append(f)
    if files == 0:
        raise LintUsageError(f"no Python files under {' '.join(paths)}")
    findings.sort(key=Finding.sort_key)
    return LintResult(findings=findings, suppressed=suppressed,
                      files_checked=files)
