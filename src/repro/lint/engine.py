"""Core lint engine: file discovery, rule dispatch, finding filtering.

The engine is deliberately dependency-free (``ast`` + stdlib only) so it
can gate CI before the numeric stack is even importable.  It parses each
file once, hands the tree to every applicable rule, then filters the raw
findings through two mechanisms:

* **inline suppressions** — ``# repro-lint: disable=RULE`` comments
  (see :mod:`repro.lint.suppressions`), and
* a **baseline** — a checked-in JSON file of grandfathered findings
  (see :mod:`repro.lint.baseline`); only findings *not* in the baseline
  count as new.
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

SEVERITIES = ("error", "warning")


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

    def baseline_key(self) -> Tuple[str, str, str]:
        """Line-insensitive identity used for baseline matching."""
        return (self.path, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


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
        """Every node of the tree, walked once and shared by all rules.

        Rules used to each call ``ast.walk`` themselves; with eight flat
        rules that re-traversed every file eight times.  The list is
        materialized lazily on first use and cached for the file's
        lifetime.
        """
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
    """Outcome of one engine run, after suppression/baseline filtering."""

    findings: List[Finding]        # new findings (gate CI / exit code)
    baselined: List[Finding]       # matched the baseline, not new
    suppressed: int                # silenced by inline comments
    files_checked: int
    deep: bool = False             # did the interprocedural pass run?

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
    platform Path ordering — so discovery order (and with it report and
    baseline order) is byte-identical across filesystems and OSes.
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


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    line = exc.lineno or 1
    return Finding(rule="SYNTAX", severity="error", path=path, line=line,
                   col=(exc.offset or 1) - 1,
                   message=f"file does not parse: {exc.msg}",
                   span=(line, line))


def load_context(path: Path,
                 display_path: Optional[str] = None
                 ) -> Tuple[Optional[FileContext], Optional[Finding]]:
    """Parse one file into a :class:`FileContext`, once, for all rules.

    Returns ``(ctx, None)`` on success and ``(None, finding)`` when the
    file is unreadable or does not parse — a broken file must fail the
    gate, not silently skip every rule.
    """
    display = display_path if display_path is not None else path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Finding(rule="SYNTAX", severity="error", path=display,
                             line=1, col=0,
                             message=f"file is unreadable: {exc}",
                             span=(1, 1))
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return None, _syntax_finding(display, exc)
    return FileContext(path=display, module=module_name_for(path),
                       tree=tree, source=source), None


def _filter_suppressed(findings: Iterable[Finding],
                       source: str) -> Tuple[List[Finding], int]:
    suppress = suppressions_for_source(source)
    kept, silenced = [], 0
    for f in findings:
        if suppress.is_suppressed(f.rule, f.span):
            silenced += 1
        else:
            kept.append(f)
    return kept, silenced


def check_context(ctx: FileContext,
                  rules: Sequence[Rule]) -> Tuple[List[Finding], int]:
    """Run flat rules over one parsed context; suppression-filtered."""
    raw: List[Finding] = []
    for rule in rules:
        if rule.applies(ctx):
            raw.extend(rule.check(ctx))
    kept, silenced = _filter_suppressed(raw, ctx.source)
    kept.sort(key=Finding.sort_key)
    return kept, silenced


def split_selection(select: Optional[Sequence[str]],
                    deep: bool) -> Tuple[List[Rule], List[object]]:
    """Resolve ``--select`` against both registries.

    Returns (flat rules, deep rules).  Selecting a deep rule without
    ``deep=True`` is an error — the interprocedural pass it needs would
    not run — reported the same way as an unknown rule name.
    """
    from repro.lint.flow.rules import DEEP_RULES  # late: imports engine
    from repro.lint.rules import RULES

    if not select:
        return list(RULES.values()), (list(DEEP_RULES.values()) if deep
                                      else [])
    wanted = {name.strip().upper() for name in select if name.strip()}
    unknown = wanted - set(RULES) - set(DEEP_RULES)
    if unknown:
        raise KeyError(f"unknown rule(s) {sorted(unknown)}; available: "
                       f"{sorted(RULES) + sorted(DEEP_RULES)}")
    deep_wanted = wanted & set(DEEP_RULES)
    if deep_wanted and not deep:
        raise KeyError(f"rule(s) {sorted(deep_wanted)} are interprocedural; "
                       "run with --deep to enable them")
    flat = [rule for name, rule in RULES.items() if name in wanted]
    deep_rules = [rule for name, rule in DEEP_RULES.items()
                  if name in deep_wanted] if deep else []
    return flat, deep_rules


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    baseline: Optional[Dict[Tuple[str, str, str], int]] = None,
    deep: bool = False,
) -> LintResult:
    """Run the registry's rules over ``paths``.

    ``select`` restricts to the named rules (case-insensitive).
    ``baseline`` maps :meth:`Finding.baseline_key` -> grandfathered
    count; each key absorbs up to that many matching findings.  With
    ``deep=True`` the parsed contexts are additionally fed to the
    whole-program dataflow pass (:mod:`repro.lint.flow`); deep findings
    flow through the same suppression and baseline machinery.
    """
    flat_rules, deep_rules = split_selection(select, deep)
    all_kept: List[Finding] = []
    suppressed = 0
    files = 0
    contexts: List[FileContext] = []
    for path in iter_python_files(paths):
        files += 1
        ctx, error = load_context(path)
        if error is not None:
            all_kept.append(error)
            continue
        kept, silenced = check_context(ctx, flat_rules)
        all_kept.extend(kept)
        suppressed += silenced
        if deep:
            contexts.append(ctx)

    if deep and contexts and deep_rules:
        from repro.lint.flow import analyze  # late: flow imports engine

        source_by_path = {ctx.path: ctx.source for ctx in contexts}
        raw_deep = analyze(contexts, deep_rules)
        for f in raw_deep:
            source = source_by_path.get(f.path)
            if source is None:
                all_kept.append(f)
                continue
            kept, silenced = _filter_suppressed([f], source)
            all_kept.extend(kept)
            suppressed += silenced

    remaining = dict(baseline or {})
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    for f in sorted(all_kept, key=Finding.sort_key):
        key = f.baseline_key()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            grandfathered.append(f)
        else:
            new.append(f)
    return LintResult(findings=new, baselined=grandfathered,
                      suppressed=suppressed, files_checked=files, deep=deep)
