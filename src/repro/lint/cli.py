"""CLI glue for the ``repro lint`` subcommand.

Kept separate from ``repro.cli`` so the linter stays importable without
the numeric stack and so ``repro.cli`` only wires one function pair.
"""

from __future__ import annotations

import argparse

from repro.lint.engine import LintUsageError, lint_paths
from repro.lint.rules import RULES


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "lint",
        help="static analysis: hot-path and autograd invariants",
        description=(
            "AST-based lint over the reproduction stack. Rules: "
            + ", ".join(f"{r.name} ({r.severity})" for r in RULES.values())
            + ". Exit 0 when clean, 1 on findings, 2 when nothing can be "
            "checked (unknown rule, missing path, no Python files)."
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule names to run "
                             f"(default: all of {', '.join(RULES)})")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.name:<14}{rule.severity:<9}{rule.description}")
        return 0
    select = args.select.split(",") if args.select else None
    try:
        result = lint_paths(args.paths, select=select)
    except LintUsageError as exc:
        print(f"error: {exc}")
        return 2
    for f in result.findings:
        print(f"{f.path}:{f.line}:{f.col + 1}: {f.rule} [{f.severity}] "
              f"{f.message}")
    print(f"{len(result.findings)} finding(s) in {result.files_checked} "
          f"file(s) ({result.suppressed} suppressed)")
    return 0 if result.ok else 1
