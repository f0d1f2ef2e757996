"""``repro lint`` — AST-based static analysis for the reproduction stack.

The paper's magnifying-glass methodology attributes framework-level
slowdowns to a handful of recurring code patterns.  This package turns
the ones the test suite cannot see into mechanical checks: per-element
Python loops on the hot path, silent float64 promotion, in-place
mutation of autograd buffers, and parameters that escape the optimizer.
Every rule is kept on evidence — a planted defect it catches that
tier-1 misses (``docs/lint.md``).

Everything here is stdlib-only (``ast`` + ``tokenize``): the linter must
run in CI before any heavy dependency is importable.

Public API:

* :func:`repro.lint.engine.lint_paths` — run the rules over files/dirs.
* :data:`repro.lint.rules.RULES` — the rule registry.
* :class:`repro.lint.engine.Finding` — one diagnostic.
"""

from repro.lint.engine import (
    FileContext, Finding, LintResult, LintUsageError, Rule, lint_paths,
)
from repro.lint.rules import RULES

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "LintUsageError",
    "Rule",
    "RULES",
    "lint_paths",
]
