"""Inline suppression comments: ``# repro-lint: disable=RULE``.

Two forms are recognized:

* ``# repro-lint: disable=RULE1,RULE2`` — silences those rules for the
  statement on that physical line.  Because a finding records the full
  line *span* of the offending expression, the comment may sit on any
  line of a multi-line expression.
* ``# repro-lint: disable-file=RULE1,RULE2`` — silences those rules for
  the whole file (any line).

``disable=all`` / ``disable-file=all`` silence every rule.  Trailing
free text after the rule list (a justification) is encouraged and
ignored by the parser::

    probs = counts.astype(np.float64)  # repro-lint: disable=DTYPE-DRIFT choice() needs f64

Suppressions are extracted with :mod:`tokenize` so strings that merely
*contain* the marker are never misread as comments.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

_MARKER = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\-]+)"
)


@dataclass
class SuppressionIndex:
    """Per-file map of which rules are silenced on which lines."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_level: Set[str] = field(default_factory=set)

    def add(self, line: int, rules: Set[str]) -> None:
        self.by_line.setdefault(line, set()).update(rules)

    def is_suppressed(self, rule: str, span: Tuple[int, int]) -> bool:
        rule = rule.upper()
        if "ALL" in self.file_level or rule in self.file_level:
            return True
        lo, hi = span
        if hi < lo:
            lo, hi = hi, lo
        for line in range(lo, hi + 1):
            tags = self.by_line.get(line)
            if tags and ("ALL" in tags or rule in tags):
                return True
        return False


def _parse_rules(spec: str) -> Set[str]:
    return {name.strip().upper() for name in spec.split(",") if name.strip()}


def suppressions_for_source(source: str) -> SuppressionIndex:
    """Scan ``source`` for suppression comments.

    Unreadable/untokenizable sources yield an empty index — the engine
    reports the syntax error separately; suppressions just stay inert.
    """
    index = SuppressionIndex()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _MARKER.search(tok.string)
            if not match:
                continue
            rules = _parse_rules(match.group("rules"))
            if match.group("kind") == "disable-file":
                index.file_level.update(rules)
            else:
                index.add(tok.start[0], rules)
    except (tokenize.TokenError, IndentationError):
        pass
    return index
