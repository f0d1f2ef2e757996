"""Baseline files: grandfathered findings that don't gate CI.

A baseline lets the linter land strict rules on a codebase with existing
violations: current findings are recorded once, the gate then fails only
on *new* findings, and the recorded debt burns down monotonically (the
shipped ``.repro-lint-baseline.json`` is empty — ``src/repro`` is clean).

Matching is line-insensitive: a finding is identified by
``(path, rule, message)`` with a count, so unrelated edits that shift
line numbers don't resurrect grandfathered findings, while adding a
*second* instance of the same pattern in the same file is still new.

File format (JSON)::

    {
      "version": 1,
      "findings": [
        {"path": "src/x.py", "rule": "HOTLOOP", "message": "...", "count": 2}
      ]
    }
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.artifacts import atomic_write
from repro.lint.engine import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"

BaselineKey = Tuple[str, str, str]  # (path, rule, message)


class BaselineError(ValueError):
    """Raised for unreadable or structurally invalid baseline files."""


def load_baseline(path: Union[str, Path]) -> Dict[BaselineKey, int]:
    """Read a baseline file into a ``key -> count`` map."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "findings" not in payload:
        raise BaselineError(f"baseline {path} lacks a 'findings' list")
    version = payload.get("version", BASELINE_VERSION)
    if version != BASELINE_VERSION:
        raise BaselineError(
            f"baseline {path} has version {version}, expected {BASELINE_VERSION}"
        )
    counts: Dict[BaselineKey, int] = {}
    for entry in payload["findings"]:
        if not isinstance(entry, dict):
            raise BaselineError(f"baseline {path}: entries must be objects")
        try:
            key = (str(entry["path"]), str(entry["rule"]), str(entry["message"]))
        except KeyError as exc:
            raise BaselineError(
                f"baseline {path}: entry missing field {exc}"
            ) from exc
        counts[key] = counts.get(key, 0) + int(entry.get("count", 1))
    return counts


def save_baseline(findings: Iterable[Finding], path: Union[str, Path]) -> int:
    """Write ``findings`` as a fresh baseline; returns entries written."""
    counter: Counter = Counter(f.baseline_key() for f in findings)
    entries: List[dict] = [
        {"path": key[0], "rule": key[1], "message": key[2], "count": count}
        for key, count in sorted(counter.items())
    ]
    payload = {"version": BASELINE_VERSION, "findings": entries}
    atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return len(entries)
