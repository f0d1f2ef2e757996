"""Deterministic folded-stack flamegraph of the span tree.

One line per unique root-to-span path — ``a;b;c <microseconds>`` — in
the classic Brendan-Gregg folded format every flamegraph renderer eats.
The value is the span's *exclusive* virtual time (its duration plus any
credited extrapolation, minus its children's duration and credit)
rounded to integer microseconds, and lines are emitted in sorted path
order, so two same-seed runs fold to byte-identical output and the
values sum to the run's total time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Path separator of the folded format; span names never contain it
#: (telemetry naming convention uses dots).
SEPARATOR = ";"


def folded_stacks(span_records: Sequence[dict]) -> Dict[str, int]:
    """Path -> exclusive virtual microseconds, aggregated over the run."""
    by_id = {r["id"]: r for r in span_records}
    # A phase credited under an epoch span (dur 0, credited > 0) covers
    # part of the epoch's duration just as a timed child does.
    child_time: Dict[object, float] = {}
    for record in span_records:
        parent = record.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) \
                + float(record.get("dur", 0.0)) \
                + float(record.get("credited", 0.0))
    paths: Dict[str, int] = {}
    for record in span_records:
        exclusive = float(record.get("dur", 0.0)) \
            + float(record.get("credited", 0.0)) \
            - child_time.get(record["id"], 0.0)
        micros = int(round(max(0.0, exclusive) * 1e6))
        if micros <= 0:
            continue
        path = _span_path(record, by_id)
        paths[path] = paths.get(path, 0) + micros
    return paths


def _span_path(record: dict, by_id: Dict[object, dict]) -> str:
    names: List[str] = []
    seen = set()
    current = record
    while current is not None and current["id"] not in seen:
        seen.add(current["id"])
        names.append(str(current.get("name", "?")))
        parent = current.get("parent")
        current = by_id.get(parent) if parent is not None else None
    return SEPARATOR.join(reversed(names))


def render_folded(paths: Dict[str, int]) -> str:
    """The folded text file: one sorted ``path value`` line per stack."""
    lines = [f"{path} {value}" for path, value in sorted(paths.items())]
    return "\n".join(lines) + ("\n" if lines else "")
