"""Virtual time for the simulated machine.

All runtimes reported by the benchmark harness come from a
:class:`VirtualClock` that kernels and transfers advance explicitly.  Real
numpy execution time never leaks into results, which makes every figure
deterministic and lets the cost models represent the paper's testbed (dual
Xeon Silver 4114 + Quadro RTX 8000) rather than this container.

Devices can advance the clock in two modes:

* ``advance(dt)`` — serial progress: the whole machine moves forward.
* ``occupy(device_key, dt)`` — per-device busy tracking used by the power
  model to integrate dynamic power only while a device is actually busy.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

#: Tolerance for interval-ordering checks (floating-point bookkeeping).
_EPS = 1e-9


@dataclass
class DeferredRecord:
    """Work measured inside a :meth:`VirtualClock.deferred` block."""

    total: float = 0.0
    busy: Dict[str, float] = field(default_factory=dict)


@dataclass
class BusyInterval:
    """A half-open interval [start, end) during which a device was busy."""

    device: str
    start: float
    end: float
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class VirtualClock:
    """A monotonically advancing simulated clock with busy-interval tracking."""

    def __init__(self) -> None:
        self._now: float = 0.0
        #: The open :meth:`deferred` block's record, if any.
        self._defer_record: Optional["DeferredRecord"] = None
        #: (key, start, end, tag) rows and :class:`_BusyRows` chunks in
        #: commit order; ``busy_intervals()`` materialises
        #: :class:`BusyInterval` objects on read.
        self._busy: List[Union[Tuple[str, float, float, str], "_BusyRows"]] = []
        # Per-device sorted indexes for O(log n) busy_time queries: the
        # energy monitor samples busy_time thousands of times per run.
        # Intervals per device are disjoint and start-ordered because the
        # clock is serial.  Double arrays: appended to like lists, read by
        # numpy without a copy.
        self._starts: Dict[str, array] = {}
        self._ends: Dict[str, array] = {}
        self._cumdur: Dict[str, array] = {}
        self._listeners: List[Callable[[float, float], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def add_listener(self, fn: Callable[[float, float], None]) -> None:
        """Register ``fn(old_now, new_now)`` to run on every advance."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[float, float], None]) -> None:
        self._listeners.remove(fn)

    def advance(self, dt: float) -> None:
        """Move simulated time forward by ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        if self._defer_record is not None:
            self._defer_record.total += dt
            return
        old = self._now
        self._now += dt
        for fn in self._listeners:
            fn(old, self._now)

    def occupy(self, device: str, dt: float, tag: str = "") -> None:
        """Advance the clock by ``dt`` and mark ``device`` busy during it."""
        if dt < 0:
            raise ValueError(f"cannot occupy for negative dt={dt}")
        rec = self._defer_record
        if rec is not None:
            rec.total += dt
            rec.busy[device] = rec.busy.get(device, 0.0) + dt
            return
        # Record the interval before advancing so clock listeners (power
        # sampling) see the kernel that is causing this advance.
        if dt > 0:
            self._record(device, self._now, self._now + dt, dt, tag)
        self.advance(dt)

    def _record(self, key: str, start: float, end: float, seconds: float,
                tag: str) -> None:
        """Append one busy interval to ``key``'s trace and sorted indexes.

        ``seconds`` is passed rather than derived: ``(start + dt) - start``
        is not ``dt`` in floating point, and busy sums feed the energy
        integral.
        """
        self._busy.append((key, start, end, tag))
        starts, ends, cum = self._index(key)
        starts.append(start)
        ends.append(end)
        cum.append(cum[-1] + seconds)

    @contextmanager
    def deferred(self) -> Iterator["DeferredRecord"]:
        """Measure work inside the block without applying it to the clock.

        Every ``advance``/``occupy`` inside the block accumulates into the
        returned :class:`DeferredRecord` (total seconds + per-device busy)
        and leaves ``now`` untouched.  The caller decides how to apply the
        measured cost afterwards — the datapipe scales it by the stage's
        worker inflation and places it on the stage's lane.  Nesting is
        not supported.
        """
        if self._defer_record is not None:
            raise RuntimeError("deferred() blocks cannot nest")
        record = self._defer_record = DeferredRecord()
        try:
            yield record
        finally:
            self._defer_record = None

    def occupy_parallel(self, durations: Dict[str, float],
                        tag: str = "parallel") -> None:
        """Mark several devices busy over the same window.

        A synchronous parallel region (e.g. a ring all-reduce): every
        device is busy from ``now`` and the clock advances by the longest
        duration.  Inside a :meth:`deferred` block the same cost goes to
        the open record instead — per-device busy seconds plus the longest
        duration on ``total`` — and ``now`` stays put.
        """
        durations = {d: dt for d, dt in durations.items() if dt > 0}
        if not durations:
            return
        longest = max(durations.values())
        if self._defer_record is not None:
            self._defer_record.total += longest
            self.credit_busy(durations)
            return
        for device, dt in durations.items():
            self._record(device, self._now, self._now + dt, dt, tag)
        self.advance(longest)

    def credit_busy(self, durations: Dict[str, float]) -> None:
        """Credit devices that worked *concurrently* with the open
        :meth:`deferred` block: busy seconds on the record, no time on its
        ``total`` (the data-parallel trainer's replicas mirror rank 0).
        There is no live-timeline form — a clock never writes busy
        intervals into its past."""
        if self._defer_record is None:
            raise RuntimeError("credit_busy() needs an open deferred() block")
        busy = self._defer_record.busy
        for device, dt in durations.items():
            busy[device] = busy.get(device, 0.0) + dt

    @property
    def deferred_seconds(self) -> float:
        """Seconds measured so far by the open :meth:`deferred` block (0.0
        outside one) — ``now`` does not move inside it."""
        record = self._defer_record
        return 0.0 if record is None else record.total

    def commit_schedule(self, start: np.ndarray, seconds: np.ndarray,
                        device: np.ndarray, devices: Sequence[str],
                        lane: np.ndarray, lanes: Sequence[str],
                        tag: np.ndarray, tags: Sequence[str]) -> None:
        """Record an externally scheduled multi-lane timeline in one pass.

        The datapipe's lane scheduler hands over its whole schedule as
        columns: row ``i`` keeps ``devices[device[i]]`` busy on lane
        ``lanes[lane[i]]`` for ``seconds[i]`` from ``start[i]``, tagged
        ``tags[tag[i]]``.  Rows may lie in the clock's *future* (the caller
        advances afterwards) but must be start-ordered and disjoint per
        key, or nothing is recorded.  A row is recorded under the
        ``device@lane`` key (its own trace lane) and merged into the base
        device's busy-time index as a *union* across lanes, so power
        metering — which asks ``busy_time(device)`` — sees the device busy
        whenever any of its lanes is.

        One array pass over every used key and every base device at once:
        each live row sits in its key's run and in its device's run, and the
        running maximum of the ends before it (``np.maximum.accumulate``)
        gives the overlap check, the ``_EPS`` clip and where a union
        interval opens; ``np.add.accumulate`` then adds each run's seconds
        in row order, as a row loop would.  A lane key is written only
        here, so its device's union always reaches at least as far.
        """
        if not all(lanes):
            raise ValueError("every lane of a schedule needs a name")
        start = np.asarray(start, dtype=float)
        end = start + np.asarray(seconds, dtype=float)
        # The first offending row raises, as appending row by row would.
        errors = {}
        if (end < start).any():
            row = int((end < start).argmax())
            errors[row] = (f"interval ends before it starts "
                           f"({start[row]}..{end[row]})")
        live = (end > start).nonzero()[0]
        n = len(live)
        if not n:
            if errors:
                raise ValueError(errors[min(errors)])
            return
        # Runs: each key's live rows (run ``device * nlanes + lane``), then
        # each device's (run ``keys + device``, from element ``n`` on), in
        # row order.  Grid cell ``cell - 1`` of an element holds its run's
        # value before it.
        nlanes, keys = len(lanes), len(devices) * len(lanes)
        code = np.asarray(device, dtype=np.intp)[live]
        run = np.concatenate((code * nlanes + np.asarray(lane)[live],
                              keys + code))
        row = np.concatenate((live, live))[np.argsort(run, kind="stable")]
        # Each used run's code, size and first element; each element's run
        # and 1-based place in it.
        size = np.bincount(run)
        ids = size.nonzero()[0]
        size = size[ids]
        first = np.cumsum(size) - size
        seg = np.repeat(np.arange(len(ids)), size)
        names = [f"{devices[i // nlanes]}@{lanes[i % nlanes]}" if i < keys
                 else devices[i - keys] for i in ids.tolist()]
        width = int(size.max()) + 1
        cell = seg * width + np.arange(1, 2 * n + 1) - first[seg]
        begin, stop = start[row], end[row]
        reach = _accumulate(np.maximum, [
            self._ends[name][-1] if self._ends.get(name) else -np.inf
            for name in names], width, cell, stop)
        before, after = reach[cell - 1], reach[cell]
        over = (begin[:n] < before[:n] - _EPS).nonzero()[0]
        if len(over):
            i = over[np.argmin(row[over])]
            errors[row[i]] = (
                f"interval [{begin[i]}, {stop[i]}) overlaps existing busy "
                f"time on {names[seg[i]]!r} (last end {before[i]})")
        if errors:
            raise ValueError(errors[min(errors)])
        # A lane row is clipped to its key's reach; a device row opens an
        # interval past its union's reach, else extends the one it meets.
        opens = begin > before + _EPS
        low = np.where(opens, begin, before)
        low[:n] = np.maximum(begin[:n], before[:n])
        total = _accumulate(np.add, [
            self._cumdur[name][-1] if name in self._cumdur else 0.0
            for name in names], width, cell, np.maximum(stop - low, 0.0))[cell]
        # A lane row that keeps any time is an interval of its own (its
        # ``after`` is its ``stop``); a device row closes an interval if it
        # is its run's last or the next row opens one.
        opens[:n] = stop[:n] > low[:n]
        closes = np.empty_like(opens)
        np.logical_or(opens[1:], seg[1:] != seg[:-1], out=closes[:-1])
        closes[:n], closes[-1] = opens[:n], True
        opened, closed = opens.nonzero()[0], closes.nonzero()[0]
        o, c = (np.searchsorted(x, first).tolist() + [len(x)]
                for x in (opened, closed))
        # Each run's new interval starts, and its ends and cumulative
        # seconds where an interval closes.
        lo, hi, cum = low[opened], after[closed], total[closed]
        for s, name in enumerate(names):
            starts, ends, cums = self._index(name)
            lead = c[s + 1] - c[s] - (o[s + 1] - o[s])
            if lead:  # its first rows extend the trailing interval
                ends[-1], cums[-1] = hi[c[s]], cum[c[s]]
            starts.frombytes(lo[o[s]:o[s + 1]].tobytes())
            ends.frombytes(hi[c[s] + lead:c[s + 1]].tobytes())
            cums.frombytes(cum[c[s] + lead:c[s + 1]].tobytes())
        kept = opened[:np.count_nonzero(opens[:n])]  # the lane rows
        if len(kept):
            self._busy.append(_BusyRows(names, row[kept], seg[kept],
                                        lo[:len(kept)], hi[:len(kept)],
                                        list(tags), np.asarray(tag)[row[kept]]))

    def _index(self, key: str) -> Tuple[array, array, array]:
        """``key``'s (starts, ends, cumulative seconds), created on first use."""
        if key not in self._starts:
            self._starts[key], self._ends[key] = array("d"), array("d")
            self._cumdur[key] = array("d", (0.0,))
        return self._starts[key], self._ends[key], self._cumdur[key]

    def busy_time(self, device: str, start: Union[float, np.ndarray] = 0.0,
                  end: Union[float, np.ndarray, None] = None
                  ) -> Union[float, np.ndarray]:
        """Total busy seconds for ``device`` within [start, end).

        ``start``/``end`` may be arrays — one window per element, ``start``
        broadcast against ``end`` — and then so is the result; every
        element goes through the same clip arithmetic.
        """
        if not self._starts.get(device):
            return np.zeros(np.shape(end)) if np.ndim(end) else 0.0
        starts = np.asarray(start, dtype=float)
        ends = np.asarray(self._now if end is None else end, dtype=float)
        first, last, cum = map(np.frombuffer, self._index(device))
        # Intervals are disjoint and ordered; find each overlapping slice.
        lo = last.searchsorted(starts, side="right")
        hi = first.searchsorted(ends, side="left")
        busy = cum[hi] - cum[lo]
        # Clip the leading and the trailing interval (an empty slice reads
        # a neighbour, and is discarded below).
        busy -= np.maximum(0.0, starts - first[np.minimum(lo, len(first) - 1)])
        busy -= np.maximum(0.0, last[hi - 1] - ends)
        total = np.where((lo < hi) & (ends > starts), np.maximum(0.0, busy), 0.0)
        return total if total.ndim else float(total)

    def busy_intervals(self, device: Optional[str] = None) -> List[BusyInterval]:
        """Busy intervals, optionally filtered by device key."""
        rows = chain.from_iterable(
            (entry,) if type(entry) is tuple else entry.rows()
            for entry in self._busy)
        return [BusyInterval(*row) for row in rows
                if device is None or row[0] == device]


def _accumulate(ufunc: np.ufunc, seeds: List[float], width: int,
                cell: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` along every run from its seed in one call, on a
    grid whose row ``s`` holds ``seeds[s]`` and then run ``s``'s values (at
    the flat indexes ``cell``); returned flat.  Cells past a run's end are
    never read."""
    grid = np.zeros((len(seeds), width))
    grid[:, 0] = seeds
    grid.reshape(-1)[cell] = values
    return ufunc.accumulate(grid, axis=1).reshape(-1)


class _BusyRows(NamedTuple):
    """The rows one ``commit_schedule`` call recorded, as columns (``row``
    is each one's place in commit order)."""

    names: List[str]
    row: np.ndarray
    key: np.ndarray
    start: np.ndarray
    end: np.ndarray
    tags: List[str]
    tag: np.ndarray

    def rows(self) -> Iterator[Tuple[str, float, float, str]]:
        """``(key, start, end, tag)`` tuples, in commit order."""
        order = np.argsort(self.row)
        return zip(map(self.names.__getitem__, self.key[order].tolist()),
                   self.start[order].tolist(), self.end[order].tolist(),
                   map(self.tags.__getitem__, self.tag[order].tolist()))
