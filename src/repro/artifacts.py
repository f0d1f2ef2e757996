"""The artifact layer: how every file the package writes is written, read
and schema-checked.  Stdlib only, so every package may depend on it.

A versioned JSON format is one :class:`Format`: a schema id, a *shape*
and, optionally, a ``check`` for what a shape cannot express.  A shape is
plain data: a type or tuple of types, a dict of required keys (others
allowed), :class:`Opt` (missing or null allowed), :class:`ListOf`,
:class:`MapOf` (free-form keys) or :class:`OneOf` (a fixed set of values).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

NUM = (int, float)


@dataclass(frozen=True)
class Opt:
    shape: object


@dataclass(frozen=True)
class ListOf:
    shape: object
    non_empty: bool = False


@dataclass(frozen=True)
class MapOf:
    shape: object


class OneOf:
    def __init__(self, *choices: object) -> None:
        self.choices = choices


def conform(value: object, shape: object, path: str = "") -> List[str]:
    """Problems of ``value`` against ``shape``, each led by its path."""
    where = path or "payload"
    if isinstance(shape, (type, tuple)):
        types = shape if isinstance(shape, tuple) else (shape,)
        return [] if isinstance(value, types) else [
            f"{where}: expected {' or '.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"]
    if isinstance(shape, Opt):
        return [] if value is None else conform(value, shape.shape, path)
    if isinstance(shape, OneOf):
        return [] if value in shape.choices else [
            f"{where}: {value!r} is not one of {shape.choices}"]
    if isinstance(shape, ListOf):
        if not isinstance(value, list) or (shape.non_empty and not value):
            return conform(value, list, path) or [f"{where}: must not be empty"]
        return [problem for index, item in enumerate(value)
                for problem in conform(item, shape.shape, f"{path}[{index}]")]
    if not isinstance(value, dict):
        return conform(value, dict, path)
    if isinstance(shape, MapOf):
        return [problem for key, item in value.items()
                for problem in conform(item, shape.shape, f"{path}[{key!r}]")]
    problems: List[str] = []
    for key, sub in shape.items():
        inner = f"{path}.{key}" if path else key
        if key in value:
            problems += conform(value[key], sub, inner)
        elif not isinstance(sub, Opt):
            problems.append(f"{inner}: missing")
    return problems


def summarize(problems: List[str]) -> str:
    """The first problem, with a count of the rest."""
    more = len(problems) - 1
    return problems[0] + (f" (+{more} more)" if more else "")


@dataclass(frozen=True)
class Format:
    """One versioned JSON artifact format."""

    schema: str
    shape: dict
    check: Optional[Callable[[dict], List[str]]] = None
    remedy: str = ""  # ends the unknown-schema problem, e.g. "; re-run X"

    def validate(self, payload: object) -> List[str]:
        """Problems, empty when ``payload`` conforms.  Another schema id is
        the one problem; ``check`` runs only once the shape conforms."""
        if not isinstance(payload, dict):
            return conform(payload, dict)
        if payload.get("schema") != self.schema:
            return [f"unknown schema {payload.get('schema')!r} "
                    f"(expected {self.schema}{self.remedy})"]
        problems = conform(payload, self.shape)
        if not problems and self.check is not None:
            problems = self.check(payload)
        return problems

    def write(self, path: Union[str, Path], payload: dict) -> Path:
        """Validate, then atomically write the canonical bytes."""
        problems = self.validate(payload)
        if problems:
            raise ValueError(f"refusing to write invalid {self.schema} "
                             f"payload: {summarize(problems)}")
        return atomic_write(path, dumps(payload))


def dumps(payload: object) -> str:
    """The canonical serialisation: sorted keys, indent 2, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load(path: Union[str, Path]) -> object:
    """Parse one JSON artifact; ``ValueError`` when it is not JSON."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> Path:
    """Write ``data`` (``str`` as utf-8) to ``path`` via temp file + rename:
    a crash mid-write leaves the old file or nothing, never a prefix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str)
                         else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
