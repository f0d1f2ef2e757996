"""Structural guards over the source tree: each row names one mechanism
that exists exactly once and fails if a second copy reappears, or one
kind of code that must not exist at all.

A guard is a pure-Python scan of the working tree (no git needed).  Each
row also carries a planted violation, and must catch it in a scratch
tree — a guard that cannot fail guards nothing.
"""

import argparse
import ast
import importlib
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _files(root: Path, tops: Sequence[str], exclude: Sequence[str]):
    for top in tops:
        base = root / top
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for path in paths:
            rel = path.relative_to(root).as_posix()
            if path.suffix in (".py", ".md") and not rel.startswith(
                    tuple(exclude)):
                yield rel, path.read_text(encoding="utf-8")


def grep(pattern: str, tops: Sequence[str] = ("src/repro",),
         exclude: Sequence[str] = ()) -> Callable[[Path], List[str]]:
    """A guard: every match of ``pattern`` under ``tops`` is a violation."""
    regex = re.compile(pattern, re.MULTILINE)

    def scan(root: Path) -> List[str]:
        return [f"{rel}:{text.count(chr(10), 0, m.start()) + 1}: {m.group()}"
                for rel, text in _files(root, tops, exclude)
                for m in regex.finditer(text)]
    return scan


def calls_within(functions: Sequence[str],
                 callee: str) -> Callable[[Path], List[str]]:
    """A guard: every call of ``callee`` inside a ``def`` named in
    ``functions`` under ``src/repro``."""
    def scan(root: Path) -> List[str]:
        return [f"{rel}:{call.lineno}: {callee}( in {node.name}"
                for rel, text in _files(root, ("src/repro",), ())
                if rel.endswith(".py")
                for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef)
                and node.name in functions
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == callee]
    return scan


def either(*scans: Callable[[Path], List[str]]) -> Callable[[Path], List[str]]:
    """A guard that reports what any of ``scans`` reports."""
    return lambda root: [hit for scan in scans for hit in scan(root)]


def absent(*paths: str) -> Callable[[Path], List[str]]:
    return lambda root: [p for p in paths if (root / p).exists()]


def schema_ids_spelled_twice(root: Path) -> List[str]:
    ids = Counter(m.group(1) for _, text in _files(root, ("src/repro",), ())
                  for m in re.finditer(r"""["'](repro\.[\w.]+/\d+)["']""",
                                       text))
    return [f"{schema} spelled {n} times" for schema, n in ids.items()
            if n > 1]


#: A dotted ``repro`` name opening a code span, with an optional call
#: suffix; schema ids (``repro.serve/1``) are not names.
_DOC_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\(.*?\))?`")


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def unresolved_doc_names(root: Path) -> List[str]:
    return [f"{rel}: `{m.group(1)}` does not resolve"
            for rel, text in _files(root, ("README.md", "docs"), ())
            for m in _DOC_NAME.finditer(text) if not _resolves(m.group(1))]


#: A backticked ``repro`` command, after optional ``VAR=value`` words and
#: ``python -m``: subcommand words, then options and arguments, across
#: line breaks.  A quoted message (``repro train: …``) or a placeholder
#: (``repro ...``) is not a command.
_DOC_COMMAND = re.compile(r"`(?:[A-Z_]+=\S+\s+)*(?:python3?\s+-m\s+)?"
                          r"repro\s+([a-z][\w|-]*(?:\s[^`]*)?)`")


def _command_problem(tokens: Sequence[str]) -> str:
    """Why ``repro <tokens>`` does not parse, or ``""``: each word names a
    subcommand while the parser has subcommands (``a|b`` names two), and
    every ``--option`` is one the subcommand path defines.  Brackets
    (``[--area --out-dir]``) are a synopsis, not syntax."""
    from repro.cli import build_parser

    parsers = [build_parser()]
    for token in tokens:
        token = token.strip("[]")
        subs = [action.choices for action in parsers[0]._actions
                if isinstance(action, argparse._SubParsersAction)]
        if subs and token and not token.startswith("-"):
            missing = [name for name in token.split("|")
                       if name not in subs[0]]
            if missing:
                return f"no subcommand {missing[0]!r}"
            parsers = [subs[0][name] for name in token.split("|")]
        elif token.startswith("--"):
            option = token.split("=")[0]
            if not all(option in parser._option_string_actions
                       for parser in parsers):
                return f"no option {option}"
    return ""


def undefined_doc_commands(root: Path) -> List[str]:
    problems = []
    for rel, text in _files(root, ("README.md", "docs"), ()):
        for m in _DOC_COMMAND.finditer(text):
            problem = _command_problem(m.group(1).split())
            if problem:
                line = text.count("\n", 0, m.start()) + 1
                problems.append(f"{rel}:{line}: `repro {m.group(1)}`: "
                                f"{problem}")
    return problems


#: Entry points: code that runs outside the test suite.  ``src/`` module
#: bodies count too — they run at import (registries, tables).
ENTRY_TOPS = ("src/repro/cli.py", "src/repro/__main__.py", "benchmarks",
              "examples", "perf")

#: ``src/`` definitions nothing outside the tests reaches, each with the
#: reason it stays.  Empty: such code is deleted or moved under tests/.
REACHABLE_ONLY_FROM_TESTS_ALLOWED: Dict[str, str] = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(nodes) -> set:
    """Every identifier a subtree loads or stores, imports excluded —
    re-exporting a name is not using it."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _body(nodes) -> list:
    return [n for n in nodes if not isinstance(n, (ast.Import, ast.ImportFrom))]


def only_tests_reach(root: Path) -> List[str]:
    """``src/`` definitions that no entry point reaches.

    The reference graph is by name, which over-approximates the call
    graph: a function, class or method is reached once reached code
    mentions its name (``f(...)``, ``obj.f``, ``fn=f``), a reached class
    reaches its bases, decorators, class body and dunder methods, and a
    definition a ``src/`` decorator registers is reached at import.  So a
    report is never a dynamic-dispatch false alarm: nothing outside the
    tests can name it.
    """
    defs: Dict[str, list] = {}   # simple name -> [(qualname, node)]
    live = set()
    for rel, text in _files(root, ("src/repro",), ()):
        tree = ast.parse(text)
        own = {n.name for n in tree.body if isinstance(n, _DEFS)}
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.setdefault(node.name, []).append((f"{rel}:{node.name}", node))
                if _mentions(node.decorator_list) & own:
                    live.add(node.name)
                if isinstance(node, ast.ClassDef):
                    for meth in node.body:
                        if isinstance(meth, _DEFS):
                            defs.setdefault(meth.name, []).append(
                                (f"{rel}:{node.name}.{meth.name}", meth))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                live |= _mentions([node])
    for rel, text in _files(root, ENTRY_TOPS, ()):
        if rel.endswith(".py"):
            live |= _mentions(_body(ast.parse(text).body))
    reached, todo = set(), set(live)
    while todo:
        for qualname, node in defs.get(todo.pop(), ()):
            if qualname in reached:
                continue
            reached.add(qualname)
            inner = list(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                inner += node.bases + [
                    n for n in node.body if not isinstance(n, _DEFS)]
                todo |= {m.name for m in node.body if isinstance(m, _DEFS)
                         and m.name.startswith("__")
                         and m.name.endswith("__")}
            else:
                inner += [node.args] + _body(node.body)
            todo |= _mentions(inner) - live
            live |= _mentions(inner)
    return sorted(q for entries in defs.values() for q, _ in entries
                  if q not in reached
                  and q not in REACHABLE_ONLY_FROM_TESTS_ALLOWED)


class Guard(NamedTuple):
    name: str
    scan: Callable[[Path], List[str]]
    planted: Dict[str, str]  # relative path -> text that must be caught


GUARDS = [
    Guard("one-overlap-engine (no scheduler or extrapolator outside the "
          "datapipe)",
          grep(r"LaneScheduler|_usage_snapshot|_extrapolate\(",
               exclude=("src/repro/datapipe/",)),
          {"src/repro/serving/x.py": "class LaneScheduler:\n    pass\n"}),
    Guard("one-layer-zoo (each conv layer is written once)",
          grep(r"^class .*Conv\b", exclude=("src/repro/frameworks/nn.py",)),
          {"src/repro/frameworks/zoo.py": "class GCNConv(Module):\n"}),
    Guard("one-layer-zoo (a framework is its profile)",
          absent("src/repro/frameworks/dglite", "src/repro/frameworks/pyglite"),
          {"src/repro/frameworks/dglite/__init__.py": ""}),
    Guard("one-layer-zoo (one sampler charging path)",
          grep(r"_CONVS|def _assemble|def has_fused"),
          {"src/repro/frameworks/base.py": "    def _assemble(self):\n"}),
    Guard("no-scalar-twin (an epoch is billed in one pass per concern: no "
          "per-row commit loop, no per-job _LaneJob in submit_chain or "
          "extrapolate beside the column pass)",
          either(grep(r"def commit_interval|def _union_merge"
                      r"|def _take_sample\(|log\(\(key,"),
                 calls_within(("submit_chain", "extrapolate"), "_LaneJob")),
          {"src/repro/simtime.py":
           "def commit_interval(self):\n"
           "    log((key, start, end, tag))\n",
           "src/repro/datapipe/pipeline.py":
           "def extrapolate(self, stages):\n"
           "    for stage in stages:\n"
           "        jobs.append(_LaneJob(len(jobs), stage.lanes[0]))\n"}),
    Guard("one-owner-of-host-time (the sweep artifact records nothing "
          "volatile or derived)",
          grep(r"\b(?:wall_s|check_cost_invariance|stats_payload)\b",
               tops=("src/repro", "docs", "README.md")),
          {"docs/bench.md": "Each cell records `wall_s`.\n"}),
    Guard("one-artifact-layer (only repro.artifacts writes files)",
          grep(r"os\.replace|tempfile|\.write_text\(|\.write_bytes\("
               r"|refusing to write",
               exclude=("src/repro/artifacts.py",)),
          {"src/repro/datasets/x.py": "path.write_text(text)\n"}),
    Guard("one-artifact-layer (np.savez only into an in-memory buffer)",
          grep(r"np\.savez\w*\((?!\s*buffer\b)",
               exclude=("src/repro/artifacts.py",)),
          {"src/repro/models/checkpoint.py": "np.savez(\n    path, **a)\n"}),
    Guard("one-artifact-layer (repro.bench.artifacts is imported only by "
          "bench and the CLI)",
          grep(r"(?:from|import)\s+repro\.bench\.artifacts\b",
               exclude=("src/repro/bench/", "src/repro/cli.py")),
          {"src/repro/telemetry/x.py":
           "    from repro.bench.artifacts import SWEEP\n"}),
    Guard("one-artifact-layer (the layers below bench never import it)",
          grep(r"(?:from|import)\s+repro\.bench\b",
               tops=tuple(f"src/repro/{pkg}" for pkg in (
                   "telemetry", "serving", "profiling", "models", "datasets",
                   "lint"))),
          {"src/repro/serving/engine.py":
           "    from repro.bench.harness import MODEL_BUILDERS\n"}),
    Guard("one-artifact-layer (each schema id is spelled once)",
          schema_ids_spelled_twice,
          {"src/repro/telemetry/a.py": 'A = "repro.telemetry.events/1"\n',
           "src/repro/telemetry/b.py": "B = 'repro.telemetry.events/1'\n"}),
    Guard("one-recovery-loop (only repro.resilience reads a fault's "
          "severity or backoff)",
          # Lint rules carry an unrelated ``severity`` (error/warning).
          grep(r"InjectedFault|with_retries|backoff_delay\(|\.severity\b",
               exclude=("src/repro/resilience/", "src/repro/lint/")),
          {"src/repro/datapipe/x.py":
           "wasted += clean.total * fault.severity\n"}),
    Guard("one-recovery-loop (only repro.resilience records a fault "
          "outcome)",
          grep(r"\brecord(_\w+)?\(\s*[\"'](injected|recovered|retries|"
               r"degraded|storage\.read|transfer\.h2d|sampler\.worker|"
               r"replica)[\"']|[\"']fault\.(injected|recovered|retries|"
               r"degraded)[\"']",
               exclude=("src/repro/resilience/",)),
          {"src/repro/distributed/trainer.py":
           '            injector.record_injected("replica", "dead")\n'}),
    Guard("no-front-pop-queue (list.pop(0) is O(n), so a BFS on it is "
          "quadratic)",
          grep(r"\.pop\(\s*0\s*\)"),
          {"src/repro/graph/partition.py": "        node = queue.pop(0)\n"}),
    Guard("row-memo-only-in-serving (a RowMemo is exact only for full "
          "neighbourhoods over raw features, so only serving attaches one; "
          "kernels/adj.py sets the None default)",
          grep(r"row_memo\s*=(?!=)(?!\s*None$)",
               exclude=("src/repro/serving/",)),
          {"src/repro/models/trainer.py":
           "        blocks[0].row_memo = RowMemo(n, f)\n"}),
    Guard("row-memo-built-once (RowMemo.of in kernels/adj.py decides a "
          "memo's lifetime and threshold, so nothing else constructs one)",
          grep(r"\bRowMemo\(", exclude=("src/repro/kernels/adj.py",)),
          {"src/repro/serving/engine.py":
           "    memo = RowMemo(x_host, min_degree=1.0)\n"}),
    Guard("one-host-memory-policy (only repro.hostmem tunes malloc or maps "
          "pages)",
          grep(r"\bmallopt\b|\bmalloc_trim\b|mmap\.mmap\(",
               exclude=("src/repro/hostmem.py",)),
          {"src/repro/serving/x.py": "pages = mmap.mmap(-1, nbytes)\n"}),
    Guard("docs-name-what-exists (every backticked repro.x.y name in "
          "README.md and docs/ resolves by import and getattr)",
          unresolved_doc_names,
          {"docs/kernels.md": "Rows live in `repro.kernels.adj.RowCache`.\n"}),
    Guard("docs-commands-exist (every backticked repro command in "
          "README.md and docs/ names a subcommand path and options that "
          "cli.build_parser() defines)",
          undefined_doc_commands,
          {"docs/x.md": "Rebuild it with `repro report --telemetry`.\n"}),
    Guard("nothing-only-tests-reach (every src definition has a caller "
          "outside the tests)",
          only_tests_reach,
          {"src/repro/graph/extra.py": "def orphan():\n    return 1\n",
           "tests/test_extra.py": "from repro.graph.extra import orphan\n\n"
                                  "def test_orphan():\n"
                                  "    assert orphan() == 1\n"}),
]


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.name)
def test_tree_holds(guard):
    assert guard.scan(REPO_ROOT) == []


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.name)
def test_guard_catches_a_planted_violation(guard, tmp_path):
    for rel, text in guard.planted.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    (tmp_path / "docs").mkdir(exist_ok=True)
    (tmp_path / "README.md").write_text("")
    assert guard.scan(tmp_path)
