"""Structural guards over the source tree: each row names one mechanism
that exists exactly once and fails if a second copy reappears, or one
kind of code that must not exist at all.

A guard is a pure-Python scan of the working tree (no git needed).  Each
row also carries a planted violation, and must catch it in a scratch
tree — a guard that cannot fail guards nothing.

Four rows are code rules over the AST (HOTLOOP, INPLACE-GRAD, PARAM-REG,
DTYPE-DRIFT): defects that leave every output and pin unchanged, so no
other test sees them.  Their planted violations are the mutation audit
in ``docs/guards.md``, replayed on the real file; the code they name but
must allow is an :class:`Allowed` entry with its reason.
"""

import argparse
import ast
import functools
import importlib
import re
import textwrap
from collections import Counter
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, NamedTuple, Sequence,
                    Tuple)

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


class Parsed(NamedTuple):
    tree: ast.Module
    nodes: List[ast.AST]               # every node, walked once
    parents: Dict[ast.AST, ast.AST]    # child -> parent


@functools.lru_cache(maxsize=None)
def parse(text: str) -> Parsed:
    """One parse and one walk per file text, shared by every row."""
    tree = ast.parse(text)
    nodes = list(ast.walk(tree))
    return Parsed(tree, nodes, {child: node for node in nodes
                                for child in ast.iter_child_nodes(node)})


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
        tree = parse(text).tree
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
            live |= _mentions(_body(parse(text).tree.body))
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


#: A backticked dotted lower-case name (a span, metric or file name).
_DOC_TELEMETRY_NAME = re.compile(r"`([a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")


def unknown_doc_telemetry_names(root: Path) -> List[str]:
    """Span and metric names in the telemetry and resilience docs that no
    ``src/repro`` text spells: as a literal or attribute chain
    (``fault.rank``), or as an f-string family (``f"fault.{event}"``).
    File names and ``repro.`` paths are the other doc rows' business."""
    code = "\n".join(text for rel, text in _files(root, ("src/repro",), ())
                     if rel.endswith(".py"))
    problems = []
    for rel, text in _files(root, ("docs/telemetry.md", "docs/resilience.md"),
                            ()):
        for m in _DOC_TELEMETRY_NAME.finditer(text):
            name = m.group(1)
            if name.endswith((".json", ".jsonl", ".prom")) or \
                    name.startswith("repro."):
                continue
            family = re.escape(name.rsplit(".", 1)[0]) + r"\.\{"
            if not re.search(rf"(?<!\w)(?:{re.escape(name)}(?!\w)|{family})",
                             code):
                line = text.count("\n", 0, m.start()) + 1
                problems.append(f"{rel}:{line}: `{name}` is spelled nowhere "
                                "in src/repro")
    return problems


# -- code rules ---------------------------------------------------------

#: Packages whose inner loops the paper's profiling puts on the hot path.
HOT_PATH = tuple(f"src/repro/{pkg}"
                 for pkg in ("sampling", "kernels", "tensor", "frameworks"))

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Allowed(NamedTuple):
    """One hit a code rule excuses: its file, the qualified name of the
    innermost function or class holding it, and why it is not the defect."""
    path: str
    function: str
    reason: str


def _qualname(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> str:
    names = []
    while node is not None:
        if isinstance(node, _SCOPES):
            names.append(node.name)
        node = parents.get(node)
    return ".".join(reversed(names)) or "<module>"


def code_rule(find: Callable[[Parsed], Iterator[Tuple[ast.AST, str]]],
              tops: Sequence[str] = ("src/repro",),
              exclude: Sequence[str] = (),
              allowed: Sequence[Allowed] = ()) -> Callable[[Path], List[str]]:
    """A guard: every node ``find`` yields in a ``.py`` file under ``tops``
    is a violation.  Each ``allowed`` entry excuses one hit in its file and
    function; an entry with nothing left to excuse in a file that exists
    is a violation too, so the list cannot go stale."""
    def scan(root: Path) -> List[str]:
        spare = Counter((a.path, a.function) for a in allowed)
        hits = []
        for rel, text in _files(root, tops, exclude):
            if not rel.endswith(".py"):
                continue
            parsed = parse(text)
            for node, what in find(parsed):
                where = _qualname(node, parsed.parents)
                if spare[rel, where]:
                    spare[rel, where] -= 1
                else:
                    hits.append(f"{rel}:{node.lineno}: {what} in {where}")
        return hits + [f"{path}: allowed hit in {function} is gone"
                       for (path, function), left in spare.items()
                       if left and (root / path).exists()]
    return scan


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return ""


def _counts_elements(node: ast.AST) -> bool:
    """``len(x)``, ``x.size`` or ``x.shape[i]``: an array's extent."""
    return (isinstance(node, ast.Call) and _dotted(node.func) == "len"
            and bool(node.args)
            or isinstance(node, ast.Attribute) and node.attr == "size"
            or isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape")


def _per_element(it: ast.AST) -> str:
    """Why iterating ``it`` walks array elements one by one, or ``""``.
    A strided ``range(a, b, step)`` is minibatch iteration, not that."""
    if isinstance(it, ast.Attribute) and it.attr == "flat":
        return ".flat iterates array elements in Python"
    if not isinstance(it, ast.Call):
        return ""
    name = _dotted(it.func)
    if name == "range":
        return ("range() over an array's element count"
                if len(it.args) < 3 and any(map(_counts_elements, it.args))
                else "")
    if name in ("enumerate", "zip", "map", "filter", "reversed", "sorted"):
        return next(filter(None, map(_per_element, it.args)), "")
    if isinstance(it.func, ast.Attribute) and it.func.attr == "tolist":
        return ".tolist() materializes the array into Python objects"
    if name.endswith(("nditer", "ndenumerate")):
        return f"{name.rsplit('.', 1)[-1]}() iterates array elements in Python"
    return ""


def hot_loops(parsed: Parsed):
    for node in parsed.nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        for it in iters:
            reason = _per_element(it)
            if reason:
                yield node, f"HOTLOOP {reason}"


#: ndarray methods that mutate their receiver in place.
_MUTATING_METHODS = {"fill", "sort", "put", "resize", "partition",
                     "itemset", "setfield", "byteswap"}


def _tensor_buffer(node: ast.AST) -> str:
    """``data``/``grad`` when ``node`` reaches into ``x.data``/``x.grad``
    (or a subscript of it); a plain local named ``data`` is not shared."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
        return node.attr
    return ""


def _under_no_grad(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                _dotted(getattr(item.context_expr, "func", item.context_expr))
                .rsplit(".", 1)[-1] == "no_grad" for item in node.items):
            return True
    return False


def inplace_grads(parsed: Parsed):
    for node in parsed.nodes:
        if isinstance(node, ast.Assign):
            targets = [e for t in node.targets
                       for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
            verb = "assignment"
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
            verb = ("augmented assignment"
                    if isinstance(node, ast.AugAssign) else "assignment")
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATING_METHODS:
            targets = [node.func.value]
            verb = f"in-place .{node.func.attr}()"
        else:
            continue
        for target in targets:
            buffer = _tensor_buffer(target)
            if buffer and not _under_no_grad(node, parsed.parents):
                yield node, (f"INPLACE-GRAD {verb} of a Tensor .{buffer} "
                             "buffer outside no_grad")


def _is_parameter(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and _dotted(node.func).rsplit(".", 1)[-1] == "Parameter")


def _reaches_self(target: ast.AST) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(map(_reaches_self, target.elts))
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        target = target.value
    return isinstance(target, ast.Name) and target.id == "self"


def _registers(use: ast.Name, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Could this read of the local register it?  Container literals keep
    its identity; then a call or ``return`` may register it, an assignment
    does when a target reaches ``self``, and anything else (``w.data``,
    ``w * 2``) derives a new value."""
    node = parents[use]
    while isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.Set,
                            ast.Starred)):
        node = parents[node]
    if isinstance(node, ast.Assign):
        return any(map(_reaches_self, node.targets))
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return _reaches_self(node.target)
    return isinstance(node, (ast.Call, ast.Return))


def unregistered_parameters(parsed: Parsed):
    for cls in parsed.nodes:
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if not isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or init.name != "__init__":
                continue
            for node in ast.walk(init):
                if isinstance(node, ast.Expr) and _is_parameter(node.value):
                    yield node, (f"PARAM-REG Parameter built in {cls.name}"
                                 ".__init__ is discarded")
                if not (isinstance(node, ast.Assign)
                        and _is_parameter(node.value)):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and not any(
                            _registers(use, parsed.parents)
                            for use in ast.walk(init)
                            if isinstance(use, ast.Name)
                            and use.id == target.id
                            and isinstance(use.ctx, ast.Load)
                            and (use.lineno, use.col_offset)
                            > (node.lineno, target.col_offset)):
                        yield node, (f"PARAM-REG Parameter {target.id!r} in "
                                     f"{cls.name}.__init__ never reaches "
                                     "self or a registering call")


def _float64(node: ast.AST) -> bool:
    """``np.float64``, ``"float64"``, bare ``float`` and their aliases."""
    if isinstance(node, ast.Constant):
        return node.value in ("float64", "double", "d")
    name = _dotted(node)
    return name == "float" or (
        bool(name) and name.rsplit(".", 1)[-1] in ("float64", "double",
                                                   "float_"))


def float64_promotions(parsed: Parsed):
    for node in parsed.nodes:
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "astype":
            if node.args and _float64(node.args[0]):
                yield node, "DTYPE-DRIFT astype to float64"
        elif _dotted(node.func).rsplit(".", 1)[-1] == "float64":
            yield node, "DTYPE-DRIFT np.float64() builds a double"
        elif any(kw.arg == "dtype" and _float64(kw.value)
                 for kw in node.keywords):
            yield node, "DTYPE-DRIFT dtype=float64 allocates doubles"


def _own_calls(fn: ast.AST) -> set:
    """Dotted names a function calls in its own body, nested scopes
    excluded."""
    names, todo = set(), list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES + (ast.Lambda,)):
            continue
        if isinstance(node, ast.Call):
            names.add(_dotted(node.func))
        todo.extend(ast.iter_child_nodes(node))
    return names


def uncharged_kernels(parsed: Parsed):
    for fn in parsed.tree.body:
        if isinstance(fn, ast.FunctionDef):
            calls = _own_calls(fn)
            if "Tensor" in calls and "charge" not in calls:
                yield fn, "builds a Tensor but charges nothing"


def charged_ops_without_shape_rule(parsed: Parsed):
    for fn in parsed.nodes:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = _own_calls(fn)
            if "charge" in calls and calls & {"Tensor", "Tensor._result"} \
                    and "placeholder" not in calls:
                yield fn, ("charges an op but its output never goes "
                           "through placeholder()")


def audit_plant(rel: str, anchor: str, plant: str) -> Dict[str, str]:
    """The real file ``rel`` with its one ``anchor`` replaced by ``plant``
    (``docs/guards.md``'s mutation audit).  A rewrite that drops the
    anchor leaves the file clean, and the planted-violation test fails."""
    text = (REPO_ROOT / rel).read_text(encoding="utf-8")
    return {rel: text.replace(anchor, plant) if text.count(anchor) == 1
            else text}



class Guard(NamedTuple):
    name: str
    scan: Callable[[Path], List[str]]
    planted: Dict[str, str]  # relative path -> text that must be caught


HOTLOOP = Guard(
    "HOTLOOP (no per-element Python loop over array data in the hot-path "
    "packages: removing exactly this bought the ~11x sampler win)",
    code_rule(hot_loops, tops=HOT_PATH, allowed=[
        Allowed("src/repro/kernels/spmm.py", "spmm._backward",
                "per head, not per element: H is tiny and each iteration "
                "is one full SpMM")]),
    audit_plant("src/repro/sampling/neighbor.py",
                "    examined = int(degrees.sum())\n",
                "    examined = 0\n"
                "    for i in range(len(degrees)):\n"
                "        examined += int(degrees[i])\n"))
INPLACE_GRAD = Guard(
    "INPLACE-GRAD (no in-place write to a Tensor's .data or .grad outside "
    "no_grad, the autograd core and the optimizers: the tape holds those "
    "buffers by reference, so gradients go silently wrong)",
    code_rule(inplace_grads, exclude=("src/repro/tensor/tensor.py",
                                      "src/repro/tensor/optim.py"),
              allowed=[Allowed("src/repro/kernels/adj.py", function,
                               "swaps a scipy CSR buffer, not a Tensor's")
                       for function in ("SparseAdj.matmul_data",) * 2
                       + ("SparseAdj.rmatmul",) * 2]),
    audit_plant("src/repro/frameworks/nn.py",
                "        support = h * (1.0 - self.alpha) + x0 * self.alpha\n",
                "        h.data *= (1.0 - self.alpha)\n"
                "        support = h + x0 * self.alpha\n"))

PARAM_REG = Guard(
    "PARAM-REG (every Parameter a Module.__init__ builds reaches self or a "
    "registering call, or the optimizer never updates it)",
    code_rule(unregistered_parameters),
    audit_plant("src/repro/frameworks/nn.py",
                "        self.eps = Parameter(init.zeros((1,)))\n",
                "        eps = Parameter(init.zeros((1,)))\n"
                "        self.eps = Tensor(eps.data)\n"))

_CHOICE = "choice() needs float64 probabilities that sum to exactly 1"

DTYPE_DRIFT = Guard(
    "DTYPE-DRIFT (no float64 promotion in the hot-path packages: the cost "
    "model prices float32 bytes while the host would pay double)",
    code_rule(float64_promotions, tops=HOT_PATH, allowed=[
        Allowed("src/repro/tensor/schedule.py", "clip_grad_norm",
                "float64 accumulation keeps the global norm stable"),
        Allowed("src/repro/sampling/layerwise.py", "FastGCNSampler.__init__",
                _CHOICE),
        Allowed("src/repro/sampling/layerwise.py",
                "LadiesSampler._frontier_distribution", _CHOICE),
        Allowed("src/repro/sampling/saint_variants.py",
                "SaintNodeSampler.__init__", _CHOICE),
        Allowed("src/repro/sampling/saint_variants.py",
                "SaintEdgeSampler.__init__", _CHOICE)]),
    audit_plant("src/repro/frameworks/base.py",
                "            self._x = Tensor(store.data[self.input_nodes], "
                "device=device,\n",
                "            self._x = Tensor(store.data[self.input_nodes]"
                ".astype(np.float64), device=device,\n"))

EVERY_KERNEL_CHARGES = Guard(
    "every-kernel-charges (a kernels/ function that builds a Tensor bills "
    "its forward in its own body; a nested _backward's charge bills only "
    "the backward)",
    code_rule(uncharged_kernels, tops=("src/repro/kernels",), allowed=[
        Allowed("src/repro/kernels/transfer.py", "to_device",
                "bills the link through h2d/d2h")]),
    audit_plant("src/repro/kernels/sddmm.py",
                '    charge(adj.device, "fused_gatv2", family, '
                "flops=4.0 * e_log * heads * dim,\n"
                "           bytes_moved=4.0 * 3.0 * e_log * heads * dim)\n",
                ""))

EVERY_CHARGED_OP_HAS_A_SHAPE_RULE = Guard(
    "every-charged-op-has-a-shape-rule (a tensor/ or kernels/ function that "
    "charges and builds a Tensor returns placeholder(shape) under "
    "cost_only(), so a cost-only forward computes nothing)",
    code_rule(charged_ops_without_shape_rule,
              tops=("src/repro/tensor", "src/repro/kernels")),
    audit_plant("src/repro/tensor/functional.py",
                "    out_data = placeholder(x.shape) if cost_only_active() "
                "else np.maximum(x.data, 0.0)\n",
                "    out_data = np.maximum(x.data, 0.0)\n"))


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
          "per-row commit loop beside the column pass)",
          grep(r"def commit_interval|def _union_merge"
               r"|def _take_sample\(|log\(\(key,"),
          {"src/repro/simtime.py":
           "def commit_interval(self):\n"
           "    log((key, start, end, tag))\n"}),
    Guard("one-job-representation (a lane job is an index into the "
          "scheduler's columns: no job object, no chain form, no per-job "
          "reader)",
          grep(r"class _LaneJob\b|class _Jobs\b|def submit_chain\b|def job\(",
               tops=("src/repro/datapipe",)),
          {"src/repro/datapipe/pipeline.py":
           "class _LaneJob:\n"
           "    job_id: int\n"}),
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
                   "telemetry", "serving", "profiling", "models",
                   "datasets"))),
          {"src/repro/serving/engine.py":
           "    from repro.bench.harness import MODEL_BUILDERS\n"}),
    Guard("one-artifact-layer (each schema id is spelled once)",
          schema_ids_spelled_twice,
          {"src/repro/telemetry/a.py": 'A = "repro.telemetry.events/1"\n',
           "src/repro/telemetry/b.py": "B = 'repro.telemetry.events/1'\n"}),
    Guard("one-recovery-loop (only repro.resilience reads a fault's "
          "severity or backoff)",
          grep(r"InjectedFault|with_retries|backoff_delay\(|\.severity\b",
               exclude=("src/repro/resilience/",)),
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
    Guard("docs-telemetry-names-exist (every backticked span or metric name "
          "in docs/telemetry.md and docs/resilience.md is spelled in "
          "src/repro)",
          unknown_doc_telemetry_names,
          {"docs/telemetry.md": "Each `train.batch` span nests in its "
                                "epoch.\n"}),
    EVERY_KERNEL_CHARGES, EVERY_CHARGED_OP_HAS_A_SHAPE_RULE, HOTLOOP,
    INPLACE_GRAD, PARAM_REG, DTYPE_DRIFT,
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


# -- the code rules case by case ------------------------------------------


def _in_def(body: str, header: str = "import numpy as np\n\n") -> str:
    """``body`` as the body of ``def f(xs, ys, p, v)``."""
    return header + "def f(xs, ys, p, v):\n" + textwrap.indent(
        textwrap.dedent(body).strip() + "\n", "    ")


def _in_init(body: str) -> str:
    """``body`` inside ``M.__init__`` after ``super().__init__()``."""
    return ("from repro.tensor.module import Module, Parameter\n\n"
            "class M(Module):\n"
            "    def __init__(self, w0):\n"
            "        super().__init__()\n"
            + textwrap.indent(textwrap.dedent(body).strip() + "\n", " " * 8))


def _cases(guard: Guard, rel: str, sources: Sequence[str], hits: int,
           needle: str = ""):
    return [pytest.param(guard, rel, source, hits, needle,
                         id=f"{guard.name.split()[0]} {rel} "
                            f"{source.strip().splitlines()[-1].strip()}")
            for source in sources]


_HOT_DEFECTS = _in_def("""
    for i in range(len(xs)):
        ys = xs.astype(np.float64)
""")

_HOTLOOP_TP = """
    def f(xs):
        total = 0
        for i in range(len(xs)):
            total += xs[i]
        for i in range(xs.size):
            total += xs[i]
        for h in range(xs.shape[0]):
            total += xs[h]
        for v in xs.flat:
            total += v
        vals = [v * 2 for v in xs.tolist()]
        return total, vals
"""

_INPLACE_GRAD_TP = """
    def bad(p, update, g):
        p.data = update
        p.grad += g
        p.data[0] = 1.0
        p.grad.fill(0.0)
"""

_PARAM_REG_TP = """
    from repro.tensor.module import Module, Parameter

    class Bad(Module):
        def __init__(self, w0):
            super().__init__()
            weight = Parameter(w0)        # never registered
            Parameter(w0)                 # discarded immediately
            scale = Parameter(w0)
            self.cached = scale.data * 2  # read, still unregistered
"""

_PARAM_REG_TN = """
    from repro.tensor.module import Module, Parameter

    class Good(Module):
        def __init__(self, w0, k):
            super().__init__()
            self.weight = Parameter(w0)
            bias = Parameter(w0)
            self.bias = bias
            for i in range(k):
                setattr(self, f"lin{i}", Parameter(w0))
            extras = Parameter(w0)
            self.extras = [extras]

        def forward(self, x):
            w = Parameter(x)  # outside __init__: not this rule's business
            return w
"""

_DTYPE_DRIFT_TP = """
    import numpy as np

    def f(x):
        a = x.astype(np.float64)
        b = x.astype("float64")
        c = x.astype(float)
        d = np.zeros(3, dtype=np.float64)
        e = np.float64(x[0])
        return a, b, c, d, e
"""

_DTYPE_DRIFT_TN = """
    import numpy as np
    FLOAT_DTYPE = np.float32

    def f(x):
        a = x.astype(np.float32)
        b = x.astype(FLOAT_DTYPE)
        c = np.zeros(3, dtype=np.int64)
        return a, b, c
"""

RULE_CASES = [
    # Scope: HOTLOOP and DTYPE-DRIFT watch only the hot-path packages.
    *(case for pkg in ("sampling", "kernels", "tensor", "frameworks")
      for guard in (HOTLOOP, DTYPE_DRIFT)
      for case in _cases(guard, f"src/repro/{pkg}/mod.py", [_HOT_DEFECTS], 1)),
    *(case for pkg in ("models", "profiling", "bench", "serving")
      for guard in (HOTLOOP, DTYPE_DRIFT)
      for case in _cases(guard, f"src/repro/{pkg}/mod.py", [_HOT_DEFECTS], 0)),
    # HOTLOOP
    *_cases(HOTLOOP, "src/repro/sampling/hot.py", [_HOTLOOP_TP], 5),
    *_cases(HOTLOOP, "src/repro/models/cold.py", [_HOTLOOP_TP], 0),
    *_cases(HOTLOOP, "plain/pkg.py", [_HOTLOOP_TP], 0),
    *_cases(HOTLOOP, "src/repro/sampling/ok.py", ["""
        def f(train, xs, fanouts, batch):
            for start in range(0, train.size, batch):
                yield train[start:start + batch]
            for fanout in reversed(fanouts):
                yield fanout
            for i in range(3):
                yield i
    """], 0),
    *_cases(HOTLOOP, "src/repro/kernels/hot.py", [_in_def(body) for body in (
        "for i in range(len(xs)): pass",
        "for i in range(xs.size): pass",
        "for i in range(xs.shape[1]): pass",
        "for i in range(1, len(xs)): pass",
        "for v in xs.flat: pass",
        "for v in xs.tolist(): pass",
        "for v in np.nditer(xs): pass",
        "for idx, v in np.ndenumerate(xs): pass",
        "for i, v in enumerate(xs.tolist()): pass",
        "for a, b in zip(ys, xs.flat): pass",
        "for i in reversed(range(len(xs))): pass",
        "for v in sorted(xs.tolist()): pass",
        "ys = [v for v in xs.flat]",
        "ys = {v for v in xs.tolist()}",
        "ys = {i: v for i, v in enumerate(xs.flat)}",
        "return sum(v for v in xs.tolist())")], 1),
    *_cases(HOTLOOP, "src/repro/kernels/ok.py", [_in_def(body) for body in (
        "for start in range(0, len(xs), 64): pass",
        "for i in range(3): pass",
        "for v in ys: pass",
        "for i, fanout in enumerate(ys): pass",
        "for a, b in zip(ys, v): pass",
        "while len(xs) > 3:\n    xs = xs[1:]")], 0),
    *_cases(HOTLOOP, "src/repro/tensor/line.py",
            ["def f(xs):\n    x = 1\n    for v in xs.flat:\n        x += v\n"],
            1, needle="line.py:3: HOTLOOP .flat"),
    # INPLACE-GRAD
    *_cases(INPLACE_GRAD, "src/repro/models/mutate.py", [_INPLACE_GRAD_TP], 4),
    *_cases(INPLACE_GRAD, "src/repro/models/mut.py", [_in_def(body) for body in (
        "p.data = v",
        "p.grad = v",
        "p.data[0] = v",
        "p.data[:, 1] += v",
        "p.grad += v",
        "p.grad -= v",
        "p.data: object = v",
        "p.data, ys = v, v",
        "p.data.fill(0)",
        "p.grad.sort()",
        "p.data.put([0], v)",
        "p.data.resize((2,))",
        "p.data.partition(1)",
        "v.weight.grad = None")], 1),
    *_cases(INPLACE_GRAD, "src/repro/models/ok.py", [_in_def(body) for body in (
        "ys = p.data",
        "ys = p.data + v",
        "data = v",
        "p.data_cache = v",
        "ys = p.data.copy()\nys.fill(0)",
        "ys = np.sort(p.data)",
        "with no_grad():\n    p.data = v",
        "with repro.tensor.no_grad():\n    p.grad = None",
        "with no_grad():\n    for i in range(2):\n        p.data[i] = v")], 0),
    *(case for rel in ("src/repro/tensor/tensor.py", "src/repro/tensor/optim.py")
      for case in _cases(INPLACE_GRAD, rel,
                         [_in_def("p.data = v\np.grad.fill(0)"),
                          "def step(p, lr, grad):\n"
                          "    p.data = p.data - lr * grad\n"], 0)),
    *_cases(INPLACE_GRAD, "src/repro/models/guarded.py", ["""
        from repro.tensor.tensor import no_grad

        def ok(p, update):
            with no_grad():
                p.data = update
                p.grad = None
    """], 0),
    *_cases(INPLACE_GRAD, "plain/mutate.py", ["def f(p):\n    p.data = 1\n"],
            0),
    # PARAM-REG
    *_cases(PARAM_REG, "src/repro/models/layers.py", [_PARAM_REG_TP], 3),
    *_cases(PARAM_REG, "src/repro/models/layers.py", [_PARAM_REG_TN], 0),
    *_cases(PARAM_REG, "src/repro/models/m.py", [_in_init(body) for body in (
        "Parameter(w0)",
        "w = Parameter(w0)",
        "w = Parameter(w0)\nself.v = w.data",
        "w = Parameter(w0)\nself.v = w * 2",
        "w = nn.Parameter(w0)",
        "w = Parameter(w0)\nalias = w")], 1),
    *_cases(PARAM_REG, "src/repro/models/m.py", [_in_init(body) for body in (
        "self.w = Parameter(w0)",
        "w = Parameter(w0)\nself.w = w",
        "w = Parameter(w0)\nsetattr(self, 'w', w)",
        "w = Parameter(w0)\nself.ws = [w]",
        "w = Parameter(w0)\nself.ws = {'a': w}",
        "w = Parameter(w0)\nself.register(w)",
        "w = Parameter(w0)\nself.cfg: object = w",
        "self.ws = []\nw = Parameter(w0)\nself.ws.append(w)",
        "self.a, self.b = Parameter(w0), Parameter(w0)")], 0),
    *_cases(PARAM_REG, "src/repro/models/m.py", [_in_init("w = Parameter(w0)")],
            1, needle="Parameter 'w' in M.__init__"),
    # DTYPE-DRIFT
    *_cases(DTYPE_DRIFT, "src/repro/kernels/promote.py", [_DTYPE_DRIFT_TP], 5),
    *_cases(DTYPE_DRIFT, "src/repro/kernels/promote.py", [_DTYPE_DRIFT_TN], 0),
    *_cases(DTYPE_DRIFT, "src/repro/profiling/report2.py",
            ["import numpy as np\n\ndef f(x):\n    return x.astype(np.float64)\n"],
            0),
    *_cases(DTYPE_DRIFT, "src/repro/kernels/d.py", [_in_def(f"return {expr}")
                                                    for expr in (
        "xs.astype(np.float64)",
        'xs.astype("float64")',
        "xs.astype(float)",
        'xs.astype("double")',
        'xs.astype("d")',
        "xs.astype(np.double)",
        "xs.astype(np.float_)",
        "np.zeros(3, dtype=np.float64)",
        'np.empty(3, dtype="float64")',
        "np.asarray(xs, dtype=float)",
        "np.float64(1)",
        "numpy.float64(xs)")], 1),
    *_cases(DTYPE_DRIFT, "src/repro/kernels/d.py", [_in_def(f"return {expr}")
                                                    for expr in (
        "xs.astype(np.float32)",
        'xs.astype("float32")',
        "xs.astype(np.float16)",
        "xs.astype(xs.dtype)",
        "np.zeros(3)",
        "np.zeros(3, dtype=np.int64)",
        "np.float32(1)")], 0),
    # every-kernel-charges: a module-level kernels/ function that builds a
    # Tensor calls charge() in its own body, not only in a nested scope.
    *_cases(EVERY_KERNEL_CHARGES, "src/repro/kernels/k.py", [
        "def k(x):\n    out = Tensor(x)\n",
        "def k(x):\n"
        "    out = Tensor(x)\n"
        "    def _backward(g):\n"
        "        charge(x.device, 'k.bwd', 'f')\n",
        "def k(x):\n"
        "    out = Tensor(x)\n"
        "    bill = lambda: charge(x.device, 'k', 'f')\n"],
            1, needle="charges nothing in k"),
    *_cases(EVERY_KERNEL_CHARGES, "src/repro/kernels/k.py", [
        "def k(x):\n    out = Tensor(x)\n    charge(x.device, 'k', 'f')\n",
        "def k(x):\n"
        "    out = Tensor(x)\n"
        "    if out.requires_grad:\n"
        "        charge(out.device, 'k', 'f')\n",
        "def k(x):\n    return x.data * 2\n",
        "class K:\n    def k(self, x):\n        return Tensor(x)\n"], 0),
    *_cases(EVERY_KERNEL_CHARGES, "src/repro/models/k.py",
            ["def k(x):\n    return Tensor(x)\n"], 0),
    # every-charged-op-has-a-shape-rule: a function (or method) that
    # charges and builds a Tensor calls placeholder() in its own body.
    *_cases(EVERY_CHARGED_OP_HAS_A_SHAPE_RULE, "src/repro/tensor/t.py", [
        "def k(x):\n    out = Tensor(x.data * 2)\n    charge(x.device, 'k', 'f')\n",
        "class T:\n"
        "    def op(self):\n"
        "        out = Tensor._result(self.data * 2, (self,), 'op')\n"
        "        charge(out.device, 'op', 'f')\n",
        "def k(x):\n"
        "    out = Tensor(x.data * 2)\n"
        "    charge(x.device, 'k', 'f')\n"
        "    shape = lambda: placeholder(x.shape)\n"],
            1, needle="never goes through placeholder() in "),
    *_cases(EVERY_CHARGED_OP_HAS_A_SHAPE_RULE, "src/repro/kernels/k.py", [
        "def k(x):\n"
        "    data = placeholder(x.shape) if cost_only_active() else x.data * 2\n"
        "    out = Tensor(data)\n"
        "    charge(x.device, 'k', 'f')\n",
        "def k(x):\n"
        "    out = Tensor(x.data * 2)\n"
        "    def _backward(g):\n"
        "        charge(x.device, 'k.bwd', 'f')\n",
        "def step(p):\n    charge(p.device, 'adam.step', 'f')\n",
        "def k(x):\n    return Tensor(x)\n"], 0),
    *_cases(EVERY_CHARGED_OP_HAS_A_SHAPE_RULE, "src/repro/frameworks/k.py",
            ["def k(x):\n    out = Tensor(x.data)\n    charge(x.device, 'k', 'f')\n"],
            0),
]


@pytest.mark.parametrize("guard, rel, source, hits, needle", RULE_CASES)
def test_code_rule_case(guard, rel, source, hits, needle, tmp_path):
    (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / rel).write_text(textwrap.dedent(source))
    found = guard.scan(tmp_path)
    assert len(found) == hits, found
    assert all(needle in hit for hit in found)


def test_allowed_entry_excuses_one_hit_and_cannot_go_stale(tmp_path):
    rel = "src/repro/kernels/k.py"
    scan = code_rule(float64_promotions, allowed=[
        Allowed(rel, "K.f", "reason")])
    (tmp_path / rel).parent.mkdir(parents=True)
    one = "class K:\n    def f(self, x):\n        return x.astype(float)\n"
    (tmp_path / rel).write_text(one)
    assert scan(tmp_path) == []
    (tmp_path / rel).write_text(one + "        y = x.astype(float)\n")
    assert scan(tmp_path) == [f"{rel}:4: DTYPE-DRIFT astype to float64 "
                              "in K.f"]
    (tmp_path / rel).write_text("class K:\n    def f(self, x):\n"
                                "        return x\n")
    assert scan(tmp_path) == [f"{rel}: allowed hit in K.f is gone"]


def test_allowed_entry_excuses_only_its_own_function(tmp_path):
    rel = "src/repro/kernels/k.py"
    scan = code_rule(float64_promotions, allowed=[
        Allowed(rel, "K.f", "reason"), Allowed(rel, "K.f", "reason")])
    (tmp_path / rel).parent.mkdir(parents=True)
    (tmp_path / rel).write_text(
        "class K:\n"
        "    def f(self, x):\n"
        "        return x.astype(float), x.astype(float)\n"
        "    def g(self, x):\n"
        "        return x.astype(float)\n")
    assert scan(tmp_path) == [f"{rel}:5: DTYPE-DRIFT astype to float64 "
                              "in K.g"]


def test_allowed_entry_for_an_absent_file_is_silent(tmp_path):
    """A planted scratch tree holds one file, so the entries for the
    real tree's other files must not read as stale there."""
    scan = code_rule(float64_promotions, allowed=[
        Allowed("src/repro/kernels/gone.py", "f", "reason")])
    (tmp_path / "src" / "repro").mkdir(parents=True)
    assert scan(tmp_path) == []


CODE_RULES = [EVERY_KERNEL_CHARGES, EVERY_CHARGED_OP_HAS_A_SHAPE_RULE, HOTLOOP,
              INPLACE_GRAD, PARAM_REG, DTYPE_DRIFT]


@pytest.mark.parametrize("guard", CODE_RULES,
                         ids=lambda g: g.name.split()[0])
def test_audit_plant_adds_exactly_one_hit_to_a_clean_real_file(guard,
                                                               tmp_path):
    (rel, planted), = guard.planted.items()
    target = tmp_path / rel
    target.parent.mkdir(parents=True)
    target.write_text((REPO_ROOT / rel).read_text(encoding="utf-8"))
    assert guard.scan(tmp_path) == []
    target.write_text(planted)
    (hit,) = guard.scan(tmp_path)
    assert hit.startswith(f"{rel}:")


_SPAN_CODE = ('def run(fault, event):\n'
              '    with span("train.epoch"):\n'
              '        log(fault.rank, f"fault.{event}", "serve.block_ms")\n')


@pytest.mark.parametrize("doc, line, hits", [
    ("docs/telemetry.md", "A `train.epoch` span.", 0),
    ("docs/telemetry.md", "Tagged with `fault.rank`.", 0),
    ("docs/resilience.md", "Counted as `fault.recovered`.", 0),
    ("docs/telemetry.md", "Written to `trace.json`.", 0),
    ("docs/telemetry.md", "Appended to `events.jsonl`.", 0),
    ("docs/telemetry.md", "Scraped from `metrics.prom`.", 0),
    ("docs/telemetry.md", "Built by `repro.telemetry.nowhere`.", 0),
    ("docs/telemetry.md", "A `Train.Batch` heading.", 0),
    ("docs/telemetry.md", "Each `train.batch` span.", 1),
    ("docs/telemetry.md", "A `serve.block` metric.", 1),
    ("docs/resilience.md", "Counted as `retry.recovered`.", 1),
    ("docs/kernels.md", "Each `train.batch` span.", 0),
])
def test_doc_telemetry_name_case(doc, line, hits, tmp_path):
    """A name passes as a literal, an attribute chain or an f-string
    family; file names and ``repro.`` paths belong to other rows."""
    for rel, text in (("src/repro/telemetry/x.py", _SPAN_CODE),
                      (doc, f"Intro.\n{line}\n")):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    found = unknown_doc_telemetry_names(tmp_path)
    assert len(found) == hits, found
    assert all(hit.startswith(f"{doc}:2: `") for hit in found)
