"""Per-function syntactic facts: the inputs to effect summaries.

For every function in the :class:`~repro.lint.flow.callgraph.Program`
this module extracts, in one traversal each, the events the deep rules
reason about:

* **charge sites** — calls whose dotted leaf is a virtual-clock charge
  primitive (``occupy`` / ``occupy_parallel`` / ``advance``);
* **work sites** — operations that move bytes or do flops without going
  through an in-program function: the ``@`` matrix multiply on untyped
  operands, ``einsum``/``tensordot``/``dot``/``matmul``/``vdot`` calls
  that resolve to nothing in-program, and buffered ufunc scatters
  (``np.add.at`` / ``.reduceat``);
* **call sites** — resolved in-program callees, plus the set of
  *protected* exceptions absorbed by enclosing handlers at that point;
* **raise sites** — direct raises of the protected exceptions;
* **RNG sources** — unseeded ``default_rng()`` / ``RandomState()``
  constructions (the taint seeds for RNG-FLOW).

A ``@`` whose operand is *typed* as an in-program class with a
``__matmul__``/``matmul`` method is recorded as a call edge to that
method instead of a raw work site — ``x @ self.weight`` in
``Linear.forward`` dispatches to ``Tensor.matmul`` (which charges), it
does not do raw flops at that line.

All constants that mirror repo semantics (exception hierarchy, SparseAdj
cache slots) live here so there is exactly one place to update when
:mod:`repro.errors` or :mod:`repro.kernels.adj` grows.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.flow.callgraph import (
    FunctionInfo, Program, dotted, infer_env,
)

# ---------------------------------------------------------------------------
# repo-semantic constants
# ---------------------------------------------------------------------------

#: Virtual-clock charge primitives (see repro.simtime.VirtualClock).
CHARGE_LEAVES = frozenset({"occupy", "occupy_parallel", "advance"})

#: Flop-shaped numpy entry points when they resolve to nothing in-program.
WORK_CALL_LEAVES = frozenset({"einsum", "tensordot", "dot", "matmul", "vdot"})

#: ``np.<ufunc>.at`` / ``.reduceat`` buffered scatter parents.
UFUNC_PARENTS = frozenset({"add", "subtract", "multiply", "maximum",
                           "minimum", "logaddexp"})
UFUNC_METHODS = frozenset({"at", "reduceat"})

#: Unseeded constructions of these factories are RNG taint sources.
RNG_FACTORIES = frozenset({"default_rng", "RandomState"})

#: The telemetry primitive whose return value is an *open* span.
SPAN_OPEN_LEAF = "start_span"

#: Exceptions the resilience layer uses for control flow; swallowing one
#: outside ``repro.resilience`` hides an injected fault from the caller.
PROTECTED_EXCEPTIONS = frozenset({"RecoveryExhausted", "FaultPlanError"})

#: Ancestors of the protected exceptions (mirrors repro.errors): a
#: handler naming any of these absorbs the protected exception too.
EXCEPTION_PARENTS: Dict[str, Tuple[str, ...]] = {
    "RecoveryExhausted": ("ResilienceError", "ReproError", "Exception",
                          "BaseException"),
    "FaultPlanError": ("ResilienceError", "ReproError", "Exception",
                       "BaseException"),
}

#: Handler types FAULT-SWALLOW considers indiscriminate.  Catching
#: ``ResilienceError`` or a protected exception by name is a deliberate
#: decision; catching ``Exception`` (or everything) is not.
BROAD_HANDLER_NAMES = frozenset({"Exception", "BaseException"})

#: SparseAdj lazily-derived cache slots (mirrors repro.kernels.adj);
#: assigning ``None`` to one is an invalidation.
CACHE_SLOTS = frozenset({"_mat_t", "_in_degrees", "_out_degrees",
                         "_inv_in_degrees", "_inc_dst", "_inc_src",
                         "_perm_src", "_indptr_src", "_indptr"})

#: Accessor methods that serve from (and lazily fill) those caches.
CACHE_ACCESSORS = frozenset({"_csr", "_transpose", "in_degrees",
                             "out_degrees", "inv_in_degrees", "_incidence",
                             "src_order", "src_indptr"})

#: Raw scipy CSR buffers; assigning to ``X.<buffer>`` mutates structure
#: the caches were derived from.
CSR_BUFFERS = frozenset({"data", "indices", "indptr"})

#: Restoring the pristine default buffer un-dirties the matrix (the
#: ``finally:`` idiom in SparseAdj.matmul_data / rmatmul).
RESTORE_LEAVES = frozenset({"_default_data", "_default_data_t"})

_FN_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


# ---------------------------------------------------------------------------
# fact records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One resolved in-program call (or typed ``@`` dispatch)."""

    node: ast.AST
    dotted: str
    callees: Tuple[str, ...]
    caught: FrozenSet[str]          # protected names absorbed around here
    arg_roots: Tuple[str, ...]      # dotted receiver + argument expressions


@dataclass(frozen=True)
class WorkSite:
    node: ast.AST
    kind: str                       # human-readable, used in messages


@dataclass(frozen=True)
class RaiseSite:
    node: ast.AST
    name: str
    caught: FrozenSet[str]


@dataclass
class FunctionFacts:
    """Everything extracted from one function body (nested defs excluded)."""

    info: FunctionInfo
    env: Dict[str, str]
    charges: List[ast.AST] = field(default_factory=list)
    work: List[WorkSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    rng_sources: List[ast.Call] = field(default_factory=list)


# ---------------------------------------------------------------------------
# handler classification
# ---------------------------------------------------------------------------
def handler_type_names(handler: ast.ExceptHandler) -> FrozenSet[str]:
    """Leaf names of the exception types a handler catches ("" = bare)."""
    if handler.type is None:
        return frozenset({"*"})
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    names = set()
    for t in types:
        name = dotted(t)
        if name:
            names.add(name.rpartition(".")[2])
    return frozenset(names)


def handler_absorbs(handler: ast.ExceptHandler) -> FrozenSet[str]:
    """Protected exceptions this handler would catch."""
    names = handler_type_names(handler)
    if "*" in names:
        return PROTECTED_EXCEPTIONS
    absorbed = set()
    for exc in PROTECTED_EXCEPTIONS:
        if exc in names or any(p in names for p in EXCEPTION_PARENTS[exc]):
            absorbed.add(exc)
    return frozenset(absorbed)


def handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler re-raise (bare ``raise``) on some path?"""
    for node in ast.walk(handler):
        if isinstance(node, _FN_NODES):
            continue
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


def handler_is_broad(handler: ast.ExceptHandler) -> bool:
    names = handler_type_names(handler)
    return "*" in names or bool(names & BROAD_HANDLER_NAMES)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------
def _expr_roots(call: ast.Call) -> Tuple[str, ...]:
    roots: List[str] = []
    if isinstance(call.func, ast.Attribute):
        recv = dotted(call.func.value)
        if recv:
            roots.append(recv)
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        name = dotted(arg)
        if name:
            roots.append(name)
    return tuple(roots)


def _raise_name(node: ast.Raise) -> str:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    name = dotted(exc) if exc is not None else ""
    return name.rpartition(".")[2]


class _Extractor:
    def __init__(self, program: Program, facts: FunctionFacts) -> None:
        self.program = program
        self.facts = facts

    def scan(self) -> None:
        self._walk(self.facts.info.node, frozenset())

    def _walk(self, node: ast.AST, caught: FrozenSet[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FN_NODES) or isinstance(child, ast.ClassDef):
                continue  # nested definitions get their own facts
            if isinstance(child, ast.Try):
                absorbed = frozenset()
                for handler in child.handlers:
                    if not handler_reraises(handler):
                        absorbed |= handler_absorbs(handler)
                for stmt in child.body:
                    self._classify(stmt, caught | absorbed)
                    self._walk(stmt, caught | absorbed)
                for part in (child.handlers, child.orelse, child.finalbody):
                    for stmt in part:
                        self._classify(stmt, caught)
                        self._walk(stmt, caught)
                continue
            self._classify(child, caught)
            self._walk(child, caught)

    def _classify(self, node: ast.AST, caught: FrozenSet[str]) -> None:
        if isinstance(node, ast.Call):
            self._call(node, caught)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            self._matmul(node, caught)
        elif isinstance(node, ast.Raise):
            name = _raise_name(node)
            if name in PROTECTED_EXCEPTIONS:
                self.facts.raises.append(RaiseSite(node, name, caught))

    def _call(self, node: ast.Call, caught: FrozenSet[str]) -> None:
        facts, program = self.facts, self.program
        func = node.func
        name = dotted(func)
        leaf = name.rpartition(".")[2] if name else ""

        if leaf in CHARGE_LEAVES:
            facts.charges.append(node)
        if leaf in RNG_FACTORIES and not node.args and not node.keywords:
            facts.rng_sources.append(node)

        callees = program.resolve_call(facts.info, facts.env, node)
        if callees:
            facts.calls.append(CallSite(
                node=node, dotted=name, callees=callees, caught=caught,
                arg_roots=_expr_roots(node)))
            return
        if leaf in UFUNC_METHODS and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr in UFUNC_PARENTS:
            facts.work.append(WorkSite(
                node, f"buffered ufunc scatter '{name}'"))
        elif leaf in WORK_CALL_LEAVES and leaf not in CHARGE_LEAVES:
            facts.work.append(WorkSite(node, f"flop-bearing call '{name}'"))

    def _matmul(self, node: ast.BinOp, caught: FrozenSet[str]) -> None:
        facts, program = self.facts, self.program
        for operand in (node.left, node.right):
            cls = program.expr_type(facts.info, facts.env, operand)
            if cls is None:
                continue
            target = program.lookup_method(cls, "__matmul__") \
                or program.lookup_method(cls, "matmul")
            if target:
                facts.calls.append(CallSite(
                    node=node, dotted="@", callees=(target,), caught=caught,
                    arg_roots=tuple(n for n in (dotted(node.left),
                                                dotted(node.right)) if n)))
                return
        facts.work.append(WorkSite(node, "matrix multiply '@'"))


def build_facts(program: Program) -> Dict[str, FunctionFacts]:
    """Extract facts for every function, nested scopes inheriting types."""
    envs: Dict[str, Dict[str, str]] = {}
    all_facts: Dict[str, FunctionFacts] = {}
    # registration order guarantees parents precede their nested functions
    for qualname, info in program.functions.items():
        outer = envs.get(info.parent) if info.parent else None
        env = infer_env(program, info, outer)
        envs[qualname] = env
        facts = FunctionFacts(info=info, env=env)
        _Extractor(program, facts).scan()
        all_facts[qualname] = facts
    return all_facts
