"""The interprocedural rule catalogue (``repro lint --deep``).

Each rule consumes the whole-program :class:`AnalysisState` — call
graph, per-function facts, effect summaries, charged-context bits, and
the RNG attribute taint map — and yields ordinary
:class:`~repro.lint.engine.Finding` objects, so inline suppressions,
baselines, and both report formats work unchanged.

* **UNCHARGED-COST** — a function in ``kernels/``/``hardware/``/
  ``tensor/`` does raw work (``@``, einsum, buffered scatter) but no
  path from it reaches a virtual-clock charge primitive, and no caller
  charges on its behalf (the `charged context` fixpoint).  This is the
  bug class that silently corrupts every ``BENCH_*.json`` baseline.
* **RNG-FLOW** — interprocedural RNG provenance: a call that *receives*
  an unseeded generator from its callee, or a method that reads an
  instance attribute some other method tainted with one.
* **STALE-CACHE** — a path mutates a CSR buffer (``X.data``/
  ``indices``/``indptr``) and later reads a SparseAdj derived cache
  (transpose/degrees/incidence/src-order) of the same object without an
  intervening restore or invalidation; also flags exiting a function
  with the buffers still dirty.
* **SPAN-FLOW** — telemetry spans that cross function boundaries: a
  wrapper whose summary says it returns an *open* span, whose result a
  caller discards or fails to end/hand off on some CFG path.
* **FAULT-SWALLOW** — a broad ``except`` (bare / ``Exception`` /
  ``BaseException``) outside ``resilience/`` that can absorb
  ``RecoveryExhausted`` or ``FaultPlanError`` flowing out of the try
  body, without re-raising.
* **LANE-FLOW** — a datapipe ``Stage`` fn (or a function it reaches)
  calls a clock primitive that records busy intervals directly
  (``commit_schedule``), escaping the
  ``deferred()`` capture the lane scheduler replays — that work is
  charged outside the stage's declared lane.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.engine import Finding
from repro.lint.flow.callgraph import FunctionInfo, Program, dotted
from repro.lint.flow.cfg import EXIT, build_cfg, reach_forward
from repro.lint.flow.effects import BOTTOM, RngAttrMap, Summary
from repro.lint.flow.facts import (
    CACHE_ACCESSORS, CACHE_SLOTS, CSR_BUFFERS, PROTECTED_EXCEPTIONS,
    RESTORE_LEAVES, SPAN_OPEN_LEAF,
    FunctionFacts, handler_absorbs, handler_is_broad, handler_reraises,
    handler_type_names,
)

_FN_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class AnalysisState:
    """Everything the deep rules see: the solved whole-program model."""

    program: Program
    facts: Dict[str, FunctionFacts]
    summaries: Dict[str, Summary]
    rng_attrs: RngAttrMap
    charged: Dict[str, bool]


DEEP_RULES: Dict[str, "DeepRule"] = {}


def register(cls: Type["DeepRule"]) -> Type["DeepRule"]:
    instance = cls()
    if instance.name in DEEP_RULES:
        raise ValueError(f"duplicate deep rule name {instance.name!r}")
    DEEP_RULES[instance.name] = instance
    return cls


def resolve_deep_rules(select=None) -> List["DeepRule"]:
    if not select:
        return list(DEEP_RULES.values())
    wanted = {name.strip().upper() for name in select if name.strip()}
    unknown = wanted - set(DEEP_RULES)
    if unknown:
        raise KeyError(f"unknown deep rule(s) {sorted(unknown)}; "
                       f"available: {sorted(DEEP_RULES)}")
    return [rule for name, rule in DEEP_RULES.items() if name in wanted]


class DeepRule:
    """Base class: one whole-program check."""

    name: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, state: AnalysisState) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, info: FunctionInfo, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        span = (line, getattr(node, "end_lineno", line) or line)
        return Finding(rule=self.name, severity=self.severity, path=info.path,
                       line=line, col=getattr(node, "col_offset", 0),
                       message=message, span=span)


def _in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


def _display(qualname: str) -> str:
    """Human-facing spelling of a qualname: module.Class.method."""
    return qualname.replace(":", ".", 1)


def _iter_own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, _FN_NODES) or isinstance(node, ast.ClassDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# UNCHARGED-COST
# ---------------------------------------------------------------------------

#: Packages whose work must reach the virtual clock — this is where the
#: cost model the paper's methodology trusts actually lives.
COSTED_PACKAGES = ("repro.kernels", "repro.hardware", "repro.tensor")


@register
class UnchargedCostRule(DeepRule):
    name = "UNCHARGED-COST"
    severity = "error"
    description = ("function in kernels/hardware/tensor does raw work "
                   "(@, einsum, buffered scatter) but no path reaches a "
                   "virtual-clock charge primitive and no caller charges on "
                   "its behalf; the simulated cost model silently loses this "
                   "work — route it through charge()/device.execute()")

    def check(self, state: AnalysisState) -> Iterator[Finding]:
        for qualname in sorted(state.facts):
            facts = state.facts[qualname]
            if not facts.work:
                continue
            if not _in_packages(facts.info.module, COSTED_PACKAGES):
                continue
            summary = state.summaries.get(qualname, BOTTOM)
            if summary.charges or state.charged.get(qualname, False):
                continue
            for site in facts.work:
                yield self.finding(
                    facts.info, site.node,
                    f"'{_display(qualname)}' performs uncharged work: "
                    f"{site.kind} never reaches clock.occupy on any path, "
                    "and no caller charges on this function's behalf")


# ---------------------------------------------------------------------------
# RNG-FLOW
# ---------------------------------------------------------------------------
@register
class RngFlowRule(DeepRule):
    name = "RNG-FLOW"
    severity = "error"
    description = ("unseeded RNG provenance crossing a function boundary: a "
                   "call that returns an unseeded generator, or a read of an "
                   "instance attribute another method tainted with one; "
                   "thread seeded generators explicitly so paired framework "
                   "runs stay comparable")

    def check(self, state: AnalysisState) -> Iterator[Finding]:
        for qualname in sorted(state.facts):
            facts = state.facts[qualname]
            for site in facts.calls:
                for callee in site.callees:
                    if state.summaries.get(callee, BOTTOM).returns_rng:
                        yield self.finding(
                            facts.info, site.node,
                            f"'{_display(qualname)}' receives an unseeded "
                            f"RNG from '{_display(callee)}'; construct "
                            "generators from an explicit seed and thread "
                            "them through arguments")
                        break
            cls = facts.info.cls
            if not cls:
                continue
            for node in _iter_own_nodes(facts.info.node):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    origin = state.rng_attrs.get((cls, node.attr))
                    if origin and origin != qualname:
                        yield self.finding(
                            facts.info, node,
                            f"'{_display(qualname)}' reads 'self."
                            f"{node.attr}', an RNG attribute with unseeded "
                            f"provenance (tainted in '{_display(origin)}')")


# ---------------------------------------------------------------------------
# STALE-CACHE
# ---------------------------------------------------------------------------
@register
class StaleCacheRule(DeepRule):
    name = "STALE-CACHE"
    severity = "error"
    description = ("CSR buffer (data/indices/indptr) mutated and a SparseAdj "
                   "derived cache (transpose/degrees/incidence/src-order) of "
                   "the same object read afterwards without restore or "
                   "invalidation — the cache serves values computed from the "
                   "pre-mutation buffers")

    def check(self, state: AnalysisState) -> Iterator[Finding]:
        for qualname in sorted(state.facts):
            yield from self._check_function(state, state.facts[qualname])

    def _mutates_buffers(self, fn_node: ast.AST,
                         aliases: Dict[str, str]) -> bool:
        for node in _iter_own_nodes(fn_node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if self._buffer_write_owner(target, aliases) is not None:
                    return True
        return False

    @classmethod
    def _buffer_write_owner(cls, target: ast.AST,
                            aliases: Dict[str, str]) -> Optional[str]:
        """Owner root when ``target`` is a genuine adjacency CSR buffer
        write — ``X._mat.data`` / ``X._mat_t.indices``, or ``alias.data``
        where the alias came from the adjacency's matrix or a cache
        accessor.  ``None`` for unrelated attributes: Tensors also carry
        a ``.data`` and optimizers rebind it freely."""
        if not (isinstance(target, ast.Attribute)
                and target.attr in CSR_BUFFERS):
            return None
        chain = dotted(target.value).split(".")
        root = chain[0] if chain and chain[0] else ""
        if any(part in ("_mat", "_mat_t") for part in chain):
            return aliases.get(root, root)
        if root in aliases:
            return aliases[root]
        return None

    @staticmethod
    def _aliases(fn_node: ast.AST) -> Dict[str, str]:
        """Locals that alias an adjacency's internal matrix: assignment
        from a cache accessor call or a ``._mat``/``._mat_t`` read."""
        aliases: Dict[str, str] = {}
        for node in _iter_own_nodes(fn_node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            owner = ""
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and value.func.attr in CACHE_ACCESSORS:
                owner = dotted(value.func.value)
            elif isinstance(value, ast.Attribute) \
                    and value.attr in ("_mat", "_mat_t"):
                owner = dotted(value.value)
            if owner:
                aliases[node.targets[0].id] = owner.split(".")[0]
        return aliases

    @staticmethod
    def _owner(name: str, aliases: Dict[str, str]) -> str:
        root = name.split(".")[0] if name else ""
        return aliases.get(root, root)

    def _node_events(self, stmt: ast.AST, site_by_node: Dict[int, object],
                     state: AnalysisState, aliases: Dict[str, str]):
        """(gens, kills, reads) for one CFG statement node."""
        gens: List[Tuple[str, ast.AST]] = []
        kills: Set[str] = set()
        reads: List[Tuple[str, ast.AST]] = []
        for node in self._stmt_subtree(stmt):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                owner = self._buffer_write_owner(target, aliases)
                if owner is not None:
                    rhs_leaf = dotted(value).rpartition(".")[2] \
                        if value is not None else ""
                    if rhs_leaf in RESTORE_LEAVES:
                        kills.add(owner)
                    else:
                        gens.append((owner, node))
                elif isinstance(target, ast.Attribute) \
                        and target.attr in CACHE_SLOTS \
                        and isinstance(value, ast.Constant) \
                        and value.value is None:
                    kills.add(self._owner(dotted(target.value), aliases))
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in CACHE_ACCESSORS:
                    reads.append((self._owner(dotted(node.func.value),
                                              aliases), node))
                site = site_by_node.get(id(node))
                if site is not None:
                    for callee in site.callees:
                        summary = state.summaries.get(callee, BOTTOM)
                        if summary.invalidates_cache and site.arg_roots:
                            kills.add(self._owner(site.arg_roots[0], aliases))
                        if summary.reads_cache:
                            for root in site.arg_roots:
                                reads.append((self._owner(root, aliases),
                                              node))
            elif isinstance(node, ast.Attribute) \
                    and node.attr in CACHE_SLOTS \
                    and isinstance(node.ctx, ast.Load):
                reads.append((self._owner(dotted(node.value), aliases), node))
        return gens, kills, reads

    @staticmethod
    def _stmt_subtree(stmt: ast.AST) -> Iterator[ast.AST]:
        """The statement and its expression subtree, not nested blocks."""
        yield stmt
        stack = [child for child in ast.iter_child_nodes(stmt)
                 if not isinstance(child, (ast.stmt, ast.ExceptHandler))]
        while stack:
            node = stack.pop()
            if isinstance(node, _FN_NODES) or isinstance(node, ast.ClassDef):
                continue
            yield node
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, (ast.stmt,
                                                   ast.ExceptHandler)))

    def _check_function(self, state: AnalysisState,
                        facts: FunctionFacts) -> Iterator[Finding]:
        fn_node = facts.info.node
        aliases = self._aliases(fn_node)
        if not self._mutates_buffers(fn_node, aliases):
            return
        cfg = build_cfg(fn_node)
        site_by_node = {id(s.node): s for s in facts.calls}
        events = {}
        fact_node: Dict[Tuple[str, int], ast.AST] = {}
        for nid, stmt in cfg.stmt_of.items():
            gens, kills, reads = self._node_events(stmt, site_by_node,
                                                   state, aliases)
            events[nid] = (gens, kills, reads)
            for owner, node in gens:
                fact_node.setdefault((owner, node.lineno), node)
        all_facts = set(fact_node)
        gen_sets = {
            nid: frozenset((owner, node.lineno) for owner, node in gens)
            for nid, (gens, _, _) in events.items()}
        kill_sets = {
            nid: frozenset(f for f in all_facts if f[0] in kills)
            for nid, (_, kills, _) in events.items()}
        in_sets = reach_forward(cfg, gen_sets, kill_sets)
        qualname = facts.info.qualname
        for nid in sorted(events):
            _, _, reads = events[nid]
            dirty = in_sets.get(nid, frozenset())
            reported: Set[str] = set()
            for owner, node in reads:
                if owner in reported:
                    continue
                hits = sorted(f for f in dirty if f[0] == owner)
                if hits:
                    reported.add(owner)
                    yield self.finding(
                        facts.info, node,
                        f"'{_display(qualname)}' reads a derived cache of "
                        f"'{owner}' whose CSR buffers were mutated at line "
                        f"{hits[0][1]} without restore or invalidation")
        for fact in sorted(in_sets.get(EXIT, frozenset())):
            yield self.finding(
                facts.info, fact_node[fact],
                f"'{_display(qualname)}' mutates the CSR buffers of "
                f"'{fact[0]}' and can exit without restoring the default "
                "buffer or invalidating the derived caches")


# ---------------------------------------------------------------------------
# SPAN-FLOW
# ---------------------------------------------------------------------------
@register
class SpanFlowRule(DeepRule):
    name = "SPAN-FLOW"
    severity = "error"
    description = ("open telemetry span crossing a function boundary is "
                   "dropped: a wrapper that returns a start_span() result "
                   "has its return value discarded, or a span held in a "
                   "local is neither ended nor handed off on some path — "
                   "the tracer stack wedges and every enclosing span "
                   "misattributes time")

    def check(self, state: AnalysisState) -> Iterator[Finding]:
        for qualname in sorted(state.facts):
            yield from self._check_function(state, state.facts[qualname])

    @staticmethod
    def _opens_span(state: AnalysisState, facts: FunctionFacts,
                    expr: ast.AST) -> Optional[str]:
        """Qualname-ish description of the opener when ``expr`` yields an
        open span.  Direct start_span() is only seeded inside the
        telemetry package — outside it the flat TELEMETRY-LEAK rule
        already owns that finding."""
        if not isinstance(expr, ast.Call):
            return None
        site = next((s for s in facts.calls if s.node is expr), None)
        if site is not None:
            for callee in site.callees:
                if state.summaries.get(callee, BOTTOM).returns_open_span:
                    return _display(callee)
        in_telemetry = facts.info.module.startswith("repro.telemetry")
        if in_telemetry \
                and dotted(expr.func).rpartition(".")[2] == SPAN_OPEN_LEAF:
            return dotted(expr.func)
        return None

    def _check_function(self, state: AnalysisState,
                        facts: FunctionFacts) -> Iterator[Finding]:
        fn_node = facts.info.node
        opens: List[Tuple[ast.stmt, str, str]] = []   # (stmt, var, opener)
        discards: List[Tuple[ast.AST, str]] = []
        for node in _iter_own_nodes(fn_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                opener = self._opens_span(state, facts, node.value)
                if opener:
                    opens.append((node, node.targets[0].id, opener))
            elif isinstance(node, ast.Expr):
                opener = self._opens_span(state, facts, node.value)
                if opener:
                    discards.append((node, opener))
        qualname = facts.info.qualname
        for node, opener in discards:
            yield self.finding(
                facts.info, node,
                f"'{_display(qualname)}' discards an open span returned by "
                f"'{opener}'; end it or hand it off")
        if not opens:
            return
        cfg = build_cfg(fn_node)
        open_stmts = {id(stmt): (var, opener) for stmt, var, opener in opens}
        gen_sets: Dict[int, FrozenSet] = {}
        kill_sets: Dict[int, FrozenSet] = {}
        fact_info: Dict[Tuple[str, int], Tuple[ast.AST, str]] = {}
        all_vars = {var for _, var, _ in opens}
        facts_by_var: Dict[str, Set[Tuple[str, int]]] = {}
        for stmt, var, opener in opens:
            fact = (var, stmt.lineno)
            fact_info[fact] = (stmt, opener)
            facts_by_var.setdefault(var, set()).add(fact)
        for nid, stmt in cfg.stmt_of.items():
            if id(stmt) in open_stmts:
                var, opener = open_stmts[id(stmt)]
                gen_sets[nid] = frozenset({(var, stmt.lineno)})
                # re-opening kills the previous span fact for this var
                kill_sets[nid] = frozenset(
                    f for f in facts_by_var.get(var, ()) if f[1] != stmt.lineno)
                continue
            used = self._vars_mentioned(stmt, all_vars)
            if used:
                kill_sets[nid] = frozenset(
                    f for v in used for f in facts_by_var.get(v, ()))
        in_sets = reach_forward(cfg, gen_sets, kill_sets)
        for fact in sorted(in_sets.get(EXIT, frozenset())):
            stmt, opener = fact_info[fact]
            yield self.finding(
                facts.info, stmt,
                f"'{_display(qualname)}' opens a span via '{opener}' into "
                f"'{fact[0]}' but some path exits without ending or handing "
                "it off")

    @staticmethod
    def _vars_mentioned(stmt: ast.AST, names: Set[str]) -> Set[str]:
        found: Set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                found.add(node.id)
        return found


# ---------------------------------------------------------------------------
# FAULT-SWALLOW
# ---------------------------------------------------------------------------
@register
class FaultSwallowRule(DeepRule):
    name = "FAULT-SWALLOW"
    severity = "error"
    description = ("broad except (bare/Exception/BaseException) outside "
                   "resilience/ can absorb RecoveryExhausted or "
                   "FaultPlanError flowing out of the try body without "
                   "re-raising; injected faults must surface, not vanish "
                   "into a catch-all")

    def check(self, state: AnalysisState) -> Iterator[Finding]:
        for qualname in sorted(state.facts):
            facts = state.facts[qualname]
            if facts.info.module.startswith("repro.resilience"):
                continue
            site_by_node = {id(s.node): s for s in facts.calls}
            for node in _iter_own_nodes(facts.info.node):
                if not isinstance(node, ast.Try):
                    continue
                yield from self._check_try(state, facts, site_by_node, node)

    def _check_try(self, state: AnalysisState, facts: FunctionFacts,
                   site_by_node, try_node: ast.Try) -> Iterator[Finding]:
        escaping = self._escaping(state, site_by_node, try_node.body,
                                  frozenset())
        if not escaping:
            return
        for handler in try_node.handlers:
            if not handler_is_broad(handler) or handler_reraises(handler):
                continue
            absorbed = handler_absorbs(handler)
            hits = sorted((exc, src) for exc, src in escaping
                          if exc in absorbed)
            if not hits:
                continue
            exc, src = hits[0]
            names = handler_type_names(handler)
            spelled = "bare except" if "*" in names \
                else f"except {'/'.join(sorted(names))}"
            yield self.finding(
                facts.info, handler,
                f"{spelled} in '{_display(facts.info.qualname)}' may swallow "
                f"{exc} (raised via {src}); catch specific exceptions or "
                "re-raise")

    def _escaping(self, state: AnalysisState, site_by_node,
                  stmts: List[ast.stmt],
                  absorbed: FrozenSet[str]) -> Set[Tuple[str, str]]:
        """Protected exceptions that can escape ``stmts``, as
        (exception, source description) pairs."""
        out: Set[Tuple[str, str]] = set()
        for stmt in stmts:
            if isinstance(stmt, _FN_NODES) or isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, ast.Try):
                inner = frozenset(absorbed)
                for handler in stmt.handlers:
                    if not handler_reraises(handler):
                        inner |= handler_absorbs(handler)
                out |= self._escaping(state, site_by_node, stmt.body, inner)
                for handler in stmt.handlers:
                    out |= self._escaping(state, site_by_node, handler.body,
                                          absorbed)
                out |= self._escaping(state, site_by_node, stmt.orelse,
                                      absorbed)
                out |= self._escaping(state, site_by_node, stmt.finalbody,
                                      absorbed)
                continue
            for node in self._shallow_walk(stmt):
                if isinstance(node, ast.Raise):
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    name = dotted(exc).rpartition(".")[2] \
                        if exc is not None else ""
                    if name in PROTECTED_EXCEPTIONS and name not in absorbed:
                        out.add((name, f"raise at line {node.lineno}"))
                elif isinstance(node, ast.Call):
                    site = site_by_node.get(id(node))
                    if site is None:
                        continue
                    for callee in site.callees:
                        summary = state.summaries.get(callee, BOTTOM)
                        for exc in sorted(summary.may_raise - absorbed):
                            out.add((exc, f"'{_display(callee)}'"))
            nested = [stmt.body] if hasattr(stmt, "body") \
                and isinstance(getattr(stmt, "body"), list) else []
            if hasattr(stmt, "orelse") and isinstance(stmt.orelse, list):
                nested.append(stmt.orelse)
            for block in nested:
                out |= self._escaping(state, site_by_node, block, absorbed)
        return out

    @staticmethod
    def _shallow_walk(stmt: ast.AST) -> Iterator[ast.AST]:
        """The statement plus its expressions, not nested statements."""
        yield stmt
        stack = [child for child in ast.iter_child_nodes(stmt)
                 if not isinstance(child, (ast.stmt, ast.ExceptHandler))]
        while stack:
            node = stack.pop()
            if isinstance(node, _FN_NODES) or isinstance(node, ast.ClassDef):
                continue
            yield node
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, (ast.stmt,
                                                   ast.ExceptHandler)))


# ---------------------------------------------------------------------------
# LANE-FLOW
# ---------------------------------------------------------------------------

#: Clock entry points that write busy intervals straight onto the machine
#: timeline, bypassing the ``deferred()`` capture a datapipe stage runs
#: under.  Work routed through them lands at pre-drain timestamps on the
#: base device instead of the stage's declared lane.
LANE_ESCAPES = ("commit_schedule",)


@register
class LaneFlowRule(DeepRule):
    name = "LANE-FLOW"
    severity = "error"
    description = ("datapipe stage work charged outside its declared lane: a "
                   "Stage fn (or a function it calls) reaches a clock "
                   "primitive that records busy intervals directly "
                   "(commit_schedule), escaping the "
                   "deferred() capture the lane scheduler replays — that "
                   "time lands on the base device at pre-drain timestamps "
                   "instead of the stage's lane")

    def check(self, state: AnalysisState) -> Iterator[Finding]:
        escapes = self._escape_map(state)
        for qualname in sorted(state.facts):
            facts = state.facts[qualname]
            for node in _iter_own_nodes(facts.info.node):
                if not self._is_stage_call(node):
                    continue
                fn_expr = self._stage_fn(node)
                if fn_expr is None:
                    continue
                for target, primitive in self._fn_escapes(
                        state, facts, fn_expr, escapes):
                    yield self.finding(
                        facts.info, node,
                        f"Stage declared in '{_display(qualname)}' uses fn "
                        f"'{target}' which reaches '{primitive}'; interval-"
                        "recording clock primitives escape the deferred() "
                        "capture, so this work is charged outside the "
                        "stage's declared lane")

    # -- stage-construction syntax ------------------------------------
    @staticmethod
    def _is_stage_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and dotted(node.func).rpartition(".")[2] == "Stage")

    @staticmethod
    def _stage_fn(call: ast.Call) -> Optional[ast.AST]:
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        if len(call.args) >= 3:
            return call.args[2]
        return None

    # -- whole-program escape reachability ----------------------------
    def _escape_map(self, state: AnalysisState) -> Dict[str, str]:
        """qualname -> escaping primitive (transitive over the call graph)."""
        direct: Dict[str, str] = {}
        for qualname, facts in state.facts.items():
            primitive = self._direct_escape(facts.info.node)
            if primitive:
                direct[qualname] = primitive
        reaches = dict(direct)
        changed = True
        while changed:
            changed = False
            for qualname, facts in state.facts.items():
                if qualname in reaches:
                    continue
                for site in facts.calls:
                    hit = next((reaches[c] for c in site.callees
                                if c in reaches), None)
                    if hit:
                        reaches[qualname] = hit
                        changed = True
                        break
        return reaches

    @staticmethod
    def _direct_escape(fn_node: ast.AST) -> str:
        for node in _iter_own_nodes(fn_node):
            if isinstance(node, ast.Call):
                leaf = dotted(node.func).rpartition(".")[2]
                if leaf in LANE_ESCAPES:
                    return leaf
        return ""

    def _fn_escapes(self, state: AnalysisState, facts: FunctionFacts,
                    fn_expr: ast.AST,
                    escapes: Dict[str, str]) -> Iterator[Tuple[str, str]]:
        """(display name, primitive) pairs for one Stage fn expression."""
        if isinstance(fn_expr, ast.Lambda):
            primitive = self._lambda_escape(state, facts, fn_expr, escapes)
            if primitive:
                yield "<lambda>", primitive
            return
        for qualname in self._resolve_ref(state, facts, fn_expr):
            if qualname in escapes:
                yield _display(qualname), escapes[qualname]

    def _lambda_escape(self, state: AnalysisState, facts: FunctionFacts,
                       lam: ast.Lambda, escapes: Dict[str, str]) -> str:
        for node in ast.walk(lam.body):
            if not isinstance(node, ast.Call):
                continue
            leaf = dotted(node.func).rpartition(".")[2]
            if leaf in LANE_ESCAPES:
                return leaf
            site = next((s for s in facts.calls if s.node is node), None)
            if site is not None:
                hit = next((escapes[c] for c in site.callees
                            if c in escapes), "")
                if hit:
                    return hit
            # Call sites inside lambdas may not be in facts.calls; fall
            # back to resolving the callee reference by name.
            for callee in self._resolve_ref(state, facts, node.func):
                if callee in escapes:
                    return escapes[callee]
        return ""

    @staticmethod
    def _resolve_ref(state: AnalysisState, facts: FunctionFacts,
                     ref: ast.AST) -> List[str]:
        """Program functions a bare/attribute function reference names.

        ``name`` resolves to a sibling in the same module (nested defs
        share the enclosing module); ``self.meth``/``obj.meth`` resolve
        by method name within the same class first, then any class."""
        module = facts.info.module
        if isinstance(ref, ast.Name):
            suffix = ref.id
            return sorted(q for q, f in state.facts.items()
                          if f.info.module == module
                          and q.rsplit(".", 1)[-1].rsplit(":", 1)[-1] == suffix)
        if isinstance(ref, ast.Attribute):
            meth = ref.attr
            same_cls = sorted(
                q for q, f in state.facts.items()
                if f.info.module == module and f.info.cls == facts.info.cls
                and q.endswith(f":{facts.info.cls}.{meth}" if facts.info.cls
                               else f".{meth}"))
            if same_cls:
                return same_cls
            return sorted(q for q, f in state.facts.items()
                          if f.info.cls and q.endswith(f".{meth}"))
        return []
