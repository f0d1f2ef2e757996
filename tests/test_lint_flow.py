"""Tests for the ``repro lint --deep`` interprocedural dataflow pass.

Mirrors ``tests/test_lint.py``: each deep rule gets true-positive and
true-negative fixtures written into a synthetic ``repro.*`` tree, plus
unit coverage for the whole-program plumbing (call graph, method
resolution, CFG, worklist solver) and round-trips through the shared
suppression/baseline/report machinery.  The meta-test at the bottom pins
the acceptance criterion: the real tree is deep-clean with an empty
baseline, within the wall-clock budget.
"""

from __future__ import annotations

import ast
import textwrap
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import lint_paths, load_baseline, save_baseline
from repro.lint.engine import load_context, split_selection
from repro.lint.flow import DEEP_RULES, analyze, build_state, resolve_deep_rules
from repro.lint.flow.callgraph import build_program
from repro.lint.flow.cfg import ENTRY, EXIT, build_cfg, reach_forward
from repro.lint.flow.solver import MAX_VISITS_PER_NODE, fixpoint
from repro.lint.reporting import to_json_payload

REPO_ROOT = Path(__file__).resolve().parents[1]

DEEP_RULE_NAMES = {"UNCHARGED-COST", "RNG-FLOW", "STALE-CACHE",
                   "SPAN-FLOW", "FAULT-SWALLOW", "LANE-FLOW"}


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    """Write ``source`` at ``tmp_path/rel`` with an ``__init__.py`` chain."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    walk = target.parent
    while walk != tmp_path.parent and walk != walk.parent:
        if walk == tmp_path:
            break
        (walk / "__init__.py").touch()
        walk = walk.parent
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def deep_findings(tmp_path: Path, files, select=None):
    """Write a fixture tree, run the deep pass, return deep findings only."""
    for rel, source in files.items():
        write_module(tmp_path, rel, source)
    result = lint_paths([str(tmp_path)], select=select, deep=True)
    return [f for f in result.findings if f.rule in DEEP_RULE_NAMES]


def contexts_for(tmp_path: Path, files):
    ctxs = []
    for rel, source in files.items():
        path = write_module(tmp_path, rel, source)
        ctx, error = load_context(path)
        assert error is None, error
        ctxs.append(ctx)
    return ctxs


# ---------------------------------------------------------------------------
# registry / selection


def test_deep_registry():
    assert set(DEEP_RULES) == DEEP_RULE_NAMES
    for rule in DEEP_RULES.values():
        assert rule.severity in ("error", "warning")
        assert rule.description


def test_resolve_deep_rules_select_and_unknown():
    assert [r.name for r in resolve_deep_rules(["rng-flow"])] == ["RNG-FLOW"]
    with pytest.raises(KeyError):
        resolve_deep_rules(["NOPE"])


def test_split_selection_deep_rules_require_deep_flag():
    flat, deep = split_selection(["HOTLOOP", "SPAN-FLOW"], deep=True)
    assert [r.name for r in flat] == ["HOTLOOP"]
    assert [r.name for r in deep] == ["SPAN-FLOW"]
    with pytest.raises(KeyError, match="interprocedural"):
        split_selection(["SPAN-FLOW"], deep=False)
    with pytest.raises(KeyError, match="unknown rule"):
        split_selection(["NO-SUCH-RULE"], deep=True)


# ---------------------------------------------------------------------------
# worklist solver


def test_fixpoint_chain_propagates():
    # c depends on b depends on a; a is seeded True.
    deps = {"b": ["a"], "c": ["b"]}

    def transfer(node, state):
        if node == "a":
            return True
        return any(state.get(d, False) for d in deps.get(node, ()))

    state = fixpoint(["a", "b", "c"], deps, transfer, lambda n: False)
    assert state == {"a": True, "b": True, "c": True}


def test_fixpoint_cycle_converges():
    # a <-> b mutual recursion, c feeds the cycle.
    deps = {"a": ["b", "c"], "b": ["a"]}

    def transfer(node, state):
        if node == "c":
            return 1
        return max([state.get(d, 0) for d in deps.get(node, ())] + [0])

    state = fixpoint(["a", "b", "c"], deps, transfer, lambda n: 0)
    assert state == {"a": 1, "b": 1, "c": 1}


def test_fixpoint_nonmonotone_transfer_terminates():
    # An oscillating (buggy) transfer must hit the visit cap, not hang.
    calls = {"n": 0}

    def transfer(node, state):
        calls["n"] += 1
        return calls["n"] % 2  # flips every visit

    state = fixpoint(["a"], {"a": ["a"]}, transfer, lambda n: 0)
    assert "a" in state
    assert calls["n"] <= MAX_VISITS_PER_NODE + 1


def test_fixpoint_unknown_dependency_ignored():
    state = fixpoint(["a"], {"a": ["ghost"]},
                     lambda n, s: s.get("ghost", "bottom"), lambda n: "bottom")
    assert state == {"a": "bottom"}


# ---------------------------------------------------------------------------
# CFG + forward may-analysis


def _fn(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    return tree.body[0]


def test_cfg_if_branches_rejoin():
    cfg = build_cfg(_fn("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
    """))
    # both assignment nodes reach the return node
    ret = next(n for n, s in cfg.stmt_of.items() if isinstance(s, ast.Return))
    assert len(cfg.pred[ret]) == 2
    assert EXIT in cfg.succ[ret]


def test_cfg_empty_body_links_entry_to_exit():
    cfg = build_cfg(_fn("def f():\n    ..."))
    # Ellipsis statement: ENTRY -> stmt -> EXIT
    assert any(EXIT in cfg.succ[n] for n in cfg.succ)


def test_reach_forward_kill_on_one_branch():
    cfg = build_cfg(_fn("""
        def f(x):
            dirty = 1
            if x:
                dirty = 0
            return dirty
    """))
    nodes = {type(s).__name__: n for n, s in cfg.stmt_of.items()}
    gen, kill = {}, {}
    for n, stmt in cfg.stmt_of.items():
        if isinstance(stmt, ast.Assign):
            if stmt.value.value == 1:
                gen[n] = frozenset({"d"})
            else:
                kill[n] = frozenset({"d"})
    in_sets = reach_forward(cfg, gen, kill)
    # the fact may reach EXIT via the branch that skipped the kill
    assert "d" in in_sets[EXIT]
    # but it is gone just after the killing assignment
    killing = next(n for n in kill)
    out_of_killing = in_sets[EXIT]  # may-union, so check the return instead
    ret = next(n for n, s in cfg.stmt_of.items() if isinstance(s, ast.Return))
    assert "d" in in_sets[ret]


def test_reach_forward_loop_back_edge():
    cfg = build_cfg(_fn("""
        def f(xs):
            for x in xs:
                dirty = 1
            return 0
    """))
    gen = {n: frozenset({"d"}) for n, s in cfg.stmt_of.items()
           if isinstance(s, ast.Assign)}
    in_sets = reach_forward(cfg, gen, {})
    assert "d" in in_sets[EXIT]


# ---------------------------------------------------------------------------
# call graph / method resolution


CALLGRAPH_FILES = {
    "repro/pkg/base.py": """
        class Base:
            def greet(self):
                return self.name()

            def name(self):
                return "base"
    """,
    "repro/pkg/sub.py": """
        from repro.pkg.base import Base

        class Sub(Base):
            def name(self):
                return "sub"

        def run(obj: Sub):
            return obj.greet()

        def make():
            return Sub()

        def outer():
            def inner():
                return 1
            return inner()
    """,
}


def test_program_qualnames_and_nesting(tmp_path):
    program = build_program(contexts_for(tmp_path, CALLGRAPH_FILES))
    names = set(program.functions)
    assert "repro.pkg.base:Base.greet" in names
    assert "repro.pkg.sub:Sub.name" in names
    assert "repro.pkg.sub:run" in names
    assert "repro.pkg.sub:outer.<locals>.inner" in names


def test_method_resolution_through_inheritance(tmp_path):
    program = build_program(contexts_for(tmp_path, CALLGRAPH_FILES))
    # Sub inherits greet from Base; name resolves to the override first.
    assert program.lookup_method("repro.pkg.sub:Sub", "greet") \
        == "repro.pkg.base:Base.greet"
    assert program.lookup_method("repro.pkg.sub:Sub", "name") \
        == "repro.pkg.sub:Sub.name"


def test_typed_receiver_call_resolution(tmp_path):
    program = build_program(contexts_for(tmp_path, CALLGRAPH_FILES))
    run = program.functions["repro.pkg.sub:run"]
    call = next(n for n in ast.walk(run.node) if isinstance(n, ast.Call))
    callees = program.resolve_call(run, {"obj": "repro.pkg.sub:Sub"}, call)
    assert "repro.pkg.base:Base.greet" in callees


def test_constructor_call_resolves_to_init_or_class(tmp_path):
    files = dict(CALLGRAPH_FILES)
    files["repro/pkg/ctor.py"] = """
        class Thing:
            def __init__(self, n):
                self.n = n

        def build():
            return Thing(3)
    """
    program = build_program(contexts_for(tmp_path, files))
    build = program.functions["repro.pkg.ctor:build"]
    call = next(n for n in ast.walk(build.node) if isinstance(n, ast.Call))
    callees = program.resolve_call(build, {}, call)
    assert "repro.pkg.ctor:Thing.__init__" in callees


def test_imported_name_resolution(tmp_path):
    files = {
        "repro/pkg/util.py": """
            def helper():
                return 1
        """,
        "repro/pkg/use.py": """
            from repro.pkg.util import helper

            def caller():
                return helper()
        """,
    }
    program = build_program(contexts_for(tmp_path, files))
    caller = program.functions["repro.pkg.use:caller"]
    call = next(n for n in ast.walk(caller.node) if isinstance(n, ast.Call))
    assert "repro.pkg.util:helper" in program.resolve_call(caller, {}, call)


# ---------------------------------------------------------------------------
# UNCHARGED-COST


def test_uncharged_cost_tp(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/mm.py": """
        def spmm(a, b):
            return a @ b
    """}, select=["UNCHARGED-COST"])
    assert [f.rule for f in findings] == ["UNCHARGED-COST"]
    assert "spmm" in findings[0].message


def test_uncharged_cost_tn_direct_charge(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/mm.py": """
        def spmm(a, b, clock):
            out = a @ b
            clock.occupy(out.size)
            return out
    """}, select=["UNCHARGED-COST"])
    assert findings == []


def test_uncharged_cost_tn_charge_via_callee(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/mm.py": """
        def charge(clock, n):
            clock.occupy(n)

        def spmm(a, b, clock):
            out = a @ b
            charge(clock, out.size)
            return out
    """}, select=["UNCHARGED-COST"])
    assert findings == []


def test_uncharged_cost_tn_charged_caller_context(tmp_path):
    # helper does the raw work; its only caller charges -> clean.
    findings = deep_findings(tmp_path, {"repro/kernels/mm.py": """
        def _inner(a, b):
            return a @ b

        def spmm(a, b, clock):
            out = _inner(a, b)
            clock.occupy(out.size)
            return out
    """}, select=["UNCHARGED-COST"])
    assert findings == []


def test_uncharged_cost_tn_outside_costed_packages(tmp_path):
    findings = deep_findings(tmp_path, {"repro/viz/plot.py": """
        def project(a, b):
            return a @ b
    """}, select=["UNCHARGED-COST"])
    assert findings == []


def test_uncharged_cost_einsum_and_scatter(tmp_path):
    findings = deep_findings(tmp_path, {"repro/hardware/ein.py": """
        import numpy as np

        def contract(a, b):
            return np.einsum("ij,jk->ik", a, b)

        def scatter(out, idx, vals):
            np.add.at(out, idx, vals)
    """}, select=["UNCHARGED-COST"])
    assert sorted(f.line for f in findings) == [5, 8]


# ---------------------------------------------------------------------------
# RNG-FLOW


def test_rng_flow_tp_returned_generator(tmp_path):
    findings = deep_findings(tmp_path, {"repro/sampling/rng.py": """
        import numpy as np

        def fresh():
            return np.random.default_rng()

        def sample(xs):
            rng = fresh()
            return rng.choice(xs)
    """}, select=["RNG-FLOW"])
    assert [f.rule for f in findings] == ["RNG-FLOW"]
    assert "fresh" in findings[0].message


def test_rng_flow_tn_seeded(tmp_path):
    findings = deep_findings(tmp_path, {"repro/sampling/rng.py": """
        import numpy as np

        def fresh(seed):
            return np.random.default_rng(seed)

        def sample(xs, seed):
            rng = fresh(seed)
            return rng.choice(xs)
    """}, select=["RNG-FLOW"])
    assert findings == []


def test_rng_flow_tp_attribute_taint_across_methods(tmp_path):
    findings = deep_findings(tmp_path, {"repro/sampling/s.py": """
        import numpy as np

        class Sampler:
            def __init__(self):
                self.rng = np.random.default_rng()

            def draw(self, xs):
                return self.rng.choice(xs)
    """}, select=["RNG-FLOW"])
    assert len(findings) == 1
    assert findings[0].rule == "RNG-FLOW"
    assert "self.rng" in findings[0].message


def test_rng_flow_tn_seeded_attribute(tmp_path):
    findings = deep_findings(tmp_path, {"repro/sampling/s.py": """
        import numpy as np

        class Sampler:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def draw(self, xs):
                return self.rng.choice(xs)
    """}, select=["RNG-FLOW"])
    assert findings == []


# ---------------------------------------------------------------------------
# STALE-CACHE


ADJ_PREAMBLE = """
    class Adj:
        def __init__(self, mat):
            self._mat = mat
            self._mat_t = None
            self._default_data = mat.data

        def _transpose(self):
            if self._mat_t is None:
                self._mat_t = self._mat.T
            return self._mat_t
"""


def test_stale_cache_tp_read_after_mutate(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/a.py": ADJ_PREAMBLE + """
        def bad(self, data):
            self._mat.data = data
            t = self._transpose()
            self._mat.data = self._default_data
            return t
    """}, select=["STALE-CACHE"])
    assert len(findings) == 1
    assert "derived cache" in findings[0].message


def test_stale_cache_tp_exit_dirty(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/a.py": ADJ_PREAMBLE + """
        def bad(self, data):
            self._mat.data = data
            return self._mat.sum()
    """}, select=["STALE-CACHE"])
    assert len(findings) == 1
    assert "exit without restoring" in findings[0].message


def test_stale_cache_tn_restore_in_finally(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/a.py": ADJ_PREAMBLE + """
        def good(self, data):
            self._mat.data = data
            try:
                return self._mat.sum()
            finally:
                self._mat.data = self._default_data
    """}, select=["STALE-CACHE"])
    assert findings == []


def test_stale_cache_tn_invalidate_before_read(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/a.py": ADJ_PREAMBLE + """
        def good(self, data):
            self._mat.data = data
            self._mat_t = None
            t = self._transpose()
            self._mat.data = self._default_data
            return t
    """}, select=["STALE-CACHE"])
    assert findings == []


def test_stale_cache_tn_tensor_data_is_not_a_csr_buffer(tmp_path):
    # Optimizer-style `p.data = ...` rebinds a Tensor buffer, not the
    # adjacency's CSR arrays — must not fire.
    findings = deep_findings(tmp_path, {"repro/tensor/opt.py": """
        def step(params, lr):
            for p in params:
                p.data = p.data - lr * p.grad
    """}, select=["STALE-CACHE"])
    assert findings == []


def test_stale_cache_alias_of_transpose(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/a.py": ADJ_PREAMBLE + """
        def bad(self, data_t):
            mat_t = self._transpose()
            mat_t.data = data_t
            return self._mat
    """}, select=["STALE-CACHE"])
    assert len(findings) == 1
    assert "'self'" in findings[0].message


# ---------------------------------------------------------------------------
# SPAN-FLOW


SPAN_PREAMBLE = """
    def start_span(name):
        return object()

    def open_wrapper(name):
        return start_span(name)
"""


def test_span_flow_tp_leak_on_one_path(tmp_path):
    findings = deep_findings(
        tmp_path, {"repro/telemetry/w.py": SPAN_PREAMBLE + """
        def leaky(name, flag):
            span = open_wrapper(name)
            if flag:
                return None
            span.end()
    """}, select=["SPAN-FLOW"])
    assert len(findings) == 1
    assert "open_wrapper" in findings[0].message


def test_span_flow_tp_discarded_result(tmp_path):
    findings = deep_findings(
        tmp_path, {"repro/telemetry/w.py": SPAN_PREAMBLE + """
        def fire_and_forget(name):
            open_wrapper(name)
    """}, select=["SPAN-FLOW"])
    assert len(findings) == 1
    assert "discards" in findings[0].message


def test_span_flow_tn_ended_on_all_paths(tmp_path):
    findings = deep_findings(
        tmp_path, {"repro/telemetry/w.py": SPAN_PREAMBLE + """
        def clean(name, flag):
            span = open_wrapper(name)
            try:
                if flag:
                    return 1
                return 2
            finally:
                span.end()
    """}, select=["SPAN-FLOW"])
    assert findings == []


def test_span_flow_tn_handed_off(tmp_path):
    findings = deep_findings(
        tmp_path, {"repro/telemetry/w.py": SPAN_PREAMBLE + """
        def handoff(name):
            span = open_wrapper(name)
            return span
    """}, select=["SPAN-FLOW"])
    assert findings == []


def test_span_flow_interprocedural_wrapper_outside_telemetry(tmp_path):
    # the wrapper lives in telemetry; the leaky caller does not — the
    # open-span summary must cross the module boundary.
    findings = deep_findings(tmp_path, {
        "repro/telemetry/w.py": SPAN_PREAMBLE,
        "repro/train/loop.py": """
            from repro.telemetry.w import open_wrapper

            def leaky(name, flag):
                span = open_wrapper(name)
                if flag:
                    return None
                span.end()
        """,
    }, select=["SPAN-FLOW"])
    assert len(findings) == 1
    assert findings[0].path.endswith("loop.py")


# ---------------------------------------------------------------------------
# LANE-FLOW


LANE_PREAMBLE = """
    from repro.datapipe.pipeline import Stage

    def quiet_stage(index, payload):
        return payload
"""


def test_lane_flow_tp_named_fn_direct_escape(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": LANE_PREAMBLE + """
        def rogue_stage(index, payload):
            clock = payload.clock
            clock.commit_schedule([(0.0, "cpu", "", 1.0, "")])
            return payload

        def build(clock):
            return [Stage("fetch", "sampling", fn=rogue_stage,
                          lanes=("fetch",))]
    """}, select=["LANE-FLOW"])
    assert len(findings) == 1
    assert "rogue_stage" in findings[0].message
    assert "commit_schedule" in findings[0].message


def test_lane_flow_tp_transitive_callee(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": LANE_PREAMBLE + """
        def charge_directly(clock):
            clock.commit_schedule([(0.0, "cpu", "", 1.0, "")])

        def sneaky_stage(index, payload):
            charge_directly(payload.clock)
            return payload

        def build(clock):
            return [Stage("sample", "sampling", fn=sneaky_stage,
                          lanes=("worker/0",))]
    """}, select=["LANE-FLOW"])
    assert len(findings) == 1
    assert "sneaky_stage" in findings[0].message
    assert "commit_schedule" in findings[0].message


def test_lane_flow_tp_lambda_commit_schedule(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": LANE_PREAMBLE + """
        def build(clock):
            return [Stage("copy", "data_movement",
                          fn=lambda i, p: clock.commit_schedule(
                              [(0.0, "pcie", "", 1.0, "")]),
                          lanes=("copy",))]
    """}, select=["LANE-FLOW"])
    assert len(findings) == 1
    assert "commit_schedule" in findings[0].message


def test_lane_flow_tn_deferred_capturable_work(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": LANE_PREAMBLE + """
        def honest_stage(index, payload):
            payload.clock.occupy("cpu", 0.5, tag="sample")
            payload.clock.advance(0.1)
            payload.clock.occupy_parallel({"gpu0": 1.0, "gpu1": 1.0})
            return payload

        def build(clock):
            return [Stage("sample", "sampling", fn=honest_stage,
                          lanes=("worker/0",)),
                    Stage("train", "training", fn=quiet_stage,
                          lanes=("train",))]
    """}, select=["LANE-FLOW"])
    assert findings == []


def test_lane_flow_tn_escape_outside_stage_fn(tmp_path):
    # commit_schedule is fine outside the datapipe: only Stage fns run
    # under the scheduler's deferred capture.
    findings = deep_findings(tmp_path, {"repro/train/t.py": LANE_PREAMBLE + """
        def materialize(clock):
            clock.commit_schedule([(0.0, "gpu0", "", 1.0, "")])

        def build(clock):
            materialize(clock)
            return [Stage("train", "training", fn=quiet_stage,
                          lanes=("train",))]
    """}, select=["LANE-FLOW"])
    assert findings == []


# ---------------------------------------------------------------------------
# FAULT-SWALLOW


FAULT_PREAMBLE = """
    from repro.errors import RecoveryExhausted

    def may_blow():
        raise RecoveryExhausted("done")
"""


def test_fault_swallow_tp_broad_except(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": FAULT_PREAMBLE + """
        def swallow():
            try:
                return may_blow()
            except Exception:
                return None
    """}, select=["FAULT-SWALLOW"])
    assert len(findings) == 1
    assert "RecoveryExhausted" in findings[0].message
    assert "may_blow" in findings[0].message


def test_fault_swallow_tp_bare_except_direct_raise(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": """
        from repro.errors import FaultPlanError

        def swallow(flag):
            try:
                if flag:
                    raise FaultPlanError("bad plan")
            except:
                pass
    """}, select=["FAULT-SWALLOW"])
    assert len(findings) == 1
    assert "bare except" in findings[0].message


def test_fault_swallow_tn_reraise(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": FAULT_PREAMBLE + """
        def logged():
            try:
                return may_blow()
            except Exception:
                raise
    """}, select=["FAULT-SWALLOW"])
    assert findings == []


def test_fault_swallow_tn_narrow_handler(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": FAULT_PREAMBLE + """
        def narrow():
            try:
                return may_blow()
            except RecoveryExhausted:
                return None
    """}, select=["FAULT-SWALLOW"])
    assert findings == []


def test_fault_swallow_tn_resilience_package_exempt(tmp_path):
    findings = deep_findings(
        tmp_path, {"repro/resilience/t.py": FAULT_PREAMBLE + """
        def policy():
            try:
                return may_blow()
            except Exception:
                return None
    """}, select=["FAULT-SWALLOW"])
    assert findings == []


def test_fault_swallow_tn_inner_handler_absorbs_first(tmp_path):
    findings = deep_findings(tmp_path, {"repro/train/t.py": FAULT_PREAMBLE + """
        def guarded():
            try:
                try:
                    return may_blow()
                except RecoveryExhausted:
                    return None
            except Exception:
                return -1
    """}, select=["FAULT-SWALLOW"])
    assert findings == []


# ---------------------------------------------------------------------------
# recursion / convergence on real summaries


def test_recursive_functions_converge(tmp_path):
    findings = deep_findings(tmp_path, {"repro/kernels/rec.py": """
        def even(n, clock):
            clock.occupy(1)
            if n == 0:
                return True
            return odd(n - 1, clock)

        def odd(n, clock):
            if n == 0:
                return False
            return even(n - 1, clock)
    """})
    assert findings == []


def test_recursive_uncharged_cycle_still_fires(tmp_path):
    # a recursive cycle with raw work and no charge anywhere must not
    # talk itself into being "charged by a caller" through the cycle.
    findings = deep_findings(tmp_path, {"repro/kernels/rec.py": """
        def ping(a, b, n):
            out = a @ b
            if n:
                return pong(a, b, n - 1)
            return out

        def pong(a, b, n):
            return ping(a, b, n)
    """}, select=["UNCHARGED-COST"])
    assert len(findings) == 1


# ---------------------------------------------------------------------------
# suppression / baseline / reporting round-trips


UNCHARGED_SRC = """
    def spmm(a, b):
        return a @ b
"""

SUPPRESSED_SRC = """
    def spmm(a, b):
        return a @ b  # repro-lint: disable=UNCHARGED-COST host-side test helper
"""


def test_deep_finding_inline_suppression(tmp_path):
    assert deep_findings(tmp_path, {"repro/kernels/mm.py": UNCHARGED_SRC})
    assert deep_findings(
        tmp_path / "s", {"repro/kernels/mm.py": SUPPRESSED_SRC}) == []


def test_deep_baseline_round_trip(tmp_path):
    write_module(tmp_path, "repro/kernels/mm.py", UNCHARGED_SRC)
    dirty = lint_paths([str(tmp_path)], deep=True)
    assert not dirty.ok
    baseline_path = tmp_path / "baseline.json"
    save_baseline(dirty.findings, baseline_path)
    clean = lint_paths([str(tmp_path)], deep=True,
                       baseline=load_baseline(baseline_path))
    assert clean.ok and clean.findings == []
    assert any(f.rule == "UNCHARGED-COST" for f in clean.baselined)


def test_json_payload_deep_flag(tmp_path):
    write_module(tmp_path, "repro/kernels/mm.py", UNCHARGED_SRC)
    deep = to_json_payload(lint_paths([str(tmp_path)], deep=True))
    shallow = to_json_payload(lint_paths([str(tmp_path)]))
    assert deep["version"] == 2 and deep["deep"] is True
    assert shallow["deep"] is False
    assert deep["summary"]["by_rule"].get("UNCHARGED-COST") == 1
    assert "UNCHARGED-COST" not in shallow["summary"]["by_rule"]


def test_cli_deep_flag(tmp_path, capsys):
    write_module(tmp_path, "repro/kernels/mm.py", UNCHARGED_SRC)
    assert cli_main(["lint", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli_main(["lint", str(tmp_path), "--deep"]) == 1
    out = capsys.readouterr().out
    assert "UNCHARGED-COST" in out
    # deep rule names without --deep are a usage error, not silence
    assert cli_main(["lint", str(tmp_path), "--select", "UNCHARGED-COST"]) == 2
    capsys.readouterr()
    assert cli_main(["lint", str(tmp_path), "--select", "UNCHARGED-COST",
                     "--deep"]) == 1


def test_cli_list_rules_shows_deep(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in DEEP_RULE_NAMES:
        assert name in out
    assert "[deep]" in out


# ---------------------------------------------------------------------------
# determinism


def test_findings_deterministic_and_sorted(tmp_path):
    files = {
        "repro/kernels/zz.py": UNCHARGED_SRC,
        "repro/kernels/aa.py": UNCHARGED_SRC,
        "repro/train/t.py": FAULT_PREAMBLE + """
            def swallow():
                try:
                    return may_blow()
                except Exception:
                    return None
        """,
    }
    first = deep_findings(tmp_path, files)
    second = [f for f in lint_paths([str(tmp_path)], deep=True).findings
              if f.rule in DEEP_RULE_NAMES]
    assert [(f.path, f.line, f.col, f.rule) for f in first] \
        == [(f.path, f.line, f.col, f.rule) for f in second]
    keys = [(f.path, f.line, f.col, f.rule) for f in first]
    assert keys == sorted(keys)


def test_analyze_empty_contexts():
    assert analyze([]) == []


# ---------------------------------------------------------------------------
# acceptance: the real tree is deep-clean, fast, with an empty baseline


def test_planted_fixture_fails_deep_only():
    planted = REPO_ROOT / "examples" / "lint" / "planted"
    shallow = lint_paths([str(planted)])
    assert shallow.ok, [f.message for f in shallow.findings]
    deep = lint_paths([str(planted)], deep=True)
    assert [f.rule for f in deep.findings] == ["UNCHARGED-COST"]


def test_repo_tree_is_deep_clean():
    start = time.monotonic()
    result = lint_paths([str(REPO_ROOT / "src")], deep=True)
    elapsed = time.monotonic() - start
    assert result.deep
    assert result.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings]
    assert elapsed < 30.0
