"""The rule catalogue.

Each rule encodes a hazard the paper's magnifying-glass profiling
attributes framework slowdowns or wrong numbers to, and each is kept
only because a defect planted into real code trips it while the tier-1
suite still passes (the mutation table in ``docs/lint.md``):

* **HOTLOOP** — per-element Python iteration over array data inside the
  hot-path packages.  The exact pattern whose removal bought the ≈11x
  sampler win in PR 1; results stay identical, so no test notices it.
* **INPLACE-GRAD** — in-place mutation of a ``Tensor`` ``.data``/``.grad``
  buffer outside ``no_grad`` blocks or the optimizer/autograd-core
  modules.  The tape captures buffers by reference, so gradients go
  silently wrong while every forward value (and pin) stays the same.
* **PARAM-REG** — a ``Parameter`` built in ``Module.__init__`` but never
  registered on ``self``; it escapes ``parameters()`` and the optimizer
  never updates it, which no forward-only pin can see.
* **DTYPE-DRIFT** — explicit promotion to float64 in hot-path packages;
  doubles host GEMM/SpMM bytes and flops against the float32 feature
  tensors while the simulated cost model (and every pin) is unchanged.

All detection is purely syntactic (``ast``); rules accept rare false
positives, to be silenced with a justified inline suppression, in
exchange for zero runtime cost and no imports of the linted code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Type

from repro.lint.engine import FileContext, Finding, Rule

RULES: Dict[str, Rule] = {}

#: Packages whose inner loops the paper's profiling puts on the hot path.
HOT_PATH_PACKAGES = (
    "repro.sampling",
    "repro.kernels",
    "repro.tensor",
    "repro.frameworks",
)

#: Modules allowed to mutate ``.data``/``.grad`` in place: the autograd
#: core (defines the buffers) and the optimizers (their whole job).
INPLACE_EXEMPT_MODULES = {
    "repro.tensor.tensor",
    "repro.tensor.optim",
}


def register(cls: Type[Rule]) -> Type[Rule]:
    instance = cls()
    if instance.name in RULES:
        raise ValueError(f"duplicate rule name {instance.name!r}")
    RULES[instance.name] = instance
    return cls


# ---------------------------------------------------------------------------
# Shared AST helpers


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, "" for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ---------------------------------------------------------------------------
# HOTLOOP


def _is_array_sized_expr(node: ast.AST) -> bool:
    """Does ``node`` read the element count of an array-like?

    Matches ``len(x)``, ``x.size``, ``x.shape[i]`` — the idioms that turn
    a ``for``/``range`` into per-element iteration.
    """
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "len" and node.args:
        return True
    if isinstance(node, ast.Attribute) and node.attr == "size":
        return True
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
            and node.value.attr == "shape":
        return True
    return False


def _hot_loop_reason(iter_node: ast.AST) -> Optional[str]:
    """Why iterating ``iter_node`` walks array elements one by one."""
    if isinstance(iter_node, ast.Call):
        func = iter_node.func
        name = dotted_name(func)
        if isinstance(func, ast.Name) and func.id == "range":
            # range(..., ..., step) is strided (minibatch) iteration, not
            # per-element — only unstrided ranges over an array's extent
            # walk elements one at a time.
            if len(iter_node.args) < 3 and any(
                _is_array_sized_expr(arg) for arg in iter_node.args
            ):
                return "range() over an array's element count"
            return None
        if isinstance(func, ast.Name) and func.id in ("enumerate", "zip", "map",
                                                      "filter", "reversed", "sorted"):
            for arg in iter_node.args:
                reason = _hot_loop_reason(arg)
                if reason:
                    return reason
            return None
        if isinstance(func, ast.Attribute) and func.attr == "tolist":
            return ".tolist() materializes the array into Python objects"
        if name.endswith("nditer") or name.endswith("ndenumerate"):
            return f"{name.rsplit('.', 1)[-1]}() iterates array elements in Python"
        return None
    if isinstance(iter_node, ast.Attribute) and iter_node.attr == "flat":
        return ".flat iterates array elements in Python"
    return None


@register
class HotLoopRule(Rule):
    name = "HOTLOOP"
    severity = "error"
    description = ("per-element Python loop over array data in a hot-path "
                   "package; vectorize it (this pattern cost ~11x in the "
                   "sampler before PR 1)")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(*HOT_PATH_PACKAGES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                reason = _hot_loop_reason(it)
                if reason:
                    yield self.finding(
                        ctx, node,
                        f"per-element Python loop over array data ({reason}); "
                        "replace with a vectorized numpy operation",
                        span=(it.lineno, it.end_lineno),
                    )


# ---------------------------------------------------------------------------
# INPLACE-GRAD

#: ndarray methods that mutate their receiver in place.
MUTATING_ARRAY_METHODS = {"fill", "sort", "put", "resize", "partition",
                          "itemset", "setfield", "byteswap"}


def _tensor_buffer_attr(node: ast.AST) -> Optional[str]:
    """Return ".data"/".grad" when ``node`` addresses a Tensor buffer.

    Matches ``x.data`` / ``x.grad`` and subscripts thereof
    (``x.data[i]``).  Plain names called ``data``/``grad`` don't match —
    only attribute access does, since the hazard is reaching *into* a
    Tensor object someone else also holds.
    """
    if isinstance(node, ast.Subscript):
        return _tensor_buffer_attr(node.value)
    if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
        return node.attr
    return None


def _inside_no_grad(ctx: FileContext, node: ast.AST) -> bool:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                if dotted_name(expr).split(".")[-1] == "no_grad":
                    return True
    return False


@register
class InplaceGradRule(Rule):
    name = "INPLACE-GRAD"
    severity = "error"
    description = ("in-place mutation of a Tensor .data/.grad buffer outside "
                   "no_grad blocks and the optimizer/autograd-core modules; "
                   "the tape captures buffers by reference, so this silently "
                   "corrupts gradients")

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_packages("repro")
                and ctx.module not in INPLACE_EXEMPT_MODULES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Assign):
                targets = [e for t in node.targets
                           for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                verb = "assignment"
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
                verb = ("augmented assignment"
                        if isinstance(node, ast.AugAssign) else "assignment")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_ARRAY_METHODS:
                targets = [node.func.value]
                verb = f"in-place .{node.func.attr}()"
            else:
                continue
            for target in targets:
                buffer = _tensor_buffer_attr(target)
                if buffer and not _inside_no_grad(ctx, node):
                    yield self.finding(
                        ctx, node,
                        f"{verb} of a Tensor .{buffer} buffer outside no_grad; "
                        "wrap the mutation in `with no_grad():` or route it "
                        "through the optimizer")


# ---------------------------------------------------------------------------
# PARAM-REG


def _name_loads(tree: ast.AST, name: str) -> Iterator[ast.Name]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            yield node


def _target_reaches_self(target: ast.AST) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_target_reaches_self(e) for e in target.elts)
    base = target
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        base = base.value
    return isinstance(base, ast.Name) and base.id == "self"


def _is_registration_use(ctx: FileContext, use: ast.Name) -> bool:
    """Is this read of the local a plausible registration?

    Walking up from the read, container literals preserve identity;
    the first non-container ancestor decides: a call (``setattr``,
    ``append``, helper registrars) or ``return`` may register, an
    assignment registers iff a target chain reaches ``self``.  Any other
    expression (``w @ x``, ``w.data``) derives a *new* value, so the
    parameter itself stays invisible to ``parameters()``.
    """
    for ancestor in ctx.ancestors(use):
        if isinstance(ancestor, (ast.List, ast.Tuple, ast.Dict, ast.Set,
                                 ast.Starred)):
            continue
        if isinstance(ancestor, ast.Call):
            return True
        if isinstance(ancestor, ast.Assign):
            return any(_target_reaches_self(t) for t in ancestor.targets)
        if isinstance(ancestor, (ast.AnnAssign, ast.AugAssign)):
            return _target_reaches_self(ancestor.target)
        if isinstance(ancestor, ast.Return):
            return True
        return False
    return False


@register
class ParamRegRule(Rule):
    name = "PARAM-REG"
    severity = "error"
    description = ("Parameter created in a Module __init__ but never assigned "
                   "to self; it escapes parameters() so the optimizer never "
                   "updates it")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages("repro")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ctx.walk():
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and fn.name == "__init__":
                    yield from self._check_init(ctx, cls, fn)

    def _check_init(self, ctx: FileContext, cls: ast.ClassDef,
                    fn: ast.FunctionDef) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Expr) and self._is_parameter_call(node.value):
                yield self.finding(
                    ctx, node,
                    f"Parameter constructed in {cls.name}.__init__ is "
                    "discarded immediately; assign it to a self attribute",
                )
            elif isinstance(node, ast.Assign) and self._is_parameter_call(node.value):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    uses = [u for u in _name_loads(fn, target.id)
                            if u.lineno > node.lineno
                            or (u.lineno == node.lineno
                                and u.col_offset > target.col_offset)]
                    if not any(_is_registration_use(ctx, u) for u in uses):
                        yield self.finding(
                            ctx, node,
                            f"Parameter {target.id!r} in {cls.name}.__init__ "
                            "is never assigned to self (or registered via a "
                            "call); it will be missing from parameters()",
                        )

    @staticmethod
    def _is_parameter_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and dotted_name(node.func).split(".")[-1] == "Parameter")


# ---------------------------------------------------------------------------
# DTYPE-DRIFT

_F64_NAMES = {"float64", "double", "float_"}


def _is_float64_expr(node: ast.AST) -> bool:
    """Literal spellings of float64: np.float64, "float64", bare float."""
    if isinstance(node, ast.Constant) and node.value in ("float64", "double", "d"):
        return True
    name = dotted_name(node)
    if not name:
        return False
    leaf = name.split(".")[-1]
    return leaf in _F64_NAMES or name == "float"


@register
class DtypeDriftRule(Rule):
    name = "DTYPE-DRIFT"
    severity = "warning"
    description = ("explicit promotion to float64 in a hot-path package; the "
                   "stack's feature tensors are float32 and f64 doubles "
                   "GEMM/SpMM bytes+flops (suppress with a justification "
                   "where f64 is semantically required)")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(*HOT_PATH_PACKAGES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                if node.args and _is_float64_expr(node.args[0]):
                    yield self.finding(
                        ctx, node,
                        "astype to float64 promotes a float32 pipeline; keep "
                        "float32 or suppress with the reason f64 is required",
                    )
                continue
            if dotted_name(func).split(".")[-1] == "float64":
                yield self.finding(
                    ctx, node,
                    "np.float64() constructs a double; keep the pipeline in "
                    "float32",
                )
                continue
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_float64_expr(kw.value):
                    yield self.finding(
                        ctx, node,
                        "dtype=float64 allocates a double-precision array in "
                        "a float32 pipeline",
                    )
