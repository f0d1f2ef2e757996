"""Tests for the ``repro lint`` static-analysis subsystem.

Each rule gets true-positive and true-negative fixture snippets, written
into a synthetic ``repro.*`` package tree so path-scoped rules see the
module names they key on.  The meta-tests at the bottom pin the gate:
the shipped tree is clean, and the planted fixture trips every rule.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import RULES, LintUsageError, lint_paths
from repro.lint.engine import (SKIP_DIRS, Rule, iter_python_files,
                               module_name_for, select_rules)
from repro.lint.rules import register
from repro.lint.suppressions import SuppressionIndex, suppressions_for_source

REPO_ROOT = Path(__file__).resolve().parents[1]


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


def run_rules(tmp_path, rel, source, select=None):
    path = write_module(tmp_path, rel, source)
    return lint_paths([str(path)], select=select).findings


def fired(tmp_path, rel, body, header="import numpy as np\n\n"):
    """Rule names fired by ``body`` placed inside ``def f(xs, ys, p, v)``."""
    source = header + "def f(xs, ys, p, v):\n" + textwrap.indent(
        textwrap.dedent(body).strip() + "\n", "    ")
    return [f.rule for f in run_rules(tmp_path, rel, source)]


# ---------------------------------------------------------------------------
# registry


def test_registry_has_all_rules():
    assert set(RULES) == {"HOTLOOP", "INPLACE-GRAD", "PARAM-REG",
                          "DTYPE-DRIFT"}
    for rule in RULES.values():
        assert rule.severity in ("error", "warning")
        assert rule.description


def test_select_rules_and_unknown():
    assert [r.name for r in select_rules(["hotloop"])] == ["HOTLOOP"]
    with pytest.raises(LintUsageError):
        select_rules(["NOPE"])


def test_select_ignores_blank_entries():
    names = [r.name for r in select_rules(["dtype-drift", " ", ""])]
    assert names == ["DTYPE-DRIFT"]


def test_register_rejects_a_duplicate_name():
    class Again(Rule):
        name = "HOTLOOP"

    before = dict(RULES)
    with pytest.raises(ValueError, match="duplicate rule name"):
        register(Again)
    assert RULES == before


def test_module_name_for(tmp_path):
    path = write_module(tmp_path, "repro/sampling/mod.py", "x = 1\n")
    assert module_name_for(path) == "repro.sampling.mod"
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n")
    assert module_name_for(loose) == "loose"


def test_module_name_for_package_init(tmp_path):
    write_module(tmp_path, "repro/kernels/mod.py", "x = 1\n")
    init = tmp_path / "repro" / "kernels" / "__init__.py"
    assert module_name_for(init) == "repro.kernels"


# ---------------------------------------------------------------------------
# scope: which packages each rule watches

HOT_DEFECTS = """
    for i in range(len(xs)):
        ys = xs.astype(np.float64)
"""


@pytest.mark.parametrize("package", ["sampling", "kernels", "tensor",
                                     "frameworks"])
def test_hot_path_packages_get_hotloop_and_dtype_drift(tmp_path, package):
    rules = fired(tmp_path, f"repro/{package}/mod.py", HOT_DEFECTS)
    assert sorted(rules) == ["DTYPE-DRIFT", "HOTLOOP"]


@pytest.mark.parametrize("package", ["models", "profiling", "bench",
                                     "serving"])
def test_cold_packages_skip_hotloop_and_dtype_drift(tmp_path, package):
    assert fired(tmp_path, f"repro/{package}/mod.py", HOT_DEFECTS) == []


# ---------------------------------------------------------------------------
# HOTLOOP


HOTLOOP_TP = """
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


def test_hotloop_true_positives(tmp_path):
    findings = run_rules(tmp_path, "repro/sampling/hot.py", HOTLOOP_TP)
    assert len(findings) == 5
    assert all(f.rule == "HOTLOOP" for f in findings)


def test_hotloop_ignores_strided_and_scalar_loops(tmp_path):
    source = """
        def f(train, xs, fanouts, batch):
            for start in range(0, train.size, batch):
                yield train[start:start + batch]
            for fanout in reversed(fanouts):
                yield fanout
            for i in range(3):
                yield i
    """
    assert run_rules(tmp_path, "repro/sampling/ok.py", source) == []


@pytest.mark.parametrize("body", [
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
    "return sum(v for v in xs.tolist())",
])
def test_hotloop_each_per_element_idiom(tmp_path, body):
    assert fired(tmp_path, "repro/kernels/hot.py", body) == ["HOTLOOP"]


@pytest.mark.parametrize("body", [
    "for start in range(0, len(xs), 64): pass",
    "for i in range(3): pass",
    "for v in ys: pass",
    "for i, fanout in enumerate(ys): pass",
    "for a, b in zip(ys, v): pass",
    "while len(xs) > 3:\n    xs = xs[1:]",
])
def test_hotloop_leaves_non_element_loops_alone(tmp_path, body):
    assert fired(tmp_path, "repro/kernels/ok.py", body) == []


def test_hotloop_reports_the_loop_line(tmp_path):
    source = "def f(xs):\n    x = 1\n    for v in xs.flat:\n        x += v\n"
    (finding,) = run_rules(tmp_path, "repro/tensor/line.py", source)
    assert (finding.line, finding.span) == (3, (3, 3))
    assert ".flat" in finding.message


def test_hotloop_scoped_to_hot_path_packages(tmp_path):
    # Same per-element loop outside the hot-path packages: not flagged.
    assert run_rules(tmp_path, "repro/models/cold.py", HOTLOOP_TP) == []
    assert run_rules(tmp_path, "plain/pkg.py", HOTLOOP_TP) == []


# ---------------------------------------------------------------------------
# INPLACE-GRAD


def test_inplace_grad_true_positives(tmp_path):
    source = """
        def bad(p, update, g):
            p.data = update
            p.grad += g
            p.data[0] = 1.0
            p.grad.fill(0.0)
    """
    findings = run_rules(tmp_path, "repro/models/mutate.py", source)
    assert len(findings) == 4
    assert all(f.rule == "INPLACE-GRAD" for f in findings)


@pytest.mark.parametrize("body", [
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
    "v.weight.grad = None",
])
def test_inplace_grad_each_mutation_form(tmp_path, body):
    assert fired(tmp_path, "repro/models/mut.py", body) == ["INPLACE-GRAD"]


@pytest.mark.parametrize("body", [
    "ys = p.data",
    "ys = p.data + v",
    "data = v",
    "p.data_cache = v",
    "ys = p.data.copy()\nys.fill(0)",
    "ys = np.sort(p.data)",
    "with no_grad():\n    p.data = v",
    "with repro.tensor.no_grad():\n    p.grad = None",
    "with no_grad():\n    for i in range(2):\n        p.data[i] = v",
])
def test_inplace_grad_leaves_reads_and_guarded_writes_alone(tmp_path, body):
    assert fired(tmp_path, "repro/models/ok.py", body) == []


@pytest.mark.parametrize("module", ["repro/tensor/tensor.py",
                                    "repro/tensor/optim.py"])
def test_inplace_grad_exempt_modules(tmp_path, module):
    assert fired(tmp_path, module, "p.data = v\np.grad.fill(0)") == []


def test_inplace_grad_allows_no_grad_and_exempt_modules(tmp_path):
    guarded = """
        from repro.tensor.tensor import no_grad

        def ok(p, update):
            with no_grad():
                p.data = update
                p.grad = None
    """
    assert run_rules(tmp_path, "repro/models/guarded.py", guarded) == []
    # The optimizer module's whole job is mutating .data in place.
    raw = """
        def step(p, lr, grad):
            p.data = p.data - lr * grad
    """
    assert run_rules(tmp_path, "repro/tensor/optim.py", raw) == []
    # Outside the repro package the rule does not apply (tests may poke).
    assert run_rules(tmp_path, "plain/mutate.py", "def f(p):\n    p.data = 1\n") == []


# ---------------------------------------------------------------------------
# PARAM-REG


def test_param_reg_true_positives(tmp_path):
    source = """
        from repro.tensor.module import Module, Parameter

        class Bad(Module):
            def __init__(self, w0):
                super().__init__()
                weight = Parameter(w0)        # never registered
                Parameter(w0)                 # discarded immediately
                scale = Parameter(w0)
                self.cached = scale.data * 2  # read, still unregistered
    """
    findings = run_rules(tmp_path, "repro/models/layers.py", source)
    assert len(findings) == 3
    assert all(f.rule == "PARAM-REG" for f in findings)


def param_init(body: str) -> str:
    return ("from repro.tensor.module import Module, Parameter\n\n"
            "class M(Module):\n"
            "    def __init__(self, w0):\n"
            "        super().__init__()\n"
            + textwrap.indent(textwrap.dedent(body).strip() + "\n", " " * 8))


@pytest.mark.parametrize("body", [
    "Parameter(w0)",
    "w = Parameter(w0)",
    "w = Parameter(w0)\nself.v = w.data",
    "w = Parameter(w0)\nself.v = w * 2",
    "w = nn.Parameter(w0)",
    "w = Parameter(w0)\nalias = w",
])
def test_param_reg_each_unregistered_form(tmp_path, body):
    findings = run_rules(tmp_path, "repro/models/m.py", param_init(body))
    assert [f.rule for f in findings] == ["PARAM-REG"]


@pytest.mark.parametrize("body", [
    "self.w = Parameter(w0)",
    "w = Parameter(w0)\nself.w = w",
    "w = Parameter(w0)\nsetattr(self, 'w', w)",
    "w = Parameter(w0)\nself.ws = [w]",
    "w = Parameter(w0)\nself.ws = {'a': w}",
    "w = Parameter(w0)\nself.register(w)",
    "w = Parameter(w0)\nself.cfg: object = w",
    "self.ws = []\nw = Parameter(w0)\nself.ws.append(w)",
    "self.a, self.b = Parameter(w0), Parameter(w0)",
])
def test_param_reg_each_registration_form(tmp_path, body):
    assert run_rules(tmp_path, "repro/models/m.py", param_init(body)) == []


def test_param_reg_message_names_class_and_local(tmp_path):
    (finding,) = run_rules(tmp_path, "repro/models/m.py",
                           param_init("w = Parameter(w0)"))
    assert "'w'" in finding.message and "M.__init__" in finding.message


def test_param_reg_true_negatives(tmp_path):
    source = """
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
                w = Parameter(x)  # outside __init__: other rules' business
                return w
    """
    assert run_rules(tmp_path, "repro/models/layers.py", source) == []


# ---------------------------------------------------------------------------
# DTYPE-DRIFT


def test_dtype_drift_true_positives(tmp_path):
    source = """
        import numpy as np

        def f(x):
            a = x.astype(np.float64)
            b = x.astype("float64")
            c = x.astype(float)
            d = np.zeros(3, dtype=np.float64)
            e = np.float64(x[0])
            return a, b, c, d, e
    """
    findings = run_rules(tmp_path, "repro/kernels/promote.py", source)
    assert len(findings) == 5
    assert all(f.rule == "DTYPE-DRIFT" for f in findings)
    assert all(f.severity == "warning" for f in findings)


def test_dtype_drift_true_negatives(tmp_path):
    source = """
        import numpy as np
        FLOAT_DTYPE = np.float32

        def f(x):
            a = x.astype(np.float32)
            b = x.astype(FLOAT_DTYPE)
            c = np.zeros(3, dtype=np.int64)
            return a, b, c
    """
    assert run_rules(tmp_path, "repro/kernels/promote.py", source) == []
    # Not a hot-path package: promotion is allowed (e.g. report code).
    drift = "import numpy as np\n\ndef f(x):\n    return x.astype(np.float64)\n"
    assert run_rules(tmp_path, "repro/profiling/report2.py", drift) == []


@pytest.mark.parametrize("expr", [
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
    "numpy.float64(xs)",
])
def test_dtype_drift_each_float64_spelling(tmp_path, expr):
    assert fired(tmp_path, "repro/kernels/d.py", f"return {expr}") \
        == ["DTYPE-DRIFT"]


@pytest.mark.parametrize("expr", [
    "xs.astype(np.float32)",
    'xs.astype("float32")',
    "xs.astype(np.float16)",
    "xs.astype(xs.dtype)",
    "np.zeros(3)",
    "np.zeros(3, dtype=np.int64)",
    "np.float32(1)",
])
def test_dtype_drift_leaves_other_dtypes_alone(tmp_path, expr):
    assert fired(tmp_path, "repro/kernels/d.py", f"return {expr}") == []


# ---------------------------------------------------------------------------
# mutation audit: each kept row of docs/lint.md, replayed on the real file

#: (rule, real module, anchor text, planted replacement).  The anchor must
#: occur exactly once, so a rewrite of the real code fails here loudly
#: instead of leaving the row silently untested.
MUTATION_ROWS = [
    ("HOTLOOP", "repro/sampling/neighbor.py",
     "    examined = int(degrees.sum())\n",
     "    examined = 0\n"
     "    for i in range(len(degrees)):\n"
     "        examined += int(degrees[i])\n"),
    ("INPLACE-GRAD", "repro/frameworks/nn.py",
     "        support = h * (1.0 - self.alpha) + x0 * self.alpha\n",
     "        h.data *= (1.0 - self.alpha)\n"
     "        support = h + x0 * self.alpha\n"),
    ("PARAM-REG", "repro/frameworks/nn.py",
     "        self.eps = Parameter(init.zeros((1,)))\n",
     "        eps = Parameter(init.zeros((1,)))\n"
     "        self.eps = Tensor(eps.data)\n"),
    ("DTYPE-DRIFT", "repro/frameworks/base.py",
     "            features.data[sample.input_nodes],\n",
     "            features.data[sample.input_nodes].astype(np.float64),\n"),
]


def test_mutation_table_covers_every_rule():
    assert sorted(row[0] for row in MUTATION_ROWS) == sorted(RULES)


@pytest.mark.parametrize("rule, rel, anchor, plant", MUTATION_ROWS,
                         ids=[row[0] for row in MUTATION_ROWS])
def test_mutation_row_fires_on_the_real_file(tmp_path, rule, rel, anchor, plant):
    real = (REPO_ROOT / "src" / rel).read_text(encoding="utf-8")
    assert real.count(anchor) == 1
    assert run_rules(tmp_path / "clean", rel, real, select=[rule]) == []
    mutant = run_rules(tmp_path / "mutant", rel,
                       real.replace(anchor, plant), select=[rule])
    assert [f.rule for f in mutant] == [rule]


# ---------------------------------------------------------------------------
# inline suppressions

PROMOTE = "x.astype(np.float64)"


def test_inline_suppression_silences_only_that_line(tmp_path):
    source = f"""
        import numpy as np

        def f(x):
            a = {PROMOTE}  # repro-lint: disable=DTYPE-DRIFT justified here
            b = {PROMOTE}
            return a, b
    """
    findings = run_rules(tmp_path, "repro/kernels/one.py", source)
    assert [f.line for f in findings] == [6]


def test_suppression_matches_multiline_expression_span(tmp_path):
    source = """
        import numpy as np

        def f(x):
            return np.maximum(
                x, 1
            ).astype(np.float64)  # repro-lint: disable=DTYPE-DRIFT
    """
    assert run_rules(tmp_path, "repro/kernels/span.py", source) == []


def test_file_level_suppression_and_disable_all(tmp_path):
    source = f"""
        # repro-lint: disable-file=DTYPE-DRIFT
        import numpy as np

        def f(x, p):
            a = {PROMOTE}
            p.data = a  # repro-lint: disable=all
            return a
    """
    assert run_rules(tmp_path, "repro/kernels/file.py", source) == []


def test_marker_inside_string_is_not_a_suppression(tmp_path):
    source = f"""
        import numpy as np

        def f(x):
            note = "# repro-lint: disable=DTYPE-DRIFT"
            return {PROMOTE}, note
    """
    assert len(run_rules(tmp_path, "repro/kernels/note.py", source)) == 1


def test_suppression_rule_names_are_case_insensitive(tmp_path):
    source = f"""
        import numpy as np

        def f(x):
            return {PROMOTE}  # repro-lint: disable=dtype-drift
    """
    result = lint_paths([str(write_module(tmp_path, "repro/kernels/c.py",
                                          source))])
    assert result.findings == [] and result.suppressed == 1


def test_suppression_lists_several_rules(tmp_path):
    source = """
        import numpy as np

        def f(xs):
            return [v for v in xs.astype(np.float64).flat]  # repro-lint: disable=HOTLOOP,DTYPE-DRIFT
    """
    result = lint_paths([str(write_module(tmp_path, "repro/kernels/l.py",
                                          source))])
    assert result.findings == [] and result.suppressed == 2


def test_suppression_of_another_rule_does_not_silence(tmp_path):
    source = f"""
        import numpy as np

        def f(x):
            return {PROMOTE}  # repro-lint: disable=HOTLOOP
    """
    findings = run_rules(tmp_path, "repro/kernels/o.py", source)
    assert [f.rule for f in findings] == ["DTYPE-DRIFT"]


def test_file_level_disable_all(tmp_path):
    source = f"""
        # repro-lint: disable-file=all
        import numpy as np

        def f(x, p):
            p.data = {PROMOTE}
    """
    assert run_rules(tmp_path, "repro/kernels/all.py", source) == []


def test_suppression_index_accepts_a_reversed_span():
    index = SuppressionIndex()
    index.add(4, {"HOTLOOP"})
    assert index.is_suppressed("hotloop", (5, 3))
    assert not index.is_suppressed("HOTLOOP", (5, 6))


def test_untokenizable_source_has_no_suppressions():
    index = suppressions_for_source('x = """never closed  # repro-lint: disable=all\n')
    assert index.by_line == {} and index.file_level == set()


# ---------------------------------------------------------------------------
# file discovery


@pytest.mark.parametrize("skipped", sorted(SKIP_DIRS))
def test_discovery_skips_tool_directories(tmp_path, skipped):
    write_module(tmp_path, "pkg/kept.py", "x = 1\n")
    hidden = tmp_path / "pkg" / skipped / "hidden.py"
    hidden.parent.mkdir(parents=True)
    hidden.write_text("def f(:\n")
    assert [p.name for p in iter_python_files([str(tmp_path)])] \
        == ["__init__.py", "kept.py"]


def test_discovery_order_is_by_posix_path(tmp_path):
    for rel in ("b/z.py", "a/y.py", "a_b.py", "a/x/w.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("x = 1\n")
    found = [p.relative_to(tmp_path).as_posix()
             for p in iter_python_files([str(tmp_path)])]
    assert found == sorted(found) == ["a/x/w.py", "a/y.py", "a_b.py", "b/z.py"]


def test_explicit_non_python_file_is_ignored_beside_a_python_one(tmp_path):
    (tmp_path / "notes.md").write_text("# notes\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    result = lint_paths([str(tmp_path / "notes.md"), str(tmp_path / "a.py")])
    assert result.files_checked == 1 and result.ok


def test_findings_are_sorted_by_path_then_line(tmp_path):
    drift = f"import numpy as np\n\ndef f(x):\n    a = {PROMOTE}\n    return {PROMOTE}\n"
    write_module(tmp_path, "repro/kernels/b.py", drift)
    write_module(tmp_path, "repro/kernels/a.py", drift)
    findings = lint_paths([str(tmp_path / "repro")]).findings
    assert [(Path(f.path).name, f.line) for f in findings] \
        == [("a.py", 4), ("a.py", 5), ("b.py", 4), ("b.py", 5)]


# ---------------------------------------------------------------------------
# syntax errors


def test_unparsable_file_yields_syntax_finding(tmp_path):
    path = write_module(tmp_path, "broken.py", "def f(:\n")
    findings = lint_paths([str(path)]).findings
    assert len(findings) == 1
    assert findings[0].rule == "SYNTAX"
    assert findings[0].severity == "error"


def test_undecodable_file_yields_syntax_finding(tmp_path):
    path = tmp_path / "latin1.py"
    path.write_bytes(b"x = '\xe9'\n")
    (finding,) = lint_paths([str(path)]).findings
    assert finding.rule == "SYNTAX" and "unreadable" in finding.message


# ---------------------------------------------------------------------------
# CLI


@pytest.mark.parametrize("argv, code", [
    (["clean.py"], 0),
    (["repro/kernels/dirty.py"], 1),
    (["repro/kernels/dirty.py", "--select", "HOTLOOP"], 0),  # out of scope
    (["repro/kernels/dirty.py", "--select", "BOGUS"], 2),
    (["does-not-exist"], 2),   # a typo in a CI path must not pass the gate
    (["notes.md"], 2),         # an existing path with no Python file in it
])
def test_cli_exit_codes(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    write_module(tmp_path, "repro/kernels/dirty.py", f"""
        import numpy as np

        def f(x):
            return {PROMOTE}
    """)
    write_module(tmp_path, "clean.py", "x = 1\n")
    (tmp_path / "notes.md").write_text("# notes\n")
    assert cli_main(["lint", *argv]) == code
    out = capsys.readouterr().out
    if code == 2:
        assert out.startswith("error: ")


def test_cli_prints_one_line_per_finding_and_a_summary(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_module(tmp_path, "repro/kernels/dirty.py",
                 f"import numpy as np\n\ndef f(x):\n    return {PROMOTE}\n")
    assert cli_main(["lint", "repro", "--select", "dtype-drift"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("repro/kernels/dirty.py:4:12: DTYPE-DRIFT [warning] ")
    assert lines[-1] == "1 finding(s) in 3 file(s) (0 suppressed)"


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in RULES:
        assert name in out


# ---------------------------------------------------------------------------
# meta: the shipped tree is clean, the planted fixture is not


def test_repo_tree_is_clean():
    """`repro lint src tests benchmarks` — the CI gate — has no findings."""
    result = lint_paths([str(REPO_ROOT / top)
                         for top in ("src", "tests", "benchmarks")])
    assert result.ok, "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )
    assert result.files_checked > 150


def test_planted_fixture_trips_every_rule():
    """CI's must-fail self-test: one planted defect per rule, each caught."""
    result = lint_paths([str(REPO_ROOT / "examples" / "lint" / "planted")])
    assert sorted(f.rule for f in result.findings) == sorted(RULES)
