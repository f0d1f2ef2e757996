"""The artifact layer (:mod:`repro.artifacts`) and the four formats on it.

(a) The committed ``BENCH_*.json`` are in canonical form.  (b) The files
of fixed seeded runs hash to values pinned at 7cf21e1, before the layer
replaced the per-format writers, so every writer kept its bytes; three of
them were re-pinned at 4b8931e without the kernel-schedule records.  (c) One
table of malformed payloads per format; each row names the field its
problem must mention.  (d) One unit test per shape primitive.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.artifacts import (
    NUM,
    Format,
    ListOf,
    MapOf,
    OneOf,
    Opt,
    atomic_write,
    conform,
    dumps,
    load,
    summarize,
)
from repro.bench.artifacts import SWEEP, SWEEP_AREAS, artifact_path
from repro.profiling.analysis import PROFILE, diff_run_dirs
from repro.serving import SERVE, ServeConfig, build_serve_report, run_serving_curve
from repro.telemetry.exporters import read_events_jsonl
from repro.telemetry.manifest import RUN

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# (a) canonical form
# ----------------------------------------------------------------------
@pytest.mark.parametrize("area", SWEEP_AREAS)
def test_committed_baselines_are_canonical(area):
    path = artifact_path(REPO_ROOT, area)
    assert dumps(load(path)) == path.read_text()


# ----------------------------------------------------------------------
# (b) byte identity against pins taken before the layer existed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_report():
    """A small fixed serving curve: ppi, two rates, 16 requests."""
    base = ServeConfig("dglite", "ppi", num_requests=16, dataset_scale=0.3,
                       budget_s=0.02, max_batch=8, seed=0)
    return build_serve_report(
        base, run_serving_curve(base, [100.0, 400.0], ["dglite"]))


def _canonical_texts(run_dir, serve_report, tmp_path):
    """Each pinned artifact's text, minus what depends on the host."""
    manifest = load(run_dir / "run.json")
    assert dumps(manifest) == (run_dir / "run.json").read_text()
    del manifest["provenance"]  # interpreter and library versions
    events = "".join(
        json.dumps({k: v for k, v in record.items()
                    if k not in ("wall_ts", "wall_dur")}, sort_keys=True)
        + "\n" for record in read_events_jsonl(run_dir / "events.jsonl"))
    texts = {"run.json": dumps(manifest), "events.jsonl": events,
             "serve.json": SERVE.write(tmp_path / "serve.json",
                                       serve_report).read_text()}
    for name in ("metrics.prom", "trace.json", "profile.json", "flame.folded"):
        texts[name] = (run_dir / name).read_text()
    return texts


PINNED_SHA256 = {
    "events.jsonl": "3065e68079d46e77c303a1fad9d4e7f64bb1fd6cac5971cd9ca60b412dec00b3",
    "flame.folded": "ea6a075d9733bcb73b9c570cb8933c23d2a8f223957186663c1b704482fe2e17",
    "metrics.prom": "5ff0eb89a57cc38f8819e1b17ebff94676bc8db74f67476ffea4b02942269235",
    "profile.json": "e1b9c9bbb29e42b3ed5a7b368c5cf4e4ffbee606753b8d2ebef41f62d722a41e",
    "run.json": "4d9257f572f5ece4707023e6e916dede108c6265613c634aa825be0f645959f7",
    "serve.json": "e188a451b6359c00f00ae0ccf8896e0adb7558011eecd854848fa866c8319711",
    "trace.json": "7bd0bff0523a4b0d9b33d9bb570ddc06426c307c2531bdc07eba88eda4487315",
}


def _digests(texts):
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()}


def test_artifact_bytes_match_the_pins(telemetry_bundle, serve_report,
                                       tmp_path):
    texts = _canonical_texts(telemetry_bundle[0], serve_report, tmp_path)
    assert _digests(texts) == PINNED_SHA256


def without_kernel_schedule(texts):
    """``texts`` minus what a switchable kernel schedule wrote: the
    ``kernel.fastpath.*`` counters (in ``run.json``, ``events.jsonl`` and
    ``metrics.prom``) and ``run.json``'s ``config.fastpath``.  On a tree
    without the switch it deletes nothing."""
    def kept(record):
        return not record.get("name", "").startswith("kernel.fastpath.")

    manifest = json.loads(texts["run.json"])
    manifest["config"].pop("fastpath", None)
    manifest["metrics"] = [m for m in manifest["metrics"] if kept(m)]
    events = "".join(line for line in texts["events.jsonl"].splitlines(True)
                     if kept(json.loads(line)))
    prom = "".join(line for line in texts["metrics.prom"].splitlines(True)
                   if "repro_kernel_fastpath_" not in line)
    return {**texts, "run.json": dumps(manifest), "events.jsonl": events,
            "metrics.prom": prom}


def test_pins_are_the_texts_without_the_schedule_records(
        telemetry_bundle, serve_report, tmp_path):
    """How the pins of run.json, events.jsonl and metrics.prom were taken:
    at 4b8931e, the last commit whose kernels had a switchable schedule,
    this test passes (the test above does not), so the pins differ from
    that commit's texts by the schedule records alone."""
    texts = _canonical_texts(telemetry_bundle[0], serve_report, tmp_path)
    assert _digests(without_kernel_schedule(texts)) == PINNED_SHA256


# ----------------------------------------------------------------------
# (c) malformed payloads, one table per format
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def valid(telemetry_bundle, serve_report):
    """One conforming payload per table."""
    run_dir = telemetry_bundle[0]
    return {
        "sweep": load(artifact_path(REPO_ROOT, "kernels")),
        "serve": serve_report,
        "analysis": load(run_dir / "profile.json"),
        "diff": diff_run_dirs(run_dir, run_dir),
        "run": load(run_dir / "run.json"),
    }


FORMATS = {"sweep": SWEEP, "serve": SERVE, "analysis": PROFILE,
           "diff": PROFILE, "run": RUN}
DELETE = object()


def _edit(payload, path, value):
    """A deep copy of ``payload`` with ``path`` set (or deleted)."""
    payload = json.loads(json.dumps(payload))
    if not path:
        return value
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value(payload) if callable(value) else value
    return payload


_HISTOGRAM = {"name": "x", "kind": "histogram", "labels": {}}
_DEVICE = {"kind": "cpu", "peak_flops": 1.0, "mem_bandwidth": 1.0}

# (table, path, new value, field a problem must name, number of problems)
MALFORMED = [
    ("sweep", (), [], "payload: expected dict", 1),
    ("sweep", ("area",), "warp", "area: 'warp' is not one of", 1),
    ("sweep", ("seeds",), [], "seeds: must not be empty", 1),
    ("sweep", ("cells", 0, "params"), {}, "cells[0].params.driver: missing", 5),
    ("sweep", ("cells", 0, "metrics"), {},
     "cells[0].metrics.virtual_s: missing", 2),
    ("sweep", ("cells", 0, "metrics", "virtual_s"),
     {"mean": 1.0, "values": [1.0, 1.0]},
     "cells[0].metrics.virtual_s: expected list", 1),
    ("sweep", ("cells", 0, "metrics", "virtual_s"), [1.0, "fast", 1.0],
     "cells[0].metrics.virtual_s[1]: expected int or float", 1),
    ("sweep", ("cells", 0, "metrics", "virtual_s"), [1.0],
     "cells[0].metrics.virtual_s: has 1 values for 3 seeds", 1),
    ("sweep", ("cells", 1, "id"), lambda p: p["cells"][0]["id"],
     "cells[1].id: duplicate cell id", 1),
    ("sweep", ("cells", 0, "attribution", "phases"), {"forward": "x"},
     "cells[0].attribution.phases['forward']", 1),
    ("serve", (), [], "payload: expected dict", 1),
    ("serve", (), {}, "unknown schema None", 1),
    ("serve", ("config", "seed"), DELETE, "config.seed: missing", 1),
    ("serve", ("results", 0, "latency", "p99"), DELETE,
     "results[0].latency.p99: missing", 1),
    ("serve", ("results", 0, "batches", "count"), 1.5,
     "results[0].batches.count: expected int", 1),
    ("serve", ("results",), lambda p: p["results"][::-1],
     "results: not sorted by (framework, offered_load)", 1),
    ("analysis", (), [], "payload: expected dict", 1),
    ("analysis", (), {"schema": "nope", "kind": "analysis"},
     "unknown schema 'nope'", 1),
    ("analysis", ("kind",), "bogus", "kind: 'bogus' is not one of", 1),
    ("analysis", ("flame", "stacks"), -1, "flame.stacks: negative", 1),
    ("analysis", ("roofline", "kernels", 0, "bound"), "sideways",
     "roofline.kernels[0].bound", 1),
    ("analysis", ("roofline", "kernels", 0, "pct_peak_memory"), -0.5,
     "roofline.kernels[0].pct_peak_memory: negative", 1),
    ("diff", (), {"schema": "repro.profile/1", "kind": "diff"},
     "delta_total_seconds: missing", 8),
    ("diff", ("identical",), "yes", "identical: expected bool", 1),
    ("diff", ("kernels", "grown"), [{"key": "k"}],
     "kernels.grown[0].delta: missing", 1),
    ("run", (), [], "payload: expected dict", 1),
    ("run", ("seed",), DELETE, "seed: missing", 1),
    ("run", ("phases", "bogus"), 0.0, "phases['bogus']: unknown phase", 1),
    ("run", ("phases", "training"), -1.0,
     "phases['training']: negative seconds", 1),
    ("run", ("phase_fractions",), {"training": 0.5},
     "phase_fractions: sum to 0.5", 1),
    ("run", ("spans", "count"), -1, "spans.count: negative", 1),
    ("run", ("metrics", 0, "kind"), "bogus", "metrics[0].kind", 1),
    ("run", ("metrics", 0), _HISTOGRAM, "metrics[0].buckets: missing", 2),
    ("run", ("hardware",), {"link": {"bandwidth": 1.0}},
     "hardware.devices: missing", 1),
    ("run", ("hardware",), {"devices": {"cpu0": dict(_DEVICE, kind="tpu")}},
     "hardware.devices['cpu0'].kind: 'tpu' is not one of", 1),
    ("run", ("hardware",), {"devices": {"cpu0": dict(_DEVICE, peak_flops=0)}},
     "hardware.devices['cpu0'].peak_flops: must be positive", 1),
    ("run", ("energy", "cpu_power_w", "p95"), DELETE,
     "energy.cpu_power_w.p95: missing", 1),
]


@pytest.mark.parametrize("table, path, value, field, count", MALFORMED,
                         ids=[f"{row[0]}-{row[3]}" for row in MALFORMED])
def test_malformed_payload_names_its_field(valid, table, path, value, field,
                                           count):
    assert FORMATS[table].validate(valid[table]) == []
    problems = FORMATS[table].validate(_edit(valid[table], path, value))
    assert any(field in problem for problem in problems), problems
    assert len(problems) == count, problems


@pytest.mark.parametrize("table", sorted(FORMATS))
def test_another_schema_is_the_one_problem(valid, table):
    (problem,) = FORMATS[table].validate(dict(valid[table], schema="x/9"))
    assert problem.startswith("unknown schema 'x/9'")
    assert FORMATS[table].schema in problem


def test_sweep_schema_problem_says_how_to_re_sweep(valid):
    (problem,) = SWEEP.validate(dict(valid["sweep"],
                                     schema="repro.bench.sweep/1"))
    assert "re-sweep with `repro bench sweep`" in problem


@pytest.mark.parametrize("table", sorted(FORMATS))
def test_write_refuses_invalid_and_touches_nothing(table, tmp_path):
    fmt = FORMATS[table]
    with pytest.raises(ValueError, match=f"refusing to write invalid "
                                         f"{fmt.schema} payload"):
        fmt.write(tmp_path / "bad.json", {"schema": fmt.schema})
    assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# (d) the primitives
# ----------------------------------------------------------------------
class TestShapes:
    def test_type_and_tuple_of_types(self):
        assert conform(3, int) == []
        assert conform(2.5, NUM) == []
        assert conform("x", NUM) == ["payload: expected int or float, "
                                     "got str"]

    def test_dict_requires_its_keys_and_allows_others(self):
        shape = {"a": int, "b": {"c": str}}
        assert conform({"a": 1, "b": {"c": "x"}, "extra": None}, shape) == []
        assert conform({"b": {"c": 1}}, shape) == [
            "a: missing", "b.c: expected str, got int"]
        assert conform([], shape) == ["payload: expected dict, got list"]

    def test_opt_allows_missing_and_null_but_not_a_wrong_type(self):
        shape = {"a": Opt(int)}
        assert conform({}, shape) == []
        assert conform({"a": None}, shape) == []
        assert conform({"a": "x"}, shape) == ["a: expected int, got str"]

    def test_list_of_checks_every_item_and_emptiness(self):
        assert conform([1, 2], ListOf(int)) == []
        assert conform([], ListOf(int)) == []
        assert conform([], ListOf(int, non_empty=True)) == [
            "payload: must not be empty"]
        assert conform({"xs": [1, "2"]}, {"xs": ListOf(int)}) == [
            "xs[1]: expected int, got str"]
        assert conform({}, ListOf(int)) == ["payload: expected list, got dict"]

    def test_map_of_checks_every_value(self):
        assert conform({"a": 1.0, "b": 2}, MapOf(NUM)) == []
        assert conform({"m": {"k": "v"}}, {"m": MapOf(NUM)}) == [
            "m['k']: expected int or float, got str"]
        assert conform([], MapOf(NUM)) == ["payload: expected dict, got list"]

    def test_one_of_is_membership(self):
        assert conform("gpu", OneOf("cpu", "gpu")) == []
        assert conform("tpu", OneOf("cpu", "gpu")) == [
            "payload: 'tpu' is not one of ('cpu', 'gpu')"]


class TestFormat:
    FMT = Format("demo/1", {"n": int},
                 check=lambda p: [] if p["n"] >= 0 else ["n: negative"])

    def test_check_runs_only_once_the_shape_conforms(self):
        assert self.FMT.validate({"schema": "demo/1", "n": 1}) == []
        assert self.FMT.validate({"schema": "demo/1", "n": -1}) == [
            "n: negative"]
        assert self.FMT.validate({"schema": "demo/1", "n": "x"}) == [
            "n: expected int, got str"]

    def test_write_is_the_canonical_serialisation(self, tmp_path):
        payload = {"schema": "demo/1", "n": 1, "a": [1, 2]}
        path = self.FMT.write(tmp_path / "d" / "demo.json", payload)
        assert path.read_text() == dumps(payload)
        assert dumps(payload) == json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n"
        assert load(path) == payload

    def test_refusal_names_the_first_problem_and_counts_the_rest(
            self, tmp_path):
        assert summarize(["a", "b", "c"]) == "a (+2 more)"
        assert summarize(["a"]) == "a"
        with pytest.raises(ValueError, match=r": n: missing$"):
            self.FMT.write(tmp_path / "demo.json", {"schema": "demo/1"})


class TestAtomicWrite:
    def test_replaces_and_leaves_no_temps(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(target, "new")
        assert target.read_text() == "new"
        atomic_write(target, b"\x00bytes")
        assert target.read_bytes() == b"\x00bytes"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_interrupted_write_keeps_the_old_file(self, tmp_path,
                                                  monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write(target, "old")

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            atomic_write(target, "new")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]
