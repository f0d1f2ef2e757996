"""Tests for the online serving layer (workload, batcher, engine, schema)."""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import BenchmarkError
from repro.kernels.config import use_reference_kernels
from repro.serving import (
    SERVE,
    ServeConfig,
    build_serve_report,
    form_batches,
    generate_trace,
    nearest_rank,
    run_serving_experiment,
)
from repro.serving.latency import LatencyAccountant
from repro.serving.workload import Request


class TestWorkload:
    @pytest.mark.parametrize("kind", ("poisson", "bursty", "diurnal"))
    def test_same_seed_same_trace(self, kind):
        a = generate_trace(kind, 32, 100.0, 1000, seed=7)
        b = generate_trace(kind, 32, 100.0, 1000, seed=7)
        assert [r.arrival for r in a] == [r.arrival for r in b]
        assert all(np.array_equal(x.nodes, y.nodes) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = generate_trace("poisson", 32, 100.0, 1000, seed=0)
        b = generate_trace("poisson", 32, 100.0, 1000, seed=1)
        assert [r.arrival for r in a] != [r.arrival for r in b]

    @pytest.mark.parametrize("kind", ("poisson", "bursty", "diurnal"))
    def test_arrivals_strictly_ordered(self, kind):
        arrivals = [r.arrival for r in
                    generate_trace(kind, 64, 200.0, 100, seed=3)]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_poisson_mean_rate(self):
        trace = generate_trace("poisson", 4000, 100.0, 10, seed=0)
        achieved = len(trace) / trace[-1].arrival
        assert achieved == pytest.approx(100.0, rel=0.1)

    def test_bursty_alternates_fast_and_slow_windows(self):
        trace = generate_trace("bursty", 32, 100.0, 10, seed=0,
                               burst_factor=4.0, burst_width=8)
        gaps = np.diff([0.0] + [r.arrival for r in trace])
        hot = np.concatenate([gaps[0:8], gaps[16:24]]).mean()
        cold = np.concatenate([gaps[8:16], gaps[24:32]]).mean()
        assert cold > hot

    def test_nodes_within_bounds(self):
        trace = generate_trace("poisson", 50, 100.0, 7, seed=0,
                               nodes_per_request=3)
        for request in trace:
            assert request.nodes.shape == (3,)
            assert request.nodes.min() >= 0 and request.nodes.max() < 7

    def test_shifted_moves_arrival_only(self):
        request = generate_trace("poisson", 1, 100.0, 10, seed=0)[0]
        moved = request.shifted(5.0)
        assert moved.arrival == request.arrival + 5.0
        assert moved.request_id == request.request_id
        assert np.array_equal(moved.nodes, request.nodes)

    def test_bad_params_rejected(self):
        with pytest.raises(BenchmarkError):
            generate_trace("zipf", 10, 100.0, 10)
        with pytest.raises(BenchmarkError):
            generate_trace("poisson", 0, 100.0, 10)
        with pytest.raises(BenchmarkError):
            generate_trace("poisson", 10, -1.0, 10)


def _requests(arrivals):
    return [Request(i, t, np.array([i], dtype=np.int64))
            for i, t in enumerate(arrivals)]


class TestBatcher:
    def test_closes_on_max_size(self):
        batches = form_batches(_requests([0.0, 0.001, 0.002, 0.003]),
                               max_size=2, max_wait=1.0)
        assert [b.size for b in batches] == [2, 2]
        assert all(b.closed_by == "size" for b in batches)
        # A size-closed batch dispatches the instant it fills.
        assert batches[0].formed_at == 0.001

    def test_closes_on_deadline(self):
        batches = form_batches(_requests([0.0, 0.001, 1.0]),
                               max_size=8, max_wait=0.01)
        assert [b.size for b in batches] == [2, 1]
        assert batches[0].closed_by == "deadline"
        assert batches[0].formed_at == pytest.approx(0.01)
        # The batcher cannot see the future: the last batch holds until
        # its deadline even though no further request will arrive.
        assert batches[1].formed_at == pytest.approx(1.01)

    def test_budget_never_exceeded(self):
        trace = generate_trace("bursty", 200, 500.0, 50, seed=5)
        for max_size, budget in ((4, 0.002), (16, 0.01), (64, 0.05)):
            for batch in form_batches(trace, max_size, budget):
                for request in batch.requests:
                    delay = batch.formed_at - request.arrival
                    assert -1e-12 <= delay <= budget + 1e-12
                assert batch.max_wait() <= budget + 1e-12

    def test_every_request_batched_exactly_once(self):
        trace = generate_trace("poisson", 64, 300.0, 50, seed=2)
        batches = form_batches(trace, 8, 0.01)
        ids = [r.request_id for b in batches for r in b.requests]
        assert sorted(ids) == list(range(64))

    def test_nodes_are_deduplicated_union(self):
        requests = [Request(0, 0.0, np.array([3, 1], dtype=np.int64)),
                    Request(1, 0.0, np.array([1, 2], dtype=np.int64))]
        batch = form_batches(requests, 4, 0.01)[0]
        assert np.array_equal(batch.nodes, [1, 2, 3])

    def test_unordered_trace_rejected(self):
        with pytest.raises(BenchmarkError):
            form_batches(_requests([1.0, 0.5]), 4, 0.01)

    def test_bad_knobs_rejected(self):
        with pytest.raises(BenchmarkError):
            form_batches([], 0, 0.01)
        with pytest.raises(BenchmarkError):
            form_batches([], 4, -0.01)


class TestLatencyAccountant:
    def test_nearest_rank_is_exact(self):
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 0.50) == 50.0
        assert nearest_rank(values, 0.95) == 95.0
        assert nearest_rank(values, 0.99) == 99.0
        assert nearest_rank(values, 1.00) == 100.0
        assert nearest_rank([], 0.5) == 0.0

    def test_summary_and_throughput(self):
        accountant = LatencyAccountant()
        for i, t in enumerate((0.1, 0.2, 0.3)):
            accountant.complete(Request(i, 0.0, np.array([0])), t)
        summary = accountant.summary()
        assert summary["p50"] == pytest.approx(0.2)
        assert summary["max"] == pytest.approx(0.3)
        assert accountant.throughput(3.0) == pytest.approx(1.0)

    def test_negative_latency_rejected(self):
        accountant = LatencyAccountant()
        with pytest.raises(ValueError):
            accountant.complete(Request(0, 1.0, np.array([0])), 0.5)


def _config(**overrides):
    base = dict(framework="dglite", dataset="ppi", rate=200.0,
                num_requests=24, budget_s=0.02, max_batch=8,
                dataset_scale=0.3, seed=0)
    base.update(overrides)
    return ServeConfig(**base)


class TestEngine:
    def test_serving_run_leaves_no_cyclic_garbage(self, cyclic_garbage):
        """run_serving_experiment does not call gc.collect()."""
        assert cyclic_garbage(lambda: run_serving_experiment(
            _config(cache_fraction=0.25, pipeline="depth-4"))) == []
        assert cyclic_garbage(lambda: run_serving_experiment(_config())) == []

    def test_all_requests_complete(self):
        result = run_serving_experiment(_config())
        assert result.completed == 24 and result.shed == 0
        assert len(result.latencies) == 24
        assert all(lat > 0 for lat in result.latencies)
        assert result.makespan > 0 and result.throughput > 0

    def test_budget_never_exceeded_on_virtual_clock(self):
        result = run_serving_experiment(_config(trace="bursty"))
        assert result.budget_violations == 0
        assert result.max_batch_wait <= result.config.budget_s + 1e-9

    def test_cpu_placement_skips_cache_and_pcie(self):
        result = run_serving_experiment(_config(placement="cpu"))
        assert result.completed == 24
        assert result.cache_hits == 0 and result.cache_misses == 0
        assert result.phases["data_movement"] == 0.0

    def test_warm_cache_records_hits(self):
        result = run_serving_experiment(_config(cache_fraction=0.5))
        assert result.cache_hits > 0
        assert 0.0 < result.hit_rate < 1.0

    def test_pipelining_shortens_makespan(self):
        serial = run_serving_experiment(_config(pipeline="off", rate=2000.0))
        deep = run_serving_experiment(_config(pipeline="depth-4",
                                              rate=2000.0))
        assert deep.makespan <= serial.makespan
        # Same completions either way: overlap must never drop requests.
        assert deep.completed == serial.completed == 24

    def test_same_seed_is_deterministic(self):
        a = run_serving_experiment(_config())
        b = run_serving_experiment(_config())
        assert a.latencies == b.latencies
        assert a.makespan == b.makespan and a.total_energy == b.total_energy

    def test_fastpath_cost_invariance(self):
        fast = run_serving_experiment(_config())
        with use_reference_kernels():
            ref = run_serving_experiment(_config())
        assert fast.makespan == ref.makespan
        assert fast.total_energy == ref.total_energy

    def test_gpu_placement_rejected(self):
        with pytest.raises(BenchmarkError):
            _config(placement="gpu")

    def test_pipeline_validation_shared_with_train(self):
        with pytest.raises(BenchmarkError):
            ServeConfig(framework="dglite", dataset="ppi",
                        placement="gpu", pipeline="depth-2")


_FAULT_PLAN = {
    "seed": 0,
    "faults": [{"site": "storage.read", "kind": "error", "at": 2,
                "count": 9}],
    "policies": {"storage.read": {"max_retries": 1, "backoff": 0.001}},
}


class TestDegradedModes:
    def test_shed_drops_failed_batches(self):
        result = run_serving_experiment(_config(degraded_mode="shed"),
                                        fault_plan=_FAULT_PLAN)
        assert result.shed > 0
        assert result.completed + result.shed == 24
        assert result.resilience["injected"] > 0

    def test_stale_serves_within_budget(self):
        result = run_serving_experiment(_config(degraded_mode="stale"),
                                        fault_plan=_FAULT_PLAN)
        assert result.completed == 24 and result.shed == 0
        assert result.stale > 0
        assert result.budget_violations == 0

    def test_stale_without_cache_sheds(self):
        result = run_serving_experiment(
            _config(degraded_mode="stale", cache_fraction=0.0),
            fault_plan=_FAULT_PLAN)
        assert result.stale == 0 and result.shed > 0


class TestSchema:
    def _report(self):
        config = _config()
        return config, build_serve_report(
            config, [run_serving_experiment(config)])

    def test_valid_report_passes(self):
        _, report = self._report()
        assert SERVE.validate(report) == []

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        config, report_a = self._report()
        _, report_b = self._report()
        path_a = SERVE.write(tmp_path / "a.json", report_a)
        path_b = SERVE.write(tmp_path / "b.json", report_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_report_has_no_volatile_provenance(self):
        _, report = self._report()
        text = json.dumps(report)
        for banned in ("timestamp", "wall", "git", "hostname"):
            assert banned not in text


class TestServeCli:
    def test_serve_smoke(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        assert main(["serve", "--dataset", "ppi", "--scale", "0.3",
                     "--requests", "12", "--rates", "150",
                     "--budget-ms", "20", "--max-batch", "8",
                     "--framework", "dglite", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "p99" in printed and "DGL-serve" in printed
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.serve/1"
        assert SERVE.validate(report) == []

    def test_train_pipeline_on_device_is_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--placement", "gpu", "--pipeline", "depth-2"])
        assert excinfo.value.code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("placement", ("gpu", "uvagpu"))
    def test_uva_placements_also_rejected(self, placement):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--placement", placement,
                  "--pipeline", "depth-4"])
        assert excinfo.value.code == 2

    def test_bad_rate_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--rates", "abc"])


# ----------------------------------------------------------------------
# What the hand-placed LaneScheduler loop reported at 716a017, before the
# window became a datapipe stage chain: dglite/reddit x2, 96 requests,
# seed 0.  ``float.hex()`` of every figure — the port moves no bit.  The
# 32..96 latencies of a window are pinned as the SHA-256 of their
# comma-joined hex strings (plus the first and last in the clear).
# ----------------------------------------------------------------------
_STORAGE_FAULTS = {
    "seed": 0,
    "faults": [{"site": "storage.read", "kind": "error", "at": 2,
                "count": 4}],
    "policies": {"storage.read": {"max_retries": 1, "backoff": 0.001}},
}
_H2D_FAULTS = {
    "seed": 0,
    "faults": [{"site": "transfer.h2d", "kind": "error", "at": 10,
                "count": 9}],
    "policies": {"transfer.h2d": {"max_retries": 1, "backoff": 0.001}},
}
PINNED_WINDOWS = {
    "200rps-depth4": (dict(rate=200.0), None),
    "5000rps-depth4": (dict(rate=5000.0), None),
    "1000rps-off-nocache": (dict(rate=1000.0, pipeline="off",
                                 cache_fraction=0.0), None),
    "stale-storage": (dict(rate=1000.0, degraded_mode="stale"),
                      _STORAGE_FAULTS),
    "shed-storage": (dict(rate=1000.0, degraded_mode="shed"),
                     _STORAGE_FAULTS),
    "shed-h2d": (dict(rate=1000.0, degraded_mode="shed"), _H2D_FAULTS),
}
PINNED = \
{'1000rps-off-nocache': {'counts': (96, 0, 0),
                         'first_latency': '0x1.728f9803f8eb0p-2',
                         'last_latency': '0x1.cd1d8c752dc50p-1',
                         'latencies_sha256': 'ec0b0386bc47d08c6e31006e2d0095b5502f2ad5f1d2c47f8bbddf8975d14936',
                         'makespan': '0x1.0366cdf69ef9ap+0',
                         'phases': {'data_movement': '0x1.1833b1707777bp-3',
                                    'sampling': '0x1.a4201dfcee924p-1',
                                    'training': '0x1.366493a2fb0f8p-6'},
                         'total_energy': '0x1.960930c9e2cf5p+9'},
 '200rps-depth4': {'counts': (96, 0, 0),
                   'first_latency': '0x1.db785a20943a0p-3',
                   'last_latency': '0x1.34d9b986bf278p+0',
                   'latencies_sha256': '30434cc9dfd0fefd3c397cbc3c9746e0f0c60e4004a36f47b9b78a8a89669074',
                   'makespan': '0x1.c511e032e79b6p+0',
                   'phases': {'data_movement': '0x1.28444a85d94a2p-2',
                              'sampling': '0x1.b19a0361cc5d3p+0',
                              'training': '0x1.fc57ba0ddf27dp-6'},
                   'total_energy': '0x1.c4743fd9c569ap+9'},
 '5000rps-depth4': {'counts': (96, 0, 0),
                    'first_latency': '0x1.01c8158e9a5e0p-2',
                    'last_latency': '0x1.458965d591d84p-1',
                    'latencies_sha256': '8747102b0e127d5180c091c87b730642f668eacf9dc7d22b2c1b3f8d901f4578',
                    'makespan': '0x1.511302872eae4p-1',
                    'phases': {'data_movement': '0x1.a9708a51f71a6p-4',
                               'sampling': '0x1.386ad78997ad8p-1',
                               'training': '0x1.366493a2fb0f8p-6'},
                    'total_energy': '0x1.82ddd614bbda4p+9'},
 'shed-h2d': {'counts': (64, 32, 0),
              'first_latency': '0x1.1f822c55d5000p-2',
              'last_latency': '0x1.aceaa46d430d8p-2',
              'latencies_sha256': '208ea80cf0ded1d359244abc63cdb9a767c74a63b6740ad83ee535dc694373b1',
              'makespan': '0x1.5d34239bd50ccp-1',
              'phases': {'data_movement': '0x1.aa8c19015a7d6p-4',
                         'sampling': '0x1.386ad78997ad8p-1',
                         'training': '0x1.a31f2bef508dbp-7'},
              'total_energy': '0x1.8398ea7a67542p+9'},
 'shed-storage': {'counts': (32, 64, 0),
                  'first_latency': '0x1.3f52f4644f9b0p-1',
                  'last_latency': '0x1.278d6f1862230p-1',
                  'latencies_sha256': '1aebb4c15f94c15c3a3444456b9afda59c51f6baac52b697980496fa54ef1f30',
                  'makespan': '0x1.613d7e9072514p-1',
                  'phases': {'data_movement': '0x1.1b86d45374895p-5',
                             'sampling': '0x1.3970fc66c6c82p-1',
                             'training': '0x1.9353f6ad4b229p-8'},
                  'total_energy': '0x1.82d16264b17d5p+9'},
 'stale-storage': {'counts': (96, 0, 64),
                   'first_latency': '0x1.fba1f28d9b810p-3',
                   'last_latency': '0x1.278d6f1862230p-1',
                   'latencies_sha256': 'b2b17a2a9cc17a6ed5d83816f3bd2109595cff2b747b248ec9af0f541c31648a',
                   'makespan': '0x1.613d7e9072514p-1',
                   'phases': {'data_movement': '0x1.277ae768d8a73p-5',
                              'sampling': '0x1.3970fc66c6c82p-1',
                              'training': '0x1.366493a2fb0f8p-6'},
                   'total_energy': '0x1.8445efef2ac62p+9'}}


class TestPinnedParentValues:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_matches_the_hand_placed_schedule_it_replaced(self, key):
        overrides, plan = PINNED_WINDOWS[key]
        pinned = PINNED[key]
        result = run_serving_experiment(
            ServeConfig("dglite", "reddit", num_requests=96,
                        dataset_scale=2.0, seed=0, **overrides),
            fault_plan=plan)
        assert (result.completed, result.shed, result.stale) == \
            pinned["counts"]
        assert result.makespan.hex() == pinned["makespan"]
        assert result.total_energy.hex() == pinned["total_energy"]
        assert {name: seconds.hex()
                for name, seconds in result.phases.items()} == pinned["phases"]
        latencies = [latency.hex() for latency in result.latencies]
        assert latencies[0] == pinned["first_latency"]
        assert latencies[-1] == pinned["last_latency"]
        assert hashlib.sha256(",".join(latencies).encode()).hexdigest() == \
            pinned["latencies_sha256"]
