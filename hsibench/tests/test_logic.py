"""Tests of the benchmark's own logic (not of the package it measures).

    python3 -m pytest hsibench/tests -q
"""

from __future__ import annotations

import asyncio
import os
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from common import (HOST_REF_S, band_mean, percentile,  # noqa: E402
                    report_layers, scaled_times)
from spans import Span, Tracer, covered, self_by_name, self_times  # noqa: E402


# -- self-time arithmetic ---------------------------------------------------

def span(span_id, start, end, parent=None, name="x", op="op"):
    return Span(span_id, name, start, end, parent, op)


def test_covered_merges_overlaps_and_gaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([]) == 0.0
    assert covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_of_nested_spans():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, 1), span(3, 2.0, 3.0, 2),
             span(4, 6.0, 7.0, 1)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    # self times of one operation add up to its root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 5.0, 1), span(3, 3.0, 8.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, 0.0, 4.0), span(2, 3.0, 9.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_by_name_groups_per_operation():
    spans = [span(1, 0.0, 4.0, name="a", op="p"),
             span(2, 1.0, 2.0, 1, name="b", op="p"),
             span(3, 0.0, 1.0, name="a", op="q")]
    assert self_by_name(spans) == {"p": {"a": 3.0, "b": 1.0},
                                   "q": {"a": 1.0}}


# -- wrappers -----------------------------------------------------------------

class Base:
    def work(self, x):
        return x + 1


class Child(Base):
    async def wait(self, x):
        await asyncio.sleep(0)
        return x * 2


def test_wrappers_record_nesting_and_restore_methods():
    tracer = Tracer()
    original_work = Base.__dict__["work"]
    tracer.wrap_method(Child, "work", "work")     # defined on Base
    tracer.wrap_method(Child, "wait", "wait")
    assert "work" not in Child.__dict__
    with tracer.span("root", ("call", 0)):
        assert Child().work(1) == 2
        assert asyncio.run(Child().wait(3)) == 6
    assert [s.name for s in tracer.spans] == ["work", "wait", "root"]
    root = tracer.spans[-1]
    assert all(s.parent == root.span_id and s.op == ("call", 0)
               for s in tracer.spans[:2])
    tracer.restore()
    assert Base.__dict__["work"] is original_work
    assert "work" not in Child.__dict__
    assert asyncio.iscoroutinefunction(Child.__dict__["wait"])
    assert not hasattr(Child.__dict__["wait"], "__wrapped__")


def test_unparented_span_takes_its_own_operation_id():
    tracer = Tracer()
    tracer.wrap_method(Base, "work", "work", lambda args, kwargs: args[1])
    Base().work(7)
    tracer.restore()
    assert tracer.spans[0].op == 7 and tracer.spans[0].parent is None


def test_install_restores_every_entry_point():
    import repro
    import repro.core.amc
    from repro.gpu import VirtualGPU
    from repro.parallel import pool
    from repro.serving import AMCServer, JobJournal, api, server

    before = {
        "run_amc": (repro.run_amc, repro.core.amc.run_amc),
        "run_tasks": pool.run_tasks,
        "job_key": (api.job_key, server.job_key),
        "launch": VirtualGPU.__dict__["launch"],
        "submit": AMCServer.__dict__["submit"],
        "append": JobJournal.__dict__["append"],
    }
    tracer = Tracer()
    layers.install(tracer)
    assert repro.run_amc is not before["run_amc"][0]
    assert server.job_key is not before["job_key"][1]
    assert VirtualGPU.__dict__["launch"] is not before["launch"]
    tracer.restore()
    after = {
        "run_amc": (repro.run_amc, repro.core.amc.run_amc),
        "run_tasks": pool.run_tasks,
        "job_key": (api.job_key, server.job_key),
        "launch": VirtualGPU.__dict__["launch"],
        "submit": AMCServer.__dict__["submit"],
        "append": JobJournal.__dict__["append"],
    }
    assert after == before


# -- the serve schedule ------------------------------------------------------

def test_schedule_is_deterministic_per_seed():
    assert serve.make_plan(5, 10.0, 30.0) == serve.make_plan(5, 10.0, 30.0)
    assert serve.make_plan(5, 10.0, 30.0) != serve.make_plan(6, 10.0, 30.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_schedule_has_exact_repeat_shares(seed):
    plan = serve.make_plan(seed, 20.0, 30.0)
    requests = plan.requests
    n = len(requests)
    kinds = Counter(r.repeat for r in requests)
    assert n == 600
    assert kinds["recent"] == round(serve.RECENT_SHARE * n)
    assert kinds["disk"] == round(serve.DISK_SHARE * n)
    dues = [r.due for r in requests]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] <= 20.0
    cold = [r for r in requests if r.repeat == ""]
    # every cold window is distinct, and distinct from seeded/warm-up ones
    specs = [r.spec for r in cold + plan.seeding + plan.warmup]
    assert len(set(specs)) == len(specs)
    counts = Counter(r.workload for r in cold)
    assert set(counts) == set(serve.KINDS)
    assert max(counts.values()) - min(counts.values()) <= 1
    # disk repeats replay each seeded request exactly once
    assert sorted(r.spec for r in requests if r.repeat == "disk") == sorted(
        r.spec for r in plan.seeding)
    # a recent repeat names a request at most RECENT_DEPTH back
    for r in requests:
        if r.repeat == "recent":
            window = requests[max(0, r.index - serve.RECENT_DEPTH):r.index]
            assert r.spec in {w.spec for w in window}


def test_windows_pair_slices_mirrored_about_the_middle():
    plan = serve.make_plan(4, 30.0, 12.0)
    records = [serve.Record(r) for r in plan.requests]
    windows = serve.split_windows(records, 30.0)
    assert len(windows) == serve.WINDOWS
    assert sum(len(w) for w in windows) == len(records)
    slices = 2 * serve.WINDOWS
    for k, window in enumerate(windows):
        for record in window:
            index = int(record.request.due / (30.0 / slices))
            assert k in (index, slices - 1 - index)


def test_partition_check_accepts_the_schedule_and_rejects_a_duplicate():
    requests = serve.make_plan(1, 2.0, 30.0).requests
    n_recent = sum(r.repeat == "recent" for r in requests)
    n_disk = sum(r.repeat == "disk" for r in requests)
    n_cold = len(requests) - n_recent - n_disk
    delta = {"submitted": len(requests), "executed": n_cold,
             "pipeline_runs": n_cold, "disk_cache_hits": n_disk,
             "cache_hits": n_recent - 1, "coalesced": 1, "rejected": 0,
             "failed": 0}
    assert serve.partition_problems(requests, delta) == []
    delta["pipeline_runs"] += 1
    assert serve.partition_problems(requests, delta)


def test_request_layers_leave_uncovered_finish_time_as_residual():
    request = serve.Request(0, 0.0, "rx", 0, 0)
    record = serve.Record(request, submit_start=1.0, submit_end=2.0,
                          returned=10.0, due_at=0.5, job_id=7,
                          status=SimpleNamespace(key="k", state="done"))
    spans = [span(1, 1.0, 2.0, name="request", op=("req", 0)),
             span(2, 1.2, 1.8, 1, name="serving.job_key", op=("req", 0)),
             span(3, 3.0, 6.0, name="workload.run", op=("job", 7)),
             span(4, 6.5, 7.5, name="serving.journal_append", op=("job", 7)),
             span(5, 8.0, 9.0, name="serving.diskcache_put", op=("key", "k"))]
    phase = serve.Phase([record], {}, None)
    latencies, per_op = serve.request_layers(phase, spans)
    assert latencies == [9.5]
    values = per_op[0]
    assert values == pytest.approx({
        "serving.lag_s": 0.5, "serving.submit_s": 1.0,
        "serving.queue_wait_s": 1.0, "serving.exec_s": 3.0,
        "serving.finish_s": 4.0, "trace.residual_s": 2.0,
        "serving.key_s": 0.6, "serving.journal_append_s": 1.0,
        "serving.spill_s": 0.0, "serving.diskcache_get_s": 0.0,
        "serving.diskcache_put_s": 1.0})
    # the phases partition the latency; the residual is left uncovered
    assert sum(values[k] for k in serve.PARTITION) == pytest.approx(9.5)


# -- per-layer extraction ------------------------------------------------------

def test_report_layers_from_a_hand_built_profile():
    from repro.profiling import ChunkRecord, ProfileReport, StageRecord

    report = ProfileReport(
        meta={},
        stages=(StageRecord("morphology", 2.0,
                            {"difference_maps": 128.0, "pair_maps": 1200.0,
                             "reuse_ratio": 9.375, "border_pixels": 5.0}),
                StageRecord("endmembers", 0.25),
                StageRecord("unmixing", 0.5)),
        chunks=(ChunkRecord(0, 128, 130, 2, wall_s=1.5, compute_s=1.4),
                ChunkRecord(1, 128, 130, 2, wall_s=1.0, compute_s=0.9,
                            retries=1)))
    values = report_layers(report)
    assert values == pytest.approx({
        "pipeline.morphology_s": 2.0, "pipeline.endmembers_s": 0.25,
        "pipeline.unmixing_s": 0.5, "core.difference_maps": 128.0,
        "core.pair_maps": 1200.0, "core.reuse_ratio": 9.375,
        "core.chunk_compute_s": 2.3, "parallel.chunks": 2.0,
        "parallel.retries": 1.0, "parallel.halo_ratio": 260 / 256,
        "parallel.critical_chunk_s": 1.5, "parallel.imbalance": 1.5 / 1.25,
        "parallel.fanout_s": 0.5})


def test_report_layers_of_an_unchunked_detection_profile():
    from repro.profiling import ProfileReport, StageRecord

    report = ProfileReport(meta={}, stages=(StageRecord("statistics", 0.1),
                                            StageRecord("scores", 0.2)),
                           chunks=())
    assert report_layers(report) == {"pipeline.statistics_s": 0.1,
                                     "pipeline.scores_s": 0.2}


# -- statistics and the result line -----------------------------------------

def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 95) == 5
    assert percentile(range(101), 95) == 95


def test_scaled_times_divide_by_the_probes_either_side():
    walls = [1.0, 2.0]
    probes = [HOST_REF_S, HOST_REF_S, 3 * HOST_REF_S]
    assert scaled_times(walls, probes) == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        scaled_times(walls, probes[:2])


def test_band_mean_averages_the_middle_operations():
    latencies = [1.0, 2.0, 3.0, 4.0, 100.0]
    per_op = [{"a": float(i)} for i in range(5)]
    assert band_mean(latencies, per_op) == {"a": 2.0}


def test_select_metrics_fills_untouched_layers_and_rejects_unknown_names():
    wanted = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "count"}]
    assert run.select_metrics(wanted, {"a": 1.5}) == {
        "a": {"value": 1.5, "unit": "s"}, "b": {"value": 0.0, "unit": "count"}}
    with pytest.raises(KeyError):
        run.select_metrics(wanted, {"c": 1.0})


def test_catalogue_names_every_metric_once():
    bench = run.catalogue()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
