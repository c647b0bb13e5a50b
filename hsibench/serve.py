"""The open-loop serving workload: serve-mixed.

Seeded Poisson arrivals at a fixed rate, all from one process, go to an
in-process durable :class:`repro.serving.AMCServer`.  Each request is a
64x64 window of one seeded scene, split evenly over the five registered
workloads.  A fixed share repeats a recent request (a memory-cache hit
or a join onto the running job) and a fixed share repeats a request an
earlier, untimed lifetime of the server completed over the same state
directory (a disk-cache hit after journal replay).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import repro
from repro.errors import ServerBusyError
from repro.serving import AMCServer, result_digest
from repro.workloads import get_workload

import layers
from common import (PROBES, Outcome, band_mean, median, peak_rss_mb,
                    percentile, report_layers, usage_now, usage_since)
from spans import Tracer, total_by_name

#: Arrivals per second: about a sixth of the capacity measured on a
#: 2-core host.  At half capacity (30/s) host slow periods, amplified by
#: queueing behind the shared event loop, moved the median by up to 2x
#: between runs; at 12/s five runs agreed within ~10%.
RATE_PER_S = 12.0
SCENE_LINES = SCENE_SAMPLES = 192
SCENE_BANDS = 32
WINDOW = 64
SERVER_OPTIONS = {"workers": 2, "queue_size": 1024, "cache_entries": 64}
#: Shares of requests that repeat a recent request / a disk-cached one.
#: They follow from what the metrics need, not from a traffic model.  A
#: repeat finishes several times faster than a cold job, so at a repeat
#: share h the p50 is the cold latencies' (0.5-h)/(1-h) quantile; 30%
#: keeps it at their 29th percentile (h <= 1/3 keeps it at or above the
#: 25th), so the p50 measures execution plus serving, not the mix.  A
#: disk repeat costs one job in the untimed seeding lifetime, so disk
#: repeats take the smallest share that puts 8 disk hits into each
#: latency window of a 20 s run (80 requests at 12/s): 10%.  Recent
#: repeats take the other 20%.
RECENT_SHARE = 0.2
DISK_SHARE = 0.1
#: How many requests back a recent repeat may reach: half the memory
#: tier's entries, so the target is still cached (or still running)
#: even when older jobs finish out of order.  The partition check needs
#: every recent repeat to be a memory hit or a join.
RECENT_DEPTH = SERVER_OPTIONS["cache_entries"] // 2
KINDS = ("amc", "sam", "cem", "rx", "pca")
#: Latencies are reported from the requests of the KEPT least-disturbed
#: (lowest-median) of WINDOWS windows of the schedule.  The host's
#: shared disk and CPUs have slow episodes that double fsync and wake-up
#: latency; a whole-run percentile measures the episode, not the server.
WINDOWS, KEPT = 3, 2
#: The tail percentile: ``serving.latency_p90_s`` and the report.  The
#: tail is the upper part of the amc jobs (a seventh of the requests,
#: the slowest kind).  It is a per-layer value, not an end-to-end one:
#: over ten runs the 90th percentile of the kept windows spread by 33%
#: of its median and that of the whole run by 24%, because slow
#: episodes of the host, which last minutes, stretch the tail of every
#: request kind.  Over five runs at 20/s the 95th spread 1.4x as widely
#: as the 90th.
TAIL = 90
#: A run whose generator ran later than this at its 95th percentile is
#: invalid: its latencies would measure the generator, not the server.
LAG_LIMIT_S = 0.1


@dataclass(frozen=True)
class Request:
    """One scheduled arrival; ``repeat`` is "" (cold), "recent" or
    "disk"."""

    index: int
    due: float
    workload: str
    y: int
    x: int
    repeat: str = ""

    @property
    def spec(self) -> tuple[str, int, int]:
        return (self.workload, self.y, self.x)


@dataclass
class Plan:
    """The seeded inputs of one run."""

    requests: list[Request]
    seeding: list[Request]
    warmup: list[Request]


def make_plan(seed: int, seconds: float, rate: float) -> Plan:
    """The request schedule for ``seed``: exact repeat shares, cold
    requests split evenly over :data:`KINDS`, every cold window
    distinct."""
    rng = random.Random(seed)
    n = max(len(KINDS), round(rate * seconds))
    n_recent, n_disk = round(RECENT_SHARE * n), round(DISK_SHARE * n)
    n_cold = n - n_recent - n_disk
    repeats = ["recent"] * n_recent + ["disk"] * n_disk + [""] * n_cold
    rng.shuffle(repeats)
    if repeats[0] == "recent":       # the first request has nothing to repeat
        swap = next(i for i, r in enumerate(repeats) if r != "recent")
        repeats[0], repeats[swap] = repeats[swap], repeats[0]
    span = SCENE_SAMPLES - WINDOW + 1
    origins = rng.sample(range((SCENE_LINES - WINDOW + 1) * span),
                         n_cold + n_disk + len(KINDS))
    windows = [divmod(origin, span) for origin in origins]

    def fresh(i: int, due: float, repeat: str = "") -> Request:
        y, x = windows.pop()
        return Request(i, due, KINDS[i % len(KINDS)], y, x, repeat)

    dues = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    warmup = [fresh(i, 0.0) for i in range(len(KINDS))]
    seeding = [fresh(i, 0.0, "disk") for i in range(n_disk)]
    disk = iter(seeding)
    requests: list[Request] = []
    cold = 0
    for i, (due, repeat) in enumerate(zip(dues, repeats)):
        if repeat == "recent":
            target = requests[rng.randrange(max(0, i - RECENT_DEPTH), i)]
            requests.append(Request(i, due, target.workload, target.y,
                                    target.x, "recent"))
        elif repeat == "disk":
            target = next(disk)
            requests.append(Request(i, due, target.workload, target.y,
                                    target.x, "disk"))
        else:
            y, x = windows.pop()
            requests.append(Request(i, due, KINDS[cold % len(KINDS)], y, x))
            cold += 1
    return Plan(requests, seeding, warmup)


class Inputs:
    """The seeded scene and how a request becomes a ``submit`` call."""

    def __init__(self, seed: int) -> None:
        scene = repro.generate_indian_pines_like(
            SCENE_LINES, SCENE_SAMPLES, band_count=SCENE_BANDS, seed=seed)
        self.bip = scene.cube.as_bip()
        self.ground_truth = scene.ground_truth
        self.class_names = scene.class_names
        centre = self.bip[SCENE_LINES // 2, SCENE_SAMPLES // 2]
        self.target = tuple(float(v) for v in centre)

    def args(self, workload: str, y: int, x: int):
        """``(cube, params, ground_truth, class_names)`` of one request."""
        cube = np.ascontiguousarray(
            self.bip[y:y + WINDOW, x:x + WINDOW, :])
        if workload == "amc":
            gt = np.ascontiguousarray(
                self.ground_truth[y:y + WINDOW, x:x + WINDOW])
            return (cube, {"backend": "reference", "se_radius": 1,
                           "n_classes": 16}, gt, self.class_names)
        if workload in ("sam", "cem"):
            return cube, {"target": self.target}, None, None
        if workload == "pca":
            return cube, {"n_components": 3}, None, None
        return cube, {}, None, None


@dataclass
class Record:
    """What happened to one request."""

    request: Request
    submit_start: float = 0.0
    submit_end: float = 0.0
    returned: float = 0.0
    due_at: float = 0.0
    job_id: int | None = None
    status: object = None
    failed: bool = False

    @property
    def lag(self) -> float:
        return self.submit_start - self.due_at

    @property
    def latency(self) -> float:
        return (float("inf") if self.failed
                else self.returned - self.due_at)


def split_slices(records, seconds: float) -> list[list[Record]]:
    """The records in ``2 * WINDOWS`` equal slices of due time."""
    slices: list[list[Record]] = [[] for _ in range(2 * WINDOWS)]
    for record in records:
        index = int(record.request.due / seconds * len(slices))
        slices[min(index, len(slices) - 1)].append(record)
    return slices


def split_windows(records, seconds: float) -> list[list[Record]]:
    """The records in :data:`WINDOWS` windows of due time.

    The run is cut into ``2 * WINDOWS`` equal slices, and window ``k``
    holds slices ``k`` and ``2 * WINDOWS - 1 - k`` (of six: 0+5, 1+4,
    2+3).  Server state grows through a run (every cold job adds a
    disk-cache entry, and each put rewrites the whole index), so later
    requests cost more; mirrored windows all have the run's mean
    position, and only host episodes set them apart.  Empty windows are
    dropped.
    """
    slices = split_slices(records, seconds)
    windows = [slices[k] + slices[-1 - k] for k in range(WINDOWS)]
    return [w for w in windows if w]


async def submit(server, args, workload: str):
    cube, params, gt, names = args
    return await server.submit(cube, params, workload=workload,
                               ground_truth=gt, class_names=names)


async def drive(server, inputs: Inputs, requests, tracer=None
                ) -> list[Record]:
    """Submit each request when due; wait for all of them."""
    async def finish(record: Record) -> None:
        record.status = await server.wait(record.job_id)
        record.returned = time.perf_counter()
        record.failed = record.status.state != "done"

    records = [Record(req) for req in requests]
    if not records:
        return records
    waiters = []
    start = time.perf_counter() - requests[0].due + 0.01
    for record in records:
        req = record.request
        args = inputs.args(*req.spec)    # input preparation is not timed
        record.due_at = start + req.due
        delay = record.due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record.submit_start = time.perf_counter()
        try:
            if tracer is None:
                job = await submit(server, args, req.workload)
            else:
                with tracer.span("request", ("req", req.index)):
                    job = await submit(server, args, req.workload)
        except ServerBusyError:
            record.failed = True
            continue
        record.submit_end = time.perf_counter()
        record.job_id = job.job_id
        waiters.append(asyncio.create_task(finish(record)))
    await asyncio.gather(*waiters)
    return records


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """How far the server's counters moved between two ``stats()``."""
    def flat(stats):
        return dict(stats["counters"], pipeline_runs=stats["pipeline_runs"])

    old = flat(before)
    return {k: v - old[k] for k, v in flat(after).items()}


def partition_problems(requests, delta: dict) -> list[str]:
    """The hit/miss partition must be exactly the schedule's."""
    n_recent = sum(r.repeat == "recent" for r in requests)
    n_disk = sum(r.repeat == "disk" for r in requests)
    n_cold = len(requests) - n_recent - n_disk
    want = {"submitted": len(requests), "executed": n_cold,
            "pipeline_runs": n_cold, "disk_cache_hits": n_disk,
            "memory_or_joined": n_recent, "rejected": 0, "failed": 0}
    got = {"submitted": delta["submitted"], "executed": delta["executed"],
           "pipeline_runs": delta["pipeline_runs"],
           "disk_cache_hits": delta["disk_cache_hits"],
           "memory_or_joined": delta["cache_hits"] + delta["coalesced"],
           "rejected": delta["rejected"], "failed": delta["failed"]}
    return ([] if got == want
            else [f"hit/miss partition {got} differs from the schedule's "
                  f"{want}"])


async def seed_state(state_dir: str, inputs: Inputs, seeding) -> None:
    """The earlier lifetime: complete the disk-repeat requests."""
    server = AMCServer(state_dir=state_dir, **SERVER_OPTIONS)
    await server.start()
    try:
        jobs = [await submit(server, inputs.args(*req.spec), req.workload)
                for req in seeding]
        for job in jobs:
            await server.wait(job.job_id)
    finally:
        await server.stop()


async def start_server(state_dir: str, inputs: Inputs, plan: Plan):
    """Set-up proper: start over the seeded state, one warm-up round.

    Returns the server, the set-up seconds and the warm-up digests.
    """
    start = time.perf_counter()
    server = AMCServer(state_dir=state_dir, **SERVER_OPTIONS)
    await server.start()
    jobs = [await submit(server, inputs.args(*req.spec), req.workload)
            for req in plan.warmup]
    statuses = [await server.wait(job.job_id) for job in jobs]
    elapsed = time.perf_counter() - start
    return server, elapsed, [s.result_sha256 for s in statuses]


def verify(inputs: Inputs, records, warmup, warm_digests) -> list[str]:
    """Every served digest equals a direct ``Workload.run`` of the same
    request (run after the server stopped)."""
    served: dict[tuple, set] = {}
    for req, digest in zip(warmup, warm_digests):
        served.setdefault(req.spec, set()).add(digest)
    for record in records:
        if not record.failed:
            served.setdefault(record.request.spec, set()).add(
                record.status.result_sha256)
    problems = []
    for spec, digests in served.items():
        workload = get_workload(spec[0])
        cube, params, gt, names = inputs.args(*spec)
        result = workload.run(cube, workload.as_config(params),
                              ground_truth=gt, class_names=names)
        direct = result_digest(result, workload=workload)
        if digests != {direct}:
            problems.append(f"{spec}: served {sorted(digests)} vs direct "
                            f"{direct}")
    return problems


@dataclass
class Phase:
    """One stretch of the schedule and what the server counted in it."""

    records: list[Record]
    delta: dict[str, int]
    usage: object
    reports: list = field(default_factory=list)


async def run_phase(server, inputs: Inputs, requests, tracer=None) -> Phase:
    before, used = server.stats(), usage_now()
    records = await drive(server, inputs, requests, tracer)
    used = usage_since(used)
    delta = counter_delta(before, server.stats())
    reports = [server.job(r.job_id).report for r in records
               if not r.failed and r.request.repeat == ""]
    return Phase(records, delta, used, reports)


#: Serving spans summed per request, by the metric they report as.
SPAN_METRICS = {"serving.job_key": "serving.key_s",
                "serving.journal_append": "serving.journal_append_s",
                "serving.spill": "serving.spill_s",
                "serving.diskcache_get": "serving.diskcache_get_s",
                "serving.diskcache_put": "serving.diskcache_put_s"}
#: Per-request times that add up to the request's latency.
PARTITION = ("serving.lag_s", "serving.submit_s", "serving.queue_wait_s",
             "serving.exec_s", "serving.finish_s")


def overlap(spans, start: float, end: float) -> float:
    """Summed time of ``spans`` inside ``[start, end]``."""
    return sum(max(0.0, min(s.end, end) - max(s.start, start))
               for s in spans)


def request_layers(phase: Phase, spans) -> tuple[list[float], list[dict]]:
    """Per-request phase times that partition the latency, plus the
    serving spans each request paid for.

    ``trace.residual_s`` is the part of the finish phase (run end to
    ``wait`` returning) that no serving span covers: event-loop wake-up,
    the result digest, state transitions.
    """
    totals = total_by_name(spans)
    runs = {span.op[1]: span for span in spans
            if span.name == "workload.run" and isinstance(span.op, tuple)
            and span.op[0] == "job"}
    roots: dict[object, list] = {}
    for span in spans:
        if span.parent is None:
            roots.setdefault(span.op, []).append(span)
    owners: dict[int, Record] = {}
    for record in phase.records:
        owners.setdefault(record.job_id, record)
    latencies, per_op = [], []
    for record in phase.records:
        if record.failed:
            continue
        job, server_key = record.job_id, record.status.key
        mine = dict(totals.get(("req", record.request.index), {}))
        if owners.get(job) is record:
            for op in (("job", job), ("key", server_key)):
                for name, value in totals.get(op, {}).items():
                    mine[name] = mine.get(name, 0.0) + value
        begin, end = record.submit_end, record.returned
        run = runs.get(job)
        queue_wait = execute = finish_spans = 0.0
        if run is not None:
            queue_wait = max(0.0, min(run.start, end) - begin)
            execute = max(0.0, min(run.end, end) - max(run.start, begin))
            after = max(run.end, begin)
            for op in (("job", job), ("key", server_key)):
                finish_spans += overlap(roots.get(op, ()), after, end)
        finish = end - begin - queue_wait - execute
        values = {
            "serving.lag_s": record.lag,
            "serving.submit_s": record.submit_end - record.submit_start,
            "serving.queue_wait_s": queue_wait,
            "serving.exec_s": execute,
            "serving.finish_s": finish,
            "trace.residual_s": finish - finish_spans}
        for span_name, metric in SPAN_METRICS.items():
            values[metric] = mine.get(span_name, 0.0)
        latencies.append(record.latency)
        per_op.append(values)
    return latencies, per_op


def traced_metrics(plain: list[Phase], traced: Phase, spans,
                   replay_s: float) -> tuple[dict[str, float], list[str]]:
    latencies, per_op = request_layers(traced, spans)
    band = band_mean(latencies, per_op)
    p50 = median(latencies)
    plain_p50 = median(r.latency for phase in plain for r in phase.records)
    coverage = (sum(band[k] for k in PARTITION)
                - band["trace.residual_s"]) / p50
    metrics = {k: v for k, v in band.items() if k != "serving.lag_s"}
    stage_values: dict[str, list[float]] = {}
    for report in traced.reports:
        for name, value in report_layers(report).items():
            stage_values.setdefault(name, []).append(value)
    metrics.update({name: median(values)
                    for name, values in stage_values.items()})
    delta = traced.delta
    n = len(traced.records)
    n_cold = sum(r.request.repeat == "" for r in traced.records)
    metrics.update({
        "serving.latency_p90_s": percentile(
            [r.latency for phase in plain for r in phase.records], TAIL),
        "serving.loop_lag_p95_s": percentile(
            [r.lag for r in traced.records], 95),
        "serving.hit_ratio": (delta["cache_hits"] + delta["disk_cache_hits"]
                              + delta["coalesced"]) / delta["submitted"],
        "serving.duplicate_executions": float(delta["pipeline_runs"]
                                              - n_cold),
        "serving.replay_s": replay_s,
        "proc.minor_faults": traced.usage.minor_faults / n,
        "proc.sys_s": traced.usage.sys_s / n,
        "proc.user_s": traced.usage.user_s / n,
        "trace.latency_p50_s": p50,
        "trace.overhead": p50 / plain_p50 - 1.0,
        "trace.coverage": coverage})
    report = [
        "time per request (band around the median): " + ", ".join(
            f"{k}={v * 1e3:.2f}ms" for k, v in sorted(band.items())),
        f"tracing overhead: traced p50 {p50:.4f}s vs untraced p50 "
        f"{plain_p50:.4f}s",
        f"lag, submit, queue wait, exec and the serving spans of the "
        f"finish phase cover {coverage:.1%} of the traced p50"]
    return metrics, report


async def serve_run(root: str, seed: int, seconds: float, trace: bool,
                    import_s: float, probe) -> Outcome:
    inputs = Inputs(seed)
    plan = make_plan(seed, seconds, RATE_PER_S)
    base = os.path.join(root, ".hsibench_state", str(os.getpid()))
    state_dir = os.path.join(base, "main")
    os.makedirs(base, exist_ok=True)
    try:
        await seed_state(state_dir, inputs, plan.seeding)
        probe_dirs = []
        for i in range(PROBES):
            probe_dirs.append(os.path.join(base, f"probe{i}"))
            shutil.copytree(state_dir, probe_dirs[-1])
        tracer = Tracer() if trace else None
        if trace:
            layers.install(tracer)
        try:
            server, setup_elapsed, warm = await start_server(
                state_dir, inputs, plan)
        finally:
            if trace:
                tracer.restore()
        problems: list[str] = []
        report: list[str] = []
        metrics: dict[str, float] = {}
        try:
            if not trace:
                phases = [await run_phase(server, inputs, plan.requests)]
            else:
                replay_s = sum(s.duration for s in tracer.spans
                               if s.name == "serving.replay")
                # untraced quarters either side of the traced half, so
                # state growing over the run does not read as overhead
                first = [r for r in plan.requests if r.due < seconds / 4]
                middle = [r for r in plan.requests
                          if seconds / 4 <= r.due < 3 * seconds / 4]
                last = plan.requests[len(first) + len(middle):]
                before = await run_phase(server, inputs, first)
                layers.install(tracer)
                try:
                    traced = await run_phase(server, inputs, middle, tracer)
                finally:
                    tracer.restore()
                after = await run_phase(server, inputs, last)
                phases = [before, traced, after]
                traced_values, lines = traced_metrics(
                    [before, after], traced, tracer.spans, replay_s)
                metrics.update(traced_values)
                report += lines
        finally:
            await server.stop()
        rss = peak_rss_mb()
        records = [r for phase in phases for r in phase.records]
        for phase in phases:
            problems += partition_problems(
                [r.request for r in phase.records], phase.delta)
        problems += verify(inputs, records, plan.warmup, warm)
        setup_samples = [import_s + setup_elapsed]
        for probe_dir in probe_dirs:
            out = probe(["--state-dir", probe_dir])
            setup_samples.append(out["setup_s"])
            if out["signature"] != {"warmup": warm}:
                problems.append(f"a fresh process with the same seed "
                                f"served {out['signature']} vs {warm}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):    # another run may still use it
            os.rmdir(os.path.dirname(base))
    lags = [r.lag for r in records if not r.failed]
    lag_p95 = percentile(lags, 95)
    latencies = [r.latency for r in records]
    failed = sum(r.failed for r in records)
    windows = split_windows(records, seconds)
    order = sorted(range(len(windows)),
                   key=lambda i: median(r.latency for r in windows[i]))
    quiet_latencies = [r.latency for i in order[:KEPT] for r in windows[i]]
    report.append(
        f"serve-mixed: {len(records)} requests at {RATE_PER_S}/s, "
        f"{failed} failed, p50 {median(latencies):.4f}s, p{TAIL} "
        f"{percentile(latencies, TAIL):.4f}s, generator lag p95 "
        f"{lag_p95 * 1e3:.2f}ms (limit {LAG_LIMIT_S * 1e3:.0f}ms), set-up "
        f"samples {[round(s, 4) for s in setup_samples]}")
    report.append(f"windows (requests, p50, p{TAIL}): " + ", ".join(
        f"({len(w)}, {median(r.latency for r in w):.4f}s, "
        f"{percentile([r.latency for r in w], TAIL):.4f}s)" for w in windows)
        + f"; dropped window {sorted(i + 1 for i in order[KEPT:])} "
        f"(of 1-{len(windows)})")
    kinds: dict[str, list[float]] = {}
    for record in records:
        req = record.request
        kinds.setdefault(req.repeat or req.workload, []).append(
            record.latency)
    report.append(f"by kind (requests, p50, p{TAIL}): " + ", ".join(
        f"{kind} ({len(v)}, {median(v):.4f}s, {percentile(v, TAIL):.4f}s)"
        for kind, v in sorted(kinds.items())))
    report.append("slice p50s: " + ", ".join(
        f"{median(r.latency for r in part):.4f}s"
        for part in split_slices(records, seconds) if part))
    invalid = []
    if lag_p95 > LAG_LIMIT_S:
        invalid.append(f"generator lag p95 {lag_p95:.3f}s exceeds "
                       f"{LAG_LIMIT_S}s")
    if not trace:
        metrics.update({"setup_s": median(setup_samples),
                        "latency_p50_s": median(quiet_latencies),
                        "peak_rss_mb": rss})
    return Outcome(attempted=len(records), failed=failed, metrics=metrics,
                   problems=problems, report=report, invalid=invalid,
                   spans=tracer.spans if trace else [])


def run(root, seed, seconds, trace, import_s, probe) -> Outcome:
    return asyncio.run(serve_run(root, seed, seconds, trace, import_s, probe))


def probe_setup(seed: int, seconds: float, import_s: float,
                state_dir: str) -> dict:
    """Set-up in a fresh process over a copy of the seeded state."""
    inputs = Inputs(seed)
    plan = make_plan(seed, seconds, RATE_PER_S)

    async def main():
        server, elapsed, warm = await start_server(state_dir, inputs, plan)
        await server.stop()
        return elapsed, warm

    elapsed, warm = asyncio.run(main())
    return {"setup_s": import_s + elapsed, "signature": {"warmup": warm}}
