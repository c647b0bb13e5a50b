"""Statistics and per-layer extraction shared by the workloads."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

#: Stages whose wall time is reported as ``pipeline.<stage>_s``.
PIPELINE_STAGES = ("morphology", "endmembers", "unmixing", "classification",
                   "evaluation", "statistics", "scores", "project")

#: Morphology-stage counters reported as ``core.<counter>``.
CORE_COUNTERS = ("difference_maps", "pair_maps", "reuse_ratio")

#: Extra set-ups per run, each in a fresh process; ``setup_s`` is the
#: median of these and the run's own.  One sample moves by 10-30% with
#: the host; the median of five does not move much with a single slow
#: one.  More samples per run did not narrow the spread between runs
#: (the host's speed over a whole run dominates it), and each costs
#: 1.3-3.7 s of the run.
PROBES = 4


#: Iterations of the host-speed probe's loop, and the seconds the probe
#: takes on a quiet 2-vCPU Xeon VM at 2.0 GHz.  The closed loops scale
#: each call's time by ``HOST_REF_S / probe``: the host's CPU speed
#: drifts by up to 1.8x over minutes (this loop took 13 to 24 ms per
#: 200k iterations), and run medians moved with it.
PROBE_LOOPS = 60_000
HOST_REF_S = 0.004


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (the fastest of three).

    It runs no ``repro`` code and allocates nothing, so it measures the
    host's speed without changing the process's allocator state.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled_times(walls, probes) -> list[float]:
    """Each wall time at the reference host speed: ``walls[i]`` times
    ``HOST_REF_S`` over the mean of the probes either side of it,
    ``probes[i]`` and ``probes[i + 1]``."""
    if len(probes) != len(walls) + 1:
        raise ValueError("need one probe before each time and one after")
    return [wall * HOST_REF_S / ((before + after) / 2)
            for wall, before, after in zip(walls, probes, probes[1:])]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 50.0)


def band_mean(latencies, per_op, low: float = 40.0, high: float = 60.0
              ) -> dict[str, float]:
    """Mean of each per-operation value over the operations whose
    latency lies between the ``low`` and ``high`` percentiles.

    Per-layer times that partition each operation's latency then add
    up to the typical (median) operation's latency, which a median per
    layer would not.  ``per_op`` holds one dict per operation, aligned
    with ``latencies``; a key missing from an operation counts as 0.
    """
    lo, hi = percentile(latencies, low), percentile(latencies, high)
    chosen = [values for latency, values in zip(latencies, per_op)
              if lo <= latency <= hi]
    if not chosen:    # an empty band needs two ops of equal rank; take all
        chosen = list(per_op)
    keys = sorted({key for values in chosen for key in values})
    return {key: sum(values.get(key, 0.0) for values in chosen) / len(chosen)
            for key in keys}


@dataclass
class Usage:
    """Process resource use over one interval (self plus reaped
    children, so forked chunk workers are included)."""

    minor_faults: float = 0.0
    sys_s: float = 0.0
    user_s: float = 0.0


def usage_now() -> Usage:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return Usage(own.ru_minflt + kids.ru_minflt, own.ru_stime + kids.ru_stime,
                 own.ru_utime + kids.ru_utime)


def usage_since(before: Usage) -> Usage:
    now = usage_now()
    return Usage(now.minor_faults - before.minor_faults,
                 now.sys_s - before.sys_s, now.user_s - before.user_s)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kid) / 1024.0


def report_layers(report) -> dict[str, float]:
    """Per-layer values of one operation from its ``ProfileReport``.

    Stage wall times become ``pipeline.*``; the morphology stage's
    shift-reuse counters become ``core.*``; chunk records become
    ``core.chunk_compute_s`` and the ``parallel.*`` values (only when
    the stage was chunked).
    """
    out: dict[str, float] = {}
    stages = {stage.name: stage for stage in report.stages}
    for name in PIPELINE_STAGES:
        if name in stages:
            out[f"pipeline.{name}_s"] = stages[name].wall_s
    morph = stages.get("morphology")
    if morph is not None:
        for name in CORE_COUNTERS:
            if name in morph.counters:
                out[f"core.{name}"] = float(morph.counters[name])
    chunks = report.chunks
    if chunks:
        walls = [chunk.wall_s for chunk in chunks]
        critical = max(walls)
        out["core.chunk_compute_s"] = sum(c.compute_s for c in chunks)
        out["parallel.chunks"] = float(len(chunks))
        out["parallel.retries"] = float(sum(c.retries for c in chunks))
        out["parallel.halo_ratio"] = (sum(c.ext_lines for c in chunks)
                                      / sum(c.core_lines for c in chunks))
        out["parallel.critical_chunk_s"] = critical
        out["parallel.imbalance"] = critical / (sum(walls) / len(walls))
        if morph is not None:
            out["parallel.fanout_s"] = morph.wall_s - critical
    return out


@dataclass
class Outcome:
    """What one workload run hands back to the command line."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    #: Reasons the measurement itself cannot be trusted.
    invalid: list[str] = field(default_factory=list)
