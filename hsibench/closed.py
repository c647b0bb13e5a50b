"""The closed-loop library workloads: one caller, no think time.

``amc-gpu`` runs :func:`repro.run_amc` on the virtual GPU; every call
goes through :mod:`repro.gpu`.  ``amc-ref-chunked`` runs it on the
host NumPy kernels in two forked chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import repro
from repro.profiling import Profiler
from repro.serving import result_digest

from common import (HOST_REF_S, Outcome, band_mean, host_probe, median,
                    peak_rss_mb, report_layers, scaled_times, usage_now,
                    usage_since)
from spans import Tracer, self_by_name

#: Accuracy (%) a gpu-backend classification must reach on its scene.
ACCURACY_FLOOR = 50.0
#: The unit tests' gpu-vs-reference tolerances: the MEI per pixel, the
#: share of pixels where float32 and float64 picks may tie differently
#: (tests/core/test_morphology.py), and the accuracy gap
#: (tests/core/test_amc.py).  Labels are not compared pixel by pixel: a
#: tied MEI pick can change an endmember and relabel whole regions
#: (seed 310 at this geometry: labels equal on 86% of pixels, MEI close
#: on 99.6%), which the unit tests allow by comparing accuracy only.
MEI_RTOL, MEI_ATOL, AGREEMENT, ACCURACY_SLACK = 5e-3, 1e-5, 0.99, 15.0


@dataclass(frozen=True)
class LibraryWorkload:
    """One closed-loop geometry and backend."""

    name: str
    lines: int
    samples: int
    bands: int
    backend: str
    n_workers: int
    se_radius: int = 2
    n_classes: int = 16


AMC_GPU = LibraryWorkload("amc-gpu", 64, 64, 32, "gpu", 1)
AMC_REF_CHUNKED = LibraryWorkload("amc-ref-chunked", 256, 256, 64,
                                  "reference", 2)


@dataclass
class Call:
    """One timed ``run_amc`` call.

    ``probe`` is the host probe taken just before it, and ``scaled`` its
    latency at the reference host speed (:func:`common.scaled_times`).
    """

    latency: float
    layers: dict[str, float]
    probe: float
    scaled: float = 0.0


class Library:
    """A workload's inputs and the call it makes."""

    def __init__(self, spec: LibraryWorkload, seed: int) -> None:
        self.spec = spec
        self.scene = repro.generate_indian_pines_like(
            spec.lines, spec.samples, band_count=spec.bands, seed=seed)
        self.config = repro.AMCConfig(
            backend=spec.backend, se_radius=spec.se_radius,
            n_workers=spec.n_workers, n_classes=spec.n_classes)

    def call(self, config=None):
        """One ``run_amc`` call; returns ``(result, profile report)``."""
        profiler = Profiler()
        result = repro.run_amc(
            self.scene.cube, config or self.config,
            ground_truth=self.scene.ground_truth,
            class_names=self.scene.class_names, profiler=profiler)
        return result, profiler.report()

    @staticmethod
    def signature(result, report) -> dict[str, object]:
        """The values that must repeat exactly on every call."""
        sig: dict[str, object] = {"digest": result_digest(result)}
        gpu = result.gpu_output
        if gpu is not None:
            sig.update({
                "gpu.launches": gpu.counters["kernel_launches"],
                "gpu.texture_fetches": gpu.counters["texture_fetches"],
                "gpu.fragments": gpu.counters["fragments_shaded"],
                "gpu.modeled_g70_ms": gpu.modeled_time_s * 1e3,
                "gpu.modeled_kernel_ms": gpu.counters["kernel_time_s"] * 1e3,
                "gpu.modeled_transfer_ms":
                    gpu.counters["transfer_time_s"] * 1e3})
        values = report_layers(report)
        for name in ("core.difference_maps", "core.pair_maps",
                     "core.reuse_ratio", "parallel.chunks"):
            if name in values:
                sig[name] = values[name]
        return sig

    def check_outputs(self, result, report: list[str]) -> list[str]:
        """Output checks against an independent run of the same scene."""
        problems = []
        if self.spec.backend == "gpu":
            ref, _ = self.call(replace(self.config, backend="reference"))
            close = np.isclose(result.mei, ref.mei, rtol=MEI_RTOL,
                               atol=MEI_ATOL).mean()
            same = (result.labels == ref.labels).mean()
            report.append(f"against the reference backend: MEI close on "
                          f"{close:.2%}, labels equal on {same:.2%} of "
                          f"pixels")
            if close < AGREEMENT:
                problems.append(f"gpu MEI differs from the reference "
                                f"backend: close on {close:.2%} of pixels")
            got = result.report.overall_accuracy
            want = ref.report.overall_accuracy
            if abs(got - want) > ACCURACY_SLACK:
                problems.append(f"gpu accuracy {got:.2f}% vs reference "
                                f"{want:.2f}%")
            if got < ACCURACY_FLOOR:
                problems.append(f"gpu accuracy {got:.2f}% below "
                                f"{ACCURACY_FLOOR}%")
        else:
            serial, _ = self.call(replace(self.config, n_workers=1))
            if result_digest(serial) != result_digest(result):
                problems.append("chunked result differs from the serial "
                                "(n_workers=1) result")
        return problems


def setup(spec: LibraryWorkload, seed: int, import_s: float):
    """Inputs (untimed), then one warm-up call (timed into set-up).

    The set-up time is scaled to the reference host speed like a call,
    by the probes either side of the warm-up call.
    """
    library = Library(spec, seed)
    probe = host_probe()
    start = time.perf_counter()
    result, report = library.call()
    wall = import_s + time.perf_counter() - start
    [setup_s] = scaled_times([wall], [probe, host_probe()])
    return library, result, Library.signature(result, report), setup_s


def timed_calls(library: Library, seconds: float, expected: dict,
                problems: list[str], tracer=None) -> list[Call]:
    """Call back to back until ``seconds`` have passed (at least once),
    probing the host's speed before each call and after the last."""
    calls: list[Call] = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        index = len(calls)
        probe = host_probe()
        before = usage_now()
        start = time.perf_counter()
        if tracer is None:
            result, report = library.call()
        else:
            with tracer.span("call", ("call", index)):
                result, report = library.call()
        latency = time.perf_counter() - start
        used = usage_since(before)
        sig = Library.signature(result, report)
        if sig != expected:
            problems.append(f"call {index}: counts or digest differ from "
                            f"the warm-up call: {sig} vs {expected}")
        values = report_layers(report)
        values.update({"proc.minor_faults": used.minor_faults,
                       "proc.sys_s": used.sys_s, "proc.user_s": used.user_s})
        calls.append(Call(latency, values, probe))
    scaled = scaled_times([call.latency for call in calls],
                          [call.probe for call in calls] + [host_probe()])
    for call, value in zip(calls, scaled):
        call.scaled = value
    return calls


def traced_layers(calls: list[Call], tracer, sig: dict) -> dict[str, float]:
    """Per-layer values of the traced calls (band mean around the
    median), with the gpu time split measured by the launch spans.

    ``trace.residual_s`` is the part of a call no published stage
    accounts for: the latency minus the ``pipeline.*`` stage times.
    """
    selfs = self_by_name(tracer.spans)
    per_op = []
    for index, call in enumerate(calls):
        values = dict(call.layers)
        own = selfs.get(("call", index), {})
        for name, value in own.items():
            values[f"self.{name}"] = value
        if "gpu.launches" in sig:
            launch = own.get("gpu.launch", 0.0)
            values["gpu.launch_s"] = launch
            values["gpu.host_s"] = values["pipeline.morphology_s"] - launch
        values["trace.residual_s"] = call.latency - stage_sum(values)
        per_op.append(values)
    return band_mean([c.latency for c in calls], per_op)


def stage_sum(values: dict[str, float]) -> float:
    """The summed ``pipeline.*`` stage times of one set of values."""
    return sum(v for k, v in values.items() if k.startswith("pipeline."))


def run(spec: LibraryWorkload, seed: int, seconds: float, trace: bool,
        import_s: float, probe) -> Outcome:
    """One benchmark run of a library workload."""
    library, warm, sig, setup_s = setup(spec, seed, import_s)
    problems: list[str] = []
    report: list[str] = []
    metrics: dict[str, float] = {}
    if not trace:
        calls = timed_calls(library, seconds, sig, problems)
    else:
        import layers    # imports the serving layer and the worker pool

        # untraced quarters either side of the traced half, so drift
        # over the run does not read as tracing overhead
        plain = timed_calls(library, seconds / 4, sig, problems)
        tracer = Tracer()
        layers.install(tracer)
        try:
            calls = timed_calls(library, seconds / 2, sig, problems, tracer)
        finally:
            tracer.restore()
        plain += timed_calls(library, seconds / 4, sig, problems)
        traced = traced_layers(calls, tracer, sig)
        traced_p50 = median(c.latency for c in calls)
        plain_p50 = median(c.latency for c in plain)
        # scaled, so a change of host speed between the parts of the run
        # does not read as tracing overhead
        overhead = (median(c.scaled for c in calls)
                    / median(c.scaled for c in plain) - 1.0)
        coverage = stage_sum(traced) / traced_p50
        metrics.update({k: v for k, v in traced.items()
                        if not k.startswith("self.")})
        metrics.update({k: float(v) for k, v in sig.items()
                        if k != "digest"})
        metrics.update({"trace.latency_p50_s": traced_p50,
                        "trace.overhead": overhead,
                        "trace.coverage": coverage})
        report.append("self time per call (band around the median): " + ", ".join(
            f"{k[5:]}={v * 1e3:.1f}ms" for k, v in sorted(traced.items())
            if k.startswith("self.")))
        report.append(f"tracing overhead {overhead:+.1%} at the reference "
                      f"host speed; wall time: traced p50 {traced_p50:.4f}s "
                      f"vs untraced p50 {plain_p50:.4f}s "
                      f"({len(calls)}/{len(plain)} calls)")
        report.append(f"pipeline stages cover {coverage:.1%} of the traced "
                      f"p50; unattributed {traced['trace.residual_s']:.4f}s")
    rss = peak_rss_mb()
    problems += library.check_outputs(warm, report)
    setup_samples = [setup_s]
    for probe_out in probe():
        setup_samples.append(probe_out["setup_s"])
        if probe_out["signature"] != sig:
            problems.append(f"a fresh process with the same seed gave "
                            f"{probe_out['signature']} vs {sig}")
    latencies = [c.latency for c in calls]
    p50 = median(latencies)
    scaled_p50 = median(c.scaled for c in calls)
    pixels = spec.lines * spec.samples
    report.append(f"{spec.name}: {len(calls)} calls, p50 {p50:.4f}s "
                  f"(min {min(latencies):.4f}s, max {max(latencies):.4f}s), "
                  f"{pixels / p50:.0f} pixels/s; at the reference host "
                  f"speed p50 {scaled_p50:.4f}s (host probe p50 "
                  f"{median(c.probe for c in calls) * 1e3:.2f}ms, reference "
                  f"{HOST_REF_S * 1e3:.2f}ms); set-up samples "
                  f"{[round(s, 4) for s in setup_samples]}")
    report.append("call latencies: " + " ".join(f"{x:.3f}" for x in latencies))
    report.append("host probes (ms): " + " ".join(
        f"{c.probe * 1e3:.2f}" for c in calls))
    if "gpu.modeled_g70_ms" in sig:
        report.append(f"modeled GeForce 7800 GTX time per call: "
                      f"{sig['gpu.modeled_g70_ms']:.4f} ms")
    if not trace:
        metrics.update({"setup_s": median(setup_samples),
                        "latency_p50_s": scaled_p50,
                        "peak_rss_mb": rss})
    return Outcome(attempted=len(calls), failed=0, metrics=metrics,
                   problems=problems, report=report,
                   spans=tracer.spans if trace else [])


def probe_setup(spec: LibraryWorkload, seed: int, import_s: float) -> dict:
    """Set-up in a fresh process: its time and the warm-up signature."""
    _, _, sig, setup_s = setup(spec, seed, import_s)
    return {"setup_s": setup_s, "signature": sig}
