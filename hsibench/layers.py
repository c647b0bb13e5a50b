"""The public entry points the traced run wraps, one span name each."""

from __future__ import annotations

import repro
from repro.backends import backend_names, get_backend
from repro.gpu import VirtualGPU
from repro.parallel import pool
from repro.serving import (AMCServer, DiskCacheTier, JobJournal, ResultCache,
                           api)
from repro.workloads import get_workload, workload_names

from spans import Tracer


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of :mod:`repro` with ``tracer``.

    Spans that start a chain outside any benchmark span name their
    operation themselves: an executor thread's ``Workload.run`` by the
    job id in its profiler's metadata, the event loop's journal appends
    by their job id, and the finish-phase cache writes by their key.
    """
    def job_of_profiler(args, kwargs):
        profiler = kwargs.get("profiler")
        job = None if profiler is None else profiler.meta.get("job")
        return None if job is None else ("job", job)

    def job_of_kwargs(args, kwargs):
        return ("job", kwargs["job_id"]) if "job_id" in kwargs else None

    def key_of_first_arg(args, kwargs):
        return ("key", args[1]) if len(args) > 1 else None

    tracer.wrap_function(repro.run_amc, "run_amc")
    tracer.wrap_function(pool.run_tasks, "parallel.run_tasks")
    tracer.wrap_function(api.job_key, "serving.job_key")
    for name in backend_names():
        cls = type(get_backend(name))
        tracer.wrap_method(cls, "run", "backend.run")
        tracer.wrap_method(cls, "run_chunk", "backend.run_chunk")
    tracer.wrap_method(VirtualGPU, "launch", "gpu.launch")
    tracer.wrap_method(VirtualGPU, "launch_fused", "gpu.launch")
    for name in workload_names():
        tracer.wrap_method(type(get_workload(name)), "run", "workload.run",
                           job_of_profiler)
    tracer.wrap_method(AMCServer, "submit", "serving.submit")
    tracer.wrap_method(AMCServer, "wait", "serving.wait")
    tracer.wrap_method(JobJournal, "append", "serving.journal_append",
                       job_of_kwargs)
    tracer.wrap_method(JobJournal, "spill_payload", "serving.spill")
    tracer.wrap_method(JobJournal, "replay", "serving.replay")
    tracer.wrap_method(DiskCacheTier, "get", "serving.diskcache_get",
                       key_of_first_arg)
    tracer.wrap_method(DiskCacheTier, "put", "serving.diskcache_put",
                       key_of_first_arg)
    tracer.wrap_method(ResultCache, "get", "serving.cache_get",
                       key_of_first_arg)
    tracer.wrap_method(ResultCache, "put", "serving.cache_put",
                       key_of_first_arg)
