"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration problems from resource
exhaustion in the simulated devices.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument or configuration value is out of range or unrecognized.

    The library-wide replacement for a bare ``raise ValueError``: every
    raise under :mod:`repro` must derive from :class:`ReproError` (the
    ``raise-contract`` lint enforces it), and subclassing
    :class:`ValueError` keeps callers that validate configuration
    catching the failure as a plain value problem."""


class UnknownConfigKeyError(ValidationError, TypeError):
    """A workload request names config keys its config type lacks.

    Raised at admission by :meth:`repro.workloads.Workload.as_config`;
    the message names the unknown keys.  Subclasses :class:`TypeError`
    as well, the error an unknown dataclass keyword raises in plain
    Python."""


class ShapeError(ReproError, ValueError):
    """An array argument has the wrong number of dimensions or extents."""


class RegistryTypeError(ReproError, TypeError):
    """An object offered to a registry (backends, workloads) is not an
    instance of the contract class.

    Subclasses :class:`TypeError` because the failure is a wrong-type
    argument in the plain Python sense; deriving from
    :class:`ReproError` keeps the raise-contract intact."""


class MaterialNotFoundError(ReproError, KeyError):
    """A material name is not in the spectral library.

    Subclasses :class:`KeyError` because the library is a mapping and
    callers that treat it as one should catch the miss as a plain
    lookup failure."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; keep it readable.
        return Exception.__str__(self)


class BandRangeError(ReproError, IndexError):
    """A band index is outside a cube's spectral extent.

    Subclasses :class:`IndexError` so sequence-style band access keeps
    its native out-of-range semantics."""


class LayoutError(ReproError, ValueError):
    """An unknown or incompatible hyperspectral memory layout was requested."""


class ShaderError(ReproError):
    """A fragment shader program failed validation or execution."""


class ShaderValidationError(ShaderError, ValueError):
    """A shader IR tree is structurally invalid (bad arity, unbound register,
    unknown sampler, type mismatch)."""


class GpuOutOfMemoryError(ReproError, MemoryError):
    """The virtual GPU's VRAM allocator could not satisfy an allocation.

    Carries the allocation arithmetic as structured attributes — not just
    message text — so the degradation planner of
    :mod:`repro.resilience` (and tests) can reason about the shortfall:

    ``requested``
        Bytes the failed allocation asked for (``None`` when unknown).
    ``free`` / ``capacity``
        Bytes still available / total device bytes at failure time
        (``None`` when unknown).
    """

    def __init__(self, message: str = "", *, requested: int | None = None,
                 free: int | None = None,
                 capacity: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.free = free
        self.capacity = capacity

    def __reduce__(self):
        # Keyword-only attributes do not survive the default
        # args-based exception pickling (worker exceptions cross the
        # pool's result queue), so ship them as state.
        return (self.__class__, self.args,
                {"requested": self.requested, "free": self.free,
                 "capacity": self.capacity})

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)


class StreamError(ReproError):
    """Misuse of the stream programming abstractions (unbound stream,
    mismatched shapes between kernel inputs, cyclic stage graphs...)."""


class DeviceError(ReproError):
    """A virtual device (GPU or CPU model) was configured inconsistently."""


class UnknownHandleError(DeviceError, KeyError):
    """A texture/buffer handle does not name a live device allocation.

    Subclasses :class:`KeyError` because the allocator is a mapping
    from handles to allocations and callers should be able to catch
    the miss as a plain lookup failure."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; keep it readable.
        return Exception.__str__(self)


class UnknownBackendError(StreamError, ValueError):
    """A morphological backend name is not in the registry.

    Subclasses both :class:`StreamError` (backends are execution
    substrates of the stream decomposition) and :class:`ValueError`
    (callers that validate configuration catch it as a plain value
    problem).  The message always lists the registered names."""


class UnknownWorkloadError(StreamError, ValueError):
    """A workload name is not in the registry.

    The workload-registry counterpart of :class:`UnknownBackendError`,
    with the same dual inheritance: :class:`StreamError` because
    workloads are stage compositions of the stream decomposition,
    :class:`ValueError` so configuration validators catch it as a plain
    value problem.  The message always lists the registered names."""


class EnviFormatError(ReproError, ValueError):
    """An ENVI-style header could not be parsed or describes an unsupported
    interleave/dtype combination."""


class NonFiniteInputError(ReproError, ValueError):
    """An input cube contains NaN or infinite values.

    Raised at the AMC entry points (:func:`repro.core.amc.run_amc` /
    :func:`repro.pipeline.execute_amc`) before any stage runs: a NaN
    band would otherwise propagate silently through normalization and
    poison every SID downstream.  The message names the first offending
    pixel and band."""


class InvalidCubeError(ReproError, ValueError):
    """An input cube is structurally unusable (e.g. a zero-sized
    dimension).

    Raised at the same admission points as
    :class:`NonFiniteInputError` — before any stage runs and before a
    serving request occupies a queue slot: an empty cube has no pixels
    to classify, no spectra to normalize, and would otherwise surface
    as an obscure shape error deep inside a worker.  The message names
    the offending shape."""


class ServingError(ReproError):
    """Base class for the job-server layer (:mod:`repro.serving`)."""


class ServerBusyError(ServingError):
    """The server's admission queue is full; resubmit after a delay.

    Carries the backpressure hint as a structured attribute — not just
    message text — so clients (and the socket protocol) can implement
    retry-with-backoff without parsing strings:

    ``retry_after_s``
        Suggested delay before resubmitting, derived from the queue
        depth and the server's per-job cost estimate.
    """

    def __init__(self, message: str = "", *,
                 retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def __reduce__(self):
        # Keyword-only attributes do not survive the default args-based
        # exception pickling (see GpuOutOfMemoryError), so ship them as
        # state.
        return (self.__class__, self.args,
                {"retry_after_s": self.retry_after_s})

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)


class ServerClosedError(ServingError):
    """A request reached a server that is not running (never started,
    stopping, or already stopped)."""


class StuckJobError(ServingError):
    """The watchdog gave up on a job whose executor stopped heartbeating.

    Raised (as the job's recorded failure — never thrown across the
    event loop) when a running job's heartbeat age exceeded its
    deadline more times than its retry budget allows.  The message
    carries the heartbeat age and the deadline that condemned it."""


class JournalCorruptError(ServingError):
    """A job-journal record could not be parsed during replay.

    Only raised for corruption *before* the final record: a truncated
    trailing line is the expected signature of a crash mid-append and
    is skipped silently (and counted), but garbage in the middle of
    the journal means the file was externally damaged and recovery
    cannot be trusted."""


class JobNotFoundError(ServingError, KeyError):
    """A job id does not exist on this server.

    Subclasses :class:`KeyError` because the job table is a mapping and
    callers that treat it as one should be able to catch the miss as a
    plain lookup failure."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; keep it readable.
        return Exception.__str__(self)


class TransientFaultError(ReproError):
    """A transient, retryable failure during task execution.

    The retry machinery of :mod:`repro.resilience` treats this class
    (and its subclasses) as retryable by default; the fault injector of
    :mod:`repro.faults` raises it for its ``"transient"`` fault kind."""


class WorkerCrashError(TransientFaultError):
    """An injected worker crash, surfaced in-process.

    The ``"worker_crash"`` fault kind kills pool workers outright
    (``os._exit``); when the same fault fires in a non-worker process it
    raises this instead of taking the interpreter down.  Subclasses
    :class:`TransientFaultError` so in-process retry recovers it."""
