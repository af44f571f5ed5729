"""Pluggable execution backends for embarrassingly parallel work.

Model selection — grid search, cross-validation, complexity and
learning curves — reduces to running many independent ``fit``/``score``
tasks.  This module supplies the runtime those utilities fan tasks onto:

- :class:`SerialBackend` — in-process loop, zero overhead, the default;
- :class:`ThreadBackend` — a thread pool; effective whenever the work
  releases the GIL (NumPy linear algebra, the Gram engine's vectorized
  block paths);
- :class:`ProcessBackend` — a process pool for pure-Python hot loops
  (SMO, tree induction); task functions and payloads must be picklable.

All backends share one contract, built on :mod:`concurrent.futures`
only (no ``joblib``):

- **Deterministic ordering.**  ``map`` returns results in submission
  order no matter which worker finished first, so downstream
  aggregation (best-candidate selection, curve assembly) is identical
  across backends.
- **Per-task seeding.**  ``map(..., seed=s)`` derives one independent
  child seed per task from a single :class:`numpy.random.SeedSequence`.
  Seeds are assigned by task *index*, so a retried task reruns with its
  original seed and stochastic campaigns reproduce bit-for-bit on every
  backend, any worker count, and any failure pattern.
- **Policy-driven resilience.**  A failing task is retried under a
  :class:`~repro.core.resilience.RetryPolicy` (exponential backoff,
  deterministic seeded jitter, retryable-exception filter); the legacy
  ``retries=k`` counter maps onto an immediate-resubmit policy.
  Persistent failures raise :class:`~repro.core.exceptions.WorkerError`
  carrying the worker's formatted traceback and the attempt count.
- **Timeouts and deadlines.**  A per-task ``timeout`` abandons hung
  workers (threads are orphaned, processes terminated) and surfaces
  :class:`~repro.core.exceptions.TaskTimeoutError` with the task index;
  a run-level :class:`~repro.core.resilience.Deadline` bounds the whole
  ``map`` (or a whole campaign, when one instance is shared) and raises
  :class:`~repro.core.exceptions.DeadlineExceededError` on expiry.
  The serial backend cannot preempt a running task, so per-task
  timeouts are not enforced there; deadlines are checked between tasks.

Retry sleeps and abandoned timeouts are emitted as ``retry`` /
``timeout`` spans into the ambient
:class:`~repro.core.instrument.EventLog` (when one is recording), so a
flaky campaign shows where its wall time actually went.

**Worker span propagation.**  When the driver has an ambient log
recording, every task runs under a fresh worker-local ``EventLog`` and
the trampoline ships the task's spans back alongside its result (or
stapled onto its exception).  ``map`` merges them into the ambient log
in deterministic task order, tagged with ``task_index`` / ``backend``
/ ``pid`` / ``attempt`` — so spans emitted inside process (or thread)
workers are no longer silently dropped, and span accounting is
identical across all three backends.  Without an ambient log the
trampoline takes its original zero-overhead path.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import instrument
from .exceptions import DeadlineExceededError, TaskTimeoutError, WorkerError
from .instrument import EventLog
from .resilience import Deadline, RetryPolicy

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "get_backend",
    "spawn_seeds",
]


def spawn_seeds(seed, n: int) -> List[int]:
    """Derive *n* independent per-task seeds from one root seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so sibling seeds
    are statistically independent and the derivation depends only on
    ``(seed, n)`` — never on worker scheduling.
    """
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in root.spawn(n)]


class _TaskOutcome:
    """A task result plus the spans its worker-local log captured.

    Picklable: crosses the process boundary with the result, so the
    driver can merge worker telemetry into the ambient log.
    """

    def __init__(self, value, spans, pid):
        self.value = value
        self.spans = spans
        self.pid = pid


def _call_task(fn: Callable, payload, seed: Optional[int],
               collect: bool = False):
    """Top-level task trampoline (picklable for the process backend).

    Failures get the formatted traceback stapled onto the exception
    (``_repro_traceback``); exception ``__dict__`` survives pickling,
    so the text crosses the process boundary even though live traceback
    objects cannot.

    With ``collect=True`` (the driver has an ambient log recording) the
    task runs under a fresh worker-local :class:`EventLog`; its spans
    travel back inside a :class:`_TaskOutcome` — or, on failure,
    stapled onto the exception as ``_repro_spans`` — so no telemetry is
    lost on any backend.
    """
    if not collect:
        try:
            if seed is None:
                return fn(payload)
            return fn(payload, seed=seed)
        except Exception as error:  # noqa: BLE001 — re-raised for map()
            try:
                error._repro_traceback = traceback.format_exc()
            except Exception:  # noqa: BLE001 — immutable/slotted exceptions
                pass
            raise
    local = EventLog()
    try:
        with instrument.recording(local):
            if seed is None:
                result = fn(payload)
            else:
                result = fn(payload, seed=seed)
        return _TaskOutcome(result, local.spans(), os.getpid())
    except Exception as error:  # noqa: BLE001 — re-raised for map()
        try:
            error._repro_traceback = traceback.format_exc()
            error._repro_spans = local.spans()
            error._repro_pid = os.getpid()
        except Exception:  # noqa: BLE001 — immutable/slotted exceptions
            pass
        raise


def _format_traceback(error: BaseException) -> str:
    """The worker-side traceback of *error*, best effort."""
    remote = getattr(error, "_repro_traceback", None)
    if remote:
        return remote
    return "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def _task_failure(error: BaseException, index: int, attempts: int,
                  backend: str) -> Exception:
    """What a task that gave up after *attempts* tries raises: its own
    :class:`TaskTimeoutError`, or a :class:`WorkerError` carrying the
    worker-side traceback with *error* as its cause."""
    if isinstance(error, TaskTimeoutError):
        error.attempts = attempts
        return error
    failure = WorkerError(
        f"task {index} failed on the {backend} backend "
        f"after {attempts} attempt(s): {error!r}",
        task_index=index,
        attempts=attempts,
        traceback_str=_format_traceback(error),
    )
    failure.__cause__ = error
    return failure


class ExecutionBackend:
    """Base class: retry loop, ordering, and the ``map`` contract.

    Parameters
    ----------
    n_workers:
        Worker count; ``None`` picks a backend-specific default and
        ``-1`` uses ``os.cpu_count()``.  Ignored by the serial backend.
    retries:
        How many times a failed task is resubmitted before
        :class:`WorkerError` is raised.  Shorthand for
        ``retry=RetryPolicy.from_retries(retries)`` (immediate
        resubmission, no backoff).
    retry:
        A :class:`~repro.core.resilience.RetryPolicy`; overrides
        *retries* when given.
    timeout:
        Per-task wall-clock budget in seconds; a task exceeding it is
        abandoned and raises :class:`TaskTimeoutError` (not enforced on
        the serial backend, which cannot preempt).
    deadline:
        Run-level budget: seconds (a fresh budget per ``map`` call) or
        a shared :class:`~repro.core.resilience.Deadline` instance.
    """

    name = "base"

    def __init__(self, n_workers: Optional[int] = None, retries: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None, deadline=None):
        if n_workers is not None and n_workers != -1 and n_workers < 1:
            raise ValueError("n_workers must be None, -1, or >= 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.n_workers = n_workers
        self.retries = int(retries)
        self.retry = retry
        self.timeout = None if timeout is None else float(timeout)
        self.deadline = deadline

    # ------------------------------------------------------------------
    def resolved_workers(self) -> int:
        if self.n_workers in (None, -1):
            return max(os.cpu_count() or 1, 1)
        return int(self.n_workers)

    def _policy(self) -> RetryPolicy:
        if self.retry is not None:
            return self.retry
        return RetryPolicy.from_retries(self.retries)

    def map(self, fn: Callable, payloads: Sequence, seed=None) -> list:
        """Run ``fn(payload)`` for every payload; results in order.

        When *seed* is given, each task instead receives
        ``fn(payload, seed=task_seed)`` with per-task seeds from
        :func:`spawn_seeds`, assigned by index (stable under retries).
        """
        payloads = list(payloads)
        n = len(payloads)
        if n == 0:
            return []
        seeds: List[Optional[int]] = (
            [None] * n if seed is None else spawn_seeds(seed, n)
        )
        policy = self._policy()
        deadline = Deadline.resolve(self.deadline)
        log = instrument.current_log()
        collect = log is not None
        metrics = instrument.metrics_registry()
        metrics.increment("parallel.tasks", n)
        metrics.increment(f"parallel.{self.name}.tasks", n)
        results = [None] * n
        pending = list(range(n))
        attempts = [0] * n
        merged: List = []
        try:
            while pending:
                if deadline is not None and deadline.expired():
                    raise DeadlineExceededError(
                        f"deadline of {deadline.seconds}s expired with "
                        f"{len(pending)} task(s) pending on the {self.name} "
                        f"backend",
                        pending=pending,
                    )
                for i in pending:
                    attempts[i] += 1
                outcomes = self._execute(
                    fn,
                    [(i, payloads[i], seeds[i]) for i in pending],
                    timeout=self.timeout,
                    deadline=deadline,
                    collect=collect,
                )
                failed = []
                # deterministic merge order: spans are gathered batch by
                # batch in ascending task index, not completion order
                for i, ok, value in sorted(outcomes, key=lambda o: o[0]):
                    if ok:
                        if isinstance(value, _TaskOutcome):
                            merged.extend(self._tag_spans(
                                value.spans, i, attempts[i], value.pid,
                            ))
                            results[i] = value.value
                        else:
                            results[i] = value
                    else:
                        merged.extend(self._tag_spans(
                            getattr(value, "_repro_spans", None) or (),
                            i, attempts[i],
                            getattr(value, "_repro_pid", None),
                        ))
                        failed.append((i, value))
                if not failed:
                    break
                metrics.increment("parallel.retries", len(failed))
                self._raise_if_exhausted(policy, failed, attempts, deadline)
                # every failure retryable: back off once (the longest of
                # the per-task deterministic delays) and resubmit the batch
                delay = max(
                    policy.delay(i, attempts[i]) for i, _ in failed
                )
                for i, error in failed:
                    instrument.emit(
                        "retry", delay, label=f"task[{i}]",
                        task=i, attempt=attempts[i], backend=self.name,
                        error=repr(error),
                    )
                if delay > 0.0:
                    time.sleep(delay)
                pending = sorted(i for i, _ in failed)
        finally:
            # worker spans survive even when the run ultimately raises:
            # a failed campaign still accounts for the work it burned
            if merged and log is not None:
                log.extend(merged)
        return results

    def _tag_spans(self, spans, index: int, attempt: int, pid) -> list:
        """Stamp worker-shipped spans with their provenance."""
        for record in spans:
            record.meta.setdefault("task_index", index)
            record.meta.setdefault("backend", self.name)
            record.meta.setdefault("attempt", attempt)
            if pid is not None:
                record.meta.setdefault("pid", pid)
        return list(spans)

    def _raise_if_exhausted(self, policy, failed, attempts,
                            deadline) -> None:
        """Raise for the most meaningful non-retryable failure, if any.

        Deadline expiry always wins; a genuine per-task timeout beats
        siblings that were merely abandoned with it; everything else
        surfaces in submission order.
        """
        for i, error in failed:
            if isinstance(error, DeadlineExceededError):
                raise error
        for i, error in failed:
            if isinstance(error, TaskTimeoutError) and not error.abandoned:
                instrument.metrics_registry().increment("parallel.timeouts")
                instrument.emit(
                    "timeout", error.timeout or 0.0, label=f"task[{i}]",
                    task=i, backend=self.name, attempt=attempts[i],
                )
        ordered = sorted(
            failed,
            key=lambda item: (
                not (isinstance(item[1], TaskTimeoutError)
                     and not item[1].abandoned),
                item[0],
            ),
        )
        for index, error in ordered:
            if not policy.should_retry(error, attempts[index]):
                raise _task_failure(error, index, attempts[index], self.name)

    # ------------------------------------------------------------------
    def _execute(self, fn, calls, timeout=None, deadline=None,
                 collect=False):
        """Run ``calls = [(index, payload, seed), ...]`` once each and
        return ``[(index, ok, result_or_exception), ...]``.

        With ``collect=True`` successful results arrive wrapped in
        :class:`_TaskOutcome` carrying the worker-local spans.
        """
        raise NotImplementedError

    def __repr__(self):
        extras = ""
        if self.retry is not None:
            extras += f", retry={self.retry!r}"
        if self.timeout is not None:
            extras += f", timeout={self.timeout}"
        if self.deadline is not None:
            extras += f", deadline={self.deadline!r}"
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"retries={self.retries}{extras})"
        )


class SerialBackend(ExecutionBackend):
    """Run tasks in the calling thread, one after another.

    No preemption is possible in-process, so per-task ``timeout`` is
    not enforced here; a run-level deadline is checked between tasks.
    """

    name = "serial"

    def resolved_workers(self) -> int:
        return 1

    def _execute(self, fn, calls, timeout=None, deadline=None,
                 collect=False):
        outcomes = []
        for index, payload, seed in calls:
            if deadline is not None and deadline.expired():
                outcomes.append((
                    index,
                    False,
                    DeadlineExceededError(
                        f"deadline of {deadline.seconds}s expired before "
                        f"task {index} could run",
                        pending=[index],
                    ),
                ))
                continue
            try:
                outcomes.append(
                    (index, True, _call_task(fn, payload, seed, collect))
                )
            except Exception as error:  # noqa: BLE001 — retried by map()
                outcomes.append((index, False, error))
        return outcomes


class _PoolBackend(ExecutionBackend):
    """Shared future-collection loop for the thread/process backends."""

    def _make_pool(self):
        raise NotImplementedError

    def _shutdown(self, pool, abandon: bool) -> None:
        if abandon:
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)

    def _execute(self, fn, calls, timeout=None, deadline=None,
                 collect=False):
        pool = self._make_pool()
        abandon = False
        outcomes = []
        try:
            futures = [
                (index, pool.submit(_call_task, fn, payload, seed, collect))
                for index, payload, seed in calls
            ]
            for position, (index, future) in enumerate(futures):
                budget, bound = None, None
                if timeout is not None:
                    budget, bound = float(timeout), "timeout"
                if deadline is not None:
                    remaining = deadline.remaining()
                    if budget is None or remaining < budget:
                        budget, bound = remaining, "deadline"
                try:
                    outcomes.append(
                        (index, True, future.result(timeout=budget))
                    )
                except FuturesTimeoutError:
                    abandon = True
                    if bound == "deadline":
                        error: Exception = DeadlineExceededError(
                            f"deadline of {deadline.seconds}s expired "
                            f"while waiting on task {index}",
                            pending=[i for i, _ in futures[position:]],
                        )
                    else:
                        error = TaskTimeoutError(
                            f"task {index} on the {self.name} backend "
                            f"exceeded its {timeout}s timeout and was "
                            f"abandoned",
                            task_index=index,
                            timeout=timeout,
                        )
                    outcomes.append((index, False, error))
                    outcomes.extend(
                        self._drain_after_abandon(
                            futures[position + 1:], timeout
                        )
                    )
                    break
                except CancelledError as error:
                    outcomes.append((index, False, error))
                except Exception as error:  # noqa: BLE001
                    outcomes.append((index, False, error))
        finally:
            self._shutdown(pool, abandon)
        return outcomes

    @staticmethod
    def _drain_after_abandon(remaining, timeout):
        """Salvage siblings that already finished; mark the rest
        abandoned (retryable only under ``retry_timeouts``)."""
        drained = []
        for index, future in remaining:
            if future.done() and not future.cancelled():
                try:
                    drained.append((index, True, future.result(timeout=0)))
                except Exception as error:  # noqa: BLE001
                    drained.append((index, False, error))
            else:
                future.cancel()
                drained.append((
                    index,
                    False,
                    TaskTimeoutError(
                        f"task {index} abandoned after a sibling task "
                        f"timed out",
                        task_index=index,
                        timeout=timeout,
                        abandoned=True,
                    ),
                ))
        return drained


class ThreadBackend(_PoolBackend):
    """Run tasks on a thread pool (shared memory, GIL-bound Python).

    A timed-out task's thread cannot be killed; it is orphaned (the
    pool is shut down without waiting) and its eventual result is
    discarded.
    """

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.resolved_workers())


class ProcessBackend(_PoolBackend):
    """Run tasks on a process pool.

    Task functions, payloads, and results must be picklable.  A worker
    process dying (``BrokenProcessPool``) marks every task still in
    flight as failed; the retry pass runs them on a fresh pool.  A
    timed-out task's worker process is terminated outright.
    """

    name = "process"

    def resolved_workers(self) -> int:
        if self.n_workers is None:
            return max(min(os.cpu_count() or 1, 4), 2)
        return super().resolved_workers()

    def _make_pool(self):
        return ProcessPoolExecutor(max_workers=self.resolved_workers())

    def _shutdown(self, pool, abandon: bool) -> None:
        if abandon:
            # snapshot the worker handles first: shutdown() clears the
            # pool's process table, and a hung worker never drains the
            # call queue on its own
            workers = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in workers:
                process.terminate()
        else:
            pool.shutdown(wait=True)

    def _execute(self, fn, calls, timeout=None, deadline=None,
                 collect=False):
        try:
            return super()._execute(
                fn, calls, timeout=timeout, deadline=deadline,
                collect=collect,
            )
        except BrokenProcessPool as error:
            # pool management itself broke before all futures resolved
            return [(index, False, error) for index, _, _ in calls]


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "threads": ThreadBackend,
    "process": ProcessBackend,
    "processes": ProcessBackend,
}

def available_backends() -> List[str]:
    """Canonical backend names accepted by :func:`get_backend`."""
    return ["serial", "thread", "process", "sharded"]


def get_backend(spec=None, n_workers: Optional[int] = None,
                retries: int = 1, retry: Optional[RetryPolicy] = None,
                timeout: Optional[float] = None,
                deadline=None) -> ExecutionBackend:
    """Resolve a backend specification.

    ``None`` means serial; a string picks a backend by name (see
    :func:`available_backends`; ``"sharded"`` imports
    :mod:`repro.core.shard` on first use); an
    :class:`ExecutionBackend` instance passes through unchanged (its own
    worker/retry/timeout configuration wins).
    """
    if spec is None:
        return SerialBackend(
            retries=retries, retry=retry, timeout=timeout, deadline=deadline
        )
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        if spec.lower() in ("sharded", "shards"):
            # imported on first use: the shard module builds on this one
            from .shard import ShardedBackend as backend_cls
        else:
            backend_cls = _BACKENDS.get(spec.lower())
        if backend_cls is None:
            raise ValueError(
                f"unknown backend {spec!r}; available: "
                f"{available_backends()}"
            )
        return backend_cls(
            n_workers=n_workers, retries=retries, retry=retry,
            timeout=timeout, deadline=deadline,
        )
    raise TypeError(
        f"backend must be None, a name, or an ExecutionBackend; "
        f"got {type(spec).__name__}"
    )
