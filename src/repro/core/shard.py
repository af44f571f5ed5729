"""Distributed sharded execution: a file-protocol backend for grids.

Everything the paper's campaigns fan out — grid search candidates,
the estimator×check conformance matrix, closure-campaign seeds — is a
list of independent tasks.  :mod:`repro.core.parallel` runs such lists
on one host; this module takes the same ``map`` contract across
*processes that share nothing but a filesystem*: N worker processes
(local children, ``repro workers`` on other machines, or both) claim
disjoint shards of the task list, execute them, and commit results
exactly once, while the driver merges everything back in deterministic
task order.

The protocol is four directories under one run directory:

- ``shards/shard-NNNNN.pkl`` — the work units.  Tasks are partitioned
  by their structural :func:`~repro.core.resilience.fingerprint`
  (``int(key, 16) % n_shards``), so the assignment depends only on task
  *content*, never on list order or worker scheduling, and a resumed
  run maps onto the identical shards.
- ``leases/shard-NNNNN.lease`` — mutual exclusion via
  :class:`~repro.core.resilience.LeaseFile`: atomic acquisition,
  heartbeat renewal on a background thread, and single-winner takeover
  of stale leases, so a SIGKILLed worker's shard is inherited by
  exactly one survivor.
- ``results/<task-key>.json`` — one atomic
  :class:`~repro.core.resilience.CheckpointStore` commit per task, made
  *as the task finishes*: a killed worker loses only in-flight work,
  and its inheritor skips the committed prefix.  Commits are keyed on
  the task fingerprint and idempotent, so even a duplicate-claim race
  (a stale owner reviving beside its inheritor) produces byte-identical
  commits, never divergent results.
- ``done/shard-NNNNN.json`` — per-shard completion markers with worker
  accounting, written after the shard's last commit.

The driver (:class:`ShardedBackend`) plans the run, optionally spawns
local workers, waits for completion (finishing any orphaned shards
in-process if every worker dies), and merges results by task index —
so a grid, conformance matrix, or closure campaign run sharded is
bitwise-identical to the serial path and resumable after any worker
(or the driver itself) is SIGKILLed.

Telemetry: the driver emits ``shard.plan`` / ``shard.wait`` /
``shard.merge`` spans into the ambient EventLog and ``shard.*``
counters (runs, tasks, shards, claims, steals, commits,
duplicate_commits, resumed_tasks, worker_deaths, drains) into the
metrics registry; worker-local spans ship back inside the committed
records and merge into the driver's log tagged with their provenance,
exactly like the in-process backends.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import instrument
from .exceptions import DeadlineExceededError, ShardError
from .parallel import (
    ExecutionBackend,
    _call_task,
    _task_failure,
    _TaskOutcome,
    spawn_seeds,
)
from .resilience import (
    CheckpointStore,
    Deadline,
    LeaseFile,
    RetryPolicy,
    atomic_write,
    fingerprint,
)

__all__ = [
    "SHARD_WORKER_ENV",
    "ShardRecord",
    "ShardRun",
    "ShardedBackend",
    "create_run",
    "default_shard_root",
    "in_shard_worker",
    "partition_tasks",
    "run_worker",
    "shard_of_key",
    "spawn_local_workers",
    "task_keys",
]

SHARD_WORKER_ENV = "REPRO_SHARD_WORKER"
MANIFEST_NAME = "run.json"
CONFIG_NAME = "config.pkl"
DEFAULT_LEASE_TTL = 30.0


def in_shard_worker() -> bool:
    """Whether this process is a shard worker (set by the launchers)."""
    return os.environ.get(SHARD_WORKER_ENV) == "1"


def default_shard_root() -> str:
    """Default parent directory for auto-created run directories."""
    uid = getattr(os, "getuid", lambda: "u")()
    return os.path.join(tempfile.gettempdir(), f"repro-shard-runs-{uid}")


# ---------------------------------------------------------------------
# Deterministic partitioning
# ---------------------------------------------------------------------

def task_keys(fn: Callable, payloads: Sequence,
              seeds: Sequence) -> List[str]:
    """One structural fingerprint per task.

    The key pins everything that determines the task's result — the
    function, the payload, and the per-task seed — so it doubles as the
    exactly-once commit key and stays stable across runs, drivers, and
    machines.
    """
    return [
        fingerprint("shard-task", fn, payload, seed)
        for payload, seed in zip(payloads, seeds)
    ]


def shard_of_key(key: str, n_shards: int) -> int:
    """The shard a task key belongs to: ``int(key, 16) % n_shards``."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return int(key, 16) % n_shards


def partition_tasks(keys: Sequence[str],
                    n_shards: int) -> Dict[int, List[int]]:
    """Partition task indices into shards keyed on their fingerprints.

    Every index lands in exactly one shard; which shard depends only on
    the task's key, so permuting the task list permutes the *indices*
    inside shards but never moves a task between shards.  Empty shards
    are omitted.
    """
    shards: Dict[int, List[int]] = {}
    for index, key in enumerate(keys):
        shards.setdefault(shard_of_key(key, n_shards), []).append(index)
    return shards


# ---------------------------------------------------------------------
# Atomic small-file helpers
# ---------------------------------------------------------------------

def _atomic_write_json(path: str, document: dict) -> None:
    atomic_write(path, json.dumps(document, sort_keys=True).encode())


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


# ---------------------------------------------------------------------
# The run directory
# ---------------------------------------------------------------------

class ShardRun:
    """Handle on a planned run directory (driver- and worker-side)."""

    def __init__(self, run_dir):
        self.run_dir = os.fspath(run_dir)
        manifest = _read_json(os.path.join(self.run_dir, MANIFEST_NAME))
        if manifest is None:
            raise ShardError(
                f"{self.run_dir} is not a shard run directory "
                f"(no readable {MANIFEST_NAME})"
            )
        self.manifest = manifest
        self._config = None

    # -- layout --------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self.manifest["run_id"]

    @property
    def n_tasks(self) -> int:
        return int(self.manifest["n_tasks"])

    def shard_path(self, shard_id: int) -> str:
        return os.path.join(
            self.run_dir, "shards", f"shard-{shard_id:05d}.pkl"
        )

    def lease_path(self, shard_id: int) -> str:
        return os.path.join(
            self.run_dir, "leases", f"shard-{shard_id:05d}.lease"
        )

    def done_path(self, shard_id: int) -> str:
        return os.path.join(
            self.run_dir, "done", f"shard-{shard_id:05d}.json"
        )

    def results_store(self) -> CheckpointStore:
        return CheckpointStore(
            os.path.join(self.run_dir, "results"), allow_pickle=True
        )

    def config(self) -> dict:
        if self._config is None:
            with open(os.path.join(self.run_dir, CONFIG_NAME), "rb") as fh:
                self._config = pickle.load(fh)
        return self._config

    # -- progress ------------------------------------------------------
    def shard_ids(self) -> List[int]:
        return sorted(int(s) for s in self.manifest["shards"])

    def is_done(self, shard_id: int) -> bool:
        return os.path.exists(self.done_path(shard_id))

    def done_ids(self) -> List[int]:
        return [s for s in self.shard_ids() if self.is_done(s)]

    def pending_ids(self) -> List[int]:
        return [s for s in self.shard_ids() if not self.is_done(s)]

    def all_done(self) -> bool:
        return not self.pending_ids()

    def worker_stats(self) -> dict:
        """Aggregate accounting from every shard's done marker."""
        totals = {
            "shards_done": 0, "committed": 0, "resumed": 0,
            "duplicate_commits": 0, "failed": 0, "claims": 0, "steals": 0,
        }
        workers = set()
        for shard_id in self.shard_ids():
            marker = _read_json(self.done_path(shard_id))
            if marker is None:
                continue
            totals["shards_done"] += 1
            for field in ("committed", "resumed", "duplicate_commits",
                          "failed", "claims", "steals"):
                totals[field] += int(marker.get(field, 0))
            if marker.get("worker"):
                workers.add(marker["worker"])
        totals["workers"] = sorted(workers)
        return totals

    # -- merge ---------------------------------------------------------
    def merge(self, raise_errors: bool = True) -> "MergeResult":
        """Reassemble results in deterministic task order.

        Raises :class:`ShardError` when any task result is missing
        (the run has not finished) and — with ``raise_errors`` — the
        lowest-indexed committed task failure, mirroring the in-process
        backends' submission-order raise semantics.
        """
        store = self.results_store()
        keys = self.manifest["task_keys"]
        results: List = [None] * len(keys)
        span_entries: List[Tuple[int, int, Optional[int], list]] = []
        errors: List[Tuple[int, BaseException]] = []
        missing: List[int] = []
        for index, key in enumerate(keys):
            record = store.get(key)
            if record is None:
                missing.append(index)
                continue
            if record.error is not None:
                errors.append((index, record.error))
                continue
            results[index] = record.value
            if record.spans:
                span_entries.append((
                    index, int(record.attempts or 1),
                    record.pid, list(record.spans),
                ))
        if missing:
            raise ShardError(
                f"run {self.run_id} is incomplete: {len(missing)} of "
                f"{len(keys)} task result(s) missing "
                f"(first missing task index {missing[0]}); "
                f"{len(self.pending_ids())} shard(s) not done"
            )
        merged = MergeResult(results, span_entries, errors,
                             self.worker_stats())
        if raise_errors and errors:
            raise min(errors, key=lambda item: item[0])[1]
        return merged

    def __repr__(self):
        return (
            f"ShardRun({self.run_dir!r}, {len(self.done_ids())}/"
            f"{len(self.shard_ids())} shards done)"
        )


class MergeResult:
    """Merged results plus worker-shipped telemetry and accounting."""

    def __init__(self, results, span_entries, errors, stats):
        self.results = results
        self.span_entries = span_entries
        self.errors = errors
        self.stats = stats


class ShardRecord:
    """One committed task result.

    Stored as a single opaque object so the CheckpointStore pickles it
    whole: task values round-trip *exactly* (tuples stay tuples, numpy
    scalars keep their dtype) — which is what makes the sharded merge
    bitwise-identical to the serial path.
    """

    def __init__(self, value=None, error=None, spans=None, pid=None,
                 attempts=1, worker=None):
        self.value = value
        self.error = error
        self.spans = spans
        self.pid = pid
        self.attempts = attempts
        self.worker = worker


# ---------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------

def create_run(root, fn: Callable, payloads: Sequence, *, seed=None,
               n_shards: int = 8, collect: bool = False,
               retry: Optional[RetryPolicy] = None, deadline=None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               heartbeat_interval: Optional[float] = None) -> ShardRun:
    """Plan a sharded run under ``<root>/<run_id>``.

    Idempotent: replanning the identical task list lands on the
    identical run directory, reuses any committed results, and never
    rewrites a shard file out from under a worker — which is what makes
    a SIGKILLed *driver* resumable too.  Workers run every task under
    *retry* (default: one immediate resubmission).
    """
    payloads = list(payloads)
    n = len(payloads)
    seeds: List[Optional[int]] = (
        [None] * n if seed is None else spawn_seeds(seed, n)
    )
    keys = task_keys(fn, payloads, seeds)
    n_shards = max(1, int(n_shards))
    run_id = fingerprint("shard-run", keys, n_shards)
    run_dir = os.path.join(os.fspath(root), run_id)
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        run = ShardRun(run_dir)
        if run.manifest["task_keys"] != keys:  # pragma: no cover - paranoia
            raise ShardError(
                f"run directory {run_dir} holds a different task list"
            )
        return run
    for sub in ("shards", "leases", "done", "results"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    shards = partition_tasks(keys, n_shards)
    for shard_id, indices in shards.items():
        atomic_write(
            os.path.join(run_dir, "shards", f"shard-{shard_id:05d}.pkl"),
            pickle.dumps({
                "shard": shard_id,
                "fn": fn,
                "tasks": [
                    (i, keys[i], payloads[i], seeds[i]) for i in indices
                ],
            }),
        )
    deadline = Deadline.resolve(deadline)
    config = {
        "retry": retry or RetryPolicy.from_retries(1),
        "deadline_wall": (
            time.time() + deadline.remaining()
            if deadline is not None else None
        ),
        "lease_ttl": float(lease_ttl),
        "heartbeat_interval": heartbeat_interval,
        "collect": bool(collect),
    }
    atomic_write(os.path.join(run_dir, CONFIG_NAME), pickle.dumps(config))
    # the manifest lands last: a directory with run.json is complete
    _atomic_write_json(manifest_path, {
        "version": 1,
        "run_id": run_id,
        "n_tasks": n,
        "n_shards": n_shards,
        "collect": bool(collect),
        "created_at": time.time(),
        "fn": f"{getattr(fn, '__module__', '?')}."
              f"{getattr(fn, '__qualname__', repr(fn))}",
        "task_keys": keys,
        "shards": {str(s): len(ix) for s, ix in sorted(shards.items())},
    })
    return ShardRun(run_dir)


# ---------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------

class _Heartbeat(threading.Thread):
    """Renews a lease in the background; flags when ownership is lost."""

    def __init__(self, lease: LeaseFile, interval: float):
        super().__init__(name=f"lease-heartbeat[{lease.path}]", daemon=True)
        self.lease = lease
        self.interval = max(0.01, float(interval))
        self.lost = False
        # NB: not "_stop" — threading.Thread claims that name internally
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(self.interval):
            if not self.lease.renew():
                self.lost = True
                return

    def stop(self):
        self._halt.set()
        self.join(timeout=5.0)


def _install_stop_handlers(stop_event: threading.Event):
    """Route SIGTERM/SIGINT into *stop_event*; returns an undo callable.

    Signal handlers only install from the main thread; elsewhere this
    is a no-op (the caller can still set the event programmatically).
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    previous = {}

    def _handler(signum, frame):  # noqa: ARG001 — signal signature
        stop_event.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # pragma: no cover — exotic hosts
            pass

    def _undo():
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass

    return _undo


def _execute_shard(run: ShardRun, shard_id: int, lease: LeaseFile,
                   store: CheckpointStore, policy: RetryPolicy,
                   config: dict, stats: dict,
                   deadline: Optional[Deadline],
                   heartbeat_interval: float,
                   stop_event: Optional[threading.Event] = None) -> bool:
    """Run one claimed shard to completion; True when the done marker
    was written (False: lease lost or deadline expired mid-shard)."""
    metrics = instrument.metrics_registry()
    with open(run.shard_path(shard_id), "rb") as fh:
        shard = pickle.load(fh)
    fn = shard["fn"]
    collect = bool(config.get("collect"))
    started = time.perf_counter()
    marker = {
        "shard": shard_id, "worker": lease.owner,
        "n_tasks": len(shard["tasks"]),
        "committed": 0, "resumed": 0, "duplicate_commits": 0, "failed": 0,
        "claims": stats.pop("_claim", 0), "steals": stats.pop("_steal", 0),
    }
    heartbeat = _Heartbeat(lease, heartbeat_interval)
    heartbeat.start()
    try:
        for index, key, payload, seed in shard["tasks"]:
            if heartbeat.lost:
                stats["abandoned_shards"] += 1
                metrics.increment("shard.abandoned")
                return False
            if deadline is not None and deadline.expired():
                return False
            if stop_event is not None and stop_event.is_set():
                # graceful shutdown: the task just committed is durable,
                # the rest of the shard goes back to the fleet when our
                # lease is released by the caller
                stats["stopped"] = True
                metrics.increment("shard.graceful_stops")
                return False
            if key in store:
                marker["resumed"] += 1
                stats["resumed"] += 1
                metrics.increment("shard.resumed_tasks")
                continue
            record = ShardRecord(worker=lease.owner)
            ok, value, record.attempts = policy.attempt(
                functools.partial(_call_task, fn, payload, seed, collect),
                index, deadline=deadline, emit=instrument.emit,
                label=f"task[{index}]", task=index, backend="sharded",
            )
            if not ok and deadline is not None and deadline.expired():
                return False
            if not ok:
                record.error = _task_failure(
                    value, index, record.attempts, "sharded"
                )
                marker["failed"] += 1
                stats["failed"] += 1
                metrics.increment("shard.failed_tasks")
            elif isinstance(value, _TaskOutcome):
                record.value = value.value
                record.spans = value.spans
                record.pid = value.pid
            else:
                record.value = value
            duplicate = key in store
            store.put(key, record)
            if duplicate:
                marker["duplicate_commits"] += 1
                stats["duplicate_commits"] += 1
                metrics.increment("shard.duplicate_commits")
            else:
                marker["committed"] += 1
                stats["committed"] += 1
                metrics.increment("shard.commits")
    finally:
        heartbeat.stop()
    marker["elapsed_seconds"] = time.perf_counter() - started
    _atomic_write_json(run.done_path(shard_id), marker)
    stats["shards_done"] += 1
    return True


def run_worker(run_dir, worker_id: Optional[str] = None, *, wait: bool = True,
               poll: float = 0.05, lease_ttl: Optional[float] = None,
               heartbeat_interval: Optional[float] = None,
               deadline=None, max_shards: Optional[int] = None,
               startup_timeout: float = 30.0,
               stop_event: Optional[threading.Event] = None,
               install_signal_handlers: bool = False) -> dict:
    """Claim and execute shards of one run until it completes.

    The worker loop: scan for shards without a done marker, claim one
    (fresh lease, or steal a stale one), execute its tasks through the
    retry/deadline machinery with exactly-once commits, write the done
    marker, release the lease.  With ``wait=True`` (the default) the
    worker keeps polling — and taking over stale leases — until every
    shard is done, so a fleet of workers is self-healing: any survivor
    finishes a dead sibling's work.  ``wait=False`` exits as soon as
    nothing is claimable (the ``repro workers --once`` mode).

    Graceful shutdown: when *stop_event* (a ``threading.Event``) is set
    — or, with ``install_signal_handlers=True``, when the process
    receives SIGTERM/SIGINT — the worker finishes the task it is
    executing, commits it, releases its current lease, and returns its
    stats with ``stopped=True``.  Released shards are re-claimable
    immediately, so a drained worker never strands work behind a lease
    that has to go stale first.

    Returns the worker's accounting dict.
    """
    run_dir = os.fspath(run_dir)
    give_up = time.monotonic() + max(0.0, startup_timeout)
    while True:
        try:
            run = ShardRun(run_dir)
            break
        except ShardError:
            if time.monotonic() >= give_up:
                raise
            time.sleep(min(poll, 0.2))
    config = run.config()
    worker_id = worker_id or (
        f"{os.uname().nodename if hasattr(os, 'uname') else 'host'}-"
        f"{os.getpid()}"
    )
    ttl = float(lease_ttl if lease_ttl is not None
                else config.get("lease_ttl", DEFAULT_LEASE_TTL))
    interval = float(
        heartbeat_interval if heartbeat_interval is not None
        else config.get("heartbeat_interval") or max(ttl / 4.0, 0.02)
    )
    if deadline is None and config.get("deadline_wall") is not None:
        remaining = config["deadline_wall"] - time.time()
        deadline = Deadline(max(remaining, 1e-3))
    deadline = Deadline.resolve(deadline)
    # run directories planned before the config held one resolved
    # policy store ``retry=None`` next to a ``retries`` count
    policy = config.get("retry") or RetryPolicy.from_retries(
        int(config.get("retries", 1))
    )
    store = run.results_store()
    metrics = instrument.metrics_registry()
    stats = {
        "worker": worker_id, "run_id": run.run_id, "claims": 0,
        "steals": 0, "shards_done": 0, "committed": 0, "resumed": 0,
        "duplicate_commits": 0, "failed": 0, "abandoned_shards": 0,
        "stopped": False,
    }
    stop_event = stop_event or threading.Event()
    undo_handlers = (
        _install_stop_handlers(stop_event) if install_signal_handlers
        else (lambda: None)
    )
    # start each worker's scan at a different offset so a fleet spreads
    # over the shard list instead of stampeding the same lease
    offset = int(fingerprint("worker-offset", worker_id)[:8], 16)
    try:
        while True:
            if stop_event.is_set():
                stats["stopped"] = True
                metrics.increment("shard.graceful_stops")
                break
            pending = run.pending_ids()
            if not pending:
                break
            if deadline is not None and deadline.expired():
                break
            claimed = None
            rotated = pending[offset % len(pending):] \
                + pending[:offset % len(pending)]
            for shard_id in rotated:
                lease = LeaseFile(
                    run.lease_path(shard_id), owner=worker_id, ttl=ttl
                )
                if lease.acquire():
                    stats["claims"] += 1
                    stats["_claim"] = 1
                    metrics.increment("shard.claims")
                    claimed = (shard_id, lease)
                    break
                if lease.steal():
                    stats["steals"] += 1
                    stats["_steal"] = 1
                    metrics.increment("shard.steals")
                    claimed = (shard_id, lease)
                    break
            if claimed is None:
                if not wait:
                    break
                # poll in small slices so a stop request interrupts the
                # idle wait promptly, not after a full poll interval
                stop_event.wait(poll)
                continue
            shard_id, lease = claimed
            try:
                if run.is_done(shard_id):
                    # previous owner finished it but died before releasing
                    stats.pop("_claim", None)
                    stats.pop("_steal", None)
                    continue
                _execute_shard(
                    run, shard_id, lease, store, policy, config, stats,
                    deadline, interval, stop_event,
                )
            finally:
                lease.release()
            if max_shards is not None \
                    and stats["shards_done"] >= max_shards:
                break
    finally:
        undo_handlers()
    return stats


def _worker_entry(run_dir: str, worker_id: str) -> None:
    """Entry point for spawned local worker processes."""
    os.environ[SHARD_WORKER_ENV] = "1"
    # each worker process owns its main thread, so SIGTERM/SIGINT from
    # a supervisor drains the worker gracefully (finish task, release
    # lease) instead of stranding a live lease until it goes stale
    run_worker(
        run_dir, worker_id=worker_id, wait=True,
        install_signal_handlers=True,
    )


def spawn_local_workers(run_dir, n_workers: int) -> list:
    """Launch *n_workers* local worker processes attached to *run_dir*.

    Uses the ``fork`` start method where available (workers inherit
    ``sys.path``, so task functions defined in driver-side modules
    resolve), falling back to ``spawn``.  Returns the started
    ``multiprocessing.Process`` handles; callers own join/terminate.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    run_dir = os.fspath(run_dir)
    processes = []
    for i in range(int(n_workers)):
        process = ctx.Process(
            target=_worker_entry,
            args=(run_dir, f"w{i}-{os.getpid()}"),
            name=f"repro-shard-worker-{i}",
        )
        process.start()
        processes.append(process)
    instrument.metrics_registry().increment(
        "shard.workers_spawned", len(processes)
    )
    return processes


# ---------------------------------------------------------------------
# Driver side: the backend
# ---------------------------------------------------------------------

class ShardedBackend(ExecutionBackend):
    """Run tasks as shards claimed by independent worker processes.

    Drop-in for every ``backend=`` seam (``GridSearchCV``,
    ``cross_validate``, ``run_conformance``, ``run_campaign``): the
    ``map`` contract — deterministic ordering, per-task index seeding,
    retry policies, deadlines — is identical to the in-process
    backends, and merged results are bitwise-identical to the serial
    path.  Unlike those backends, the unit of failure is a whole worker
    *process*: any worker (or the driver) may be SIGKILLed and the run
    still completes, via stale-lease takeover plus per-task
    exactly-once commits, or resumes when re-submitted against the same
    ``root``.

    Like :class:`~repro.core.parallel.SerialBackend`, this backend does
    not enforce a per-task ``timeout``: a worker runs each task to
    completion.  The run-level ``deadline`` holds — ``map`` raises
    :class:`DeadlineExceededError` once it expires, and never returns
    while a worker it spawned is alive (a worker that ignores SIGTERM
    for the grace period is SIGKILLed, losing only its in-flight task).

    Parameters (beyond the shared :class:`ExecutionBackend` ones)
    ----------
    n_shards:
        Work units to partition into (default ``4 × workers``; more
        shards = finer takeover/resume granularity).
    root:
        Parent directory for run directories — point workers on other
        machines at the same shared-filesystem path.  Default: a
        per-user directory under the system temp dir.
    lease_ttl / heartbeat_interval:
        Staleness threshold and renewal cadence for shard leases.
    spawn:
        Launch local worker processes (default).  With ``spawn=False``
        the driver runs no workers of its own: it executes pending
        shards in-process, alongside any external ``repro workers``.
        Either way, shards left pending when every local worker has
        exited are finished in the driver process, so the run completes
        even if all workers are killed.
    cleanup:
        Remove the run directory after a fully successful merge.
        Default: only when ``root`` was auto-chosen.
    """

    name = "sharded"

    def __init__(self, n_workers: Optional[int] = None, retries: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None, deadline=None, *,
                 n_shards: Optional[int] = None, root=None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 heartbeat_interval: Optional[float] = None,
                 poll: float = 0.02, spawn: bool = True,
                 cleanup: Optional[bool] = None):
        super().__init__(n_workers=n_workers, retries=retries, retry=retry,
                         timeout=timeout, deadline=deadline)
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.root = None if root is None else os.fspath(root)
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_interval = heartbeat_interval
        self.poll = float(poll)
        self.spawn = bool(spawn)
        self.cleanup = cleanup

    def resolved_workers(self) -> int:
        if self.n_workers is None:
            return max(min(os.cpu_count() or 1, 4), 2)
        return super().resolved_workers()

    def resolved_shards(self, n_tasks: int) -> int:
        if self.n_shards is not None:
            return int(self.n_shards)
        return max(1, min(int(n_tasks), 4 * self.resolved_workers()))

    # ------------------------------------------------------------------
    def map(self, fn: Callable, payloads: Sequence, seed=None) -> list:
        payloads = list(payloads)
        n = len(payloads)
        if n == 0:
            return []
        log = instrument.current_log()
        collect = log is not None
        metrics = instrument.metrics_registry()
        metrics.increment("parallel.tasks", n)
        metrics.increment(f"parallel.{self.name}.tasks", n)
        deadline = Deadline.resolve(self.deadline)
        root = self.root or default_shard_root()
        cleanup = (self.root is None) if self.cleanup is None \
            else bool(self.cleanup)

        started = time.perf_counter()
        run = create_run(
            root, fn, payloads, seed=seed,
            n_shards=self.resolved_shards(n), collect=collect,
            retry=self._policy(), deadline=deadline,
            lease_ttl=self.lease_ttl,
            heartbeat_interval=self.heartbeat_interval,
        )
        metrics.increment("shard.runs")
        metrics.increment("shard.tasks", n)
        metrics.increment("shard.shards", len(run.shard_ids()))
        instrument.emit(
            "shard.plan", time.perf_counter() - started,
            label=f"run[{run.run_id[:8]}]", backend=self.name,
            n_tasks=n, n_shards=len(run.shard_ids()),
        )

        started = time.perf_counter()
        workers: list = []
        try:
            if self.spawn and not run.all_done():
                workers = spawn_local_workers(
                    run.run_dir, self.resolved_workers()
                )
            self._wait(run, workers, deadline, metrics)
        finally:
            for process in workers:
                if process.is_alive():
                    process.terminate()
            for process in workers:
                process.join(timeout=5.0)
                if process.is_alive():
                    # SIGTERM only stops a worker after its current
                    # task; commits are idempotent, so a kill loses
                    # nothing but that task
                    process.kill()
                    process.join()
        instrument.emit(
            "shard.wait", time.perf_counter() - started,
            label=f"run[{run.run_id[:8]}]", backend=self.name,
            n_workers=len(workers),
        )

        started = time.perf_counter()
        merged = run.merge(raise_errors=False)
        stats = merged.stats
        for field, metric in (
            ("committed", "shard.merged_commits"),
            ("resumed", "shard.merged_resumed"),
            ("duplicate_commits", "shard.merged_duplicates"),
            ("steals", "shard.merged_steals"),
        ):
            if stats.get(field):
                metrics.increment(metric, stats[field])
        if collect and merged.span_entries:
            spans = []
            for index, attempts, pid, entry in merged.span_entries:
                spans.extend(self._tag_spans(entry, index, attempts, pid))
            log.extend(spans)
        instrument.emit(
            "shard.merge", time.perf_counter() - started,
            label=f"run[{run.run_id[:8]}]", backend=self.name,
            n_tasks=n, resumed=stats.get("resumed", 0),
            duplicates=stats.get("duplicate_commits", 0),
        )
        if merged.errors:
            raise min(merged.errors, key=lambda item: item[0])[1]
        if cleanup:
            shutil.rmtree(run.run_dir, ignore_errors=True)
        return merged.results

    # ------------------------------------------------------------------
    def _wait(self, run: ShardRun, workers: list, deadline,
              metrics) -> None:
        """Poll for completion; once no local worker is alive, finish
        the pending shards in the driver process."""
        counted: set = set()
        drained = False
        while not run.all_done():
            if deadline is not None and deadline.expired():
                raise DeadlineExceededError(
                    f"deadline of {deadline.seconds}s expired with "
                    f"{len(run.pending_ids())} shard(s) pending on the "
                    f"{self.name} backend",
                    pending=run.pending_ids(),
                )
            for process in workers:
                if (not process.is_alive()
                        and process.exitcode not in (0, None)
                        and id(process) not in counted):
                    counted.add(id(process))
                    metrics.increment("shard.worker_deaths")
            if any(process.is_alive() for process in workers):
                time.sleep(self.poll)
                continue
            if drained:
                raise ShardError(
                    f"driver finished its pass but {run.pending_ids()} "
                    f"shard(s) are still pending"
                )
            drained = True
            metrics.increment("shard.drains")
            run_worker(
                run.run_dir, worker_id=f"driver-{os.getpid()}",
                wait=True, poll=self.poll, deadline=deadline,
                lease_ttl=self.lease_ttl,
                heartbeat_interval=self.heartbeat_interval,
            )

    def __repr__(self):
        return (
            f"ShardedBackend(n_workers={self.n_workers}, "
            f"n_shards={self.n_shards}, root={self.root!r}, "
            f"retries={self.retries})"
        )

