"""Resilience primitives for long-running mining campaigns.

The paper's industrial case studies — test-selection loops, grid
refinement, silicon correlation — are exactly the workloads that die at
hour three of a four-hour run: a license server blips, one worker
wedges, one pathological grid cell diverges.  Section 1's
"no extra engineering burden" principle means the runtime has to absorb
those failures without babysitting.  This module supplies the four
policies the execution layer composes:

- :class:`RetryPolicy` — exponential backoff with *deterministic*
  seeded jitter and a retryable-exception filter, replacing the bare
  resubmit-immediately counter; :meth:`RetryPolicy.attempt` runs one
  task under it;
- :class:`Deadline` — a run-level wall-clock budget shared across every
  batch of a campaign;
- :class:`ErrorPolicy` — what a fit/score failure means: raise, record
  an ``error_score`` and keep going, or substitute a fallback
  estimator;
- :class:`CheckpointStore` — an atomic write-then-rename store of task
  results keyed by content fingerprint, making searches and discovery
  loops resumable with bitwise-identical results;
- :class:`LeaseFile` — a single-owner, heartbeat-renewed claim on a
  filesystem path, the mutual-exclusion primitive under the
  :mod:`~repro.core.shard` work protocol (atomic acquisition, stale
  detection, and single-winner takeover);
- :class:`CircuitBreaker` — closed/open/half-open failure isolation
  with deterministic, seeded probe scheduling, the primitive the
  :mod:`repro.serve` scoring front end uses to keep a failing exact
  model from taking the whole endpoint down;
- :class:`AdmissionController` — token-bucket plus queue-depth load
  shedding under :class:`Deadline` budgets: a request the system
  cannot serve in time is rejected *typed and immediately*, never
  queued into a hang.

:func:`atomic_write` is the one durable small-file write under all of
them (checkpoints, leases, shard plans and markers).

Everything here is plain picklable data: policies travel inside task
payloads to process workers, and a store is just a directory path plus
options.
"""

from __future__ import annotations

import base64
import json
import math
import os
import socket
import tempfile
import threading
import time
import uuid
from contextlib import suppress
from hashlib import blake2b
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from . import instrument
from .exceptions import CheckpointError, TaskTimeoutError

__all__ = [
    "RetryPolicy",
    "Deadline",
    "ErrorPolicy",
    "CheckpointStore",
    "LeaseFile",
    "CircuitBreaker",
    "AdmissionController",
    "atomic_write",
    "fingerprint",
]


def _require_finite(name: str, value: float, *, positive: bool = False,
                    non_negative: bool = False,
                    allow_inf: bool = False) -> float:
    """A numeric policy parameter, validated loudly.

    NaN is rejected everywhere: every comparison against NaN is False,
    so an unchecked NaN builds a policy that silently never retries,
    never expires, or always sheds — the worst possible failure mode
    for code whose whole job is handling failure.
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    if not allow_inf and math.isinf(value):
        raise ValueError(f"{name} must be finite")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if non_negative and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


# ---------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------

class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total times one task may run (first attempt included); the
        bare ``retries=k`` counter corresponds to ``max_attempts=k+1``.
    base_delay:
        Sleep before the first retry, in seconds.
    multiplier:
        Growth factor per further retry.
    max_delay:
        Cap on any single delay.
    jitter:
        Fraction of the delay randomized away: the actual sleep is
        uniform in ``[delay * (1 - jitter), delay]``.  The draw is a
        pure function of ``(seed, task_index, attempt)``, so a rerun of
        the same campaign backs off identically — failure handling
        never breaks reproducibility.
    seed:
        Root of the jitter derivation.
    retryable:
        Either a tuple of exception types or a predicate
        ``retryable(error) -> bool``.  Non-matching errors fail fast.
    retry_timeouts:
        Whether :class:`TaskTimeoutError` counts as retryable.  Off by
        default: a hung task usually hangs again, and every retry costs
        a full timeout window.
    """

    def __init__(self, max_attempts: int = 2, base_delay: float = 0.05,
                 multiplier: float = 2.0, max_delay: float = 5.0,
                 jitter: float = 0.5, seed: int = 0,
                 retryable: Union[Tuple, Callable] = (Exception,),
                 retry_timeouts: bool = False):
        max_attempts = int(
            _require_finite("max_attempts", max_attempts)
        )
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {max_attempts}"
            )
        base_delay = _require_finite(
            "base_delay", base_delay, non_negative=True
        )
        max_delay = _require_finite(
            "max_delay", max_delay, non_negative=True
        )
        multiplier = _require_finite("multiplier", multiplier)
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier!r}")
        jitter = _require_finite("jitter", jitter)
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter!r}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = int(seed)
        self.retryable = retryable
        self.retry_timeouts = bool(retry_timeouts)

    @classmethod
    def from_retries(cls, retries: int) -> "RetryPolicy":
        """The legacy ``retries`` counter: immediate resubmission,
        any exception, no backoff."""
        return cls(max_attempts=retries + 1, base_delay=0.0, jitter=0.0)

    # ------------------------------------------------------------------
    def is_retryable(self, error: BaseException) -> bool:
        if isinstance(error, TaskTimeoutError) and not self.retry_timeouts:
            return False
        if callable(self.retryable) and not isinstance(
            self.retryable, tuple
        ):
            return bool(self.retryable(error))
        return isinstance(error, tuple(self.retryable))

    def should_retry(self, error: BaseException, attempts: int) -> bool:
        """Whether a task that has now run *attempts* times and failed
        with *error* deserves another attempt."""
        return attempts < self.max_attempts and self.is_retryable(error)

    def attempt(self, call: Callable[[], object], index: int, *,
                deadline: Optional["Deadline"] = None,
                emit: Optional[Callable] = None, label: str = "",
                **meta) -> Tuple[bool, object, int]:
        """Run ``call()`` for task *index* under this policy.

        Returns ``(ok, value, attempts)``: the result on success, else
        the last exception.  A failure ends the loop when
        :meth:`should_retry` declines or *deadline* has expired;
        otherwise the loop sleeps :meth:`delay`, reports a ``retry``
        span through ``emit`` (an :meth:`EventLog.emit`-shaped callable,
        given *label*, ``attempt``, ``error`` and *meta*), and calls
        again.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                return True, call(), attempts
            except Exception as error:  # noqa: BLE001 — policy-routed
                if ((deadline is not None and deadline.expired())
                        or not self.should_retry(error, attempts)):
                    return False, error, attempts
                delay = self.delay(index, attempts)
                if emit is not None:
                    emit("retry", delay, label=label, attempt=attempts,
                         error=repr(error), **meta)
                if delay > 0.0:
                    time.sleep(delay)

    def delay(self, task_index: int, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based) of one task.

        Deterministic: depends only on the policy configuration and
        ``(task_index, attempt)``.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        metrics = instrument.metrics_registry()
        metrics.increment("retry.delays")
        if raw == 0.0 or self.jitter == 0.0:
            metrics.observe("retry.delay_seconds", raw)
            return raw
        entropy = np.random.SeedSequence(
            entropy=[self.seed, int(task_index) & 0xFFFFFFFF, int(attempt)]
        )
        fraction = np.random.default_rng(entropy).random()
        delay = raw * (1.0 - self.jitter * fraction)
        metrics.observe("retry.delay_seconds", delay)
        return delay

    # ------------------------------------------------------------------
    def __repr__(self):
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, multiplier={self.multiplier}, "
            f"max_delay={self.max_delay}, jitter={self.jitter}, "
            f"seed={self.seed})"
        )

    def __eq__(self, other):
        if not isinstance(other, RetryPolicy):
            return NotImplemented
        return (
            self.max_attempts, self.base_delay, self.multiplier,
            self.max_delay, self.jitter, self.seed, self.retry_timeouts,
        ) == (
            other.max_attempts, other.base_delay, other.multiplier,
            other.max_delay, other.jitter, other.seed, other.retry_timeouts,
        ) and self.retryable == other.retryable

    __hash__ = None


# ---------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------

class Deadline:
    """A wall-clock budget for a whole run.

    One :class:`Deadline` instance can be threaded through many ``map``
    calls (a whole grid search, a whole discovery loop): the clock
    starts at construction and never resets.  Passing a plain number of
    seconds to a backend instead creates a fresh deadline per ``map``.
    """

    def __init__(self, seconds: float):
        # NaN would build a deadline that is never expired *and* never
        # has positive remaining budget — reject it loudly (inf is a
        # legitimate "unbounded" budget and passes)
        self.seconds = _require_finite(
            "deadline seconds", seconds, positive=True, allow_inf=True
        )
        self.started_at = time.monotonic()

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.seconds - (time.monotonic() - self.started_at))

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    @staticmethod
    def resolve(value) -> Optional["Deadline"]:
        """``None`` | seconds | :class:`Deadline` -> optional deadline."""
        if value is None or isinstance(value, Deadline):
            return value
        return Deadline(float(value))

    def __repr__(self):
        return (
            f"Deadline({self.seconds}s, {self.remaining():.3f}s remaining)"
        )


# ---------------------------------------------------------------------
# ErrorPolicy
# ---------------------------------------------------------------------

class ErrorPolicy:
    """What a failing fit/score task means for the surrounding search.

    Modes
    -----
    ``"raise"``
        Propagate (after the backend's retry budget) — the default, and
        the pre-existing behaviour.
    ``"skip"``
        Record ``error_score`` for the failed cell and keep the
        campaign going; the failure text is preserved alongside the
        scores so nothing fails silently.
    ``"fallback"``
        Fit *fallback* (a fresh clone per cell) in place of the failed
        candidate and score that instead — the paper's "the flow must
        still tape out" stance: a diverging exotic model degrades to a
        trusted baseline rather than killing the sweep.
    """

    MODES = ("raise", "skip", "fallback")

    def __init__(self, on_error: str = "raise",
                 error_score: float = float("nan"), fallback=None):
        if on_error not in self.MODES:
            raise ValueError(
                f"on_error must be one of {self.MODES}, got {on_error!r}"
            )
        if on_error == "fallback" and fallback is None:
            raise ValueError("fallback mode requires a fallback estimator")
        self.on_error = on_error
        self.error_score = float(error_score)
        self.fallback = fallback

    def __repr__(self):
        return (
            f"ErrorPolicy(on_error={self.on_error!r}, "
            f"error_score={self.error_score!r}, fallback={self.fallback!r})"
        )


# ---------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------

def _feed(h, value) -> None:
    """Feed one value into a hash, structurally and stably.

    Arrays hash by dtype/shape/bytes; params-API objects (estimators,
    kernels, pipelines) hash by class plus their shallow params,
    recursively; callables by qualified name; containers element-wise.
    Reprs are used only for scalar builtins, whose reprs are stable.
    """
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(b"nd:")
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(value, (bytes, bytearray)):
        h.update(b"by:")
        h.update(bytes(value))
    elif isinstance(value, str):
        h.update(b"st:")
        h.update(value.encode())
    elif value is None or isinstance(value, (bool, int, float, complex,
                                             np.generic)):
        h.update(b"sc:")
        h.update(repr(value).encode())
    elif isinstance(value, dict):
        h.update(b"di:")
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"sq:")
        for item in value:
            _feed(h, item)
    elif hasattr(value, "cache_key") and callable(value.cache_key):
        h.update(b"ck:")
        _feed(h, value.cache_key())
    elif hasattr(value, "get_params") and not isinstance(value, type):
        h.update(b"es:")
        h.update(type(value).__qualname__.encode())
        _feed(h, value.get_params(deep=False))
    elif callable(value):
        h.update(b"fn:")
        h.update(getattr(value, "__module__", "?").encode())
        h.update(getattr(value, "__qualname__", repr(value)).encode())
    else:
        h.update(b"re:")
        h.update(type(value).__qualname__.encode())
        h.update(repr(value).encode())


def fingerprint(*parts, digest_size: int = 16) -> str:
    """Stable hex digest of arbitrarily nested task-describing values.

    Two calls agree exactly when the parts are structurally equal —
    across processes, across runs, across machines with the same data.
    This is the checkpoint key: (estimator, params, data, fold) in,
    one short hex string out.
    """
    h = blake2b(digest_size=digest_size)
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


# ---------------------------------------------------------------------
# Durable small-file writes
# ---------------------------------------------------------------------

def _fsynced_temp(target: str, data: bytes) -> str:
    """Write *data* to a fresh, fsynced temp file beside *target* and
    return its path; the temp file is removed if the write fails."""
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=".tmp",
        dir=os.path.dirname(target) or ".",
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    return tmp


def atomic_write(target: str, data: bytes) -> None:
    """Replace *target* with *data* durably: fsynced temp file, then
    ``os.replace``.  A reader sees the old file or the new one, never a
    torn one, and a failed write leaves no temp file behind."""
    tmp = _fsynced_temp(target, data)
    try:
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------
# CheckpointStore
# ---------------------------------------------------------------------

def _encode(value, allow_pickle: bool):
    """JSON-encodable form of *value*; arrays keep exact bytes."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {
            "__ndarray__": base64.b64encode(arr.tobytes()).decode("ascii"),
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
    if isinstance(value, np.generic):
        return _encode(value.item(), allow_pickle)
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, float):
        # json rejects nan/inf under allow_nan=False; tag them so the
        # round-trip stays exact (error_score defaults to nan)
        if value != value:
            return {"__float__": "nan"}
        if value in (float("inf"), float("-inf")):
            return {"__float__": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CheckpointError(
                    f"checkpoint dict keys must be strings, got {key!r}"
                )
        return {k: _encode(v, allow_pickle) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v, allow_pickle) for v in value]
    if allow_pickle:
        import pickle

        return {
            "__pickle__": base64.b64encode(
                pickle.dumps(value)
            ).decode("ascii")
        }
    raise CheckpointError(
        f"cannot checkpoint a {type(value).__name__} without "
        f"allow_pickle=True"
    )


def _decode(value, allow_pickle: bool):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            raw = base64.b64decode(value["__ndarray__"])
            return np.frombuffer(
                raw, dtype=np.dtype(value["dtype"])
            ).reshape(value["shape"]).copy()
        if "__float__" in value:
            return float(value["__float__"])
        if "__pickle__" in value:
            if not allow_pickle:
                raise CheckpointError(
                    "checkpoint contains pickled data but the store was "
                    "opened with allow_pickle=False"
                )
            import pickle

            return pickle.loads(base64.b64decode(value["__pickle__"]))
        return {k: _decode(v, allow_pickle) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v, allow_pickle) for v in value]
    return value


class CheckpointStore:
    """Atomic, content-addressed store of completed task results.

    One checkpoint is one ``<key>.json`` file in *path*, written to a
    temporary sibling first and moved into place with ``os.replace`` —
    so a reader (including a resumed run after SIGKILL) only ever sees
    absent or complete checkpoints, never torn ones.

    Values are JSON documents in which numpy arrays, NaN/inf floats,
    and (with ``allow_pickle=True``) arbitrary Python objects
    round-trip exactly: a float or float64 array read back is bitwise
    equal to the one written, which is what makes "resume equals
    uninterrupted run" an achievable contract rather than a tolerance.

    The store itself is just configuration (a path), so it pickles
    cheaply into task payloads and many workers — threads or processes
    — may write concurrently.
    """

    def __init__(self, path, allow_pickle: bool = False):
        self.path = os.fspath(path)
        self.allow_pickle = bool(allow_pickle)
        os.makedirs(self.path, exist_ok=True)

    def cache_key(self):
        """Structural identity: a store is its configuration, not its
        current contents.  Keeps :func:`fingerprint` over task payloads
        that carry a store (checkpointed grid cells under a sharded
        backend) stable across runs while entries accumulate."""
        return ("CheckpointStore", self.path, self.allow_pickle)

    # ------------------------------------------------------------------
    def _file(self, key: str) -> str:
        if not key or os.sep in key or key.startswith("."):
            raise CheckpointError(f"invalid checkpoint key {key!r}")
        return os.path.join(self.path, key + ".json")

    def put(self, key: str, value) -> str:
        """Persist *value* under *key* atomically; returns the path."""
        encoded = json.dumps(
            {"key": key, "value": _encode(value, self.allow_pickle)}
        ).encode()
        target = self._file(key)
        atomic_write(target, encoded)
        metrics = instrument.metrics_registry()
        metrics.increment("checkpoint.puts")
        metrics.observe("checkpoint.put_bytes", len(encoded))
        return target

    def get(self, key: str, default=None):
        """The stored value for *key*, or *default* when absent.

        A torn or corrupt file (which atomic replace should preclude,
        but disks lie) reads as absent rather than poisoning a resume.
        """
        metrics = instrument.metrics_registry()
        try:
            with open(self._file(key), "r") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            metrics.increment("checkpoint.misses")
            return default
        except (json.JSONDecodeError, OSError):
            metrics.increment("checkpoint.misses")
            return default
        metrics.increment("checkpoint.hits")
        return _decode(document["value"], self.allow_pickle)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._file(key))

    def keys(self) -> List[str]:
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.path)
            if name.endswith(".json") and not name.startswith(".")
        )

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def discard(self, key: str) -> bool:
        """Remove one checkpoint; True when it existed."""
        try:
            os.unlink(self._file(key))
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Remove every checkpoint; returns how many were removed."""
        removed = 0
        for key in self.keys():
            removed += self.discard(key)
        return removed

    def __repr__(self):
        return (
            f"CheckpointStore({self.path!r}, {len(self)} entries, "
            f"allow_pickle={self.allow_pickle})"
        )


# ---------------------------------------------------------------------
# LeaseFile
# ---------------------------------------------------------------------

class LeaseFile:
    """A single-owner, heartbeat-renewed claim on a filesystem path.

    This is the mutual-exclusion primitive under the
    :mod:`~repro.core.shard` work protocol: each work unit (shard) has
    one lease path, and whichever worker holds the lease executes the
    unit.  The protocol is safe on any filesystem with atomic
    ``link``/``rename`` (local disks, NFSv3+):

    - **Acquire** writes the owner record to a temporary sibling and
      atomically links it into place — creation *with content* is one
      atomic step, so a reader never observes a claimed-but-empty
      lease.
    - **Renew** (the heartbeat) re-reads the lease first and refuses to
      renew when the owner token is no longer ours, then replaces the
      record with :func:`atomic_write`.
    - **Steal** takes over a lease whose heartbeat is older than *ttl*
      (the owner is presumed dead).  The stealer claims the stale
      *version* it read, not the path: it exclusively creates a token
      file named by a hash of the stale record's bytes, and only then
      replaces the lease with its own record.  Of any number of
      stealers that read the same stale record, only the first to
      create its token proceeds, so a stale lease has exactly one
      inheritor — even when a slow stealer that read the dead owner's
      record reaches its claim after another stealer has taken over.
      Tokens stay beside the lease until its directory is removed;
      deleting one would reopen the race for that version.

    Leases bound *liveness*, not correctness: the commit layer above
    (:class:`CheckpointStore`) is idempotent, so even the unavoidable
    window where a stale owner revives while its inheritor works only
    produces duplicate identical commits, never divergent results.
    """

    def __init__(self, path, owner: Optional[str] = None,
                 ttl: float = 30.0):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.path = os.fspath(path)
        self.ttl = float(ttl)
        self.owner = owner or (
            f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        )

    # ------------------------------------------------------------------
    def _record(self, acquired_at: Optional[float] = None) -> dict:
        now = time.time()
        return {
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_at": acquired_at if acquired_at is not None else now,
            "heartbeat_at": now,
        }

    def _load(self) -> Tuple[Optional[bytes], Optional[dict]]:
        """The lease file's bytes (``None`` when absent or unreadable)
        and the record they parse to (``None`` when corrupt)."""
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return None, None
        try:
            return raw, json.loads(raw)
        except ValueError:
            return raw, None

    def read(self) -> Optional[dict]:
        """The current owner record, or ``None`` when absent/corrupt.

        Corruption cannot arise from this class's own writes (they are
        atomic), so an unreadable lease is treated like a crashed
        writer's: eligible for steal.
        """
        return self._load()[1]

    def is_stale(self, record: Optional[dict] = None) -> bool:
        """Whether the lease exists but its heartbeat has expired.

        A heartbeat is trusted only within a plausibility window: a
        non-finite value (corrupt record) or one more than one TTL in
        the *future* (cross-host clock skew, a stepped clock) would
        otherwise make ``now - heartbeat > ttl`` permanently False and
        leave a dead worker's lease unstealable forever.  Both count as
        stale so the shard run can make progress.
        """
        record = record if record is not None else self.read()
        if record is None:
            return os.path.exists(self.path)
        try:
            heartbeat = float(record["heartbeat_at"])
        except (KeyError, TypeError, ValueError):
            return True
        if not math.isfinite(heartbeat):
            return True
        age = time.time() - heartbeat
        # future-dated beyond one TTL: no renewal discipline could have
        # produced it, so the record is not evidence of a live owner
        if age < -self.ttl:
            return True
        return age > self.ttl

    def held(self) -> bool:
        """Whether this instance's owner token currently holds the lease."""
        record = self.read()
        return record is not None and record.get("owner") == self.owner

    # ------------------------------------------------------------------
    def acquire(self) -> bool:
        """Claim an unclaimed lease; False when someone already holds it."""
        tmp = _fsynced_temp(self.path, json.dumps(self._record()).encode())
        try:
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        except OSError:
            # filesystems without hard links: fall back to exclusive
            # create + replace (claim flag first, content right after)
            try:
                os.close(
                    os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                )
            except FileExistsError:
                return False
            os.replace(tmp, self.path)
        finally:
            with suppress(OSError):
                os.unlink(tmp)
        instrument.metrics_registry().increment("lease.acquired")
        return True

    def renew(self) -> bool:
        """Refresh the heartbeat; False when the lease is no longer ours
        (stolen after a stale period — stop working on the unit)."""
        record = self.read()
        if record is None or record.get("owner") != self.owner:
            instrument.metrics_registry().increment("lease.lost")
            return False
        fresh = self._record(acquired_at=record.get("acquired_at"))
        try:
            atomic_write(self.path, json.dumps(fresh).encode())
        except OSError:
            return False
        instrument.metrics_registry().increment("lease.renewals")
        return True

    def steal(self) -> bool:
        """Take over a stale lease; False when it is fresh, absent, or
        another stealer already claimed the stale record we read."""
        raw, record = self._load()
        if raw is None or (record is not None and not self.is_stale(record)):
            return False
        digest = blake2b(raw, digest_size=16).hexdigest()
        token = f"{self.path}.{digest}.steal"
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        try:
            atomic_write(self.path, json.dumps(self._record()).encode())
        except BaseException:
            # nothing was replaced: hand the stale version back
            os.unlink(token)
            raise
        instrument.metrics_registry().increment("lease.steals")
        return True

    def release(self) -> bool:
        """Drop the lease if we still own it; False otherwise."""
        if not self.held():
            return False
        try:
            os.unlink(self.path)
        except OSError:
            return False
        return True

    def __repr__(self):
        return (
            f"LeaseFile({self.path!r}, owner={self.owner!r}, "
            f"ttl={self.ttl})"
        )


# ---------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------

class CircuitBreaker:
    """Closed/open/half-open failure isolation with deterministic,
    seeded probe scheduling.

    The classic serving-side pattern: while a dependency (here: a
    scorer) is healthy the breaker is **closed** and every call passes.
    After *failure_threshold* consecutive failures it **opens** — calls
    are refused instantly instead of queueing onto a dying dependency.
    Once the recovery window has elapsed the breaker goes
    **half-open**: at most *max_probes* concurrent probe calls are let
    through; *probe_successes* successful probes close it again, any
    probe failure re-opens it.

    Determinism
    -----------
    The recovery window for the *k*-th open is
    ``recovery_time * (1 + jitter * u)`` where ``u`` is a pure function
    of ``(seed, k)`` — the same derivation style as
    :meth:`RetryPolicy.delay`.  A breaker flap sequence therefore
    replays identically across runs with the same seed, which is what
    makes breaker behaviour chaos-testable rather than merely
    observable.  The clock is injectable (*clock*, default
    ``time.monotonic``) so state transitions can be unit-tested without
    sleeping.

    Thread safety: all methods take an internal lock; the breaker is
    shared between an asyncio event loop and executor threads in
    :mod:`repro.serve`.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5,
                 recovery_time: float = 1.0, probe_successes: int = 2,
                 max_probes: int = 1, jitter: float = 0.25, seed: int = 0,
                 clock: Callable[[], float] = time.monotonic,
                 name: str = "", metrics_prefix: str = "breaker"):
        failure_threshold = int(
            _require_finite("failure_threshold", failure_threshold,
                            positive=True)
        )
        probe_successes = int(
            _require_finite("probe_successes", probe_successes,
                            positive=True)
        )
        max_probes = int(
            _require_finite("max_probes", max_probes, positive=True)
        )
        recovery_time = _require_finite(
            "recovery_time", recovery_time, positive=True
        )
        jitter = _require_finite("jitter", jitter)
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter!r}")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.probe_successes = probe_successes
        self.max_probes = max_probes
        self.jitter = jitter
        self.seed = int(seed)
        self.name = name
        self.metrics_prefix = metrics_prefix
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0          # consecutive, while closed
        self._opened_at = 0.0
        self._open_count = 0        # lifetime opens (probe-jitter input)
        self._probes_in_flight = 0
        self._probe_successes = 0

    # ------------------------------------------------------------------
    def _metric(self, event: str) -> None:
        prefix = self.metrics_prefix
        if self.name:
            prefix = f"{prefix}.{self.name}"
        instrument.metrics_registry().increment(f"{prefix}.{event}")

    def recovery_window(self, open_count: Optional[int] = None) -> float:
        """The open-state dwell before probing, for the given (1-based)
        open ordinal — deterministic in ``(seed, open_count)``."""
        k = self._open_count if open_count is None else int(open_count)
        if self.jitter == 0.0:
            return self.recovery_time
        entropy = np.random.SeedSequence(
            entropy=[self.seed, k & 0xFFFFFFFF]
        )
        fraction = np.random.default_rng(entropy).random()
        return self.recovery_time * (1.0 + self.jitter * fraction)

    def _open(self, now: float) -> None:
        self._state = self.OPEN
        self._opened_at = now
        self._open_count += 1
        self._failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._metric("opened")

    def _close(self) -> None:
        self._state = self.CLOSED
        self._failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._metric("closed")

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open -> half-open when the recovery
        window has elapsed (reading the state *is* the scheduler)."""
        with self._lock:
            return self._advance()

    def _advance(self) -> str:
        if self._state == self.OPEN:
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.recovery_window():
                self._state = self.HALF_OPEN
                self._probes_in_flight = 0
                self._probe_successes = 0
                self._metric("half_open")
        return self._state

    @property
    def open_count(self) -> int:
        with self._lock:
            return self._open_count

    def allow(self) -> bool:
        """Whether one call may proceed right now.

        In half-open state a ``True`` reserves a probe slot: the caller
        **must** follow up with :meth:`record_success` or
        :meth:`record_failure`, which releases it.  Closed-state calls
        need no reservation (successes/failures are counted but not
        slotted).
        """
        with self._lock:
            state = self._advance()
            if state == self.CLOSED:
                return True
            if state == self.OPEN:
                self._metric("rejected")
                return False
            if self._probes_in_flight >= self.max_probes:
                self._metric("rejected")
                return False
            self._probes_in_flight += 1
            self._metric("probes")
            return True

    def record_success(self) -> None:
        with self._lock:
            state = self._advance()
            if state == self.CLOSED:
                self._failures = 0
                return
            if state == self.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.probe_successes:
                    self._close()

    def record_failure(self) -> None:
        with self._lock:
            state = self._advance()
            now = self._clock()
            if state == self.HALF_OPEN:
                # one failed probe is enough evidence: re-open
                self._open(now)
                return
            if state == self.OPEN:
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._open(now)

    def trip(self) -> None:
        """Force the breaker open (operational kill switch / tests)."""
        with self._lock:
            self._open(self._clock())

    def reset(self) -> None:
        """Force the breaker closed, clearing all counters."""
        with self._lock:
            self._close()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._advance(),
                "failures": self._failures,
                "open_count": self._open_count,
                "probes_in_flight": self._probes_in_flight,
                "probe_successes": self._probe_successes,
            }

    def __repr__(self):
        return (
            f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
            f"failure_threshold={self.failure_threshold}, "
            f"recovery_time={self.recovery_time})"
        )


# ---------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------

class AdmissionController:
    """Token-bucket plus queue-depth load shedding under
    :class:`Deadline` budgets.

    A request is admitted only when (a) a token is available — tokens
    refill at *rate* per second up to *burst*, so sustained overload is
    clipped to the provisioned rate while short spikes ride the burst
    allowance; (b) the reported queue depth is below *max_queue_depth*
    — a queue the scorer cannot drain within the SLO is sheddable load,
    not backlog; and (c) the request's :class:`Deadline`, when given,
    has at least *min_slack* seconds remaining — work that is already
    doomed to miss its budget is refused before it costs anything.

    :meth:`try_admit` never blocks and never raises on overload: it
    returns ``(admitted, reason)`` and the caller converts a shed into
    a typed response (:mod:`repro.serve` returns ``status="overloaded"``
    — the contract is *shed, never hang*).

    ``rate=None`` disables rate limiting (queue/deadline checks still
    apply); ``max_queue_depth=None`` disables the depth check.  The
    clock is injectable for deterministic tests.
    """

    def __init__(self, rate: Optional[float] = None,
                 burst: Optional[int] = None,
                 max_queue_depth: Optional[int] = 256,
                 min_slack: float = 0.0,
                 clock: Callable[[], float] = time.monotonic,
                 metrics_prefix: str = "admission"):
        if rate is not None:
            rate = _require_finite("rate", rate, positive=True)
        if burst is None:
            burst = max(1, int(rate)) if rate is not None else 1
        burst = int(_require_finite("burst", burst, positive=True))
        if max_queue_depth is not None:
            max_queue_depth = int(
                _require_finite("max_queue_depth", max_queue_depth,
                                positive=True)
            )
        self.rate = rate
        self.burst = burst
        self.max_queue_depth = max_queue_depth
        self.min_slack = _require_finite(
            "min_slack", min_slack, non_negative=True
        )
        self.metrics_prefix = metrics_prefix
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._refilled_at = clock()
        self.admitted_count = 0
        self.shed_count = 0

    # ------------------------------------------------------------------
    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate
            )
            self._refilled_at = now

    def tokens(self) -> float:
        """Current token balance (after refill) — for introspection."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens if self.rate is not None else math.inf

    def try_admit(self, queue_depth: int = 0,
                  deadline: Optional[Deadline] = None) -> Tuple[bool, str]:
        """Admit or shed one request; returns ``(admitted, reason)``.

        *reason* is ``""`` on admission, else one of ``"deadline"``,
        ``"queue"``, ``"rate"`` — the first check that failed, in that
        order (a doomed request is reported as doomed even when the
        queue is also full).
        """
        metrics = instrument.metrics_registry()
        with self._lock:
            now = self._clock()
            self._refill(now)
            reason = ""
            if deadline is not None and (
                deadline.expired() or deadline.remaining() < self.min_slack
            ):
                reason = "deadline"
            elif (self.max_queue_depth is not None
                    and queue_depth >= self.max_queue_depth):
                reason = "queue"
            elif self.rate is not None and self._tokens < 1.0:
                reason = "rate"
            if reason:
                self.shed_count += 1
                metrics.increment(f"{self.metrics_prefix}.shed")
                metrics.increment(
                    f"{self.metrics_prefix}.shed_{reason}"
                )
                return False, reason
            if self.rate is not None:
                self._tokens -= 1.0
            self.admitted_count += 1
        metrics.increment(f"{self.metrics_prefix}.admitted")
        return True, ""

    def snapshot(self) -> dict:
        with self._lock:
            self._refill(self._clock())
            return {
                "tokens": (
                    self._tokens if self.rate is not None else None
                ),
                "admitted": self.admitted_count,
                "shed": self.shed_count,
            }

    def __repr__(self):
        return (
            f"AdmissionController(rate={self.rate}, burst={self.burst}, "
            f"max_queue_depth={self.max_queue_depth}, "
            f"min_slack={self.min_slack})"
        )
