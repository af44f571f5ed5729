"""Chaos injectors: controlled failure for exercising the resilience
layer.

The paper's case-study campaigns fail in four canonical ways — a task
errors transiently (license blip), a worker dies outright (OOM kill), a
task wedges forever (solver livelock), or it merely crawls.  This
module packages each as an injectable *task* (a picklable callable for
``ExecutionBackend.map``), and the flaky and slow cases also as
*estimator wrappers* (drop-in for ``GridSearchCV``/``cross_validate``),
so every retry/timeout/error/checkpoint policy can be exercised
deterministically on all three backends.

Failure counting has to survive the process boundary, so injectors
count attempts with exclusive-create marker files in an explicit
``state_dir`` — the same trick lets a *resumed* run observe how many
times a cell failed before succeeding.  All injectors are deterministic
by construction: whether attempt *n* of cell *c* fails depends only on
configuration and the on-disk attempt count, never on scheduling.

The estimator wrappers forward nested parameters (``base__C``) and
produce bitwise the model their ``base`` would have produced — chaos
changes *when* work happens, never *what* it computes — which is what
makes "results with injected failures equal results without" a testable
contract.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import numpy as np

from ..core.base import Estimator, check_fitted, clone
from ..core.exceptions import ReproError
from ..core.resilience import atomic_write, fingerprint

__all__ = [
    "ChaosError",
    "FlakyTask",
    "CrashingTask",
    "HangingTask",
    "SlowTask",
    "ShardKillTask",
    "FlakyEstimator",
    "SlowEstimator",
    "SlowScorer",
    "FailingScorer",
    "CrashingScorer",
    "attempt_count",
    "contend_steal",
    "expire_lease",
]


class ChaosError(ReproError):
    """The error an injected (non-crash) failure raises."""


# ---------------------------------------------------------------------
# cross-process attempt bookkeeping
# ---------------------------------------------------------------------

def _record_attempt(state_dir: str, key: str) -> int:
    """Atomically record one attempt for *key*; returns its 1-based
    ordinal.  Exclusive file creation makes this correct across
    processes as well as threads."""
    os.makedirs(state_dir, exist_ok=True)
    n = 1
    while True:
        path = os.path.join(state_dir, f"{key}.attempt{n}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            return n
        except FileExistsError:
            n += 1


def attempt_count(state_dir: str, key: str) -> int:
    """How many attempts have been recorded for *key* so far."""
    if not os.path.isdir(state_dir):
        return 0
    prefix = f"{key}.attempt"
    return sum(
        1 for name in os.listdir(state_dir) if name.startswith(prefix)
    )


def _interruptible_sleep(seconds: float, stop_path: Optional[str],
                         poll: float) -> None:
    """Sleep in short slices, bailing out as soon as *stop_path*
    appears — so an abandoned hanging worker can be released by its
    test instead of pinning a thread until the full hang elapses."""
    end = time.monotonic() + seconds
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        if stop_path is not None and os.path.exists(stop_path):
            return
        time.sleep(min(poll, remaining))


# ---------------------------------------------------------------------
# task-level injectors (for ExecutionBackend.map)
# ---------------------------------------------------------------------

class FlakyTask:
    """A task that fails its first *fail_times* attempts per payload.

    On success it returns ``payload`` — or, when the backend supplies a
    per-task seed, ``(payload, draw)`` with a deterministic draw from
    that seed, so seed-reuse under retries is directly observable.
    """

    def __init__(self, fail_times: int = 1, state_dir: str = None):
        if state_dir is None:
            raise ValueError("FlakyTask needs an explicit state_dir")
        self.fail_times = int(fail_times)
        self.state_dir = os.fspath(state_dir)

    def __call__(self, payload, seed=None):
        key = fingerprint("flaky-task", payload)
        attempt = _record_attempt(self.state_dir, key)
        if attempt <= self.fail_times:
            raise ChaosError(
                f"injected flaky failure (attempt {attempt}/"
                f"{self.fail_times}) for payload {payload!r}"
            )
        if seed is None:
            return payload
        return (payload, int(np.random.default_rng(seed).integers(0, 10**9)))


class CrashingTask:
    """A task whose first *crash_times* attempts kill the whole worker
    process (``os._exit`` — no exception, no cleanup), modelling an OOM
    kill or segfault.

    Only meaningful on the process backend: on serial/thread it would
    take the driver down with it, so there it raises ``ChaosError``
    instead of exiting when ``safe_in_driver`` is left on.
    """

    def __init__(self, crash_times: int = 1, state_dir: str = None,
                 exit_code: int = 17, safe_in_driver: bool = True):
        if state_dir is None:
            raise ValueError("CrashingTask needs an explicit state_dir")
        self.crash_times = int(crash_times)
        self.state_dir = os.fspath(state_dir)
        self.exit_code = int(exit_code)
        self.safe_in_driver = bool(safe_in_driver)

    def _in_worker_process(self) -> bool:
        import multiprocessing

        return multiprocessing.current_process().name != "MainProcess"

    def __call__(self, payload, seed=None):
        key = fingerprint("crashing-task", payload)
        attempt = _record_attempt(self.state_dir, key)
        if attempt <= self.crash_times:
            if self.safe_in_driver and not self._in_worker_process():
                raise ChaosError(
                    f"injected crash (attempt {attempt}) for payload "
                    f"{payload!r} — downgraded to an exception outside "
                    f"a worker process"
                )
            os._exit(self.exit_code)
        return payload


class HangingTask:
    """A task that wedges for *seconds* (bounded, chunk-sleeping).

    ``hang_on`` restricts the hang to one payload value so a batch can
    mix healthy and hung tasks; ``stop_path`` lets the test release an
    abandoned worker early by creating that file.
    """

    def __init__(self, seconds: float = 5.0, hang_on=None,
                 stop_path: str = None, poll: float = 0.05):
        self.seconds = float(seconds)
        self.hang_on = hang_on
        self.stop_path = stop_path
        self.poll = float(poll)

    def __call__(self, payload, seed=None):
        if self.hang_on is None or payload == self.hang_on:
            _interruptible_sleep(self.seconds, self.stop_path, self.poll)
        return payload


class SlowTask:
    """A task that takes at least *seconds* before returning."""

    def __init__(self, seconds: float = 0.05):
        self.seconds = float(seconds)

    def __call__(self, payload, seed=None):
        time.sleep(self.seconds)
        return payload


# ---------------------------------------------------------------------
# shard-level injectors (for repro.core.shard)
# ---------------------------------------------------------------------

class ShardKillTask:
    """Kills a *shard worker* process mid-shard (``os._exit``) on the
    first *kill_times* attempts of the matching payload.

    The canonical victim for the sharded backend's takeover machinery:
    the worker dies after committing some of its shard's results, its
    lease goes stale, a surviving worker (or the driver itself) steals
    the lease and resumes the shard from the committed prefix — and the
    merged results must still be bitwise-identical to a serial run.

    ``kill_on`` restricts the kill to one payload value so the rest of
    the shard completes first; attempts are counted in ``state_dir`` so
    the takeover's re-execution of the same payload succeeds.  Outside a
    shard worker (or any child process) the kill is downgraded to a
    :class:`ChaosError` when ``safe_in_driver`` is left on, so a serial
    run, or shards the driver finishes in-process, never take the
    driver down.
    """

    def __init__(self, kill_times: int = 1, state_dir: str = None,
                 kill_on=None, seconds: float = 0.0, exit_code: int = 23,
                 safe_in_driver: bool = True):
        if state_dir is None:
            raise ValueError("ShardKillTask needs an explicit state_dir")
        self.kill_times = int(kill_times)
        self.state_dir = os.fspath(state_dir)
        self.kill_on = kill_on
        self.seconds = float(seconds)
        self.exit_code = int(exit_code)
        self.safe_in_driver = bool(safe_in_driver)

    def _in_shard_worker(self) -> bool:
        import multiprocessing

        from ..core.shard import in_shard_worker

        return (in_shard_worker()
                or multiprocessing.current_process().name != "MainProcess")

    def __call__(self, payload, seed=None):
        if self.seconds:
            time.sleep(self.seconds)
        if self.kill_on is None or payload == self.kill_on:
            key = fingerprint("shard-kill-task", payload)
            attempt = _record_attempt(self.state_dir, key)
            if attempt <= self.kill_times:
                if self.safe_in_driver and not self._in_shard_worker():
                    raise ChaosError(
                        f"injected shard kill (attempt {attempt}) for "
                        f"payload {payload!r} — downgraded to an "
                        f"exception outside a shard worker"
                    )
                os._exit(self.exit_code)
        if seed is None:
            return payload
        return (payload, int(np.random.default_rng(seed).integers(0, 10**9)))


def expire_lease(lease_path: str) -> Optional[str]:
    """Backdate a live lease so takeover logic sees it as stale.

    Rewrites the lease atomically with its heartbeat at the epoch —
    exactly what a SIGKILLed worker's lease looks like once its TTL
    elapses, without having to wait out the TTL.  Returns the (former)
    owner, or ``None`` when no lease exists.
    """
    import json

    try:
        with open(lease_path, "r") as fh:
            record = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None
    record["heartbeat_at"] = 0.0
    record["acquired_at"] = 0.0
    atomic_write(lease_path, json.dumps(record).encode())
    return record.get("owner")


def contend_steal(lease_path: str, owners, ttl: float = 0.01) -> list:
    """Race one thread per owner to steal the same stale lease.

    All contenders release from a barrier simultaneously; the lease
    protocol's version-claiming takeover guarantees *exactly one* wins.
    Returns the list of owners whose ``steal()`` succeeded — the
    duplicate-claim-race assertion is ``len(winners) == 1``.
    """
    import threading

    from ..core.resilience import LeaseFile

    owners = list(owners)
    winners: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(owners))

    def _attempt(owner):
        lease = LeaseFile(lease_path, owner=owner, ttl=ttl)
        barrier.wait()
        if lease.steal():
            with lock:
                winners.append(owner)

    threads = [
        threading.Thread(target=_attempt, args=(owner,), daemon=True)
        for owner in owners
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    return winners


# ---------------------------------------------------------------------
# estimator-level injectors (for GridSearchCV / cross_validate)
# ---------------------------------------------------------------------

class _ChaosWrapper(Estimator):
    """Delegating wrapper: fits a clone of ``base`` and forwards the
    prediction surface, so wrapped results match unwrapped ones
    exactly.  ``base`` is a nested parameter (``base__C`` works in
    grids)."""

    def _fit_base(self, X, y):
        model = clone(self.base)
        model.fit(X, y) if y is not None else model.fit(X)
        self.model_ = model
        return self

    def _model(self):
        check_fitted(self, "model_")
        return self.model_

    def predict(self, X):
        return self._model().predict(X)

    def predict_proba(self, X):
        return self._model().predict_proba(X)

    def decision_function(self, X):
        return self._model().decision_function(X)

    def transform(self, X):
        return self._model().transform(X)

    def score(self, X, y):
        return self._model().score(X, y)

    @property
    def _estimator_kind(self):
        return getattr(self.base, "_estimator_kind", "estimator")


class FlakyEstimator(_ChaosWrapper):
    """Fails ``fit`` for the first *fail_times* attempts of each
    distinct ``(params, data)`` cell, then fits ``base`` normally.

    Because attempts are counted per cell fingerprint, a grid search
    over a flaky estimator exercises the retry path on exactly
    *fail_times* x n_cells attempts and still converges to bitwise the
    same ``cv_results_`` scores as the unwrapped ``base``.
    """

    def __init__(self, base, fail_times: int = 1, state_dir: str = None):
        self.base = base
        self.fail_times = fail_times
        self.state_dir = state_dir

    def fit(self, X, y=None):
        if self.state_dir is None:
            raise ValueError("FlakyEstimator needs an explicit state_dir")
        key = fingerprint(
            "flaky-fit", self.base, np.asarray(X), np.asarray(y)
        )
        attempt = _record_attempt(self.state_dir, key)
        if attempt <= int(self.fail_times):
            raise ChaosError(
                f"injected flaky fit (attempt {attempt}/"
                f"{int(self.fail_times)})"
            )
        return self._fit_base(X, y)


class SlowEstimator(_ChaosWrapper):
    """Adds *seconds* of latency to every ``fit`` — for making
    checkpoint kill-windows and deadline expiries easy to hit."""

    def __init__(self, base, seconds: float = 0.05):
        self.base = base
        self.seconds = seconds

    def fit(self, X, y=None):
        time.sleep(float(self.seconds))
        return self._fit_base(X, y)


# ---------------------------------------------------------------------
# scorer-level injectors (for repro.serve)
# ---------------------------------------------------------------------

#: kept in sync with repro.serve.registry.SCORING_METHODS (not imported
#: so the chaos toolbox stays usable without pulling in the serve stack)
_SCORER_METHODS = (
    "decision_function", "score_samples", "predict_proba", "predict",
)


class _ScorerChaos:
    """Delegating wrapper around a *fitted* model's scoring surface.

    The wrapper is publishable in a :class:`repro.serve.ModelRegistry`
    like any model: it exposes exactly the scoring methods its ``base``
    has (via ``__getattr__``, so method autodetection resolves the same
    way), applies the injected fault, then delegates — scores that do
    come back are bitwise the base's scores.  Call counting uses the
    ``state_dir`` marker files, so fault schedules survive pickling
    into scorer worker processes and pool rebuilds.
    """

    label = "scorer-chaos"

    def __init__(self, base, state_dir: str = None):
        if state_dir is None:
            raise ValueError(
                f"{type(self).__name__} needs an explicit state_dir"
            )
        self.base = base
        self.state_dir = os.fspath(state_dir)

    def _chaos(self, call_index: int) -> None:
        raise NotImplementedError

    def __getattr__(self, name):
        if name.startswith("_") or name not in _SCORER_METHODS:
            raise AttributeError(name)
        inner = getattr(self.base, name)

        def scoring(payload, _inner=inner):
            self._chaos(_record_attempt(self.state_dir, self.label))
            return _inner(payload)

        return scoring

    def calls(self) -> int:
        """Scoring calls observed so far (across all processes)."""
        return attempt_count(self.state_dir, self.label)


class SlowScorer(_ScorerChaos):
    """Adds *seconds* of latency to each scoring call — the "slow
    model" that deadline budgets and, eventually, the circuit breaker
    must catch.  ``slow_times`` bounds the fault to the first N calls
    (``None``: every call), so breaker recovery is testable: probes
    after the slow spell succeed promptly."""

    label = "slow-scorer"

    def __init__(self, base, seconds: float = 0.5,
                 slow_times: Optional[int] = None, state_dir: str = None):
        super().__init__(base, state_dir)
        self.seconds = float(seconds)
        self.slow_times = slow_times if slow_times is None \
            else int(slow_times)

    def _chaos(self, call_index: int) -> None:
        if self.slow_times is None or call_index <= self.slow_times:
            time.sleep(self.seconds)


class FailingScorer(_ScorerChaos):
    """Raises :class:`ChaosError` on the first *fail_times* scoring
    calls, then recovers — the canonical breaker-flap injector: closed
    -> failures -> open -> (degraded traffic) -> half-open probes ->
    closed again."""

    label = "failing-scorer"

    def __init__(self, base, fail_times: int = 5, state_dir: str = None):
        super().__init__(base, state_dir)
        self.fail_times = int(fail_times)

    def _chaos(self, call_index: int) -> None:
        if call_index <= self.fail_times:
            raise ChaosError(
                f"injected scorer failure (call {call_index}/"
                f"{self.fail_times})"
            )


class CrashingScorer(_ScorerChaos):
    """Kills the scorer *process* (``os._exit``) on the first
    *crash_times* scoring calls — the crashed-scorer chaos case for the
    process-executor serve path (the pool breaks, the breaker opens,
    the pool is rebuilt on the next allowed probe).

    Outside a worker process the crash is downgraded to a
    :class:`ChaosError` when ``safe_in_driver`` is on, so accidentally
    serving it on the thread executor fails a request instead of
    killing the test run.
    """

    label = "crashing-scorer"

    def __init__(self, base, crash_times: int = 1, state_dir: str = None,
                 exit_code: int = 29, safe_in_driver: bool = True):
        super().__init__(base, state_dir)
        self.crash_times = int(crash_times)
        self.exit_code = int(exit_code)
        self.safe_in_driver = bool(safe_in_driver)

    def _chaos(self, call_index: int) -> None:
        if call_index <= self.crash_times:
            import multiprocessing

            in_worker = (
                multiprocessing.current_process().name != "MainProcess"
            )
            if self.safe_in_driver and not in_worker:
                raise ChaosError(
                    f"injected scorer crash (call {call_index}) — "
                    f"downgraded to an exception outside a worker process"
                )
            os._exit(self.exit_code)
