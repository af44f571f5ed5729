"""Chaos tests for the shard protocol (repro.core.shard).

Injected failures at the *protocol* level — a worker process SIGKILLed
mid-shard, a lease left behind by a dead owner, many stealers racing
for one stale lease — must never change merged results: takeover is
single-winner, commits are exactly-once, and the surviving fleet (or
the driver itself) completes the run bitwise-identically.
"""

import os
import signal
import time

import pytest

from repro.core import ShardedBackend
from repro.core.resilience import LeaseFile
from repro.core.shard import (
    ShardRun,
    create_run,
    run_worker,
    spawn_local_workers,
)
from repro.testing.chaos import (
    ChaosError,
    ShardKillTask,
    attempt_count,
    contend_steal,
    expire_lease,
    fingerprint,
)

pytestmark = [
    pytest.mark.chaos,
    # every test must end with no shard worker left alive
    pytest.mark.usefixtures("no_leftover_processes"),
]


# module-level so shard workers can pickle it
def slow_ident(payload):
    time.sleep(0.05)
    return payload


# ---------------------------------------------------------------------
# kill-worker-mid-shard (the ShardKillTask injector, end to end)
# ---------------------------------------------------------------------

class TestKillWorkerMidShard:
    def test_injected_kill_is_survived_and_exactly_once(self, tmp_path):
        """A worker dies (os._exit) mid-shard; a survivor steals the
        stale lease, re-runs only the uncommitted suffix, and the merge
        matches an undisturbed run exactly."""
        state_dir = str(tmp_path / "state")
        root = str(tmp_path / "root")
        payloads = list(range(10))
        task = ShardKillTask(
            kill_times=1, state_dir=state_dir, kill_on=7, seconds=0.02,
        )
        backend = ShardedBackend(
            n_workers=2, root=root, lease_ttl=1.0,
            heartbeat_interval=0.1, poll=0.02,
        )
        results = backend.map(task, payloads)
        assert results == payloads

        # the victim payload ran exactly twice: the killed attempt plus
        # the takeover's successful one
        key = fingerprint("shard-kill-task", 7)
        assert attempt_count(state_dir, key) == 2

        run_dirs = [
            entry.path for entry in os.scandir(root) if entry.is_dir()
        ]
        assert len(run_dirs) == 1
        stats = ShardRun(run_dirs[0]).worker_stats()
        assert stats["shards_done"] == len(ShardRun(run_dirs[0]).shard_ids())
        assert stats["steals"] >= 1  # the takeover actually happened
        assert stats["duplicate_commits"] == 0  # exactly-once held

    def test_kill_downgrades_to_error_in_driver(self, tmp_path):
        """Outside a shard worker the injector must not take the driver
        down — it raises ChaosError instead of exiting."""
        task = ShardKillTask(
            kill_times=1, state_dir=str(tmp_path / "state"), kill_on=0,
        )
        with pytest.raises(ChaosError):
            task(0)
        assert task(0) == 0  # attempt 2 succeeds


# ---------------------------------------------------------------------
# real SIGKILL of a worker process
# ---------------------------------------------------------------------

class TestRealWorkerSigkill:
    def test_sigkilled_worker_is_inherited(self, tmp_path):
        """SIGKILL the only worker mid-shard; its lease goes stale and
        a late-joining worker inherits and completes the run."""
        root = str(tmp_path / "root")
        payloads = list(range(12))
        run = create_run(
            root, slow_ident, payloads, n_shards=4, lease_ttl=0.5,
            heartbeat_interval=0.1,
        )
        workers = spawn_local_workers(run.run_dir, 1)
        try:
            # let it claim and commit something, then kill it dead
            deadline = time.monotonic() + 30.0
            store = run.results_store()
            while len(store) < 1:
                assert time.monotonic() < deadline, "worker never committed"
                time.sleep(0.01)
            os.kill(workers[0].pid, signal.SIGKILL)
            workers[0].join(timeout=10)
            assert workers[0].exitcode == -signal.SIGKILL
        finally:
            for process in workers:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)

        assert not run.all_done()
        stats = run_worker(
            run.run_dir, worker_id="inheritor", wait=True,
            lease_ttl=0.5, heartbeat_interval=0.1,
        )
        assert run.all_done()
        merged = run.merge()
        assert merged.results == payloads
        # the inheritor either stole the victim's shard lease or simply
        # claimed never-started shards; committed + resumed covers all
        assert stats["committed"] + stats["resumed"] >= 1
        assert merged.stats["duplicate_commits"] == 0


# ---------------------------------------------------------------------
# stale-lease takeover
# ---------------------------------------------------------------------

class TestStaleLeaseTakeover:
    def test_worker_steals_dead_owners_lease(self, tmp_path):
        """A lease held by a dead (never-heartbeating) owner is stolen
        once expired, and the shard still completes exactly-once."""
        root = str(tmp_path / "root")
        run = create_run(root, slow_ident, list(range(6)), n_shards=3)
        ghost_shard = run.shard_ids()[0]
        ghost = LeaseFile(
            run.lease_path(ghost_shard), owner="ghost", ttl=30.0
        )
        assert ghost.acquire()
        expired_owner = expire_lease(run.lease_path(ghost_shard))
        assert expired_owner == "ghost"

        stats = run_worker(
            run.run_dir, worker_id="survivor", wait=True, lease_ttl=30.0,
        )
        assert run.all_done()
        assert stats["steals"] == 1
        assert stats["claims"] == len(run.shard_ids()) - 1
        assert run.merge().results == list(range(6))
        # the ghost must notice it lost the lease
        assert not ghost.renew()

    def test_expire_lease_on_missing_path(self, tmp_path):
        assert expire_lease(str(tmp_path / "nothing.lease")) is None


# ---------------------------------------------------------------------
# duplicate-claim race
# ---------------------------------------------------------------------

class TestDuplicateClaimRace:
    def test_exactly_one_stealer_wins(self, tmp_path):
        path = str(tmp_path / "contested.lease")
        dead = LeaseFile(path, owner="dead-owner", ttl=30.0)
        assert dead.acquire()
        expire_lease(path)
        winners = contend_steal(
            path, [f"stealer-{i}" for i in range(8)], ttl=30.0
        )
        assert len(winners) == 1
        # and the winner genuinely holds it now
        holder = LeaseFile(path, owner=winners[0], ttl=30.0)
        assert holder.held()

    def test_race_repeats_deterministically_single_winner(self, tmp_path):
        """300 consecutive races of 8 stealers: never zero winners,
        never two, and the winner holds the lease afterwards."""
        for round_index in range(300):
            path = str(tmp_path / f"lease-{round_index}")
            assert LeaseFile(path, owner="dead", ttl=30.0).acquire()
            expire_lease(path)
            winners = contend_steal(
                path, [f"w{round_index}-{i}" for i in range(8)], ttl=30.0
            )
            assert len(winners) == 1
            assert LeaseFile(path, owner=winners[0], ttl=30.0).held()

    def test_late_stealer_loses_to_a_completed_steal(self, tmp_path,
                                                     monkeypatch):
        """Regression: a stealer that read the dead owner's record must
        not take over once another stealer has completed its steal —
        it would rename away the winner's fresh lease, and both steals
        would report success."""
        path = str(tmp_path / "contested.lease")
        assert LeaseFile(path, owner="dead-owner", ttl=30.0).acquire()
        expire_lease(path)
        first = LeaseFile(path, owner="first", ttl=30.0)
        late = LeaseFile(path, owner="late", ttl=30.0)
        first_won = []

        def first_steals_after_late_reads(record=None):
            # `late` has read the stale record and is judging it; the
            # whole of `first`'s steal lands before `late` claims
            first_won.append(first.steal())
            return LeaseFile.is_stale(late, record)

        monkeypatch.setattr(late, "is_stale", first_steals_after_late_reads)
        assert not late.steal()
        assert first_won == [True]
        assert first.held()
        assert not late.held()

    def test_duplicate_execution_commits_identically(self, tmp_path):
        """The unavoidable revived-owner window: two workers execute
        the same shard concurrently.  Idempotent commits mean the
        result set is still correct and duplicates are counted, not
        divergent."""
        root = str(tmp_path / "root")
        run = create_run(root, slow_ident, list(range(4)), n_shards=1)
        first = run_worker(run.run_dir, worker_id="a", wait=True)
        # force a second full pass over the same (done) run with the
        # done marker removed: every task is already committed
        os.unlink(run.done_path(run.shard_ids()[0]))
        second = run_worker(run.run_dir, worker_id="b", wait=True)
        assert first["committed"] == 4
        assert second["committed"] == 0
        assert second["resumed"] == 4
        assert run.merge().results == list(range(4))


# ---------------------------------------------------------------------
# graceful shutdown (SIGTERM/SIGINT drain)
# ---------------------------------------------------------------------

class TestGracefulShutdown:
    def test_stop_event_finishes_task_and_releases_lease(self, tmp_path):
        """A stop request mid-shard: the in-flight task commits, the
        worker returns ``stopped=True``, and its lease is released
        immediately — a successor claims (not steals) the remainder."""
        import threading

        root = str(tmp_path / "root")
        payloads = list(range(8))
        run = create_run(
            root, slow_ident, payloads, n_shards=2, lease_ttl=60.0,
        )
        stop = threading.Event()
        result = {}

        def drain():
            result["stats"] = run_worker(
                run.run_dir, worker_id="draining", wait=True,
                lease_ttl=60.0, stop_event=stop,
            )

        worker = threading.Thread(target=drain)
        worker.start()
        store = run.results_store()
        deadline = time.monotonic() + 30.0
        while len(store) < 1:
            assert time.monotonic() < deadline, "worker never committed"
            time.sleep(0.005)
        stop.set()
        worker.join(timeout=30)
        assert not worker.is_alive()

        stats = result["stats"]
        assert stats["stopped"] is True
        assert not run.all_done()
        # the lease must be *released*, not abandoned: with a 60s TTL a
        # successor could only proceed by fresh claims, never steals
        successor = run_worker(
            run.run_dir, worker_id="successor", wait=True, lease_ttl=60.0,
        )
        assert successor["steals"] == 0
        assert run.all_done()
        assert run.merge().results == payloads
        assert run.merge().stats["duplicate_commits"] == 0

    def test_sigterm_drains_spawned_worker(self, tmp_path):
        """SIGTERM a real worker process: it exits 0 (graceful return,
        not a signal death), its lease comes back released, and the run
        completes without any steals under a long TTL."""
        root = str(tmp_path / "root")
        payloads = list(range(12))
        run = create_run(
            root, slow_ident, payloads, n_shards=4, lease_ttl=60.0,
        )
        workers = spawn_local_workers(run.run_dir, 1)
        try:
            store = run.results_store()
            deadline = time.monotonic() + 30.0
            while len(store) < 1:
                assert time.monotonic() < deadline, "worker never committed"
                time.sleep(0.01)
            os.kill(workers[0].pid, signal.SIGTERM)
            workers[0].join(timeout=30)
            # graceful drain returns normally — unlike the SIGKILL test
            # above, where exitcode is -9
            assert workers[0].exitcode == 0
        finally:
            for process in workers:
                if process.is_alive():
                    process.kill()
                process.join(timeout=5)

        assert not run.all_done()
        successor = run_worker(
            run.run_dir, worker_id="successor", wait=True, lease_ttl=60.0,
        )
        assert successor["steals"] == 0
        assert run.all_done()
        assert run.merge().results == payloads
        assert run.merge().stats["duplicate_commits"] == 0

    def test_stop_before_any_claim_is_clean(self, tmp_path):
        """A worker told to stop before it claims anything exits with
        ``stopped=True`` and zero claims."""
        import threading

        root = str(tmp_path / "root")
        run = create_run(root, slow_ident, list(range(4)), n_shards=2)
        stop = threading.Event()
        stop.set()
        stats = run_worker(
            run.run_dir, worker_id="never-started", wait=True,
            stop_event=stop,
        )
        assert stats["stopped"] is True
        assert stats["claims"] == 0
        assert not run.all_done()


# ---------------------------------------------------------------------
# heartbeat plausibility window (regression: NaN / future-dated
# heartbeats made a dead owner's lease permanently unstealable)
# ---------------------------------------------------------------------

def _rewrite_heartbeat(lease_path: str, heartbeat) -> None:
    """Atomically rewrite the lease record's heartbeat_at in place."""
    import json
    import tempfile

    with open(lease_path, "r") as fh:
        record = json.load(fh)
    record["heartbeat_at"] = heartbeat
    fd, tmp = tempfile.mkstemp(
        prefix=".clock.", dir=os.path.dirname(lease_path) or "."
    )
    with os.fdopen(fd, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, lease_path)


class TestHeartbeatPlausibilityWindow:
    def _dead_owner_lease(self, tmp_path) -> LeaseFile:
        lease = LeaseFile(str(tmp_path / "unit.lease"), owner="dead",
                          ttl=5.0)
        assert lease.acquire()
        return lease

    def test_nan_heartbeat_is_stale_and_stealable(self, tmp_path):
        """A corrupt NaN heartbeat must not wedge the lease: ``now -
        NaN > ttl`` is always False, so before the plausibility window
        a dead worker's lease could never be stolen."""
        dead = self._dead_owner_lease(tmp_path)
        _rewrite_heartbeat(dead.path, float("nan"))
        stealer = LeaseFile(dead.path, owner="stealer", ttl=5.0)
        assert stealer.is_stale()
        assert stealer.steal()
        assert stealer.read()["owner"] == "stealer"

    def test_far_future_heartbeat_is_stale_and_stealable(self, tmp_path):
        """A heartbeat more than one TTL in the future (stepped clock,
        cross-host skew) is not evidence of a live owner; it must be
        stealable rather than unstealable-for-hours."""
        dead = self._dead_owner_lease(tmp_path)
        _rewrite_heartbeat(dead.path, time.time() + 3600.0)
        stealer = LeaseFile(dead.path, owner="stealer", ttl=5.0)
        assert stealer.is_stale()
        assert stealer.steal()
        assert stealer.read()["owner"] == "stealer"

    def test_slight_future_heartbeat_within_ttl_is_fresh(self, tmp_path):
        """Sub-TTL clock skew is normal fleet behavior: a slightly
        future heartbeat is a live owner and must NOT be stolen."""
        live = self._dead_owner_lease(tmp_path)
        _rewrite_heartbeat(live.path, time.time() + 0.5 * live.ttl)
        stealer = LeaseFile(live.path, owner="stealer", ttl=5.0)
        assert not stealer.is_stale()
        assert not stealer.steal()
        assert stealer.read()["owner"] == "dead"

    def test_non_numeric_heartbeat_is_stale(self, tmp_path):
        """A record whose heartbeat is not a number at all counts as
        corrupt, hence stale."""
        dead = self._dead_owner_lease(tmp_path)
        _rewrite_heartbeat(dead.path, "not-a-timestamp")
        stealer = LeaseFile(dead.path, owner="stealer", ttl=5.0)
        assert stealer.is_stale()
        assert stealer.steal()
