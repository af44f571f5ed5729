"""Tests for distributed sharded execution (repro.core.shard).

Three layers, matching the protocol's guarantees:

- *partitioning properties* (hypothesis): every task lands in exactly
  one shard for any (n_tasks, n_shards), and the assignment is stable
  under task-list permutation because it keys on content fingerprints;
- *lease protocol*: atomic acquisition, heartbeat renewal, staleness,
  and single-winner takeover;
- *bitwise equivalence acceptance*: raw ``map``, ``GridSearchCV``,
  ``run_conformance``, and the closure campaign produce identical
  results on serial, 1-worker-sharded, and 4-worker-sharded runs — and
  after the driver is SIGKILLed mid-run and the run resumed.
"""

import glob
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GridSearchCV,
    KFold,
    LeaseFile,
    SerialBackend,
    ShardError,
    ShardedBackend,
    fingerprint,
    get_backend,
)
from repro.core.shard import (
    CONFIG_NAME,
    ShardRun,
    create_run,
    partition_tasks,
    run_worker,
    shard_of_key,
    task_keys,
)
from repro.learn import LogisticRegression
from repro.testing import run_conformance
from repro.testing.chaos import FlakyTask, attempt_count
from repro.verification import run_campaign

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# every test must end with no shard worker left alive
pytestmark = pytest.mark.usefixtures("no_leftover_processes")


# module-level task functions so worker processes can pickle them
def square(x):
    return x * x


def tupled_draw(x, seed):
    """Returns a tuple with a seeded draw: exercises both exact
    container round-tripping and per-task seed assignment."""
    return (x, int(np.random.default_rng(seed).integers(0, 10**9)))


def array_task(x):
    return np.arange(5, dtype=np.float64) * x


def fail_on(payload):
    if payload == "bad":
        raise ValueError("injected failure")
    return payload


def slow_square(x):
    time.sleep(0.2)
    return x * x


# ---------------------------------------------------------------------
# partitioning properties
# ---------------------------------------------------------------------

class TestPartitioningProperties:
    @given(
        n_tasks=st.integers(min_value=0, max_value=80),
        n_shards=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_task_assigned_exactly_once(self, n_tasks, n_shards):
        keys = [fingerprint("shard-task", square, i, None)
                for i in range(n_tasks)]
        shards = partition_tasks(keys, n_shards)
        assigned = sorted(i for ids in shards.values() for i in ids)
        assert assigned == list(range(n_tasks))
        assert all(0 <= s < n_shards for s in shards)
        # no empty shards are materialized
        assert all(ids for ids in shards.values())

    @given(
        payloads=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1, max_size=40, unique=True,
        ),
        n_shards=st.integers(min_value=1, max_value=16),
        seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_stable_under_permutation(self, payloads, n_shards,
                                                 seed):
        keys = task_keys(square, payloads, [None] * len(payloads))
        by_payload = {
            payload: shard_of_key(key, n_shards)
            for payload, key in zip(payloads, keys)
        }
        shuffled = list(payloads)
        seed.shuffle(shuffled)
        keys2 = task_keys(square, shuffled, [None] * len(shuffled))
        for payload, key in zip(shuffled, keys2):
            assert shard_of_key(key, n_shards) == by_payload[payload]

    @given(n_shards=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_shard_of_key_in_range(self, n_shards):
        key = fingerprint("shard-task", square, 42, None)
        assert 0 <= shard_of_key(key, n_shards) < n_shards

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_of_key("ab", 0)

    def test_keys_depend_on_fn_payload_and_seed(self):
        base = task_keys(square, [1], [None])[0]
        assert task_keys(square, [2], [None])[0] != base
        assert task_keys(array_task, [1], [None])[0] != base
        assert task_keys(square, [1], [7])[0] != base
        # and are reproducible
        assert task_keys(square, [1], [None])[0] == base


# ---------------------------------------------------------------------
# the lease protocol
# ---------------------------------------------------------------------

class TestLeaseProtocol:
    def test_acquire_is_exclusive(self, tmp_path):
        path = str(tmp_path / "s.lease")
        a = LeaseFile(path, owner="a", ttl=30.0)
        b = LeaseFile(path, owner="b", ttl=30.0)
        assert a.acquire()
        assert not b.acquire()
        assert a.held() and not b.held()

    def test_renew_keeps_ownership_and_detects_loss(self, tmp_path):
        path = str(tmp_path / "s.lease")
        a = LeaseFile(path, owner="a", ttl=0.05)
        assert a.acquire()
        assert a.renew()
        time.sleep(0.1)  # heartbeat goes stale
        thief = LeaseFile(path, owner="thief", ttl=0.05)
        assert thief.steal()
        assert not a.renew()  # the original owner must notice
        assert thief.held()

    def test_steal_refuses_fresh_lease(self, tmp_path):
        path = str(tmp_path / "s.lease")
        a = LeaseFile(path, owner="a", ttl=30.0)
        assert a.acquire()
        assert not LeaseFile(path, owner="b", ttl=30.0).steal()

    def test_release_then_reacquire(self, tmp_path):
        path = str(tmp_path / "s.lease")
        a = LeaseFile(path, owner="a", ttl=30.0)
        assert a.acquire()
        assert a.release()
        assert LeaseFile(path, owner="b", ttl=30.0).acquire()

    def test_missing_lease_is_unclaimed_not_stale(self, tmp_path):
        lease = LeaseFile(str(tmp_path / "no.lease"), owner="x", ttl=1.0)
        assert lease.read() is None
        assert not lease.is_stale()  # absent = unclaimed, not stale
        assert not lease.steal()  # nothing to steal ...
        assert not lease.held()
        assert lease.acquire()  # ... acquire is the claim path


# ---------------------------------------------------------------------
# bitwise equivalence: serial vs sharded(1) vs sharded(4)
# ---------------------------------------------------------------------

def _sharded(tmp_path, n_workers, **kwargs):
    kwargs.setdefault("lease_ttl", 5.0)
    kwargs.setdefault("root", str(tmp_path / f"shard-root-{n_workers}"))
    return ShardedBackend(n_workers=n_workers, **kwargs)


class TestMapEquivalence:
    def test_plain_map_matches_serial(self, tmp_path):
        payloads = list(range(17))
        expected = SerialBackend().map(square, payloads)
        assert _sharded(tmp_path, 1).map(square, payloads) == expected
        assert _sharded(tmp_path, 4).map(square, payloads) == expected

    def test_seeded_tuples_match_serial_exactly(self, tmp_path):
        payloads = list(range(11))
        expected = SerialBackend().map(tupled_draw, payloads, seed=123)
        got = _sharded(tmp_path, 4).map(tupled_draw, payloads, seed=123)
        assert got == expected
        assert all(isinstance(item, tuple) for item in got)

    def test_ndarray_results_bitwise(self, tmp_path):
        payloads = [0.5, 1.5, -2.0, 3.25]
        expected = SerialBackend().map(array_task, payloads)
        got = _sharded(tmp_path, 2).map(array_task, payloads)
        for a, b in zip(expected, got):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_empty_map(self, tmp_path):
        assert _sharded(tmp_path, 2).map(square, []) == []

    def test_spec_resolution_and_alias(self):
        assert isinstance(get_backend("sharded"), ShardedBackend)
        assert isinstance(get_backend("shards"), ShardedBackend)

    def test_drain_completes_without_workers(self, tmp_path):
        backend = _sharded(tmp_path, 2, spawn=False)
        assert backend.map(square, list(range(9))) == \
            [i * i for i in range(9)]

    def test_failure_surfaces_worker_error(self, tmp_path):
        from repro.core import WorkerError

        backend = _sharded(tmp_path, 2, retries=1)
        with pytest.raises(WorkerError) as info:
            backend.map(fail_on, ["ok", "bad", "fine"])
        assert info.value.task_index == 1
        assert info.value.attempts == 2
        assert "injected failure" in info.value.traceback_str

    def test_merge_of_incomplete_run_raises(self, tmp_path):
        run = create_run(
            str(tmp_path / "root"), square, [1, 2, 3], n_shards=2
        )
        with pytest.raises(ShardError):
            run.merge()


class TestCampaignEquivalence:
    def test_grid_search_bitwise_identical(self, tmp_path, blobs):
        X, y = blobs
        grid = {"learning_rate": [0.02, 0.1, 0.3]}

        def fit(backend):
            return GridSearchCV(
                LogisticRegression(max_iter=30), grid,
                cv=KFold(n_splits=3), backend=backend, refit=False,
            ).fit(X, y)

        serial = fit(None)
        for n_workers in (1, 4):
            sharded = fit(_sharded(tmp_path, n_workers))
            assert sharded.best_params_ == serial.best_params_
            assert sharded.best_score_ == serial.best_score_
            for field in ("fold_test_scores", "mean_test_score",
                          "rank_test_score"):
                a = np.asarray(serial.cv_results_[field])
                b = np.asarray(sharded.cv_results_[field])
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_conformance_matrix_identical(self, tmp_path):
        from repro.testing.checks import ALL_CHECKS

        estimators = ["RidgeRegressor", "GaussianNaiveBayes"]
        checks = list(ALL_CHECKS)[:5]
        serial = run_conformance(estimators, checks)
        sharded = run_conformance(
            estimators, checks, backend=_sharded(tmp_path, 4)
        )
        assert sharded == serial

    def test_closure_campaign_identical(self, tmp_path):
        states = [3, 11]
        serial = run_campaign(
            states, breadth_budget=60, refinement_stages=(10,)
        )
        sharded = run_campaign(
            states, breadth_budget=60, refinement_stages=(10,),
            backend=_sharded(tmp_path, 2),
        )
        assert sharded == serial
        assert [r["random_state"] for r in sharded] == states


# ---------------------------------------------------------------------
# SIGKILL the driver mid-run; resume against the same root
# ---------------------------------------------------------------------

_DRIVER = """\
import sys

sys.path.insert(0, {src!r})

from repro.core import ShardedBackend
from tests.test_shard import slow_square

results = ShardedBackend(
    n_workers=2, root=sys.argv[1], lease_ttl=2.0, poll=0.02,
).map(slow_square, list(range(8)), seed=None)
print("COMPLETED", results)
"""


def test_driver_sigkill_then_resume_bitwise(tmp_path):
    """Acceptance: SIGKILL the *driver* mid-run; a rerun against the
    same root reuses the committed prefix (same run_id via fingerprint
    planning) and merges results identical to a serial run."""
    root = str(tmp_path / "root")
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER.format(src=SRC))
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, repo_root, env.get("PYTHONPATH")) if p
    )

    proc = subprocess.Popen(
        [sys.executable, str(script), root],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        # wait until at least one result is committed, then kill the
        # driver dead — its workers are orphaned mid-run
        deadline = time.monotonic() + 60.0
        while len(glob.glob(os.path.join(root, "*", "results", "*"))) < 1:
            if proc.poll() is not None or time.monotonic() > deadline:
                out, err = proc.communicate()
                pytest.fail(
                    f"driver finished before it could be killed: "
                    f"{out!r} {err!r}"
                )
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL
    pre_resume = len(glob.glob(os.path.join(root, "*", "results", "*")))
    assert pre_resume >= 1

    # resume in-process against the same root: identical run_id, so the
    # committed prefix is reused and the merge is exactly-once
    resumed = ShardedBackend(
        n_workers=2, root=root, lease_ttl=2.0, poll=0.02
    ).map(slow_square, list(range(8)), seed=None)
    assert resumed == [i * i for i in range(8)]

    run_dirs = glob.glob(os.path.join(root, "*", "run.json"))
    assert len(run_dirs) == 1  # same task list -> same run directory
    manifest = json.loads(open(run_dirs[0]).read())
    assert manifest["n_tasks"] == 8


_PIPED_DRIVER = """\
import sys

sys.path.insert(0, {src!r})

from repro.core import DeadlineExceededError, ShardedBackend
from repro.testing.chaos import SlowTask

seconds, deadline = float(sys.argv[2]), float(sys.argv[3])
try:
    results = ShardedBackend(
        n_workers=1, root=sys.argv[1], deadline=deadline or None,
    ).map(SlowTask(seconds), [1, 2])
    print("COMPLETED", results)
except DeadlineExceededError:
    print("DEADLINE")
"""


@pytest.mark.parametrize(
    "seconds, deadline, outcome",
    [("0.05", "0", "COMPLETED [1, 2]"), ("60.0", "1.0", "DEADLINE")],
    ids=["completes", "deadline"],
)
def test_map_returns_with_no_worker_alive(tmp_path, seconds, deadline,
                                          outcome):
    """``map`` never returns while a worker it spawned is alive.

    A forked worker inherits the driver's stdout, so a worker that
    outlives ``map`` holds the caller's pipe open and the caller never
    reads EOF — how a benchmark harness reading the driver sees it.  The
    60 s task outlasts the 30 s wait, so only a worker stopped after the
    grace period lets EOF arrive in time."""
    script = tmp_path / "driver.py"
    script.write_text(_PIPED_DRIVER.format(src=SRC))
    proc = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "root"), seconds,
         deadline],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        # take the driver's whole session down, workers included
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a shard worker outlived map() and held its pipe open")
    assert proc.returncode == 0, err.decode()
    assert out.decode().strip() == outcome


def test_resumes_a_run_planned_with_the_older_config_layout(tmp_path):
    """A run directory whose config.pkl predates the single resolved
    ``retry`` entry (``retry=None`` beside ``retries``, ``timeout`` and
    ``worker_backend``) still resumes: replanning returns it as is and
    its tasks get ``retries`` resubmissions."""
    root = str(tmp_path / "root")
    task = FlakyTask(fail_times=1, state_dir=str(tmp_path / "state"))
    payloads = list(range(6))
    run = create_run(root, task, payloads, n_shards=3)
    with open(os.path.join(run.run_dir, CONFIG_NAME), "wb") as fh:
        pickle.dump({
            "retry": None, "retries": 1, "timeout": None,
            "deadline_wall": None, "lease_ttl": 5.0,
            "heartbeat_interval": None, "worker_backend": None,
            "collect": False,
        }, fh)
    backend = ShardedBackend(n_workers=1, root=root, n_shards=3,
                             lease_ttl=5.0, spawn=False)
    assert backend.map(task, payloads) == payloads
    assert all(
        attempt_count(str(tmp_path / "state"),
                      fingerprint("flaky-task", p)) == 2
        for p in payloads
    )


def test_worker_stats_account_for_resume(tmp_path):
    """A second worker pass over a finished run commits nothing new —
    exactly-once is visible in the accounting."""
    root = str(tmp_path / "root")
    run = create_run(root, square, list(range(6)), n_shards=3)
    stats = run_worker(run.run_dir, worker_id="first", wait=True)
    assert stats["committed"] == 6
    assert run.all_done()
    again = create_run(root, square, list(range(6)), n_shards=3)
    assert again.run_id == run.run_id
    assert again.all_done()
    merged = again.merge()
    assert merged.results == [i * i for i in range(6)]
    assert merged.stats["committed"] == 6
    assert merged.stats["duplicate_commits"] == 0
