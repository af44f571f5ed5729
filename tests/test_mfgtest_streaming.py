"""StreamingTestFloor + discovery-loop streaming: determinism, resume,
and the SIGKILL-mid-stream acceptance scenario."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import CheckpointStore
from repro.mfgtest import (
    StreamingMahalanobisDetector,
    StreamingTestFloor,
    run_streaming_discovery,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

FLOOR_KWARGS = dict(n_batches=6, batch_size=120, defect_rate=0.01,
                    random_state=77)


# ---------------------------------------------------------------------
# the floor itself
# ---------------------------------------------------------------------


class TestStreamingTestFloor:
    def test_shape_and_timestamps(self):
        floor = StreamingTestFloor(n_batches=4, batch_size=50,
                                   start_time=100.0, seconds_per_batch=2.5,
                                   random_state=0)
        assert len(floor) == 4
        assert floor.total_chips == 200
        batches = list(floor)
        assert [b.index for b in batches] == [0, 1, 2, 3]
        assert [b.timestamp for b in batches] == [100.0, 102.5, 105.0, 107.5]
        assert all(b.n_chips == 50 for b in batches)

    def test_batches_tile_the_campaign(self):
        floor = StreamingTestFloor(**FLOOR_KWARGS)
        X = np.vstack([floor.batch(i).dataset.X for i in range(len(floor))])
        assert np.array_equal(X, floor.campaign.X)

    def test_random_access_is_deterministic(self):
        floor = StreamingTestFloor(**FLOOR_KWARGS)
        again = floor.batch(3)
        assert np.array_equal(floor.batch(3).dataset.X, again.dataset.X)

    def test_same_seed_same_stream(self):
        a = StreamingTestFloor(**FLOOR_KWARGS)
        b = StreamingTestFloor(**FLOOR_KWARGS)
        assert np.array_equal(a.campaign.X, b.campaign.X)
        assert np.array_equal(a.campaign.defect_mask, b.campaign.defect_mask)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_fingerprint(self):
        a = StreamingTestFloor(n_batches=3, batch_size=40, random_state=1)
        b = StreamingTestFloor(n_batches=3, batch_size=40, random_state=2)
        assert a.fingerprint() != b.fingerprint()
        assert not np.array_equal(a.campaign.X, b.campaign.X)

    def test_index_and_shape_validation(self):
        floor = StreamingTestFloor(n_batches=3, batch_size=40,
                                   random_state=0)
        with pytest.raises(IndexError):
            floor.batch(3)
        with pytest.raises(IndexError):
            floor.batch(-1)
        with pytest.raises(ValueError):
            StreamingTestFloor(n_batches=0)
        with pytest.raises(ValueError):
            StreamingTestFloor(batch_size=0)


# ---------------------------------------------------------------------
# streaming discovery over the floor
# ---------------------------------------------------------------------


class TestRunStreamingDiscovery:
    def test_consumes_whole_stream(self):
        floor = StreamingTestFloor(**FLOOR_KWARGS)
        run = run_streaming_discovery(floor)
        assert run.consumed_batches == len(floor)
        assert run.resumed_batches == 0
        assert run.n_chips == sum(
            floor.batch(i).dataset.passing().n_chips
            for i in range(len(floor))
        )
        assert isinstance(run.model, StreamingMahalanobisDetector)
        assert [r["batch"] for r in run.records] == list(range(len(floor)))

    def test_model_equals_direct_stream(self):
        """The loop is plumbing: the model it grows is bitwise the model
        you'd get streaming the shipped chips by hand."""
        floor = StreamingTestFloor(**FLOOR_KWARGS)
        run = run_streaming_discovery(floor)
        direct = StreamingMahalanobisDetector()
        for micro in floor:
            direct.partial_fit(micro.dataset.passing().X)
        assert np.array_equal(run.model.location_, direct.location_)
        assert np.array_equal(run.model.precision_, direct.precision_)

    def test_resume_in_process_is_bitwise(self, tmp_path):
        floor = StreamingTestFloor(**FLOOR_KWARGS)
        reference = run_streaming_discovery(floor)

        store = CheckpointStore(str(tmp_path / "ckpt"), allow_pickle=True)

        class StopAfter:
            """Judge that raises once enough batches have been mined."""

            def __init__(self, limit):
                self.seen = 0
                self.limit = limit

            def __call__(self, result):
                self.seen += 1
                if self.seen > self.limit:
                    raise KeyboardInterrupt
                return result["batch"] == len(floor) - 1, "feedback"

        fingerprint = "stream-resume-test"
        with pytest.raises(KeyboardInterrupt):
            run_streaming_discovery(floor, judge=StopAfter(3),
                                    checkpoint=store,
                                    run_fingerprint=fingerprint)
        assert len(store) > 0

        resumed = run_streaming_discovery(floor, checkpoint=store,
                                          run_fingerprint=fingerprint)
        assert resumed.resumed_batches == 3
        assert resumed.consumed_batches == len(floor)
        assert np.array_equal(resumed.model.location_,
                              reference.model.location_)
        assert np.array_equal(resumed.model.precision_,
                              reference.model.precision_)
        probe = floor.campaign.X
        assert np.array_equal(resumed.model.score_samples(probe),
                              reference.model.score_samples(probe))


# ---------------------------------------------------------------------
# the SIGKILL acceptance scenario
# ---------------------------------------------------------------------

_DRIVER = """\
import sys

sys.path.insert(0, {src!r})

from repro.core import CheckpointStore
from repro.mfgtest import StreamingTestFloor, run_streaming_discovery

ckpt_dir = sys.argv[1]
floor = StreamingTestFloor(n_batches=6, batch_size=120, defect_rate=0.01,
                           random_state=77)


def slow_judge(result):
    import time
    time.sleep(0.15)
    return result["batch"] == len(floor) - 1, "feedback"


run_streaming_discovery(
    floor,
    judge=slow_judge,
    checkpoint=CheckpointStore(ckpt_dir, allow_pickle=True),
    run_fingerprint="sigkill-stream",
)
print("COMPLETED")
"""


@pytest.mark.chaos
def test_sigkill_midstream_resume_is_bitwise_identical(tmp_path):
    """Acceptance: SIGKILL a checkpointed streaming run mid-stream,
    restart over the same store, and the resumed trajectory — batches,
    counts, and final model state — is bitwise identical to a run that
    was never interrupted."""
    floor = StreamingTestFloor(**FLOOR_KWARGS)
    reference = run_streaming_discovery(floor)

    ckpt_dir = str(tmp_path / "ckpt")
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER.format(src=SRC))

    proc = subprocess.Popen(
        [sys.executable, str(script), ckpt_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        # wait for at least two mined batches to land on disk, then
        # kill the driver dead — no signal handler gets to run
        deadline = time.monotonic() + 60.0
        store = CheckpointStore(ckpt_dir, allow_pickle=True)
        while len(store) < 3:  # campaign meta + 2 iterations
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

    resumed = run_streaming_discovery(
        floor,
        checkpoint=CheckpointStore(ckpt_dir, allow_pickle=True),
        run_fingerprint="sigkill-stream",
    )
    assert resumed.resumed_batches >= 2
    assert resumed.consumed_batches == len(floor)
    assert resumed.resumed_batches < len(floor)

    assert [r["batch"] for r in resumed.records] == [
        r["batch"] for r in reference.records
    ]
    for resumed_record, reference_record in zip(resumed.records,
                                                reference.records):
        for key in ("n_chips", "n_flagged", "n_returns",
                    "n_returns_flagged", "timestamp"):
            assert resumed_record[key] == reference_record[key]

    assert np.array_equal(resumed.model.location_,
                          reference.model.location_)
    assert np.array_equal(resumed.model.precision_,
                          reference.model.precision_)
    probe = floor.campaign.X
    assert np.array_equal(resumed.model.score_samples(probe),
                          reference.model.score_samples(probe))


# ---------------------------------------------------------------------
# chi-squared thresholds without scipy.stats
# ---------------------------------------------------------------------


def test_chi2_quantile_matches_scipy_stats_bitwise():
    from scipy.stats import chi2

    from repro.mfgtest.outlier import _chi2_quantile

    for dof in range(1, 200):
        for q in (0.5, 0.51, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999, 1.0):
            want = float(chi2.ppf(q, dof))
            got = _chi2_quantile(q, dof)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


_NO_STATS_SCRIPT = """\
import sys

sys.path.insert(0, {src!r})

import numpy as np

from repro.mfgtest import (
    RobustMahalanobisDetector,
    StreamingTestFloor,
    run_streaming_discovery,
)

floor = StreamingTestFloor(n_batches=4, batch_size=60, random_state=5)
run = run_streaming_discovery(floor)
assert np.isfinite(run.model.threshold_)
RobustMahalanobisDetector().fit(floor.campaign.X)
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
print("CLEAN")
"""


def test_streaming_screen_never_imports_scipy_stats(tmp_path):
    """The floor path keeps ``scipy.stats`` (20 MB and 0.3 s to import)
    out of the process: both detectors threshold through
    ``scipy.special``."""
    script = tmp_path / "screen.py"
    script.write_text(_NO_STATS_SCRIPT.format(src=SRC))
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("CLEAN")
