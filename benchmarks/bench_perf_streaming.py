"""Streaming substrate bench: partial_fit throughput + exactness gates.

Two workloads, both against the contracts in ``docs/streaming.md``:

- **nb_stream**: GaussianNaiveBayes consuming a seeded row stream in
  micro-batches.  Records rows/second (the exact integer
  superaccumulator is the price of bitwise batch-equivalence — the
  ``streaming-throughput-floor`` gate keeps it from silently rotting)
  and verifies the streamed model is bitwise identical to one-shot
  ``fit`` on the concatenation (``nb-batch-stream-bitwise``).
- **floor_stream**: the full test-floor loop — StreamingTestFloor
  micro-batches folded into a StreamingMahalanobisDetector via
  ``run_streaming_discovery``, with a checkpointed run interrupted
  mid-stream and resumed.  Records shipped-chips/second through the
  detector (covariance tracking is O(d^2) per row, hence the lower
  floor) and verifies the resumed trajectory's final model is bitwise
  identical to the uninterrupted run (``stream-resume-bitwise``).

Artifacts: a ``BENCH_streaming`` table plus the ``nb_stream`` and
``floor_stream`` payloads via the shared sink.
"""

import os
import tempfile
import time

import numpy as np

from repro.artifacts import BenchSpec, module_runner, register_bench
from repro.core import CheckpointStore
from repro.learn import GaussianNaiveBayes
from repro.mfgtest import StreamingTestFloor, run_streaming_discovery

register_bench(BenchSpec(
    name="perf_streaming",
    runner=module_runner(__file__),
    title="Streaming partial_fit throughput with bitwise batch parity",
    tags=("perf", "streaming"),
    metrics={
        "nb_stream.rows_per_second":
            "GaussianNB micro-batch ingest rate (gate >= 140000)",
        "nb_stream.batch_stream_identical":
            "1.0 when the streamed model bitwise equals one-shot fit",
        "floor_stream.chips_per_second":
            "shipped chips/s through the floor loop (gate >= 60000)",
        "floor_stream.resume_identical":
            "1.0 when the resumed run's model bitwise equals uninterrupted",
    },
    json_name="BENCH_streaming",
    smoke_env={
        "REPRO_STREAM_ROWS": "2000",
        "REPRO_STREAM_BATCHES": "6",
        "REPRO_STREAM_BATCH_SIZE": "150",
    },
    source=__file__,
))


def _env_int(name, default):
    return int(os.environ.get(name, default))


def test_perf_streaming(sink):
    n_rows = _env_int("REPRO_STREAM_ROWS", 10000)
    n_batches = _env_int("REPRO_STREAM_BATCHES", 10)
    batch_size = _env_int("REPRO_STREAM_BATCH_SIZE", 250)
    micro = _env_int("REPRO_STREAM_MICRO", 250)

    # --- nb_stream: raw ingest rate + bitwise batch parity ------------
    rng = np.random.default_rng(2014)
    X = rng.normal(size=(n_rows, 6))
    y = rng.integers(0, 3, size=n_rows)
    classes = np.unique(y)

    streamed = GaussianNaiveBayes()
    start = time.perf_counter()
    for i in range(0, n_rows, micro):
        streamed.partial_fit(X[i:i + micro], y[i:i + micro],
                             classes=classes)
    nb_elapsed = time.perf_counter() - start
    rows_per_second = n_rows / nb_elapsed

    reference = GaussianNaiveBayes().fit(X, y)
    nb_identical = (
        np.array_equal(streamed.theta_, reference.theta_)
        and np.array_equal(streamed.var_, reference.var_)
        and np.array_equal(streamed.class_prior_, reference.class_prior_)
    )
    assert nb_identical, "streamed NB diverged from one-shot fit"

    sink.record("nb_stream", {
        "workload": {
            "n_rows": n_rows,
            "n_features": 6,
            "micro_batch": micro,
            "model": "GaussianNaiveBayes (exact integer moments)",
        },
        "elapsed_seconds": nb_elapsed,
        "rows_per_second": rows_per_second,
        "batch_stream_identical": float(nb_identical),
    })

    # --- floor_stream: the loop, interrupted and resumed --------------
    floor_kwargs = dict(n_batches=n_batches, batch_size=batch_size,
                        defect_rate=0.01, random_state=77)
    floor = StreamingTestFloor(**floor_kwargs)

    start = time.perf_counter()
    uninterrupted = run_streaming_discovery(floor)
    floor_elapsed = time.perf_counter() - start
    chips_per_second = uninterrupted.n_chips / floor_elapsed

    class StopAfter:
        def __init__(self, limit):
            self.seen, self.limit = 0, limit

        def __call__(self, result):
            self.seen += 1
            if self.seen > self.limit:
                raise KeyboardInterrupt
            return result["batch"] == len(floor) - 1, "feedback"

    with tempfile.TemporaryDirectory(prefix="repro-stream-bench-") as d:
        store = CheckpointStore(d, allow_pickle=True)
        try:
            run_streaming_discovery(floor, judge=StopAfter(n_batches // 2),
                                    checkpoint=store,
                                    run_fingerprint="bench-stream")
        except KeyboardInterrupt:
            pass
        resumed = run_streaming_discovery(floor, checkpoint=store,
                                          run_fingerprint="bench-stream")

    probe = floor.campaign.X
    resume_identical = (
        resumed.resumed_batches == n_batches // 2
        and np.array_equal(resumed.model.location_,
                           uninterrupted.model.location_)
        and np.array_equal(resumed.model.precision_,
                           uninterrupted.model.precision_)
        and np.array_equal(resumed.model.score_samples(probe),
                           uninterrupted.model.score_samples(probe))
    )
    assert resume_identical, "resumed stream diverged from uninterrupted"

    sink.record("floor_stream", {
        "workload": {
            "n_batches": n_batches,
            "batch_size": batch_size,
            "n_features": int(probe.shape[1]),
            "model": "StreamingMahalanobisDetector (O(d^2) cross-moments)",
        },
        "elapsed_seconds": floor_elapsed,
        "n_chips": uninterrupted.n_chips,
        "chips_per_second": chips_per_second,
        "n_flagged": uninterrupted.n_flagged,
        "n_returns_flagged": uninterrupted.n_returns_flagged,
        "n_returns": uninterrupted.n_returns,
        "resume_identical": float(resume_identical),
    })

    sink.text(
        "BENCH_streaming",
        "\n".join([
            f"nb ingest   {rows_per_second:10.0f} rows/s "
            f"({n_rows} rows x 6 features, micro-batch {micro})",
            f"floor loop  {chips_per_second:10.0f} chips/s "
            f"({n_batches} batches x {batch_size} chips, "
            f"{probe.shape[1]} tests)",
            f"screening   {uninterrupted.n_returns_flagged}"
            f"/{uninterrupted.n_returns} returns flagged, "
            f"{uninterrupted.n_flagged} chips flagged total",
            "parity      streamed == fit bitwise; resumed == "
            "uninterrupted bitwise",
        ]),
    )
