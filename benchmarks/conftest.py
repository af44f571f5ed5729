"""Shared infrastructure for the reproduction benchmarks.

Each bench module registers a :class:`repro.artifacts.BenchSpec` and
writes everything it emits through one module-scoped
:class:`repro.artifacts.MetricSink`.  When the module's benches finish,
the sink is flushed through :func:`repro.artifacts.write_run` into a
manifest'd per-run directory under ``benchmarks/artifacts/<bench>/`` —
the same artifact layout the ``repro`` CLI produces — plus the legacy
flat mirror under ``benchmarks/results/`` (now stamped with the run id,
so two runs are attributable and the canonical copies never clobber).
"""

import pathlib
import sys

import pytest

_REPO = pathlib.Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.artifacts import MetricSink, find_bench, write_run  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
ARTIFACTS_DIR = BENCH_DIR / "artifacts"


@pytest.fixture(scope="module")
def sink(request):
    """One MetricSink per bench module, flushed to an artifact run dir."""
    stem = pathlib.Path(request.module.__file__).stem
    name = stem[len("bench_"):] if stem.startswith("bench_") else stem
    spec = find_bench(name)
    the_sink = MetricSink(bench=name, seed=0)
    yield the_sink
    if the_sink.is_empty():
        the_sink.close()
        return
    write_run(
        the_sink, spec,
        out_root=ARTIFACTS_DIR, mirror_dir=RESULTS_DIR,
    )
