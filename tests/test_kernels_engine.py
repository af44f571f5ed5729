"""Correctness tests for the shared Gram-matrix engine.

Covers the cache contract (bitwise-identical hits, structural
invalidation, LRU byte budget), the parallel chunked fallback (must
match serial evaluation exactly), the blockwise assembly, the
instrumentation counters, and the process-wide default engine.
"""

import numpy as np
import pytest

from repro.kernels import (
    GramEngine,
    Kernel,
    RBFKernel,
    SpectrumKernel,
    default_engine,
    set_default_engine,
)


class CallOnlyRBF(Kernel):
    """An object-sample kernel with no vectorized collection path, so
    the engine must use its chunked pairwise fallback."""

    def __init__(self, gamma: float = 1.0):
        self.gamma = float(gamma)

    def __call__(self, x, z) -> float:
        diff = np.asarray(x, float) - np.asarray(z, float)
        return float(np.exp(-self.gamma * diff @ diff))


class CountingKernel(Kernel):
    """Counts pairwise evaluations (call-level, no fast path)."""

    n_calls = 0

    def __init__(self, tag: int = 0):
        self.tag = tag

    def __call__(self, x, z) -> float:
        type(self).n_calls += 1
        return float(np.dot(np.asarray(x, float), np.asarray(z, float)))


@pytest.fixture
def vectors(rng):
    return rng.normal(size=(40, 3))


@pytest.fixture
def programs(rng):
    vocabulary = ["LD", "ST", "ADD", "SUB", "MUL", "SYNC"]
    return [
        [vocabulary[i] for i in rng.integers(0, 6, size=25)]
        for _ in range(30)
    ]


class TestCache:
    def test_hit_returns_bitwise_identical_matrix(self, programs):
        engine = GramEngine(block_size=8)
        kernel = SpectrumKernel(k=2)
        first = engine.gram(kernel, programs)
        before = engine.counters.cache_hits
        second = engine.gram(kernel, programs)
        assert np.array_equal(first, second)
        assert engine.counters.cache_hits > before
        # all blocks of the second call were served from cache
        assert engine.counters.hit_rate == pytest.approx(0.5)

    def test_structurally_equal_kernel_instance_hits(self, vectors):
        engine = GramEngine()
        first = engine.gram(RBFKernel(0.5), vectors)
        second = engine.gram(RBFKernel(0.5), vectors)  # a different object
        assert np.array_equal(first, second)
        assert engine.counters.cache_hits == 1

    def test_hyperparameter_change_invalidates(self, vectors):
        engine = GramEngine()
        engine.gram(RBFKernel(0.5), vectors)
        engine.gram(RBFKernel(0.9), vectors)
        assert engine.counters.cache_hits == 0
        assert engine.counters.cache_misses == 2
        assert engine.cache_info()["entries"] == 2

    def test_data_change_invalidates(self, vectors):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        engine.gram(kernel, vectors)
        perturbed = vectors.copy()
        perturbed[0, 0] += 1e-9
        engine.gram(kernel, perturbed)
        assert engine.counters.cache_hits == 0

    def test_mutating_returned_matrix_does_not_poison_cache(self, vectors):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        first = engine.gram(kernel, vectors)
        original = first[0, 0]
        first[0, 0] = 123.0
        second = engine.gram(kernel, vectors)
        assert second[0, 0] == original

    def test_cross_gram_caches_too(self, vectors):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        first = engine.cross_gram(kernel, vectors[:10], vectors[10:])
        second = engine.cross_gram(kernel, vectors[:10], vectors[10:])
        assert np.array_equal(first, second)
        assert engine.counters.cache_hits == 1

    def test_cache_disabled_when_budget_zero(self, vectors):
        engine = GramEngine(cache_bytes=0)
        kernel = RBFKernel(0.5)
        engine.gram(kernel, vectors)
        engine.gram(kernel, vectors)
        assert engine.counters.cache_hits == 0
        assert engine.cache_info()["entries"] == 0

    def test_clear_cache(self, vectors):
        engine = GramEngine()
        engine.gram(RBFKernel(0.5), vectors)
        assert engine.cache_info()["entries"] == 1
        engine.clear_cache()
        assert engine.cache_info() == {
            "entries": 0,
            "bytes": 0,
            "budget_bytes": engine.cache_bytes,
        }


class TestLRUEviction:
    def test_byte_budget_is_respected(self, rng):
        X = rng.normal(size=(32, 2))
        block_bytes = 32 * 32 * 8
        engine = GramEngine(cache_bytes=3 * block_bytes)
        for gamma in (0.1, 0.2, 0.3, 0.4, 0.5):
            engine.gram(RBFKernel(gamma), X)
        info = engine.cache_info()
        assert info["bytes"] <= engine.cache_bytes
        assert info["entries"] == 3
        assert engine.counters.evictions == 2

    def test_least_recently_used_is_evicted_first(self, rng):
        X = rng.normal(size=(16, 2))
        block_bytes = 16 * 16 * 8
        engine = GramEngine(cache_bytes=2 * block_bytes)
        engine.gram(RBFKernel(0.1), X)
        engine.gram(RBFKernel(0.2), X)
        engine.gram(RBFKernel(0.1), X)  # refresh 0.1 → 0.2 is now LRU
        engine.gram(RBFKernel(0.3), X)  # evicts 0.2
        engine.reset_counters()
        engine.gram(RBFKernel(0.1), X)
        assert engine.counters.cache_hits == 1
        engine.gram(RBFKernel(0.2), X)
        assert engine.counters.cache_misses == 1

    def test_block_larger_than_budget_is_not_cached(self, rng):
        X = rng.normal(size=(32, 2))
        engine = GramEngine(cache_bytes=100)  # smaller than any block
        engine.gram(RBFKernel(0.5), X)
        assert engine.cache_info()["entries"] == 0


class TestParallelFallback:
    def test_parallel_matches_serial_exactly(self, rng):
        X = list(rng.normal(size=(37, 3)))
        kernel = CallOnlyRBF(0.6)
        serial = GramEngine(block_size=10, chunk_size=3, n_jobs=1)
        parallel = GramEngine(block_size=10, chunk_size=3, n_jobs=4)
        K_serial = serial.gram(kernel, X)
        K_parallel = parallel.gram(kernel, X)
        assert np.array_equal(K_serial, K_parallel)
        np.testing.assert_allclose(
            K_serial, RBFKernel(0.6).matrix(np.asarray(X)), atol=1e-12
        )

    def test_parallel_cross_matches_serial_exactly(self, rng):
        A = list(rng.normal(size=(23, 3)))
        B = list(rng.normal(size=(31, 3)))
        kernel = CallOnlyRBF(0.4)
        serial = GramEngine(block_size=8, chunk_size=4, n_jobs=1)
        parallel = GramEngine(block_size=8, chunk_size=4, n_jobs=3)
        assert np.array_equal(
            serial.cross_gram(kernel, A, B), parallel.cross_gram(kernel, A, B)
        )

    def test_fallback_matches_base_class_loop(self, rng):
        X = list(rng.normal(size=(19, 3)))
        kernel = CallOnlyRBF(0.8)
        engine = GramEngine(block_size=100)  # single block
        assert np.array_equal(
            engine.gram(kernel, X), Kernel.matrix(kernel, X)
        )

    def test_symmetric_fallback_evaluates_triangle_only(self, rng):
        X = list(rng.normal(size=(12, 2)))
        CountingKernel.n_calls = 0
        GramEngine(block_size=100, cache_bytes=0).gram(CountingKernel(), X)
        assert CountingKernel.n_calls == 12 * 13 // 2

    @pytest.mark.slow
    def test_parallel_stress_many_blocks(self, rng):
        X = list(rng.normal(size=(120, 3)))
        kernel = CallOnlyRBF(0.5)
        serial = GramEngine(block_size=16, chunk_size=5, n_jobs=1)
        parallel = GramEngine(block_size=16, chunk_size=5, n_jobs=-1)
        assert np.array_equal(serial.gram(kernel, X), parallel.gram(kernel, X))


class TestBlockwiseAssembly:
    @pytest.mark.parametrize("block_size", [1, 3, 7, 64])
    def test_gram_matches_whole_matrix(self, vectors, block_size):
        engine = GramEngine(block_size=block_size)
        kernel = RBFKernel(0.5)
        np.testing.assert_allclose(
            engine.gram(kernel, vectors), kernel.matrix(vectors), atol=1e-12
        )

    @pytest.mark.parametrize("block_size", [1, 4, 9, 64])
    def test_cross_gram_matches_whole_matrix(self, vectors, block_size):
        engine = GramEngine(block_size=block_size)
        kernel = RBFKernel(0.5)
        np.testing.assert_allclose(
            engine.cross_gram(kernel, vectors[:13], vectors[13:]),
            kernel.cross_matrix(vectors[:13], vectors[13:]),
            atol=1e-12,
        )

    def test_single_block_is_bitwise_equal_to_kernel_matrix(self, vectors):
        engine = GramEngine(block_size=4096)
        kernel = RBFKernel(0.5)
        assert np.array_equal(engine.gram(kernel, vectors),
                              kernel.matrix(vectors))

    def test_sequence_samples_blockwise(self, programs):
        engine = GramEngine(block_size=7)
        kernel = SpectrumKernel(k=2)
        np.testing.assert_allclose(
            engine.gram(kernel, programs), kernel.matrix(programs), atol=1e-12
        )

    def test_empty_and_single_sample(self):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        assert engine.gram(kernel, np.empty((0, 2))).shape == (0, 0)
        K = engine.gram(kernel, np.array([[1.0, 2.0]]))
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GramEngine(block_size=0)
        with pytest.raises(ValueError):
            GramEngine(cache_bytes=-1)
        with pytest.raises(ValueError):
            GramEngine(n_jobs=0)
        with pytest.raises(ValueError):
            GramEngine(chunk_size=0)


class TestCounters:
    def test_counts_and_stats_shape(self, vectors):
        engine = GramEngine(block_size=10)
        kernel = RBFKernel(0.5)
        engine.gram(kernel, vectors)
        engine.cross_gram(kernel, vectors[:5], vectors[5:])
        stats = engine.stats()
        assert stats["gram_calls"] == 1
        assert stats["cross_calls"] == 1
        assert stats["blocks_computed"] > 0
        assert stats["pair_evaluations"] > 0
        assert stats["compute_seconds"] >= 0.0
        assert stats["cached_bytes"] <= stats["cache_budget_bytes"]

    def test_pair_evaluations_not_charged_on_hits(self, vectors):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        engine.gram(kernel, vectors)
        evaluated = engine.counters.pair_evaluations
        engine.gram(kernel, vectors)
        assert engine.counters.pair_evaluations == evaluated

    def test_reset_counters_keeps_cache(self, vectors):
        engine = GramEngine()
        engine.gram(RBFKernel(0.5), vectors)
        engine.reset_counters()
        assert engine.counters.gram_calls == 0
        engine.gram(RBFKernel(0.5), vectors)
        assert engine.counters.cache_hits == 1

    def test_duck_typed_kernel_without_cache_key_is_uncached(self, vectors):
        class NoKey:
            """Call-only duck-typed kernel (no Kernel base, no cache_key)."""

            def __call__(self, x, z):
                return float(np.dot(x, z))

        engine = GramEngine(block_size=100)
        K = engine.gram(NoKey(), vectors[:6])
        np.testing.assert_allclose(
            K, vectors[:6] @ vectors[:6].T, atol=1e-12
        )
        assert engine.counters.uncached_blocks == 1
        assert engine.counters.cache_hits == 0
        assert engine.counters.cache_misses == 0
        assert engine.cache_info()["entries"] == 0


class TestDefaultEngineAndShim:
    def test_set_default_engine_routes_gram_calls(self, vectors):
        probe = GramEngine()
        previous = set_default_engine(probe)
        try:
            kernel = RBFKernel(0.5)
            K = default_engine().gram(kernel, vectors)
            np.testing.assert_allclose(K, kernel.matrix(vectors), atol=1e-12)
            assert probe.counters.gram_calls == 1
            assert default_engine() is probe
        finally:
            set_default_engine(previous)

    def test_deepcopy_shares_the_engine(self):
        import copy

        engine = GramEngine()
        assert copy.deepcopy(engine) is engine


class TestFloat32BlockMode:
    """The dtype-aware block path: downcasting, budgets, cache keying."""

    def test_float32_gram_within_budget_of_float64(self, vectors):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        K64 = engine.gram(kernel, vectors)
        K32 = engine.gram(kernel, vectors, dtype="float32")
        assert K32.dtype == np.float32
        scale = max(1.0, float(np.abs(K64).max()))
        assert np.abs(K32.astype(float) - K64).max() <= (
            engine.float32_error_budget * scale
        )

    def test_engine_level_dtype_default(self, vectors):
        engine = GramEngine(dtype="float32")
        assert engine.gram(RBFKernel(0.5), vectors).dtype == np.float32
        # per-call override wins over the engine default
        assert (
            engine.gram(RBFKernel(0.5), vectors, dtype="float64").dtype
            == np.float64
        )

    def test_downcast_counter_increments(self, vectors):
        engine = GramEngine(block_size=16)
        engine.gram(RBFKernel(0.5), vectors, dtype="float32")
        assert engine.counters.downcast_blocks > 0
        engine.reset_counters()
        engine.gram(RBFKernel(0.7), vectors)
        assert engine.counters.downcast_blocks == 0

    def test_impossible_budget_raises(self, vectors):
        engine = GramEngine(float32_error_budget=1e-16)
        with pytest.raises(ValueError, match="error budget"):
            engine.gram(RBFKernel(0.5), vectors, dtype="float32")

    def test_rejects_unsupported_dtype(self, vectors):
        with pytest.raises(ValueError):
            GramEngine(dtype="int32")
        with pytest.raises(ValueError):
            GramEngine().gram(RBFKernel(0.5), vectors, dtype="float16")
        with pytest.raises(ValueError):
            GramEngine(float32_error_budget=0.0)

    def test_cross_gram_float32(self, vectors):
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        C64 = engine.cross_gram(kernel, vectors[:10], vectors[10:])
        C32 = engine.cross_gram(kernel, vectors[:10], vectors[10:],
                                dtype="float32")
        assert C32.dtype == np.float32
        np.testing.assert_allclose(C32, C64, atol=1e-6)

    def test_cache_keyed_on_dtype_no_stale_blocks(self, vectors):
        # regression: a float64 warm cache must never serve blocks to a
        # float32 request (or vice versa) — the dtypes are distinct
        # cache entries
        engine = GramEngine()
        kernel = RBFKernel(0.5)
        engine.gram(kernel, vectors)  # warm float64
        warm_hits = engine.counters.cache_hits
        K32 = engine.gram(kernel, vectors, dtype="float32")
        assert engine.counters.cache_hits == warm_hits  # no cross-dtype hit
        assert K32.dtype == np.float32
        # both dtypes now warm: each repeat call is a pure cache hit
        again32 = engine.gram(kernel, vectors, dtype="float32")
        again64 = engine.gram(kernel, vectors)
        assert engine.counters.cache_hits > warm_hits
        assert again32.dtype == np.float32
        assert again64.dtype == np.float64
        np.testing.assert_array_equal(again32, K32)

    def test_float32_survives_pickle(self, vectors):
        import pickle

        engine = GramEngine(dtype="float32", float32_error_budget=1e-5)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.dtype == np.dtype("float32")
        assert clone.float32_error_budget == 1e-5
        assert clone.gram(RBFKernel(0.5), vectors).dtype == np.float32
