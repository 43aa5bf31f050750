"""Unit tests for the compiled kernel tier (repro.distance.kernels + routing).

numba is an *optional* dependency, so everything here must hold without it:
``force_availability(True)`` runs the very same kernel functions interpreted
(the ``@njit`` decorators degrade to passthroughs), which pins the kernel
*algorithms* -- the cascade driver, the rolling-buffer DP, the prefix
accumulation -- to the reference semantics bit-for-bit.  When numba is
genuinely installed the same tests exercise the JIT-compiled machine code.

The load-bearing properties:

* ``compiled_dtw_nearest_neighbors`` returns indices and distances
  bit-identical to the dense float64 reference across channel counts,
  unequal lengths, band specs, ties and ``k``;
* the engine entry points (``batch_prefix_distances``,
  ``ragged_prefix_distances``, ``dtw_pairwise_distances``) return
  bit-identical arrays when routed through the compiled tier;
* without numba the tier degrades to ``"pruned"`` with exactly one
  ``RuntimeWarning`` per process and an introspectable
  :func:`backend_resolution`;
* the query-side LB_Keogh is admissible and its counter is a sub-bucket of
  the Keogh partition bucket;
* :class:`EnvelopeCache` reuses train-side envelopes across searches and
  self-invalidates on refit;
* the :mod:`repro.memory` thread knob resolves override > env > cpu count.
"""

import warnings

import numpy as np
import pytest

from repro import memory
from repro.distance import backends
from repro.distance import kernels
from repro.distance.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    BackendResolution,
    backend_resolution,
    compiled_dtw_nearest_neighbors,
    pruned_dtw_nearest_neighbors,
    set_backend,
    use_backend,
)
from repro.distance.dtw import EnvelopeCache, dtw_band_envelopes, dtw_distance, lb_keogh
from repro.distance.engine import (
    PrefixDTWEngine,
    _stable_k_smallest,
    batch_prefix_distances,
    dtw_nearest_neighbors,
    dtw_pairwise_distances,
    ragged_prefix_distances,
)
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """Default backend, no env override, no availability override, warning re-armed."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    monkeypatch.delenv(memory.THREAD_COUNT_ENV_VAR, raising=False)
    set_backend(None)
    memory.set_thread_count(None)
    kernels.force_availability(None)
    monkeypatch.setattr(backends, "_FALLBACK_WARNED", False)
    yield
    set_backend(None)
    memory.set_thread_count(None)
    kernels.force_availability(None)


@pytest.fixture
def interpreted_kernels():
    """Force the kernel tier on; without numba the kernels run interpreted."""
    kernels.force_availability(True)
    yield
    kernels.force_availability(None)


@pytest.fixture
def random_walks():
    rng = np.random.default_rng(7)
    queries = rng.standard_normal((8, 40)).cumsum(axis=1)
    train = rng.standard_normal((12, 40)).cumsum(axis=1)
    return queries, train


@pytest.fixture
def unequal_walks():
    rng = np.random.default_rng(8)
    queries = rng.standard_normal((6, 37)).cumsum(axis=1)
    train = rng.standard_normal((10, 52)).cumsum(axis=1)
    return queries, train


@pytest.fixture
def multichannel_walks():
    rng = np.random.default_rng(9)
    queries = rng.standard_normal((5, 30, 3)).cumsum(axis=1)
    train = rng.standard_normal((9, 30, 3)).cumsum(axis=1)
    return queries, train


def _dense_topk(queries, train, window, k):
    distances = dtw_pairwise_distances(queries, train, window=window, backend="reference")
    return _stable_k_smallest(distances, k)


class TestBackendRegistration:
    def test_compiled_is_a_registered_backend(self):
        assert BACKENDS == ("reference", "pruned", "compiled")

    def test_set_backend_accepts_compiled(self):
        set_backend("compiled")
        assert backends.active_backend() == "compiled"

    def test_env_selects_compiled(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "compiled")
        assert backends.active_backend() == "compiled"

    def test_resolution_of_non_compiled_backends_is_identity(self):
        for name in ("reference", "pruned"):
            res = backend_resolution(name)
            assert isinstance(res, BackendResolution)
            assert res.requested == name
            assert res.resolved == name
            assert res.reason is None

    def test_resolution_reads_active_backend_by_default(self):
        set_backend("pruned")
        assert backend_resolution().requested == "pruned"

    def test_forced_available_resolves_to_compiled(self, interpreted_kernels):
        res = backend_resolution("compiled")
        assert res.resolved == "compiled"
        assert res.compiled_available is True
        assert res.reason is None

    def test_forced_unavailable_resolves_to_pruned(self):
        kernels.force_availability(False)
        res = backend_resolution("compiled")
        assert res.requested == "compiled"
        assert res.resolved == "pruned"
        assert res.compiled_available is False
        assert res.reason

    def test_resolution_never_warns(self):
        kernels.force_availability(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend_resolution("compiled")

    def test_force_availability_rejects_non_bool(self):
        with pytest.raises(TypeError):
            kernels.force_availability(1)

    def test_availability_reflects_numba_without_override(self):
        assert kernels.available() is kernels.NUMBA_AVAILABLE


class TestCompiledEquivalence:
    """Kernel-tier searches are bit-identical to the dense float64 reference."""

    @pytest.mark.parametrize("window", [None, 5, 0.1, 0])
    def test_equal_length_single_channel(self, interpreted_kernels, random_walks, window):
        queries, train = random_walks
        idx_ref, dist_ref = _dense_topk(queries, train, window, 1)
        idx, dist, stats = compiled_dtw_nearest_neighbors(
            queries, train, window=window, return_stats=True
        )
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)
        assert stats.backend == "compiled"

    def test_unequal_lengths(self, interpreted_kernels, unequal_walks):
        queries, train = unequal_walks
        idx_ref, dist_ref = _dense_topk(queries, train, 0.15, 1)
        idx, dist = compiled_dtw_nearest_neighbors(queries, train, window=0.15)
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)

    def test_multichannel(self, interpreted_kernels, multichannel_walks):
        queries, train = multichannel_walks
        idx_ref, dist_ref = _dense_topk(queries, train, 0.1, 1)
        idx, dist = compiled_dtw_nearest_neighbors(queries, train, window=0.1)
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)

    @pytest.mark.parametrize("k", [1, 3])
    def test_k_neighbors(self, interpreted_kernels, random_walks, k):
        queries, train = random_walks
        idx_ref, dist_ref = _dense_topk(queries, train, 0.1, k)
        idx, dist = compiled_dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=k
        )
        assert idx.shape == (queries.shape[0], k)
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)

    def test_exact_ties_break_lexicographically(self, interpreted_kernels):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(24).cumsum()
        train = np.stack([base, base + 3.0, base, base - 2.0])
        queries = np.stack([base, base + 3.0])
        idx, dist = compiled_dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3
        )
        # query 0 ties exactly with train rows 0 and 2 at distance zero.
        np.testing.assert_array_equal(idx[0, :2], [0, 2])
        assert dist[0, 0] == 0.0 and dist[0, 1] == 0.0

    def test_float32_close_to_reference(self, interpreted_kernels, random_walks):
        queries, train = random_walks
        idx, dist = compiled_dtw_nearest_neighbors(
            queries, train, window=0.1, dtype=np.float32
        )
        idx_ref, dist_ref = _dense_topk(queries, train, 0.1, 1)
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_allclose(dist, dist_ref, rtol=1e-5)

    def test_tiny_inputs(self, interpreted_kernels):
        queries = np.array([[0.0, 1.0, 2.0]])
        train = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        idx, dist = compiled_dtw_nearest_neighbors(queries, train, window=1)
        assert idx[0, 0] == 1
        assert dist[0, 0] == 0.0

    def test_matches_pruned_tier_exactly(self, interpreted_kernels, random_walks):
        queries, train = random_walks
        idx_p, dist_p, stats_p = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, return_stats=True
        )
        idx_c, dist_c, stats_c = compiled_dtw_nearest_neighbors(
            queries, train, window=0.1, return_stats=True
        )
        np.testing.assert_array_equal(idx_c, idx_p)
        np.testing.assert_array_equal(dist_c, dist_p)
        # The per-pair scalar kernel abandons more eagerly than the chunked
        # numpy batch, so abandon counts may differ; the partition must hold
        # in both tiers regardless.
        for stats in (stats_p, stats_c):
            assert (
                stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.dp_computed
                == stats.n_pairs
            )

    def test_dtw_nearest_neighbors_routes_compiled(
        self, interpreted_kernels, random_walks
    ):
        queries, train = random_walks
        idx_ref, dist_ref = _dense_topk(queries, train, 0.1, 1)
        with use_backend("compiled"):
            idx, dist, stats = dtw_nearest_neighbors(
                queries, train, window=0.1, return_stats=True
            )
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)
        assert stats.backend == "compiled"


class TestCompiledEngineRoutes:
    """The engine's vectorised entry points ride the kernel tier bit-exactly."""

    def test_batch_prefix_distances(self, interpreted_kernels, random_walks):
        queries, train = random_walks
        lengths = [5, 17, 40]
        expected = batch_prefix_distances(queries, train, lengths)
        with use_backend("compiled"):
            out = batch_prefix_distances(queries, train, lengths)
        np.testing.assert_array_equal(out, expected)

    def test_batch_prefix_distances_multichannel_squared(
        self, interpreted_kernels, multichannel_walks
    ):
        queries, train = multichannel_walks
        lengths = [3, 30]
        expected = batch_prefix_distances(queries, train, lengths, squared=True)
        with use_backend("compiled"):
            out = batch_prefix_distances(queries, train, lengths, squared=True)
        np.testing.assert_array_equal(out, expected)

    def test_ragged_prefix_distances(self, interpreted_kernels, random_walks):
        queries, train = random_walks
        lengths = [3, 40, 17, 9, 1, 25, 40, 12]
        expected = ragged_prefix_distances(queries, train, lengths)
        with use_backend("compiled"):
            out = ragged_prefix_distances(queries, train, lengths)
        np.testing.assert_array_equal(out, expected)

    def test_dtw_pairwise_distances(self, interpreted_kernels, unequal_walks):
        queries, train = unequal_walks
        expected = dtw_pairwise_distances(queries, train, window=0.1)
        with use_backend("compiled"):
            out = dtw_pairwise_distances(queries, train, window=0.1)
        np.testing.assert_array_equal(out, expected)

    def test_explicit_reference_request_stays_dense(
        self, interpreted_kernels, random_walks
    ):
        queries, train = random_walks
        with use_backend("compiled"):
            _, _, stats = dtw_nearest_neighbors(
                queries, train, window=0.1, backend="reference", return_stats=True
            )
        assert stats.backend == "reference"
        assert stats.dp_computed == stats.n_pairs


class TestFallbackWithoutNumba:
    def test_falls_back_to_pruned_with_one_warning(self, random_walks):
        kernels.force_availability(False)
        queries, train = random_walks
        idx_ref, dist_ref = _dense_topk(queries, train, 0.1, 1)
        with pytest.warns(RuntimeWarning, match="pruned"):
            idx, dist, stats = compiled_dtw_nearest_neighbors(
                queries, train, window=0.1, return_stats=True
            )
        assert stats.backend == "pruned"
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(dist, dist_ref)
        # Warned once per process: a second call must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiled_dtw_nearest_neighbors(queries, train, window=0.1)

    def test_engine_routes_fall_back_silently_after_first_warning(self, random_walks):
        kernels.force_availability(False)
        queries, train = random_walks
        expected = dtw_pairwise_distances(queries, train, window=0.1)
        with use_backend("compiled"):
            with pytest.warns(RuntimeWarning):
                out = dtw_pairwise_distances(queries, train, window=0.1)
            np.testing.assert_array_equal(out, expected)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch_prefix_distances(queries, train, [10, 20])

    def test_resolution_reports_fallback(self):
        kernels.force_availability(False)
        with use_backend("compiled"):
            res = backend_resolution()
        assert res.requested == "compiled"
        assert res.resolved == "pruned"
        assert res.reason


class TestQuerySideKeogh:
    def test_query_side_bound_is_admissible(self, unequal_walks):
        queries, train = unequal_walks
        m = train.shape[1]
        band = max(abs(queries.shape[1] - m), int(0.2 * m))
        lower_q, upper_q = dtw_band_envelopes(queries, band, query_length=m)
        # Mirror bound: train rows against *query* envelopes.
        bounds = lb_keogh(train, lower_q, upper_q)  # (n_train, n_queries)
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                exact = dtw_distance(queries[qi], train[ti], window=band)
                assert bounds[ti, qi] <= exact**2 + 1e-9

    def test_query_counter_is_subset_of_keogh_bucket(self, random_walks):
        queries, train = random_walks
        _, _, stats = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, return_stats=True
        )
        assert 0 <= stats.lb_keogh_query_pruned <= stats.lb_keogh_pruned
        assert (
            stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.dp_computed
            == stats.n_pairs
        )


class TestEnvelopeCache:
    def test_hits_and_misses(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        for _ in range(3):
            pruned_dtw_nearest_neighbors(
                queries, train, window=0.1, envelope_cache=cache
            )
        assert cache.misses == 1
        assert cache.hits == 2
        assert len(cache) == 1

    def test_cached_search_is_bit_identical(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        first = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, envelope_cache=cache
        )
        second = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, envelope_cache=cache
        )
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_content_fingerprint_invalidates_on_new_data(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        pruned_dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        pruned_dtw_nearest_neighbors(
            queries, train + 1.0, window=0.1, envelope_cache=cache
        )
        assert cache.misses == 2
        assert cache.hits == 0

    def test_band_is_part_of_the_key(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        pruned_dtw_nearest_neighbors(queries, train, window=4, envelope_cache=cache)
        pruned_dtw_nearest_neighbors(queries, train, window=8, envelope_cache=cache)
        assert cache.misses == 2

    def test_lru_eviction(self):
        rng = np.random.default_rng(13)
        cache = EnvelopeCache(maxsize=2)
        arrays = [rng.standard_normal((4, 20)) for _ in range(3)]
        for arr in arrays:
            cache.envelopes(arr, band=3)
        assert len(cache) == 2
        # Oldest entry evicted: asking for it again is a miss.
        cache.envelopes(arrays[0], band=3)
        assert cache.misses == 4

    def test_clear_resets_counters(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        cache.envelopes(train, band=3)
        cache.envelopes(train, band=3)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_classifier_refit_gets_a_fresh_cache(self, random_walks):
        queries, train = random_walks
        labels = np.arange(train.shape[0]) % 2
        clf = KNeighborsTimeSeriesClassifier(metric="dtw", metric_params={"window": 0.1})
        clf.fit(train, labels)
        with use_backend("pruned"):
            clf.predict(queries)
            first_cache = clf._envelope_cache
            assert first_cache is not None and first_cache.misses == 1
            clf.predict(queries)
            assert first_cache.hits >= 1
            clf.fit(train, labels)
            assert clf._envelope_cache is not first_cache

    def test_prefix_dtw_engine_exposes_a_lazy_cache(self, random_walks):
        _, train = random_walks
        engine = PrefixDTWEngine(train, band=3)
        cache = engine.envelope_cache
        assert isinstance(cache, EnvelopeCache)
        assert engine.envelope_cache is cache


class TestThreadKnob:
    def test_default_is_cpu_count(self):
        assert memory.get_thread_count() >= 1

    def test_override_wins(self):
        memory.set_thread_count(3)
        assert memory.get_thread_count() == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(memory.THREAD_COUNT_ENV_VAR, "2")
        assert memory.get_thread_count() == 2

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(memory.THREAD_COUNT_ENV_VAR, "2")
        memory.set_thread_count(5)
        assert memory.get_thread_count() == 5

    def test_none_clears_override(self, monkeypatch):
        memory.set_thread_count(5)
        memory.set_thread_count(None)
        monkeypatch.setenv(memory.THREAD_COUNT_ENV_VAR, "2")
        assert memory.get_thread_count() == 2

    @pytest.mark.parametrize("bad", [0, -1, "two"])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            memory.set_thread_count(bad)

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv(memory.THREAD_COUNT_ENV_VAR, "fast")
        with pytest.raises(ValueError):
            memory.get_thread_count()

    def test_resolve_reads_process_state(self):
        # The zero-argument name the benchmark harness imports: no override.
        memory.set_thread_count(4)
        assert memory.resolve_thread_count() == 4
        with pytest.raises(TypeError):
            memory.resolve_thread_count(2)  # type: ignore[call-arg]


class TestKernelWarmup:
    def test_warmup_runs_interpreted(self, interpreted_kernels):
        from repro.distance.kernels import cascade

        cascade.warmup()
        cascade.warmup(dtype=np.float32)
