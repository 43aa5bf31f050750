"""Equivalence and behaviour tests for the incremental prefix-distance engine.

The engine's whole value proposition is that it is *numerically the same
computation* as the naive per-prefix recomputation, just with the redundant
work removed -- so these tests pin the results to the naive
:func:`repro.distance.euclidean.euclidean_distance` /
:func:`repro.distance.dtw.dtw_distance` to within 1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.random_walk import smoothed_random_walk
from repro.distance.dtw import dtw_distance
from repro.distance.engine import (
    PrefixDistanceEngine,
    PrefixDTWEngine,
    batch_prefix_distances,
    dtw_pairwise_distances,
    iter_prefix_distances,
    pairwise_prefix_distances,
    ragged_prefix_distances,
)
from repro.distance.euclidean import euclidean_distance, pairwise_euclidean
from repro.distance.znorm import znormalize
from repro.memory import memory_budget

TOLERANCE = 1e-10


def _random_walk_batch(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    return np.vstack(
        [smoothed_random_walk(length, smoothing=4, seed=rng) for _ in range(n)]
    )


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(7)
    train = _random_walk_batch(rng, 9, 60)
    queries = _random_walk_batch(rng, 5, 60)
    return queries, train


def _naive_prefix_distances(queries, train, lengths):
    out = np.empty((len(lengths), queries.shape[0], train.shape[0]))
    for k, length in enumerate(lengths):
        for i, q in enumerate(queries):
            for j, t in enumerate(train):
                out[k, i, j] = euclidean_distance(q[:length], t[:length])
    return out


class TestPrefixDistanceEngine:
    def test_matches_naive_on_random_walks(self, walks):
        queries, train = walks
        lengths = [1, 2, 7, 23, 59, 60]
        batched = pairwise_prefix_distances(queries, train, lengths)
        naive = _naive_prefix_distances(queries, train, lengths)
        assert batched.shape == naive.shape
        np.testing.assert_allclose(batched, naive, atol=TOLERANCE, rtol=0)

    def test_matches_naive_on_gunpoint_like_data(self):
        train_ds, test_ds = make_gunpoint_dataset(
            n_train_per_class=5, n_test_per_class=3, seed=11
        )
        lengths = list(range(1, train_ds.series_length + 1, 13)) + [train_ds.series_length]
        lengths = sorted(set(lengths))
        batched = pairwise_prefix_distances(test_ds.series, train_ds.series, lengths)
        naive = _naive_prefix_distances(test_ds.series, train_ds.series, lengths)
        np.testing.assert_allclose(batched, naive, atol=TOLERANCE, rtol=0)

    def test_znormalized_variant_matches_naive(self, walks):
        """Z-normalised series are the paper's canonical input; same guarantee."""
        queries, train = walks
        zq, zt = znormalize(queries), znormalize(train)
        lengths = [1, 5, 30, 60]
        batched = pairwise_prefix_distances(zq, zt, lengths)
        naive = _naive_prefix_distances(zq, zt, lengths)
        np.testing.assert_allclose(batched, naive, atol=TOLERANCE, rtol=0)

    def test_prefix_length_one_and_full_length_edges(self, walks):
        queries, train = walks
        full = train.shape[1]
        batched = pairwise_prefix_distances(queries, train, [1, full])
        np.testing.assert_allclose(
            batched[0],
            np.abs(queries[:, :1] - train[:, 0][None, :]),
            atol=TOLERANCE,
            rtol=0,
        )
        np.testing.assert_allclose(
            batched[1], pairwise_euclidean(queries, train), atol=1e-8, rtol=0
        )

    def test_every_length_incrementally(self, walks):
        """advance_to one sample at a time equals the naive slice recompute."""
        queries, train = walks
        sweep = PrefixDistanceEngine(train).open(queries)
        for length in range(1, train.shape[1] + 1):
            sweep.advance_to(length)
            got = sweep.distances()
            want = _naive_prefix_distances(queries, train, [length])[0]
            np.testing.assert_allclose(got, want, atol=TOLERANCE, rtol=0)

    def test_squared_distances_consistent(self, walks):
        queries, train = walks
        sweep = PrefixDistanceEngine(train).open(queries)
        sweep.advance_to(17)
        np.testing.assert_allclose(
            np.sqrt(sweep.squared_distances()), sweep.distances(), atol=TOLERANCE
        )

    def test_single_series_query(self, walks):
        queries, train = walks
        sweep = PrefixDistanceEngine(train).open(queries[0])
        sq = sweep.advance_to(10)
        assert sq.shape == (1, train.shape[0])

    def test_opened_sweep_starts_empty(self, walks):
        queries, train = walks
        sweep = PrefixDistanceEngine(train).open(queries)
        assert sweep.length == 0
        assert sweep.n_queries == queries.shape[0]
        assert sweep.query_length == queries.shape[1]
        assert np.array_equal(
            sweep.distances(), np.zeros((queries.shape[0], train.shape[0]))
        )

    def test_opened_sweeps_are_independent(self, walks):
        queries, train = walks
        engine = PrefixDistanceEngine(train)
        short, long = engine.open(queries), engine.open(queries[::-1])
        short.advance_to(7)
        long.advance_to(train.shape[1])
        # Advancing one sweep leaves the other's running state alone.
        np.testing.assert_allclose(
            short.distances(),
            _naive_prefix_distances(queries, train, [7])[0],
            atol=TOLERANCE,
            rtol=0,
        )
        np.testing.assert_allclose(
            long.distances(),
            _naive_prefix_distances(queries[::-1], train, [train.shape[1]])[0],
            atol=TOLERANCE,
            rtol=0,
        )
        assert short.length == 7

    def test_prefixes_only_grow(self, walks):
        queries, train = walks
        sweep = PrefixDistanceEngine(train).open(queries)
        sweep.advance_to(10)
        with pytest.raises(ValueError):
            sweep.advance_to(5)

    def test_rejects_overlong_queries(self, walks):
        queries, train = walks
        engine = PrefixDistanceEngine(train[:, :30])
        with pytest.raises(ValueError):
            engine.open(queries)

    def test_rejects_bad_train(self):
        with pytest.raises(ValueError):
            PrefixDistanceEngine(np.ones(5))
        with pytest.raises(ValueError):
            PrefixDistanceEngine(np.ones((0, 3)))


class TestIterAndBatchedHelpers:
    def test_iter_yields_requested_lengths_in_order(self, walks):
        queries, train = walks
        lengths = [3, 9, 27]
        seen = [length for length, _ in iter_prefix_distances(queries, train, lengths)]
        assert seen == lengths

    def test_iter_rejects_non_increasing_lengths(self, walks):
        queries, train = walks
        with pytest.raises(ValueError):
            list(iter_prefix_distances(queries, train, [5, 5]))
        with pytest.raises(ValueError):
            list(iter_prefix_distances(queries, train, [9, 3]))
        with pytest.raises(ValueError):
            list(iter_prefix_distances(queries, train, []))

    def test_iter_matrices_are_independent_copies(self, walks):
        queries, train = walks
        first, second = list(iter_prefix_distances(queries, train, [4, 8]))
        first[1][:] = -1.0
        assert np.all(second[1] >= 0.0)

    def test_squared_flag(self, walks):
        queries, train = walks
        plain = pairwise_prefix_distances(queries, train, [12])
        squared = pairwise_prefix_distances(queries, train, [12], squared=True)
        np.testing.assert_allclose(plain**2, squared, atol=TOLERANCE)


class TestBatchPrefixDistances:
    """The one-shot cumulative-sum kernel under the batched prediction paths."""

    def test_matches_naive_recomputation(self, walks):
        queries, train = walks
        lengths = [1, 2, 7, 33, 60]
        batched = batch_prefix_distances(queries, train, lengths)
        np.testing.assert_allclose(
            batched, _naive_prefix_distances(queries, train, lengths), atol=TOLERANCE
        )

    def test_matches_naive_on_znormalized_data(self, walks):
        queries, train = walks
        queries, train = znormalize(queries), znormalize(train)
        lengths = [2, 15, 60]
        batched = batch_prefix_distances(queries, train, lengths)
        np.testing.assert_allclose(
            batched, _naive_prefix_distances(queries, train, lengths), atol=TOLERANCE
        )

    def test_matches_incremental_engine_exactly(self, walks):
        """Same term sequence as the per-sample sweep: bit-identical sums."""
        queries, train = walks
        lengths = list(range(1, 61))
        batched = batch_prefix_distances(queries, train, lengths, squared=True)
        sweep = PrefixDistanceEngine(train).open(queries)
        for k, length in enumerate(lengths):
            assert np.array_equal(sweep.advance_to(length), batched[k])

    def test_chunking_is_invisible(self, walks):
        queries, train = walks
        lengths = [5, 40]
        whole = batch_prefix_distances(queries, train, lengths)
        # A budget this small forces one-query chunks.
        with memory_budget(train.shape[0] * 60 * 8):
            chunked = batch_prefix_distances(queries, train, lengths)
        assert np.array_equal(whole, chunked)

    def test_squared_flag(self, walks):
        queries, train = walks
        plain = batch_prefix_distances(queries, train, [12])
        squared = batch_prefix_distances(queries, train, [12], squared=True)
        np.testing.assert_allclose(plain**2, squared, atol=TOLERANCE)

    def test_single_query_promotion(self, walks):
        queries, train = walks
        batched = batch_prefix_distances(queries[0], train, [10])
        assert batched.shape == (1, 1, train.shape[0])
        np.testing.assert_allclose(
            batched[0, 0],
            [euclidean_distance(queries[0][:10], t[:10]) for t in train],
            atol=TOLERANCE,
        )

    def test_validation(self, walks):
        queries, train = walks
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [])
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [9, 3])
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [0])
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [61])
        with pytest.raises(ValueError):
            batch_prefix_distances(np.empty((2, 0)), train, [1])


class TestRaggedMatchesBatch:
    """The two entry points over the cumulative-sum core must agree exactly."""

    @pytest.mark.parametrize("channels", [1, 3])
    def test_uniform_ragged_equals_batch_bit_for_bit(self, channels):
        rng = np.random.default_rng(21)
        shape = (11, 30) if channels == 1 else (11, 30, channels)
        queries = rng.normal(size=shape)
        train = rng.normal(size=(6,) + shape[1:])
        # Two query rows per chunk at full length.
        with memory_budget(2 * train.shape[0] * 30 * channels * 8):
            for length in (1, 13, 30):
                for squared in (False, True):
                    ragged = ragged_prefix_distances(
                        queries, train, [length] * len(queries), squared=squared
                    )
                    batch = batch_prefix_distances(
                        queries, train, [length], squared=squared
                    )[0]
                    assert np.array_equal(ragged, batch)


class TestPrefixDTWEngine:
    def test_unconstrained_matches_naive_dtw(self):
        rng = np.random.default_rng(3)
        train = _random_walk_batch(rng, 4, 25)
        query = smoothed_random_walk(25, smoothing=4, seed=99)
        engine = PrefixDTWEngine(train).start()
        for t in range(1, 26):
            got = engine.append(query[t - 1])
            for j in range(train.shape[0]):
                want = dtw_distance(query[:t], train[j], window=None)
                assert got[j] == pytest.approx(want, abs=TOLERANCE)

    def test_distances_property_matches_last_append(self):
        rng = np.random.default_rng(5)
        train = _random_walk_batch(rng, 3, 15)
        query = smoothed_random_walk(15, smoothing=4, seed=1)
        engine = PrefixDTWEngine(train).start()
        last = None
        for value in query[:7]:
            last = engine.append(value)
        np.testing.assert_allclose(engine.distances(), last, atol=TOLERANCE)

    def test_requires_start_and_samples(self):
        engine = PrefixDTWEngine(np.ones((2, 5)))
        with pytest.raises(RuntimeError):
            engine.append(0.0)
        engine.start()
        with pytest.raises(RuntimeError):
            engine.distances()

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError):
            PrefixDTWEngine(np.ones((2, 5)), band=-1)


class TestRewiredCallers:
    """The hot paths rewired onto the engine must agree with the naive paths."""

    def test_knn_predict_prefixes_matches_truncated_predict(self):
        train_ds, test_ds = make_gunpoint_dataset(
            n_train_per_class=6, n_test_per_class=4, seed=2
        )
        from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

        model = KNeighborsTimeSeriesClassifier().fit(train_ds.series, train_ds.labels)
        lengths = [5, 40, 90, train_ds.series_length]
        batched = model.predict_prefixes(test_ds.series, lengths)
        for k, length in enumerate(lengths):
            naive = (
                KNeighborsTimeSeriesClassifier()
                .fit(train_ds.series[:, :length], train_ds.labels)
                .predict(test_ds.series[:, :length])
            )
            assert list(batched[k]) == list(naive)

    def test_prefix_accuracy_curve_fast_path_matches_naive(self):
        from repro.evaluation.runner import prefix_accuracy_curve

        train_ds, test_ds = make_gunpoint_dataset(
            n_train_per_class=6, n_test_per_class=4, seed=4
        )
        lengths = [10, 50, 100, train_ds.series_length]
        fast = prefix_accuracy_curve(train_ds, test_ds, lengths, renormalize=False)
        naive = {}
        from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

        for length in lengths:
            tr = train_ds.truncated(length)
            te = test_ds.truncated(length)
            model = KNeighborsTimeSeriesClassifier().fit(tr.series, tr.labels)
            naive[length] = model.score(te.series, te.labels)
        assert fast == pytest.approx(naive)


class TestDTWPairwiseDistances:
    def test_matches_scalar_dtw_per_pair(self):
        rng = np.random.default_rng(14)
        queries = rng.standard_normal((6, 35))
        train = rng.standard_normal((5, 28))
        for window in (None, 5, 0.2):
            batched = dtw_pairwise_distances(queries, train, window=window)
            assert batched.shape == (6, 5)
            for i in range(6):
                for j in range(5):
                    naive = dtw_distance(queries[i], train[j], window=window)
                    assert batched[i, j] == pytest.approx(naive, abs=TOLERANCE)

    def test_single_query_promoted_to_batch(self):
        rng = np.random.default_rng(15)
        query = rng.standard_normal(20)
        train = rng.standard_normal((4, 20))
        batched = dtw_pairwise_distances(query, train, window=3)
        assert batched.shape == (1, 4)
        for j in range(4):
            naive = dtw_distance(query, train[j], window=3)
            assert batched[0, j] == pytest.approx(naive, abs=TOLERANCE)

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(16)
        queries = rng.standard_normal((7, 24))
        train = rng.standard_normal((3, 30))
        whole = dtw_pairwise_distances(queries, train, window=0.5)
        with memory_budget(1):
            chunked = dtw_pairwise_distances(queries, train, window=0.5)
        np.testing.assert_array_equal(whole, chunked)

    def test_zero_band_equal_lengths_is_euclidean(self):
        rng = np.random.default_rng(17)
        queries = rng.standard_normal((3, 25))
        train = rng.standard_normal((4, 25))
        batched = dtw_pairwise_distances(queries, train, window=0)
        for i in range(3):
            for j in range(4):
                naive = euclidean_distance(queries[i], train[j])
                assert batched[i, j] == pytest.approx(naive, abs=TOLERANCE)

    def test_validation(self):
        train = np.zeros((2, 5))
        with pytest.raises(ValueError):
            dtw_pairwise_distances(np.zeros((2, 2, 2)), train)
        with pytest.raises(ValueError):
            dtw_pairwise_distances(np.zeros((2, 0)), train)
        with pytest.raises(ValueError):
            dtw_pairwise_distances(np.zeros((2, 5)), train, window=1.5)
