"""Unit tests for the distance-backend layer (repro.distance.backends).

The load-bearing property: with float64 accumulation, the pruned
LB_Kim -> LB_Keogh -> early-abandoning-DP cascade returns neighbour indices
*and distances* bit-identical to the dense reference path, across band
specs, unequal lengths, exact ties and ``k``.
"""

import numpy as np
import pytest

from repro.distance.backends import (
    BACKEND_ENV_VAR,
    DTWSearchStats,
    active_backend,
    pruned_dtw_nearest_neighbors,
    set_backend,
    use_backend,
)
from repro.distance.dtw import (
    _resolve_band,
    dtw_band_envelopes,
    dtw_distance,
    lb_keogh,
    lb_kim,
)
from repro.distance.engine import dtw_nearest_neighbors, dtw_pairwise_distances
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.memory import memory_budget


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Every test starts from the default backend with no env override."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_backend(None)
    yield
    set_backend(None)


@pytest.fixture
def random_walks():
    rng = np.random.default_rng(42)
    queries = rng.standard_normal((9, 40)).cumsum(axis=1)
    train = rng.standard_normal((13, 40)).cumsum(axis=1)
    return queries, train


@pytest.fixture
def unequal_walks():
    rng = np.random.default_rng(43)
    queries = rng.standard_normal((7, 50)).cumsum(axis=1)
    train = rng.standard_normal((11, 64)).cumsum(axis=1)
    return queries, train


class TestBackendSwitch:
    def test_default_is_reference(self):
        assert active_backend() == "reference"

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        assert active_backend() == "pruned"

    def test_env_value_is_normalised(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "  Pruned ")
        assert active_backend() == "pruned"

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert active_backend() == "reference"

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        set_backend("reference")
        assert active_backend() == "reference"
        set_backend(None)
        assert active_backend() == "pruned"

    def test_use_backend_restores_previous_state(self):
        set_backend("reference")
        with use_backend("pruned") as name:
            assert name == "pruned"
            assert active_backend() == "pruned"
        assert active_backend() == "reference"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("pruned"):
                raise RuntimeError("boom")
        assert active_backend() == "reference"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown distance backend"):
            set_backend("fast")
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown distance backend"):
            active_backend()

    def test_explicit_backend_argument_wins(self, random_walks, monkeypatch):
        queries, train = random_walks
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="reference", return_stats=True
        )
        assert stats.pruning_rate == 0.0


class TestEnvelopesAndBounds:
    def _naive_envelopes(self, train, band, n):
        m = train.shape[1]
        lower = np.empty((train.shape[0], n))
        upper = np.empty((train.shape[0], n))
        for i in range(n):
            lo = max(0, i - band)
            hi = min(m - 1, i + band)
            lower[:, i] = train[:, lo : hi + 1].min(axis=1)
            upper[:, i] = train[:, lo : hi + 1].max(axis=1)
        return lower, upper

    @pytest.mark.parametrize("band", [1, 4, 15, 200])
    def test_envelopes_match_naive_loop(self, random_walks, band):
        _, train = random_walks
        lower, upper = dtw_band_envelopes(train, band)
        nl, nu = self._naive_envelopes(train, band, train.shape[1])
        np.testing.assert_array_equal(lower, nl)
        np.testing.assert_array_equal(upper, nu)

    def test_envelopes_match_naive_loop_unequal_lengths(self, unequal_walks):
        queries, train = unequal_walks
        n = queries.shape[1]
        band = _resolve_band(n, train.shape[1], 0.3)
        lower, upper = dtw_band_envelopes(train, band, query_length=n)
        nl, nu = self._naive_envelopes(train, band, n)
        np.testing.assert_array_equal(lower, nl)
        np.testing.assert_array_equal(upper, nu)

    def test_envelope_band_must_cover_length_difference(self, unequal_walks):
        queries, train = unequal_walks
        with pytest.raises(ValueError, match="length difference"):
            dtw_band_envelopes(train, 3, query_length=queries.shape[1])

    @pytest.mark.parametrize("window", [None, 5, 0.1])
    def test_bounds_never_exceed_true_squared_dtw(self, random_walks, window):
        queries, train = random_walks
        band = _resolve_band(queries.shape[1], train.shape[1], window)
        lower, upper = dtw_band_envelopes(train, band)
        kim = lb_kim(queries, train)
        keogh = lb_keogh(queries, lower, upper)
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                true_sq = dtw_distance(queries[qi], train[ti], window=window) ** 2
                assert kim[qi, ti] <= true_sq + 1e-9
                assert keogh[qi, ti] <= true_sq + 1e-9

    def test_bounds_admissible_unequal_lengths(self, unequal_walks):
        queries, train = unequal_walks
        window = 0.3
        band = _resolve_band(queries.shape[1], train.shape[1], window)
        lower, upper = dtw_band_envelopes(train, band, query_length=queries.shape[1])
        keogh = lb_keogh(queries, lower, upper)
        kim = lb_kim(queries, train)
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                true_sq = dtw_distance(queries[qi], train[ti], window=window) ** 2
                assert max(kim[qi, ti], keogh[qi, ti]) <= true_sq + 1e-9

    def test_lb_keogh_zero_for_series_inside_envelope(self, random_walks):
        _, train = random_walks
        lower, upper = dtw_band_envelopes(train, 5)
        self_bound = lb_keogh(train, lower, upper)
        assert np.all(np.diagonal(self_bound) == 0.0)

    def test_lb_keogh_rejects_mismatched_envelopes(self, random_walks):
        queries, train = random_walks
        lower, upper = dtw_band_envelopes(train, 25, query_length=17)
        with pytest.raises(ValueError):
            lb_keogh(queries, lower, upper)


class TestBackendEquivalence:
    """Pruned vs reference: bit-identical in float64, across the spec grid."""

    @pytest.mark.parametrize("window", [None, 5, 0.1, 0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_equal_length_bitwise_identical(self, random_walks, window, k):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="pruned"
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    @pytest.mark.parametrize("window", [None, 20, 0.3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_unequal_length_bitwise_identical(self, unequal_walks, window, k):
        queries, train = unequal_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="pruned"
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    def test_exact_ties_resolve_to_lowest_index(self, random_walks):
        queries, train = random_walks
        train = train.copy()
        train[7] = train[2]  # exact duplicate at a higher index
        queries = queries.copy()
        queries[0] = train[2]  # and an exact query match
        for k in (1, 3):
            pi, pd = dtw_nearest_neighbors(
                queries, train, window=0.2, n_neighbors=k, backend="pruned"
            )
            ri, rd = dtw_nearest_neighbors(
                queries, train, window=0.2, n_neighbors=k, backend="reference"
            )
            np.testing.assert_array_equal(ri, pi)
            np.testing.assert_array_equal(rd, pd)
            assert pi[0, 0] == 2  # the duplicate's lowest training index
            assert pd[0, 0] == 0.0

    def test_matches_scalar_dtw_distance(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="pruned"
        )
        for qi in range(queries.shape[0]):
            scalar = dtw_distance(queries[qi], train[idx[qi, 0]], window=0.1)
            assert dist[qi, 0] == scalar

    def test_float32_mode_close_not_necessarily_identical(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries,
            train,
            window=0.1,
            n_neighbors=3,
            backend="pruned",
            dtype=np.float32,
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_allclose(pd, rd, rtol=1e-5)

    def test_single_1d_query_promoted(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(queries[0], train, window=5, backend="pruned")
        assert idx.shape == (1, 1) and dist.shape == (1, 1)

    def test_reference_selection_matches_dense_matrix(self, random_walks):
        queries, train = random_walks
        dense = dtw_pairwise_distances(queries, train, window=0.1)
        idx, dist = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=2, backend="reference"
        )
        order = np.argsort(dense, axis=1, kind="stable")[:, :2]
        np.testing.assert_array_equal(idx, order)
        np.testing.assert_array_equal(dist, np.take_along_axis(dense, order, axis=1))

    def test_invalid_arguments_rejected(self, random_walks):
        queries, train = random_walks
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, n_neighbors=0, backend="pruned")
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(
                queries, train, n_neighbors=train.shape[0] + 1, backend="pruned"
            )
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, backend="pruned", dtype=np.int32)
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, backend="sparse")


class TestSearchStats:
    def test_counts_partition_the_pair_set(self, random_walks):
        queries, train = random_walks
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="pruned", return_stats=True
        )
        assert isinstance(stats, DTWSearchStats)
        assert stats.n_pairs == queries.shape[0] * train.shape[0]
        assert (
            stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.dp_computed
            == stats.n_pairs
        )
        assert 0.0 <= stats.pruning_rate < 1.0
        assert stats.dp_abandoned <= stats.dp_computed
        # The query-side LB_Keogh count is a sub-bucket of the Keogh bucket,
        # not a fourth partition member.
        assert 0 <= stats.lb_keogh_query_pruned <= stats.lb_keogh_pruned

    def test_reference_stats_report_dense_search(self, random_walks):
        queries, train = random_walks
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="reference", return_stats=True
        )
        assert stats.dp_computed == stats.n_pairs
        assert stats.pruning_rate == 0.0


class TestKNNRidesTheBackend:
    def test_dtw_metric_same_predictions_under_both_backends(self, monkeypatch):
        rng = np.random.default_rng(44)
        train = rng.standard_normal((16, 30)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 8)
        test = train + 0.05 * rng.standard_normal(train.shape)
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 0.2}
        ).fit(train, labels)
        reference = model.predict(test)
        with use_backend("pruned"):
            np.testing.assert_array_equal(model.predict(test), reference)
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        np.testing.assert_array_equal(model.predict(test), reference)

    def test_dtw_metric_accepts_unequal_query_length(self):
        rng = np.random.default_rng(45)
        train = rng.standard_normal((10, 32)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 5)
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 10}
        ).fit(train, labels)
        short = rng.standard_normal((4, 26)).cumsum(axis=1)
        for backend in ("reference", "pruned"):
            with use_backend(backend):
                assert model.predict(short).shape == (4,)

    def test_dtw_metric_predict_proba_matches_predict(self):
        rng = np.random.default_rng(46)
        train = rng.standard_normal((12, 28)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 6)
        test = rng.standard_normal((5, 28)).cumsum(axis=1)
        with use_backend("pruned"):
            model = KNeighborsTimeSeriesClassifier(
                n_neighbors=3, metric="dtw", metric_params={"window": 0.2}
            ).fit(train, labels)
            predicted = model.predict(test)
            probas = model.predict_proba(test)
        for label, proba in zip(predicted, probas):
            assert max(proba.items(), key=lambda item: item[1])[0] == label

    def test_unknown_metric_param_rejected(self):
        with pytest.raises(ValueError, match="metric_params"):
            KNeighborsTimeSeriesClassifier(metric="dtw", metric_params={"widow": 3})
        with pytest.raises(ValueError, match="metric_params"):
            KNeighborsTimeSeriesClassifier(metric="euclidean", metric_params={"window": 3})


class TestDirectPrunedKernel:
    def test_return_without_stats_is_two_tuple(self, random_walks):
        queries, train = random_walks
        out = pruned_dtw_nearest_neighbors(queries, train, window=5)
        assert len(out) == 2

    def test_small_chunk_sizes_still_exact(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3, backend="reference"
        )
        pi, pd = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3, chunk_pairs=3
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    def test_tiny_lb_block_budget_still_exact(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="reference"
        )
        with memory_budget(1024):
            pi, pd = pruned_dtw_nearest_neighbors(queries, train, window=0.1)
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)
