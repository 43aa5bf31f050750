"""Tests for the unified memory budget (:mod:`repro.memory`).

Covers the resolution precedence (process-wide > environment > default)
and -- the load-bearing property -- that chunking against *any* budget
leaves every budgeted kernel's output bit-identical to the unchunked
computation.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import memory
from repro.distance.backends import (
    compiled_dtw_nearest_neighbors,
    pruned_dtw_nearest_neighbors,
)
from repro.distance.engine import (
    batch_prefix_distances,
    dtw_nearest_neighbors,
    dtw_pairwise_distances,
    ragged_prefix_distances,
)
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.memory import (
    DEFAULT_MAX_BLOCK_BYTES,
    MEMORY_BUDGET_ENV_VAR,
    get_memory_budget,
    memory_budget,
    set_memory_budget,
)


@pytest.fixture(autouse=True)
def _clean_budget(monkeypatch):
    """Every test starts from the unconfigured state."""
    monkeypatch.delenv(MEMORY_BUDGET_ENV_VAR, raising=False)
    set_memory_budget(None)
    yield
    set_memory_budget(None)


class TestPrecedence:
    def test_default_is_the_historical_64_mib(self):
        assert DEFAULT_MAX_BLOCK_BYTES == 64 * 2**20
        assert get_memory_budget() == DEFAULT_MAX_BLOCK_BYTES

    def test_environment_variable_overrides_the_default(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "12345")
        assert get_memory_budget() == 12345

    def test_set_memory_budget_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "12345")
        set_memory_budget(999)
        assert get_memory_budget() == 999

    def test_clearing_restores_environment_resolution(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "4096")
        set_memory_budget(1)
        set_memory_budget(None)
        assert get_memory_budget() == 4096

    def test_environment_is_read_at_call_time(self, monkeypatch):
        assert get_memory_budget() == DEFAULT_MAX_BLOCK_BYTES
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "2048")
        assert get_memory_budget() == 2048

    def test_context_manager_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "12345")
        with memory_budget(777):
            assert get_memory_budget() == 777
        assert get_memory_budget() == 12345

    def test_resolve_block_bytes_reads_the_process_budget(self, monkeypatch):
        # The zero-argument name the benchmark harness imports: it resolves
        # exactly like get_memory_budget and accepts no override.
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "4096")
        assert memory.resolve_block_bytes() == 4096
        with memory_budget(99):
            assert memory.resolve_block_bytes() == 99
        with pytest.raises(TypeError):
            memory.resolve_block_bytes(7)  # type: ignore[call-arg]


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -(2**30)])
    def test_non_positive_budget_raises(self, bad):
        with pytest.raises(ValueError, match="positive"):
            set_memory_budget(bad)

    def test_non_integer_budget_raises(self):
        with pytest.raises(ValueError):
            set_memory_budget("lots")  # type: ignore[arg-type]

    def test_malformed_environment_value_raises_not_ignored(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "64MB")
        with pytest.raises(ValueError, match=MEMORY_BUDGET_ENV_VAR):
            get_memory_budget()

    def test_non_positive_context_budget_raises_and_keeps_previous(self):
        set_memory_budget(50)
        with pytest.raises(ValueError, match="positive"):
            with memory_budget(0):
                pass  # pragma: no cover - never entered
        assert get_memory_budget() == 50


class TestNoPerCallBudget:
    """The process-wide budget is the only way a kernel learns its budget."""

    queries = np.random.default_rng(0).normal(size=(4, 16))
    train = np.random.default_rng(1).normal(size=(3, 16))

    @pytest.mark.parametrize(
        "call",
        [
            lambda q, t, **kw: batch_prefix_distances(q, t, [16], **kw),
            lambda q, t, **kw: ragged_prefix_distances(q, t, [16] * len(q), **kw),
            lambda q, t, **kw: dtw_pairwise_distances(q, t, **kw),
            lambda q, t, **kw: dtw_nearest_neighbors(q, t, **kw),
            lambda q, t, **kw: pruned_dtw_nearest_neighbors(q, t, **kw),
            lambda q, t, **kw: compiled_dtw_nearest_neighbors(q, t, **kw),
        ],
        ids=[
            "batch_prefix_distances",
            "ragged_prefix_distances",
            "dtw_pairwise_distances",
            "dtw_nearest_neighbors",
            "pruned_dtw_nearest_neighbors",
            "compiled_dtw_nearest_neighbors",
        ],
    )
    def test_kernel_rejects_a_byte_argument(self, call):
        with pytest.raises(TypeError, match="max_block_bytes"):
            call(self.queries, self.train, max_block_bytes=64)

    def test_classifier_takes_no_byte_argument(self):
        with pytest.raises(TypeError, match="max_prefix_sweep_bytes"):
            KNeighborsTimeSeriesClassifier(max_prefix_sweep_bytes=1024)  # type: ignore[call-arg]
        assert not hasattr(KNeighborsTimeSeriesClassifier(), "max_prefix_sweep_bytes")

    def test_default_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference = batch_prefix_distances(self.queries, self.train, [16])
            with memory_budget(64):
                chunked = batch_prefix_distances(self.queries, self.train, [16])
        np.testing.assert_array_equal(chunked, reference)


class TestContextManager:
    def test_budget_applies_inside_and_restores_after(self):
        with memory_budget(2**20) as active:
            assert active == 2**20
            assert get_memory_budget() == 2**20
        assert get_memory_budget() == DEFAULT_MAX_BLOCK_BYTES

    def test_nested_budgets_restore_outer(self):
        with memory_budget(100):
            with memory_budget(200):
                assert get_memory_budget() == 200
            assert get_memory_budget() == 100

    def test_restores_even_on_exception(self):
        set_memory_budget(50)
        with pytest.raises(RuntimeError):
            with memory_budget(60):
                raise RuntimeError("boom")
        assert get_memory_budget() == 50


class TestChunkingEquivalence:
    """A tight budget forces many chunks; output must stay bit-identical."""

    rng = np.random.default_rng(42)
    queries = rng.normal(size=(13, 40))
    train = rng.normal(size=(7, 40))

    def test_batch_prefix_distances(self):
        reference = batch_prefix_distances(self.queries, self.train, [10, 25, 40])
        with memory_budget(1024):  # a few rows per chunk
            chunked = batch_prefix_distances(self.queries, self.train, [10, 25, 40])
        np.testing.assert_array_equal(chunked, reference)

    def test_ragged_prefix_distances(self):
        lengths = [5 + (i % 30) for i in range(13)]
        reference = ragged_prefix_distances(self.queries, self.train, lengths)
        with memory_budget(1024):
            chunked = ragged_prefix_distances(self.queries, self.train, lengths)
        np.testing.assert_array_equal(chunked, reference)

    def test_dtw_pairwise_distances(self):
        reference = dtw_pairwise_distances(self.queries, self.train, window=5)
        with memory_budget(1024):
            chunked = dtw_pairwise_distances(self.queries, self.train, window=5)
        np.testing.assert_array_equal(chunked, reference)

    def test_pruned_backend_lb_stage(self):
        ref_idx, ref_dist = pruned_dtw_nearest_neighbors(
            self.queries, self.train, window=5
        )
        with memory_budget(1024):
            idx, dist = pruned_dtw_nearest_neighbors(self.queries, self.train, window=5)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)

    def test_environment_variable_reaches_the_kernels(self, monkeypatch):
        reference = batch_prefix_distances(self.queries, self.train, [40])
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "512")
        chunked = batch_prefix_distances(self.queries, self.train, [40])
        np.testing.assert_array_equal(chunked, reference)

    def test_chunked_finiteness_validation_matches(self):
        from repro.data.ucr_format import UCRDataset

        series = self.rng.normal(size=(9, 64))
        with memory_budget(256):  # forces multi-chunk validation
            dataset = UCRDataset(name="x", series=series, labels=np.zeros(9))
        np.testing.assert_array_equal(dataset.series, series)
        bad = series.copy()
        bad[7, 60] = np.nan
        with memory_budget(256), pytest.raises(ValueError, match="non-finite"):
            UCRDataset(name="x", series=bad, labels=np.zeros(9))

    def test_module_state_is_inspectable(self):
        # Regression guard: the module-level budget must live in repro.memory
        # (not be shadowed per-import elsewhere).
        set_memory_budget(4321)
        assert memory._BUDGET == 4321
