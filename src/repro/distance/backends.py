"""Pluggable distance backends: the ``REPRO_BACKEND`` switch and pruned DTW 1-NN.

The paper's yardstick for every ETSC method is 1-NN with Euclidean/DTW, and
its related-work discussion leans on the UCR-suite line of work
[Rakthanmanon et al., KDD 2013] for how such searches run at scale: cheap
lower bounds answer most candidates before the quadratic dynamic program
ever runs.  This module makes that a *backend choice* rather than a code
change:

* ``"reference"`` -- the dense float64 NumPy path (the default and the
  semantic oracle): every (query, train) pair through the shared
  anti-diagonal wavefront of :func:`repro.distance.engine.dtw_pairwise_distances`.
* ``"pruned"`` -- the UCR-suite-style cascade implemented here:

  1. **LB_Kim** (:func:`repro.distance.dtw.lb_kim`): constant-time endpoint
     bound, one vectorised pass over all pairs.
  2. **LB_Keogh, train-side** (:func:`repro.distance.dtw.lb_keogh`):
     envelope bound against band envelopes precomputed once per training
     set (:func:`repro.distance.dtw.dtw_band_envelopes`, reusable across
     calls through a :class:`repro.distance.dtw.EnvelopeCache`), evaluated
     only for the pairs LB_Kim could not answer.
  3. **LB_Keogh, query-side**: the mirrored bound -- envelopes around each
     *query*, held against the raw training samples -- computed only for
     the survivors of the train-side prune; the cascade then prunes on the
     maximum of all bounds.
  4. **Early-abandoning DP**: survivors run the *same* banded wavefront
     recurrence, ordered by their best lower bound and chunked, with the
     running k-th-best distance abandoning a pair as soon as two
     consecutive anti-diagonals prove its cost can no longer matter.

* ``"compiled"`` -- the same cascade *driver*, with every stage's numbers
  produced by the numba-JIT kernels of :mod:`repro.distance.kernels`
  (scalar per-pair early abandoning, ``prange`` threading over pairs,
  chunks sized by the :mod:`repro.memory` budget).  numba is strictly
  optional (the ``[compiled]`` extra): when the JIT tier cannot engage, the
  request transparently falls back to ``"pruned"`` with a single
  :class:`RuntimeWarning`, and :func:`backend_resolution` reports which
  tier actually ran (as does ``DTWSearchStats.backend``).

The backend is selected by the ``REPRO_BACKEND`` environment variable (or
programmatically via :func:`set_backend` / :func:`use_backend`); every entry
point also takes an explicit ``backend=`` argument that wins over both.

**Equivalence contract.**  In the default float64 mode the pruned backend
returns neighbour indices and distances *bit-identical* to the reference:
survivors are evaluated by the identical wavefront recurrence (identical
per-cell rounding), ties resolve by the same lowest-training-index rule, and
pruning thresholds carry a relative slack (:data:`PRUNE_SLACK`) far above
any possible summation-rounding disagreement between a lower bound and the
dynamic program, so a candidate that could tie the k-th neighbour is always
computed, never pruned.  ``tests/test_distance_backends.py`` pins this
across band specs, unequal lengths and ``k``; the optional float32
accumulation mode (``dtype=np.float32``) trades bit-equality for speed and
is held to ``<= 1e-5``.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.distance.dtw import _resolve_band, dtw_band_envelopes, lb_keogh, lb_kim
from repro.memory import get_memory_budget

__all__ = [
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "BackendResolution",
    "DTWSearchStats",
    "active_backend",
    "backend_resolution",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "pruned_dtw_nearest_neighbors",
    "compiled_dtw_nearest_neighbors",
]

#: Environment variable naming the active distance backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Recognised backend names.
BACKENDS = ("reference", "pruned", "compiled")

#: Relative slack applied to pruning/abandoning thresholds in float64 mode.
#: A lower bound and the dynamic program sum the same non-negative terms in
#: different orders, so they can disagree by a few hundred ulps (~1e-13
#: relative) on mathematically tied values; the slack keeps every candidate
#: that could tie the k-th neighbour alive, preserving bit-identical results.
PRUNE_SLACK = 1e-12

#: Relative slack in float32 accumulation mode (matching its ~1e-6 relative
#: rounding, with margin).
PRUNE_SLACK_F32 = 1e-4

#: Survivor pairs evaluated per early-abandoning wavefront call.  Small
#: enough that the running k-th-best threshold refreshes between chunks
#: (later chunks are usually pruned outright), large enough to amortise the
#: per-diagonal Python step across pairs -- the rolling-diagonal kernel
#: holds only O(pairs * n) state, so the chunk can be generous.
_DP_CHUNK_PAIRS = 512


_BACKEND_OVERRIDE: str | None = None


def _validated_backend(name: object) -> str:
    label = str(name).strip().lower()
    if label not in BACKENDS:
        raise ValueError(
            f"unknown distance backend {name!r}; choose from {BACKENDS} "
            f"(set via the {BACKEND_ENV_VAR} environment variable, "
            "set_backend(), or an explicit backend= argument)"
        )
    return label


def active_backend() -> str:
    """The currently selected backend name.

    Resolution order: a programmatic :func:`set_backend` override, then the
    ``REPRO_BACKEND`` environment variable, then ``"reference"``.
    """
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    raw = os.environ.get(BACKEND_ENV_VAR)
    if raw is None or not raw.strip():
        return "reference"
    return _validated_backend(raw)


def set_backend(name: str | None) -> None:
    """Select the backend for the whole process (``None`` restores env control)."""
    global _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = None if name is None else _validated_backend(name)


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Context manager selecting a backend within a ``with`` block."""
    global _BACKEND_OVERRIDE
    previous = _BACKEND_OVERRIDE
    set_backend(name)
    try:
        yield active_backend()
    finally:
        _BACKEND_OVERRIDE = previous


def resolve_backend(backend: str | None = None) -> str:
    """An explicit ``backend=`` argument if given, else :func:`active_backend`."""
    if backend is None:
        return active_backend()
    return _validated_backend(backend)


@dataclass(frozen=True)
class BackendResolution:
    """What a backend request resolves to *right now* (the introspection hook).

    ``requested`` is the name selection lands on (explicit argument >
    :func:`set_backend` > ``REPRO_BACKEND`` > ``"reference"``); ``resolved``
    is the tier that will actually run.  They differ in exactly one case:
    ``"compiled"`` requested while the JIT tier cannot engage, in which case
    ``resolved == "pruned"`` and ``reason`` says why (numba missing/broken,
    or :func:`repro.distance.kernels.force_availability` forcing it off).
    """

    requested: str
    resolved: str
    compiled_available: bool
    reason: str | None = None


def backend_resolution(backend: str | None = None) -> BackendResolution:
    """Resolve a backend request to the tier that will actually run.

    Never warns and never mutates state -- tests and stats reporting use it
    to learn (and record) whether ``"compiled"`` really means the JIT tier
    or the transparent ``"pruned"`` fallback.
    """
    from repro.distance import kernels

    requested = resolve_backend(backend)
    compiled_ok = kernels.available()
    if requested != "compiled" or compiled_ok:
        return BackendResolution(requested, requested, compiled_ok)
    return BackendResolution(requested, "pruned", False, kernels.unavailable_reason())


#: One-shot flag: the compiled->pruned fallback warns once per process, not
#: once per call (a search over a big sweep would otherwise drown the log).
_FALLBACK_WARNED = False


def _warn_compiled_fallback(reason: str | None) -> None:
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        f"the 'compiled' distance backend is unavailable "
        f"({reason or 'numba is not installed'}); falling back to the "
        f"'pruned' numpy cascade. Install the [compiled] extra "
        f"(pip install repro[compiled]) for the JIT tier. "
        f"This warning is emitted once per process.",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class DTWSearchStats:
    """Where the candidate pairs of one pruned 1-NN/k-NN search were answered.

    ``lb_kim_pruned + lb_keogh_pruned + dp_computed == n_pairs`` always
    holds: every pair is either killed by a lower bound or enters the
    dynamic program.  Two counters refine that partition without joining
    it: ``dp_abandoned`` is the subset of ``dp_computed`` stopped early by
    the running-best threshold, and ``lb_keogh_query_pruned`` the subset of
    ``lb_keogh_pruned`` killed by the query-side envelope bound (pairs the
    train-side bound had not already answered).  ``backend`` names the tier
    that actually ran (``"pruned"`` when a ``"compiled"`` request fell
    back), so sweeps and benchmarks can record what they really measured.
    """

    n_pairs: int
    lb_kim_pruned: int
    lb_keogh_pruned: int
    dp_abandoned: int
    dp_computed: int
    lb_keogh_query_pruned: int = 0
    backend: str = "pruned"

    @property
    def pruning_rate(self) -> float:
        """Fraction of candidate pairs that never entered the dynamic program."""
        if self.n_pairs == 0:
            return 0.0
        return 1.0 - self.dp_computed / self.n_pairs


def _as_batch(arr: np.ndarray, what: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim not in (2, 3) or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(
            f"{what} must be a non-empty 1-D series, 2-D (n, length) batch, "
            f"or 3-D (n, length, n_channels) multichannel batch; got shape "
            f"{np.asarray(arr).shape}"
        )
    if out.ndim == 3 and out.shape[2] < 1:
        raise ValueError(f"{what} must have at least one channel")
    if out.ndim == 3 and out.shape[2] == 1:
        # (n, L, 1) is univariate in disguise: squeeze so the legacy 2-D
        # code paths (and their bit-exact guarantees) apply verbatim.
        out = out[:, :, 0]
    return out


#: A chunk is compacted (abandoned pairs dropped from the working set) once
#: at least this fraction of it is dead -- compaction is a gather over the
#: rolling diagonals, so doing it for every lone dead pair would cost more
#: than carrying the pair.
_COMPACT_FRACTION = 0.125


def _banded_costs_with_abandon(
    q_rows: np.ndarray,
    t_rows: np.ndarray,
    band: int,
    thresholds_sq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Banded squared DTW costs of a batch of pairs, abandoning hopeless ones.

    ``q_rows``/``t_rows`` are the already-gathered per-pair series (shapes
    ``(p, n)`` and ``(p, m)``, or ``(p, n, d)`` / ``(p, m, d)`` multichannel
    -- cell costs are then channel-summed, accumulated in the same channel
    order as the dense reference so surviving costs stay bit-identical; any
    float dtype -- float32 selects float32
    accumulation).  Per cell the recurrence is exactly the one of
    :func:`repro.distance.dtw._wavefront_accumulated_cost` (same elementwise
    operations in the same order, so surviving costs are bit-identical to the
    dense reference), but only the rolling last two anti-diagonals are kept
    -- each indexed by ``i`` so every per-diagonal operand is a contiguous
    slice, never a fancy gather, and no ``(p, n, m)`` tensor is ever
    materialised.

    Abandoning is exact: a warping path advances ``i + j`` by 1 or 2 per
    step, so it crosses every pair of consecutive anti-diagonals at least
    once, with non-decreasing accumulated cost; a pair whose two-diagonal
    in-band minimum exceeds its threshold therefore can never finish below
    it.  Dead pairs are compacted out of the working set (their result is
    ``inf``); a dead pair carried to the end of the recurrence instead (below
    the compaction threshold) still reports its exact cost.

    Returns ``(squared_costs, abandoned)``; abandoned pairs carry ``inf``.
    """
    p, n = q_rows.shape[0], q_rows.shape[1]
    m = t_rows.shape[1]
    channels = q_rows.shape[2] if q_rows.ndim == 3 else 1
    dt = q_rows.dtype
    out = np.full(p, np.inf)
    ids = np.arange(p)
    thr = np.asarray(thresholds_sq, dtype=float)
    # Diagonal d holds cost(i, d - i) at column i; d-2 then d-1, rolled.
    prev2 = np.full((p, n + 1), np.inf, dtype=dt)
    prev = np.full((p, n + 1), np.inf, dtype=dt)
    prev2[:, 0] = 0.0
    prev_min = np.full(p, np.inf)
    for d in range(2, n + m + 1):
        i_lo = max(1, d - m, (d - band + 1) // 2)
        i_hi = min(n, d - 1, (d + band) // 2)
        if i_lo > i_hi:
            continue
        cur = np.full((ids.shape[0], n + 1), np.inf, dtype=dt)
        # cost(i-1, j) and cost(i, j-1) live on diagonal d-1 at columns
        # i-1 and i; cost(i-1, j-1) on d-2 at i-1.  All contiguous slices.
        best = np.minimum(prev[:, i_lo - 1 : i_hi], prev[:, i_lo : i_hi + 1])
        np.minimum(best, prev2[:, i_lo - 1 : i_hi], out=best)
        if channels == 1:
            diff = q_rows[:, i_lo - 1 : i_hi] - t_rows[:, d - i_hi - 1 : d - i_lo][:, ::-1]
            sq = diff * diff
        else:
            # Channel-summed cell cost, accumulated channel by channel in
            # the same order as the dense reference (bit-identical costs).
            diff = (
                q_rows[:, i_lo - 1 : i_hi, :]
                - t_rows[:, d - i_hi - 1 : d - i_lo, :][:, ::-1, :]
            )
            sq = diff[:, :, 0] * diff[:, :, 0]
            for c in range(1, channels):
                sq += diff[:, :, c] * diff[:, :, c]
        cur[:, i_lo : i_hi + 1] = sq + best
        cur_min = cur[:, i_lo : i_hi + 1].min(axis=1)
        dead = np.minimum(prev_min, cur_min) > thr
        prev2, prev, prev_min = prev, cur, cur_min
        n_dead = int(dead.sum())
        if n_dead == ids.shape[0]:
            return out, np.isinf(out)
        if n_dead >= max(8, int(_COMPACT_FRACTION * ids.shape[0])):
            alive = ~dead
            q_rows, t_rows = q_rows[alive], t_rows[alive]
            prev2, prev, prev_min = prev2[alive], prev[alive], prev_min[alive]
            thr, ids = thr[alive], ids[alive]
    out[ids] = prev[:, n]
    return out, np.isinf(out)


def _insert_neighbor(
    best_d: np.ndarray, best_i: np.ndarray, row: int, dist: float, index: int
) -> None:
    """Insert a computed candidate into a query's running top-k.

    Ordering is lexicographic on ``(distance, training index)`` -- exactly
    the stable-sort tie-break of the dense reference selection.
    """
    k = best_d.shape[1]
    last_d = best_d[row, k - 1]
    if dist > last_d or (dist == last_d and index > best_i[row, k - 1]):
        return
    d_row = np.append(best_d[row], dist)
    i_row = np.append(best_i[row], index)
    order = np.lexsort((i_row, d_row))[:k]
    best_d[row] = d_row[order]
    best_i[row] = i_row[order]


def pruned_dtw_nearest_neighbors(
    queries: np.ndarray,
    train: np.ndarray,
    window: int | float | None = None,
    n_neighbors: int = 1,
    dtype: np.dtype | type = np.float64,
    return_stats: bool = False,
    chunk_pairs: int = _DP_CHUNK_PAIRS,
    envelope_cache: object | None = None,
) -> (
    tuple[np.ndarray, np.ndarray]
    | tuple[np.ndarray, np.ndarray, DTWSearchStats]
):
    """DTW k nearest neighbours through the cascading lower-bound pipeline.

    See the module docstring for the cascade.  In float64 mode (default) the
    returned indices and distances are bit-identical to the dense reference
    (:func:`repro.distance.engine.dtw_nearest_neighbors` with
    ``backend="reference"``); ``dtype=np.float32`` selects float32
    accumulation in the dynamic program (distances within ~1e-5 relative on
    realistic data).

    Parameters
    ----------
    queries, train:
        2-D arrays ``(n_queries, n)`` and ``(n_train, m)``, or 3-D
        multichannel batches with matching channel counts (dependent DTW
        with channel-summed costs); lengths may differ (DTW aligns them).
        A 1-D query is promoted to a batch of one.
    window:
        Sakoe-Chiba band spec with the semantics of
        :func:`repro.distance.dtw.dtw_distance`.
    n_neighbors:
        Number of neighbours per query (``k``), each sorted by
        ``(distance, training index)``.
    dtype:
        ``np.float64`` (bit-exact) or ``np.float32`` (fast accumulation).
    return_stats:
        Also return a :class:`DTWSearchStats` with the per-stage pruning
        counts (the benchmark's pruning-rate metric).
    chunk_pairs:
        Survivor pairs per early-abandoning wavefront call.
    envelope_cache:
        Optional :class:`repro.distance.dtw.EnvelopeCache`; when given, the
        train-side band envelopes are fetched from (and stored into) it
        instead of being recomputed per call, so repeated searches against
        the same training set pay the envelope sweep once.

    Returns
    -------
    (indices, distances[, stats]):
        ``(n_queries, k)`` neighbour indices (closest first) and their DTW
        distances.
    """
    return _cascade_search(
        queries,
        train,
        window=window,
        n_neighbors=n_neighbors,
        dtype=dtype,
        return_stats=return_stats,
        chunk_pairs=chunk_pairs,
        envelope_cache=envelope_cache,
        kernels=None,
        backend_label="pruned",
    )


def compiled_dtw_nearest_neighbors(
    queries: np.ndarray,
    train: np.ndarray,
    window: int | float | None = None,
    n_neighbors: int = 1,
    dtype: np.dtype | type = np.float64,
    return_stats: bool = False,
    chunk_pairs: int | None = None,
    envelope_cache: object | None = None,
) -> (
    tuple[np.ndarray, np.ndarray]
    | tuple[np.ndarray, np.ndarray, DTWSearchStats]
):
    """The cascade of :func:`pruned_dtw_nearest_neighbors` on the JIT kernels.

    Same cascade driver, same slack-guarded thresholds, same lexicographic
    ``(distance, index)`` top-k -- but every stage's numbers come from the
    numba kernels in :mod:`repro.distance.kernels`, with ``prange`` threading
    over pairs and the DP chunk sized from the :mod:`repro.memory` budget
    (``chunk_pairs=None``, the default, selects that sizing; an explicit
    value overrides it).  Float64 results are bit-identical to both other
    tiers.

    When the JIT tier cannot engage (numba missing or broken, or forced off
    via :func:`repro.distance.kernels.force_availability`), the call warns
    once per process and transparently delegates to the pruned numpy
    cascade; the returned ``DTWSearchStats.backend`` then says ``"pruned"``
    and :func:`backend_resolution` explains why.
    """
    from repro.distance import kernels

    if not kernels.available():
        _warn_compiled_fallback(kernels.unavailable_reason())
        return pruned_dtw_nearest_neighbors(
            queries,
            train,
            window=window,
            n_neighbors=n_neighbors,
            dtype=dtype,
            return_stats=return_stats,
            chunk_pairs=_DP_CHUNK_PAIRS if chunk_pairs is None else chunk_pairs,
            envelope_cache=envelope_cache,
        )
    from repro.distance.kernels import cascade

    return _cascade_search(
        queries,
        train,
        window=window,
        n_neighbors=n_neighbors,
        dtype=dtype,
        return_stats=return_stats,
        chunk_pairs=chunk_pairs,
        envelope_cache=envelope_cache,
        kernels=cascade,
        backend_label="compiled",
    )


def _cascade_search(
    queries: np.ndarray,
    train: np.ndarray,
    *,
    window: int | float | None,
    n_neighbors: int,
    dtype: np.dtype | type,
    return_stats: bool,
    chunk_pairs: int | None,
    envelope_cache: object | None,
    kernels,
    backend_label: str,
) -> (
    tuple[np.ndarray, np.ndarray]
    | tuple[np.ndarray, np.ndarray, DTWSearchStats]
):
    """The shared cascade driver behind the pruned and compiled tiers.

    ``kernels`` is ``None`` for the interpreted numpy stages or the
    :mod:`repro.distance.kernels.cascade` facade for the JIT ones; the
    driver itself (seeding, thresholds, chunking, top-k bookkeeping, stats)
    is tier-independent, which is what keeps the two tiers' results -- and
    any future bound added here -- identical by construction.
    """
    q = _as_batch(queries, "queries")
    t = _as_batch(train, "train")
    if q.ndim != t.ndim or q.shape[2:] != t.shape[2:]:
        raise ValueError(
            "queries and train must agree in rank and channel count "
            "(trailing axis); got shapes "
            f"{q.shape} and {t.shape}"
        )
    n_q, n = q.shape[0], q.shape[1]
    n_train, m = t.shape[0], t.shape[1]
    channels = q.shape[2] if q.ndim == 3 else 1
    k = int(n_neighbors)
    if not 1 <= k <= n_train:
        raise ValueError(f"n_neighbors must be in [1, {n_train}], got {n_neighbors}")
    block_bytes = get_memory_budget()
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("dtype must be float32 or float64")
    if chunk_pairs is None:
        chunk_pairs = (
            kernels.dp_pair_chunk(n, m, channels, dt.itemsize, block_bytes)
            if kernels is not None
            else _DP_CHUNK_PAIRS
        )
    if chunk_pairs < 1:
        raise ValueError("chunk_pairs must be >= 1")
    slack = PRUNE_SLACK if dt == np.dtype(np.float64) else PRUNE_SLACK_F32
    band = _resolve_band(n, m, window)
    q_dp = q.astype(dt, copy=False)
    t_dp = t.astype(dt, copy=False)

    best_d = np.full((n_q, k), np.inf)
    best_i = np.full((n_q, k), n_train, dtype=np.intp)
    computed = np.zeros((n_q, n_train), dtype=bool)
    n_pairs = n_q * n_train
    dp_computed = 0
    dp_abandoned = 0

    def run_pairs(rows: np.ndarray, cols: np.ndarray, thresholds: np.ndarray) -> None:
        nonlocal dp_computed, dp_abandoned
        dp_computed += rows.shape[0]
        if kernels is not None:
            sq, abandoned = kernels.run_dp_batch(q_dp[rows], t_dp[cols], band, thresholds)
        else:
            sq, abandoned = _banded_costs_with_abandon(
                q_dp[rows], t_dp[cols], band, thresholds
            )
        dp_abandoned += int(abandoned.sum())
        dist = np.sqrt(sq)
        computed[rows, cols] = True
        for a in np.flatnonzero(np.isfinite(dist)):
            _insert_neighbor(best_d, best_i, int(rows[a]), float(dist[a]), int(cols[a]))

    def thresholds_for(rows: np.ndarray) -> np.ndarray:
        kth = best_d[rows, k - 1]
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(kth), kth * kth * (1.0 + slack), np.inf)

    # --- stage 0: LB_Kim over all pairs, and k seed DPs per query ----------
    kim = kernels.run_lb_kim(q, t) if kernels is not None else lb_kim(q, t)
    seed_cols = np.argsort(kim, axis=1, kind="stable")[:, :k]
    seed_rows = np.repeat(np.arange(n_q), k)
    seed_flat = seed_cols.ravel()
    for start in range(0, seed_rows.shape[0], chunk_pairs):
        stop = min(start + chunk_pairs, seed_rows.shape[0])
        run_pairs(
            seed_rows[start:stop],
            seed_flat[start:stop],
            np.full(stop - start, np.inf),
        )

    # --- stage 1: prune by LB_Kim against the seeded running best ----------
    thr = thresholds_for(np.arange(n_q))
    alive = (kim <= thr[:, None]) & ~computed
    lb_kim_pruned = n_pairs - int(alive.sum()) - int(computed.sum())

    # --- stage 2: LB_Keogh train-side, only pairs LB_Kim could not answer --
    def keogh_bounds(
        series: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        series_idx: np.ndarray,
        envelope_idx: np.ndarray,
    ) -> np.ndarray:
        """Per-pair envelope bound, either direction (see lb_keogh_pairs)."""
        if kernels is not None:
            return kernels.run_lb_keogh_pairs(
                series, lower, upper, series_idx, envelope_idx
            )
        length = series.shape[1]
        out = np.empty(series_idx.shape[0])
        chunk = max(1, int(block_bytes // (max(length, 1) * channels * 8 * 2)))
        reduce = "pn,pn->p" if channels == 1 else "pnc,pnc->p"
        for start in range(0, series_idx.shape[0], chunk):
            stop = min(start + chunk, series_idx.shape[0])
            s = series[series_idx[start:stop]]
            over = np.maximum(s - upper[envelope_idx[start:stop]], 0.0)
            under = np.maximum(lower[envelope_idx[start:stop]] - s, 0.0)
            out[start:stop] = np.einsum(reduce, over, over) + np.einsum(
                reduce, under, under
            )
        return out

    rows, cols = np.nonzero(alive)
    lb = np.empty(rows.shape[0])
    if rows.shape[0]:
        if envelope_cache is not None:
            lower, upper = envelope_cache.envelopes(t, band, query_length=n)
        else:
            lower, upper = dtw_band_envelopes(t, band, query_length=n)
        lb = keogh_bounds(q, lower, upper, rows, cols)
        np.maximum(lb, kim[rows, cols], out=lb)
    keep = lb <= thr[rows]
    lb_keogh_pruned = int((~keep).sum())
    rows, cols, lb = rows[keep], cols[keep], lb[keep]

    # --- stage 2b: query-side LB_Keogh for the train-side survivors --------
    # The mirrored direction (envelopes around each *query*, held against
    # the raw training samples) is admissible for the same banded DP, so the
    # cascade prunes on the max of all bounds.  Query envelopes depend on
    # this call's queries, so they are computed fresh (never cached) and
    # only once the cheaper bounds have thinned the pair list.
    lb_keogh_query_pruned = 0
    if rows.shape[0]:
        lower_q, upper_q = dtw_band_envelopes(q, band, query_length=m)
        np.maximum(lb, keogh_bounds(t, lower_q, upper_q, cols, rows), out=lb)
        keep = lb <= thr[rows]
        lb_keogh_query_pruned = int((~keep).sum())
        lb_keogh_pruned += lb_keogh_query_pruned
        rows, cols, lb = rows[keep], cols[keep], lb[keep]

    # --- stage 3: early-abandoning DP for survivors, best-bound first ------
    order = np.argsort(lb, kind="stable")
    rows, cols, lb = rows[order], cols[order], lb[order]
    for start in range(0, rows.shape[0], chunk_pairs):
        stop = min(start + chunk_pairs, rows.shape[0])
        chunk_rows = rows[start:stop]
        thr_now = thresholds_for(chunk_rows)
        still = lb[start:stop] <= thr_now
        lb_keogh_pruned += int((~still).sum())
        if not still.any():
            continue
        run_pairs(chunk_rows[still], cols[start:stop][still], thr_now[still])

    distances = best_d.copy()
    indices = best_i.copy()
    if not return_stats:
        return indices, distances
    stats = DTWSearchStats(
        n_pairs=n_pairs,
        lb_kim_pruned=lb_kim_pruned,
        lb_keogh_pruned=lb_keogh_pruned,
        dp_abandoned=dp_abandoned,
        dp_computed=dp_computed,
        lb_keogh_query_pruned=lb_keogh_query_pruned,
        backend=backend_label,
    )
    return indices, distances, stats
