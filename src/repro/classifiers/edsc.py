"""EDSC -- Early Distinctive Shapelet Classification (Xing et al., SDM 2011).

EDSC extracts *local shapelets*: short subsequences of training exemplars
that, when matched within a learned distance threshold, identify a class with
high precision.  Because a shapelet can match inside a short prefix of an
incoming exemplar, matching one is a licence to classify early.

Training has three stages:

1. **Candidate extraction** -- subsequences of several lengths are sampled
   from every training exemplar.
2. **Threshold learning** -- each candidate learns the largest distance
   threshold that keeps its precision high.  Two estimators are implemented,
   matching the two rows of Table 1:

   * ``"che"`` -- the Chebyshev bound: the threshold is placed ``k`` standard
     deviations below the mean distance to non-target exemplars, so the
     one-sided Chebyshev inequality bounds the false-match probability by
     ``1 / (1 + k^2)``.
   * ``"kde"`` -- kernel density estimates of the distance distributions of
     target and non-target exemplars; the threshold is the largest value at
     which the estimated precision stays above ``target_precision``.

3. **Selection** -- candidates are ranked by a utility that combines
   precision, recall and earliness (how early in the exemplar the match
   happens), and greedily selected until every training exemplar is covered.

Prediction slides every selected shapelet over the observed prefix; the first
shapelet (in utility order) that matches within its threshold triggers the
classification.

Simplifications relative to the original publication (documented in
EXPERIMENTS.md): candidates are subsampled rather than exhaustively
enumerated, and the utility function is the product of precision and
earliness-weighted recall rather than the paper's weighted-recall family --
neither changes the qualitative behaviour Table 1 exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, BatchCheckpoint, PartialPrediction
from repro.memory import get_memory_budget

__all__ = ["EDSCClassifier", "Shapelet"]

#: Byte budget for the ``(rows, grid, samples)`` broadcast of the batched KDE
#: threshold learner; candidate rows are chunked to respect it.
_KDE_BLOCK_BYTES = 64 * 2**20


@dataclass(frozen=True)
class Shapelet:
    """A selected local shapelet.

    Attributes
    ----------
    values:
        The subsequence itself (raw values, as EDSC matches without
        re-normalisation).
    label:
        The class the shapelet votes for.
    threshold:
        Maximum best-match distance at which the shapelet fires.
    utility:
        Training utility used for ranking.
    precision:
        Training precision of the shapelet at its threshold.
    source_index:
        Index of the training exemplar the shapelet was extracted from.
    source_position:
        Start position of the shapelet within that exemplar.
    """

    values: np.ndarray
    label: object
    threshold: float
    utility: float
    precision: float
    source_index: int
    source_position: int

    @property
    def length(self) -> int:
        """Number of samples in the shapelet."""
        return int(self.values.shape[0])


def _sliding_windows(series: np.ndarray, window: int) -> np.ndarray:
    """All length-``window`` subsequences of each row of a series batch.

    Returns ``(n_series, n_windows, window)`` for a 2-D ``(n_series,
    length)`` batch, or ``(n_series, n_windows, window, n_channels)`` for a
    3-D ``(n_series, length, n_channels)`` multichannel batch (the window
    slides along time; channels ride along).
    """
    n_series, length = series.shape[0], series.shape[1]
    n_windows = length - window + 1
    strides = (
        series.strides[0],
        series.strides[1],
        series.strides[1],
    ) + series.strides[2:]
    return np.lib.stride_tricks.as_strided(
        series,
        shape=(n_series, n_windows, window) + series.shape[2:],
        strides=strides,
        writeable=False,
    )


def _best_match_distances(
    candidates: np.ndarray, series: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-match (minimum sliding Euclidean) distance of each candidate to each series.

    Parameters
    ----------
    candidates:
        Array of shape ``(n_candidates, window)`` or, multichannel,
        ``(n_candidates, window, n_channels)``.
    series:
        Array of shape ``(n_series, length)`` (or ``(n_series, length,
        n_channels)`` with matching channel count) with ``length >= window``.

    Returns
    -------
    (distances, positions):
        ``distances[i, j]`` is the smallest (channel-summed) Euclidean
        distance between candidate ``i`` and any window of series ``j``;
        ``positions[i, j]`` is the index at which that window *ends* (the
        earliest point at which the match could have been observed on
        streaming data).
    """
    window = candidates.shape[1]
    windows = _sliding_windows(series, window)
    n_series, n_windows = windows.shape[0], windows.shape[1]
    # The channel-summed window distance equals the flat distance over the
    # time-major (window, channel) flattening, so multichannel candidates
    # reuse the univariate GEMM path after a reshape (a no-op for 2-D).
    cand_flat = candidates.reshape(candidates.shape[0], -1)
    flat = np.ascontiguousarray(windows).reshape(n_series * n_windows, -1)

    cand_sq = np.sum(cand_flat * cand_flat, axis=1)[:, None]
    win_sq = np.sum(flat * flat, axis=1)[None, :]
    cross = cand_flat @ flat.T
    squared = np.maximum(cand_sq + win_sq - 2.0 * cross, 0.0)
    distances = np.sqrt(squared).reshape(candidates.shape[0], n_series, n_windows)

    best_positions = np.argmin(distances, axis=2)
    best = np.min(distances, axis=2)
    # Convert a start position into the sample index at which the whole
    # shapelet has been observed.
    return best, best_positions + window


class EDSCClassifier(BaseEarlyClassifier):
    """Early Distinctive Shapelet Classification.

    Parameters
    ----------
    threshold_method:
        ``"che"`` (Chebyshev bound) or ``"kde"`` (kernel density estimate).
    chebyshev_k:
        The ``k`` of the Chebyshev bound (the original recommends 3).
    target_precision:
        Precision the KDE threshold must maintain (also used as the minimum
        training precision a shapelet of either method must reach to be kept).
    shapelet_length_fractions:
        Candidate shapelet lengths, as fractions of the exemplar length.
    position_step:
        Stride between candidate start positions.
    max_candidates_per_class:
        Random subsample cap on candidates per class (keeps training time
        laptop-scale).
    min_length:
        Smallest prefix length at which prediction is attempted.
    random_state:
        Seed of the candidate subsampler.
    prune_candidates:
        If ``True``, drop every candidate window that contains no local
        extremum of its source exemplar before the (quadratic) best-match
        GEMM runs -- flat windows carry no discriminative shape, so shapelet
        miners routinely anchor candidates at local extrema.  Off by
        default: pruning changes which candidates are mined (the golden
        experiment summaries pin the unpruned behaviour), and the batched
        and reference paths apply the identical mask *before* the per-class
        subsample, so their equivalence holds with the flag either way.
    prune_order:
        Neighbourhood half-width (in samples) a point must dominate to count
        as a local extremum for ``prune_candidates``
        (:func:`scipy.signal.argrelmax` / ``argrelmin`` ``order``).
    """

    def __init__(
        self,
        threshold_method: str = "che",
        chebyshev_k: float = 3.0,
        target_precision: float = 0.9,
        shapelet_length_fractions: Sequence[float] = (0.1, 0.15, 0.2, 0.3),
        position_step: int = 4,
        max_candidates_per_class: int = 300,
        min_length: int = 5,
        random_state: int = 13,
        prune_candidates: bool = False,
        prune_order: int = 3,
    ) -> None:
        super().__init__()
        method = threshold_method.lower()
        if method not in ("che", "kde"):
            raise ValueError("threshold_method must be 'che' or 'kde'")
        if chebyshev_k <= 0:
            raise ValueError("chebyshev_k must be positive")
        if not 0.5 <= target_precision <= 1.0:
            raise ValueError("target_precision must be in [0.5, 1.0]")
        if not shapelet_length_fractions:
            raise ValueError("need at least one shapelet length fraction")
        if any(not 0.0 < f <= 1.0 for f in shapelet_length_fractions):
            raise ValueError("shapelet length fractions must be in (0, 1]")
        if position_step < 1:
            raise ValueError("position_step must be >= 1")
        if max_candidates_per_class < 1:
            raise ValueError("max_candidates_per_class must be >= 1")
        if prune_order < 1:
            raise ValueError("prune_order must be >= 1")
        self.threshold_method = method
        self.chebyshev_k = chebyshev_k
        self.target_precision = target_precision
        self.shapelet_length_fractions = tuple(shapelet_length_fractions)
        self.position_step = position_step
        self.max_candidates_per_class = max_candidates_per_class
        self.min_length = min_length
        self.random_state = random_state
        self.prune_candidates = prune_candidates
        self.prune_order = prune_order
        self.shapelets_: list[Shapelet] = []
        self._fallback_label = None

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "EDSCClassifier":
        """Mine discriminative shapelets and select per-shapelet distance thresholds."""
        return self._fit_impl(series, labels, self._evaluate_candidates_of_length)

    def _fit_reference(self, series: np.ndarray, labels: Sequence) -> "EDSCClassifier":
        """Fit through the per-candidate reference loop (equivalence tests, benchmarks)."""
        return self._fit_impl(
            series, labels, self._evaluate_candidates_of_length_reference
        )

    def _fit_impl(self, series: np.ndarray, labels: Sequence, evaluate) -> "EDSCClassifier":
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        rng = np.random.default_rng(self.random_state)
        length = data.shape[1]

        shapelet_lengths = sorted(
            {max(3, int(round(f * length))) for f in self.shapelet_length_fractions}
        )
        shapelet_lengths = [m for m in shapelet_lengths if m < length]
        if not shapelet_lengths:
            raise ValueError("all candidate shapelet lengths are >= the series length")

        candidates: list[Shapelet] = []
        for window in shapelet_lengths:
            candidates.extend(evaluate(data, label_arr, window, rng))
        if not candidates:
            raise RuntimeError(
                "no shapelet reached the target precision; the training data may "
                "be too small or too noisy for EDSC"
            )
        self.shapelets_ = self._select_shapelets(candidates, data, label_arr)
        # Fall back to the majority class when no shapelet ever matches.
        values, counts = np.unique(label_arr, return_counts=True)
        self._fallback_label = values[int(np.argmax(counts))]
        return self

    def _candidate_positions(self, length: int, window: int) -> np.ndarray:
        return np.arange(0, length - window + 1, self.position_step)

    def _extrema_keep_mask(
        self,
        data: np.ndarray,
        source_index: np.ndarray,
        source_position: np.ndarray,
        window: int,
    ) -> np.ndarray:
        """Which candidate windows contain a local extremum of their exemplar.

        One shared extrema pass per training matrix: mark every local
        maximum/minimum (``order=prune_order``), cumulative-sum the marks
        along time, and answer each window ``[p, p + window)`` with one
        subtraction.  Used by both the batched and the reference extraction
        paths so the flag cannot make them diverge.  On multichannel data a
        time step counts as an extremum when *any* channel has one there.
        """
        from scipy.signal import argrelmax, argrelmin

        extrema = np.zeros(data.shape[:2], dtype=bool)
        for finder in (argrelmax, argrelmin):
            where = finder(data, axis=1, order=self.prune_order)
            extrema[where[0], where[1]] = True
        counts = np.zeros((data.shape[0], data.shape[1] + 1), dtype=np.intp)
        counts[:, 1:] = np.cumsum(extrema, axis=1)
        return (
            counts[source_index, source_position + window]
            - counts[source_index, source_position]
        ) > 0

    def _evaluate_candidates_of_length(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        window: int,
        rng: np.random.Generator,
    ) -> list[Shapelet]:
        """Extract, threshold and score all candidates of one length -- batched.

        The vectorised counterpart of
        :meth:`_evaluate_candidates_of_length_reference`: candidates come out
        of one :func:`numpy.lib.stride_tricks.sliding_window_view`, and
        threshold learning / scoring run across the whole
        ``(n_candidates, n_series)`` best-match distance matrix at once
        instead of one Python iteration per candidate.  The random
        subsampling consumes the generator identically to the reference
        (same per-class draws in the same order), so a fixed seed selects
        identical candidates, and the training-kernel equivalence tests pin
        the resulting shapelets against the reference loop.
        """
        length = data.shape[1]
        matrix, cand_labels, src_index, src_position = self._extract_candidates(
            data, labels, window, rng
        )
        if matrix.shape[0] == 0:
            # Extrema pruning can empty a length's pool on featureless data.
            return []
        distances, match_ends = _best_match_distances(matrix, data)
        thresholds = self._learn_thresholds_batch(
            distances, cand_labels, src_index, labels
        )
        return self._score_candidates_batch(
            matrix,
            cand_labels,
            thresholds,
            distances,
            match_ends,
            labels,
            length,
            src_index,
            src_position,
        )

    def _extract_candidates(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        window: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All subsampled candidates of one window length, in exemplar-major order.

        Returns ``(matrix, labels, source_index, source_position)`` with the
        candidate ordering of the reference loop (outer loop over exemplars,
        inner over start positions) so the per-class subsample draws the same
        indices from the same generator state.
        """
        n_series, length = data.shape[0], data.shape[1]
        positions = self._candidate_positions(length, window)
        windows = np.lib.stride_tricks.sliding_window_view(data, window, axis=1)
        if data.ndim == 3:
            # sliding_window_view appends the window axis last:
            # (n, n_windows, d, window) -> (n, n_windows, window, d).
            windows = np.moveaxis(windows, -1, -2)
        matrix = windows[:, positions].reshape(
            (n_series * positions.shape[0], window) + data.shape[2:]
        )
        src_index = np.repeat(np.arange(n_series), positions.shape[0])
        src_position = np.tile(positions, n_series)
        cand_labels = labels[src_index]

        if self.prune_candidates:
            # Applied before the subsample so the RNG sees the same candidate
            # pool as the reference loop with the flag on.
            mask = self._extrema_keep_mask(data, src_index, src_position, window)
            matrix = matrix[mask]
            cand_labels = cand_labels[mask]
            src_index = src_index[mask]
            src_position = src_position[mask]

        # Subsample per class to keep the quadratic matching step bounded.
        keep: list[int] = []
        for cls in np.unique(labels):
            cls_idx = np.flatnonzero(cand_labels == cls)
            if cls_idx.shape[0] > self.max_candidates_per_class:
                cls_idx = rng.choice(cls_idx, size=self.max_candidates_per_class, replace=False)
            keep.extend(cls_idx.tolist())
        keep_arr = np.asarray(sorted(keep), dtype=np.intp)
        return (
            matrix[keep_arr],
            cand_labels[keep_arr],
            src_index[keep_arr],
            src_position[keep_arr],
        )

    def _learn_thresholds_batch(
        self,
        distances: np.ndarray,
        candidate_labels: np.ndarray,
        source_index: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Matching thresholds of every candidate in one pass per class.

        Candidates of one class share their target/non-target split, so the
        per-candidate Chebyshev statistics (or KDE precision curves) reduce
        along the candidate axis of the class's distance-matrix slice.
        Rejected candidates (too few non-targets, non-positive threshold, KDE
        precision never acceptable) carry ``NaN``.
        """
        thresholds = np.full(distances.shape[0], np.nan)
        for cls in np.unique(candidate_labels):
            rows = np.flatnonzero(candidate_labels == cls)
            target_mask = labels == cls
            non_target = distances[np.ix_(rows, np.flatnonzero(~target_mask))]
            if non_target.shape[1] < 2:
                continue
            if self.threshold_method == "che":
                values = np.mean(non_target, axis=1) - self.chebyshev_k * np.std(
                    non_target, axis=1
                )
            else:
                values = self._kde_thresholds_batch(
                    distances[rows], target_mask, source_index[rows], non_target
                )
            thresholds[rows] = values
        # A non-positive threshold can never fire; reject exactly like the
        # per-candidate reference does.
        thresholds[~(thresholds > 0)] = np.nan
        return thresholds

    def _kde_thresholds_batch(
        self,
        distances: np.ndarray,
        target_mask: np.ndarray,
        source_index: np.ndarray,
        non_target: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`_kde_threshold` for all candidates of one class.

        Per candidate the reference pools target distances (minus the source
        exemplar's own) with non-target distances, places a Gaussian KDE on
        each side and reads the largest grid value whose estimated precision
        stays acceptable.  Here the per-candidate grids, bandwidths and CDF
        stacks are built as one ``(n_candidates, grid, samples)`` broadcast;
        the grid replicates :func:`numpy.linspace`'s arithmetic
        (``arange * step`` with a pinned endpoint) so thresholds are
        bit-identical to the reference.
        """
        n_rows = distances.shape[0]
        target_cols = np.flatnonzero(target_mask)
        n_target = target_cols.shape[0] - 1
        if n_target < 1:
            return np.full(n_rows, np.nan)
        # Drop each candidate's source exemplar from its own target sample.
        target_full = distances[:, target_cols]
        keep = np.ones(target_full.shape, dtype=bool)
        keep[np.arange(n_rows), np.searchsorted(target_cols, source_index)] = False
        target = target_full[keep].reshape(n_rows, n_target)

        pooled = np.concatenate([target, non_target], axis=1)
        spread = np.std(pooled, axis=1)
        # Silverman's rule of thumb for the bandwidth.
        bandwidth = np.maximum(
            1.06 * spread * pooled.shape[1] ** (-1 / 5), 1e-6
        )
        top = np.max(pooled, axis=1)
        grid = np.arange(200.0)[None, :] * (top / 199.0)[:, None]
        grid[:, -1] = top

        def cumulative(samples: np.ndarray) -> np.ndarray:
            """P(X <= g) on each row's grid under that row's Gaussian KDE.

            The ``(rows, grid, samples)`` broadcast is built in row chunks so
            its float64 working set stays under ``_KDE_BLOCK_BYTES``.
            """
            out = np.empty((n_rows, grid.shape[1]))
            per_row = grid.shape[1] * samples.shape[1] * 8
            chunk = max(1, int(_KDE_BLOCK_BYTES // per_row))
            for start in range(0, n_rows, chunk):
                stop = min(start + chunk, n_rows)
                z = (
                    grid[start:stop, :, None] - samples[start:stop, None, :]
                ) / bandwidth[start:stop, None, None]
                out[start:stop] = np.mean(_standard_normal_cdf(z), axis=2)
            return out

        target_cdf = cumulative(target) * target.shape[1]
        non_target_cdf = cumulative(non_target) * non_target.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            precision = np.where(
                target_cdf + non_target_cdf > 0,
                target_cdf / (target_cdf + non_target_cdf),
                1.0,
            )
        acceptable = precision >= self.target_precision
        has_acceptable = acceptable.any(axis=1)
        last = grid.shape[1] - 1 - np.argmax(acceptable[:, ::-1], axis=1)
        values = grid[np.arange(n_rows), last]
        return np.where(has_acceptable & (spread > 0), values, np.nan)

    def _score_candidates_batch(
        self,
        matrix: np.ndarray,
        candidate_labels: np.ndarray,
        thresholds: np.ndarray,
        distances: np.ndarray,
        match_ends: np.ndarray,
        labels: np.ndarray,
        series_length: int,
        source_index: np.ndarray,
        source_position: np.ndarray,
    ) -> list[Shapelet]:
        """Precision / earliness-weighted recall / utility across all candidates.

        The match matrices, per-candidate counts and precisions reduce across
        the whole ``(n_candidates, n_series)`` distance matrix at once; only
        the earliness-weighted recall of the (much rarer) *surviving*
        candidates is summed per row, over the compacted matched entries,
        because a padded whole-row sum groups NumPy's pairwise summation
        differently and drifts from :meth:`_score_candidate` by one ulp --
        enough to break exact utility ties and reorder the greedy selection.
        """
        matched = distances <= thresholds[:, None]
        target = labels[None, :] == candidate_labels[:, None]
        matched_target = matched & target
        n_matched = matched.sum(axis=1)
        n_matched_target = matched_target.sum(axis=1)
        precision = n_matched_target / np.maximum(n_matched, 1)
        n_target = target.sum(axis=1)

        rows = np.flatnonzero(
            (n_matched > 0) & (precision >= self.target_precision)
        )
        # Earliness-weighted recall: matches that complete earlier in the
        # exemplar are worth more (this is what makes a shapelet "early").
        weights = 1.0 - (match_ends - 1) / series_length
        shapelets: list[Shapelet] = []
        for row in rows:
            recall = float(np.sum(weights[row][matched_target[row]])) / max(
                int(n_target[row]), 1
            )
            utility = precision[row] * recall
            if n_matched[row] - n_matched_target[row] > 0 and precision[row] < 1.0:
                utility *= precision[row]
            shapelets.append(
                Shapelet(
                    values=np.array(matrix[row], copy=True),
                    label=candidate_labels[row],
                    threshold=float(thresholds[row]),
                    utility=float(utility),
                    precision=float(precision[row]),
                    source_index=int(source_index[row]),
                    source_position=int(source_position[row]),
                )
            )
        return shapelets

    def _evaluate_candidates_of_length_reference(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        window: int,
        rng: np.random.Generator,
    ) -> list[Shapelet]:
        """Extract, threshold and score all candidates of one length (reference loop).

        The per-candidate Python loop the batched pipeline replaced, kept
        verbatim (together with :meth:`_learn_threshold` and
        :meth:`_score_candidate`) as the semantic reference the equivalence
        tests and the fit benchmark run against.
        """
        n_series, length = data.shape[0], data.shape[1]
        positions = self._candidate_positions(length, window)

        candidate_values = []
        candidate_sources = []
        for index in range(n_series):
            for pos in positions:
                candidate_values.append(data[index, pos : pos + window])
                candidate_sources.append((index, int(pos)))
        candidate_matrix = np.asarray(candidate_values)
        candidate_labels = np.asarray([labels[i] for i, _ in candidate_sources])

        if self.prune_candidates:
            mask = self._extrema_keep_mask(
                data,
                np.asarray([i for i, _ in candidate_sources]),
                np.asarray([p for _, p in candidate_sources]),
                window,
            )
            candidate_matrix = candidate_matrix[mask]
            candidate_sources = [
                source for source, kept in zip(candidate_sources, mask) if kept
            ]
            candidate_labels = candidate_labels[mask]

        # Subsample per class to keep the quadratic matching step bounded.
        keep: list[int] = []
        for cls in np.unique(labels):
            cls_idx = np.flatnonzero(candidate_labels == cls)
            if cls_idx.shape[0] > self.max_candidates_per_class:
                cls_idx = rng.choice(cls_idx, size=self.max_candidates_per_class, replace=False)
            keep.extend(cls_idx.tolist())
        keep_arr = np.asarray(sorted(keep), dtype=np.intp)
        candidate_matrix = candidate_matrix[keep_arr]
        candidate_sources = [candidate_sources[i] for i in keep_arr]
        candidate_labels = candidate_labels[keep_arr]

        if candidate_matrix.shape[0] == 0:
            return []
        distances, match_ends = _best_match_distances(candidate_matrix, data)

        shapelets: list[Shapelet] = []
        for row in range(candidate_matrix.shape[0]):
            label = candidate_labels[row]
            source_index, source_position = candidate_sources[row]
            target_mask = labels == label
            threshold = self._learn_threshold(
                distances[row], target_mask, exclude=source_index
            )
            if threshold is None or threshold <= 0:
                continue
            shapelet = self._score_candidate(
                values=candidate_matrix[row],
                label=label,
                threshold=threshold,
                distances=distances[row],
                match_ends=match_ends[row],
                target_mask=target_mask,
                series_length=length,
                source_index=source_index,
                source_position=source_position,
            )
            if shapelet is not None:
                shapelets.append(shapelet)
        return shapelets

    def _learn_threshold(
        self, distances: np.ndarray, target_mask: np.ndarray, exclude: int
    ) -> float | None:
        """Learn the matching threshold for one candidate."""
        non_target = distances[~target_mask]
        if non_target.shape[0] < 2:
            return None
        if self.threshold_method == "che":
            return self._chebyshev_threshold(non_target)
        target = np.delete(distances[target_mask], _index_within(target_mask, exclude))
        if target.shape[0] < 1:
            return None
        return self._kde_threshold(target, non_target)

    def _chebyshev_threshold(self, non_target: np.ndarray) -> float | None:
        mean = float(np.mean(non_target))
        std = float(np.std(non_target))
        threshold = mean - self.chebyshev_k * std
        return threshold if threshold > 0 else None

    def _kde_threshold(self, target: np.ndarray, non_target: np.ndarray) -> float | None:
        """Largest threshold at which the KDE-estimated precision stays high."""
        pooled = np.concatenate([target, non_target])
        spread = float(np.std(pooled))
        if spread <= 0:
            return None
        # Silverman's rule of thumb for the bandwidth.
        bandwidth = 1.06 * spread * pooled.shape[0] ** (-1 / 5)
        bandwidth = max(bandwidth, 1e-6)
        grid = np.linspace(0.0, float(np.max(pooled)), 200)

        def cumulative(samples: np.ndarray) -> np.ndarray:
            """P(X <= g) on the grid under a Gaussian KDE built on ``samples``."""
            z = (grid[:, None] - samples[None, :]) / bandwidth
            return np.mean(_standard_normal_cdf(z), axis=1)

        target_cdf = cumulative(target) * target.shape[0]
        non_target_cdf = cumulative(non_target) * non_target.shape[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            precision = np.where(
                target_cdf + non_target_cdf > 0,
                target_cdf / (target_cdf + non_target_cdf),
                1.0,
            )
        acceptable = np.flatnonzero(precision >= self.target_precision)
        if acceptable.shape[0] == 0:
            return None
        threshold = float(grid[acceptable[-1]])
        return threshold if threshold > 0 else None

    def _score_candidate(
        self,
        values: np.ndarray,
        label,
        threshold: float,
        distances: np.ndarray,
        match_ends: np.ndarray,
        target_mask: np.ndarray,
        series_length: int,
        source_index: int,
        source_position: int,
    ) -> Shapelet | None:
        matched = distances <= threshold
        matched_target = matched & target_mask
        matched_non_target = matched & ~target_mask
        n_matched = int(np.sum(matched))
        if n_matched == 0:
            return None
        precision = float(np.sum(matched_target)) / n_matched
        if precision < self.target_precision:
            return None
        # Earliness-weighted recall: matches that complete earlier in the
        # exemplar are worth more (this is what makes a shapelet "early").
        earliness_weights = 1.0 - (match_ends[matched_target] - 1) / series_length
        recall = float(np.sum(earliness_weights)) / max(int(np.sum(target_mask)), 1)
        utility = precision * recall
        if np.sum(matched_non_target) > 0 and precision < 1.0:
            utility *= precision
        return Shapelet(
            values=np.array(values, copy=True),
            label=label,
            threshold=float(threshold),
            utility=float(utility),
            precision=precision,
            source_index=int(source_index),
            source_position=int(source_position),
        )

    def _select_shapelets(
        self, candidates: list[Shapelet], data: np.ndarray, labels: np.ndarray
    ) -> list[Shapelet]:
        """Greedy utility-ordered selection until all training exemplars are covered."""
        ranked = sorted(candidates, key=lambda s: s.utility, reverse=True)
        covered = np.zeros(data.shape[0], dtype=bool)
        selected: list[Shapelet] = []
        for shapelet in ranked:
            distances, _ = _best_match_distances(shapelet.values[None, :], data)
            matches = (distances[0] <= shapelet.threshold) & (labels == shapelet.label)
            newly_covered = matches & ~covered
            if not np.any(newly_covered):
                continue
            selected.append(shapelet)
            covered |= matches
            if np.all(covered):
                break
        return selected if selected else ranked[:1]

    # ------------------------------------------------------------ prediction
    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix; ready as soon as any learned shapelet matches it."""
        arr = self._validate_prefix(prefix)
        length = arr.shape[0]
        best: Shapelet | None = None
        for shapelet in self.shapelets_:
            if shapelet.length > length:
                continue
            distance = self._best_match_in_prefix(shapelet.values, arr)
            if distance <= shapelet.threshold:
                if best is None or shapelet.utility > best.utility:
                    best = shapelet
        return self._partial_for(best, length)

    def _partial_for(self, best: Shapelet | None, length: int) -> PartialPrediction:
        """The prediction for a prefix whose highest-utility match is ``best``."""
        if best is not None:
            confidence = best.precision
            probabilities = {cls: 0.0 for cls in self.classes_}
            probabilities[best.label] = confidence
            others = [cls for cls in self.classes_ if cls != best.label]
            for cls in others:
                probabilities[cls] = (1.0 - confidence) / len(others)
            return PartialPrediction(
                label=best.label,
                ready=True,
                confidence=confidence,
                prefix_length=length,
                probabilities=probabilities,
            )
        uniform = 1.0 / len(self.classes_)
        return PartialPrediction(
            label=self._fallback_label,
            ready=False,
            confidence=uniform,
            prefix_length=length,
            probabilities={cls: uniform for cls in self.classes_},
        )

    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """Vectorised checkpoint evaluation for a whole test batch.

        A shapelet matches within prefix ``t`` when its best match over the
        windows ending at or before ``t`` is within its threshold.  The
        squared distance of every window of every row is the same
        ``diffs * diffs`` sum :meth:`_best_match_in_prefix` takes, and its
        running minimum along the window axis is that prefix's best match,
        so one pass per shapelet yields the first prefix length at which it
        matches each row.  Readiness at a checkpoint is then one comparison,
        and ``partial(i)`` picks among the matched shapelets with the same
        first-highest-utility rule as :meth:`predict_partial`.
        """
        n_rows, row_length = data.shape[0], data.shape[1]
        lengths = [c for c in self.checkpoints() if c <= row_length]
        if not lengths:
            return []
        never = row_length + 1
        first_match = np.full((len(self.shapelets_), n_rows), never, dtype=np.intp)
        for s, shapelet in enumerate(self.shapelets_):
            window = shapelet.length
            n_windows = row_length - window + 1
            if n_windows < 1:
                continue
            # The squared differences are formed in place, so a chunk holds
            # one (rows, windows, window[, channels]) float64 block.
            per_row = 8 * n_windows * shapelet.values.size
            chunk = max(1, get_memory_budget() // per_row)
            for start in range(0, n_rows, chunk):
                rows = data[start : start + chunk]
                diffs = _sliding_windows(rows, window) - shapelet.values
                np.multiply(diffs, diffs, out=diffs)
                squared = np.sum(diffs, axis=tuple(range(2, diffs.ndim)))
                best_so_far = np.minimum.accumulate(squared, axis=1)
                matched = np.sqrt(best_so_far) <= shapelet.threshold
                # The running minimum never grows, so a match persists and
                # the first matching window fixes the first matching length.
                first_match[s, start : start + chunk] = np.where(
                    matched[:, -1], np.argmax(matched, axis=1) + window, never
                )
        first_any = first_match.min(axis=0, initial=never)

        def make_checkpoint(length: int) -> BatchCheckpoint:
            def partial(i: int) -> PartialPrediction:
                best: Shapelet | None = None
                for s in np.flatnonzero(first_match[:, i] <= length):
                    shapelet = self.shapelets_[s]
                    if best is None or shapelet.utility > best.utility:
                        best = shapelet
                return self._partial_for(best, length)

            return BatchCheckpoint(
                length=length, partial=partial, ready=lambda: first_any <= length
            )

        return [make_checkpoint(length) for length in lengths]

    @staticmethod
    def _best_match_in_prefix(shapelet_values: np.ndarray, prefix: np.ndarray) -> float:
        windows = _sliding_windows(prefix[None], shapelet_values.shape[0])[0]
        diffs = windows - shapelet_values[None]
        # Channel-summed on (n_windows, window, n_channels) windows; the
        # univariate 2-D case reduces over the single trailing axis exactly
        # as before.
        sq = np.sum(diffs * diffs, axis=tuple(range(1, diffs.ndim)))
        return float(np.sqrt(np.min(sq)))

    def checkpoints(self) -> list[int]:
        """Prefix lengths evaluated at prediction time."""
        self._require_fitted()
        start = max(self.min_length, min((s.length for s in self.shapelets_), default=self.min_length))
        return list(range(start, self.train_length_ + 1))


def _index_within(mask: np.ndarray, absolute_index: int) -> int | list[int]:
    """Position of ``absolute_index`` within ``np.flatnonzero(mask)`` (or [] if absent)."""
    positions = np.flatnonzero(mask)
    found = np.flatnonzero(positions == absolute_index)
    return int(found[0]) if found.shape[0] else []


def _standard_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF (thin wrapper so the KDE code reads naturally)."""
    from scipy.special import ndtr

    return ndtr(z)
