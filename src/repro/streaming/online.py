"""The online streaming detection engine.

A deployed early classifier sees an unbounded stream and must treat every
``stride``-th sample as a potential pattern start.  This module runs that
deployment:

* :class:`StreamingSession` ingests samples (or chunks) one push at a time.
  Its per-stream state is the raw tail no completed window covers yet, the
  next candidate start and an :class:`AlarmGate`.  Each chunk's completed
  candidate windows are cut from the tail, normalised in one vectorised call
  (:func:`causal_znormalize_batch` in ``"causal"`` mode) and classified in
  one :meth:`~repro.classifiers.base.BaseEarlyClassifier.predict_early_batch`
  call;
* :class:`MultiStreamDetector` runs a batch of independent streams, one
  session per stream.

The serving engine (:mod:`repro.serving.engine`) cuts, validates and
normalises windows with the same private helper, so a dedicated session and
a served stream classify identical windows.

**Alarm semantics match the offline loop** (the equivalence suites in
``tests/test_streaming_online.py`` and ``tests/test_streaming_matrix.py``
pin this, field by field, against the oracle in ``tests/oracles``):
candidates start at every ``stride``-th sample, only candidates whose full
window fits in the stream may alarm, alarms are confirmed in candidate-start
order, and the refractory / ``max_alarms`` rules apply at confirmation.  A
candidate's outcome is a function of its own completed window only, so the
one consequence of being online is *latency*: a trigger at stream position
``p`` inside the candidate starting at ``s`` is emitted once sample
``s + L - 1`` has arrived, because until then the engine cannot know that the
candidate's window fits in the stream.

The ``"window"`` normalisation mode z-normalises each candidate with
whole-window statistics and therefore *requires future data* (the paper's
"peeking" flaw); it is supported for apples-to-apples experiments.  Only
``"none"`` and ``"causal"`` are genuinely online modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, EarlyPrediction
from repro.data.stream import ComposedStream
from repro.distance.znorm import EPSILON, znormalize
from repro.memory import get_memory_budget

__all__ = [
    "Alarm",
    "AlarmGate",
    "NormalizationMode",
    "SessionState",
    "causal_znormalize_batch",
    "StreamingSession",
    "MultiStreamDetector",
]

NormalizationMode = Literal["none", "window", "causal"]


@dataclass(frozen=True)
class Alarm:
    """An early-classification alarm raised on a stream.

    Attributes
    ----------
    position:
        Stream index at which the alarm was raised (the last sample the
        classifier had seen when it triggered).
    candidate_start:
        Stream index at which the candidate pattern was assumed to begin.
    label:
        The class the classifier committed to.
    confidence:
        The classifier's confidence at the trigger point.
    prefix_length:
        Number of samples of the candidate that had been observed.
    """

    position: int
    candidate_start: int
    label: object
    confidence: float
    prefix_length: int


class AlarmGate:
    """The per-stream alarm emission rule, factored out of the session.

    A completed candidate window is *confirmed* through the gate, which owns
    the three emission rules the offline detector defined: the ``max_alarms``
    saturation cap (once the cap is reached no later candidate may alarm),
    the refractory comparison against the last *emitted* alarm, and the alarm
    field assembly.  Candidates must be confirmed in candidate-start order --
    both :class:`StreamingSession` and the batched serving engine
    (:mod:`repro.serving`) do so by construction, which is what makes their
    alarm lists identical: the candidate *outcomes* depend only on each
    candidate's own (normalised) window, and everything order-dependent lives
    here.
    """

    __slots__ = ("refractory", "max_alarms", "alarms", "saturated", "_last_position")

    def __init__(self, refractory: int, max_alarms: int) -> None:
        if refractory < 0:
            raise ValueError("refractory must be non-negative")
        if max_alarms < 1:
            raise ValueError("max_alarms must be >= 1")
        self.refractory = refractory
        self.max_alarms = max_alarms
        self.alarms: list[Alarm] = []
        self.saturated = False
        self._last_position = -float("inf")

    def confirm(self, candidate_start: int, outcome: EarlyPrediction) -> Alarm | None:
        """Apply the emission rules to one completed candidate, in start order.

        Returns the emitted :class:`Alarm`, or ``None`` when the candidate
        did not trigger, fell inside the refractory period, or arrived at (or
        after) the saturation point.  Confirming the candidate that *reaches*
        the cap sets :attr:`saturated`; the caller should stop evaluating
        further candidates on the stream (the offline loop stops entirely),
        though confirming them through the gate anyway is harmless -- a
        saturated gate never emits.
        """
        if self.saturated or not outcome.triggered:
            return None
        if len(self.alarms) >= self.max_alarms:
            self.saturated = True
            return None
        position = candidate_start + outcome.trigger_length - 1
        if position - self._last_position < self.refractory:
            return None
        alarm = Alarm(
            position=int(position),
            candidate_start=int(candidate_start),
            label=outcome.label,
            confidence=float(outcome.confidence),
            prefix_length=int(outcome.trigger_length),
        )
        self.alarms.append(alarm)
        self._last_position = position
        return alarm


@dataclass(frozen=True)
class SessionState:
    """Exported snapshot of one :class:`StreamingSession`'s coalescable state.

    The serving layer's admission scheduler (and the monitoring surface) need
    a stable, read-only view of where a stream stands without reaching into
    session internals: how many samples have been consumed, which candidate
    windows are still in flight, and whether the emission gate has saturated.
    The snapshot is plain data -- safe to ship across threads or serialise
    into a metrics pipeline.
    """

    n_samples: int
    open_candidate_starts: tuple[int, ...]
    n_alarms: int
    saturated: bool
    finalized: bool


def causal_znormalize_batch(windows: np.ndarray) -> np.ndarray:
    """Causally z-normalise a whole bank of candidate windows in one pass.

    Sample ``i`` of row ``j`` is normalised with the statistics of
    ``windows[j, : i + 1]`` (``std < 1e-12 -> 0``, the batch convention of
    :data:`repro.distance.znorm.EPSILON`).  The running mean and variance
    follow Welford's recurrences in baseline-centred coordinates (each row is
    shifted by its first sample before summation), so a large DC offset never
    enters the cumulative sums; the property tests pin agreement with the
    naive per-prefix recomputation to ``<= 1e-10``.  This is the causal
    normalisation kernel of both the streaming session and the serving
    layer's batching scheduler.

    A 3-D ``(n_windows, length, n_channels)`` bank is normalised per
    channel -- the identical recurrences with the channel axis riding along.
    """
    arr = np.asarray(windows, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(
            "windows must be a 2-D (n_windows, length) array or a 3-D "
            "(n_windows, length, n_channels) multichannel bank; got shape "
            f"{arr.shape}"
        )
    if arr.shape[1] == 0:
        return arr.copy()
    counts = np.arange(1.0, arr.shape[1] + 1.0)[None, :]
    if arr.ndim == 3:
        counts = counts[:, :, None]
    baseline = arr[:, :1]
    shifted = arr - baseline
    shifted_means = np.cumsum(shifted, axis=1) / counts
    previous_shifted_means = np.concatenate(
        [-baseline, shifted_means[:, :-1]], axis=1
    )
    m2 = np.cumsum(
        (shifted - previous_shifted_means) * (shifted - shifted_means), axis=1
    )
    std = np.sqrt(np.maximum(m2, 0.0) / counts)
    out = np.zeros_like(std)
    np.divide(shifted - shifted_means, std, out=out, where=std >= EPSILON)
    return out


class _WindowTail:
    """One stream's window cursor: raw tail, next candidate start, mode.

    The single window path of the package.  :class:`StreamingSession` and the
    serving engine's per-stream ledger both validate chunks, cut completed
    candidate windows and normalise them here.  Between calls the buffer
    holds only the samples an incomplete candidate window still needs (at
    most ``L - 1``).
    """

    __slots__ = (
        "window_length",
        "n_channels",
        "stride",
        "normalization",
        "buffer",
        "base",
        "count",
        "next_start",
    )

    def __init__(
        self, classifier: BaseEarlyClassifier, stride: int, normalization: str
    ) -> None:
        self.window_length = classifier.train_length_
        self.n_channels = classifier.n_channels_
        self.stride = stride
        self.normalization = normalization
        self.buffer = self._empty_buffer()
        self.base = 0  # stream index of buffer[0]
        self.count = 0  # samples consumed so far
        self.next_start = 0  # earliest candidate start not yet extracted

    def validate(self, values: np.ndarray) -> np.ndarray:
        """A chunk as a float array of this stream's sample shape, all finite."""
        chunk = np.asarray(values, dtype=float)
        if self.n_channels == 1:
            if chunk.ndim != 1:
                raise ValueError("stream values must be 1-D")
        elif chunk.ndim != 2 or chunk.shape[1] != self.n_channels:
            raise ValueError(
                "stream values must be a 2-D (n_samples, n_channels) chunk "
                f"with n_channels={self.n_channels} (axis 0 = time, axis 1 = "
                f"channel); got shape {chunk.shape}"
            )
        if not np.all(np.isfinite(chunk)):
            raise ValueError("stream contains non-finite values")
        return chunk

    def n_ready(self, n_more: int = 0) -> int:
        """Completed windows not yet extracted once ``n_more`` samples arrive."""
        room = self.count + n_more - self.window_length - self.next_start
        return room // self.stride + 1 if room >= 0 else 0

    def open_starts(self) -> tuple[int, ...]:
        """Starts of the candidates born but not yet complete (none once released)."""
        return tuple(range(self.next_start, self.count, self.stride))

    def append(self, chunk: np.ndarray) -> None:
        """Ingest a validated chunk."""
        self.buffer = np.concatenate([self.buffer, chunk])
        self.count += chunk.shape[0]

    def extract(self, limit: int | None = None) -> tuple[range, np.ndarray]:
        """Pop up to ``limit`` completed windows, in candidate-start order.

        Call only when :meth:`n_ready` is positive.  Returns the candidate
        starts and a copy of the raw windows stacked into one ``(n, L)`` (or
        ``(n, L, d)``) array.
        """
        n = self.n_ready() if limit is None else min(self.n_ready(), limit)
        starts = range(self.next_start, self.next_start + n * self.stride, self.stride)
        windows = np.array(
            [self.buffer[s - self.base : s - self.base + self.window_length] for s in starts]
        )
        self.next_start += n * self.stride
        keep = min(self.next_start, self.count) - self.base
        self.buffer = self.buffer[keep:]
        self.base += keep
        return starts, windows

    def normalize(self, windows: np.ndarray) -> np.ndarray:
        """Apply the stream's normalisation mode to a stack of windows.

        ``"window"`` z-normalises each row with whole-window statistics (the
        paper's "peeking" mode); ``"causal"`` runs
        :func:`causal_znormalize_batch`.
        """
        if self.normalization == "none":
            return windows
        if self.normalization == "window":
            return znormalize(windows)
        if self.normalization == "causal":
            return causal_znormalize_batch(windows)
        raise ValueError(f"unknown normalization mode {self.normalization!r}")

    def release(self) -> None:
        """Drop the buffer (stream closed or saturated; no window can form)."""
        self.buffer = self._empty_buffer()
        self.base = self.next_start = self.count

    def _empty_buffer(self) -> np.ndarray:
        """An empty buffer of the stream's sample shape: ``(0,)`` or ``(0, d)``."""
        if self.n_channels == 1:
            return np.empty(0)
        return np.empty((0, self.n_channels))


class StreamingSession:
    """Online detection over one stream: push samples in, get alarms out.

    Parameters mirror :class:`~repro.streaming.detector.StreamingEarlyDetector`
    (same defaults, same semantics).  Every ``stride``-th sample opens a
    candidate window; a candidate is classified once its window completes,
    and *confirmed* -- its alarm emitted, the refractory and ``max_alarms``
    rules applied -- in candidate-start order.  Candidates whose window never
    completes (the stream ended first) are discarded at :meth:`finalize`,
    matching the offline detector's candidate eligibility.

    Each :meth:`extend` classifies the windows its chunk completes in
    blocks: one normalisation call and one
    :meth:`~repro.classifiers.base.BaseEarlyClassifier.predict_early_batch`
    call per block, with the block's raw windows sized to
    :func:`repro.memory.get_memory_budget`.  Confirmation stops at
    saturation, so no candidate after the ``max_alarms`` cap is classified
    beyond the block that reached it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.classifiers.threshold import ProbabilityThresholdClassifier
    >>> rng = np.random.default_rng(0)
    >>> series = np.vstack([rng.normal(i, 0.1, size=(5, 30)) for i in (0, 3)])
    >>> labels = ["lo"] * 5 + ["hi"] * 5
    >>> model = ProbabilityThresholdClassifier(min_length=4).fit(series, labels)
    >>> session = StreamingSession(model, stride=5, normalization="none")
    >>> for chunk in np.split(rng.normal(0.0, 0.1, size=300), 10):
    ...     _ = session.extend(chunk)
    >>> alarms = session.finalize()
    """

    def __init__(
        self,
        classifier: BaseEarlyClassifier,
        stride: int | None = None,
        normalization: NormalizationMode = "none",
        refractory: int | None = None,
        max_alarms: int = 100_000,
    ) -> None:
        if not isinstance(classifier, BaseEarlyClassifier):
            raise TypeError("classifier must be a BaseEarlyClassifier")
        if not classifier.is_fitted:
            raise ValueError("classifier must be fitted before building a session")
        if normalization not in ("none", "window", "causal"):
            raise ValueError("normalization must be 'none', 'window' or 'causal'")
        self.classifier = classifier
        self.window_length = classifier.train_length_
        self.n_channels = classifier.n_channels_
        self.stride = stride if stride is not None else max(1, self.window_length // 4)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.normalization = normalization
        refractory = refractory if refractory is not None else self.window_length // 2
        # The gate owns the emission rules (saturation cap, refractory,
        # alarm assembly) and validates its parameters; the serving engine
        # reuses the same class so the two layers cannot drift.
        self._gate = AlarmGate(refractory, max_alarms)
        self.refractory = self._gate.refractory
        self.max_alarms = self._gate.max_alarms
        self._tail = _WindowTail(classifier, self.stride, normalization)
        self._finalized = False

    # ------------------------------------------------------------ properties
    @property
    def n_samples(self) -> int:
        """Number of stream samples consumed so far."""
        return self._tail.count

    @property
    def n_open_candidates(self) -> int:
        """Number of candidate windows currently in flight."""
        return len(self.export_state().open_candidate_starts)

    @property
    def alarms(self) -> list[Alarm]:
        """All alarms confirmed so far (copy)."""
        return list(self._gate.alarms)

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has been called."""
        return self._finalized

    def export_state(self) -> SessionState:
        """Read-only snapshot of the session's coalescable state.

        See :class:`SessionState`; this is the view the serving layer's
        scheduler and the monitoring surface consume.
        """
        return SessionState(
            n_samples=self._tail.count,
            open_candidate_starts=self._tail.open_starts(),
            n_alarms=len(self._gate.alarms),
            saturated=self._gate.saturated,
            finalized=self._finalized,
        )

    # ------------------------------------------------------------ ingestion
    def push(self, value) -> list[Alarm]:
        """Consume one sample; return the alarms it confirmed (possibly none).

        ``value`` is a scalar on univariate streams and a length-``d`` vector
        (one reading per channel) when the classifier is multichannel.
        """
        if self.n_channels == 1:
            return self.extend(np.asarray([value], dtype=float))
        return self.extend(np.asarray(value, dtype=float)[None])

    def extend(self, values: np.ndarray) -> list[Alarm]:
        """Consume a chunk of samples; return the alarms the chunk confirmed."""
        if self._finalized:
            raise RuntimeError("the session has been finalized")
        tail = self._tail
        chunk = tail.validate(values)
        if chunk.shape[0] == 0:
            return []
        if self._gate.saturated:
            tail.count += chunk.shape[0]
            tail.release()
            return []
        emitted_from = len(self._gate.alarms)
        tail.append(chunk)
        window_bytes = self.window_length * self.n_channels * 8
        rows = max(1, get_memory_budget() // window_bytes)
        while tail.n_ready():
            starts, windows = tail.extract(rows)
            outcomes = self.classifier.predict_early_batch(tail.normalize(windows))
            for start, outcome in zip(starts, outcomes):
                self._gate.confirm(start, outcome)
                if self._gate.saturated:
                    # The offline loop stops evaluating candidates entirely
                    # once the cap is reached; no later candidate may alarm.
                    tail.release()
                    return self._gate.alarms[emitted_from:]
        return self._gate.alarms[emitted_from:]

    def finalize(self) -> list[Alarm]:
        """Declare the stream over and return the full alarm list.

        Candidates whose window never completed are discarded -- the offline
        detector never considers a start that cannot fit a full window.
        """
        if not self._finalized:
            self._finalized = True
            self._tail.release()
        return list(self._gate.alarms)


class MultiStreamDetector:
    """Run a batch of independent streams, one online session per stream.

    Streams may have different lengths; each stream's alarm list is exactly
    what a standalone :class:`StreamingSession` (and therefore the offline
    detector) would produce for it.

    Parameters
    ----------
    classifier, stride, normalization, refractory, max_alarms:
        As for :class:`StreamingSession`; shared by every stream.
    """

    def __init__(
        self,
        classifier: BaseEarlyClassifier,
        stride: int | None = None,
        normalization: NormalizationMode = "none",
        refractory: int | None = None,
        max_alarms: int = 100_000,
    ) -> None:
        # Validate the shared parameters eagerly (and fail before any data
        # arrives) by building a throwaway session.
        probe = StreamingSession(
            classifier,
            stride=stride,
            normalization=normalization,
            refractory=refractory,
            max_alarms=max_alarms,
        )
        self.classifier = classifier
        self.stride = probe.stride
        self.normalization = probe.normalization
        self.refractory = probe.refractory
        self.max_alarms = probe.max_alarms

    def detect(
        self, streams: Sequence[ComposedStream | np.ndarray]
    ) -> list[list[Alarm]]:
        """Run every stream through its own session; return per-stream alarms."""
        if len(streams) == 0:
            raise ValueError("need at least one stream")
        per_stream = []
        for stream in streams:
            values = stream.values if isinstance(stream, ComposedStream) else stream
            session = StreamingSession(
                self.classifier,
                stride=self.stride,
                normalization=self.normalization,
                refractory=self.refractory,
                max_alarms=self.max_alarms,
            )
            session.extend(values)
            per_stream.append(session.finalize())
        return per_stream

    def evaluate(
        self,
        streams: Sequence[ComposedStream],
        target_labels: tuple | None = None,
        onset_tolerance: int = 0,
    ):
        """Detect on annotated streams and merge the per-stream evaluations.

        Returns
        -------
        repro.streaming.metrics.StreamingEvaluation
            Fleet-level counts/rates via
            :func:`repro.streaming.metrics.merge_evaluations`.
        """
        # Imported lazily: metrics sits above this module in the layering.
        from repro.streaming.metrics import evaluate_alarms, merge_evaluations

        for stream in streams:
            if not isinstance(stream, ComposedStream):
                raise TypeError("evaluate() needs annotated ComposedStream inputs")
        per_stream = self.detect(streams)
        return merge_evaluations(
            [
                evaluate_alarms(
                    alarms,
                    stream,
                    target_labels=target_labels,
                    onset_tolerance=onset_tolerance,
                )
                for alarms, stream in zip(per_stream, streams)
            ]
        )
