"""The offline streaming loop: materialise, slice, re-predict per candidate.

This is the semantic reference for
:class:`repro.streaming.online.StreamingSession` (and therefore for
:meth:`repro.streaming.detector.StreamingEarlyDetector.detect` and the
serving engine): every ``stride``-th start whose window fits in the stream
is normalised with an ``O(L^2)`` pure-Python loop in ``"causal"`` mode and
classified from scratch with ``predict_early``, in start order, applying the
refractory and ``max_alarms`` rules as it goes.
"""

from __future__ import annotations

import numpy as np

from repro.distance.znorm import znormalize
from repro.streaming.online import Alarm


def prepare_window(window: np.ndarray, normalization: str) -> np.ndarray:
    """Normalise one raw candidate window the naive way."""
    if normalization == "none":
        return window
    if normalization == "window":
        return znormalize(window)
    # causal: normalise each sample with the statistics of the window seen
    # so far; the classifier then receives a prefix whose early samples were
    # normalised with very little context, exactly as a live system would
    # have to.
    out = np.zeros_like(window)
    for i in range(window.shape[0]):
        seen = window[: i + 1]
        std = seen.std()
        if std < 1e-12:
            out[i] = 0.0
        else:
            out[i] = (window[i] - seen.mean()) / std
    return out


def detect_reference(detector, stream) -> list[Alarm]:
    """The alarms of ``detector`` (a ``StreamingEarlyDetector``) on ``stream``."""
    values = detector._as_values(stream)
    if values.shape[0] < detector.window_length:
        raise ValueError("stream is shorter than one candidate window")

    alarms: list[Alarm] = []
    last_alarm_position = -np.inf
    last_start = values.shape[0] - detector.window_length
    for start in range(0, last_start + 1, detector.stride):
        if len(alarms) >= detector.max_alarms:
            break
        window = values[start : start + detector.window_length]
        prepared = prepare_window(window, detector.normalization)
        outcome = detector.classifier.predict_early(prepared)
        if not outcome.triggered:
            continue
        position = start + outcome.trigger_length - 1
        if position - last_alarm_position < detector.refractory:
            continue
        alarms.append(
            Alarm(
                position=int(position),
                candidate_start=int(start),
                label=outcome.label,
                confidence=float(outcome.confidence),
                prefix_length=int(outcome.trigger_length),
            )
        )
        last_alarm_position = position
    return alarms
