"""Streaming equivalence matrix: every classifier, every normalisation mode.

Three ways of running one fitted model over one annotated stream must raise
the same alarms:

* ``StreamingEarlyDetector.detect`` (a :class:`StreamingSession` over the
  whole stream) against the offline oracle in ``tests/oracles/streaming.py``
  -- every field exact, confidence to 1e-10;
* a dedicated :class:`StreamingSession` fed in chunks against a
  single-stream :class:`ServingEngine` fed other chunks, flushed after every
  push.

Each side gets its own ``copy.deepcopy`` of one fitted model, so a
classifier whose predictions consume shared random state (Reliable, LDG)
must see its candidate windows in the same order on every path.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.classifiers.cost_aware import CostAwareEarlyClassifier
from repro.classifiers.ecdire import ECDIREClassifier
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.full import FixedTruncationClassifier, FullLengthClassifier
from repro.classifiers.reliable import LDGReliableEarlyClassifier, ReliableEarlyClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.stream import StreamComposer
from repro.memory import memory_budget
from repro.serving import ModelRegistry, ServingEngine, TenantConfig
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.online import StreamingSession

from tests.oracles.streaming import detect_reference
from tests.test_streaming_online import assert_alarms_equivalent

STRIDE = 6
SESSION_CHUNK = 97
ENGINE_CHUNK = 41

#: One factory per classifier class, EDSC under both threshold methods.
CLASSIFIERS = {
    "ects": lambda: ECTSClassifier(min_support=0.0),
    "relaxed-ects": lambda: RelaxedECTSClassifier(min_support=0.0),
    "edsc-che": lambda: EDSCClassifier(threshold_method="che"),
    "edsc-kde": lambda: EDSCClassifier(threshold_method="kde"),
    "reliable": lambda: ReliableEarlyClassifier(),
    "ldg": lambda: LDGReliableEarlyClassifier(),
    "teaser": lambda: TEASERClassifier(n_checkpoints=8),
    "ecdire": lambda: ECDIREClassifier(n_checkpoints=8),
    "cost-aware": lambda: CostAwareEarlyClassifier(n_checkpoints=8),
    "threshold": lambda: ProbabilityThresholdClassifier(threshold=0.8, min_length=5),
    "full-length": lambda: FullLengthClassifier(),
    "fixed-truncation": lambda: FixedTruncationClassifier(),
}

MODES = ["none", "window", "causal"]


@pytest.fixture(scope="module")
def fitted(gunpoint_small):
    train, _ = gunpoint_small
    return {
        name: factory().fit(train.series, train.labels)
        for name, factory in CLASSIFIERS.items()
    }


@pytest.fixture(scope="module")
def stream(gunpoint_small):
    """Test exemplars of both classes in low noise, plus background jitter."""
    _, test = gunpoint_small
    composer = StreamComposer(
        background=np.zeros(1_200), gap_range=(40, 90), level_match=False, seed=5
    )
    picks = [0, 15, 1, 16, 2, 17]
    composed = composer.compose(
        [test.series[i] for i in picks], [test.labels[i] for i in picks]
    )
    rng = np.random.default_rng(13)
    return composed.values + 0.05 * rng.standard_normal(len(composed))


def _served(model, values, stride, normalization, chunk=ENGINE_CHUNK, refractory=None):
    config = TenantConfig(
        stride=stride, normalization=normalization, refractory=refractory
    ).resolve(model)
    registry = ModelRegistry()
    registry.register("t", model, config)
    engine = ServingEngine(registry)
    for offset in range(0, values.shape[0], chunk):
        engine.push("t", "s", values[offset : offset + chunk])
        engine.flush()
    return engine.finalize_stream("t", "s")


@pytest.mark.parametrize("normalization", MODES)
@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_detect_matches_oracle(fitted, stream, name, normalization):
    model = fitted[name]
    reference = detect_reference(
        StreamingEarlyDetector(copy.deepcopy(model), stride=STRIDE, normalization=normalization),
        stream,
    )
    detector = StreamingEarlyDetector(
        copy.deepcopy(model), stride=STRIDE, normalization=normalization
    )
    assert_alarms_equivalent(reference, detector.detect(stream))


@pytest.mark.parametrize("normalization", MODES)
@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_session_matches_serving_engine(fitted, stream, name, normalization):
    model = fitted[name]
    session = StreamingSession(
        copy.deepcopy(model), stride=STRIDE, normalization=normalization
    )
    for offset in range(0, stream.shape[0], SESSION_CHUNK):
        session.extend(stream[offset : offset + SESSION_CHUNK])
    served = _served(copy.deepcopy(model), stream, STRIDE, normalization)
    assert_alarms_equivalent(session.finalize(), served)


def test_matrix_stream_raises_alarms(fitted, stream):
    """The matrix is not vacuous: the stream makes most classifiers alarm."""
    alarming = [
        name
        for name, model in fitted.items()
        if StreamingEarlyDetector(model, stride=STRIDE, normalization="window").detect(stream)
    ]
    assert len(alarming) >= 10


def test_stride_longer_than_window(fitted, stream):
    """Gaps between candidates: the served tail skips the unused samples."""
    model = fitted["threshold"]
    stride = model.train_length_ + 7
    detector = StreamingEarlyDetector(model, stride=stride, normalization="causal", refractory=0)
    reference = detect_reference(detector, stream)
    assert reference
    assert_alarms_equivalent(reference, detector.detect(stream))
    assert_alarms_equivalent(reference, _served(model, stream, stride, "causal", refractory=0))


@pytest.mark.parametrize("max_alarms", [1, 3])
def test_one_window_blocks_match_oracle(fitted, stream, max_alarms):
    """A one-byte memory budget classifies one window per block."""
    model = fitted["ects"]
    detector = StreamingEarlyDetector(
        model, stride=STRIDE, normalization="causal", refractory=0, max_alarms=max_alarms
    )
    reference = detect_reference(detector, stream)
    assert len(reference) == max_alarms
    with memory_budget(1):
        assert_alarms_equivalent(reference, detector.detect(stream))


def test_multichannel_session_matches_serving_engine(gunpoint_small, stream):
    train, _ = gunpoint_small
    series = np.stack([train.series, -train.series], axis=-1)
    model = ECTSClassifier(min_support=0.0).fit(series, train.labels)
    values = np.stack([stream, -stream], axis=-1)
    session = StreamingSession(model, stride=STRIDE, normalization="causal")
    session.extend(values)
    alarms = session.finalize()
    assert alarms
    assert_alarms_equivalent(alarms, _served(model, values, STRIDE, "causal"))
