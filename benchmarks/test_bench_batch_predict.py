"""Benchmark for the batched test-set-at-once prediction engine.

Every headline number of the paper (Table 1, Figures 6-9) is a full test set
driven through an early classifier.  The seed behaviour fed exemplars one at
a time through ``predict_early``; ``predict_early_batch`` answers the whole
test set from one :func:`repro.distance.engine.batch_prefix_distances` pass
plus vectorised per-checkpoint statistics.  These benchmarks time Table 1
style evaluations both ways -- ECTS, the table's lead algorithm, on a
GunPoint-like split, and EDSC-CHE on Table 1's own 25/75 GunPoint split --
and assert the batched path is at least 5x faster while reproducing the
per-row answers exactly.  Both absolute times, the ratio and the row count
go to the module's ``BENCH_batch_predict.json`` record.
"""

from __future__ import annotations

import time

from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.data.gunpoint import GunPointGenerator, make_gunpoint_dataset
from repro.evaluation.earliness import evaluate_early_classifier

N_PER_CLASS = 90
LENGTH = 150
REQUIRED_SPEEDUP = 5.0


def _make_split():
    full = GunPointGenerator(length=LENGTH, seed=7).generate(
        n_per_class=N_PER_CLASS, seed=7
    )
    indices = range(2 * N_PER_CLASS)
    train = full.subset([i for i in indices if i % 6 == 0])  # 30 exemplars
    test = full.subset([i for i in indices if i % 6 != 0])  # 150 exemplars
    return train, test


def _best_of(function, repeats: int = 3):
    """Smallest wall-clock time over ``repeats`` runs (robust to CI jitter)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_batch_predict_speedup(run_once, bench_metrics):
    train, test = _make_split()
    model = ECTSClassifier(min_support=0.0).fit(train.series, train.labels)

    perrow_seconds, perrow = _best_of(
        lambda: evaluate_early_classifier(model, test.series, test.labels, batch=False)
    )
    batch_seconds, batched = _best_of(
        lambda: evaluate_early_classifier(model, test.series, test.labels, batch=True)
    )
    # Record the batched evaluation under the benchmark timer for the log.
    run_once(evaluate_early_classifier, model, test.series, test.labels)

    # Same answer: the equivalence suite pins per-outcome agreement; here the
    # aggregate metrics must be exactly equal, or the speedup is meaningless.
    assert batched == perrow

    speedup = perrow_seconds / batch_seconds
    bench_metrics.update(
        speedup=speedup,
        perrow_seconds=perrow_seconds,
        batch_seconds=batch_seconds,
        n_rows=test.series.shape[0],
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x speedup on the "
        f"{test.series.shape[0]}-exemplar Table 1 style evaluation, measured "
        f"{speedup:.1f}x (per-row {perrow_seconds * 1e3:.1f} ms, "
        f"batched {batch_seconds * 1e3:.1f} ms)"
    )


def test_bench_edsc_batch_predict_speedup(run_once, bench_metrics):
    """EDSC's batched prefix matching against its per-row walk on Table 1's split."""
    train, test = make_gunpoint_dataset(n_train_per_class=25, n_test_per_class=75, seed=7)
    model = EDSCClassifier(threshold_method="che").fit(train.series, train.labels)

    perrow_seconds, perrow = _best_of(
        lambda: [model.predict_early(row) for row in test.series]
    )
    batch_seconds, batched = _best_of(lambda: model.predict_early_batch(test.series))
    run_once(model.predict_early_batch, test.series)

    assert [
        (o.label, o.trigger_length, o.triggered, o.confidence) for o in batched
    ] == [(o.label, o.trigger_length, o.triggered, o.confidence) for o in perrow]

    speedup = perrow_seconds / batch_seconds
    bench_metrics.update(
        speedup=speedup,
        perrow_seconds=perrow_seconds,
        batch_seconds=batch_seconds,
        n_rows=test.series.shape[0],
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x speedup on the "
        f"{test.series.shape[0]}-exemplar EDSC-CHE evaluation, measured "
        f"{speedup:.1f}x (per-row {perrow_seconds * 1e3:.1f} ms, "
        f"batched {batch_seconds * 1e3:.1f} ms)"
    )
