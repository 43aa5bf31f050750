"""The benchmark's four workloads: inputs from a seed, a timed pass, checks.

Each workload is a class with the same steps, driven by
``perfbench/child.py``:

* ``setup(seed, work_dir, open_seconds)`` does what a user pays once
  before the first pass: it builds the inputs (and any fitted models) from
  the seed, or, for ``table1``, whose inputs are made inside the pass,
  imports the program in a fresh interpreter.  The program only ever sees
  the inputs it returns.
* ``run_pass(state, index)`` is the timed unit of work.
* ``check(state, output, index)`` runs after each pass, untimed, and
  returns ``(attempted, failed, problems)``: operations attempted,
  operations that failed an output check, and a description of each
  failure.  The output is dropped afterwards, so peak memory does not grow
  with the number of passes.
* ``open_loop(state, host)`` exists only on ``serving-fleet``: its alarms are the
  responses behind ``latency_p50_ms`` (and the traced run's
  ``serving.confirm_p95_ms``).  On the other workloads the user gets one
  answer per pass (a table, a sweep summary, a vector of labels), so a pass
  is one response.

``SAMPLES`` is the number of series samples one pass consumes; it turns a
pass time into ``throughput_sps``.  ``EXPECTED`` names the entry points
(``module:attribute``, as in ``perfbench/spans.py``) that the traced run
must see fire on this workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS"]

GUNPOINT_LENGTH = 150
N_TRAIN_PER_CLASS = 25
N_TEST_PER_CLASS = 75
#: GunPoint archive split: 50 train + 150 test exemplars of length 150.
GUNPOINT_SAMPLES = 2 * (N_TRAIN_PER_CLASS + N_TEST_PER_CLASS) * GUNPOINT_LENGTH


def _gunpoint(seed: int):
    from repro.data.gunpoint import make_gunpoint_dataset

    return make_gunpoint_dataset(
        n_train_per_class=N_TRAIN_PER_CLASS,
        n_test_per_class=N_TEST_PER_CLASS,
        length=GUNPOINT_LENGTH,
        seed=seed,
    )


class Table1:
    """The paper's Table 1 audit through the registry path users run.

    Every pass audits the GunPoint split of ``DATA_SEED`` (the experiment's
    default, the paper's one split); the seed draws the denormalisation
    offsets of the test set.  Table 1's cost depends on the split (how far
    each row walks before it triggers: 7.7 s to 14.5 s per split over data
    seeds 0-19 on a 2-vCPU Xeon), so a seed that drew the split would time
    different work in every run; over denormalisation seeds 1-6 one audit
    of the fixed split took 10.3-11.6 s.

    ``run_experiment`` synthesises its data inside the pass, so set-up is the
    program's one-time cost before the first audit: a fresh interpreter
    importing ``repro.experiments.registry`` (what ``python -m
    repro.experiments table1`` pays before it starts).
    """

    name = "table1"
    DATA_SEED = 7
    SAMPLES = GUNPOINT_SAMPLES
    #: Six algorithms x two test conditions, plus the control's two.
    CELLS = 14
    MIN_DROP = 0.05
    EXPECTED = [
        "repro.data.gunpoint:make_gunpoint_dataset",
        "repro.data.denormalize:denormalize_dataset",
        "repro.distance.engine:PrefixSweep.advance_to",
        "repro.distance.euclidean:pairwise_euclidean",
        "repro.distance.znorm:znormalize",
        "repro.distance.neighbors:KNeighborsTimeSeriesClassifier.fit",
        "repro.distance.neighbors:KNeighborsTimeSeriesClassifier.score",
        "repro.classifiers.base:BaseEarlyClassifier.fit",
        "repro.classifiers.base:BaseEarlyClassifier.predict_early_batch",
        "repro.classifiers.base:BaseEarlyClassifier.predict_early",
        "repro.core.normalization_audit:audit_normalization_sensitivity",
        "repro.evaluation.earliness:evaluate_early_classifier",
        "repro.experiments.registry:run_experiment",
    ]

    def setup(self, seed: int, work_dir: Path, open_seconds: float):
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.registry"],
            check=True,
            stdin=subprocess.DEVNULL,
        )
        import repro.experiments.registry  # noqa: F401  (so no pass pays the import)

        return {"seed": seed}

    def run_pass(self, state, index: int):
        from repro.experiments.registry import run_experiment

        return run_experiment(
            "table1",
            fast=True,
            n_train_per_class=N_TRAIN_PER_CLASS,
            n_test_per_class=N_TEST_PER_CLASS,
            seed=self.DATA_SEED,
            denormalize_seed=state["seed"],
        )

    def check(self, state, result, index: int):
        """Six audits, every algorithm loses > 5 points, and the control does not move.

        On the fixed split the smallest loss over denormalisation seeds 1-6
        was 14 points (ECTS).  A miss fails the algorithm's denormalised cell.
        """
        if len(result.audits) != 6:
            return self.CELLS, self.CELLS, [f"pass {index}: {len(result.audits)} audits, not 6"]
        failed, problems = 0, []
        for algorithm, normalized, denormalized in result.rows():
            if normalized - denormalized <= self.MIN_DROP:
                failed += 1
                problems.append(
                    f"pass {index}: {algorithm} lost only {normalized - denormalized:.3f} "
                    "under denormalisation"
                )
        if result.control_normalized != result.control_denormalized:
            failed += 1
            problems.append(
                f"pass {index}: control moved "
                f"{result.control_normalized:.3f} -> {result.control_denormalized:.3f}"
            )
        return self.CELLS, failed, problems


class ServingFleet:
    """1,000 streams over four tenants: two share ECTS, two share TEASER.

    The closed loop (one pass) pushes every stream's next 50-sample chunk,
    flushes, and repeats until each stream has sent ``CLOSED_SAMPLES``
    samples.  The open loop (:meth:`open_loop`) replays other streams at a
    fixed fleet rate.

    The models are fitted on the GunPoint split of ``MODEL_SEED`` in every
    run; the seed drives the traffic (noise, the events' exemplars and
    positions, the push phases).  Models fitted on other splits serve at very
    different speeds (closed-loop capacity from 230k to 590k samples/s over
    seeds 1-5), which would swamp any change to the serving path itself.
    """

    name = "serving-fleet"
    N_STREAMS = 1_000
    N_TENANTS = 4
    CHUNK = 50
    STRIDE = 50
    CLOSED_SAMPLES = 300
    EVENT_BLOCK = 300
    EVENT_EVERY = 7
    SAMPLES = N_STREAMS * CLOSED_SAMPLES
    #: Open loop: a tick is due every 50 ms; each stream pushes one chunk
    #: every ``PUSH_PERIOD_TICKS`` ticks, phases staggered across the fleet,
    #: so the fleet rate is N_STREAMS * CHUNK / (PUSH_PERIOD_TICKS *
    #: TICK_SECONDS) = 50,000 samples/s.  That is a fifth of the closed-loop
    #: capacity measured on commit 50216b7 (270k samples/s): a tick's flush
    #: carries a tenth of a closed-loop flush's windows, so per-flush costs weigh
    #: more, and at 100,000 samples/s the open loop fell behind in 3 of 10
    #: runs (generator lag p99 of 58-256 ms).
    MODEL_SEED = 7
    TICK_SECONDS = 0.05
    PUSH_PERIOD_TICKS = 20
    OPEN_RATE_SPS = N_STREAMS * CHUNK / (PUSH_PERIOD_TICKS * TICK_SECONDS)
    #: Streams whose alarms are compared with a dedicated StreamingSession.
    CHECK_EVERY = 37
    EXPECTED = [
        "repro.data.gunpoint:make_gunpoint_dataset",
        "repro.distance.engine:PrefixSweep.advance_to",
        "repro.distance.euclidean:pairwise_euclidean",
        "repro.classifiers.base:BaseEarlyClassifier.fit",
        "repro.classifiers.base:BaseEarlyClassifier.predict_early_batch",
        "repro.streaming.online:causal_znormalize_batch",
        "repro.streaming.online:AlarmGate.confirm",
        "repro.serving.engine:ServingEngine.push",
        "repro.serving.engine:ServingEngine.flush",
        "repro.serving.scheduler:BatchScheduler.evaluate",
    ]

    def tenant(self, stream: int) -> str:
        return f"tenant-{stream % self.N_TENANTS}"

    @staticmethod
    def same_alarms(served, expected) -> bool:
        """The serving layer's equivalence contract with a dedicated session.

        Position, candidate start, label and prefix length are exact; the
        confidence agrees to 1e-10, as in the repository's serving suite,
        because batched evaluation sums in another order than a session.
        """
        return len(served) == len(expected) and all(
            (a.position, a.candidate_start, a.label, a.prefix_length)
            == (b.position, b.candidate_start, b.label, b.prefix_length)
            and abs(a.confidence - b.confidence) <= 1e-10
            for a, b in zip(served, expected)
        )

    def _streams(self, rng, test, length: int) -> np.ndarray:
        """Gaussian noise; every seventh stream carries a GunPoint event per 300 samples."""
        streams = rng.normal(0.0, 1.0, size=(self.N_STREAMS, length))
        exemplars = np.asarray(test.series)
        for stream in range(0, self.N_STREAMS, self.EVENT_EVERY):
            for block in range(0, length - self.EVENT_BLOCK + 1, self.EVENT_BLOCK):
                offset = block + int(rng.integers(0, self.EVENT_BLOCK - GUNPOINT_LENGTH + 1))
                pick = int(rng.integers(0, exemplars.shape[0]))
                streams[stream, offset : offset + GUNPOINT_LENGTH] = exemplars[pick]
        return streams

    def setup(self, seed: int, work_dir: Path, open_seconds: float):
        from repro.classifiers.ects import ECTSClassifier
        from repro.classifiers.teaser import TEASERClassifier
        from repro.serving.registry import ModelRegistry, TenantConfig

        rng = np.random.default_rng(seed)
        train, _ = _gunpoint(self.MODEL_SEED)
        _, test = _gunpoint(seed)
        ects = ECTSClassifier(checkpoint_step=10).fit(train.series, train.labels)
        teaser = TEASERClassifier().fit(train.series, train.labels)
        registry = ModelRegistry()
        config = TenantConfig(stride=self.STRIDE, normalization="causal")
        for index in range(self.N_TENANTS):
            registry.register(f"tenant-{index}", ects if index < 2 else teaser, config)
        # At least four chunks per stream, so windows complete and alarms fire
        # even when a short --seconds leaves the open loop little time.
        n_ticks = max(int(round(open_seconds / self.TICK_SECONDS)), 4 * self.PUSH_PERIOD_TICKS)
        open_samples = -(-n_ticks // self.PUSH_PERIOD_TICKS) * self.CHUNK
        open_length = self.EVENT_BLOCK * max(1, -(-open_samples // self.EVENT_BLOCK))
        return {
            "registry": registry,
            "closed": self._streams(rng, test, self.CLOSED_SAMPLES),
            "open": self._streams(rng, test, open_length),
            "phase": rng.permutation(self.N_STREAMS) % self.PUSH_PERIOD_TICKS,
            "n_ticks": n_ticks,
        }

    def run_pass(self, state, index: int):
        from repro.serving.engine import ServingEngine

        engine = ServingEngine(state["registry"])
        streams = state["closed"]
        alarms = 0
        for offset in range(0, streams.shape[1], self.CHUNK):
            for stream in range(self.N_STREAMS):
                engine.push(self.tenant(stream), stream, streams[stream, offset : offset + self.CHUNK])
            alarms += len(engine.flush())
        return engine, alarms

    def open_loop(self, state, host=None):
        """Replay at ``OPEN_RATE_SPS``; returns (alarm latencies ms, tick lags ms, engine).

        Each alarm is timed from the due time of the tick whose push completed
        its window (chunk == stride, so that is the tick whose flush emitted
        it) to the return of that flush.  A tick's lag is how late it started.
        A ``host`` (:class:`hostspeed.HostSpeed`) samples the host's speed
        after each tick's flush, once its alarms are timed.
        """
        from repro.serving.engine import ServingEngine

        engine = ServingEngine(state["registry"])
        streams, phase = state["open"], state["phase"]
        by_phase = [np.flatnonzero(phase == p).tolist() for p in range(self.PUSH_PERIOD_TICKS)]
        latencies, lags = [], []
        start = time.perf_counter()
        for tick in range(state["n_ticks"]):
            due = start + tick * self.TICK_SECONDS
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            lags.append(1000.0 * (now - due))
            offset = (tick // self.PUSH_PERIOD_TICKS) * self.CHUNK
            for stream in by_phase[tick % self.PUSH_PERIOD_TICKS]:
                engine.push(self.tenant(stream), stream, streams[stream, offset : offset + self.CHUNK])
            emitted = engine.flush()
            latencies.extend([1000.0 * (time.perf_counter() - due)] * len(emitted))
            if host is not None:
                host.sample()
        return latencies, lags, engine

    def _references(self, state) -> dict:
        """Alarms of a dedicated StreamingSession on every CHECK_EVERY-th stream."""
        if "references" not in state:
            from repro.streaming.online import StreamingSession

            references = {}
            for stream in range(0, self.N_STREAMS, self.CHECK_EVERY):
                entry = state["registry"].get(self.tenant(stream))
                session = StreamingSession(
                    entry.classifier,
                    stride=entry.config.stride,
                    normalization=entry.config.normalization,
                    refractory=entry.config.refractory,
                    max_alarms=entry.config.max_alarms,
                )
                session.extend(state["closed"][stream])
                references[stream] = session.finalize()
            state["references"] = references
        return state["references"]

    def program_counters(self, output) -> dict:
        snapshot = output[0].metrics()
        return {
            "serving.chunks_shed": snapshot.chunks_shed,
            "serving.candidates_discarded": snapshot.candidates_discarded,
            "serving.batch_calls": snapshot.n_batch_calls,
        }

    def check(self, state, output, index: int):
        engine, alarms = output
        counters = self.program_counters(output)
        failed = counters["serving.chunks_shed"] + counters["serving.candidates_discarded"]
        problems = [f"pass {index}: {failed} chunks shed or candidates discarded"] if failed else []
        for stream, expected in self._references(state).items():
            if not self.same_alarms(engine.alarms(self.tenant(stream), stream), expected):
                failed += 1
                problems.append(f"pass {index}: stream {stream} alarms differ from a dedicated session")
        if alarms == 0:
            failed += 1
            problems.append(f"pass {index}: the closed loop emitted no alarms")
        return self.N_STREAMS * self.CLOSED_SAMPLES // self.CHUNK, failed, problems


class Sweep:
    """``run_sweep`` over a 104-dataset sharded archive written in set-up."""

    name = "sweep"
    N_DATASETS = 104
    PER_CLASS = 16
    LENGTH = 1024
    #: CBF archives have three classes.
    SAMPLES = N_DATASETS * 3 * PER_CLASS * LENGTH
    EXPECTED = [
        "repro.data.shards:synthesize_sharded_archive",
        "repro.data.shards:ShardedDataset.open",
        "repro.data.shards:ShardedDataset.shard_series",
        "repro.data.shards:ShardedDataset.shard_labels",
        "repro.distance.engine:batch_prefix_distances",
        "repro.distance.znorm:znormalize",
        "repro.runtime.sweep:run_sweep",
        "repro.runtime.scheduler:run_queue",
        "repro.runtime.sweep:sweep_one_dataset",
        "repro.runtime.manifest:RunManifest.save",
    ]

    def setup(self, seed: int, work_dir: Path, open_seconds: float):
        from repro.data.shards import synthesize_sharded_archive

        directories = synthesize_sharded_archive(
            work_dir / "archive",
            self.N_DATASETS,
            n_exemplars_per_class=self.PER_CLASS,
            length=self.LENGTH,
            seed=seed,
        )
        return {"directories": directories, "work_dir": work_dir}

    def run_pass(self, state, index: int):
        from repro.runtime.sweep import run_sweep

        run_dir = state["work_dir"] / f"run-{index}"
        return run_dir, run_sweep(state["directories"], run_dir, jobs=1)

    def check(self, state, output, index: int):
        run_dir, summary = output
        problems = []
        if summary["done"] != self.N_DATASETS or summary["failed"] != 0:
            problems.append(f"{run_dir.name}: done={summary['done']} failed={summary['failed']}")
        tasks = json.loads((run_dir / "run_manifest.json").read_text())["tasks"]
        failed = 0
        for directory in state["directories"]:
            entry = tasks.get(directory.name, {})
            artifact = entry.get("artifact")
            if entry.get("state") != "done" or not artifact or not (run_dir / artifact).is_file():
                failed += 1
                problems.append(f"{run_dir.name}: no artifact for {directory.name}")
        shutil.rmtree(run_dir)
        return self.N_DATASETS, max(failed, summary["failed"]), problems


class DtwKnn:
    """DTW 1-NN (10% Sakoe-Chiba band) on a z-normalised GunPoint split."""

    name = "dtw-knn"
    SAMPLES = GUNPOINT_SAMPLES
    WINDOW = 0.1
    EXPECTED = [
        "repro.data.gunpoint:make_gunpoint_dataset",
        "repro.distance.engine:dtw_nearest_neighbors",
        "repro.distance.neighbors:KNeighborsTimeSeriesClassifier.fit",
        "repro.distance.neighbors:KNeighborsTimeSeriesClassifier.predict",
    ]

    def _predict(self, state):
        from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

        model = KNeighborsTimeSeriesClassifier(metric="dtw", metric_params={"window": self.WINDOW})
        model.fit(state["train"].series, state["train"].labels)
        return model.predict(state["test"].series)

    def setup(self, seed: int, work_dir: Path, open_seconds: float):
        train, test = _gunpoint(seed)
        return {"train": train, "test": test}

    def run_pass(self, state, index: int):
        return self._predict(state)

    def check(self, state, predicted, index: int):
        if "expected" not in state:
            from repro.distance.backends import use_backend

            with use_backend("pruned"):
                state["expected"] = self._predict(state)
        failed = int(np.sum(predicted != state["expected"]))
        problems = [f"pass {index}: {failed} predictions differ from the pruned backend"] if failed else []
        return len(predicted), failed, problems


WORKLOADS = {workload.name: workload for workload in (Table1(), ServingFleet(), Sweep(), DtwKnn())}
