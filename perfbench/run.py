"""Benchmark runner: run workloads in fresh, pinned child processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload runs in its own child process (``perfbench/child.py``) with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to
1, ``PYTHONHASHSEED`` fixed and every ``REPRO_*`` variable removed, so the
default backend and memory budget are what run.  The runner prints each
metric by name with its unit, the output checks' verdict, and as the last
line of standard output one JSON object.  For one workload that object has
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end with
``--trace 0``, per-layer with ``--trace 1``); for ``--workload all`` (the
default) it maps each workload's name to such an object.  The runner exits
non-zero, printing no result, when the program's sources are missing, a
child fails, or a child overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("table1", "serving-fleet", "sweep", "dtw-knn")
#: Default seed (the repository's experiment default).  Seed 8 is the
#: second seed for confirming a claim on inputs not used while writing it.
DEFAULT_SEED = 7
#: A child gets its measuring budget plus this much for imports, set-up and
#: checks before it is killed.
CHILD_SLACK_SECONDS = 120.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_environment() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_workload(name: str, args) -> dict:
    """Run one workload in a child; returns its parsed result and info lines."""
    work_dir = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=child_environment(),
            capture_output=True,
            text=True,
            timeout=args.seconds + CHILD_SLACK_SECONDS,
        )
    except subprocess.TimeoutExpired as error:
        raise SystemExit(f"{name}: child overran {error.timeout:.0f} s and was killed")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run's scratch space is still there
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{name}: child exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"details": details, "result": result}


def report(name: str, outcome: dict) -> None:
    result, details = outcome["result"], outcome["details"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}")
    for key, value in details["info"].items():
        print(f"   {key}: {json.dumps(value)}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<32s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"   {'error_rate':<32s} {failed / attempted:>16.6g} failed/attempted ({failed}/{attempted})")
    verdict = "passed" if result["correct"] else "FAILED"
    print(f"   output checks {verdict}")
    for problem in details["problems"]:
        print(f"   ! {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args)
        report(name, outcomes[name])
    if len(names) == 1:
        print(json.dumps(outcomes[names[0]]["result"]))
    else:
        print(json.dumps({name: outcome["result"] for name, outcome in outcomes.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
