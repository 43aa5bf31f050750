"""One global memory budget for every chunked kernel in the package.

Every blocked kernel -- :func:`repro.distance.engine.batch_prefix_distances`,
:func:`~repro.distance.engine.ragged_prefix_distances`,
:func:`~repro.distance.engine.dtw_pairwise_distances`, the pruned backend's
LB_Keogh stage, the stacked sweep of
:meth:`repro.distance.neighbors.KNeighborsTimeSeriesClassifier.predict_prefixes`
and the chunked scans in :mod:`repro.data` -- learns its byte budget from
:func:`get_memory_budget` at call time and nowhere else.  No kernel takes a
per-call byte argument.  The budget resolves in this order:

1. **process-wide** -- :func:`set_memory_budget` (or the
   :func:`memory_budget` context manager);
2. **environment** -- the ``REPRO_MAX_BLOCK_BYTES`` variable, read at call
   time so a scheduler can cap its worker processes without touching code;
3. **default** -- :data:`DEFAULT_MAX_BLOCK_BYTES` (64 MiB).

The budget bounds the *temporary working set* of one kernel invocation (the
blocked ``(chunk, n_train, L)`` tensors), not the total RSS of the process:
inputs, outputs and the interpreter itself are on top.  Chunking never
changes results -- the equivalence tests pin chunked output bit-identical
to unchunked for every budgeted kernel.

**Threads.**  The compiled kernel tier (:mod:`repro.distance.kernels`)
threads its ``prange`` regions; :func:`get_thread_count` resolves how many
workers it may use, with the same precedence shape as the byte budget
(:func:`set_thread_count` > ``REPRO_NUM_THREADS`` > ``os.cpu_count()``).
The two knobs interact deliberately: the byte budget sizes the *gathered
chunk* one kernel call works on (shared by all threads -- per-thread state
in the compiled DP is a few rolling diagonals, not a chunk copy), and the
cascade floors its chunk at the thread count so a tiny budget can never
starve workers.  Capping threads therefore never changes results, only how
many cores chew on the same budget-sized chunk.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

__all__ = [
    "DEFAULT_MAX_BLOCK_BYTES",
    "MEMORY_BUDGET_ENV_VAR",
    "THREAD_COUNT_ENV_VAR",
    "get_memory_budget",
    "get_thread_count",
    "memory_budget",
    "set_memory_budget",
    "set_thread_count",
]

#: Fallback byte budget when nothing else is configured (64 MiB).
DEFAULT_MAX_BLOCK_BYTES = 64 * 2**20

#: Environment variable consulted (at call time) when no process-wide budget
#: has been set.
MEMORY_BUDGET_ENV_VAR = "REPRO_MAX_BLOCK_BYTES"

#: Process-wide budget installed by :func:`set_memory_budget`; ``None`` means
#: "defer to the environment variable / default".
_BUDGET: int | None = None


def _validated(value: object, source: str) -> int:
    try:
        budget = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise ValueError(f"{source} must be an integer byte count, got {value!r}") from error
    if budget < 1:
        raise ValueError(f"{source} must be positive, got {budget}")
    return budget


def set_memory_budget(max_block_bytes: int | None) -> None:
    """Install (or with ``None`` clear) the process-wide block-byte budget.

    The budget caps the chunked temporaries of every budgeted kernel in the
    process.  Raises ``ValueError`` for non-positive values.
    """
    global _BUDGET
    if max_block_bytes is None:
        _BUDGET = None
        return
    _BUDGET = _validated(max_block_bytes, "memory budget")


def get_memory_budget() -> int:
    """The byte budget every chunked kernel sizes its chunks against now.

    Resolution order: :func:`set_memory_budget` value, then the
    ``REPRO_MAX_BLOCK_BYTES`` environment variable, then
    :data:`DEFAULT_MAX_BLOCK_BYTES`.  A malformed environment value raises
    ``ValueError`` rather than being silently ignored.
    """
    if _BUDGET is not None:
        return _BUDGET
    raw = os.environ.get(MEMORY_BUDGET_ENV_VAR)
    if raw is not None and raw.strip():
        return _validated(raw.strip(), f"environment variable {MEMORY_BUDGET_ENV_VAR}")
    return DEFAULT_MAX_BLOCK_BYTES


@contextlib.contextmanager
def memory_budget(max_block_bytes: int) -> Iterator[int]:
    """Temporarily install a process-wide budget for the enclosed block.

    >>> from repro.memory import memory_budget, get_memory_budget
    >>> with memory_budget(2**20):
    ...     assert get_memory_budget() == 2**20
    """
    global _BUDGET
    previous = _BUDGET
    set_memory_budget(max_block_bytes)
    try:
        yield get_memory_budget()
    finally:
        _BUDGET = previous


#: Environment variable capping the compiled tier's ``prange`` worker count.
THREAD_COUNT_ENV_VAR = "REPRO_NUM_THREADS"

#: Process-wide thread cap installed by :func:`set_thread_count`; ``None``
#: defers to the environment variable / CPU count.
_THREADS: int | None = None


def set_thread_count(n_threads: int | None) -> None:
    """Install (or with ``None`` clear) the process-wide kernel thread cap."""
    global _THREADS
    if n_threads is None:
        _THREADS = None
        return
    _THREADS = _validated(n_threads, "thread count")


def get_thread_count() -> int:
    """Worker threads the compiled kernels may use right now.

    Resolution order: :func:`set_thread_count`, then the
    ``REPRO_NUM_THREADS`` environment variable (read at call time, so a
    scheduler can pin its worker processes to one core each), then
    ``os.cpu_count()`` (at least 1).  A malformed environment value raises
    ``ValueError`` rather than being silently ignored.
    """
    if _THREADS is not None:
        return _THREADS
    raw = os.environ.get(THREAD_COUNT_ENV_VAR)
    if raw is not None and raw.strip():
        return _validated(raw.strip(), f"environment variable {THREAD_COUNT_ENV_VAR}")
    return max(1, os.cpu_count() or 1)


# Zero-argument names that perfbench/child.py imports to record the run
# environment; they take no override and only read the process-wide state.
resolve_block_bytes = get_memory_budget
resolve_thread_count = get_thread_count
