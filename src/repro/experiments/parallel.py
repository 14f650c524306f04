"""Fan independent experiment runs across a process pool.

Every paper experiment is a sweep over independent simulation runs (node
counts x cache modes x seeds), and each run is single-threaded and
deterministic — so the sweep is embarrassingly parallel across
*processes*.  Results always come back in cell order, so a parallel
sweep renders the exact same table as a serial one.  :func:`fanout` is
the entry point the experiment modules use: it runs a module-level
worker once per parameter cell, through the order-preserving
:func:`map_parallel`.

Observed sweeps (``--trace-out`` / ``--metrics-out`` / ...) fan out too:
the parent ships :meth:`RunObserver.fresh()
<repro.experiments.common.RunObserver.fresh>` — the same collectors,
empty — to each worker, the worker runs its cell under it, and the
collector snapshots ride back on the pool result channel to be folded in
cell order — reproducing the serial sweep's run numbering and span ids
exactly.  Two fallbacks keep correctness ahead of speed:

* **oracle-aware**: the consistency oracle (``--audit-out``) audits
  global event order and cannot be merged from workers, so it forces a
  serial sweep — loudly, via :func:`~repro.experiments.common.oracle_forces_serial`,
  never silently.
* **degenerate sweeps**: one cell (or ``jobs <= 1``) runs inline with no
  pool setup cost.

Workers must be module-level callables (picklable) and must *regenerate*
their workload from parameters (e.g. a seed) rather than close over
shared state; trace synthesis is deterministic, so a regenerated trace is
identical to a shared one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..obs import runtime

__all__ = [
    "map_parallel",
    "effective_jobs",
    "fanout",
]


def map_parallel(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    n_workers: Optional[int] = None,
) -> List[Any]:
    """Order-preserving parallel map over ``items`` (processes)."""
    items = list(items)
    if not items:
        return []
    if n_workers is None:
        n_workers = min(len(items), os.cpu_count() or 1)
    if n_workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def effective_jobs(jobs: Optional[int], n_cells: int) -> int:
    """How many worker processes a sweep will actually use.

    ``None``/``<=1`` mean serial; an active consistency oracle
    (``--audit-out``) forces serial with a warning — every other
    collector merges, so it no longer downgrades the sweep.
    """
    if jobs is None or jobs <= 1 or n_cells <= 1:
        return 1
    observer = runtime.current_observer()
    if observer is not None:
        from .common import oracle_forces_serial

        if oracle_forces_serial(observer):
            return 1
    return min(jobs, n_cells)


def _invoke(payload):
    worker, kwargs = payload
    return worker(**kwargs)


def _invoke_observed(payload):
    """Worker side of an observed fan-out: run the cell under the shipped
    empty observer, return ``(result, snapshot bundle)``."""
    worker, kwargs, observer = payload
    with runtime.observing(observer):
        result = worker(**kwargs)
    return result, observer.snapshot()


def fanout(
    worker: Callable[..., Any],
    cells: Sequence[Dict[str, Any]],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Run ``worker(**cell)`` for every cell; results in cell order.

    With ``jobs`` > 1 the cells are distributed over a
    ``multiprocessing`` pool; ordering of the returned list is the cell
    order either way, so downstream rendering is deterministic.  When an
    observer is active each worker cell runs under ``observer.fresh()``
    and the snapshots merge back in cell order (see the module docstring).
    """
    cells = list(cells)
    n_workers = effective_jobs(jobs, len(cells))
    if n_workers <= 1:
        return [worker(**cell) for cell in cells]
    observer = runtime.current_observer()
    if observer is None:
        return map_parallel(
            _invoke, [(worker, cell) for cell in cells], n_workers=n_workers
        )
    empty = observer.fresh()
    pairs = map_parallel(
        _invoke_observed,
        [(worker, cell, empty) for cell in cells],
        n_workers=n_workers,
    )
    results = []
    for result, snap in pairs:
        observer.merge([snap])
        results.append(result)
    return results
