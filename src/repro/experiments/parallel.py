"""Fan independent experiment runs across a process pool.

Every paper experiment is a sweep over independent simulation runs (node
counts x cache modes x seeds), and each run is single-threaded and
deterministic — so the sweep is embarrassingly parallel across
*processes*.  Results always come back in cell order, so a parallel
sweep renders the exact same table as a serial one.  Two entry points
share one pool:

* :func:`fanout` is the primitive the experiment modules use: it runs a
  module-level worker once per parameter cell.
* :func:`run_grid` expands a parameter grid (cartesian product, in
  insertion order) and returns :class:`GridResult` records with wall
  times; :func:`map_parallel` is the order-preserving map under both.

Typical use::

    from repro.experiments.parallel import run_grid

    results = run_grid(
        my_experiment_fn,              # top-level callable (picklable)
        {"cache_size": [20, 200, 2000], "seed": [0, 1, 2]},
        n_workers=4,
    )
    for r in results:
        print(r.params, r.value)

Observed sweeps (``--trace-out`` / ``--metrics-out`` / ...) fan out too:
the parent ships a picklable
:class:`~repro.experiments.common.ObserverSpec` to each worker, the
worker runs its cell under a fresh local observer, and the collector
snapshots ride back on the pool result channel to be folded in cell
order — reproducing the serial sweep's run numbering and span ids
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

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..obs import runtime

__all__ = [
    "GridResult",
    "expand_grid",
    "run_grid",
    "map_parallel",
    "effective_jobs",
    "fanout",
]


@dataclass(frozen=True)
class GridResult:
    """One grid cell: the parameters used, the return value, wall time."""

    params: Dict[str, Any]
    value: Any
    elapsed: float


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of the grid in deterministic (insertion) order."""
    if not grid:
        return [{}]
    keys = list(grid)
    for key in keys:
        if not isinstance(grid[key], (list, tuple)):
            raise TypeError(f"grid value for {key!r} must be a list/tuple")
        if not grid[key]:
            raise ValueError(f"grid value for {key!r} is empty")
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
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


def _call_cell(payload):
    fn, params = payload
    start = time.perf_counter()
    value = fn(**params)
    return value, time.perf_counter() - start


def run_grid(
    fn: Callable[..., Any],
    grid: Mapping[str, Sequence[Any]],
    n_workers: Optional[int] = None,
) -> List[GridResult]:
    """Run ``fn(**params)`` for every grid cell; results in grid order.

    ``fn`` must be a module-level (picklable) callable.  ``n_workers`` <= 1
    runs serially in-process (useful for debugging); ``None`` uses the CPU
    count capped at the number of cells.
    """
    cells = expand_grid(grid)
    outcomes = map_parallel(
        _call_cell, [(fn, params) for params in cells], n_workers=n_workers
    )
    return [
        GridResult(params=params, value=value, elapsed=elapsed)
        for params, (value, elapsed) in zip(cells, outcomes)
    ]


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
    """Worker side of an observed fan-out: run the cell under a fresh
    observer built from the spec, return ``(result, snapshot bundle)``."""
    worker, kwargs, spec = payload
    from .common import observe_runs

    observer = spec.build()
    with observe_runs(observer):
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
    observer is active its collectors are rebuilt per worker cell and
    the snapshots merged back in cell order (see the module docstring).
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
    from .common import ObserverSpec

    spec = ObserverSpec.from_observer(observer)
    pairs = map_parallel(
        _invoke_observed,
        [(worker, cell, spec) for cell in cells],
        n_workers=n_workers,
    )
    results = []
    for result, snap in pairs:
        observer.merge([snap])
        results.append(result)
    return results
