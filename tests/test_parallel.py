"""Tests for the parallel sweep runner."""

import pytest

from repro.experiments.parallel import GridResult, expand_grid, map_parallel, run_grid


# Module-level so they pickle into worker processes.
def _square(x):
    return x * x


def _cell(a, b):
    return a * 10 + b


def _tiny_experiment(n_nodes, seed):
    """A real (tiny) simulation run, to prove experiments sweep cleanly."""
    from repro.core import CacheMode
    from repro.experiments import run_cluster_trace
    from repro.workload import zipf_cgi_trace

    trace = zipf_cgi_trace(40, 10, seed=seed)
    times, cluster = run_cluster_trace(
        n_nodes, CacheMode.COOPERATIVE, trace, n_threads=4
    )
    return (round(times.mean, 9), cluster.stats().hits)


class TestExpandGrid:
    def test_cartesian_order(self):
        cells = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert cells == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_grid(self):
        assert expand_grid({}) == [{}]

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_grid({"a": []})
        with pytest.raises(TypeError):
            expand_grid({"a": 5})


class TestRunGrid:
    def test_serial_results_in_order(self):
        results = run_grid(_cell, {"a": [1, 2], "b": [3, 4]}, n_workers=1)
        assert [r.value for r in results] == [13, 14, 23, 24]
        assert results[0].params == {"a": 1, "b": 3}
        assert all(isinstance(r, GridResult) for r in results)
        assert all(r.elapsed >= 0 for r in results)

    def test_parallel_matches_serial(self):
        grid = {"a": [1, 2, 3], "b": [5, 7]}
        serial = run_grid(_cell, grid, n_workers=1)
        parallel = run_grid(_cell, grid, n_workers=2)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.params for r in serial] == [r.params for r in parallel]

    def test_simulation_sweep_deterministic_across_processes(self):
        grid = {"n_nodes": [1, 2], "seed": [0, 1]}
        serial = run_grid(_tiny_experiment, grid, n_workers=1)
        parallel = run_grid(_tiny_experiment, grid, n_workers=2)
        assert [r.value for r in serial] == [r.value for r in parallel]


class TestMapParallel:
    def test_empty(self):
        assert map_parallel(_square, []) == []

    def test_serial(self):
        assert map_parallel(_square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        xs = list(range(20))
        assert map_parallel(_square, xs, n_workers=4) == [x * x for x in xs]
