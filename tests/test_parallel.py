"""Tests for the parallel sweep runner."""

from repro.experiments.parallel import map_parallel


# Module-level so it pickles into worker processes.
def _square(x):
    return x * x


class TestMapParallel:
    def test_empty(self):
        assert map_parallel(_square, []) == []

    def test_serial(self):
        assert map_parallel(_square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        xs = list(range(20))
        assert map_parallel(_square, xs, n_workers=4) == [x * x for x in xs]
