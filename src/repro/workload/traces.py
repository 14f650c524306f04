"""Request traces: ordered request sequences with repeat-structure queries."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .request import Request, RequestKind

__all__ = ["Trace"]


class Trace:
    """An ordered sequence of requests (an access log without timestamps).

    Provides the repeat-structure statistics the paper's analyses are built
    on: unique counts, theoretical hit upper bounds, and service-time
    aggregates.
    """

    def __init__(self, requests: Iterable[Request], name: str = ""):
        self.requests: List[Request] = list(requests)
        self.name = name

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, idx):
        return self.requests[idx]

    # -- composition ----------------------------------------------------------
    def filter(self, predicate) -> "Trace":
        return Trace([r for r in self.requests if predicate(r)], name=self.name)

    def cgi_only(self) -> "Trace":
        return Trace(
            [r for r in self.requests if r.kind is RequestKind.CGI], name=self.name
        )

    def files_only(self) -> "Trace":
        return self.filter(lambda r: r.kind is RequestKind.FILE)

    def cacheable_only(self) -> "Trace":
        return self.filter(lambda r: r.is_cgi and r.cacheable)

    # -- statistics -------------------------------------------------------------
    def url_counts(self) -> Counter:
        return Counter(r.url for r in self.requests)

    @property
    def unique_count(self) -> int:
        return len({r.url for r in self.requests})

    @property
    def repeat_count(self) -> int:
        """Requests that are a repeat of an earlier identical request."""
        return len(self.requests) - self.unique_count

    def max_possible_hits(self) -> int:
        """Upper bound on cache hits with an infinite, pre-coordinated cache
        (every occurrence after the first hits)."""
        return self.repeat_count

    def total_service_time(self) -> float:
        """Sum of per-request standalone execution time (cpu_time for CGI)."""
        return sum(r.cpu_time for r in self.requests)

    def mean_cpu_time(self) -> float:
        if not self.requests:
            return 0.0
        return self.total_service_time() / len(self.requests)

    def by_url(self) -> Dict[str, List[Request]]:
        groups: Dict[str, List[Request]] = {}
        for r in self.requests:
            groups.setdefault(r.url, []).append(r)
        return groups

    def interleave(self, other: "Trace") -> "Trace":
        """Round-robin merge (used to build multi-client workloads)."""
        merged: List[Request] = []
        a, b = self.requests, other.requests
        for i in range(max(len(a), len(b))):
            if i < len(a):
                merged.append(a[i])
            if i < len(b):
                merged.append(b[i])
        return Trace(merged, name=f"{self.name}+{other.name}")

    def split(self, n: int) -> List["Trace"]:
        """Deal requests round-robin into ``n`` sub-traces (client threads)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        parts: List[List[Request]] = [[] for _ in range(n)]
        for i, r in enumerate(self.requests):
            parts[i % n].append(r)
        return [Trace(p, name=f"{self.name}[{i}]") for i, p in enumerate(parts)]

    def __repr__(self) -> str:
        return (
            f"<Trace {self.name!r} n={len(self.requests)} "
            f"unique={self.unique_count}>"
        )
