"""A simulated workstation: CPU bank + disk + filesystem + OS cost model."""

from __future__ import annotations

from typing import Generator, Optional

from ..sim import Event, ProcessorSharing, Simulator
from .costs import MachineCosts, SUN_ULTRA1
from .disk import Disk
from .filesystem import FileSystem

__all__ = ["Machine"]


class Machine:
    """One cluster node.

    All CPU demand funnels through one :class:`ProcessorSharing` bank, so
    request threads, CGI children, cache daemons, and protocol handlers all
    contend for the same processors — the paper's central premise is that
    the *CPU* is the bottleneck for dynamic-content sites.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        costs: Optional[MachineCosts] = None,
    ):
        self.sim = sim
        self.name = name
        self.costs = costs or SUN_ULTRA1
        self.cpu = ProcessorSharing(sim, ncpus=self.costs.ncpus, name=f"{name}.cpu")
        self.disk = Disk(sim, self.costs.disk, name=f"{name}.disk")
        self.fs = FileSystem(sim, self.costs, self.disk, name=f"{name}.fs")

    # -- CPU helpers --------------------------------------------------------
    def compute(self, seconds: float) -> Event:
        """Submit ``seconds`` of reference-machine CPU demand; the event
        fires at completion (slower machines stretch the demand by their
        ``cpu_slowdown``)."""
        return self.cpu.execute(seconds * self.costs.cpu_slowdown)

    def accept_and_parse(self) -> Event:
        return self.compute(self.costs.accept_parse_cpu)

    def dispatch_thread(self) -> Event:
        return self.compute(self.costs.thread_dispatch_cpu)

    def fork_process(self) -> Event:
        return self.compute(self.costs.process_fork_cpu)

    def fork_exec_cgi(self) -> Event:
        return self.compute(self.costs.cgi_fork_exec_cpu)

    def send_bytes_cpu(self, nbytes: int) -> Event:
        """TCP-stack CPU cost of transmitting ``nbytes`` to a client."""
        return self.compute(self.costs.net_send_per_byte_cpu * nbytes)

    # -- file serving ---------------------------------------------------------
    def serve_file(self, path: str, mmap: bool = True) -> Generator:
        """Process: open + read a file for sending.

        Returns the file size.  ``mmap=False`` models a read()/write()
        server that pays the extra user-space copy (NCSA HTTPd); Swala and
        Enterprise use memory-mapped I/O.
        """
        yield self.compute(self.costs.syscall_cpu)  # open/stat
        size = self.fs.size_of(path)
        yield from self.fs.read(path)
        per_byte = (
            self.costs.mmap_per_byte_cpu if mmap else self.costs.copy_per_byte_cpu
        )
        yield self.compute(per_byte * size)
        return size

    def __repr__(self) -> str:
        return f"<Machine {self.name!r} load={self.cpu.load}>"
