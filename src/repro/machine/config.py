"""Machine and application cost descriptions."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.units import MB

__all__ = ["MachineConfig", "ComputeCosts"]


@dataclass(frozen=True)
class MachineConfig:
    """A distributed-memory machine with disks attached to each node.

    Attributes
    ----------
    n_procs:
        Back-end processors; one per node, as on the SP.
    disks_per_node:
        Local disks per node (the SP nodes have one).
    memory_per_proc:
        Bytes of memory available for accumulator chunks on each node;
        the tiling budget.
    disk_bandwidth:
        Sustained per-disk transfer rate, bytes/second.
    disk_seek:
        Fixed per-operation disk overhead, seconds (seek + request).
    link_bandwidth:
        Per-node network bandwidth, bytes/second, full duplex (the SP
        switch gives every node its own 110 MB/s link).
    link_latency:
        Fixed per-message latency, seconds.
    cpu_per_byte:
        CPU seconds consumed per byte sent or received.  The SP's
        message passing was processor-driven (no RDMA): MPI staged
        every transfer through CPU copies, so communication contends
        with aggregation for cycles.  This is what makes
        communication-heavy plans (DA at small processor counts) pay
        even when the wire time itself would overlap with computation.
    io_jitter:
        Log-normal sigma multiplying every disk operation; 0 disables.
        Models the AIX file-cache fluctuation the paper reports for VM
        ("a large fluctuation in I/O times across processors").
    """

    n_procs: int
    memory_per_proc: int
    disks_per_node: int = 1
    disk_bandwidth: float = 10.0 * MB
    disk_seek: float = 0.010
    link_bandwidth: float = 110.0 * MB
    link_latency: float = 50e-6
    cpu_per_byte: float = 0.0
    io_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.disks_per_node < 1:
            raise ValueError("disks_per_node must be >= 1")
        if self.memory_per_proc <= 0:
            raise ValueError("memory_per_proc must be positive")
        for name in ("disk_bandwidth", "link_bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("disk_seek", "link_latency", "cpu_per_byte", "io_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n_disks(self) -> int:
        return self.n_procs * self.disks_per_node

    def read_time(self, nbytes: float) -> float:
        """Seconds to read *nbytes* from one disk (no contention)."""
        return self.disk_seek + nbytes / self.disk_bandwidth

    def send_time(self, nbytes: float) -> float:
        """Seconds of link occupancy to push *nbytes* out of a node."""
        return nbytes / self.link_bandwidth

    def scaled(self, n_procs: int) -> "MachineConfig":
        """The same node hardware at a different processor count."""
        return replace(self, n_procs=n_procs)


@dataclass(frozen=True)
class ComputeCosts:
    """Per-chunk computation times for the four query phases, seconds.

    Mirrors Table 1's ``I-LR-GC-OH`` column: ``reduction`` is charged
    per intersecting (input chunk, accumulator chunk) pair ("an input
    chunk that maps to a larger number of accumulator chunks takes
    longer to process"); the others are per chunk.
    """

    init: float
    reduction: float
    combine: float
    output: float

    def __post_init__(self) -> None:
        for name in ("init", "reduction", "combine", "output"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cost must be non-negative")

    @staticmethod
    def from_ms(i: float, lr: float, gc: float, oh: float) -> "ComputeCosts":
        """Build from the paper's millisecond figures, e.g. SAT is
        ``from_ms(1, 40, 20, 1)``."""
        return ComputeCosts(i / 1e3, lr / 1e3, gc / 1e3, oh / 1e3)
