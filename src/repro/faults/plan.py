"""Declarative fault plans: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a seedable, deterministic list of
:class:`FaultSpec` entries.  Nothing here touches the execution stack;
the plan is pure data, and :class:`repro.faults.injector.FaultInjector`
interprets it where chunks are read.

Determinism contract: given the same seed and the same sequence of
injector queries, a plan makes the same decisions -- probabilistic
specs draw from per-spec generators spawned from the plan seed
(:func:`repro.util.rng.spawn_rngs`), so one spec's draws never perturb
another's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: Supported fault kinds, all injected at chunk reads.
FAULT_KINDS = ("io_error", "corrupt", "slow_read")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Matching fields left as ``None`` act as wildcards.  ``times``
    bounds how often the spec fires (``None`` = every match);
    ``p`` makes firing probabilistic (drawn from the plan's seeded
    per-spec stream).
    """

    kind: str
    #: match the dataset name (None = any)
    dataset: Optional[str] = None
    #: match the chunk id (None = any)
    chunk_id: Optional[int] = None
    #: slow_read: seconds to stall the read
    delay: float = 0.0
    #: firing probability per match
    p: float = 1.0
    #: maximum number of firings (None = unlimited)
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seedable collection of fault specs."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def extend(self, *specs: FaultSpec) -> "FaultPlan":
        return FaultPlan(self.specs + specs, seed=self.seed)

    # -- convenience constructors (one per supported scenario) ----------

    @staticmethod
    def corrupt_chunk(
        chunk_id: int, dataset: Optional[str] = None,
        times: Optional[int] = None, seed: int = 0,
    ) -> "FaultPlan":
        """Bit-rot on one chunk: every read decodes to a CRC mismatch
        (``times=None`` -- a corrupt file stays corrupt)."""
        return FaultPlan(
            (FaultSpec("corrupt", dataset=dataset, chunk_id=chunk_id, times=times),),
            seed=seed,
        )

    @staticmethod
    def flaky_read(
        chunk_id: Optional[int] = None, dataset: Optional[str] = None,
        times: int = 2, p: float = 1.0, seed: int = 0,
    ) -> "FaultPlan":
        """A transient disk: the first *times* matching reads raise
        ``InjectedFault`` (an ``OSError``), later reads succeed."""
        return FaultPlan(
            (FaultSpec("io_error", dataset=dataset, chunk_id=chunk_id,
                       times=times, p=p),),
            seed=seed,
        )

    @staticmethod
    def slow_read(
        delay: float, chunk_id: Optional[int] = None,
        dataset: Optional[str] = None, times: Optional[int] = None, seed: int = 0,
    ) -> "FaultPlan":
        """Stall matching reads by *delay* seconds (deadline testing)."""
        return FaultPlan(
            (FaultSpec("slow_read", dataset=dataset, chunk_id=chunk_id,
                       delay=delay, times=times),),
            seed=seed,
        )
