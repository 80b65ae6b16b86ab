"""Sharded scale-out: many ADR back-end processes behind a router.

The paper's customized ADR back end runs as a set of independent
processes that each own a disk farm and combine partial accumulators
globally.  This package is that deployment shape:

- :mod:`repro.shard.topology` -- Hilbert-declustered chunk-to-shard
  assignment (the same locality argument as disk declustering, one
  level up);
- :mod:`repro.shard.partial` -- raw-accumulator partial results and
  the FRA global combine that merges them;
- :mod:`repro.shard.server` -- one shard process: an
  :class:`~repro.frontend.service.ADRServer` over the shard's local
  dataset, answering partial queries;
- :mod:`repro.shard.router` -- the scatter/gather router: plans once,
  fans sub-plans out over the wire protocol with per-shard deadlines
  and retry/failover, merges partials, and degrades (``shard_errors``
  + completeness) instead of failing when a shard is lost;
- :mod:`repro.shard.cluster` -- thread-hosted deployments for tests,
  the ``--shards`` bit-identity corpus and the chaos corpus.

See ``docs/sharding.md`` for topology, failure semantics and the
completeness contract.
"""

from repro.shard.cluster import ShardCluster
from repro.shard.partial import (
    PartialAggregationSpec,
    as_partial,
    combine_partials,
)
from repro.shard.router import (
    RouterPolicy,
    ScatterPlan,
    ShardEndpoint,
    ShardRouter,
    ShardUnavailableError,
)
from repro.shard.server import ShardClient, ShardServer
from repro.shard.topology import (
    ShardAssignment,
    ShardTopology,
    assign_shards,
    shard_chunks,
)

__all__ = [
    "ShardAssignment",
    "ShardTopology",
    "assign_shards",
    "shard_chunks",
    "PartialAggregationSpec",
    "as_partial",
    "combine_partials",
    "ShardServer",
    "ShardClient",
    "ShardEndpoint",
    "RouterPolicy",
    "ScatterPlan",
    "ShardRouter",
    "ShardUnavailableError",
    "ShardCluster",
]
