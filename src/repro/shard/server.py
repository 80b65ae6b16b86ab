"""Shard server and client: one ADR back-end process of a deployment.

A :class:`ShardServer` is an :class:`~repro.frontend.service.ADRServer`
that owns one Hilbert-assigned chunk shard (loaded as a standalone
local dataset) and additionally answers *partial* queries --
``{"op": "query", "partial": true, "query": {...}}`` -- by wrapping
the query's aggregation in
:class:`~repro.shard.partial.PartialAggregationSpec` before submitting
it into its :class:`~repro.frontend.queryservice.QueryService`, so the
response carries raw accumulators for the router's global combine.
A query that selects none of this shard's chunks answers an *empty
partial* (nothing read, nothing aggregated) rather than an error:
emptiness is a normal outcome of scattering a range query over a
declustered deployment.

Shards are hosted in threads by
:class:`repro.shard.cluster.ShardCluster` (tests, corpus) or as OS
processes by ``benchmarks/e2e/serve.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.frontend.adr import ADR
from repro.frontend.protocol import query_to_dict, result_from_dict
from repro.frontend.query import RangeQuery
from repro.frontend.queryservice import QueryService, ServicePolicy
from repro.frontend.service import ADRClient, ADRServer
from repro.runtime.engine import QueryResult
from repro.shard.partial import (
    EMPTY_SELECTION_MARK,
    as_partial,
    empty_partial_result,
)

__all__ = ["ShardServer", "ShardClient"]


class ShardServer(ADRServer):
    """One shard process: a local ADR plus the partial-query op."""

    def __init__(
        self,
        adr: ADR,
        shard_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[ServicePolicy] = None,
        service: Optional[QueryService] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        super().__init__(adr, host, port, policy, service)

    def health(self) -> Dict[str, Any]:
        h = super().health()
        h["shard_id"] = self.shard_id
        return h

    def _submitted(self, query: RangeQuery, message: dict) -> RangeQuery:
        return as_partial(query) if message.get("partial") else query

    def _stand_in(
        self, query: RangeQuery, message: dict, error: Exception
    ) -> Optional[QueryResult]:
        if (
            message.get("partial")
            and isinstance(error, ValueError)
            and EMPTY_SELECTION_MARK in str(error)
        ):
            return empty_partial_result(query)
        return None


class ShardClient(ADRClient):
    """Protocol client speaking the shard extension of the wire schema."""

    def query_partial(
        self, query: RangeQuery, deadline: Optional[float] = None
    ) -> QueryResult:
        """Fetch this shard's raw-accumulator partial for *query*."""
        response = self._call(
            {"op": "query", "query": query_to_dict(query), "partial": True},
            deadline,
        )
        self._checked(response, "partial query")
        return result_from_dict(response["result"])
