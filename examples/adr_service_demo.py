#!/usr/bin/env python
"""Client/server demo: querying ADR over a socket.

Recreates the paper's Figure 2 deployment: an ADR front-end process
serving a loaded repository, first to a sequential client (client A
in the figure) submitting range queries over the socket interface as
length-prefixed JSON frames, then to several concurrent clients whose
overlapping queries are batched and share chunk scans through the
pinned payload cache (see docs/service.md).

Run:  python examples/adr_service_demo.py
"""

import threading

import numpy as np

from repro import ADR, RangeQuery, Rect, ibm_sp
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.service import ADRClient, ADRServer
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping


def main() -> None:
    rng = np.random.default_rng(21)

    # ---- server side: a customized ADR instance with a dataset loaded
    adr = ADR(machine=ibm_sp(4))
    field = AttributeSpace.regular("field", ("x", "y"), (0, 0), (100, 100))
    coords = rng.uniform(0, 100, size=(3000, 2))
    readings = coords[:, 0] * 0.3 + rng.normal(0, 2, 3000)
    adr.load("sensors", field, hilbert_partition(coords, readings, 30))

    with ADRServer(adr, port=0) as server:
        host, port = server.address
        print(f"ADR front-end serving on {host}:{port}")

        # ---- client side: knows only the protocol and the port
        image = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
        grid = OutputGrid(image, (10, 10), (5, 5))
        mapping = GridMapping(field, image, (10, 10))

        with ADRClient(host, port) as client:
            print("ping:", "ok" if client.ping() else "FAILED")

            for region, label in [
                (Rect((0, 0), (100, 100)), "whole field"),
                (Rect((0, 0), (50, 50)), "south-west quadrant"),
            ]:
                q = RangeQuery("sensors", region, mapping, grid,
                               aggregation="mean", strategy="AUTO")
                result = client.query(q)
                vals = np.concatenate([v.ravel() for v in result.chunk_values])
                vals = vals[~np.isnan(vals)]
                print(
                    f"query [{label}]: {len(result.output_ids)} output chunks, "
                    f"{result.n_reads} chunk reads, "
                    f"mean of means {vals.mean():.2f}"
                )

            # errors travel back as structured messages with a code
            bad = RangeQuery("nonexistent", Rect((0, 0), (1, 1)), mapping, grid)
            try:
                client.query(bad)
            except RuntimeError as e:
                print(f"expected rejection: {e}")

        # ---- concurrent clients: overlapping queries share scans
        regions = [
            Rect((0, 0), (100, 100)),
            Rect((0, 0), (70, 70)),
            Rect((30, 30), (100, 100)),
            Rect((0, 0), (100, 100)),
        ]

        def one_client(region: Rect) -> None:
            with ADRClient(host, port) as c:
                q = RangeQuery("sensors", region, mapping, grid,
                               aggregation="mean", strategy="FRA")
                result, info = c.query_with_info(q)
                print(
                    f"concurrent query {region.lo}-{region.hi}: "
                    f"{result.n_reads} reads, "
                    f"{result.shared_reads} served from the shared cache "
                    f"(batch of {info['batch_size']})"
                )

        threads = [threading.Thread(target=one_client, args=(r,))
                   for r in regions]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        with ADRClient(host, port) as client:
            stats = client.stats()
            print(
                f"service stats: {stats['completed']} completed, "
                f"{stats['batches']} batches, "
                f"{stats['shared_reads']} shared reads, "
                f"cache hit rate {stats['cache']['chunk_hit_rate']:.2f}"
            )

    print("server stopped")


if __name__ == "__main__":
    main()
