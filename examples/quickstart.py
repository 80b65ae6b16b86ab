#!/usr/bin/env python
"""Quickstart: load a multi-dimensional dataset into ADR and query it.

Builds a small ADR instance over synthetic 2-D sensor readings, runs a
range query that averages the readings onto a 16x16 output grid, and
prints the result -- the whole paper pipeline (partition, decluster,
index, plan, execute) in ~60 lines of user code.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ADR, RangeQuery, Rect, ibm_sp
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. An ADR back end: 8 processors, one disk each (the paper's SP
    #    nodes, scaled down).
    adr = ADR(machine=ibm_sp(8))

    # 2. The input dataset: 5,000 temperature readings at random
    #    coordinates, partitioned into Hilbert-contiguous chunks of 50
    #    items, declustered and indexed by `load`.
    field = AttributeSpace.regular("field", ("x", "y"), (0, 0), (100, 100))
    coords = rng.uniform(0, 100, size=(5000, 2))
    temps = 15 + 10 * np.sin(coords[:, 0] / 15) + rng.normal(0, 1, 5000)
    chunks = hilbert_partition(coords, temps, items_per_chunk=50)
    adr.load("temperatures", field, chunks)
    print(f"loaded {len(chunks)} chunks "
          f"({sum(c.meta.nbytes for c in chunks) / 1024:.0f} KB) "
          f"across {adr.machine.n_procs} processors")

    # 3. The output dataset: a 16x16 image over a unit square, blocked
    #    into 4x4-cell chunks; the Map function projects the queried
    #    region onto it.
    image = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(image, grid_shape=(16, 16), chunk_shape=(4, 4))
    mapping = GridMapping(field, image, grid_shape=(16, 16))

    # 4. A range query: average all readings in [20,80]^2, letting the
    #    cost model pick the processing strategy.
    query = RangeQuery(
        dataset="temperatures",
        region=Rect((20, 20), (80, 80)),
        mapping=mapping,
        grid=grid,
        aggregation="mean",
        strategy="AUTO",
    )
    plan, choice = adr.plan_with_choice(query)
    print(f"planner chose {plan.strategy}: {plan.summary()}")

    result = adr.execute(query, plan=(plan, choice))
    full = result.assemble(grid)[:, :, 0]
    print(f"computed {len(result.output_ids)} output chunks "
          f"({result.n_reads} chunk reads over {result.n_tiles} tile(s))")

    print("\nmean temperature per output cell (NaN = outside the query):")
    for row in full:
        print(" ".join("  .  " if np.isnan(v) else f"{v:5.1f}" for v in row))

    # 5. The same query on the simulated 1999 IBM SP, per strategy.
    print("\nsimulated execution on the paper's machine model:")
    for strategy in ("FRA", "SRA", "DA"):
        res = adr.simulate(query, strategy=strategy)
        print("  " + res.row())


if __name__ == "__main__":
    main()
