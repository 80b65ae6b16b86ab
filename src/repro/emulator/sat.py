"""SAT emulator: satellite data processing (AVHRR-style).

Table 1: 9K--144K input chunks (1.6--26 GB), 256 output chunks
(25 MB), average fan-in 161--1307, average fan-out 4.6, per-chunk
costs 1-40-20-1 ms.

Geometry follows the paper's description of the AVHRR dataset: "the
distribution of the individual data items and the data chunks in the
input dataset of SAT is irregular.  This is because of the polar orbit
of the satellite; the data chunks near the poles are more elongated on
the surface of the earth than those near the equator and there are
more overlapping chunks near the poles."  Input chunk footprints are
therefore widened in longitude by ``1 / cos(latitude)``, which makes
polar output chunks receive far more input (the fan-in skew that
drives DA's load imbalance) while keeping the average fan-out at the
published ~4.6.

The input attribute space is (longitude, latitude, time); scaled
datasets extend the time dimension, adding chunks with the same
spatial distribution (fan-out stays put, fan-in grows), exactly how
longer acquisition periods scale the real dataset.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.emulator.base import ApplicationEmulator, ApplicationScenario, grid_overlap_graph
from repro.machine.config import ComputeCosts
from repro.machine.presets import IBM_SP_COSTS
from repro.space.attribute_space import AttributeSpace
from repro.util.rng import make_rng
from repro.util.units import KB

__all__ = ["SATEmulator"]


class SATEmulator(ApplicationEmulator):
    name = "SAT"

    def __init__(
        self,
        base_chunks: int = 9000,
        chunk_bytes: int = 186 * KB,
        output_blocks: tuple[int, int] = (16, 16),
        output_chunk_bytes: int = 100 * KB,
        acc_factor: float = 8.0,
        max_lat: float = 88.0,
    ) -> None:
        """``acc_factor`` widens the accumulator relative to the output
        (the composite keeps several bands plus the best-NDVI metadata
        per pixel); 8x calibrates FRA's per-processor communication
        volume to the paper's Figure 9(a) level."""
        if base_chunks < 1:
            raise ValueError("base_chunks must be >= 1")
        self.base_chunks = base_chunks
        self.chunk_bytes = chunk_bytes
        self.output_blocks = output_blocks
        self.output_chunk_bytes = output_chunk_bytes
        self.acc_factor = acc_factor
        self.max_lat = max_lat

    @property
    def costs(self) -> ComputeCosts:
        return IBM_SP_COSTS["SAT"]

    def scenario(self, scale: int = 1, seed: int = 0) -> ApplicationScenario:
        if scale < 1:
            raise ValueError("scale must be >= 1")
        rng = make_rng(seed)
        n = self.base_chunks * scale

        input_space = AttributeSpace.regular(
            "sat-sensor", ("lon", "lat", "time"), (-180, -90, 0), (180, 90, float(scale))
        )
        output_space = AttributeSpace.regular(
            "sat-composite", ("lon", "lat"), (-180, -90), (180, 90)
        )

        # Ground-track samples: a polar orbiter's coverage density
        # grows like sec(latitude) toward the poles (every orbit passes
        # near them), so latitude is drawn with a sec-shaped density
        # via the inverse Gudermannian; longitude and time are uniform.
        x_max = np.arcsinh(np.tan(np.radians(self.max_lat)))
        lat = np.degrees(np.arctan(np.sinh(rng.uniform(-x_max, x_max, size=n))))
        lon = rng.uniform(-180.0, 180.0, size=n)
        time = rng.uniform(0.0, float(scale), size=n)

        # Footprints: fixed extent along the track (latitude), widened
        # across the track by the meridian convergence factor.
        out_cell_lon = 360.0 / self.output_blocks[0]
        out_cell_lat = 180.0 / self.output_blocks[1]
        half_lat = out_cell_lat / 2.0
        widen = 1.0 / np.cos(np.radians(lat))
        half_lon = np.minimum(out_cell_lon / 4.6 * widen, 45.0)

        los = np.stack(
            (
                np.maximum(lon - half_lon, -180.0),
                np.maximum(lat - half_lat, -90.0),
                time,
            ),
            axis=1,
        )
        his = np.stack(
            (
                np.minimum(lon + half_lon, 180.0),
                np.minimum(lat + half_lat, 90.0),
                np.minimum(time + 1.0 / self.base_chunks, float(scale)),
            ),
            axis=1,
        )
        # ~10% size jitter keeps disk traffic from being suspiciously uniform.
        nbytes = (self.chunk_bytes * rng.uniform(0.9, 1.1, size=n)).astype(np.int64)
        inputs = ChunkSet(los, his, nbytes)

        graph = grid_overlap_graph(
            los, his, output_space.bounds, self.output_blocks, dims=(0, 1)
        )

        from repro.dataset.partition import regular_grid_chunkset

        outputs = regular_grid_chunkset(
            output_space.bounds, self.output_blocks, self.output_chunk_bytes
        )
        acc_nbytes = (outputs.nbytes * self.acc_factor).astype(np.int64)

        return ApplicationScenario(
            name=self.name,
            costs=self.costs,
            input_space=input_space,
            output_space=output_space,
            inputs=inputs,
            outputs=outputs,
            graph=graph,
            acc_nbytes=acc_nbytes,
        )
