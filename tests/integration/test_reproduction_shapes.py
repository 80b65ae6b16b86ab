"""Integration tests: the paper's qualitative results at reduced scale.

Each test pins one claim from Section 4 of the paper, using smaller
chunk populations than the full benches so the suite stays fast.
"""

import pytest

from repro.emulator import SATEmulator, VMEmulator, WCSEmulator
from repro.machine.presets import IBM_SP_COSTS, ibm_sp
from repro.planner.stats import plan_stats
from repro.planner.strategies import plan_query
from repro.sim.query_sim import simulate_query
from repro.util.units import MB

SMALL_SAT = SATEmulator(base_chunks=1500)
SMALL_WCS = WCSEmulator(steps_per_scale=2)  # 1500 chunks per scale
SMALL_VM = VMEmulator(input_grid=(32, 32))  # 1024 chunks per scale


def run(emu, scale, n_procs, strategy, memory=32 * MB, **kw):
    sc = emu.scenario(scale, seed=11)
    m = ibm_sp(n_procs, memory_per_proc=memory, **kw)
    plan = plan_query(sc.problem(m), strategy)
    return plan, simulate_query(plan, m, sc.costs)


class TestFixedInputScaling:
    """Fig 8 left column: execution time decreases with P; FRA/SRA
    beat DA at small P for SAT."""

    def test_time_decreases_with_procs(self):
        for strategy in ("FRA", "DA"):
            times = [run(SMALL_SAT, 1, p, strategy)[1].total_time for p in (4, 8, 16)]
            assert times[0] > times[1] > times[2]

    def test_fra_beats_da_at_small_p_for_sat(self):
        # full-size population: the claim depends on realistic fan-in
        _, fra = run(SATEmulator(), 1, 8, "FRA")
        _, da = run(SATEmulator(), 1, 8, "DA")
        assert fra.total_time < da.total_time


class TestScaledInputScaling:
    """Fig 8 right column: FRA stays ~flat, DA grows."""

    def test_fra_flat_da_grows_sat(self):
        fra = [run(SMALL_SAT, s, 8 * s, "FRA")[1].total_time for s in (1, 4)]
        da = [run(SMALL_SAT, s, 8 * s, "DA")[1].total_time for s in (1, 4)]
        assert fra[1] < 1.35 * fra[0]  # almost constant
        assert da[1] > 1.25 * da[0]  # clearly growing

    def test_da_growth_driven_by_imbalance(self):
        """The paper attributes DA's scaled-input growth to load
        imbalance in local reduction; per-processor reduction work
        spread must widen with P."""
        small = plan_stats(run(SMALL_SAT, 1, 8, "DA")[0])
        large = plan_stats(run(SMALL_SAT, 4, 32, "DA")[0])
        assert large.load_imbalance > small.load_imbalance


class TestCommunicationVolume:
    """Fig 9 a/b: DA comm ∝ input chunks per proc x fan-out; FRA comm
    ~ constant ∝ accumulator size."""

    def test_da_comm_decreases_with_procs_fixed_input(self):
        vols = [
            run(SMALL_SAT, 1, p, "DA")[1].comm_volume_per_proc for p in (4, 8, 16)
        ]
        assert vols[0] > vols[1] > vols[2]

    def test_fra_comm_roughly_constant(self):
        vols = [
            run(SMALL_SAT, 1, p, "FRA")[1].comm_volume_per_proc for p in (4, 8, 16)
        ]
        assert max(vols) < 1.3 * min(vols)

    def test_da_comm_grows_with_scaled_input(self):
        a = run(SMALL_SAT, 1, 8, "DA")[1].comm_volume_per_proc
        b = run(SMALL_SAT, 4, 32, "DA")[1].comm_volume_per_proc
        assert b > a

    def test_sra_equals_fra_when_fan_in_large(self):
        """SAT fan-in >> P: every processor holds input for every
        output chunk, so SRA degenerates to FRA (Section 4)."""
        _, sra = run(SATEmulator(), 1, 8, "SRA")
        _, fra = run(SATEmulator(), 1, 8, "FRA")
        assert sra.comm_volume_per_proc == pytest.approx(
            fra.comm_volume_per_proc, rel=0.02
        )

    def test_sra_below_fra_when_p_exceeds_fan_in(self):
        """VM fan-in 16: with 32 processors SRA allocates far fewer
        ghosts than FRA (the Section 4 observation for VM at P>=32)."""
        _, sra = run(SMALL_VM, 1, 32, "SRA")
        _, fra = run(SMALL_VM, 1, 32, "FRA")
        assert sra.comm_volume_per_proc < 0.8 * fra.comm_volume_per_proc


class TestComputationTime:
    """Fig 9 c/d: computation does not scale perfectly -- constant
    init/combine overheads for FRA, load imbalance for DA."""

    def test_fra_imperfect_scaling(self):
        a = run(SMALL_SAT, 1, 4, "FRA")[1].computation_time
        b = run(SMALL_SAT, 1, 16, "FRA")[1].computation_time
        assert b > a / 4  # worse than ideal 4x speedup

    def test_fra_combine_overhead_constantish(self):
        a = run(SMALL_SAT, 1, 4, "FRA")[1].phase_times["combine"]
        b = run(SMALL_SAT, 1, 16, "FRA")[1].phase_times["combine"]
        assert b > 0.4 * a  # does not shrink like 1/P

    def test_da_no_combine_phase(self):
        res = run(SMALL_SAT, 1, 8, "DA")[1]
        assert res.phase_times["combine"] == 0.0


class TestWCS:
    def test_fra_beats_da_small_p(self):
        _, fra = run(WCSEmulator(), 1, 8, "FRA")
        _, da = run(WCSEmulator(), 1, 8, "DA")
        assert fra.total_time < da.total_time

    def test_scaled_fra_flat(self):
        t = [run(SMALL_WCS, s, 8 * s, "FRA")[1].total_time for s in (1, 4)]
        assert t[1] < 1.4 * t[0]


class TestVM:
    def test_da_competitive_for_vm(self):
        """Low fan-out, cheap compute: DA should win or tie (what the
        paper expected before its I/O anomaly)."""
        _, da = run(SMALL_VM, 1, 8, "DA")
        _, fra = run(SMALL_VM, 1, 8, "FRA")
        assert da.total_time <= 1.1 * fra.total_time

    def test_io_jitter_reproduces_vm_fluctuation(self):
        """With AIX-style I/O jitter, large configurations slow down
        and fluctuate -- the paper's explanation for VM's anomaly."""
        base = run(SMALL_VM, 2, 16, "DA")[1].total_time
        jittered = [
            simulate_query(
                plan_query(
                    SMALL_VM.scenario(2, seed=11).problem(
                        ibm_sp(16, io_jitter=1.2)
                    ),
                    "DA",
                ),
                ibm_sp(16, io_jitter=1.2),
                IBM_SP_COSTS["VM"],
                seed=s,
            ).total_time
            for s in range(3)
        ]
        assert min(jittered) > base
        assert max(jittered) > min(jittered)
