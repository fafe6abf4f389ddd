"""Stress micro-workload tests: each stresses the subsystem it claims to,
and executes correctly under every scheme."""

import pytest

from repro.core import make_scheme
from repro.system import GPUConfig, GpuSimulator
from repro.workloads import MICRO
from tests.test_interpreter import records


def simulate(wl, scheme="baseline", config=None):
    sim = GpuSimulator(
        kernel=wl.kernel,
        trace=wl.trace(),
        address_space=wl.make_address_space(),
        config=config,
        scheme=make_scheme(scheme),
        paging="premapped",
    )
    return sim, sim.run()


class TestTlbThrash:
    def test_walker_pressure(self):
        wl = MICRO.fresh("tlb-thrash")
        sim, res = simulate(wl)
        mmu = sim.memsys.mmu
        # every iteration touches fresh pages: walks dominate
        assert mmu.walkers.walks > 50
        assert mmu.l2_tlb.stats.misses > 50

    def test_divergence_free(self):
        wl = MICRO.fresh("tlb-thrash")
        trace = wl.trace()
        for inst, active, _ in records(trace.blocks[:2], wl.kernel):
            if not inst.info.is_control:  # branches log taken mask
                assert active == 32


class TestMshrStorm:
    def test_uncoalesced_requests(self):
        wl = MICRO.fresh("mshr-storm")
        trace = wl.trace()
        from repro.mem import coalesce

        loads = [
            addrs for inst, _, addrs in records(trace.blocks[:1], wl.kernel)
            if inst.info.can_fault and not inst.info.is_store
        ]
        degree = [len(coalesce(addrs)) for addrs in loads]
        assert max(degree) == 32  # fully scattered warp accesses

    def test_mshr_stalls_observed(self):
        wl = MICRO.fresh("mshr-storm")
        sim, res = simulate(wl)
        stalls = sum(c.stats.mshr_stalls for c in sim.memsys.l1_caches)
        assert stalls > 0

    def test_wd_commit_hurts_most_here(self):
        wl = MICRO.fresh("mshr-storm")
        _, base = simulate(wl, "baseline")
        _, wd = simulate(wl, "wd-commit")
        assert wd.cycles > base.cycles

    def test_more_l1_mshrs_speed_up_the_storm(self):
        wl = MICRO.fresh("mshr-storm")
        _, few = simulate(wl, config=GPUConfig().with_(l1_mshrs=8))
        _, many = simulate(wl, config=GPUConfig().with_(l1_mshrs=64))
        assert many.cycles < few.cycles


class TestDivergenceTree:
    def test_functional_result(self):
        wl = MICRO.fresh("divergence-tree")
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        out = mem.read_array(aspace.segment("out").base, wl.num_threads)
        for tid, value in enumerate(out):
            expect = sum(
                (1 << lvl) if (tid >> lvl) & 1 == 0 else -(1 << lvl)
                for lvl in range(wl.depth)
            )
            assert value == expect

    def test_active_masks_halve(self):
        wl = MICRO.fresh("divergence-tree")
        trace = wl.trace()
        actives = {
            active for _, active, _ in records(trace.blocks[:1], wl.kernel)
        }
        # depth-4 tree: masks of 32, 16, 8, 4 (and 2 at the leaves)
        assert {32, 16, 8, 4} <= actives

    @pytest.mark.parametrize(
        "scheme", ["baseline", "wd-commit", "wd-lastcheck", "replay-queue"]
    )
    def test_runs_under_every_scheme(self, scheme):
        wl = MICRO.fresh("divergence-tree")
        _, res = simulate(wl, scheme)
        assert sum(s.blocks_completed for s in res.sm_stats) == wl.grid_dim
