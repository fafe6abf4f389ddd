"""Configuration tests: Table 1 defaults, derived quantities, scaling."""

import pytest

from repro.isa import KernelBuilder
from repro.system import (
    DEFAULT_CONFIG,
    INTERCONNECTS,
    NVLINK,
    PCIE,
    US,
    GPUConfig,
)


class TestTable1Defaults:
    def test_paper_values(self):
        cfg = GPUConfig()
        assert cfg.frequency_ghz == 1.0
        assert cfg.max_tbs_per_sm == 16
        assert cfg.max_warps_per_sm == 64
        assert cfg.register_file_bytes == 256 * 1024
        assert cfg.shared_mem_bytes == 32 * 1024
        assert cfg.issue_width == 2
        assert (cfg.num_math_units, cfg.num_sfu_units) == (2, 1)
        assert cfg.l1_size == 32 * 1024 and cfg.l1_assoc == 4
        assert cfg.line_size == 128
        assert cfg.l1_mshrs == 32 and cfg.l1_latency == 40
        assert cfg.l1_tlb_entries == 32 and cfg.l1_tlb_assoc == 8
        assert cfg.num_sms == 16
        assert cfg.l2_size == 2 * 1024 * 1024 and cfg.l2_latency == 70
        assert cfg.l2_tlb_entries == 1024
        assert cfg.num_walkers == 64 and cfg.walk_latency == 500
        assert cfg.dram_bandwidth_gbps == 256 and cfg.dram_latency == 200

    def test_derived(self):
        cfg = GPUConfig()
        assert cfg.dram_bandwidth_bytes_per_cycle == 256.0
        assert cfg.num_frames == cfg.gpu_memory_bytes // 4096

    def test_default_config_singleton_equal(self):
        assert DEFAULT_CONFIG == GPUConfig()

    def test_with_override(self):
        cfg = GPUConfig().with_(num_sms=8)
        assert cfg.num_sms == 8
        assert GPUConfig().num_sms == 16  # original untouched

    @pytest.mark.parametrize(
        "field",
        ["issue_width", "num_math_units", "num_sfu_units", "num_ldst_units",
         "num_branch_units"],
    )
    def test_issue_resources_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            GPUConfig(**{field: 0})
        with pytest.raises(ValueError, match=field):
            GPUConfig().with_(**{field: -1})
        assert getattr(GPUConfig().with_(**{field: 1}), field) == 1


class TestOccupancy:
    def kernel(self, rpt, smem=0):
        kb = KernelBuilder("k", regs_per_thread=rpt, smem_bytes_per_block=smem)
        kb.exit()
        return kb.build()

    def test_warp_limited(self):
        assert GPUConfig().blocks_per_sm(self.kernel(8), 256) == 8

    def test_register_limited(self):
        # 128 regs * 4B * 256 threads = 128KB -> 2 blocks in a 256KB RF
        assert GPUConfig().blocks_per_sm(self.kernel(128), 256) == 2

    def test_smem_limited(self):
        assert GPUConfig().blocks_per_sm(self.kernel(8, smem=16384), 128) == 2

    def test_tb_slot_limited(self):
        assert GPUConfig().blocks_per_sm(self.kernel(1), 32) == 16


class TestTimeScale:
    def test_interconnect_scaled(self):
        s = NVLINK.scaled(4.0)
        assert s.migrate_cost == NVLINK.migrate_cost / 4
        assert s.alloc_cost == NVLINK.alloc_cost / 4
        assert s.cpu_service == NVLINK.cpu_service / 4
        assert s.msg_occupancy == NVLINK.msg_occupancy / 4
        assert s.signal_latency == pytest.approx(NVLINK.signal_latency / 4)

    def test_config_time_scaled(self):
        cfg = GPUConfig().time_scaled(8.0)
        assert cfg.gpu_handler_latency == GPUConfig().gpu_handler_latency / 8
        assert cfg.time_scale == 8.0

    def test_registry(self):
        assert INTERCONNECTS["nvlink"] is NVLINK
        assert INTERCONNECTS["pcie"] is PCIE

    def test_us_constant(self):
        assert US == 1000.0  # 1 GHz: 1us = 1000 cycles


class TestInterconnectBudgets:
    def test_nvlink_decomposition(self):
        # signal + msg + cpu = alloc cost; + transfer = migrate cost
        total = NVLINK.signal_latency + NVLINK.msg_occupancy + NVLINK.cpu_service
        assert total == pytest.approx(NVLINK.alloc_cost)
        assert NVLINK.alloc_cost + NVLINK.transfer_time == pytest.approx(
            NVLINK.migrate_cost
        )

    def test_pcie_transfer_costlier(self):
        assert PCIE.transfer_time > NVLINK.transfer_time
        assert PCIE.msg_occupancy > NVLINK.msg_occupancy
