"""Tests for the VRAM allocator, device specs and the cost model."""

import pytest

from repro.errors import DeviceError, GpuOutOfMemoryError
from repro.gpu import (
    CostModel,
    FragmentShader,
    GEFORCE_7800GTX,
    GEFORCE_FX5950U,
    GpuSpec,
    OP_COSTS,
    VramAllocator,
)
from repro.gpu import shaderir as ir


class TestVramAllocator:
    def test_allocate_and_free(self):
        vram = VramAllocator(1000)
        handle = vram.allocate(400)
        assert vram.used == 400 and vram.free == 600
        vram.release(handle)
        assert vram.used == 0

    def test_oom(self):
        vram = VramAllocator(100)
        vram.allocate(80)
        with pytest.raises(GpuOutOfMemoryError, match="cannot allocate"):
            vram.allocate(30, label="big texture")

    def test_oom_message_includes_label(self):
        vram = VramAllocator(10)
        with pytest.raises(GpuOutOfMemoryError, match="mei"):
            vram.allocate(100, label="mei")

    def test_oom_carries_structured_byte_counts(self):
        vram = VramAllocator(100)
        vram.allocate(80)
        with pytest.raises(GpuOutOfMemoryError) as excinfo:
            vram.allocate(30)
        error = excinfo.value
        assert error.requested == 30
        assert error.free == 20
        assert error.capacity == 100

    def test_oom_survives_pickling(self):
        """Pool workers ship the exception through a result queue."""
        import pickle

        vram = VramAllocator(100)
        vram.allocate(80)
        with pytest.raises(GpuOutOfMemoryError) as excinfo:
            vram.allocate(30, label="texture")
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(clone, GpuOutOfMemoryError)
        assert clone.requested == 30
        assert clone.free == 20
        assert clone.capacity == 100
        assert str(clone) == str(excinfo.value)

    def test_double_free(self):
        vram = VramAllocator(100)
        handle = vram.allocate(10)
        vram.release(handle)
        with pytest.raises(KeyError):
            vram.release(handle)

    def test_high_water_mark(self):
        vram = VramAllocator(1000)
        a = vram.allocate(300)
        vram.allocate(200)
        vram.release(a)
        vram.allocate(100)
        assert vram.high_water_mark == 500

    def test_release_all(self):
        vram = VramAllocator(100)
        vram.allocate(40)
        vram.allocate(40)
        vram.release_all()
        assert vram.used == 0 and vram.allocation_count == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            VramAllocator(0)

    def test_invalid_allocation(self):
        with pytest.raises(ValueError):
            VramAllocator(10).allocate(0)


class TestGpuSpec:
    def test_paper_table1_values(self):
        assert GEFORCE_FX5950U.year == 2003
        assert GEFORCE_FX5950U.n_fragment_pipes == 4
        assert GEFORCE_FX5950U.core_clock_hz == 475e6
        assert GEFORCE_FX5950U.mem_bandwidth == 30.4e9
        assert GEFORCE_7800GTX.year == 2005
        assert GEFORCE_7800GTX.n_fragment_pipes == 24
        assert GEFORCE_7800GTX.core_clock_hz == 430e6
        assert GEFORCE_7800GTX.mem_bandwidth == 38.4e9
        assert GEFORCE_7800GTX.vram_bytes == GEFORCE_FX5950U.vram_bytes \
            == 256 * 1024 * 1024

    def test_bus_generations_differ(self):
        assert GEFORCE_7800GTX.bus_bandwidth > GEFORCE_FX5950U.bus_bandwidth

    def test_with_override(self):
        small = GEFORCE_7800GTX.with_(vram_bytes=1024)
        assert small.vram_bytes == 1024
        assert small.n_fragment_pipes == 24

    def test_invalid_spec_rejected(self):
        with pytest.raises(DeviceError):
            GpuSpec("x", 2000, "a", core_clock_hz=0, n_fragment_pipes=4,
                    mem_bandwidth=1e9, bus_bandwidth=1e9, vram_bytes=1)

    def test_invalid_hit_rate(self):
        with pytest.raises(DeviceError):
            GEFORCE_7800GTX.with_(texture_cache_hit_rate=1.5)


class TestCostModel:
    def _shader(self):
        body = ir.add(ir.log(ir.TexFetch("a")),
                      ir.dot4(ir.TexFetch("a", 1, 0), ir.TexFetch("b")))
        return FragmentShader("k", body, samplers=("a", "b"))

    def test_kernel_cost_matches_op_table(self):
        cost = CostModel.kernel_cost(self._shader())
        expected = 3 * OP_COSTS["tex"] + OP_COSTS["log"] \
            + OP_COSTS["dot"] + OP_COSTS["add"]
        assert cost.cycles_per_fragment == pytest.approx(expected)
        assert cost.static_fetches == 3

    def test_launch_time_scales_with_area(self):
        model = CostModel(GEFORCE_7800GTX)
        _, small = model.launch_time(self._shader(), 16, 16)
        _, large = model.launch_time(self._shader(), 64, 64)
        ratio = (large.total_s - GEFORCE_7800GTX.launch_overhead_s) \
            / (small.total_s - GEFORCE_7800GTX.launch_overhead_s)
        assert ratio == pytest.approx(16.0, rel=1e-6)

    def test_more_pipes_is_faster(self):
        fast = CostModel(GEFORCE_7800GTX)
        slow = CostModel(GEFORCE_FX5950U)
        _, t_fast = fast.launch_time(self._shader(), 256, 256)
        _, t_slow = slow.launch_time(self._shader(), 256, 256)
        assert t_fast.total_s < t_slow.total_s

    def test_launch_includes_overhead(self):
        model = CostModel(GEFORCE_7800GTX)
        _, timing = model.launch_time(self._shader(), 1, 1)
        assert timing.total_s >= GEFORCE_7800GTX.launch_overhead_s

    def test_transfer_time_linear(self):
        model = CostModel(GEFORCE_7800GTX)
        lat = GEFORCE_7800GTX.transfer_latency_s
        t1 = model.transfer_time(10 ** 6) - lat
        t2 = model.transfer_time(2 * 10 ** 6) - lat
        assert t2 == pytest.approx(2 * t1)

    def test_transfer_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel(GEFORCE_7800GTX).transfer_time(-1)

    def test_agp_transfers_slower_than_pcie(self):
        agp = CostModel(GEFORCE_FX5950U).transfer_time(10 ** 8)
        pcie = CostModel(GEFORCE_7800GTX).transfer_time(10 ** 8)
        assert agp > pcie

    def test_kernel_cost_priced_once_across_devices(self, monkeypatch):
        """The cached cost lives on the shader: a fresh device (as every
        run_amc builds) reuses it, and the modeled time is unchanged."""
        import numpy as np

        from repro.gpu import VirtualGPU

        walks = []
        walk = CostModel.kernel_cost
        monkeypatch.setattr(CostModel, "kernel_cost", staticmethod(
            lambda shader: walks.append(shader.name) or walk(shader)))
        shader = self._shader()
        times = []
        for _ in range(3):
            device = VirtualGPU(GEFORCE_7800GTX)
            a = device.upload(np.ones((4, 5, 4)))
            b = device.upload(np.ones((4, 5, 4)))
            target = device.create_target(4, 5)
            for _ in range(2):
                device.launch(shader, target, {"a": a, "b": b})
            times.append(device.counters.kernel_time_s)
        # once, on the first launch of the first device
        assert walks == ["k"]
        assert times[0] == times[1] == times[2]
        # the cached cost prices a launch exactly as a fresh walk does
        model = CostModel(GEFORCE_7800GTX)
        assert times[0] == 2 * model._timing(walk(shader), 5, 4).total_s
