"""Unit tests for the counter records and aggregation."""

import pytest

from repro.gpu.counters import (
    GpuCounters,
    KernelLaunchRecord,
    TransferRecord,
)


def _launch(kernel="k", width=4, height=4, cycles=10.0, static=2,
            dynamic=0, time_s=1e-4, compute=6e-5, memory=4e-5):
    return KernelLaunchRecord(kernel=kernel, width=width, height=height,
                              cycles_per_fragment=cycles,
                              static_fetches=static,
                              dynamic_fetches=dynamic,
                              modeled_time_s=time_s,
                              compute_time_s=compute,
                              memory_time_s=memory)


class TestRecords:
    def test_fragments(self):
        assert _launch(width=6, height=7).fragments == 42

    def test_records_are_frozen(self):
        record = _launch()
        with pytest.raises(AttributeError):
            record.kernel = "other"


class TestAggregation:
    @pytest.fixture()
    def counters(self):
        c = GpuCounters()
        c.record_launch(_launch(kernel="a", time_s=2e-4))
        c.record_launch(_launch(kernel="b", width=8, time_s=3e-4,
                                static=1, dynamic=2))
        c.record_launch(_launch(kernel="a", time_s=1e-4))
        c.record_transfer(TransferRecord("upload", 1000, 5e-5))
        c.record_transfer(TransferRecord("download", 400, 2e-5))
        return c

    def test_launch_count(self, counters):
        assert counters.kernel_launch_count == 3

    def test_fragments_shaded(self, counters):
        assert counters.fragments_shaded == 16 + 32 + 16

    def test_texture_fetches(self, counters):
        # per fragment: a=2+0 (twice), b=1+2
        assert counters.texture_fetches == 16 * 2 + 32 * 3 + 16 * 2

    def test_byte_totals(self, counters):
        assert counters.bytes_uploaded == 1000
        assert counters.bytes_downloaded == 400

    def test_time_totals(self, counters):
        assert counters.kernel_time_s == pytest.approx(6e-4)
        assert counters.transfer_time_s == pytest.approx(7e-5)
        assert counters.total_time_s == pytest.approx(6.7e-4)

    def test_transfer_time_split(self, counters):
        assert counters.upload_time_s == pytest.approx(5e-5)
        assert counters.download_time_s == pytest.approx(2e-5)
        assert counters.upload_time_s + counters.download_time_s \
            == pytest.approx(counters.transfer_time_s)

    def test_time_by_kernel_groups(self, counters):
        profile = counters.time_by_kernel()
        assert profile["a"] == pytest.approx(3e-4)
        assert profile["b"] == pytest.approx(3e-4)

    def test_summary_keys_stable(self, counters):
        summary = counters.summary()
        assert set(summary) == {
            "kernel_launches", "fragments_shaded", "texture_fetches",
            "bytes_uploaded", "bytes_downloaded", "kernel_time_s",
            "transfer_time_s", "upload_time_s", "download_time_s",
            "total_time_s", "passes_fused"}

    def test_reset(self, counters):
        counters.reset()
        assert counters.kernel_launch_count == 0
        assert counters.total_time_s == 0.0
        assert counters.time_by_kernel() == {}
