"""Tests for the analytic performance projection.

The critical property: the projection equals the executed simulator's
counters exactly (so paper-scale projections are audited extrapolation).
"""

import numpy as np
import pytest

from repro.bench import (
    launch_catalogue,
    paper_size_points,
    platform_matrix,
    project_cpu_time,
    project_gpu_time,
)
from repro.bench.scaling import speedup_summary
from repro.core.amc_gpu import gpu_morphological_stage
from repro.cpu import GCC40, ICC90, PENTIUM4_NORTHWOOD, PRESCOTT_660
from repro.gpu import GEFORCE_7800GTX, GEFORCE_FX5950U


COUNTER_CASES = [((14, 13, 18), 6), ((10, 9, 7), 3), ((8, 8, 4), 1)]


def assert_projection_matches(cube, spec, schedule, radius=1, fuse=6):
    out = gpu_morphological_stage(cube, radius, spec=spec, fuse_groups=fuse,
                                  schedule=schedule)
    proj = project_gpu_time(spec, *cube.shape, radius, fuse_groups=fuse,
                            schedule=schedule)
    assert proj.launches == out.counters["kernel_launches"]
    assert proj.chunks == out.chunk_count
    assert proj.total_s == pytest.approx(out.modeled_time_s, rel=1e-12)
    assert proj.kernel_s == pytest.approx(out.counters["kernel_time_s"],
                                          rel=1e-12)
    return out, proj


class TestProjectionMatchesExecution:
    @pytest.mark.parametrize("shape,fuse", COUNTER_CASES)
    def test_counter_equality(self, shape, fuse):
        cube = np.random.default_rng(1).uniform(0.1, 1.0, shape)
        assert_projection_matches(cube, GEFORCE_7800GTX, "paper", fuse=fuse)

    def test_counter_equality_with_chunking(self):
        cube = np.random.default_rng(2).uniform(0.1, 1.0, (16, 10, 12))
        spec = GEFORCE_7800GTX.with_(vram_bytes=48 * 1024)
        out, proj = assert_projection_matches(cube, spec, "paper")
        assert out.chunk_count == proj.chunks > 1

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("shape,fuse", COUNTER_CASES)
    def test_counter_equality_reuse(self, shape, fuse, radius):
        cube = np.random.default_rng(1).uniform(0.1, 1.0, shape)
        assert_projection_matches(cube, GEFORCE_7800GTX, "reuse",
                                  radius=radius, fuse=fuse)

    def test_counter_equality_with_chunking_reuse(self):
        cube = np.random.default_rng(2).uniform(0.1, 1.0, (16, 10, 12))
        spec = GEFORCE_7800GTX.with_(vram_bytes=48 * 1024)
        out, proj = assert_projection_matches(cube, spec, "reuse")
        assert out.chunk_count == proj.chunks > 1

    def test_default_projection_is_the_paper_schedule(self):
        """Tables 4-5 price the paper's kernels unless asked otherwise."""
        paper = project_gpu_time(GEFORCE_7800GTX, 64, 64, 32, 2,
                                 schedule="paper")
        assert project_gpu_time(GEFORCE_7800GTX, 64, 64, 32, 2) == paper
        reuse = project_gpu_time(GEFORCE_7800GTX, 64, 64, 32, 2,
                                 schedule="reuse")
        assert reuse.launches < paper.launches
        assert reuse.total_s < paper.total_s

    def test_catalogue_structure(self):
        catalogue = launch_catalogue(bands=24, fuse_groups=6)
        names = [shader.name for shader, _ in catalogue]
        assert "bandsum_w6" in names
        assert "cross_0_1_w6" in names
        assert "mei_final" in names
        # 24 bands = 6 groups = one full fusion batch
        counts = {s.name: n for s, n in catalogue}
        assert counts["normalize"] == 6
        assert counts["cross_0_1_w6"] == 36


class TestScalingShape:
    def test_gpu_time_linear_in_lines(self):
        """At paper scale (where chunking amortizes launch overhead)
        doubling the image doubles the modeled time — the paper's
        "doubling the size doubles the execution time"."""
        t1 = project_gpu_time(GEFORCE_7800GTX, 307, 2166, 216).total_s
        t2 = project_gpu_time(GEFORCE_7800GTX, 614, 2166, 216).total_s
        assert t2 / t1 == pytest.approx(2.0, rel=0.05)

    def test_cpu_time_linear_in_pixels(self):
        a = project_cpu_time(PENTIUM4_NORTHWOOD, GCC40, 100, 100, 64)
        b = project_cpu_time(PENTIUM4_NORTHWOOD, GCC40, 200, 100, 64)
        assert b["total_s"] / a["total_s"] == pytest.approx(2.0, rel=1e-6)


class TestPaperRatios:
    """The headline performance claims of §4.3, as ratio bands."""

    @pytest.fixture(scope="class")
    def gcc_ratios(self):
        return speedup_summary(platform_matrix(paper_size_points(),
                                               cpu_build=GCC40))

    @pytest.fixture(scope="class")
    def icc_ratios(self):
        return speedup_summary(platform_matrix(paper_size_points(),
                                               cpu_build=ICC90))

    def test_gpu_beats_cpu_by_tens(self, gcc_ratios):
        # paper: "the speedup remains close to 55" (gcc)
        assert 25.0 < gcc_ratios["p4_over_7800"] < 70.0

    def test_icc_speedup_about_twenty(self, icc_ratios):
        # paper: "the Intel compiler reduces this value to 20"
        assert 12.0 < icc_ratios["p4_over_7800"] < 30.0

    def test_gpu_generation_gap(self, gcc_ratios):
        # paper: ~400% improvement FX5950 -> 7800 GTX
        assert 3.0 < gcc_ratios["fx5950_over_7800"] < 7.0

    def test_cpu_generation_gap_small(self, gcc_ratios):
        # paper: "below 10%" improvement Northwood -> Prescott
        assert 1.0 < gcc_ratios["p4_over_prescott"] < 1.10

    def test_old_gpu_still_beats_cpu(self, gcc_ratios):
        assert gcc_ratios["p4_over_fx5950"] > 3.0

    def test_icc_faster_than_gcc_but_not_4x(self):
        """Vectorization gains are capped by memory (the 1.65x effect)."""
        pts = paper_size_points()
        gcc = platform_matrix(pts, cpu_build=GCC40)["P4 C"]
        icc = platform_matrix(pts, cpu_build=ICC90)["P4 C"]
        gains = np.array(gcc) / np.array(icc)
        assert np.all(gains > 1.2) and np.all(gains < 3.0)


class TestReuseBeyondPaper:
    """The reuse schedule's projection at the Tables 4-5 sizes — the
    beyond-paper rows of docs/performance.md."""

    @pytest.mark.parametrize("board", [GEFORCE_FX5950U, GEFORCE_7800GTX],
                             ids=["fx5950", "7800gtx"])
    def test_faster_than_paper_at_every_size(self, board):
        for p in paper_size_points():
            paper = project_gpu_time(board, p.lines, p.samples, p.bands)
            reuse = project_gpu_time(board, p.lines, p.samples, p.bands,
                                     schedule="reuse")
            assert reuse.launches < paper.launches
            assert 1.4 < paper.total_s / reuse.total_s < 2.5
