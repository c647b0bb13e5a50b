"""The GPU stage's shift-reuse pass schedule against the paper's.

The reuse schedule builds one SID map per unique offset difference and
gathers each cumulative stream from fixed-offset reads of those maps,
on chunks edge-replicated by the SE radius.  Its contract is byte
identity with the paper's per-pair schedule — MEI, erosion and dilation
indices — for every radius, chunk plan, fusion width and worker count,
with fewer launches and less modeled device time.
"""

import hashlib

import numpy as np
import pytest

from repro.backends.builtin import GpuBackend
from repro.core import AMCConfig, gpu_morphological_stage, run_amc
from repro.core.mei import se_offsets
from repro.core.pairreuse import unique_difference_offsets
from repro.errors import ValidationError
from repro.gpu import GEFORCE_7800GTX, VirtualGPU
from repro.gpu.texture import TEXEL_BYTES, band_group_count


def digest(out) -> str:
    h = hashlib.sha256()
    for array in (out.mei, out.erosion_index, out.dilation_index):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def tight_spec(shape, radius, lines):
    """A board whose VRAM holds ``lines`` padded lines of the reuse
    working set: 3G stacks, K streams, U maps and 10 scratch targets."""
    _, samples, bands = shape
    offsets = se_offsets(radius)
    per_line = (samples + 2 * radius) * TEXEL_BYTES * (
        3 * band_group_count(bands) + len(offsets)
        + len(unique_difference_offsets(offsets)) + 10)
    return GEFORCE_7800GTX.with_(vram_bytes=int(per_line * lines / 0.85) + 64)


@pytest.fixture(scope="module")
def cube():
    return np.random.default_rng(7).uniform(0.05, 1.0, size=(13, 11, 10))


@pytest.fixture(scope="module")
def paper(cube):
    return {r: gpu_morphological_stage(cube, r, schedule="paper")
            for r in (1, 2, 3)}


class TestBitIdentity:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_single_chunk(self, cube, paper, radius):
        out = gpu_morphological_stage(cube, radius)
        assert out.chunk_count == 1
        assert digest(out) == digest(paper[radius])

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_forced_multi_chunk(self, cube, paper, radius):
        spec = tight_spec(cube.shape, radius, lines=4 * radius + 3)
        device = VirtualGPU(spec)
        out = gpu_morphological_stage(cube, radius, device=device)
        assert out.chunk_count > 1
        assert digest(out) == digest(paper[radius])
        assert device.vram.used == 0

    @pytest.mark.parametrize("fuse", [1, 6])
    def test_fusion_widths(self, cube, paper, fuse):
        out = gpu_morphological_stage(cube, 2, fuse_groups=fuse)
        assert digest(out) == digest(paper[2])

    def test_tight_vram_chunks_without_oom(self):
        """The planner budgets the maps and the padded extent: the
        projection test's 48 KiB board chunks the reuse schedule."""
        cube = np.random.default_rng(2).uniform(0.1, 1.0, (16, 10, 12))
        spec = GEFORCE_7800GTX.with_(vram_bytes=48 * 1024)
        chunked = gpu_morphological_stage(cube, spec=spec)
        assert chunked.chunk_count > 1
        whole = gpu_morphological_stage(cube, schedule="paper")
        assert whole.chunk_count == 1
        assert digest(chunked) == digest(whole)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_run_amc_two_workers(self, radius):
        """Chunk-parallel run_amc: the default gpu backend, the paper
        schedule and the serial run all return the same bytes."""
        cube = np.random.default_rng(11).uniform(0.05, 1.0, (14, 9, 8))
        results = [
            run_amc(cube, AMCConfig(n_classes=3, se_radius=radius,
                                    backend=backend, n_workers=workers))
            for backend, workers in (("gpu", 2),
                                     (GpuBackend(schedule="paper"), 2),
                                     ("gpu", 1))]
        for result in results[1:]:
            np.testing.assert_array_equal(result.mei, results[0].mei)
            np.testing.assert_array_equal(result.labels, results[0].labels)
            np.testing.assert_array_equal(result.abundances,
                                          results[0].abundances)


class TestAccounting:
    def test_default_is_reuse(self):
        assert GpuBackend().schedule == "reuse"
        assert GpuBackend(schedule="paper").schedule == "paper"

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_one_map_per_difference(self, cube, paper, radius):
        out = gpu_morphological_stage(cube, radius)
        maps = [n for n in out.time_by_kernel if n.startswith("sid_")]
        assert len(maps) == len(unique_difference_offsets(
            se_offsets(radius)))
        assert out.counters["kernel_launches"] \
            < paper[radius].counters["kernel_launches"]
        assert out.modeled_time_s < paper[radius].modeled_time_s

    def test_launch_count_at_radius_two(self, cube, paper):
        """10 bands = 3 groups = one fusion batch: 40 maps x (1 cross +
        1 SID) + 25 streams x 2 gather passes, against 300 pairs x
        (1 cross + 1 SID + 2 accumulates); the other stages are shared."""
        out = gpu_morphological_stage(cube, 2)
        shared = paper[2].counters["kernel_launches"] - 300 * 4
        assert out.counters["kernel_launches"] == shared + 40 * 2 + 25 * 2

    def test_unknown_schedule_rejected(self, cube):
        with pytest.raises(ValidationError, match="schedule"):
            gpu_morphological_stage(cube, schedule="pairs")
        with pytest.raises(ValidationError, match="schedule"):
            GpuBackend(schedule="pairs")


class TestChunkHaloMargins:
    """A chunk-parallel piece's halo rows are real image context: the
    reuse schedule edge-pads only the frame lines they leave missing."""

    def test_two_workers_shade_only_missing_lines(self):
        cube = np.random.default_rng(0).uniform(
            0.1, 1.0, (64, 32, 16)).astype(np.float32)
        serial, parallel = (
            run_amc(cube, AMCConfig(n_classes=3, backend="gpu",
                                    se_radius=2, n_workers=n))
            for n in (1, 2))
        assert serial.gpu_output.counters["fragments_shaded"] == 408_816
        # two 32-line cores, each shaded as core + 2r = 36 lines
        assert parallel.gpu_output.counters["fragments_shaded"] == 432_864
        assert digest(parallel.gpu_output) == digest(serial.gpu_output)

    def test_margins_leave_core_rows_identical(self, cube, paper):
        """A piece cut with a 2-line halo on both sides, run with those
        margins, matches the whole image on its core rows."""
        piece = cube[3:12]
        out = gpu_morphological_stage(piece, 2, halo_margins=(2, 2))
        whole = paper[2]
        for got, want in ((out.mei, whole.mei),
                          (out.erosion_index, whole.erosion_index),
                          (out.dilation_index, whole.dilation_index)):
            np.testing.assert_array_equal(got[2:-2], want[5:10])
