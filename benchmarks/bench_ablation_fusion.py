"""Ablation — band-group fusion width of the reduction kernels.

DESIGN.md calls out kernel fusion as the implementation choice that
moves the GPU pipeline from pass-overhead-bound to ALU-bound: a width-w
cross kernel binds 2w band-group textures (capped by the 16 texture
units) and folds their dot products in one pass, cutting both launch
count and intermediate render-target writes by ~w.

This bench runs the *actual simulator* at every width on the same cube
and reports launches, fragments, modeled time — and verifies the result
is bit-for-bit invariant while the cost falls monotonically.
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.core.amc_gpu import gpu_morphological_stage

WIDTHS = (1, 2, 3, 6)


def _sweep(cube):
    # the paper's pass schedule, so rows stay comparable across versions
    return {fuse: gpu_morphological_stage(cube, fuse_groups=fuse,
                                          schedule="paper")
            for fuse in WIDTHS}


def test_ablation_fusion(benchmark, report):
    cube = np.random.default_rng(17).uniform(0.05, 1.0, size=(32, 32, 48))
    outs = benchmark.pedantic(_sweep, args=(cube,), rounds=1,
                              iterations=1, warmup_rounds=0)

    rows = []
    for fuse, out in outs.items():
        c = out.counters
        rows.append([fuse, int(c["kernel_launches"]),
                     c["fragments_shaded"] / 1e6,
                     c["kernel_time_s"] * 1e3,
                     out.modeled_time_s * 1e3])
    report("ablation_fusion", format_table(
        "Ablation — reduction-kernel fusion width (32x32x48 cube, "
        "7800 GTX)",
        ["width", "launches", "Mfragments", "kernel ms", "total ms"],
        rows))

    # Results identical at every width.
    base = outs[WIDTHS[0]]
    for fuse in WIDTHS[1:]:
        np.testing.assert_allclose(outs[fuse].mei, base.mei,
                                   rtol=1e-5, atol=1e-7)
    # Launches and modeled kernel time fall monotonically with width.
    launches = [outs[f].counters["kernel_launches"] for f in WIDTHS]
    times = [outs[f].counters["kernel_time_s"] for f in WIDTHS]
    assert launches == sorted(launches, reverse=True)
    assert times == sorted(times, reverse=True)
    # The full fusion is a substantial win, not a rounding effect.
    assert times[0] / times[-1] > 1.5
