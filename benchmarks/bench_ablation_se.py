"""Ablation — structuring-element size (the O(p_f x p_B x N) claim).

Paper §3.1 states the algorithm's complexity as O(p_f x p_B x N).  The
pair-map formulation actually scales with the number of *pairs*
(p_B(p_B-1)/2), which is the O(p_B) factor per neighbour the paper
counts; this bench measures both the modeled GPU time and the analytic
CPU workload at SE radius 1 and 2 and verifies the predicted growth
(25x24/2 = 300 pairs vs 9x8/2 = 36: about 8.3x more pair work).
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.core.amc_gpu import gpu_morphological_stage
from repro.core.workload import morphological_workload

RADII = (1, 2)


def _sweep(cube):
    # the paper's per-pair schedule: the pair count is what is measured
    return {r: gpu_morphological_stage(cube, radius=r, schedule="paper")
            for r in RADII}


def test_ablation_se_size(benchmark, report):
    cube = np.random.default_rng(29).uniform(0.05, 1.0, size=(24, 24, 32))
    outs = benchmark.pedantic(_sweep, args=(cube,), rounds=1,
                              iterations=1, warmup_rounds=0)

    rows = []
    for radius, out in outs.items():
        w = morphological_workload(24, 24, 32, radius)
        rows.append([f"{2 * radius + 1}x{2 * radius + 1}",
                     w.pair_count,
                     w.flops / 1e6,
                     int(out.counters["kernel_launches"]),
                     out.modeled_time_s * 1e3])
    report("ablation_se", format_table(
        "Ablation — structuring element size (24x24x32 cube, 7800 GTX)",
        ["SE", "pairs", "Mflops", "launches", "total ms"], rows))

    t1 = outs[1].modeled_time_s
    t2 = outs[2].modeled_time_s
    pair_ratio = 300 / 36
    # Modeled time grows with the pair count (transfer terms dilute the
    # pure ratio, so accept a broad band around it).
    assert 0.5 * pair_ratio < t2 / t1 < 1.3 * pair_ratio
    # MEI at radius 2 sees a wider window -> scores dominate radius 1 on
    # average (more pixels per neighbourhood, larger cumulative sums).
    assert outs[2].mei.mean() > outs[1].mei.mean()
