"""Ablation — chunk size (VRAM budget) vs transfer overhead.

Paper §3.2 splits over-VRAM images into chunks of whole pixel vectors;
the halo each chunk must carry (so erosion/dilation at chunk borders is
exact) makes small chunks pay twice: re-uploaded halo lines and
per-chunk fixed costs.  This bench runs the simulator under shrinking
VRAM budgets and reports chunk count, redundant upload traffic and
modeled time — quantifying the design pressure behind "every chunk
incorporates all the spectral information on a localized spatial
region".
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.core.amc_gpu import gpu_morphological_stage
from repro.gpu import GEFORCE_7800GTX

BUDGETS_KIB = (16384, 512, 256, 128, 64)


def _sweep(cube):
    outs = {}
    for budget in BUDGETS_KIB:
        spec = GEFORCE_7800GTX.with_(vram_bytes=budget * 1024)
        outs[budget] = gpu_morphological_stage(cube, spec=spec,
                                               schedule="paper")
    return outs


def test_ablation_chunking(benchmark, report):
    cube = np.random.default_rng(23).uniform(0.05, 1.0, size=(48, 24, 24))
    outs = benchmark.pedantic(_sweep, args=(cube,), rounds=1,
                              iterations=1, warmup_rounds=0)

    ideal_upload = None
    rows = []
    for budget, out in outs.items():
        uploaded = out.counters["bytes_uploaded"]
        if ideal_upload is None:
            ideal_upload = uploaded  # single-chunk = no redundancy
        rows.append([f"{budget} KiB", out.chunk_count,
                     uploaded / 1e6,
                     100.0 * (uploaded / ideal_upload - 1.0),
                     out.modeled_time_s * 1e3])
    report("ablation_chunks", format_table(
        "Ablation — VRAM budget vs chunking overhead (48x24x24 cube)",
        ["VRAM", "chunks", "uploaded MB", "halo overhead %", "total ms"],
        rows))

    # Correctness is chunking-invariant...
    base = outs[BUDGETS_KIB[0]]
    for budget in BUDGETS_KIB[1:]:
        np.testing.assert_allclose(outs[budget].mei, base.mei,
                                   rtol=1e-6, atol=1e-8)
    # ...while chunk count rises and so does modeled time.
    chunks = [outs[b].chunk_count for b in BUDGETS_KIB]
    assert chunks == sorted(chunks)
    assert chunks[-1] > chunks[0]
    assert outs[BUDGETS_KIB[-1]].modeled_time_s > base.modeled_time_s
    # Redundant halo upload grows with chunk count.
    uploads = [outs[b].counters["bytes_uploaded"] for b in BUDGETS_KIB]
    assert uploads[-1] > uploads[0]
