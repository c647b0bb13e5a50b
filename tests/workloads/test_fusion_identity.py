"""Pinned byte identity across every registered workload.

Each case hashes its result arrays with sha256 and compares them with a
pin recorded when the repository still carried a second, bit-identical
implementation of every fast path (the historical per-pass code).  Both
implementations hashed to these values, so the pins keep checking what
the old cross-implementation comparisons checked — including
chunk-parallel execution with injected faults, where a retried chunk
shares border-correction pixels with its neighbour via the halo-margin
handoff and must not double-apply them.
"""

import hashlib

import numpy as np
import pytest

from repro import faults
from repro.errors import UnknownConfigKeyError
from repro.core import AMCConfig, run_amc
from repro.faults import FaultInjector, FaultSpec
from repro.hsi import SceneParams, generate_scene
from repro.profiling import Profiler
from repro.workloads import get_workload

#: (backend, radius) -> (sha256 of labels + mei + abundances,
#: sha256 of erosion_index + dilation_index), n_classes=3.
AMC_PINS = {
    ("reference", 1): (
        "866c51b0462647788244a470950774f1caf23e6fe38d49bcda4a933e2664e3a6",
        "4280ccb9ac41ade98e02b985465d4d582c9b2604292491372bb55ba71883c1f3"),
    ("reference", 2): (
        "8893ef257303769d9be7c4488f6eb7d86d5ec0e44aee6795d2e159440b8e27fa",
        "e51b92c87ab421f4976a5d130f59133dbaa27b56f4f7c3bc87c313c34f80d4bd"),
    ("reference", 3): (
        "6094590d9d652da7eb6a4e46e2914c8790993d5ff058f921b61dc356408888b9",
        "5c0760bf829120bbd8b7c2b911458c4baa511ef37c9e3f912270db582b37bed3"),
    ("gpu", 1): (
        "742e7e32167ea764299aa8508087faf63acd742701d09f1e298a4ec5d70abd9d",
        "3cc8783dbdf733c4625e346322d96b0464039568bf1e7336e23add559913be5c"),
    ("gpu", 2): (
        "426f931f949d31e6dec370a6bd53ebadf8b419c9ce0146ab32841136a07ba33c",
        "13b9f23fc4bd440d56b54ec4cd30f6cc627759e3835efdef2bec5adcb58000a5"),
    ("gpu", 3): (
        "dc3d86b0bdca0dae6da91b05adf4b48ddb8dcd9b34508fa77d88001afdc1d839",
        "79f9655c310134cd09a2b341a94a907f6b8cb4229ed2ba81793f9d21caea584f"),
}
#: labels + mei + abundances of the default (reference, r=1) run —
#: ``AMC_PINS[("reference", 1)][0]``, restated for the serial/parallel
#: and fault-retry cases.
SERIAL_PIN = AMC_PINS[("reference", 1)][0]
#: labels + mei of the default run.
SERIAL_LABELS_MEI_PIN = \
    "4b6784d308c1886d1f441a6dd6edc2bb5782a6a4f2546c8da5a12ed5070a6d20"
#: (abundances, labels) of ``unmixing="fnnls"``.
FNNLS_PINS = (
    "5ce45e6550caabd157d319ca17342a6a5968e5822f01c9597745b530c1c7a351",
    "c35f1ec0ae27bfd61d561f62dd0f8d8586e3cee86e57c1ab4b8fcfbd1d050f1f")
#: detector scores.
DETECTION_PINS = {
    "sam": "0965b2caaa684ffd4d2a8eaeb65c631a24002b16c896551dfe6bca3997ca5133",
    "cem": "78065aeb3e6537e8354b14246801a5bd74c33afa202c5ab68622722ea71fd449",
    "rx": "b245ab9d18fc5cf224202a7859c070d883d478dadd99d3eaa28b1ee06bd62b2f",
}
#: (transformed, components) of PCA with 4 components.
PCA_PINS = (
    "092cc6c34e96467734d049ddc778828b99f38044602e40cc9dd7fb68d0cdd616",
    "15770f447ffd84deac149c6bbdedd48c969e7b32f1d66135b50d3842d7cc5891")


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SceneParams(lines=36, samples=28, band_count=24,
                                      seed=20060815, min_field=5))


@pytest.fixture(scope="module")
def cube(scene):
    return scene.cube.as_bip()


@pytest.fixture(scope="module")
def target(scene, cube):
    labels, counts = np.unique(scene.ground_truth, return_counts=True)
    rarest = min(((int(lab), int(cnt)) for lab, cnt in zip(labels, counts)
                  if lab != 0), key=lambda pair: pair[1])[0]
    return tuple(float(v) for v in
                 cube[scene.ground_truth == rarest].mean(axis=0))


@pytest.fixture()
def _clean_faults():
    faults.uninstall()
    faults.set_attempt(0)
    yield
    faults.uninstall()
    faults.set_attempt(0)


class TestAmcIdentity:
    @pytest.mark.parametrize("backend", ("reference", "gpu"))
    @pytest.mark.parametrize("radius", (1, 2, 3))
    def test_fused_matches_oracle(self, cube, backend, radius):
        result = run_amc(cube, AMCConfig(n_classes=3, backend=backend,
                                         se_radius=radius))
        assert (_sha256(result.labels, result.mei, result.abundances),
                _sha256(result.erosion_index, result.dilation_index)) \
            == AMC_PINS[(backend, radius)]

    def test_fnnls_unmixing_matches_oracle(self, cube):
        result = run_amc(cube, AMCConfig(n_classes=3, unmixing="fnnls"))
        assert (_sha256(result.abundances), _sha256(result.labels)) == \
            FNNLS_PINS

    def test_parallel_fused_matches_serial_oracle(self, cube):
        """Chunked execution with halo-margin border sharing hashes the
        same as the serial run."""
        serial = run_amc(cube, AMCConfig(n_classes=3))
        assert _sha256(serial.labels, serial.mei) == SERIAL_LABELS_MEI_PIN
        profiler = Profiler()
        parallel = run_amc(cube, AMCConfig(n_classes=3, n_workers=2),
                           profiler=profiler)
        assert _sha256(parallel.labels, parallel.mei) == \
            SERIAL_LABELS_MEI_PIN
        # the margin handoff actually fired: elided border rows counted
        (morph,) = [r for r in profiler.stage_records
                    if r.name == "morphology"]
        assert morph.counters.get("border_pixels_shared", 0.0) > 0.0

    def test_gpu_counters_report_fusion(self, cube):
        profiler = Profiler()
        result = run_amc(cube, AMCConfig(n_classes=3, backend="gpu"),
                         profiler=profiler)
        summary = result.gpu_output.counters
        assert "passes_fused" in summary
        # the same number reaches the --profile morphology stage record
        (morph,) = [r for r in profiler.stage_records
                    if r.name == "morphology"]
        assert morph.counters["passes_fused"] == summary["passes_fused"]


class TestChaosRetryIdentity:
    def test_retried_chunk_does_not_double_apply_border_map(
            self, cube, _clean_faults):
        """A fault-injected chunk retry recomputes its halo margins from
        scratch; the shared border pixels must be applied exactly once."""
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=0, attempt=0)]))
        profiler = Profiler()
        chaos = run_amc(cube,
                        AMCConfig(n_classes=3, n_workers=2, max_retries=1),
                        profiler=profiler)
        assert _sha256(chaos.labels, chaos.mei, chaos.abundances) == \
            SERIAL_PIN
        retried = [r for r in profiler.chunk_records if r.index == 0]
        assert retried and retried[0].retries >= 1

    def test_retry_identity_holds_for_oracle_mode_too(
            self, cube, _clean_faults):
        """The same chaos run with the fault on the other chunk."""
        faults.install(FaultInjector(
            [FaultSpec(kind="transient", index=1, attempt=0)]))
        chaos = run_amc(cube,
                        AMCConfig(n_classes=3, n_workers=2, max_retries=1))
        assert _sha256(chaos.labels, chaos.mei, chaos.abundances) == \
            SERIAL_PIN


class TestDetectionReductionIdentity:
    @pytest.mark.parametrize("name", ("sam", "cem", "rx"))
    def test_detection_fused_matches_oracle(self, name, cube, target):
        wl = get_workload(name)
        params = {"target": target} if wl.requires_target else {}
        assert _sha256(wl.run(cube, params).scores) == DETECTION_PINS[name]

    def test_pca_fused_matches_oracle(self, cube):
        result = get_workload("pca").run(cube, {"n_components": 4})
        assert (_sha256(result.transformed),
                _sha256(result.components)) == PCA_PINS

    def test_bad_optimize_rejected(self, cube):
        """The removed ``optimize`` knob is an unknown config key now:
        rejected with the typed error, naming the key."""
        with pytest.raises(UnknownConfigKeyError, match="optimize"):
            get_workload("amc").run(cube, {"n_classes": 3,
                                           "optimize": "never"})
