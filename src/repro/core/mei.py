"""Vectorized reference implementation of the morphological stage.

This module computes, for every pixel of a hyperspectral image:

1. the **cumulative SID distance** of every structuring-element neighbour
   (paper eq. 1),
2. the **extended erosion** (eq. 5, argmin of the cumulative distance)
   and **extended dilation** (eq. 6, argmax),
3. the **Morphological Eccentricity Index** — the SID between the
   dilation and erosion pixels (AMC step 2).

Semantics shared by all implementations in this library (reference, naive
oracle, GPU):

* the structuring element is the square of radius ``r`` —
  ``B = {-r..r} x {-r..r}``, ``(2r+1)^2`` elements (the paper uses 3x3,
  i.e. r = 1);
* out-of-image coordinates are **clamped to the edge**
  (replicate padding), matching the ``GL_CLAMP_TO_EDGE`` addressing the
  GPU kernels use;
* argmin/argmax break ties by the lowest neighbour index (row-major
  order of the SE).

Two execution strategies produce bit-identical results:

* ``method="shift"`` (the default) — the shift-reuse engine of
  :mod:`repro.core.pairreuse`: one full-image SID map per *unique
  offset difference* (``((4r+1)^2 - 1)/2`` maps), every pair map a
  shifted view plus a recomputed border band, and a lazy MEI gather
  over only the (erosion, dilation) pairs that occur;
* ``method="pairs"`` — the historical all-pairs loop, one full-image
  map per unordered SE-offset pair (``K(K-1)/2`` maps) via the
  cross-entropy decomposition; kept as the opt-out oracle the reuse
  path is pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.pairreuse import (PairReuseEngine, PairReuseStats,
                                  gather_mei)
from repro.core.shifts import clamped_shift
from repro.errors import ShapeError, ValidationError
from repro.spectral.distances import sid_self_entropy
from repro.spectral.normalize import normalize_image, safe_log

#: Execution strategies of :func:`cumulative_distances` /
#: :func:`mei_reference`.
MEI_METHODS = ("shift", "pairs")


@lru_cache(maxsize=64)
def se_offsets(radius: int) -> tuple[tuple[int, int], ...]:
    """Row-major offsets ``(dy, dx)`` of the square SE of a given radius.

    Index ``k`` of the returned tuple is the neighbour index used by the
    erosion/dilation maps of every implementation.
    """
    if radius < 0:
        raise ValidationError(f"SE radius must be >= 0, got {radius}")
    return tuple((dy, dx)
                 for dy in range(-radius, radius + 1)
                 for dx in range(-radius, radius + 1))


def _check_method(method: str) -> None:
    if method not in MEI_METHODS:
        raise ValidationError(
            f"method must be one of {MEI_METHODS}, got {method!r}")


@dataclass(frozen=True)
class MorphologicalOutput:
    """Everything the morphological stage produces for one image.

    Attributes
    ----------
    mei:
        (H, W) morphological eccentricity index — SID between the
        dilation and erosion pixels of each neighbourhood.
    erosion_index / dilation_index:
        (H, W) SE-neighbour indices selected by eq. 5 / eq. 6 (row-major
        index into :func:`se_offsets`).
    cumulative:
        (H, W, K) cumulative distances, ``K = (2r+1)^2`` — kept because
        the ablation benches and the tests inspect them.
    radius:
        The SE radius used.
    stats:
        :class:`~repro.core.pairreuse.PairReuseStats` of the shift-reuse
        engine when it ran (``method="shift"``), else ``None``.
    """

    mei: np.ndarray
    erosion_index: np.ndarray
    dilation_index: np.ndarray
    cumulative: np.ndarray
    radius: int
    stats: PairReuseStats | None = None

    def erosion_offsets(self) -> np.ndarray:
        """(H, W, 2) array of (dy, dx) selected by the erosion."""
        offs = np.array(se_offsets(self.radius))
        return offs[self.erosion_index]

    def dilation_offsets(self) -> np.ndarray:
        """(H, W, 2) array of (dy, dx) selected by the dilation."""
        offs = np.array(se_offsets(self.radius))
        return offs[self.dilation_index]


def _pair_maps_loop(normalized: np.ndarray, offsets, log_img: np.ndarray,
                    entropy: np.ndarray, *, keep_maps: bool):
    """The all-pairs loop: one cross-entropy evaluation per unordered
    SE-offset pair, with cached shifted views."""
    h, w, _ = normalized.shape
    k_count = len(offsets)
    shifted_p = [clamped_shift(normalized, dy, dx) for dy, dx in offsets]
    shifted_l = [clamped_shift(log_img, dy, dx) for dy, dx in offsets]
    shifted_h = [clamped_shift(entropy, dy, dx) for dy, dx in offsets]

    cumulative = np.zeros((h, w, k_count), dtype=np.float64)
    pair_maps: dict[tuple[int, int], np.ndarray] = {}
    for ka in range(k_count):
        pa, la, ha = shifted_p[ka], shifted_l[ka], shifted_h[ka]
        for kb in range(ka + 1, k_count):
            pb, lb, hb = shifted_p[kb], shifted_l[kb], shifted_h[kb]
            cross = np.einsum("ijk,ijk->ij", pa, lb) \
                + np.einsum("ijk,ijk->ij", pb, la)
            sid_map = np.maximum(ha + hb - cross, 0.0)
            cumulative[:, :, ka] += sid_map
            cumulative[:, :, kb] += sid_map
            if keep_maps:
                pair_maps[(ka, kb)] = sid_map
    return cumulative, pair_maps


def cumulative_distances(normalized: np.ndarray, radius: int = 1,
                         *, return_pair_maps: bool = False,
                         method: str = "shift"):
    """Cumulative SID distance of every SE neighbour at every pixel.

    Parameters
    ----------
    normalized:
        (H, W, N) image, pixel vectors already normalized to unit sum
        (eq. 3-4).  Use :func:`repro.spectral.normalize.normalize_image`.
    radius:
        SE radius (paper: 1, i.e. a 3x3 window).
    return_pair_maps:
        Also return the dict of per-pair SID maps keyed by ``(ka, kb)``
        with ``ka < kb``.  On the shift path this materializes all
        ``K(K-1)/2`` maps (callers that only need the occurring pairs
        should use the engine's lazy :meth:`~repro.core.pairreuse.\
PairReuseEngine.pair_map` instead, as :func:`mei_reference` does).
    method:
        ``"shift"`` (default) evaluates one map per unique offset
        difference and shifts it into every pair (bit-identical);
        ``"pairs"`` runs the historical all-pairs loop.

    Returns
    -------
    numpy.ndarray [, dict]
        (H, W, K) array where slot ``k`` holds
        ``D_B[f(x + a_k)] = sum_b SID(f(x + a_k), f(x + b))`` with all
        coordinates clamped to the image.
    """
    _check_method(method)
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={normalized.ndim}")
    offsets = se_offsets(radius)

    log_img = safe_log(normalized)
    entropy = sid_self_entropy(normalized)

    if method == "pairs":
        cumulative, pair_maps = _pair_maps_loop(
            normalized, offsets, log_img, entropy,
            keep_maps=return_pair_maps)
    else:
        engine = PairReuseEngine(normalized, offsets, log_img=log_img,
                                 entropy=entropy)
        cumulative = engine.accumulate_cumulative()
        pair_maps = {}
        if return_pair_maps:
            k_count = len(offsets)
            pair_maps = {(ka, kb): engine.pair_map(ka, kb)
                         for ka in range(k_count)
                         for kb in range(ka + 1, k_count)}
    if return_pair_maps:
        return cumulative, pair_maps
    return cumulative


def mei_reference(cube_bip: np.ndarray, radius: int = 1, *,
                  prenormalized: bool = False,
                  method: str = "shift",
                  halo_margins: tuple[int, int] = (0, 0)
                  ) -> MorphologicalOutput:
    """Full morphological stage on the CPU (vectorized reference).

    Parameters
    ----------
    cube_bip:
        (H, W, N) image cube; raw radiance unless ``prenormalized``.
    radius:
        SE radius.
    prenormalized:
        Skip eq. 3-4 normalization when the caller already applied it.
    method:
        ``"shift"`` (default) runs the
        :class:`~repro.core.pairreuse.PairReuseEngine` fast path;
        ``"pairs"`` the all-pairs loop.  Bit-identical outputs either
        way.
    halo_margins:
        ``(top, bottom)`` rows that are this image's discarded chunk
        halo — a neighbouring chunk owns them.  On the shift path,
        border bands falling entirely inside a margin are skipped and
        counted as ``border_pixels_shared``; **the returned arrays are
        then only valid outside the margins** (the chunk stitcher
        discards the rest).  Must be ``(0, 0)`` — the default —
        everywhere else.

    Returns
    -------
    MorphologicalOutput
    """
    _check_method(method)
    cube_bip = np.asarray(cube_bip)
    if cube_bip.ndim != 3:
        raise ShapeError(f"expected (H, W, N), got ndim={cube_bip.ndim}")
    normalized = cube_bip.astype(np.float64) if prenormalized \
        else normalize_image(cube_bip)
    # normalize_image preserves float32 inputs; the reference pair maps
    # have always been computed in float64 (the historical cast at the
    # cumulative_distances entry), so cast *before* taking logs.
    normalized = np.asarray(normalized, dtype=np.float64)

    offsets = se_offsets(radius)
    k_count = len(offsets)
    log_img = safe_log(normalized)
    entropy = sid_self_entropy(normalized)

    engine: PairReuseEngine | None = None
    if method == "pairs":
        cumulative, pair_maps = _pair_maps_loop(
            normalized, offsets, log_img, entropy, keep_maps=True)
    else:
        engine = PairReuseEngine(normalized, offsets, log_img=log_img,
                                 entropy=entropy,
                                 halo_margins=halo_margins)
        cumulative = engine.accumulate_cumulative()

    erosion_index = np.argmin(cumulative, axis=2)
    dilation_index = np.argmax(cumulative, axis=2)

    # MEI(x) = SID(f(x + a_dil), f(x + a_ero)) — exactly the pair map of
    # the (erosion, dilation) index pair, gathered per pixel for the
    # pairs that actually occur.
    stats = None
    if engine is None:
        mei, _ = gather_mei(erosion_index, dilation_index,
                            lambda ka, kb: pair_maps[(ka, kb)], k_count)
    else:
        mei, gathered = engine.gather_mei_fast(erosion_index,
                                               dilation_index)
        engine.count_mei_pairs(gathered)
        stats = engine.stats()
    return MorphologicalOutput(mei=mei, erosion_index=erosion_index,
                               dilation_index=dilation_index,
                               cumulative=cumulative, radius=radius,
                               stats=stats)
