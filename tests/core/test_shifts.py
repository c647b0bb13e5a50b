"""Strided shifted copies against the clamped-index gather.

Every fixed-offset fetch — the interpreter's texture reads, the
shift-reuse engine's difference maps — goes through
:func:`repro.core.shifts.shifted_copy`.  Its contract is to return what
the fancy-indexing :func:`repro.core.shifts.clamped_shift` returns:
equal bytes, equal dtype and equal C-contiguity (einsum rounding is
contiguity-sensitive, so layout is part of the result).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shifts import clamped_shift, shifted_copy

#: Layouts the callers hand over: contiguous, Fortran-ordered, strided
#: (every other line), axis-swapped and reversed views.
LAYOUTS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "strided": lambda a: a[::2],
    "swapped": lambda a: np.swapaxes(a, 0, 1),
    "reversed": lambda a: a[:, ::-1],
}


@st.composite
def shifted_inputs(draw):
    ndim = draw(st.sampled_from((2, 3)))
    shape = [draw(st.integers(1, 7)), draw(st.integers(1, 7))]
    if ndim == 3:
        shape.append(draw(st.integers(1, 4)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    base = np.random.default_rng(seed).uniform(size=shape).astype(dtype)
    arr = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](base)
    h, w = arr.shape[:2]
    # offsets up to two past the extent: the whole image clamps there
    dy = draw(st.integers(-h - 2, h + 2))
    dx = draw(st.integers(-w - 2, w + 2))
    return arr, dy, dx


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@given(shifted_inputs())
@settings(max_examples=300, deadline=None)
def test_shifted_copy_matches_clamped_shift(case):
    arr, dy, dx = case
    _assert_same(shifted_copy(arr, dy, dx), clamped_shift(arr, dy, dx))


def test_offsets_at_and_past_extent_replicate_the_edge():
    arr = np.arange(12.0).reshape(3, 4)
    for dy, dx in ((3, 0), (0, 4), (-3, -4), (5, 9)):
        _assert_same(shifted_copy(arr, dy, dx), clamped_shift(arr, dy, dx))
    np.testing.assert_array_equal(shifted_copy(arr, 3, 4),
                                  np.full((3, 4), arr[-1, -1]))


def test_zero_offset_is_the_input_itself():
    arr = np.asfortranarray(np.ones((3, 4, 2)))
    assert shifted_copy(arr, 0, 0) is arr
    assert clamped_shift(arr, 0, 0) is arr
