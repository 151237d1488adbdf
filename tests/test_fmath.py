"""The shared transcendental convention: scalar == array, math's errors.

:mod:`repro.core.fmath` is what the bit-for-bit parity between the
batched kernels and their scalar oracles rests on. Its contract:

* the scalar ``log``/``exp`` of a float equal, bit for bit, the array
  functions' element for that float — over subnormals, values near 1,
  the kernels' ``_TINY`` floor, the whole positive range, and ``exp``
  arguments across the underflow edge;
* an array result does not depend on the array's length, its offset
  into a larger buffer, or its stride;
* errors and NaN behave as in :mod:`math`: ``ValueError`` for the log
  of a non-positive number, ``OverflowError`` for an overflowing exp,
  NaN passed through — and no numpy floating-point warning escapes.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fmath
from repro.dependence.bayes import _TINY

SMALLEST_SUBNORMAL = 5e-324
SMALLEST_NORMAL = sys.float_info.min


def _bits(values) -> list[str]:
    """Exact bit patterns (``float.hex`` tells ``-0.0`` from ``0.0``)."""
    return [float(v).hex() for v in values]


def _around(x: float, steps: int = 4) -> list[float]:
    """``x`` and its ``steps`` float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


#: Positive log arguments, weighted toward the regions where SIMD and
#: scalar code paths are most likely to part: subnormals, values near 1
#: (where log loses relative precision), the ``_TINY`` floor the
#: kernels clamp to, and the full normal range up to ``DBL_MAX``.
log_args = st.one_of(
    st.floats(min_value=SMALLEST_SUBNORMAL, max_value=SMALLEST_NORMAL),
    st.floats(min_value=0.999, max_value=1.001),
    st.sampled_from(_around(_TINY) + _around(1.0) + _around(SMALLEST_NORMAL)),
    st.floats(
        min_value=SMALLEST_SUBNORMAL,
        max_value=sys.float_info.max,
        allow_infinity=False,
    ),
)

#: exp arguments across the range the kernels feed it (peak-shifted
#: log-masses, always <= 0), including the subnormal/zero edge near -745.
exp_args = st.one_of(
    st.floats(min_value=-746.0, max_value=0.0),
    st.floats(min_value=-746.0, max_value=-700.0),
    st.floats(min_value=-1e-6, max_value=0.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(log_args, min_size=1, max_size=40))
def test_log_scalar_equals_array_element(values):
    array = fmath.log_array(np.array(values, dtype=np.float64))
    assert _bits(fmath.log(v) for v in values) == _bits(array)


@settings(max_examples=300, deadline=None)
@given(st.lists(exp_args, min_size=1, max_size=40))
def test_exp_scalar_equals_array_element(values):
    array = fmath.exp_array(np.array(values, dtype=np.float64))
    assert _bits(fmath.exp(v) for v in values) == _bits(array)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["log", "exp"]),
    data=st.data(),
    offset=st.integers(min_value=0, max_value=17),
    stride=st.integers(min_value=1, max_value=5),
    chunk=st.integers(min_value=1, max_value=9),
)
def test_array_result_independent_of_length_offset_stride(
    kind, data, offset, stride, chunk
):
    args = log_args if kind == "log" else exp_args
    fn = fmath.log_array if kind == "log" else fmath.exp_array
    values = data.draw(st.lists(args, min_size=1, max_size=64))
    n = len(values)
    contiguous = np.array(values, dtype=np.float64)
    # The same values embedded at an offset and stride into a larger
    # buffer whose other cells hold a harmless filler.
    buffer = np.full(offset + n * stride + 3, 0.5, dtype=np.float64)
    strided = buffer[offset : offset + n * stride : stride]
    strided[:] = contiguous
    reference = _bits(fn(contiguous))
    assert _bits(fn(strided)) == reference
    pieces = [fn(contiguous[i : i + chunk]) for i in range(0, n, chunk)]
    assert _bits(np.concatenate(pieces)) == reference


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_scalar_errors_and_nan_match_math(x):
    for ours, libm in ((fmath.log, math.log), (fmath.exp, math.exp)):
        try:
            expected = libm(x)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                ours(x)
            continue
        got = ours(x)
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got)
        elif math.isinf(expected):
            assert got == expected
        else:
            # A sanity bound, not the parity contract: numpy's SIMD
            # log/exp stay within an ulp or so of libm.
            assert abs(got - expected) <= 4 * math.ulp(expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
def test_array_errors_and_nan_match_math(values):
    array = np.array(values, dtype=np.float64)
    for ours, libm in (
        (fmath.log_array, math.log),
        (fmath.exp_array, math.exp),
    ):
        errors = set()
        for v in values:
            try:
                libm(v)
            except (ValueError, OverflowError) as exc:
                errors.add(type(exc))
        if errors:
            # One bad element fails the whole array; a log domain error
            # and an exp overflow cannot meet in one function.
            (error,) = errors
            with pytest.raises(error):
                ours(array)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ours(array)
        assert out.dtype == np.float64 and out.shape == array.shape
        assert np.array_equal(np.isnan(out), np.isnan(array))


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -_TINY, -math.inf])
def test_log_domain_error(x):
    with pytest.raises(ValueError):
        math.log(x)
    with pytest.raises(ValueError):
        fmath.log(x)
    with pytest.raises(ValueError):
        fmath.log_array(np.array([1.0, x, 2.0]))


@pytest.mark.parametrize("x", [709.79, 710.0, 1e308])
def test_exp_overflow_error(x):
    with pytest.raises(OverflowError):
        math.exp(x)
    with pytest.raises(OverflowError):
        fmath.exp(x)
    with pytest.raises(OverflowError):
        fmath.exp_array(np.array([0.0, x]))


def test_edges_pass_through_like_math():
    nan = math.nan
    assert math.isnan(fmath.log(nan)) and math.isnan(fmath.exp(nan))
    assert fmath.log(math.inf) == math.inf == math.log(math.inf)
    assert fmath.exp(math.inf) == math.inf == math.exp(math.inf)
    assert fmath.exp(-math.inf) == 0.0 == math.exp(-math.inf)
    # The largest finite exp: just below ln(DBL_MAX), on the checked path.
    assert fmath.exp(709.78) == float(fmath.exp_array(np.array([709.78]))[0])
    assert math.isfinite(fmath.exp(709.78))
    # A NaN beside an overflowing argument still raises, as math would
    # for that element.
    with pytest.raises(OverflowError):
        fmath.exp_array(np.array([nan, 800.0]))
    with pytest.raises(ValueError):
        fmath.log_array(np.array([nan, 0.0]))
    assert fmath.log_array(np.empty(0)).size == 0
    assert fmath.exp_array(np.empty(0)).size == 0
