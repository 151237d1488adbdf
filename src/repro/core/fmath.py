"""The one ``log``/``exp`` the parity-pinned kernels and their oracles share.

Every batched kernel in this package is pinned bit for bit to a scalar
reference: :class:`~repro.dependence.bayes_batch.BatchedPosteriorEngine`
to :func:`~repro.dependence.bayes.pair_posterior`, and
:class:`~repro.truth.columnar.TruthRoundEngine` to the dict-path vote
helpers of the test suite's oracle (``tests/truth_oracle.py``). Both
sides of each pair take their transcendentals from this module, so
which ``log``/``exp`` the guarantee rests on is decided here and
nowhere else.

That ``log``/``exp`` is numpy's:

* :func:`log_array` / :func:`exp_array` call ``np.log`` / ``np.exp``
  on a float64 array (the SIMD loops, ~2 ns per element);
* :func:`log` / :func:`exp` call the same ufunc on one Python float and
  return a Python ``float``. numpy runs a 0-d input through the same
  inner loop as any array element, so ``log(x) == log_array(a)[i]`` bit
  for bit whenever ``a[i] == x`` — whatever the array's length, offset
  or stride.

Parity therefore holds between the scalar and batched paths on one
machine by construction. Against libm, numpy's SIMD ``log``/``exp``
differ by at most 1 ulp on a small share of inputs, and which SIMD
loop runs depends on the CPU (AVX-512 or not), so the last ulps of a
result may differ across machines, as they already could across libm
versions.

The error behaviour is :mod:`math`'s, not numpy's: ``log`` of ``x <= 0``
raises :class:`ValueError`, an ``exp`` whose result overflows raises
:class:`OverflowError`, and NaN passes through — numpy would return
``-inf``/NaN/``inf`` with a warning instead. The array functions raise
the same errors if any element would.
"""

from __future__ import annotations

import numpy as np

_np_log = np.log
_np_exp = np.exp

#: ``exp`` is finite for every argument up to this bound (the true
#: threshold is ln(DBL_MAX) ≈ 709.7827); larger arguments take the
#: checked path.
_EXP_SAFE_MAX = 709.0


def log(x: float) -> float:
    """Natural log of one float; :class:`ValueError` for ``x <= 0``."""
    if not x > 0.0 and x == x:
        raise ValueError(f"log domain error: {x!r}")
    return float(_np_log(x))


def exp(x: float) -> float:
    """``e**x`` of one float; :class:`OverflowError` when it overflows."""
    if x > _EXP_SAFE_MAX:
        return float(_exp_checked(np.asarray(x, dtype=np.float64)))
    return float(_np_exp(x))


def log_array(x: np.ndarray) -> np.ndarray:
    """Element-wise natural log of a float64 array (see :func:`log`)."""
    if x.size and not x.min() > 0.0 and (x <= 0.0).any():
        raise ValueError("log domain error: non-positive element")
    return _np_log(x)


def exp_array(x: np.ndarray) -> np.ndarray:
    """Element-wise ``e**x`` of a float64 array (see :func:`exp`)."""
    if (
        x.size
        and not x.max() <= _EXP_SAFE_MAX
        and (x > _EXP_SAFE_MAX).any()
    ):
        return _exp_checked(x)
    return _np_exp(x)


def _exp_checked(x):
    """``np.exp`` for arguments that may overflow, raising like :mod:`math`."""
    with np.errstate(over="ignore"):
        out = _np_exp(x)
    if np.any(np.isinf(out) & np.isfinite(x)):
        raise OverflowError("exp overflow")
    return out
