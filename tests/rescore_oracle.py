"""Test-only oracle for DEPEN's restricted re-scoring selection.

The batched DEPEN round once chose its re-scored pairs one round-stamp
group at a time: for every distinct stamp it flagged the pairs with a
moved agreement entry by scanning every live cell, then intersected
that with the group and the endpoint test. :func:`per_stamp_selection`
keeps that loop, built on the public key-set surface
(:meth:`~repro.dependence.evidence.EvidenceCache.pairs_with_moved_entries`),
as the reference :func:`repro.truth.depen.select_affected` must match
bit for bit.
"""

from __future__ import annotations

import numpy as np


def per_stamp_selection(posterior, base_p, base_a, drift_p, drift_a, tol):
    """``(affected mask, surviving baseline stamps)`` per the old loop.

    Reads but never mutates ``base_p``/``base_a``. The surviving stamps
    are those some unaffected pair still carries once the affected ones
    are re-stamped (the old ``np.unique`` over the stamp array).
    """
    cache = posterior._cache
    stamps = posterior.stamp_array()
    keys = posterior.pair_keys()
    s1c, s2c = posterior.endpoint_codes()
    affected = np.zeros(stamps.size, dtype=bool)
    for stamp in np.unique(stamps).tolist():
        in_group = stamps == stamp
        if stamp not in base_p:
            # Never scored (stamp 0) or the baseline predates this
            # call: no basis for reuse.
            affected |= in_group
            continue
        moved_keys = cache.pairs_with_moved_entries(
            drift_p - base_p[stamp] > tol
        )
        moved = np.fromiter(
            (key in moved_keys for key in keys), dtype=bool, count=len(keys)
        )
        moved_src = drift_a - base_a[stamp] > tol
        affected |= in_group & (moved | moved_src[s1c] | moved_src[s2c])
    live = set(np.unique(stamps[~affected]).tolist())
    return affected, sorted(stamp for stamp in base_p if stamp in live)
