"""Batched Bayes posterior kernel over the columnar evidence layout.

:func:`~repro.dependence.bayes.pair_posterior` scores one pair at a
time; a full DEPEN re-score round calls it ~``n²/2`` times, and after
the columnar refresh work of earlier iterations those scalar calls are
the dominant cost of a round. :class:`BatchedPosteriorEngine` computes
the three-hypothesis posterior for **all** candidate pairs (or any
index-selected subset) in one array pass instead: ``kt``/``kf``/``kd``
and the per-shared-value ``(p_true, popularity)`` segments already live
in flat arrays inside :class:`~repro.dependence.evidence.EvidenceCache`
and its :class:`~repro.dependence.entrystore.ColumnarAgreeStore`, so
the hypothesis log-likelihoods become gathers plus ``np.bincount``
segment sums, the ``calibrated``/``evidence_form``/``false_value_model``
branches lift to per-pair masks, and the final softmax is a vectorised
peak-shifted normalisation.

Bit-for-bit parity with the scalar reference is a hard requirement (the
whole repo's optimisation discipline), achieved by the conventions of
:mod:`repro.truth.columnar`:

* transcendentals come from :mod:`repro.core.fmath` on both sides: the
  kernel calls its array ``log_array``/``exp_array`` (numpy's SIMD
  ``np.log``/``np.exp``) and the scalar reference its ``log``/``exp``,
  which run the same ufunc on one Python float and so give the same
  bits as the matching array element;
* per-segment accumulation uses ``np.bincount``, which adds weights
  sequentially in input order — each pair's per-value terms are fed in
  segment (object) order, prefixed by the pair's ``kd`` term exactly
  where the scalar loop starts its total (a bin's leading ``+0.0``
  can only flip the sign of a zero, which the non-zero log-prior added
  afterwards erases);
* binary-operator chains mirror the scalar expressions' left-to-right
  association, and the ``_TINY`` floors and the 0.95 popularity clamp
  are applied at the same points.

Parity holds between the kernel and the scalar reference on one
machine; the test suite pins it with a ``pair_posterior`` loop over
``EvidenceCache.evidence``. The last ulps of a posterior may differ
across CPUs (numpy picks its SIMD ``log``/``exp`` loop by CPU feature),
as they already could across libm versions.

This kernel is the only production posterior path: ``discover_dependence``,
the streaming engine's re-scoring of dirty pairs between publishes and
DEPEN's rounds all score through it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core import fmath
from repro.core.params import DependenceParams
from repro.dependence.bayes import _TINY, PairDependence
from repro.exceptions import DataError


class BatchedPosteriorEngine:
    """All-pairs (or subset) posterior computation for one evidence cache.

    Reads the cache's columnar internals directly (same package); the
    cache hands instances out via
    :meth:`~repro.dependence.evidence.EvidenceCache.posterior_engine`,
    memoized per params. Static, refresh-independent state — pair keys
    in registry order, sids, endpoint source codes, ``kd``, segment
    lengths, the live-entry-to-pair-position map — is cached and
    brought up to date only when the cache's structural epoch moves
    (any ``sync``/``build`` bumps the dataset version or entry epoch),
    by a patch through the cache's pair log (:meth:`_ensure_static`).
    Per-call inputs are the current accuracies and the soft sum arrays
    of the last ``refresh``.

    Positions are indices into :meth:`pair_keys` (the cache's slot
    registry order — the exact order ``collect_all``/iteration yields
    pairs). All posterior outputs are bit-for-bit equal to running
    :func:`~repro.dependence.bayes.pair_posterior` on the evidence the
    cache would serve for the same pair.
    """

    def __init__(self, cache, params: DependenceParams) -> None:
        cache.check_compatible(params)
        self._cache = cache
        self._params = params
        self._state_key: tuple | None = None
        # The per-pair arrays start empty: the first read patches them
        # from nothing, which re-reads every pair.
        self._log = None
        self._keys: list = []
        self._pos_of_key: dict | None = None
        self.sources: list = []
        self._code: dict = {}
        none = np.empty(0, dtype=np.int64)
        self._sid = self._length = self._s1c = self._s2c = none
        self._kd = np.empty(0, dtype=np.float64)

    # -- static (structural) state --------------------------------------

    def _structural_key(self) -> tuple:
        cache = self._cache
        return (
            cache._synced_version,
            cache._entry_epoch,
            cache._store._n_sids,
            len(cache._slots),
        )

    def _ensure_static(self) -> None:
        """Bring the per-pair arrays up to the cache's registry.

        Patches the previous arrays through the cache's pair log: the
        surviving pairs' entries move with array operations (their sids
        through the log's compaction renumbering, their source codes
        through an old-to-new code map when the source list changed),
        and only appended pairs and pairs whose ``kd`` or segment length
        moved are re-read from their slots. Without a log that matches
        these arrays (the first read, a rebuilt cache, another engine
        having read since) the patch starts from no pairs and re-reads
        them all. Each patch makes new arrays and a new key list:
        results and snapshots of earlier publishes keep the old ones.
        """
        key = self._structural_key()
        if key == self._state_key:
            return
        cache = self._cache
        slots = cache._slots
        log = cache._pair_log
        if log is None or log is not self._log:
            log = None
            kept = np.empty(0, dtype=np.int64)
        else:
            dead = np.zeros(log.n_base_sids, dtype=bool)
            dead[log.dropped] = True
            kept = np.flatnonzero(~dead[self._sid])
        kept_s1c = self._s1c[kept]
        kept_s2c = self._s2c[kept]
        sources = cache.dataset.sources
        code = self._code
        if sources != self.sources:
            code = {source: i for i, source in enumerate(sources)}
            code_map = np.fromiter(
                (code.get(source, -1) for source in self.sources),
                dtype=np.int64,
                count=len(self.sources),
            )
            kept_s1c = code_map[kept_s1c]
            kept_s2c = code_map[kept_s2c]
            if kept.size and min(kept_s1c.min(), kept_s2c.min()) < 0:
                # A kept pair lost an endpoint source (fixed candidate
                # pairs): re-read every pair, which raises as a cold
                # read does.
                log = None
                kept = kept[:0]
        keys = list(slots)
        n_pairs = len(keys)
        n_kept = kept.size
        sid = np.empty(n_pairs, dtype=np.int64)
        kd = np.empty(n_pairs, dtype=np.float64)
        length = np.empty(n_pairs, dtype=np.int64)
        s1c = np.empty(n_pairs, dtype=np.int64)
        s2c = np.empty(n_pairs, dtype=np.int64)
        if n_kept:
            kept_sid = self._sid[kept]
            if log.base_of_sid is not None:
                renumbered = log.base_of_sid >= 0
                sid_of_base = np.full(log.n_base_sids, -1, dtype=np.int64)
                sid_of_base[log.base_of_sid[renumbered]] = np.flatnonzero(
                    renumbered
                )
                kept_sid = sid_of_base[kept_sid]
            sid[:n_kept] = kept_sid
            kd[:n_kept] = self._kd[kept]
            length[:n_kept] = self._length[kept]
            s1c[:n_kept] = kept_s1c
            s2c[:n_kept] = kept_s2c
        if n_kept < n_pairs:
            tail = (
                [slots[pair] for pair in keys[n_kept:]]
                if n_kept
                else list(slots.values())
            )
            sid[n_kept:] = [slot.sid for slot in tail]
            kd[n_kept:] = [slot.kd for slot in tail]
            length[n_kept:] = [slot.length for slot in tail]
            s1c[n_kept:] = [code[slot.s1] for slot in tail]
            s2c[n_kept:] = [code[slot.s2] for slot in tail]
        pos_of_sid = np.zeros(max(cache._store.n_sids, 1), dtype=np.int64)
        pos_of_sid[sid] = np.arange(n_pairs, dtype=np.int64)
        if log is not None and log.changed:
            # Pairs dropped since are gone from the registry; appended
            # ones were read above.
            rows = [
                (slot.sid, slot.kd, slot.length)
                for slot in map(slots.get, log.changed)
                if slot is not None
            ]
            moved = np.fromiter(
                itertools.chain.from_iterable(rows),
                dtype=np.int64,
                count=3 * len(rows),
            ).reshape(-1, 3)
            pos = pos_of_sid[moved[:, 0]]
            inside = pos < n_kept
            kd[pos[inside]] = moved[inside, 1]
            length[pos[inside]] = moved[inside, 2]
        self._keys = keys
        self._pos_of_key = None
        self.sources = sources
        self._code = code
        self._sid = sid
        self._kd = kd
        self._length = length
        self._s1c = s1c
        self._s2c = s2c
        # Per-pair mode lift of _slot_escaped: under overlap_policy=
        # "auto" a fast cache scores bound-reaching pairs with the
        # calibrated (marginal, popularity-aware) per-value treatment.
        if cache._auto_empirical:
            self._escaped = (
                length + kd.astype(np.int64) >= cache._overlap_bound
            )
        else:
            self._escaped = np.zeros(n_pairs, dtype=bool)
        # Per-value entry layout: only needed when some pair is scored
        # per-value (non-fast cache, or escaped pairs under auto).
        self._needs_values = (not cache._fast) or bool(self._escaped.any())
        if self._needs_values:
            live_sids, live_eids = cache._store.live()
            self._entry_pos = pos_of_sid[live_sids]
            self._entry_eids = live_eids
        self._log = cache._start_pair_log()
        self._state_key = key

    def pair_keys(self):
        """Pair keys in position order (the cache's registry order)."""
        self._ensure_static()
        return self._keys

    def positions_of(self, keys):
        """Positions of the given pair keys, as an int64 array."""
        self._ensure_static()
        pos_of_key = self._pos_of_key
        if pos_of_key is None:
            pos_of_key = dict(zip(self._keys, range(len(self._keys))))
            self._pos_of_key = pos_of_key
        return np.fromiter(
            (pos_of_key[key] for key in keys),
            dtype=np.int64,
            count=len(keys),
        )

    def endpoint_codes(self):
        """Per-position ``(s1, s2)`` source codes w.r.t. :attr:`sources`."""
        self._ensure_static()
        return self._s1c, self._s2c

    # -- per-call inputs -------------------------------------------------

    def _accuracy_vector(self, accuracies):
        """Source-code-indexed accuracy array from a mapping or array."""
        if isinstance(accuracies, np.ndarray):
            if accuracies.size != len(self.sources):
                raise DataError(
                    f"accuracy array has {accuracies.size} entries for "
                    f"{len(self.sources)} sources"
                )
            return np.asarray(accuracies, dtype=np.float64)
        acc = np.empty(len(self.sources), dtype=np.float64)
        for code, source in enumerate(self.sources):
            value = accuracies.get(source)
            if value is not None:
                acc[code] = value
            else:
                # Missing endpoint accuracies must fail like the scalar
                # loop's accuracies[s] probe; non-endpoint sources are
                # never read, so only flag codes that appear in a pair.
                acc[code] = np.nan
        return acc

    def _check_accuracies(self, a1, a2, positions) -> None:
        """The scalar per-call range check, hoisted to the batch boundary.

        One reduction over the gathered endpoint accuracies replaces
        ``2 × n_pairs`` scalar comparisons; out-of-range (or missing —
        NaN) values raise the same errors the scalar path would.
        """
        for name, arr in (("a1", a1), ("a2", a2)):
            if arr.size == 0:
                continue
            lo = arr.min()
            hi = arr.max()
            if 0.0 < lo and hi < 1.0:
                continue
            bad = np.flatnonzero(~((arr > 0.0) & (arr < 1.0)))[0]
            value = arr[bad]
            if math.isnan(value):
                keys = self.pair_keys()
                key = keys[int(positions[bad])]
                raise KeyError(key[0] if name == "a1" else key[1])
            raise DataError(
                f"{name} must be in (0, 1), got {float(value)}"
            )

    # -- the kernel ------------------------------------------------------

    def posterior_arrays(self, accuracies, positions=None):
        """``(p_independent, p_s1_copies_s2, p_s2_copies_s1)`` arrays.

        ``accuracies`` is a source-to-accuracy mapping or a
        source-code-indexed float64 array (codes per :attr:`sources`).
        ``positions`` selects a subset of pairs (unique indices into
        :meth:`pair_keys`); ``None`` scores every pair. Requires the
        cache to be refreshed against the current dataset version, like
        any evidence read.
        """
        cache = self._cache
        if not cache._refreshed:
            raise DataError(
                "evidence cache has not been refreshed yet — call "
                "refresh(value_probs) or collect_all(value_probs) first"
            )
        if cache.dataset.version != cache.synced_version:
            raise DataError(
                "dataset has grown since the last refresh — call "
                "refresh(value_probs) or collect_all(value_probs) to fold "
                "the new claims in"
            )
        self._ensure_static()
        params = self._params
        if positions is None:
            positions = np.arange(self._kd.size, dtype=np.int64)
            s1c = self._s1c
            s2c = self._s2c
            kd = self._kd
            sid = self._sid
            escaped = self._escaped
        else:
            positions = np.asarray(positions, dtype=np.int64)
            s1c = self._s1c[positions]
            s2c = self._s2c[positions]
            kd = self._kd[positions]
            sid = self._sid[positions]
            escaped = self._escaped[positions]
        m = positions.size
        acc = self._accuracy_vector(accuracies)
        a1 = acc[s1c]
        a2 = acc[s2c]
        self._check_accuracies(a1, a2, positions)
        kt = cache._kt_arr[sid]
        kf = cache._kf_arr[sid]

        n = params.n_false_values
        c = params.copy_rate
        one_minus_c = 1.0 - c
        # Per-pair rates, association mirroring _per_object_rates /
        # pair_posterior exactly.
        pt_ind = a1 * a2
        pf_ind = (1.0 - a1) * (1.0 - a2) / n
        pd_ind = np.maximum(_TINY, 1.0 - pt_ind - pf_ind)
        pt_12 = a2 * c + pt_ind * one_minus_c  # S1 copies S2: original is S2
        pf_12 = (1.0 - a2) * c + pf_ind * one_minus_c
        pd_copy = one_minus_c * pd_ind  # identical for both directions
        pt_21 = a1 * c + pt_ind * one_minus_c
        pf_21 = (1.0 - a1) * c + pf_ind * one_minus_c

        log_pt = (
            fmath.log_array(np.maximum(pt_ind, _TINY)),
            fmath.log_array(np.maximum(pt_12, _TINY)),
            fmath.log_array(np.maximum(pt_21, _TINY)),
        )
        log_pd_ind = fmath.log_array(np.maximum(pd_ind, _TINY))
        log_pd_copy = fmath.log_array(np.maximum(pd_copy, _TINY))
        log_pd = (log_pd_ind, log_pd_copy, log_pd_copy)

        if cache._fast:
            value_mask = escaped
            marginal = True  # escaped pairs are calibrated → marginalised
        else:
            value_mask = np.ones(m, dtype=bool)
            marginal = cache._evidence_form == "marginal"
        any_value = bool(value_mask.any())
        all_value = bool(value_mask.all()) if m else False

        lls = [None, None, None]
        if not all_value:
            # Aggregate-count path: kt·ln Pt + kf·ln Pf + kd·ln Pd.
            log_pf = (
                fmath.log_array(np.maximum(pf_ind, _TINY)),
                fmath.log_array(np.maximum(pf_12, _TINY)),
                fmath.log_array(np.maximum(pf_21, _TINY)),
            )
            for h in range(3):
                lls[h] = kt * log_pt[h] + kf * log_pf[h] + kd * log_pd[h]

        if any_value:
            value_lls = self._per_value_logliks(
                positions,
                value_mask,
                marginal,
                a1,
                a2,
                kd,
                (pt_ind, pt_12, pt_21),
                log_pt,
                log_pd,
            )
            if all_value:
                lls = value_lls
            else:
                for h in range(3):
                    lls[h] = np.where(value_mask, value_lls[h], lls[h])

        log_prior_ind = fmath.log(params.prior_independent)
        log_prior_dir = fmath.log(params.prior_direction)
        lp0 = log_prior_ind + lls[0]
        lp1 = log_prior_dir + lls[1]
        lp2 = log_prior_dir + lls[2]
        peak = np.maximum(np.maximum(lp0, lp1), lp2)
        w0 = fmath.exp_array(lp0 - peak)
        w1 = fmath.exp_array(lp1 - peak)
        w2 = fmath.exp_array(lp2 - peak)
        total = w0 + w1 + w2
        return w0 / total, w1 / total, w2 / total

    def _per_value_logliks(
        self,
        positions,
        value_mask,
        marginal,
        a1,
        a2,
        kd,
        pt,
        log_pt,
        log_pd,
    ):
        """Per-value log-likelihoods for the selected value-mode pairs.

        Mirrors ``_log_likelihood_per_value``: each pair's total starts
        at ``kd·ln(max(Pd, TINY))`` and accumulates its segment's
        per-entry terms in object order — reproduced here as one
        ``np.bincount`` per hypothesis whose weights put every pair's
        ``kd`` term first (array prefix) and the entries after, so each
        bin adds in the scalar loop's order.
        """
        cache = self._cache
        params = self._params
        m = positions.size
        # Map selected positions to local bins, then keep only entries
        # whose pair is a selected value-mode pair.
        local = np.full(self._kd.size, -1, dtype=np.int64)
        local[positions[value_mask]] = np.flatnonzero(value_mask)
        entry_local = local[self._entry_pos]
        keep = entry_local >= 0
        e_bin = entry_local[keep]
        e_eids = self._entry_eids[keep]

        p = cache._p_arr[e_eids]
        floor = 1.0 / params.n_false_values
        if cache._pop_arr is not None:
            pop = cache._pop_arr[e_eids]
            q = np.where(
                pop < 0.0,
                floor,
                np.minimum(0.95, np.maximum(floor, pop)),
            )
        else:
            q = np.full(e_eids.size, floor, dtype=np.float64)
        om = (1.0 - a1) * (1.0 - a2)
        pf_ind_v = om[e_bin] * q
        c = params.copy_rate
        one_minus_c = 1.0 - c
        # Per-entry false-value rates per hypothesis; the copy
        # hypotheses' (1-a_original)·c constant is a per-pair gather.
        const_12 = (1.0 - a2) * c
        const_21 = (1.0 - a1) * c
        pf_v = (
            pf_ind_v,
            const_12[e_bin] + one_minus_c * pf_ind_v,
            const_21[e_bin] + one_minus_c * pf_ind_v,
        )

        bins_prefix = np.arange(m, dtype=np.int64)
        if marginal:
            bins = np.concatenate([bins_prefix, e_bin])
        else:
            one_minus_p = 1.0 - p
            bins = np.concatenate([bins_prefix, np.repeat(e_bin, 2)])
        out = []
        for h in range(3):
            kd_terms = kd * log_pd[h]
            if marginal:
                terms = fmath.log_array(
                    np.maximum(p * pt[h][e_bin] + (1.0 - p) * pf_v[h], _TINY)
                )
            else:
                term_true = p * log_pt[h][e_bin]
                term_false = one_minus_p * fmath.log_array(
                    np.maximum(pf_v[h], _TINY)
                )
                terms = np.empty(2 * e_bin.size, dtype=np.float64)
                terms[0::2] = term_true
                terms[1::2] = term_false
            out.append(
                np.bincount(
                    bins,
                    weights=np.concatenate([kd_terms, terms]),
                    minlength=m,
                )
            )
        return out

    def posterior_pairs(self, accuracies, positions=None):
        """The selected pairs' posteriors as ``PairDependence`` objects.

        Convenience wrapper for graph-building call sites; the fused
        DEPEN loop uses :meth:`posterior_arrays` directly and skips the
        object churn.
        """
        p_ind, p12, p21 = self.posterior_arrays(accuracies, positions)
        keys = self.pair_keys()
        if positions is not None:
            keys = [keys[i] for i in np.asarray(positions).tolist()]
        return [
            PairDependence(s1, s2, pi, pa, pb)
            for (s1, s2), pi, pa, pb in zip(
                keys, p_ind.tolist(), p12.tolist(), p21.tolist()
            )
        ]
