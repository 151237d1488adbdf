"""Model and iteration parameters for dependence discovery.

The Bayesian dependence model of section 3.2 has three structural
parameters, gathered in :class:`DependenceParams`:

``alpha``
    The a-priori probability that an arbitrary pair of sources is
    dependent. The prior mass is split evenly between the two copy
    directions (S1 copies S2, S2 copies S1).
``copy_rate``
    ``c`` — given that a copier copies from an original, the probability
    that any particular shared value was copied (rather than provided
    independently). Partial copiers (section 3.1, "partial dependence")
    correspond to ``c < 1``.
``n_false_values``
    ``n`` — the number of (uniformly likely) false values per object in
    the domain. Larger ``n`` makes a *shared false value* stronger
    evidence of copying: the chance two independent sources pick the
    same false value is ``(1-A1)(1-A2)/n``.

Iterative algorithms additionally take :class:`IterationParams`.

Both classes validate their fields eagerly so mis-parameterisations fail
at construction rather than deep inside an iteration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.exceptions import ParameterError

#: Environment overrides honoured by :class:`DependenceParams`: each
#: variable replaces the matching field *when the field holds its
#: default value*. An explicit non-default argument always wins — CI
#: can re-run a whole suite under another execution policy without
#: silently changing a deliberate choice — but note the mechanism
#: compares values, so an argument explicitly passed *as* the default
#: (e.g. ``parallel_backend="serial"``) is indistinguishable from an
#: omitted one and is overridden too; code that must pin the default
#: behaviour regardless of environment should clear the variable
#: instead. Empty values are ignored. ``int`` fields reject
#: non-integers eagerly.
ENV_OVERRIDES: tuple[tuple[str, str], ...] = (
    ("parallel_backend", "REPRO_PARALLEL_BACKEND"),
    ("num_workers", "REPRO_NUM_WORKERS"),
    ("shard_size", "REPRO_SHARD_SIZE"),
    ("pool", "REPRO_POOL"),
    ("max_retries", "REPRO_MAX_RETRIES"),
    ("task_deadline", "REPRO_TASK_DEADLINE"),
)

_INT_ENV_FIELDS = ("num_workers", "shard_size", "max_retries")
_FLOAT_ENV_FIELDS = ("task_deadline",)

#: Environment overrides honoured by :class:`TemporalParams`, with the
#: same when-default-only semantics as :data:`ENV_OVERRIDES`. CI smoke
#: jobs use ``REPRO_EVIDENCE_DECAY`` to re-run the temporal suite under
#: decay-weighted evidence without touching any call site.
TEMPORAL_ENV_OVERRIDES: tuple[tuple[str, str], ...] = (
    ("evidence_decay", "REPRO_EVIDENCE_DECAY"),
)


@dataclass(frozen=True, slots=True)
class DependenceParams:
    """Structural parameters of the pairwise dependence model.

    ``false_value_model`` selects how likely two *independent* sources
    are to share a false value: ``"uniform"`` (the paper's sketch — one
    of ``n`` equally likely alternatives) or ``"empirical"`` — weight
    each shared value by its observed popularity among the object's
    other providers. The empirical model implements the paper's
    "correlated information" caveat: a *popular* wrong value (a common
    misspelling everyone repeats) is weak evidence of copying, while a
    value shared by exactly the suspected pair is damning.

    ``evidence_form`` selects how the latent truth of a shared value is
    handled while it is still uncertain. ``"expected_log"`` (the
    default) weights the true/false log-likelihoods by the current value
    probability — deliberately aggressive early on, which is what lets
    the truth-agnostic first round break up copier majorities on tiny
    inputs like the paper's Table 1. ``"marginal"`` marginalises the
    latent truth properly (``ln(p·Pt + (1-p)·Pf)``); it is
    better-calibrated on larger inputs but too timid to bootstrap the
    worked examples. Both coincide once value probabilities harden.

    ``max_providers_per_object`` guards the structural evidence pass
    against pathologically *hot* objects: pair enumeration is
    O(providers²) per object, so an object with thousands of providers
    dominates the sweep. When set, only the first ``max`` providers (in
    sorted source order — deterministic, so incremental maintenance and
    cold rebuilds agree) take part in pair enumeration for that object;
    truncations are logged and recorded by the evidence engine, never
    silent. ``None`` (the default) disables the cap.

    ``parallel_backend`` / ``num_workers`` / ``shard_size`` select how
    the structural evidence sweep is *executed* — they are execution
    policy, not model parameters, and never change any result
    (:mod:`repro.dependence.sharding` guarantees bit-for-bit identity
    with the serial path for every backend and worker count).
    ``"serial"`` (the default) is the single-threaded pure-Python pass;
    ``"numpy"`` vectorises candidate-pair generation and the record
    sweep in-process; ``"process"`` shards the sweep over object ranges
    and fans the shards out to ``num_workers`` worker processes (the GIL
    makes threads useless here); ``"resident"`` pins each shard to a
    long-lived worker that keeps the shard's packed claim rows resident
    across ``build()``/``sync()``/``refresh`` and receives only
    dirty-range deltas, cutting the bytes serialized per incremental
    sync (see :mod:`repro.exec.resident`). ``shard_size`` fixes the
    objects per shard; ``None`` derives a balanced size from
    ``num_workers``.

    ``pool`` controls worker lifetime under ``parallel_backend=
    "process"``: ``"ephemeral"`` (the default) forks a fresh pool per
    structural build and tears it down after; ``"persistent"`` keeps
    the pool alive across ``build()``/``sync()`` calls and rounds, so
    repeated rebuilds and streaming re-syncs pay the fork cost once
    (call ``close()`` on the cache/engine, or use it as a context
    manager, to release the workers). ``parallel_backend="resident"``
    workers are persistent by construction — their whole point is the
    state they retain — so ``pool`` does not apply to them.

    ``overlap_warning_bound`` guards the known calibration hazard of
    the *default* evidence model: ``expected_log`` + ``uniform``
    over-detects dependence on pairs with very large overlaps (the
    probability-weighted log-likelihood is deliberately aggressive, and
    its aggressiveness compounds linearly with overlap size — on a
    200-object, 20-source world it yields 184 false positives at
    threshold 0.9 where ``empirical``/``marginal`` yield none). When a
    candidate pair's overlap reaches the bound under that model
    combination, the evidence engine emits one structured
    :class:`~repro.exceptions.OverlapCalibrationWarning` recommending
    the ``false_value_model="empirical"`` or ``evidence_form=
    "marginal"`` escape hatch. The default bound of 128 sits between
    the paper-scale workloads (Table 1, Example 4.1 — overlaps of at
    most a few dozen, where expected_log is load-bearing) and the
    200-object failure case. ``None`` disables the warning.

    ``overlap_policy`` decides what the bound *does* under the
    hazardous model combination. ``"warn"`` (the default) emits the
    warning and leaves the evidence untouched; ``"auto"`` acts on it —
    any candidate pair whose overlap reaches the bound is scored with
    the *empirical* per-shared-value evidence form (the value's
    observed popularity replaces the uniform ``1/n`` false-value
    floor), while smaller pairs keep the aggressive expected-log
    aggregates that the paper-scale examples need to bootstrap;
    ``"ignore"`` silences the bound entirely. ``"auto"`` requires a
    bound and changes *results* (it is a model policy, not execution
    policy); it is inert under ``false_value_model="empirical"``,
    ``evidence_form="marginal"`` and the ``exact`` reference mode,
    which already avoid the hazard.

    ``max_retries`` / ``task_deadline`` / ``degrade_on_failure``
    configure the supervised execution layer
    (:class:`~repro.exec.supervisor.SupervisedExecutor`) that wraps
    the process-crossing backends: how often a failed task batch is
    retried (with exponential backoff and jitter), the per-batch
    wall-clock budget in seconds after which a hung worker is killed
    and the batch retried (``None`` waits forever), and whether
    exhausting the retries steps down the degradation ladder
    (``resident → process → numpy → serial``) instead of raising.
    Execution policy, never results: every backend is bit-for-bit
    equivalent, so retrying or degrading cannot change an answer.

    Execution-policy fields honour environment overrides
    (:data:`ENV_OVERRIDES`): ``REPRO_PARALLEL_BACKEND``,
    ``REPRO_NUM_WORKERS``, ``REPRO_SHARD_SIZE``, ``REPRO_POOL``,
    ``REPRO_MAX_RETRIES`` and ``REPRO_TASK_DEADLINE`` replace the
    matching field when it holds its default value — so CI can exercise a whole test suite under the
    process pool without touching any call site. Explicit *non-default*
    arguments always win; an argument explicitly passed as the default
    cannot be told apart from an omitted one (see
    :data:`ENV_OVERRIDES`).
    """

    alpha: float = 0.2
    copy_rate: float = 0.8
    n_false_values: int = 100
    false_value_model: str = "uniform"
    evidence_form: str = "expected_log"
    max_providers_per_object: int | None = None
    parallel_backend: str = "serial"
    num_workers: int = 1
    shard_size: int | None = None
    pool: str = "ephemeral"
    overlap_warning_bound: int | None = 128
    overlap_policy: str = "warn"
    max_retries: int = 2
    task_deadline: float | None = None
    degrade_on_failure: bool = True

    def _apply_env_overrides(self) -> None:
        defaults = {
            f.name: f.default for f in fields(self) if f.name in _ENV_FIELDS
        }
        for name, variable in ENV_OVERRIDES:
            raw = os.environ.get(variable)
            if not raw or getattr(self, name) != defaults[name]:
                continue
            value: object = raw
            if name in _INT_ENV_FIELDS:
                try:
                    value = int(raw)
                except ValueError:
                    raise ParameterError(
                        f"{variable} must be an integer, got {raw!r}"
                    ) from None
            elif name in _FLOAT_ENV_FIELDS:
                try:
                    value = float(raw)
                except ValueError:
                    raise ParameterError(
                        f"{variable} must be a float, got {raw!r}"
                    ) from None
            object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        self._apply_env_overrides()
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.copy_rate < 1.0:
            raise ParameterError(
                f"copy_rate must be in (0, 1), got {self.copy_rate}"
            )
        if self.n_false_values < 1:
            raise ParameterError(
                f"n_false_values must be >= 1, got {self.n_false_values}"
            )
        if self.false_value_model not in ("uniform", "empirical"):
            raise ParameterError(
                "false_value_model must be 'uniform' or 'empirical', got "
                f"{self.false_value_model!r}"
            )
        if self.evidence_form not in ("expected_log", "marginal"):
            raise ParameterError(
                "evidence_form must be 'expected_log' or 'marginal', got "
                f"{self.evidence_form!r}"
            )
        if (
            self.max_providers_per_object is not None
            and self.max_providers_per_object < 2
        ):
            raise ParameterError(
                "max_providers_per_object must be >= 2 (a pair needs two "
                f"providers) or None, got {self.max_providers_per_object}"
            )
        if self.parallel_backend not in (
            "serial",
            "process",
            "numpy",
            "resident",
        ):
            raise ParameterError(
                "parallel_backend must be 'serial', 'process', 'numpy' or "
                f"'resident', got {self.parallel_backend!r}"
            )
        if self.num_workers < 1:
            raise ParameterError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ParameterError(
                f"shard_size must be >= 1 or None, got {self.shard_size}"
            )
        if self.pool not in ("ephemeral", "persistent"):
            raise ParameterError(
                "pool must be 'ephemeral' or 'persistent', got "
                f"{self.pool!r}"
            )
        if (
            self.overlap_warning_bound is not None
            and self.overlap_warning_bound < 1
        ):
            raise ParameterError(
                "overlap_warning_bound must be >= 1 or None, got "
                f"{self.overlap_warning_bound}"
            )
        if self.overlap_policy not in ("warn", "auto", "ignore"):
            raise ParameterError(
                "overlap_policy must be 'warn', 'auto' or 'ignore', got "
                f"{self.overlap_policy!r}"
            )
        if self.overlap_policy == "auto" and self.overlap_warning_bound is None:
            raise ParameterError(
                "overlap_policy='auto' needs an overlap_warning_bound to "
                "act on; set a bound or use overlap_policy='ignore'"
            )
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ParameterError(
                f"task_deadline must be > 0 or None, got {self.task_deadline}"
            )

    @property
    def prior_independent(self) -> float:
        """Prior probability that a pair of sources is independent."""
        return 1.0 - self.alpha

    @property
    def prior_direction(self) -> float:
        """Prior probability of each single copy direction."""
        return self.alpha / 2.0


_ENV_FIELDS = frozenset(name for name, _ in ENV_OVERRIDES)
_TEMPORAL_ENV_FIELDS = frozenset(name for name, _ in TEMPORAL_ENV_OVERRIDES)


@dataclass(frozen=True, slots=True)
class IterationParams:
    """Convergence controls for iterative (truth, accuracy, dependence) loops.

    DEPEN re-scores every candidate pair in every round, as the
    reference loop in ``tests/truth_oracle.py`` does; these fields only
    decide where the iteration starts, how estimates are clamped and
    when it stops.
    """

    max_rounds: int = 30
    accuracy_tolerance: float = 1e-4
    initial_accuracy: float = 0.8
    accuracy_floor: float = 0.01
    accuracy_ceiling: float = 0.99
    fail_on_max_rounds: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.accuracy_tolerance <= 0:
            raise ParameterError(
                f"accuracy_tolerance must be > 0, got {self.accuracy_tolerance}"
            )
        if not 0.0 < self.initial_accuracy < 1.0:
            raise ParameterError(
                f"initial_accuracy must be in (0, 1), got {self.initial_accuracy}"
            )
        if not 0.0 < self.accuracy_floor < self.accuracy_ceiling < 1.0:
            raise ParameterError(
                "need 0 < accuracy_floor < accuracy_ceiling < 1, got "
                f"floor={self.accuracy_floor}, ceiling={self.accuracy_ceiling}"
            )

    def clamp_accuracy(self, accuracy: float) -> float:
        """Clamp an accuracy estimate into the open interval the model needs.

        Accuracy scores involve ``ln(A / (1-A))``; accuracies of exactly 0
        or 1 would make them infinite, so estimates are kept inside
        ``[floor, ceiling]``.
        """
        return min(self.accuracy_ceiling, max(self.accuracy_floor, accuracy))


@dataclass(frozen=True, slots=True)
class OpinionParams:
    """Parameters of the rater-dependence model (section 2.2, Example 2.2).

    ``alpha`` is the prior probability that a rater pair is dependent at
    all, split evenly between similarity- and dissimilarity-dependence and
    then between the two directions. ``influence_rate`` plays the role of
    the copy rate: the probability that a dependent rater's rating on any
    particular item was dictated by the dependence (copied, or chosen to
    oppose) rather than formed independently.
    """

    alpha: float = 0.2
    influence_rate: float = 0.8
    smoothing: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.influence_rate < 1.0:
            raise ParameterError(
                f"influence_rate must be in (0, 1), got {self.influence_rate}"
            )
        if self.smoothing <= 0:
            raise ParameterError(f"smoothing must be > 0, got {self.smoothing}")

    @property
    def prior_independent(self) -> float:
        """Prior probability that a rater pair is independent."""
        return 1.0 - self.alpha

    @property
    def prior_per_hypothesis(self) -> float:
        """Prior of each directed dependence hypothesis (4 of them)."""
        return self.alpha / 4.0


@dataclass(frozen=True, slots=True)
class TemporalParams:
    """Parameters of the temporal dependence model (section 3.2).

    ``max_copy_lag`` bounds how long after an original's update a copied
    update may appear (a lazy copier, section 3.1, may trail by up to
    this much). ``alpha`` mirrors the snapshot model; ``copy_rate`` is
    the probability a given co-adopted value was dictated by the copying
    (it doubles as the laziness model — a lazy copier has a low rate, so
    the default is lower than the snapshot 0.8). ``tie_prior`` is the
    probability two *independent* sources adopt a value at the same
    recorded instant (coarse-grained timestamps, e.g. years, make ties
    common); ``window_capture`` is the probability that an independent
    later adoption falls inside the copy-lag window anyway.
    ``rarity_weight`` controls how much simultaneous co-updates are
    discounted when many sources performed the same update (common
    updates are weak evidence — temporal intuition 2).

    ``evidence_decay`` (opt-in) down-weights each co-adoption's evidence
    by ``decay ** |Δt|`` where ``Δt`` is the gap between the two
    sources' adoption times: a copy lands promptly, so agreement between
    adoptions far apart in time says little about copying — stale
    assertions are *weakened* evidence, not hard counts. The default 1.0
    is bitwise-unchanged behaviour (the weighting branch is never
    entered); values in (0, 1) enable the decay. Honours the
    ``REPRO_EVIDENCE_DECAY`` environment override
    (:data:`TEMPORAL_ENV_OVERRIDES`) when the field holds its default.
    """

    alpha: float = 0.2
    copy_rate: float = 0.5
    n_false_values: int = 100
    max_copy_lag: float = 5.0
    tie_prior: float = 0.3
    window_capture: float = 0.8
    rarity_weight: float = 1.0
    freshness_adjustment: float = 0.0
    nt_floor: float = 0.01
    evidence_decay: float = 1.0

    def _apply_env_overrides(self) -> None:
        defaults = {
            f.name: f.default
            for f in fields(self)
            if f.name in _TEMPORAL_ENV_FIELDS
        }
        for name, variable in TEMPORAL_ENV_OVERRIDES:
            raw = os.environ.get(variable)
            if not raw or getattr(self, name) != defaults[name]:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise ParameterError(
                    f"{variable} must be a float, got {raw!r}"
                ) from None
            object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        self._apply_env_overrides()
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.copy_rate < 1.0:
            raise ParameterError(
                f"copy_rate must be in (0, 1), got {self.copy_rate}"
            )
        if self.n_false_values < 1:
            raise ParameterError(
                f"n_false_values must be >= 1, got {self.n_false_values}"
            )
        if self.max_copy_lag <= 0:
            raise ParameterError(
                f"max_copy_lag must be > 0, got {self.max_copy_lag}"
            )
        if not 0.0 < self.tie_prior < 1.0:
            raise ParameterError(
                f"tie_prior must be in (0, 1), got {self.tie_prior}"
            )
        if not 0.0 < self.window_capture <= 1.0:
            raise ParameterError(
                f"window_capture must be in (0, 1], got {self.window_capture}"
            )
        if self.rarity_weight < 0:
            raise ParameterError(
                f"rarity_weight must be >= 0, got {self.rarity_weight}"
            )
        if not 0.0 <= self.freshness_adjustment <= 1.0:
            raise ParameterError(
                "freshness_adjustment must be in [0, 1], got "
                f"{self.freshness_adjustment}"
            )
        if not 0.0 <= self.nt_floor < 1.0:
            raise ParameterError(
                f"nt_floor must be in [0, 1), got {self.nt_floor}"
            )
        if not 0.0 < self.evidence_decay <= 1.0:
            raise ParameterError(
                f"evidence_decay must be in (0, 1], got {self.evidence_decay}"
            )

    @property
    def prior_independent(self) -> float:
        """Prior probability that a pair of sources is independent."""
        return 1.0 - self.alpha

    @property
    def prior_direction(self) -> float:
        """Prior probability of each single copy direction."""
        return self.alpha / 2.0
