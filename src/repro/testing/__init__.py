"""Conformance harness for the estimator zoo (``repro.testing``).

The paper's central caveat — mined models carry no simultaneous
(δ, ε) guarantee — puts the burden of trust on systematic empirical
checking.  This package is that checking, in the spirit of sklearn's
``estimator_checks``:

- :mod:`~repro.testing.registry` — every concrete estimator with a
  construction recipe, capability tags, and (rare, capped) waivers;
- :mod:`~repro.testing.datasets` — deterministic EDA-shaped baselines
  plus fault injectors and stress transforms;
- :mod:`~repro.testing.checks` — the invariant catalog;
- :mod:`~repro.testing.runner` — :func:`check_estimator` for one
  estimator, :func:`run_conformance` for the whole matrix, fanned out
  through :mod:`repro.core.parallel`.

See ``docs/conformance.md`` for how to register a new estimator or
waive a check.
"""

from . import chaos, checks, datasets, registry, runner
from .chaos import (
    ChaosError,
    CrashingScorer,
    CrashingTask,
    FailingScorer,
    FlakyEstimator,
    FlakyTask,
    HangingTask,
    ShardKillTask,
    SlowEstimator,
    SlowScorer,
    SlowTask,
    contend_steal,
    expire_lease,
)
from .checks import ALL_CHECKS, applicable_checks, get_check
from .registry import (
    MAX_WAIVERS,
    EstimatorSpec,
    discovered_estimator_classes,
    get_spec,
    iter_specs,
    register,
    spec_names,
    unregistered_classes,
)
from .runner import (
    ConformanceFailure,
    check_estimator,
    run_case,
    run_conformance,
    summarize,
)

__all__ = [
    "ALL_CHECKS",
    "ChaosError",
    "ConformanceFailure",
    "CrashingScorer",
    "CrashingTask",
    "FailingScorer",
    "EstimatorSpec",
    "FlakyEstimator",
    "FlakyTask",
    "HangingTask",
    "MAX_WAIVERS",
    "ShardKillTask",
    "SlowEstimator",
    "SlowScorer",
    "SlowTask",
    "applicable_checks",
    "chaos",
    "check_estimator",
    "checks",
    "contend_steal",
    "datasets",
    "expire_lease",
    "discovered_estimator_classes",
    "get_check",
    "get_spec",
    "iter_specs",
    "register",
    "registry",
    "run_case",
    "run_conformance",
    "runner",
    "spec_names",
    "summarize",
    "unregistered_classes",
]
