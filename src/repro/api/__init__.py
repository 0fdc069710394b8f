"""Registry-driven pipeline API: composable anonymize -> audit -> report runs.

This package is the library's orchestration layer:

* :mod:`repro.api.registry` - named, decorator-based registries for privacy
  models, anonymization algorithms, prior estimators and distance measures;
  the CLI, :func:`repro.anonymize.anonymizer.anonymize` and every session
  resolve plugins through them;
* :mod:`repro.api.session` - :class:`Session`, a cache-backed workspace that
  estimates kernel priors (the dominant preparation cost) at most once per
  ``(bandwidth, kernel)``;
* :mod:`repro.api.pipeline` - the fluent :class:`Pipeline` builder returning
  a :class:`ReleaseBundle` (release + attack outcome + utility + timings);
* :mod:`repro.api.sweep` - :func:`expand_grid` / :meth:`Session.sweep` for
  model/parameter grids run serially through one session's shared caches.
"""

from repro.api import builtins as _builtins  # noqa: F401  (registers built-in entries)
from repro.api.pipeline import Pipeline, ReleaseBundle
from repro.api.registry import (
    ALGORITHMS,
    MEASURES,
    MODELS,
    PRIOR_ESTIMATORS,
    Registry,
    RegistryEntry,
    register_algorithm,
    register_measure,
    register_model,
    register_prior_estimator,
)
from repro.api.session import Session, SessionStats
from repro.api.sweep import SweepOutcome, SweepRow, SweepSpec, expand_grid, run_sweep

__all__ = [
    "ALGORITHMS",
    "MEASURES",
    "MODELS",
    "PRIOR_ESTIMATORS",
    "Pipeline",
    "Registry",
    "RegistryEntry",
    "ReleaseBundle",
    "Session",
    "SessionStats",
    "SweepOutcome",
    "SweepRow",
    "SweepSpec",
    "expand_grid",
    "register_algorithm",
    "register_measure",
    "register_model",
    "register_prior_estimator",
    "run_sweep",
]
