"""repro: a reproduction of "A System for Massively Parallel Hyperparameter
Tuning" (Li et al., MLSys 2020) — ASHA, its lineage, its baselines, and the
simulated distributed substrate its evaluation ran on.

Quick start::

    import numpy as np
    from repro import ASHA, SimulatedCluster
    from repro.objectives import mlp_real

    objective = mlp_real.make_objective()
    scheduler = ASHA(objective.space, np.random.default_rng(0),
                     min_resource=1, max_resource=64, eta=4)
    cluster = SimulatedCluster(num_workers=8)
    result = cluster.run(scheduler, objective, time_limit=2000)
    print(scheduler.best_trial().config)
"""

from . import (
    analysis,
    backend,
    core,
    experiments,
    models,
    objectives,
    searchers,
    searchspace,
    study,
    telemetry,
)
from .backend import (
    FailureInjectingObjective,
    RetryPolicy,
    SimulatedCluster,
    ThreadPoolBackend,
)
from .core import (
    ASHA,
    PBT,
    AsyncHyperband,
    DoublingSHA,
    Fabolas,
    Hyperband,
    ParallelAsyncHyperband,
    RandomSearch,
    Scheduler,
    SynchronousSHA,
)
from .core import SCHEDULERS, build_scheduler
from .searchers import (
    SEARCHERS,
    GPEISearcher,
    GridSearcher,
    KDESearcher,
    RandomSearcher,
    Searcher,
    build_searcher,
)
from .searchspace import Choice, IntUniform, LogUniform, QUniform, SearchSpace, Uniform
from .study import Journal, Study
from .telemetry import TelemetryHub
from .tune import FunctionObjective, TuneResult, tune

__version__ = "1.0.0"

__all__ = [
    "ASHA",
    "AsyncHyperband",
    "Choice",
    "DoublingSHA",
    "Fabolas",
    "FailureInjectingObjective",
    "FunctionObjective",
    "GPEISearcher",
    "GridSearcher",
    "Hyperband",
    "IntUniform",
    "Journal",
    "KDESearcher",
    "LogUniform",
    "PBT",
    "ParallelAsyncHyperband",
    "QUniform",
    "RandomSearch",
    "RandomSearcher",
    "RetryPolicy",
    "SCHEDULERS",
    "SEARCHERS",
    "Scheduler",
    "SearchSpace",
    "Searcher",
    "Study",
    "build_scheduler",
    "build_searcher",
    "SimulatedCluster",
    "SynchronousSHA",
    "TelemetryHub",
    "ThreadPoolBackend",
    "TuneResult",
    "Uniform",
    "analysis",
    "tune",
    "backend",
    "core",
    "experiments",
    "models",
    "objectives",
    "searchers",
    "searchspace",
    "study",
    "telemetry",
]
