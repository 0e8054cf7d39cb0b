"""Per-figure reproduction drivers and the experiment registry."""

from . import figures
from .methods import MethodSettings, method_factory, standard_methods
from .parallel import JOBS_ENV_VAR, parallel_map, resolve_jobs
from .runner import (
    aggregate_methods,
    run_methods,
    run_studies,
    run_trials,
    sequence_seeds,
)
from .specs import EXPERIMENTS, ExperimentSpec, get_spec

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "JOBS_ENV_VAR",
    "MethodSettings",
    "aggregate_methods",
    "figures",
    "get_spec",
    "method_factory",
    "parallel_map",
    "resolve_jobs",
    "run_methods",
    "run_studies",
    "run_trials",
    "sequence_seeds",
    "standard_methods",
]
