"""Tuning algorithms: ASHA and everything the paper compares it against."""

from .asha import ASHA
from .async_hyperband import AsyncHyperband, ParallelAsyncHyperband
from .bracket import Bracket, sha_rung_schedule
from .contract import ContractChecker, ContractViolation
from .doubling import DoublingSHA
from .fabolas import Fabolas
from .hyperband import Hyperband, hyperband_bracket_sizes
from .pbt import PBT
from .random_search import RandomSearch
from .registry import SCHEDULERS, build_scheduler, default_bracket_size
from .rung import Rung
from .scheduler import Scheduler
from .sha import SynchronousSHA
from .stopping import (
    CurveExtrapolationRule,
    MedianStoppingRule,
    StoppingRule,
    StoppingWrapper,
)
from .types import Config, Job, Measurement, Trial, TrialStatus

__all__ = [
    "ASHA",
    "AsyncHyperband",
    "Bracket",
    "Config",
    "ContractChecker",
    "ContractViolation",
    "CurveExtrapolationRule",
    "DoublingSHA",
    "Fabolas",
    "Hyperband",
    "Job",
    "Measurement",
    "MedianStoppingRule",
    "PBT",
    "ParallelAsyncHyperband",
    "RandomSearch",
    "Rung",
    "SCHEDULERS",
    "Scheduler",
    "StoppingRule",
    "StoppingWrapper",
    "SynchronousSHA",
    "Trial",
    "TrialStatus",
    "build_scheduler",
    "default_bracket_size",
    "hyperband_bracket_sizes",
    "sha_rung_schedule",
]
