"""Hyperparameter domain definitions.

A :class:`Domain` describes the range and scale of a single hyperparameter.
Domains know how to sample themselves, clip values back into range, perturb
values (used by Population Based Training's explore step), and map values to
and from the unit interval (used by model-based searchers such as the Vizier
and Fabolas stand-ins).

The concrete domains mirror the kinds of hyperparameters that appear in the
paper's search spaces (Tables 1-3): continuous linear, continuous
log-scale, bounded integers, and categorical choices.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Domain",
    "Uniform",
    "LogUniform",
    "IntUniform",
    "QUniform",
    "Choice",
]


class Domain(ABC):
    """A single hyperparameter's domain.

    Subclasses implement sampling, clipping, PBT-style perturbation, and an
    invertible mapping to the unit interval.  All randomness flows through an
    explicit :class:`numpy.random.Generator` so callers control determinism.
    """

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one value uniformly (on the domain's natural scale)."""

    @abstractmethod
    def clip(self, value: Any) -> Any:
        """Project ``value`` back into the domain."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map ``value`` to [0, 1] on the domain's natural scale."""

    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Inverse of :meth:`to_unit` (up to discretisation)."""

    @abstractmethod
    def perturb(
        self, value: Any, rng: np.random.Generator, factors: tuple[float, float] = (0.8, 1.2)
    ) -> Any:
        """PBT explore step: nudge ``value`` by one of ``factors``.

        Continuous domains multiply by a randomly chosen factor and clip;
        discrete domains move to an adjacent choice, following Appendix A.3
        of the paper ("discrete hyperparameters are perturbed to two adjacent
        choices").
        """

    def contains(self, value: Any) -> bool:
        """Whether ``value`` lies inside the domain."""
        return self.clip(value) == value


@dataclass(frozen=True)
class Uniform(Domain):
    """Continuous hyperparameter sampled uniformly on a linear scale."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"Uniform requires low < high, got [{self.low}, {self.high}]")
        object.__setattr__(self, "_span", self.high - self.low)

    def sample(self, rng: np.random.Generator) -> float:
        # Bit-identical to rng.uniform(low, high): numpy computes exactly
        # low + (high - low) * random(), but the Generator.uniform wrapper
        # costs ~3.5x this inlined form (argument broadcasting + array
        # round-trip) — and sample() dominates the scheduler hot path.
        return self.low + self._span * rng.random()  # type: ignore[attr-defined]

    def clip(self, value: float) -> float:
        return float(min(max(value, self.low), self.high))

    def to_unit(self, value: float) -> float:
        return (self.clip(value) - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> float:
        return float(self.low + (self.high - self.low) * min(max(u, 0.0), 1.0))

    def perturb(
        self, value: float, rng: np.random.Generator, factors: tuple[float, float] = (0.8, 1.2)
    ) -> float:
        return self.clip(value * factors[rng.integers(len(factors))])


@dataclass(frozen=True)
class LogUniform(Domain):
    """Continuous hyperparameter sampled uniformly in log space."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low < self.high:
            raise ValueError(f"LogUniform requires 0 < low < high, got [{self.low}, {self.high}]")
        log_low = math.log(self.low)
        object.__setattr__(self, "_log_low", log_low)
        object.__setattr__(self, "_log_span", math.log(self.high) - log_low)

    def sample(self, rng: np.random.Generator) -> float:
        # Same draw as exp(rng.uniform(log(low), log(high))) bit for bit
        # (see Uniform.sample); the endpoint logs are hoisted to init.
        return math.exp(
            self._log_low + self._log_span * rng.random()  # type: ignore[attr-defined]
        )

    def clip(self, value: float) -> float:
        return float(min(max(value, self.low), self.high))

    def to_unit(self, value: float) -> float:
        lo, span = self._log_low, self._log_span  # type: ignore[attr-defined]
        return (math.log(self.clip(value)) - lo) / span

    def from_unit(self, u: float) -> float:
        lo, span = self._log_low, self._log_span  # type: ignore[attr-defined]
        # Clip: exp(log(low)) can undershoot low by one ulp.
        return self.clip(math.exp(lo + span * min(max(u, 0.0), 1.0)))

    def perturb(
        self, value: float, rng: np.random.Generator, factors: tuple[float, float] = (0.8, 1.2)
    ) -> float:
        return self.clip(value * factors[rng.integers(len(factors))])


@dataclass(frozen=True)
class IntUniform(Domain):
    """Integer hyperparameter sampled uniformly from [low, high] inclusive."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"IntUniform requires low < high, got [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def clip(self, value: int) -> int:
        return int(min(max(round(value), self.low), self.high))

    def to_unit(self, value: int) -> float:
        return (self.clip(value) - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> int:
        return self.clip(self.low + (self.high - self.low) * min(max(u, 0.0), 1.0))

    def perturb(
        self, value: int, rng: np.random.Generator, factors: tuple[float, float] = (0.8, 1.2)
    ) -> int:
        scaled = self.clip(value * factors[rng.integers(len(factors))])
        if scaled == value:
            # Guarantee movement for small integers where *0.8/1.2 rounds back.
            step = 1 if rng.random() < 0.5 else -1
            scaled = self.clip(value + step)
        return scaled


@dataclass(frozen=True)
class QUniform(Domain):
    """Quantised continuous hyperparameter: uniform on [low, high], rounded to a multiple of q."""

    low: float
    high: float
    q: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"QUniform requires low < high, got [{self.low}, {self.high}]")
        if self.q <= 0:
            raise ValueError(f"QUniform requires q > 0, got {self.q}")
        object.__setattr__(self, "_span", self.high - self.low)

    def _quantise(self, value: float) -> float:
        return float(round(value / self.q) * self.q)

    def sample(self, rng: np.random.Generator) -> float:
        # Bit-identical to clip(rng.uniform(low, high)); see Uniform.sample.
        return self.clip(self.low + self._span * rng.random())  # type: ignore[attr-defined]

    def clip(self, value: float) -> float:
        return float(min(max(self._quantise(value), self.low), self.high))

    def to_unit(self, value: float) -> float:
        return (self.clip(value) - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> float:
        return self.clip(self.low + (self.high - self.low) * min(max(u, 0.0), 1.0))

    def perturb(
        self, value: float, rng: np.random.Generator, factors: tuple[float, float] = (0.8, 1.2)
    ) -> float:
        scaled = self.clip(value * factors[rng.integers(len(factors))])
        if scaled == value:
            step = self.q if rng.random() < 0.5 else -self.q
            scaled = self.clip(value + step)
        return scaled


@dataclass(frozen=True)
class Choice(Domain):
    """Categorical hyperparameter drawn uniformly from an ordered list of values.

    The order matters for :meth:`perturb`: PBT moves to an *adjacent* choice,
    so ordinal categoricals (e.g. batch size in {64, 128, 256, 512}) perturb
    sensibly.
    """

    values: tuple = field(default_factory=tuple)

    def __init__(self, values: Sequence[Any]):
        if len(values) < 2:
            raise ValueError("Choice requires at least two values")
        if len(set(values)) != len(values):
            raise ValueError("Choice values must be distinct")
        object.__setattr__(self, "values", tuple(values))

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[rng.integers(len(self.values))]

    def clip(self, value: Any) -> Any:
        if value in self.values:
            return value
        # Snap numerics to the nearest value; otherwise fall back to the first.
        try:
            return min(self.values, key=lambda v: abs(v - value))
        except TypeError:
            return self.values[0]

    def index(self, value: Any) -> int:
        """Position of ``value`` in the ordered choice list."""
        return self.values.index(self.clip(value))

    def to_unit(self, value: Any) -> float:
        return self.index(value) / (len(self.values) - 1)

    def from_unit(self, u: float) -> Any:
        idx = int(round(min(max(u, 0.0), 1.0) * (len(self.values) - 1)))
        return self.values[idx]

    def perturb(
        self, value: Any, rng: np.random.Generator, factors: tuple[float, float] = (0.8, 1.2)
    ) -> Any:
        idx = self.index(value)
        candidates = [i for i in (idx - 1, idx + 1) if 0 <= i < len(self.values)]
        return self.values[candidates[rng.integers(len(candidates))]]

    def contains(self, value: Any) -> bool:
        return value in self.values
