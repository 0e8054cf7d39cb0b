"""Config <-> vector encoding for model-based searchers.

Model-based methods (the Vizier GP-EI stand-in, Fabolas, and BOHB's KDE
sampler) operate on points in the unit hypercube.  :class:`UnitCubeEncoder`
maps configurations to vectors in ``[0, 1]^d`` using each domain's natural
scale (log domains are encoded in log space) and back again.

The round trip ``decode(encode(config))`` is the identity up to the
discretisation of integer and categorical domains — a property verified by
the hypothesis test suite.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .space import Config, SearchSpace

__all__ = ["UnitCubeEncoder"]


class UnitCubeEncoder:
    """Invertible map between configurations and points in ``[0, 1]^d``."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.names = space.names
        self.dim = space.dim
        # Pre-bound per-dimension maps, as in ``SearchSpace._samplers``: a
        # model searcher encodes every observation and decodes every proposal.
        self._to_unit = [(name, space[name].to_unit) for name in self.names]
        self._from_unit = [(name, space[name].from_unit) for name in self.names]

    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode one configuration as a vector in the unit cube."""
        return np.array([to_unit(config[name]) for name, to_unit in self._to_unit], dtype=float)

    def encode_many(self, configs: list[Config]) -> np.ndarray:
        """Encode a list of configurations as an ``(n, d)`` array."""
        if not configs:
            return np.empty((0, self.dim))
        return np.stack([self.encode(c) for c in configs])

    def decode(self, x: np.ndarray) -> Config:
        """Decode a unit-cube vector back into a configuration."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        return {name: from_unit(u) for (name, from_unit), u in zip(self._from_unit, x.tolist())}

    def sample_unit(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` points uniformly in the unit cube (candidate pool)."""
        return rng.random((n, self.dim))
