"""Tests for MethodSettings defaults and factory wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ASHA, PBT, SynchronousSHA
from repro.experiments.methods import MethodSettings, standard_methods
from repro.experiments.toys import toy_objective
from repro.searchers import GPEISearcher, KDESearcher


def test_pbt_interval_defaults_to_thirty_rounds():
    s = MethodSettings(eta=4, min_resource=1.0, max_resource=3000.0)
    assert s.pbt_interval == pytest.approx(100.0)


def test_explicit_pbt_interval_kept():
    s = MethodSettings(eta=4, min_resource=1.0, max_resource=3000.0, pbt_interval=7.0)
    assert s.pbt_interval == 7.0


def test_factories_build_requested_types():
    settings = MethodSettings(eta=3, min_resource=1.0, max_resource=9.0, n=9, pbt_interval=3.0)
    objective = toy_objective()
    rng = np.random.default_rng(0)
    factories = standard_methods(settings)
    assert isinstance(factories["ASHA"](objective, rng), ASHA)
    assert isinstance(factories["SHA"](objective, rng), SynchronousSHA)
    assert isinstance(factories["PBT"](objective, rng), PBT)
    # The composites are (promotion rule, searcher) pairs, not classes.
    for legend, rule, searcher, origins in [
        ("BOHB", SynchronousSHA, KDESearcher, False),
        ("ASHA (KDE)", ASHA, KDESearcher, True),
        ("ASHA (GP)", ASHA, GPEISearcher, True),
    ]:
        built = factories[legend](objective, rng)
        assert type(built) is rule
        assert type(built.searcher) is searcher
        assert built.searcher.record_origin is origins
    assert factories["SHA"](objective, rng).searcher is None


def test_grow_brackets_flag_propagates():
    settings = MethodSettings(
        eta=3, min_resource=1.0, max_resource=9.0, n=9, grow_brackets=True, pbt_interval=3.0
    )
    objective = toy_objective()
    sha = standard_methods(settings)["SHA"](objective, np.random.default_rng(0))
    assert sha.grow_brackets is True


def test_frozen_keys_propagate_to_pbt():
    settings = MethodSettings(
        eta=3,
        min_resource=1.0,
        max_resource=9.0,
        pbt_interval=3.0,
        pbt_frozen=frozenset({"quality"}),
    )
    objective = toy_objective()
    pbt = standard_methods(settings)["PBT"](objective, np.random.default_rng(0))
    assert pbt.frozen == frozenset({"quality"})
