"""Cross-scheduler property tests (hypothesis over seeds/shapes)."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SimulatedCluster
from repro.core import (
    ASHA,
    PBT,
    AsyncHyperband,
    Hyperband,
    ParallelAsyncHyperband,
    SynchronousSHA,
)
from repro.core.bracket import Bracket
from repro.core.hyperband import hyperband_bracket_sizes
from repro.core.rung import Rung
from repro.experiments.toys import toy_objective, toy_space


def assert_within_top_fraction(rung: Rung, trial_id: int, eta: int) -> None:
    """The promotion bound: a trial promoted out of a rung of ``n`` results
    ranks in its top ``n // eta`` — with it, at most ``n // eta`` promoted
    results rank at or above it.  (ASHA may promote more than ``n // eta`` of
    a rung over time: a later, better arrival enters a top fraction whose
    earlier occupants were already promoted.)"""
    key = (rung.losses[trial_id], trial_id)
    ahead = sum(1 for tid, loss in rung.losses.items() if (loss, tid) < key)
    assert ahead + 1 <= len(rung) // eta, (trial_id, ahead, len(rung), eta)


@settings(max_examples=60, deadline=None)
@given(
    eta=st.sampled_from([2, 3, 4]),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.integers(0, 20)),
            st.tuples(st.just("promote"), st.just(0)),
            st.tuples(st.just("unmark"), st.integers(0, 10**6)),
        ),
        max_size=80,
    ),
)
def test_rung_promotes_only_from_its_top_fraction(eta, ops):
    """Every prefix of any arrival order, with promotions and failed
    promotions (unmarks) interleaved, stays inside the bound."""
    rung = Rung(0, 1.0)
    for op, value in ops:
        if op == "record":
            rung.record(len(rung), float(value))  # integer losses force ties
        elif op == "promote":
            trial_id = rung.first_promotable(eta)
            if trial_id is not None:
                assert_within_top_fraction(rung, trial_id, eta)
                rung.mark_promoted(trial_id)
        elif rung.promoted:
            rung.unmark_promoted(sorted(rung.promoted)[value % len(rung.promoted)])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 5000),
    eta=st.sampled_from([2, 3, 4]),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=150),
)
def test_asha_promotes_only_from_top_fractions(seed, eta, picks):
    """ASHA over ask/tell: one ask per step, then a random in-flight job
    reports — except on every third pick, which lets the in-flight set grow."""
    rng = np.random.default_rng(seed)
    asha = ASHA(
        toy_space(), rng, min_resource=1.0, max_resource=float(eta**3), eta=eta, max_trials=60
    )
    in_flight = []
    for pick in picks:
        job = asha.next_job()
        if job is not None:
            if job.rung > 0:
                assert_within_top_fraction(asha.bracket.rung(job.rung - 1), job.trial_id, eta)
            in_flight.append(job)
        if in_flight and pick % 3:
            done = in_flight.pop(pick % len(in_flight))
            asha.report(done, float(rng.random()))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 5000),
    eta=st.sampled_from([2, 3, 4]),
    s_max=st.integers(1, 3),
)
def test_sha_bracket_job_count_closed_form(seed, eta, s_max):
    """A completed SHA bracket dispatches exactly sum_i floor(n / eta**i) jobs."""
    big_r = float(eta**s_max)
    n = eta**s_max
    objective = toy_objective(max_resource=big_r, constant=False)
    rng = np.random.default_rng(seed)
    sha = SynchronousSHA(
        objective.space, rng, n=n, min_resource=1.0, max_resource=big_r, eta=eta
    )
    result = SimulatedCluster(3, seed=seed).run(sha, objective, time_limit=1e9)
    expected = sum(n // eta**i for i in range(s_max + 1))
    assert result.jobs_dispatched == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 5000),
    eta=st.sampled_from([2, 3, 4]),
    s_max=st.integers(1, 3),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
def test_hyperband_bracket_geometry(seed, eta, s_max, picks):
    """One Hyperband loop is Li et al.'s: bracket ``s`` samples
    ``n_s = ceil((s_max+1)/(s_max-s+1) * eta**(s_max-s))`` configurations at
    resource ``r * eta**s``, climbs to ``R``, and the loop dispatches the sum
    of the per-bracket SHA closed forms.  Results arrive out of order: the
    drawn picks choose which in-flight job reports next."""
    big_r = float(eta**s_max)
    rng = np.random.default_rng(seed)
    hb = Hyperband(toy_space(), rng, min_resource=1.0, max_resource=big_r, eta=eta, max_loops=1)
    jobs, in_flight, step = [], [], 0
    while not hb.is_done():
        job = hb.next_job()
        if job is not None:
            jobs.append(job)
            in_flight.append(job)
            if len(in_flight) < 1 + picks[step % len(picks)] % 4:
                step += 1
                continue
        assert in_flight, "Hyperband blocked with nothing in flight"
        done = in_flight.pop(picks[step % len(picks)] % len(in_flight))
        step += 1
        hb.report(done, float(rng.random()))

    sizes = [
        math.ceil((s_max + 1) / (s_max - s + 1) * eta ** (s_max - s)) for s in range(s_max + 1)
    ]
    base = [job.resource for job in jobs if job.rung == 0]
    # Brackets run in order s = 0..s_max, each sampling n_s at r * eta**s.
    assert base == [float(eta**s) for s, n_s in enumerate(sizes) for _ in range(n_s)]
    assert max(job.resource for job in jobs) == big_r
    assert sum(1 for job in jobs if job.resource == big_r) == sum(
        n_s // eta ** (s_max - s) for s, n_s in enumerate(sizes)
    )
    assert len(jobs) == sum(
        n_s // eta**i for s, n_s in enumerate(sizes) for i in range(s_max - s + 1)
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 5000),
    eta=st.sampled_from([2, 3, 4]),
    brackets=st.integers(1, 3),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
def test_async_hyperband_routing(seed, eta, brackets, picks):
    """Both asynchronous Hyperbands route by SHA-equivalent budgets.

    Every job of a trial carries the trial's ladder as its ``bracket``.
    ``AsyncHyperband`` feeds ladders ``s = 0, 1, ...`` in turn and moves on
    exactly when the current ladder's dispatched ``delta_resource`` reaches
    ``Bracket.total_budget(n_s)``.  ``ParallelAsyncHyperband`` sends each job
    to a ladder whose deficit (spent - share x dispatched) is minimal; ties
    may go to any of the tied ladders.  The ladders are unbounded, so every
    ladder always has a job to give."""
    big_r = float(eta**2)
    sizes = hyperband_bracket_sizes(1.0, big_r, eta)[:brackets]
    budgets = [Bracket(1.0, big_r, eta, s).total_budget(n_s) for s, n_s in enumerate(sizes)]
    shares = [budget / sum(budgets) for budget in budgets]
    for cls in (AsyncHyperband, ParallelAsyncHyperband):
        rng = np.random.default_rng(seed)
        hb = cls(toy_space(), rng, min_resource=1.0, max_resource=big_r, eta=eta, brackets=brackets)
        bracket_of: dict[int, int] = {}
        spent = [0.0] * brackets  # all-time resource dispatched per ladder
        current, fed, switches = 0, 0.0, 0  # the looping variant's ladder and its feed
        in_flight = []
        for step in range(150):
            dispatched = sum(spent) + 1e-12
            deficits = [used - share * dispatched for used, share in zip(spent, shares)]
            job = hb.next_job()
            assert job is not None
            assert bracket_of.setdefault(job.trial_id, job.bracket) == job.bracket
            if cls is AsyncHyperband:
                assert job.bracket == current
                fed += job.delta_resource
                if fed >= budgets[current]:
                    current, fed, switches = (current + 1) % brackets, 0.0, switches + 1
                assert hb.current_bracket == current
            else:
                assert deficits[job.bracket] == min(deficits), (deficits, job.bracket)
            spent[job.bracket] += job.delta_resource
            in_flight.append(job)
            pick = picks[step % len(picks)]
            if pick % 3:
                hb.report(in_flight.pop(pick % len(in_flight)), float(rng.random()))
        if cls is AsyncHyperband:
            assert switches >= brackets  # the loop went round at least once
        else:
            assert all(used > 0 for used in spent)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), workers=st.integers(1, 8))
def test_asha_never_exceeds_max_resource(seed, workers):
    objective = toy_objective(max_resource=16.0, constant=False)
    rng = np.random.default_rng(seed)
    asha = ASHA(objective.space, rng, min_resource=1.0, max_resource=16.0, eta=4)
    result = SimulatedCluster(workers, seed=seed, straggler_std=0.4).run(
        asha, objective, time_limit=400.0
    )
    assert all(m.resource <= 16.0 for m in result.measurements)
    assert all(t.resource <= 16.0 for t in asha.trials.values())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_pbt_population_invariants(seed):
    """Populations keep their size; stopped trials match exploit events;
    no member ever trains past the maximum resource."""
    objective = toy_objective(max_resource=32.0, constant=False)
    rng = np.random.default_rng(seed)
    pbt = PBT(
        objective.space,
        rng,
        max_resource=32.0,
        interval=8.0,
        population_size=5,
        spawn_populations=False,
    )
    SimulatedCluster(3, seed=seed).run(pbt, objective, time_limit=1e9)
    assert pbt.is_done()
    assert len(pbt.populations) == 1
    assert len(pbt.populations[0].members) == 5
    from repro.core import TrialStatus

    stopped = sum(1 for t in pbt.trials.values() if t.status == TrialStatus.STOPPED)
    clones = sum(1 for t in pbt.trials.values() if t.trial_id >= 5)
    assert stopped == clones  # every clone replaced exactly one stopped trial
    assert all(t.resource <= 32.0 for t in pbt.trials.values())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_simulator_work_conservation(seed):
    """Measured training time never exceeds workers x elapsed clock."""
    objective = toy_objective(max_resource=16.0, constant=False)
    rng = np.random.default_rng(seed)
    asha = ASHA(objective.space, rng, min_resource=1.0, max_resource=16.0, eta=4)
    workers = 4
    cluster = SimulatedCluster(workers, seed=seed)
    result = cluster.run(asha, objective, time_limit=300.0)
    completed_work = sum(
        m.resource - next(
            (
                prev.resource
                for prev in reversed(result.measurements[:i])
                if prev.trial_id == m.trial_id
            ),
            0.0,
        )
        for i, m in enumerate(result.measurements)
    )
    assert completed_work <= workers * result.elapsed + 1e-6
