"""Tests for ASHA (Algorithm 2)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SimulatedCluster
from repro.core import ASHA, TrialStatus
from repro.experiments.toys import scripted_sampler, toy_objective
from repro.searchers import FunctionSearcher


def make_asha(space, rng, **kwargs):
    defaults = dict(min_resource=1.0, max_resource=9.0, eta=3)
    defaults.update(kwargs)
    return ASHA(space, rng, **defaults)


class TestGetJob:
    def test_grows_base_rung_when_nothing_promotable(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng)
        jobs = [asha.next_job() for _ in range(3)]
        assert all(j.rung == 0 for j in jobs)
        assert all(j.resource == 1.0 for j in jobs)
        assert asha.num_trials == 3

    def test_promotes_as_soon_as_quota_allows(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng)
        jobs = [asha.next_job() for _ in range(3)]
        for job, loss in zip(jobs, (0.3, 0.1, 0.5)):
            asha.report(job, loss)
        promotion = asha.next_job()
        assert promotion.rung == 1
        assert promotion.trial_id == jobs[1].trial_id
        assert promotion.resource == 3.0

    def test_promotion_scan_prefers_top_rungs(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng, max_resource=27.0)
        # Fill rung 0 with 9 results, promote 3 through rung 1.
        jobs = [asha.next_job() for _ in range(9)]
        for i, job in enumerate(jobs):
            asha.report(job, i / 10)
        for _ in range(3):
            j = asha.next_job()
            assert j.rung == 1
            asha.report(j, j.trial_id / 10)
        j = asha.next_job()
        assert j.rung == 2  # rung 1 now has 3 entries -> promote up, not out

    def test_checkpointed_promotion_pays_delta(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng, from_checkpoint=True)
        jobs = [asha.next_job() for _ in range(3)]
        for job, loss in zip(jobs, (0.1, 0.2, 0.3)):
            asha.report(job, loss)
        promo = asha.next_job()
        assert promo.checkpoint_resource == 1.0
        assert promo.delta_resource == 2.0

    def test_scratch_promotion_pays_full(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng, from_checkpoint=False)
        jobs = [asha.next_job() for _ in range(3)]
        for job, loss in zip(jobs, (0.1, 0.2, 0.3)):
            asha.report(job, loss)
        promo = asha.next_job()
        assert promo.checkpoint_resource == 0.0
        assert promo.delta_resource == 3.0

    def test_max_trials_stops_growth(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng, max_trials=2)
        assert asha.next_job() is not None
        assert asha.next_job() is not None
        assert asha.next_job() is None
        assert not asha.is_done()  # two jobs still outstanding


class TestReport:
    def test_top_rung_completes_trial(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng)
        statuses: dict[int, TrialStatus] = {}
        # Drive sequentially, echoing each trial's quality as its loss; the
        # rung-2 report must mark its trial COMPLETED, all others PAUSED.
        top_trials = set()
        for _ in range(20):
            job = asha.next_job()
            asha.report(job, job.config["quality"] * (1 + job.rung) / 10)
            status = asha.trials[job.trial_id].status
            if job.rung == 2:
                top_trials.add(job.trial_id)
                assert status == TrialStatus.COMPLETED
            else:
                assert status == TrialStatus.PAUSED
        assert top_trials  # the ladder was climbed at least once

    def test_failed_job_never_enters_rung(self, one_d_space, rng):
        asha = make_asha(one_d_space, rng)
        jobs = [asha.next_job() for _ in range(3)]
        asha.report(jobs[0], 0.9)
        asha.report(jobs[1], 0.8)
        asha.on_job_failed(jobs[2])
        assert asha.trials[jobs[2].trial_id].status == TrialStatus.FAILED
        assert len(asha.brackets[0].rung(0)) == 2
        # Quota 2//3 = 0: ASHA simply grows the base rung.
        assert asha.next_job().rung == 0


class TestInfiniteHorizon:
    def test_rungs_grow_unboundedly(self, one_d_space, rng):
        asha = ASHA(one_d_space, rng, min_resource=1.0, max_resource=None, eta=2)
        # Feed a strictly improving sequence so promotions chain upward.
        resources = []
        for step in range(40):
            job = asha.next_job()
            resources.append(job.resource)
            asha.report(job, 1.0 / (1 + job.trial_id) / (1 + job.rung))
        assert max(resources) >= 8.0  # climbed at least 3 rungs
        assert all(t.status != TrialStatus.COMPLETED for t in asha.trials.values())


class TestIsDone:
    def test_capped_run_drains(self, one_d_space, rng, toy_obj):
        asha = make_asha(one_d_space, rng, max_trials=9)
        cluster = SimulatedCluster(3, seed=0)
        result = cluster.run(asha, toy_obj, time_limit=1e6)
        assert asha.is_done()
        # 9 base + 3 rung-1 + 1 rung-2 jobs.
        assert result.jobs_dispatched == 13
        assert len(result.completions) == 1

    def test_is_done_reuses_cached_promotion_scan(self, one_d_space, rng, toy_obj, monkeypatch):
        """The backend's is_done + next_job poll pair costs one rung scan.

        ``is_done`` and ``next_job`` both consult the bracket's promotion
        scan; between rung mutations the second (and every later) query must
        come from the bracket's cache rather than rescanning the ladder.
        """
        from repro.core import rung as rung_module

        asha = make_asha(one_d_space, rng, max_trials=9)
        cluster = SimulatedCluster(3, seed=0)
        cluster.run(asha, toy_obj, time_limit=1e6)
        assert asha.is_done()

        calls = {"n": 0}
        original = rung_module.Rung.first_promotable

        def counting(self, eta):
            calls["n"] += 1
            return original(self, eta)

        monkeypatch.setattr(rung_module.Rung, "first_promotable", counting)
        # Drained scheduler, no rung mutations: the first poll may scan the
        # ladder once; every subsequent is_done/next_job pair is cache hits.
        assert asha.is_done()
        first_poll = calls["n"]
        assert first_poll <= len(asha.brackets[0].rungs)
        for _ in range(10):
            assert asha.is_done()
            assert asha.next_job() is None
        assert calls["n"] == first_poll


class TestAdaptiveSampler:
    def test_sampler_hook_used(self, one_d_space, rng):
        asha = make_asha(
            one_d_space,
            rng,
            searcher=FunctionSearcher(scripted_sampler([0.11, 0.22, 0.33])),
            max_trials=3,
        )
        jobs = [asha.next_job() for _ in range(3)]
        assert [j.config["quality"] for j in jobs] == [0.11, 0.22, 0.33]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), workers=st.integers(1, 16))
def test_rung_ratio_invariant(seed, workers):
    """Each rung holds about 1/eta of the rung below (Figure 2's rule).

    The bound is quota plus an O(sqrt(n) + workers) slack: Algorithm 2 can
    legitimately promote more than the instantaneous quota when later
    arrivals displace already-promoted entries from the top fraction —
    that surplus is exactly the paper's "incorrect promotions", which
    Section 3.3 argues scales like sqrt(n).
    """
    objective = toy_objective(max_resource=27.0, constant=False)
    rng = np.random.default_rng(seed)
    asha = ASHA(objective.space, rng, min_resource=1.0, max_resource=27.0, eta=3)
    cluster = SimulatedCluster(workers, seed=seed)
    cluster.run(asha, objective, time_limit=300.0)
    rungs = asha.brackets[0].rungs
    for below, above in zip(rungs, rungs[1:]):
        slack = int(3 * np.sqrt(len(below))) + workers + 1
        assert len(above) <= len(below) // 3 + slack
        assert len(below.promoted) <= len(below) // 3 + slack
