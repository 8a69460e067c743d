"""Tests for the oracle stack and schedule execution."""

import pytest

from repro.campaign import (
    CampaignConfig,
    Episode,
    FaultSchedule,
    Oracle,
    OracleStack,
    RunVerdict,
    execute_schedule,
    generate_schedules,
    merge_metrics,
    run_campaign,
    standard_oracles,
)
from repro.campaign.oracles import WORLD_RUNNERS
from repro.campaign.shrink import replay_repro, repro_dict, shrink_schedule
from repro.sim import Environment


def quick_schedule(world="partition", seed=3):
    episodes = (Episode(kind="partition", start_s=20.0, end_s=40.0),)
    return FaultSchedule(world=world, seed=seed, sim_budget_s=240.0,
                         episodes=episodes)


def root_seed_0_schedule(index):
    config = CampaignConfig(root_seed=0, n_schedules=index + 1)
    return generate_schedules(config)[index]


class TestStandardOracles:
    def test_catalog_names(self):
        names = [o.name for o in standard_oracles()]
        assert names == ["invariants_hold", "run_completes",
                         "no_lost_tasks", "at_most_one_leader",
                         "no_split_brain"]

    def test_world_filtering(self):
        partition = {o.name for o in standard_oracles("partition")}
        failover = {o.name for o in standard_oracles("failover")}
        assert "at_most_one_leader" not in partition
        assert "no_split_brain" not in partition
        assert {"at_most_one_leader", "no_split_brain"} <= failover

    def test_applies_to(self):
        anywhere = Oracle("o", lambda result: None)
        assert anywhere.applies_to("partition")
        only_failover = Oracle("o", lambda result: None,
                               worlds=("failover",))
        assert not only_failover.applies_to("partition")


class TestExecuteSchedule:
    def test_same_schedule_same_trace_and_result(self):
        schedule = quick_schedule()
        first = execute_schedule(schedule)
        second = execute_schedule(schedule)
        assert first.trace_digest == second.trace_digest
        assert first.trace_events == second.trace_events
        assert first.result == second.result
        assert first.metrics == second.metrics

    def test_extra_kwargs_plant_the_fencing_bug(self):
        schedule = FaultSchedule(
            world="failover", seed=3, sim_budget_s=240.0,
            episodes=(Episode(kind="partition", start_s=30.0,
                              end_s=80.0),))
        clean = execute_schedule(schedule)
        buggy = execute_schedule(
            schedule, extra_world_kwargs={"fence_on_failover": False})
        assert clean.result["split_brain_writes"] == 0
        assert buggy.result["split_brain_writes"] > 0

    def test_extra_kwargs_plant_the_lost_report_bug(self):
        # Root-seed-0 schedule 0 (partition world) crashes the scheduler
        # and drops messages; without report retries, a lost completion
        # report leaves the books open at the budget.
        schedule = root_seed_0_schedule(0)
        assert schedule.world == "partition"
        clean = OracleStack(double_run=False).evaluate(schedule)
        buggy = OracleStack(
            double_run=False,
            extra_world_kwargs={"report_retry": False}).evaluate(schedule)
        assert clean.passed
        assert buggy.failures == ("run_completes",)

    def test_latencies_are_measured_from_the_schedules_cut(self):
        # Schedule 9 cuts the old leader off at 138.241 s; detection and
        # failover are timed from that cut, not from the classic plan's.
        schedule = root_seed_0_schedule(9)
        [cut] = [e for e in schedule.episodes if e.kind == "partition"]
        assert cut.start_s == 138.241
        result = execute_schedule(schedule).result
        assert result["leader_detect_latency_s"] == 1.509
        assert result["failover_mttr_s"] == 5.543


class TestOracleStack:
    def test_clean_partition_schedule_passes(self):
        stack = OracleStack(double_run=False)
        verdict = stack.evaluate(quick_schedule(), index=5)
        assert verdict.passed
        assert verdict.failures == ()
        assert verdict.index == 5
        assert verdict.world == "partition"
        assert verdict.schedule_digest == quick_schedule().digest()
        assert verdict.summary["all_done"] is True

    def test_double_run_passes_on_deterministic_world(self):
        stack = OracleStack(double_run=True)
        verdict = stack.evaluate(quick_schedule())
        assert verdict.passed

    def test_failing_oracle_names_and_details(self):
        def always_fails(result):
            return "synthetic failure"

        stack = OracleStack(
            oracles=(Oracle("synthetic", always_fails),),
            double_run=False)
        verdict = stack.evaluate(quick_schedule())
        assert not verdict.passed
        assert verdict.failures == ("synthetic",)
        assert verdict.failure_details["synthetic"] == "synthetic failure"

    @pytest.mark.parametrize("name", ["seed", "episodes", "sim_budget_s",
                                      "invariant_halt", "registry"])
    def test_extra_kwargs_may_not_override_schedule_fields(self, name):
        with pytest.raises(ValueError, match=name):
            OracleStack(extra_world_kwargs={name: 5})

    def test_campaign_rejects_schedule_owned_extra_kwargs(self):
        # The config itself rejects them, before any schedule runs.
        with pytest.raises(ValueError, match="sim_budget_s"):
            run_campaign(CampaignConfig(
                root_seed=0, n_schedules=2,
                extra_world_kwargs={"sim_budget_s": 50.0}))

    def test_seeded_fencing_bug_fails_failover_oracles(self):
        schedule = FaultSchedule(
            world="failover", seed=3, sim_budget_s=240.0,
            episodes=(Episode(kind="partition", start_s=30.0,
                              end_s=80.0),))
        stack = OracleStack(
            double_run=False,
            extra_world_kwargs={"fence_on_failover": False})
        verdict = stack.evaluate(schedule)
        assert not verdict.passed
        assert "no_split_brain" in verdict.failures
        assert "invariants_hold" in verdict.failures

    def test_verdict_round_trips_through_dict(self):
        stack = OracleStack(double_run=False)
        verdict = stack.evaluate(quick_schedule(), index=7)
        assert RunVerdict.from_dict(verdict.as_dict()) == verdict


class TestMergeMetrics:
    def test_merge_is_order_insensitive(self):
        a = {"x": {"type": "counter", "total": 2, "by_key": {"k": 2}},
             "y": {"type": "series", "count": 3}}
        b = {"x": {"type": "counter", "total": 5, "by_key": {"k": 1,
                                                             "j": 4}},
             "z": {"type": "counter", "total": 1}}
        merged_ab = merge_metrics([a, b])
        merged_ba = merge_metrics([b, a])
        assert merged_ab == merged_ba
        assert merged_ab["x"]["total"] == 7
        assert merged_ab["x"]["by_key"] == {"j": 4, "k": 2 + 1}
        assert merged_ab["y"]["count"] == 3
        assert merged_ab["z"]["total"] == 1

    def test_merge_of_nothing_is_empty(self):
        assert merge_metrics([]) == {}


# -- livelock ---------------------------------------------------------------

def _spin_at(env, t):
    """From ``t`` on, dispatches zero-delay timeouts forever."""
    yield env.timeout(t)
    while True:
        yield env.timeout(0)


def _loop_at(env, t):
    """From ``t`` on, loops without yielding."""
    yield env.timeout(t)
    while True:
        pass


def livelocked_world(*, seed, episodes, sim_budget_s, invariant_halt,
                     registry):
    """A world that livelocks at t=5 when a crash episode is planned
    (without yielding when it is a long one), and that otherwise closes
    its books."""
    env = Environment()
    for e in episodes:
        if e.kind == "crash":
            env.process((_loop_at if e.duration_s > 60.0 else _spin_at)(
                env, 5.0))
    env.run(until=sim_budget_s)
    return {"all_done": True, "completed": 1, "submitted": 1}


def livelocking_schedule():
    episodes = (Episode(kind="partition", start_s=20.0, end_s=40.0),
                Episode(kind="crash", start_s=50.0, end_s=60.0),
                Episode(kind="loss", start_s=70.0, end_s=90.0,
                        params={"rate": 0.1}))
    return FaultSchedule(world="partition", seed=3, sim_budget_s=240.0,
                         episodes=episodes)


def test_real_world_run_has_no_livelock():
    run = execute_schedule(quick_schedule())
    assert run.livelock is None
    assert run.result["all_done"] is True


class TestLivelock:
    @pytest.fixture(autouse=True)
    def _world(self, monkeypatch):
        self.executions = 0

        def world(**kwargs):
            self.executions += 1
            return livelocked_world(**kwargs)

        monkeypatch.setitem(WORLD_RUNNERS, "partition", world)

    def test_livelock_is_a_progress_failure(self):
        verdict = OracleStack(double_run=True).evaluate(
            livelocking_schedule())
        assert verdict.failures == ("progress",)
        assert "sim time 5.000" in verdict.failure_details["progress"]
        assert "'Timeout'" in verdict.failure_details["progress"]
        assert verdict.summary == {}
        assert self.executions == 1  # no double run of a livelock

    def test_loop_without_yield_is_a_progress_failure(self):
        schedule = FaultSchedule(
            world="partition", seed=3, sim_budget_s=240.0,
            episodes=(Episode(kind="crash", start_s=50.0, end_s=150.0),))
        verdict = OracleStack(double_run=True).evaluate(schedule)
        assert verdict.failures == ("progress",)
        assert "sim time 5.000" in verdict.failure_details["progress"]
        assert "without yielding" in verdict.failure_details["progress"]
        assert self.executions == 1

    def test_shrink_and_repro_keep_the_livelock(self):
        result = shrink_schedule(livelocking_schedule())
        assert result.failures == ("progress",)
        assert [e.kind for e in result.minimal.episodes] == ["crash"]
        outcome = replay_repro(repro_dict(
            result.minimal, result.failures,
            trace_digest=result.trace_digest))
        assert outcome.reproduced
        assert outcome.trace_digest_matches
