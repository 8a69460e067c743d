"""One run-twice table over every seeded entry point (Challenge C3).

Each row is an entry point with small parameters. The table test runs a
row twice per seed under :class:`DeterminismSanitizer`, which compares
the event digests first and then the return values:

- the nine golden ``SCENARIOS`` return their span document, metrics
  snapshot and summary;
- every chaos ``run_*`` function returns its result payload;
- each campaign ``WORLD_RUNNERS`` world runs one sampled fault schedule,
  the way the campaign executes it, and returns its result dict.
"""

import pytest

from repro.analysis.sanitizers import DeterminismSanitizer
from repro.campaign import WORLD_RUNNERS, ScheduleEnvelope, generate_schedule
from repro.faults import chaos
from repro.observability.scenarios import SCENARIOS, run_scenario
from repro.sim import RandomStreams

SEEDS = (7, 19)

#: Chaos entry points and their parameters, keyed ``run_*[/variant]``:
#: small enough that two seeds times two runs stay fast, rich enough
#: that the fault machinery engages.
CHAOS_ROWS = {
    "run_serverless_scenario": dict(error_rate=0.2, retry=True,
                                    n_invocations=60),
    "run_overload_scenario": dict(admission=True, n_invocations=120),
    "run_overload_scenario/no-admission": dict(admission=False,
                                               n_invocations=120),
    "run_detection_scenario": dict(crash=True, n_machines=4,
                                   duration_s=60.0),
    "run_scheduling_scenario": dict(mtbf_s=200.0, requeue=True,
                                    n_tasks=40, n_machines=4),
    "run_scheduling_scenario/health-aware": dict(mtbf_s=200.0,
                                                 health_aware=True,
                                                 n_tasks=40, n_machines=4),
    "run_recovery_scenario": dict(work_s=400.0, mtbf_s=150.0,
                                  corruption_p=0.1),
    "run_scheduler_recovery_scenario": dict(journaled=True, n_tasks=30,
                                            n_machines=4),
    "run_partition_scenario": dict(n_tasks=30, n_invocations=40,
                                   sim_budget_s=200.0),
    "run_failover_scenario": dict(n_tasks=20, sim_budget_s=200.0),
    "run_chaos_matrix": dict(serverless_error_rates=(0.0, 0.3),
                             scheduling_mtbfs=(300.0,)),
}


def _golden_row(name):
    def run(seed):
        tracer, registry, summary = run_scenario(name, seed=seed)
        # The seed reaches the document only through behaviour, so the
        # distinct-seeds test cannot pass on the recorded seed alone.
        del tracer.meta["seed"]
        return tracer.to_json(), registry.snapshot(), summary
    return run


def _chaos_row(key, kwargs):
    runner = getattr(chaos, key.split("/")[0])
    return lambda seed: runner(seed=seed, **kwargs)


def _world_row(world):
    def run(seed):
        envelope = ScheduleEnvelope.for_world(world, sim_budget_s=200.0)
        schedule = generate_schedule(RandomStreams(seed), envelope,
                                     index=0, seed=seed)
        return WORLD_RUNNERS[world](
            seed=schedule.seed, episodes=schedule.episodes,
            sim_budget_s=schedule.sim_budget_s, invariant_halt=False)
    return run


ROWS = {
    **{f"golden/{name}": _golden_row(name) for name in SCENARIOS},
    **{f"chaos/{key}": _chaos_row(key, kwargs)
       for key, kwargs in CHAOS_ROWS.items()},
    **{f"world/{world}": _world_row(world) for world in WORLD_RUNNERS},
}


def test_table_covers_every_chaos_entry_point():
    """If chaos.py grows a new run_* function, this table must learn it."""
    run_functions = sorted(name for name in dir(chaos)
                           if name.startswith("run_")
                           and callable(getattr(chaos, name)))
    assert sorted({key.split("/")[0] for key in CHAOS_ROWS}) == run_functions


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("row", sorted(ROWS))
def test_same_seed_runs_are_identical(row, seed):
    DeterminismSanitizer(runs=2).check(lambda: ROWS[row](seed),
                                       label=f"{row} seed={seed}")


#: Rows whose event digest cannot tell seeds apart, so only the return
#: value guards them: mmog and autoscaling dispatch no kernel events, and
#: p2p dispatches the same events at every seed.
RESULT_ONLY = {"golden/autoscaling", "golden/mmog", "golden/p2p"}


def test_distinct_seeds_give_distinct_runs():
    # Digest and result are behaviour fingerprints, not constants: every
    # row must move its event digest with the seed, or the table above
    # checks nothing. A RESULT_ONLY row must move its result instead, and
    # must really have a seed-blind digest, so the set cannot go stale.
    sanitizer = DeterminismSanitizer()
    blind, same = [], []
    for row, run in sorted(ROWS.items()):
        (digest_a, result_a), (digest_b, result_b) = (
            sanitizer.record(lambda seed=seed: run(seed)) for seed in SEEDS)
        if digest_a.hexdigest() == digest_b.hexdigest():
            blind.append(row)
            if result_a == result_b:
                same.append(row)
    assert blind == sorted(RESULT_ONLY)
    assert same == []


def test_chaos_matrix_digests_distinct_across_seeds():
    # Stricter than the test above for the chaos rows: each seed must
    # move the event digest itself, not just the returned payload.
    sanitizer = DeterminismSanitizer()
    same = []
    for key in sorted(CHAOS_ROWS):
        run = ROWS[f"chaos/{key}"]
        digests = {sanitizer.record(lambda seed=seed: run(seed))[0]
                   .hexdigest() for seed in SEEDS}
        if len(digests) < len(SEEDS):
            same.append(key)
    assert same == []
