"""Campaign shard invariance and shrink cost — the fuzzing loop's price tag.

Two things are pinned: a campaign's verdicts and merged metrics are the
same run sequentially and on an 8-way shard pool (identical by
construction, and asserted here on the timed runs), and how many
re-executions the delta-debugger spends shrinking the seeded
unfenced-failover bug to its minimal schedule. Throughput in
schedules/min is host timing, so it goes to stdout.
"""

import json
from pathlib import Path

from repro.campaign import (
    CampaignConfig,
    OracleStack,
    generate_schedules,
    run_campaign,
    shrink_schedule,
)

RESULTS_DIR = Path(__file__).parent / "results"

ROOT_SEED = 0
N_SCHEDULES = 16

#: The seeded-bug recipe (same as tests/campaign/test_shrink.py): a
#: failover campaign whose control plane never fences on promotion.
BUGGY_KWARGS = {"fence_on_failover": False}
BUGGY_CONFIG = dict(root_seed=2, n_schedules=10, workers=1,
                    worlds=("failover",), double_run=False,
                    extra_world_kwargs=BUGGY_KWARGS)


def _campaign(workers):
    return run_campaign(CampaignConfig(
        root_seed=ROOT_SEED, n_schedules=N_SCHEDULES, workers=workers,
        double_run=False))


def _seeded_bug_shrink():
    schedules = generate_schedules(CampaignConfig(**BUGGY_CONFIG))
    stack = OracleStack(double_run=False, extra_world_kwargs=BUGGY_KWARGS)
    for schedule in schedules:
        verdict = stack.evaluate(schedule)
        if not verdict.passed:
            return shrink_schedule(schedule,
                                   extra_world_kwargs=BUGGY_KWARGS)
    raise AssertionError("seeded campaign found no failure")


def bench_campaign_throughput_and_shrink(benchmark, report, table, timed):
    def run_all():
        return (timed(lambda: _campaign(workers=1)),
                timed(lambda: _campaign(workers=8)),
                _seeded_bug_shrink())

    (seq_report, _, seq_wall), (shard_report, _, shard_wall), shrink = (
        benchmark.pedantic(run_all, rounds=1, iterations=1))
    for name, wall_s in (("sequential", seq_wall), ("sharded", shard_wall)):
        print(f"{name}: {wall_s:.1f} s, "
              f"{N_SCHEDULES / wall_s * 60.0:.1f} schedules/min")

    rows = [
        ["sequential (1 worker)", N_SCHEDULES, seq_report.n_passed],
        ["sharded (8 workers)", N_SCHEDULES, shard_report.n_passed],
    ]
    report("campaign_throughput",
           "Chaos-fuzzing campaign: shard invariance and shrink cost",
           table(["runner", "schedules", "passed"], rows)
           + ["",
              f"seeded-bug shrink: {len(shrink.original.episodes)} "
              f"episode(s) -> {len(shrink.minimal.episodes)} in "
              f"{shrink.steps} accepted step(s), "
              f"{shrink.executions} execution(s)"])

    payload = {
        "root_seed": ROOT_SEED,
        "n_schedules": N_SCHEDULES,
        "sharded_workers": 8,
        "shrink_original_episodes": len(shrink.original.episodes),
        "shrink_minimal_episodes": len(shrink.minimal.episodes),
        "shrink_steps": shrink.steps,
        "shrink_executions": shrink.executions,
        "shrink_failures": list(shrink.failures),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")

    # Shard-count invariance is the runner's contract, asserted on the
    # very runs we just timed.
    assert [v.as_dict() for v in seq_report.verdicts] == \
        [v.as_dict() for v in shard_report.verdicts]
    assert seq_report.merged_metrics == shard_report.merged_metrics
    # A default-config campaign is clean, and the seeded bug shrinks to
    # the acceptance bar.
    assert seq_report.n_failed == 0
    assert 1 <= len(shrink.minimal.episodes) <= 3
    assert "no_split_brain" in shrink.failures
