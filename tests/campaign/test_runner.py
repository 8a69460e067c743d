"""Shard-invariance tests: verdicts are a pure function of the config,
never of the worker count."""

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignReport,
    generate_schedules,
    run_campaign,
)


def small_config(**overrides):
    base = dict(root_seed=5, n_schedules=6, workers=1,
                worlds=("partition", "failover"), double_run=False)
    base.update(overrides)
    return CampaignConfig(**base)


class TestGenerateSchedules:
    def test_round_robins_worlds(self):
        schedules = generate_schedules(small_config())
        assert [s.world for s in schedules] == \
            ["partition", "failover"] * 3

    def test_regeneration_is_identical(self):
        first = generate_schedules(small_config())
        second = generate_schedules(small_config())
        assert [s.digest() for s in first] == \
            [s.digest() for s in second]

    def test_seed_changes_everything(self):
        a = generate_schedules(small_config())
        b = generate_schedules(small_config(root_seed=6))
        assert all(x.digest() != y.digest() for x, y in zip(a, b))


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"n_schedules": 0}, {"n_schedules": -3},
        {"workers": 0}, {"workers": -1},
    ])
    def test_rejects_counts_below_one(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            small_config(**overrides)


class TestShardInvariance:
    def test_verdicts_and_metrics_identical_1_vs_3_workers(self):
        sequential = run_campaign(small_config(workers=1))
        sharded = run_campaign(small_config(workers=3))
        assert [v.as_dict() for v in sequential.verdicts] == \
            [v.as_dict() for v in sharded.verdicts]
        assert sequential.merged_metrics == sharded.merged_metrics
        assert sequential.n_passed == len(sequential.verdicts)

    def test_more_workers_than_schedules(self):
        report = run_campaign(small_config(n_schedules=2, workers=8))
        assert len(report.verdicts) == 2
        assert [v.index for v in report.verdicts] == [0, 1]


class TestCampaignReport:
    def test_report_shape_and_summary(self):
        report = run_campaign(small_config(n_schedules=2))
        data = report.as_dict()
        assert data["format"] == "repro.campaign/report/1"
        assert data["n_passed"] + data["n_failed"] == 2
        assert len(data["verdicts"]) == 2
        text = report.format()
        assert "2 schedule(s)" in text
        assert "partition:" in text and "failover:" in text

    def test_failures_listed_in_format(self):
        config = small_config(
            root_seed=2, n_schedules=10, worlds=("failover",),
            extra_world_kwargs={"fence_on_failover": False})
        report = run_campaign(config)
        assert report.n_failed >= 1
        failing = report.failures()[0]
        assert "no_split_brain" in failing.failures
        assert f"FAIL #{failing.index}" in report.format()
        # The report dict round-trips losslessly through its verdicts.
        rebuilt = CampaignReport(
            root_seed=config.root_seed, n_schedules=config.n_schedules,
            workers=1, worlds=config.worlds, verdicts=report.verdicts,
            merged_metrics=report.merged_metrics)
        assert rebuilt.n_failed == report.n_failed
