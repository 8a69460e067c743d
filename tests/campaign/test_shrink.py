"""End-to-end seeded-bug test: campaign catches the unfenced-failover
bug, the shrinker minimizes it, and the repro file replays exactly."""

import json

import pytest

from repro.campaign import (
    CampaignConfig,
    Episode,
    FaultSchedule,
    OracleStack,
    generate_schedules,
    load_repro,
    replay_repro,
    repro_dict,
    shrink_schedule,
)
from repro.campaign.cli import main as campaign_main

#: The recipe that plants the bug: a failover campaign where the new
#: leader never fences the old one. Schedule #9 of this campaign
#: exercises a partition + heal and trips the split-brain oracles.
BUGGY_KWARGS = {"fence_on_failover": False}
BUGGY_CONFIG = dict(root_seed=2, n_schedules=10, workers=1,
                    worlds=("failover",), double_run=False,
                    extra_world_kwargs=BUGGY_KWARGS)


#: A well-formed repro file whose world kwarg the partition world lacks.
UNKNOWN_KWARG_REPRO = json.dumps(repro_dict(
    FaultSchedule(world="partition", seed=3, sim_budget_s=100.0,
                  episodes=(Episode(kind="partition", start_s=30.0,
                                    end_s=60.0),)),
    ["run_completes"], extra_world_kwargs={"bogus": 1}))


def failing_schedule():
    schedules = generate_schedules(CampaignConfig(**BUGGY_CONFIG))
    stack = OracleStack(double_run=False, extra_world_kwargs=BUGGY_KWARGS)
    for index, schedule in enumerate(schedules):
        verdict = stack.evaluate(schedule, index=index)
        if not verdict.passed:
            return schedule, verdict
    raise AssertionError("seeded campaign found no failure")


class TestShrinkSchedule:
    def test_seeded_bug_shrinks_to_minimal_schedule(self):
        schedule, verdict = failing_schedule()
        assert "no_split_brain" in verdict.failures
        result = shrink_schedule(schedule,
                                 extra_world_kwargs=BUGGY_KWARGS)
        # Acceptance bar: at most three episodes survive shrinking.
        assert 1 <= len(result.minimal.episodes) <= 3
        assert len(result.minimal.episodes) <= len(schedule.episodes)
        assert result.executions <= 150
        assert "no_split_brain" in result.failures
        # The minimal schedule still fails exactly as targeted.
        minimal_verdict = OracleStack(
            double_run=False,
            extra_world_kwargs=BUGGY_KWARGS).evaluate(result.minimal)
        assert set(result.failures) <= set(minimal_verdict.failures)
        assert minimal_verdict.trace_digest == result.trace_digest

    def test_passing_schedule_refuses_to_shrink(self):
        schedule = FaultSchedule(
            world="partition", seed=3, sim_budget_s=240.0,
            episodes=(Episode(kind="partition", start_s=20.0,
                              end_s=40.0),))
        with pytest.raises(ValueError, match="does not fail"):
            shrink_schedule(schedule)

    def test_unrelated_target_failures_rejected(self):
        schedule, _ = failing_schedule()
        with pytest.raises(ValueError, match="not among"):
            shrink_schedule(schedule, extra_world_kwargs=BUGGY_KWARGS,
                            target_failures=["determinism"])


class TestReproFiles:
    def test_repro_round_trip_reproduces_exactly(self):
        schedule, verdict = failing_schedule()
        result = shrink_schedule(schedule,
                                 extra_world_kwargs=BUGGY_KWARGS)
        data = repro_dict(result.minimal, result.failures,
                          extra_world_kwargs=BUGGY_KWARGS,
                          trace_digest=result.trace_digest)
        loaded = load_repro(json.dumps(data))
        outcome = replay_repro(loaded)
        assert outcome.reproduced
        assert outcome.trace_digest_matches is True
        assert outcome.expected_failures == result.failures
        assert "reproduced" in outcome.describe()

    def test_repro_detects_wrong_expectations(self):
        schedule = FaultSchedule(
            world="partition", seed=3, sim_budget_s=240.0,
            episodes=(Episode(kind="partition", start_s=20.0,
                              end_s=40.0),))
        data = repro_dict(schedule, ["no_split_brain"])
        outcome = replay_repro(data)
        assert not outcome.reproduced
        assert "NOT reproduced" in outcome.describe()

    def test_corrupt_repro_file_rejected(self):
        schedule, _ = failing_schedule()
        data = repro_dict(schedule, ["no_split_brain"])
        data["schedule"]["seed"] += 1  # tamper without re-digesting
        with pytest.raises(ValueError, match="digest mismatch"):
            replay_repro(data)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a campaign repro"):
            load_repro(json.dumps({"format": "something/else"}))


class TestCli:
    def test_run_shrink_repro_workflow(self, tmp_path):
        out_dir = tmp_path / "failures"
        report = tmp_path / "report.json"
        code = campaign_main([
            "run", "--seed", "2", "--schedules", "10",
            "--worlds", "failover", "--no-double-run",
            "--world-kwarg", "fence_on_failover=false",
            "--report", str(report), "--out-dir", str(out_dir)])
        assert code == 1  # failures found
        repro_files = sorted(out_dir.glob("failure-*.json"))
        assert repro_files
        assert json.loads(report.read_text())["n_failed"] >= 1

        minimal = tmp_path / "minimal.json"
        assert campaign_main(["shrink", "--input", str(repro_files[0]),
                              "--out", str(minimal)]) == 0
        minimal_data = load_repro(minimal.read_text())
        assert len(minimal_data["schedule"]["episodes"]) <= 3

        assert campaign_main(["repro", str(minimal)]) == 0

    @pytest.mark.parametrize("budget", ["nan", "0", "-5"])
    def test_bad_budget_exits_two_with_the_message(self, budget, capsys):
        code = campaign_main(["run", "--schedules", "1",
                              "--budget", budget])
        assert code == 2
        assert "sim_budget_s must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,count,field", [
        ("--schedules", "-3", "n_schedules"),
        ("--workers", "-1", "workers"),
    ])
    def test_bad_count_exits_two_with_the_message(self, flag, count, field,
                                                  capsys):
        code = campaign_main(["run", "--schedules", "1", flag, count])
        assert code == 2
        assert f"{field} must be >= 1" in capsys.readouterr().err

    def test_clean_run_exits_zero(self, tmp_path):
        code = campaign_main([
            "run", "--seed", "0", "--schedules", "2",
            "--worlds", "partition", "--no-double-run"])
        assert code == 0

    @pytest.mark.parametrize("pair,message", [
        ("fence_on_failovr=false",
         "failover world takes no keyword argument ['fence_on_failovr']"),
        ("seed=3", "may not set ['seed']"),
    ])
    def test_bad_world_kwarg_exits_two_before_any_run(self, pair, message,
                                                      capsys):
        code = campaign_main(["run", "--schedules", "1", "--worlds",
                              "failover", "--world-kwarg", pair])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == ""  # no schedule ran, so no summary was printed

    @pytest.mark.parametrize("command", ["repro", "shrink"])
    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("{", "Expecting property name"),
        ('{"format": "other"}', "not a campaign repro file"),
        (UNKNOWN_KWARG_REPRO, "takes no keyword argument ['bogus']"),
    ])
    def test_bad_repro_file_exits_two(self, command, content, message,
                                      tmp_path, capsys):
        path = tmp_path / "repro.json"
        if content is not None:
            path.write_text(content)
        argv = (["repro", str(path)] if command == "repro"
                else ["shrink", "--input", str(path)])
        assert campaign_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
