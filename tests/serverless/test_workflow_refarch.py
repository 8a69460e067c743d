"""Tests for the workflow engine and the FaaS reference architecture."""

import pytest

from repro.faults.models import TransientErrorModel
from repro.faults.policies import RetryPolicy
from repro.serverless import (
    FaaSPlatform,
    FunctionSpec,
    FunctionWorkflow,
    KNOWN_PLATFORMS,
    PlatformConfig,
    WorkflowEngine,
    platform_coverage,
)
from repro.serverless.refarch import layer_coverage
from repro.sim import Environment, RandomStreams


def platform_with(env, functions, **config_kwargs):
    platform = FaaSPlatform(env, PlatformConfig(**config_kwargs))
    for name, runtime in functions:
        platform.deploy(FunctionSpec(name, runtime_s=runtime))
    return platform


class TestFunctionWorkflow:
    def test_chain_builder(self):
        wf = FunctionWorkflow.chain("etl", ["extract", "transform", "load"])
        assert len(wf) == 3
        assert wf.graph.number_of_edges() == 2

    def test_fan_out_fan_in_builder(self):
        wf = FunctionWorkflow.fan_out_fan_in(
            "map", "split", ["work"] * 4, "merge")
        assert len(wf) == 6
        assert wf.graph.number_of_edges() == 8

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            FunctionWorkflow("bad", [("a", "f"), ("b", "g")],
                             [("a", "b"), ("b", "a")])

    def test_duplicate_step_rejected(self):
        with pytest.raises(ValueError):
            FunctionWorkflow("bad", [("a", "f"), ("a", "g")])

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError):
            FunctionWorkflow("bad", [("a", "f")], [("a", "zzz")])


class TestWorkflowEngine:
    def test_chain_runs_sequentially(self):
        env = Environment()
        platform = platform_with(env, [("a", 1.0), ("b", 2.0)],
                                 cold_start_s=0.0)
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.chain("c", ["a", "b"])
        run = env.run(until=engine.submit(wf))
        assert run.makespan == pytest.approx(3.0)
        assert len(run.invocations) == 2

    def test_fan_out_runs_in_parallel(self):
        env = Environment()
        platform = platform_with(
            env, [("head", 0.5), ("work", 2.0), ("tail", 0.5)],
            cold_start_s=0.0)
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.fan_out_fan_in(
            "m", "head", ["work"] * 8, "tail")
        run = env.run(until=engine.submit(wf))
        # Parallel middle: makespan ≈ 0.5 + 2.0 + 0.5, not 0.5 + 16 + 0.5.
        assert run.makespan == pytest.approx(3.0)

    def test_cold_starts_add_overhead(self):
        env = Environment()
        platform = platform_with(env, [("a", 1.0), ("b", 1.0)],
                                 cold_start_s=2.0)
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.chain("c", ["a", "b"])
        run = env.run(until=engine.submit(wf))
        assert run.makespan == pytest.approx(2 + 1 + 2 + 1)
        assert run.critical_path_runtime == pytest.approx(2.0)

    def test_undeployed_function_rejected(self):
        env = Environment()
        platform = platform_with(env, [("a", 1.0)])
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.chain("c", ["a", "ghost"])
        with pytest.raises(KeyError):
            engine.submit(wf)

    def test_concurrency_rejection_surfaces(self):
        env = Environment()
        platform = platform_with(env, [("work", 1.0)],
                                 cold_start_s=0.0, concurrency_limit=2)
        # head/tail share the same function name 'work'.
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.fan_out_fan_in(
            "m", "work", ["work"] * 6, "work")
        with pytest.raises(RuntimeError, match="rejected"):
            env.run(until=engine.submit(wf))

    def test_multiple_runs_recorded(self):
        env = Environment()
        platform = platform_with(env, [("a", 0.5)], cold_start_s=0.0)
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.chain("c", ["a"])

        def scenario(env, engine, wf):
            yield engine.submit(wf)
            yield engine.submit(wf)

        env.run(until=env.process(scenario(env, engine, wf)))
        assert len(engine.runs) == 2
        assert all(r.finish_time is not None for r in engine.runs)


class TestWorkflowFailureSemantics:
    """Regression: a step that exhausts its retries must fail the
    workflow deterministically — downstream steps skipped, engine never
    hung — instead of being silently counted as a success."""

    def failing_platform(self, env, functions, max_attempts=2):
        streams = RandomStreams(0)
        platform = FaaSPlatform(
            env, PlatformConfig(cold_start_s=0.0),
            fault_model=TransientErrorModel(streams.get("faults"),
                                            error_rate=1.0),
            retry_policy=RetryPolicy(max_attempts=max_attempts,
                                     base_delay_s=0.01, multiplier=2.0,
                                     max_delay_s=0.1, jitter=0.0),
            retry_rng=streams.get("retry"))
        for name, runtime in functions:
            platform.deploy(FunctionSpec(name, runtime_s=runtime))
        return platform

    def test_exhausted_retries_fail_chain_and_skip_downstream(self):
        env = Environment()
        platform = self.failing_platform(env, [("a", 0.5), ("b", 0.5)])
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.chain("c", ["a", "b"])
        run = env.run(until=engine.submit(wf))
        assert run.status == "failed"
        assert not run.succeeded
        assert run.failed_steps == {"s0"}
        assert run.skipped_steps == {"s1"}
        assert run.finish_time is not None  # terminated, not hung
        assert run.invocations["s0"].attempts == 2  # retries exhausted
        assert "s1" not in run.invocations  # never invoked

    def test_fan_out_head_failure_skips_every_branch(self):
        env = Environment()
        platform = self.failing_platform(
            env, [("head", 0.5), ("work", 0.5), ("tail", 0.5)])
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.fan_out_fan_in("m", "head", ["work"] * 4,
                                             "tail")
        run = env.run(until=engine.submit(wf))
        assert run.status == "failed"
        assert run.failed_steps == {"head"}
        assert run.skipped_steps == {"m0", "m1", "m2", "m3", "tail"}
        assert len(run.invocations) == 1

    def test_successful_run_reports_completed(self):
        env = Environment()
        platform = platform_with(env, [("a", 0.5), ("b", 0.5)],
                                 cold_start_s=0.0)
        engine = WorkflowEngine(env, platform)
        wf = FunctionWorkflow.chain("c", ["a", "b"])
        run = env.run(until=engine.submit(wf))
        assert run.status == "completed"
        assert run.succeeded
        assert not run.failed_steps and not run.skipped_steps


class TestFaaSReferenceArchitecture:
    def test_full_platform_covers_everything(self):
        assert platform_coverage(
            KNOWN_PLATFORMS["aws-lambda+step-functions"]) == 1.0

    def test_workflow_support_separates_platforms(self):
        fission = platform_coverage(KNOWN_PLATFORMS["fission"])
        fission_wf = platform_coverage(KNOWN_PLATFORMS["fission+workflows"])
        assert fission_wf > fission
        assert "workflow-engine" not in KNOWN_PLATFORMS["fission"]

    def test_bare_containers_are_not_serverless(self):
        coverage = platform_coverage(
            KNOWN_PLATFORMS["bare-container-platform"])
        assert coverage < 0.3
        layers = layer_coverage(KNOWN_PLATFORMS["bare-container-platform"])
        assert layers["function-management"] == 0.0

    def test_layer_coverage_structure(self):
        layers = layer_coverage(KNOWN_PLATFORMS["aws-lambda"])
        assert set(layers) == {"resources", "function-management",
                               "workflow-composition", "business-logic",
                               "operations"}
        assert layers["workflow-composition"] == 0.0
        assert layers["function-management"] == 1.0

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            platform_coverage(["quantum-burst-unit"])
