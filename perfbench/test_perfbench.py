"""The benchmark's own tests, at a small size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._use_checkout_sources()

import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Each workload cut down to a few cheap runs.
SMALL = {
    "campaign": {"n_schedules": 2, "n_traced": 2},
    "golden": {"seeds": (7, 8)},
    "table9": {"rows": (("gaming", "CL"), ("business-critical", "MCD"))},
}

#: Counts that must repeat exactly from run to run.
EXACT = ("sim.events", "invariants.audits", "resilience.phi_calls",
         "campaign.executions", "scheduling.predict_calls")


@pytest.fixture
def out_dir(request) -> Path:
    """A fresh scratch directory inside the checkout's ignored output."""
    path = run.OUT_DIR / "tests" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_end_to_end_metric_is_emitted(name):
    result = run.end_to_end(name, seed=0, seconds=0.0, setup_samples=2,
                            **SMALL[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_layer_metric_is_emitted_and_counts_repeat(name, out_dir,
                                                         monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", out_dir)
    first = run.traced(name, seed=0, **SMALL[name])
    second = run.traced(name, seed=0, **SMALL[name])
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} \
        == _units("per_layer")
    assert first["metrics"]["sim.events"]["value"] > 0
    for count in EXACT:
        assert first["metrics"][count] == second["metrics"][count], count
    assert (out_dir / f"spans-{name}.npz").is_file()


def test_tracing_leaves_the_program_unwrapped(out_dir, monkeypatch):
    from repro.sim import Environment
    original = Environment.run
    monkeypatch.setattr(run, "OUT_DIR", out_dir)
    run.traced("golden", seed=0, seeds=(8,))
    assert Environment.run is original


def _wrong(references: dict, name: str) -> dict:
    references = json.loads(json.dumps(references))
    if name == "campaign":
        references["campaign"]["1"][1] = "0" * 64
    elif name == "golden":
        references["golden"]["8"]["mmog"] = "0" * 64
    else:
        references["table9"]["gaming|CL|sjf"] += 1.0
    return references


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_wrong_reference_is_a_failed_run(name):
    references = _wrong(workloads.load_references(), name)
    workload, _ = run.set_up(name, 0, references=references, **SMALL[name])
    m = run.measure(workload, workload.items, 1)
    assert len(m.failures) == 1, m.failures
    result = run._result([m], {})
    assert not result["correct"] and result["failed"] == 1


def test_a_failed_pass_check_makes_the_result_incorrect():
    workload, _ = run.set_up("table9", 0, **SMALL["table9"])
    for item in workload.items:
        workload.observed[item] = (1.0 if item[2] != workloads.PORTFOLIO
                                   else 9.0)
    assert workload.pass_check() == "PS useful in only 0 of 2 cells"


def test_tail_is_the_highest_percentile_with_ten_runs_beyond():
    assert run.tail_percentile(144, 90.0) == 90.0
    assert run.tail_percentile(100, 95.0) == 90.0
    assert run.tail_percentile(12, 75.0) == 50.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0


def test_exits_non_zero_without_the_sources(out_dir):
    shutil.copy(run.ROOT / "BENCHMARK.json", out_dir)
    shutil.copytree(run.HERE, out_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=out_dir, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
