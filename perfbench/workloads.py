"""The benchmark's three workloads: inputs, one run, and its output check.

A *run* is one call of a real entry point:

- ``campaign``: one ``OracleStack(double_run=True).evaluate_run`` of a
  chaos schedule (its world executes twice, traced by ``TraceDigest``);
- ``golden``: one ``run_scenario`` of a golden scenario at one seed;
- ``table9``: one ``run_static`` or ``run_portfolio`` call of the
  paper's Table 9 grid.

Each workload's inputs are fixed, so that every run's output is checked
against a recorded reference; ``--seed`` sets the order the inputs run
in. The references live in ``references.json`` beside this file, except
that the golden corpus at seed 7 is checked against the committed
``tests/golden/<name>.json`` digests, which are read and never written.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Optional

from repro.campaign import CampaignConfig, OracleStack, generate_schedules
from repro.observability.scenarios import GOLDEN_SEED, SCENARIOS, \
    run_scenario
from repro.scheduling.experiments import TABLE9_ROWS, GridCell, \
    run_portfolio, run_static

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
GOLDEN_DIR = ROOT / "tests" / "golden"

#: The campaign's root seed and size: fixed, so every run has a recorded
#: reference, and large enough for a tail with ten inputs beyond it.
CAMPAIGN_ROOT_SEED = 0
CAMPAIGN_SCHEDULES = 40
#: Schedules in the traced pass (the first ones of the campaign).
CAMPAIGN_TRACED = 6
#: The golden seed sweep: fixed, so every run has a recorded reference.
GOLDEN_SEEDS = tuple(range(GOLDEN_SEED, GOLDEN_SEED + 16))
#: The paper's Table 9 grid settings.
TABLE9_SEED = 901
TABLE9_JOBS = 25
TABLE9_POLICIES = ("fcfs", "sjf", "ljf", "backfill", "fair-share")
PORTFOLIO = "portfolio"


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


class Workload:
    """Inputs and checks of one workload.

    ``items`` is the closed loop's input sequence, ``warm_items`` the
    untimed warm-up (one run of each entry point) and ``traced_items``
    the fixed pass of a traced run. ``tail_pct`` is the percentile
    reported as ``run_s_tail``: ten inputs or more lie beyond it.
    """

    name = ""
    tail_pct = 90.0
    items: list
    warm_items: list
    traced_items: list

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> Optional[str]:
        """None when ``output`` is right, else what is wrong with it."""
        raise NotImplementedError

    def pass_check(self) -> Optional[str]:
        """Check over the outputs of a whole pass, after it ends."""
        return None


class Campaign(Workload):
    """A fixed-root-seed chaos campaign over the partition and failover
    worlds, evaluated in-process (``workers=1``) with the double run;
    ``seed`` only orders the schedules."""

    name = "campaign"
    tail_pct = 75.0
    pass_s = 10.0

    def __init__(self, seed: int, references: dict,
                 n_schedules: int = CAMPAIGN_SCHEDULES,
                 n_traced: int = CAMPAIGN_TRACED):
        config = CampaignConfig(root_seed=CAMPAIGN_ROOT_SEED,
                                n_schedules=n_schedules, workers=1,
                                double_run=True)
        self.stack = OracleStack(double_run=config.double_run)
        self.items = list(enumerate(generate_schedules(config)))
        self.warm_items = self.items[:len(config.worlds)]
        self.traced_items = self.items[:n_traced]
        random.Random(seed).shuffle(self.items)
        self.expected = references.get("campaign", {})

    def run(self, item):
        index, schedule = item
        verdict, _ = self.stack.evaluate_run(schedule, index=index)
        return verdict

    def check(self, item, verdict) -> Optional[str]:
        index, _ = item
        if not verdict.passed:
            return (f"schedule {index}: oracles failed: "
                    f"{verdict.failure_details}")
        expected = self.expected.get(str(index))
        if expected is None:
            return f"schedule {index}: no reference digests"
        actual = [verdict.schedule_digest, verdict.trace_digest]
        if actual != expected:
            return (f"schedule {index}: digests {actual} differ from "
                    f"reference {expected}")
        return None


class Golden(Workload):
    """The nine golden scenarios over a fixed seed sweep starting at 7;
    ``seed`` only orders the sweep."""

    name = "golden"
    tail_pct = 90.0
    pass_s = 2.5

    def __init__(self, seed: int, references: dict,
                 seeds: tuple = GOLDEN_SEEDS):
        self.items = [(s, name) for s in seeds for name in SCENARIOS]
        random.Random(seed).shuffle(self.items)
        self.warm_items = [(seeds[0], name) for name in SCENARIOS]
        self.traced_items = self.items
        self.expected = {(int(s), name): digest
                         for s, row in references.get("golden", {}).items()
                         for name, digest in row.items()}
        if GOLDEN_SEED in seeds:
            for name in SCENARIOS:
                doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
                self.expected[(GOLDEN_SEED, name)] = doc["digest"]

    def run(self, item):
        seed, name = item
        tracer, _, _ = run_scenario(name, seed=seed)
        return tracer

    def check(self, item, tracer) -> Optional[str]:
        expected = self.expected.get(item)
        if expected is None:
            return f"{item}: no reference digest"
        digest = tracer.digest()
        if digest != expected:
            return f"{item}: digest {digest} differs from {expected}"
        return None


class Table9(Workload):
    """The paper's Table 9 grid at seed 901, ``n_jobs=25``; ``seed`` only
    orders the 42 calls."""

    name = "table9"
    tail_pct = 75.0
    pass_s = 6.0

    def __init__(self, seed: int, references: dict,
                 rows: tuple = tuple(TABLE9_ROWS)):
        self.items = [(domain, env, policy) for domain, env in rows
                      for policy in TABLE9_POLICIES + (PORTFOLIO,)]
        self.warm_items = [self.items[0], self.items[len(TABLE9_POLICIES)]]
        random.Random(seed).shuffle(self.items)
        self.traced_items = self.items
        self.expected = references.get("table9", {})
        self.observed: dict = {}

    def run(self, item):
        domain, env, policy = item
        if policy == PORTFOLIO:
            metrics, _ = run_portfolio(domain, env, seed=TABLE9_SEED,
                                       n_jobs=TABLE9_JOBS)
        else:
            metrics = run_static(domain, env, policy, seed=TABLE9_SEED,
                                 n_jobs=TABLE9_JOBS)
        return metrics.objective()

    def check(self, item, objective) -> Optional[str]:
        self.observed[item] = objective
        expected = self.expected.get("|".join(item))
        if expected is None:
            return f"{item}: no reference objective"
        if objective != expected:
            return f"{item}: objective {objective!r} != {expected!r}"
        return None

    def pass_check(self) -> Optional[str]:
        """PS is useful in all but at most one complete cell."""
        cells: dict = {}
        for (domain, env, policy), objective in self.observed.items():
            cells.setdefault((domain, env), {})[policy] = objective
        complete = [(key, results) for key, results in cells.items()
                    if len(results) == len(TABLE9_POLICIES) + 1]
        useful = sum(
            GridCell(workload=domain, environment=env,
                     static_results={p: results[p]
                                     for p in TABLE9_POLICIES},
                     portfolio_result=results[PORTFOLIO],
                     portfolio_stats=None).ps_is_useful()
            for (domain, env), results in complete)
        if useful < len(complete) - 1:
            return f"PS useful in only {useful} of {len(complete)} cells"
        return None


WORKLOADS = {cls.name: cls for cls in (Campaign, Golden, Table9)}
