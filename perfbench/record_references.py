"""Record the reference outputs the benchmark checks runs against.

Run from the repository root after a change that is meant to alter
outputs (and only then)::

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: the golden digests of every sweep
seed except 7 (seed 7 is checked against ``tests/golden/``), every
Table 9 objective, and the schedule and trace digests of every campaign
schedule. Refuses to record a failing run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record() -> dict:
    golden = workloads.Golden(seed=0, references={})
    golden_refs: dict = {}
    for seed, name in sorted(golden.items):
        if seed != workloads.GOLDEN_SEED:
            golden_refs.setdefault(str(seed), {})[name] = \
                golden.run((seed, name)).digest()
        elif golden.check((seed, name), golden.run((seed, name))):
            raise SystemExit(f"golden {name} differs from tests/golden/")

    table9 = workloads.Table9(seed=0, references={})
    table9_refs = {"|".join(item): table9.run(item)
                   for item in sorted(table9.items)}
    table9.observed = {item: table9_refs["|".join(item)]
                       for item in table9.items}
    if table9.pass_check():
        raise SystemExit(table9.pass_check())

    campaign = workloads.Campaign(seed=0, references={})
    campaign_refs = {}
    for item in campaign.items:
        verdict = campaign.run(item)
        if not verdict.passed:
            raise SystemExit(f"schedule {item[0]} failed: "
                             f"{verdict.failure_details}")
        campaign_refs[str(item[0])] = [verdict.schedule_digest,
                                       verdict.trace_digest]
    return {"golden": golden_refs, "table9": table9_refs,
            "campaign": campaign_refs}


if __name__ == "__main__":
    workloads.REFERENCES.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
