"""``python -m repro.campaign`` — run, shrink, and replay campaigns.

Three subcommands close the fuzzing loop:

- ``run`` executes a campaign of randomized schedules across shard
  workers, prints the verdict summary, and (on failures) writes one
  un-minimized repro file per failing schedule;
- ``shrink`` minimizes a repro file's schedule by delta debugging and
  writes the minimal repro;
- ``repro`` replays a repro file and exits 0 iff the recorded oracle
  failures reproduce exactly.

A clean campaign exits 0; a campaign with failures exits 1, so CI can
gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.campaign.runner import CampaignConfig, run_campaign
from repro.campaign.schedule import (
    FaultSchedule,
    ScheduleEnvelope,
    WORLDS,
)
from repro.campaign.shrink import (
    load_repro,
    replay_repro,
    repro_dict,
    shrink_schedule,
)

__all__ = ["main"]


def _parse_value(text: str):
    """Parse a ``--world-kwarg`` value: bool, number, or string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_world_kwargs(pairs) -> dict:
    kwargs = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--world-kwarg needs name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        kwargs[name] = _parse_value(value)
    return kwargs


def _cmd_run(args) -> int:
    worlds = tuple(args.worlds.split(","))
    for world in worlds:
        if world not in WORLDS:
            raise SystemExit(f"unknown world {world!r}; known: {WORLDS}")
    try:
        envelopes = None if args.budget is None else tuple(
            ScheduleEnvelope.for_world(world, sim_budget_s=args.budget)
            for world in worlds)
        config = CampaignConfig(
            root_seed=args.seed,
            n_schedules=args.schedules,
            workers=args.workers,
            worlds=worlds,
            envelopes=envelopes,
            double_run=not args.no_double_run,
            extra_world_kwargs=_parse_world_kwargs(args.world_kwarg))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = run_campaign(config)
    print(report.format())
    if args.report:
        Path(args.report).write_text(report.dumps() + "\n")
        print(f"report written to {args.report}")
    if report.n_failed and args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for verdict in report.failures():
            schedule = FaultSchedule.from_dict(verdict.schedule)
            path = out_dir / f"failure-{verdict.index:04d}.json"
            path.write_text(json.dumps(repro_dict(
                schedule, verdict.failures,
                extra_world_kwargs=config.extra_world_kwargs,
                trace_digest=verdict.trace_digest),
                indent=2, sort_keys=True) + "\n")
            print(f"repro file written to {path}")
    return 1 if report.n_failed else 0


def _cmd_shrink(args) -> int:
    data = load_repro(Path(args.input).read_text())
    schedule = FaultSchedule.from_dict(data["schedule"])
    result = shrink_schedule(
        schedule,
        extra_world_kwargs=data.get("extra_world_kwargs"),
        target_failures=data.get("expect_failures"),
        max_executions=args.max_executions)
    print(f"shrunk {len(result.original.episodes)} episode(s) -> "
          f"{len(result.minimal.episodes)} in {result.steps} accepted "
          f"step(s), {result.executions} execution(s)")
    minimal = repro_dict(result.minimal, result.failures,
                         extra_world_kwargs=data.get("extra_world_kwargs"),
                         trace_digest=result.trace_digest)
    out = Path(args.out) if args.out else Path(args.input).with_suffix(
        ".minimal.json")
    out.write_text(json.dumps(minimal, indent=2, sort_keys=True) + "\n")
    print(f"minimal repro written to {out}")
    return 0


def _cmd_repro(args) -> int:
    data = load_repro(Path(args.file).read_text())
    outcome = replay_repro(data)
    print(outcome.describe())
    if outcome.verdict_summary:
        print("summary: " + json.dumps(outcome.verdict_summary,
                                       sort_keys=True))
    return 0 if outcome.reproduced else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Deterministic chaos-fuzzing campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign of random schedules")
    p_run.add_argument("--seed", type=int, default=0,
                       help="campaign root seed (default 0)")
    p_run.add_argument("--schedules", type=int, default=200,
                       help="number of schedules (default 200)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="shards to deal the schedules into, run on "
                            "at most one process per CPU (default 1)")
    p_run.add_argument("--worlds", default="partition,failover",
                       help="comma-separated worlds "
                            "(default partition,failover)")
    p_run.add_argument("--budget", type=float, default=None,
                       help="sim-time budget per schedule "
                            "(default: envelope's)")
    p_run.add_argument("--no-double-run", action="store_true",
                       help="skip the determinism double-run check")
    p_run.add_argument("--report", default=None,
                       help="write the full JSON report here")
    p_run.add_argument("--out-dir", default=None,
                       help="write repro files for failures here")
    p_run.add_argument("--world-kwarg", action="append", metavar="K=V",
                       help="extra scenario kwarg, e.g. "
                            "fence_on_failover=false (repeatable)")
    p_run.set_defaults(func=_cmd_run)

    p_shrink = sub.add_parser("shrink",
                              help="minimize a failing repro file")
    p_shrink.add_argument("--input", required=True,
                          help="repro file to minimize")
    p_shrink.add_argument("--out", default=None,
                          help="output path (default: <input>.minimal.json)")
    p_shrink.add_argument("--max-executions", type=int, default=150,
                          help="re-execution budget (default 150)")
    p_shrink.set_defaults(func=_cmd_shrink)

    p_repro = sub.add_parser("repro", help="replay a repro file")
    p_repro.add_argument("file", help="repro file to replay")
    p_repro.set_defaults(func=_cmd_repro)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
