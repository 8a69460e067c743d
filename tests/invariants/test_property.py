"""Property tests: laws hold under fault grids; corruptions are caught.

Two halves, matching the two promises the invariant layer makes:

1. Across a seed x fault-configuration grid, every registered law holds
   at every audit instant (the system's books really balance).
2. Any deliberate corruption of any single term is caught, with the
   violation's labeled delta equal to the corruption (the oracle really
   detects, and localizes, imbalance).
"""

from dataclasses import replace

import pytest

from repro.faults import (
    GrayFailureModel,
    NetworkPartitionModel,
    PartitionEpisode,
)
from repro.invariants import (
    ConservationLaw,
    InvariantEngine,
    InvariantViolation,
    counter_term,
    network_conservation,
)
from repro.observability import MetricsRegistry
from repro.sim import Environment, Network, RandomStreams

SEEDS = (0, 1, 2)


# -- 1. laws hold across seed x fault-config grids -------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("direction", ["both", "outbound", "inbound"])
@pytest.mark.parametrize("drop_rate", [0.0, 0.5])
def test_network_conservation_holds_under_partition_and_gray(
        seed, direction, drop_rate):
    """Random traffic through every fault combination balances the ledger."""
    env = Environment()
    streams = RandomStreams(seed)
    net = Network(env, default_latency_s=0.05)
    nodes = [f"n{i}" for i in range(6)]
    net.add_nodes(nodes)
    net.attach(NetworkPartitionModel(
        env, groups={"minority": nodes[-2:]},
        episodes=[PartitionEpisode(5.0, 20.0, "minority",
                                   direction=direction),
                  PartitionEpisode(30.0, 35.0, "minority")]))
    net.attach(GrayFailureModel(
        env, streams.get("gray"), drop_rate=drop_rate, extra_latency_s=0.1,
        episodes={"n0": [(10.0, 25.0)]}))
    engine = InvariantEngine(env, laws=[network_conservation(net)],
                             check_interval_s=0.5)

    def traffic(rng):
        for _ in range(300):
            yield env.timeout(float(rng.exponential(0.1)))
            i, j = rng.choice(len(nodes), size=2, replace=False)
            kind = ("data", "report", "heartbeat")[int(rng.integers(3))]
            net.send(nodes[int(i)], nodes[int(j)],
                     deliver=lambda: None, kind=kind)

    env.process(traffic(streams.get("traffic")))
    env.run(until=60.0)        # InvariantViolation would propagate here
    engine.check_now()
    assert engine.checks > 0
    assert engine.violations == 0
    assert net.in_flight == 0
    assert net.sent == 300
    assert net.blocked > 0                       # the partition actually bit


@pytest.mark.parametrize("seed", (7, 19))
@pytest.mark.parametrize("direction,gray_drop", [("both", 0.15),
                                                 ("outbound", 0.4)])
def test_composed_scenario_laws_hold_across_fault_grid(
        seed, direction, gray_drop):
    """The full composed stack balances under varied partition/gray knobs."""
    from repro.faults.chaos import PARTITION_PLAN, run_partition_scenario
    episodes = [replace(e, params={"direction": direction})
                if e.kind == "partition" else e for e in PARTITION_PLAN]
    result = run_partition_scenario(
        seed=seed, n_tasks=16, task_rate_per_s=1.0,
        n_invocations=20, invoke_rate_per_s=2.0,
        episodes=episodes, gray_drop_rate=gray_drop)
    assert result["invariant_checks"] > 0
    assert result["invariant_violations"] == 0
    assert result["lost"] == 0
    assert result["admitted"] == result["completed"]


# -- 2. corruptions are always caught with the correct labeled delta -------

def balanced_pipeline():
    """A registry-backed law over a balanced offered == served + shed."""
    registry = MetricsRegistry()
    registry.incr("front.offered", 10)
    registry.incr("back.served", 7)
    registry.incr("back.shed", 3)
    law = ConservationLaw(
        "pipeline.conservation",
        lhs=[counter_term(registry, "front.offered", "offered")],
        rhs=[counter_term(registry, "back.served", "served"),
             counter_term(registry, "back.shed", "shed")])
    return registry, law


@pytest.mark.parametrize("metric,amount,expected_delta", [
    ("front.offered", 1, 1.0),      # phantom arrival
    ("front.offered", 5, 5.0),
    ("back.served", 2, -2.0),       # double-counted completion
    ("back.shed", 1, -1.0),
])
def test_corrupted_counter_caught_with_exact_delta(metric, amount,
                                                   expected_delta):
    registry, law = balanced_pipeline()
    law.check()                      # balanced before the corruption
    registry.incr(metric, amount)
    with pytest.raises(InvariantViolation) as excinfo:
        law.check(time=42.0)
    v = excinfo.value
    assert v.delta == expected_delta
    assert f"(delta {expected_delta:+g})" in str(v)
    # The corrupted term's post-corruption value is in the labeled report.
    labeled = dict(v.lhs_values + v.rhs_values)
    short = {"front.offered": "offered", "back.served": "served",
             "back.shed": "shed"}[metric]
    assert labeled[short] == registry.get(metric).total


def every_term_perturbation():
    """(law-name, term-label, corrupt-fn, expected-delta) for the catalog.

    Each case builds a balanced duck-typed world, then corrupts exactly
    one term of one standard law and predicts the signed delta.
    """
    from repro.invariants import (
        front_door_conservation,
        checkpoint_accounting,
        scheduler_conservation,
        scheduler_reconciliation,
    )

    class _Bag:
        def __init__(self, **attrs):
            self.__dict__.update(attrs)

    cases = []

    def net_case(attr, sign):
        net = _Bag(sent=10, delivered=6, blocked=2, dropped=1, in_flight=1)
        return ("network.conservation", attr,
                network_conservation(net),
                lambda n=net, a=attr: setattr(n, a, getattr(n, a) + 3),
                3.0 * sign)

    for attr, sign in [("sent", 1), ("delivered", -1), ("blocked", -1),
                       ("dropped", -1), ("in_flight", -1)]:
        cases.append(net_case(attr, sign))

    def sched():
        return _Bag(submitted=6, finished=[1, 2], failed=[3], ready=[4],
                    running={5: "m"}, _limbo=[6], _orphaned=[],
                    _unreported=[], _procs={5: "p"}, _pending_reports={})

    s = sched()
    cases.append(("scheduler.conservation", "submitted",
                  scheduler_conservation(s),
                  lambda s=s: setattr(s, "submitted", s.submitted + 1), 1.0))
    s = sched()
    cases.append(("scheduler.conservation", "finished",
                  scheduler_conservation(s),
                  lambda s=s: s.finished.append(9), -1.0))
    s = sched()
    cases.append(("scheduler.reconciliation", "believed_running",
                  scheduler_reconciliation(s),
                  lambda s=s: s.running.update({9: "m"}), 1.0))
    s = sched()
    cases.append(("scheduler.reconciliation", "pending_reports",
                  scheduler_reconciliation(s),
                  lambda s=s: s._pending_reports.update({9: ()}), -1.0))

    door = _Bag(offered=8, admitted=5, shed=3)
    cases.append(("frontdoor.conservation", "shed",
                  front_door_conservation(door),
                  lambda d=door: setattr(d, "shed", d.shed + 2), -2.0))

    job = _Bag(started_at=0.0, finished_at=100.0, work_s=80.0,
               checkpoint_time_s=5.0, lost_work_s=6.0, recovery_time_s=4.0,
               downtime_s=5.0)
    cases.append(("checkpoint.accounting", "lost_work",
                  checkpoint_accounting(job),
                  lambda j=job: setattr(j, "lost_work_s", 6.5), -0.5))
    return cases


@pytest.mark.parametrize(
    "law_name,term,law,corrupt,expected_delta",
    every_term_perturbation(),
    ids=[f"{name}:{term}" for name, term, *_ in every_term_perturbation()])
def test_every_catalog_term_corruption_is_caught(law_name, term, law,
                                                 corrupt, expected_delta):
    law.check()                      # the world starts balanced
    corrupt()
    with pytest.raises(InvariantViolation) as excinfo:
        law.check(time=7.0)
    v = excinfo.value
    assert v.law.name == law_name
    assert v.delta == pytest.approx(expected_delta)
    assert term in dict(v.lhs_values + v.rhs_values)
    assert law_name in str(v) and "delta" in str(v)


def test_survey_engine_localizes_a_cross_layer_corruption():
    """Corrupting one layer breaks exactly that layer's law, no others."""
    env = Environment()
    net = Network(env)
    net.add_nodes(["a", "b"])
    net.send("a", "b", deliver=lambda: None)
    door = type("Door", (), {"offered": 4, "admitted": 4, "shed": 0})()
    from repro.invariants import standard_laws
    engine = InvariantEngine(env, laws=standard_laws(network=net,
                                                     front_door=door),
                             halt=False)
    assert engine.check_now() == []
    # Corrupt the network books only: ``delivered`` is a read-only view,
    # so the corruption goes into the counter it reads.
    net.monitor.counters["delivered"].total += 1
    broken = engine.check_now()
    assert [v.law.name for v in broken] == ["network.conservation"]
    assert broken[0].delta == -1.0
