"""Every robustness component owns a monitor, private by default.

A component's counter attributes are read-only views over its monitor's
counters, so a component built without a monitor still counts: each
case below builds one with no monitor, drives one counted fact, and
reads it back through the view and through ``monitor.total``.
"""

import pytest

from repro.cluster import Cluster, FailureInjector
from repro.faults import (
    CorrelatedBurst,
    CrashRestart,
    GrayFailureModel,
    NetworkPartitionModel,
    PartitionEpisode,
    ScheduledMessageLoss,
)
from repro.invariants import ConservationLaw, InvariantEngine, Term
from repro.recovery import CheckpointStore, Journal
from repro.replication import (
    FencingGate,
    JournalReplicator,
    LeaseElection,
    ReplicatedControlPlane,
)
from repro.resilience import PhiAccrualDetector
from repro.scheduling import ClusterSimulator, FCFSPolicy
from repro.sim import Environment, Network, RandomStreams

#: A loss probability that hits on every draw of these short tests.
ALWAYS = 0.999999


class Target:
    def __init__(self):
        self.name = "t"
        self.is_up = True

    def fail(self):
        self.is_up = False

    def repair(self):
        self.is_up = True


def rng(name="ledger"):
    return RandomStreams(3).get(name)


def partition_split():
    env = Environment()
    model = NetworkPartitionModel(env, {"g": ["a"]},
                                  [PartitionEpisode(1.0, 2.0, "g")])
    env.run(until=1.5)
    return model, "splits", "splits"


def partition_heal():
    env = Environment()
    model = NetworkPartitionModel(env, {"g": ["a"]},
                                  [PartitionEpisode(1.0, 2.0, "g")])
    env.run(until=3.0)
    return model, "heals", "heals"


def gray_degradation():
    model = GrayFailureModel(Environment(), rng())
    model.degrade("n")
    return model, "degradations", "degradations"


def gray_restoration():
    model = GrayFailureModel(Environment(), rng())
    model.degrade("n")
    model.restore("n")
    return model, "restorations", "restorations"


def gray_injected_error():
    model = GrayFailureModel(Environment(), rng(), error_rate=1.0)
    model.degrade("n")
    assert model.should_error("n")
    return model, "injected_errors", "injected_errors"


def gray_dropped_message():
    model = GrayFailureModel(Environment(), rng(), drop_rate=ALWAYS)
    model.degrade("n")
    assert model.drops("n", "m", "data")
    return model, "dropped_messages", "dropped_messages"


def loss_dropped_message():
    model = ScheduledMessageLoss(Environment(), rng(), [(0.0, 1.0, ALWAYS)])
    assert model.drops("a", "b", "data")
    return model, "dropped_messages", "dropped_messages"


def crash_failure():
    target = Target()
    model = CrashRestart(Environment(), [target], rng(), mtbf_s=1e9,
                         mttr_s=1.0)
    model.fail_now(target)
    return model, "failures", "crash_failures"


def crash_repair():
    target = Target()
    model = CrashRestart(Environment(), [target], rng(), mtbf_s=1e9,
                         mttr_s=1.0)
    model.fail_now(target)
    model.repair_now(target)
    return model, "repairs", "crash_repairs"


def injector_failure():
    cluster = Cluster.homogeneous("c", 2, cores=4)
    injector = FailureInjector(Environment(), cluster, rng(), mtbf_s=1e9)
    injector.fail_now(cluster.machines[0])
    assert injector.monitor["up_machines"].last() == 1
    return injector, "failures", "machine_failures"


def burst():
    # One target that never repairs within the run: only the first
    # epoch finds anyone up to crash.
    env = Environment()
    model = CorrelatedBurst(env, [Target()], rng(), mean_interval_s=1.0,
                            fraction=1.0, mttr_s=1e9)
    env.run(until=100.0)
    return model, "bursts", "bursts"


def fenced_rejection():
    gate = FencingGate()
    gate.raise_floor("m", 2)
    assert not gate.admit_dispatch("m", 1)
    return gate, "rejected", "fenced_rejections"


def fenced_report():
    gate = FencingGate()
    gate.advance(2)
    assert not gate.admit_report("m", 1)
    return gate, "fenced_reports", "fenced_reports"


def journal_append():
    journal = Journal(Environment())
    journal.append("step")
    return journal, "appended", "journal_appends"


def journal_replay():
    journal = Journal(Environment())
    journal.replay()
    return journal, "replays", "journal_replays"


def journal_truncation():
    journal = Journal(Environment())
    journal.truncate(0)
    return journal, "truncations", "journal_truncations"


def store_write():
    env = Environment()
    store = CheckpointStore(env)
    env.process(store.save("state", 1.0))
    env.run()
    return store, "writes", "ckpt-store_writes"


def store_corrupt_fallback():
    env = Environment()
    store = CheckpointStore(env)

    def run():
        yield from store.save("old", 1.0)
        yield from store.save("new", 1.0)
        store.checkpoints[-1].corrupt = True
        yield from store.restore()

    env.process(run())
    env.run()
    return store, "corrupt_fallbacks", "ckpt-store_corrupt_fallbacks"


def engine_check():
    engine = InvariantEngine(Environment())
    engine.register(ConservationLaw("ok", [Term("a", lambda: 1)],
                                    [Term("b", lambda: 1)]))
    engine.check_now()
    return engine, "checks", "checks"


def engine_violation():
    engine = InvariantEngine(Environment(), halt=False)
    engine.register(ConservationLaw("broken", [Term("a", lambda: 1)],
                                    [Term("b", lambda: 2)]))
    engine.check_now()
    return engine, "violations", "violations"


def false_suspicion():
    env = Environment()
    detector = PhiAccrualDetector(env, threshold=1.0)
    detector.register("k", 1.0)
    env.run(until=50.0)
    assert detector.is_suspect("k")
    detector.heartbeat("k")
    return detector, "false_suspicions", "phi_false_suspicions"


def election_demotion():
    env = Environment()
    detector = PhiAccrualDetector(env, name="lease")
    election = LeaseElection(env, Network(env), ("a", "b", "c"), detector,
                             RandomStreams(7))
    election.depose("a")
    return election, "demotions", "demotions"


def replicated_world():
    env = Environment()
    network = Network(env)
    sim = ClusterSimulator(env, Cluster.homogeneous("cp", 2, cores=4),
                           FCFSPolicy(), journal=Journal(env),
                           network=network, node_name="cp-0")
    control = ReplicatedControlPlane(env, sim, network,
                                     ("cp-0", "cp-1", "cp-2"),
                                     RandomStreams(7))
    return control, sim.cluster.machines[0].name


def stale_dispatch():
    control, machine = replicated_world()
    control._stale_probe(machine, 0, [])
    return control, "stale_dispatches", "stale_dispatches"


def split_brain_write():
    # Term 0 is not below an unfenced machine's floor: the stale write
    # is accepted, which is exactly a split-brain write.
    control, machine = replicated_world()
    control._stale_probe(machine, 0, [])
    return control, "split_brain_writes", "split_brain_writes"


def ship_ack():
    env = Environment()
    network = Network(env)
    network.add_nodes(["L", "S"])
    journal = Journal(env)
    replicator = JournalReplicator(env, network, journal, "L", ["S"])
    journal.append("step")
    env.run(until=0.75)  # one ship tick; zero latency acks at once
    return replicator, "acks_received", "ship_acks"


def scheduler_crash():
    env = Environment()
    sim = ClusterSimulator(env, Cluster.homogeneous("s", 1, cores=4),
                           FCFSPolicy(), journal=Journal(env))
    sim.crash_scheduler()
    return sim, "scheduler_crashes", "scheduler_crashes"


CASES = [partition_split, partition_heal, gray_degradation,
         gray_restoration, gray_injected_error, gray_dropped_message,
         loss_dropped_message, crash_failure, crash_repair,
         injector_failure, burst, fenced_rejection, fenced_report,
         journal_append, journal_replay, journal_truncation, store_write,
         store_corrupt_fallback, engine_check, engine_violation,
         false_suspicion, election_demotion, stale_dispatch,
         split_brain_write, ship_ack, scheduler_crash]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_component_without_a_monitor_still_counts(case):
    component, view, counter = case()
    assert getattr(component, view) == 1
    assert component.monitor.total(counter) == 1
    with pytest.raises(AttributeError):
        setattr(component, view, 0)
