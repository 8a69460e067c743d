"""Lease-based leader election over the fault-aware network fabric.

One :class:`LeaseElection` instance simulates *all* control-plane nodes:
each node runs its own sim process, talks to its peers only through
:class:`repro.sim.Network` messages (``lease``, ``lease_ack``,
``vote_req``, ``vote``, ``vote_deny``), and observes its leader's
liveness only through a :class:`~repro.resilience.detection.\
PhiAccrualDetector` fed by delivered renewals — never through ground
truth. Partitions, gray loss, and latency therefore act on elections
exactly as they act on the data plane.

Safety argument (at most one leader per term):

- a node grants a term at most once: ``_granted[node]`` is monotone and
  a grant requires ``term > _granted[node]``;
- winning requires a strict majority of grants, and every candidate
  self-grants, so two winners of the same term would need two disjoint
  majorities — impossible;
- a deposed or stood-down candidate keeps its grant floor, so rejoining
  nodes can never re-grant an old term.

Liveness comes from leader stickiness plus jittered campaigns: peers
holding a *fresh* lease deny vote requests outright (a flaky standby
cannot unseat a live leader), and candidates draw their campaign delay
from a named per-node RNG stream — deterministic tie-breaking under a
fixed seed, de-synchronized campaigns under any seed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.resilience.detection import PhiAccrualDetector
from repro.sim import Environment, Monitor, Network, RandomStreams

#: The boot leader's term.
INITIAL_TERM = 1
#: A candidate waits ``uniform(0, CAMPAIGN_SPREAD_S)`` before campaigning.
CAMPAIGN_SPREAD_S = 1.5
#: How long a candidate collects votes before counting them.
ELECTION_ROUND_S = 0.2
#: A lost candidacy backs off ``RETRY_BACKOFF_S * uniform(0.5, 1.5)``.
RETRY_BACKOFF_S = 1.5


class LeaseElection:
    """Term-numbered leases with majority grants and phi-driven campaigns.

    ``nodes[0]`` starts as the leader of :data:`INITIAL_TERM` — a replicated
    control plane boots with a known primary, not a cold election.

    Parameters
    ----------
    detector:
        Shared phi-accrual detector; one key per *observer* node tracks
        the inter-arrival of lease renewals that node actually received.
    streams:
        Named RNG streams; node ``n`` draws campaign jitter and retry
        backoff from ``streams.get(f"election-{n}")`` only.
    on_promote:
        ``callback(node, term)`` invoked at the instant a node wins an
        election (not for the boot-time leader).
    """

    def __init__(self, env: Environment, network: Network,
                 nodes: Iterable[str], detector: PhiAccrualDetector,
                 streams: RandomStreams, *,
                 lease_ttl_s: float = 4.0,
                 renew_interval_s: float = 1.0,
                 poll_interval_s: float = 0.25,
                 monitor: Optional[Monitor] = None,
                 tracer=None,
                 on_promote: Optional[Callable[[str, int], None]] = None):
        self.env = env
        self.network = network
        self.nodes = list(nodes)
        if len(self.nodes) < 2:
            raise ValueError("an election needs at least two nodes")
        if lease_ttl_s <= renew_interval_s:
            raise ValueError("lease_ttl_s must exceed renew_interval_s")
        self.detector = detector
        self.lease_ttl_s = lease_ttl_s
        self.renew_interval_s = renew_interval_s
        self.poll_interval_s = poll_interval_s
        self.monitor = Monitor(env) if monitor is None else monitor
        self.tracer = tracer
        self.on_promote = on_promote

        leader = self.nodes[0]
        self._role = {n: ("leader" if n == leader else "standby")
                      for n in self.nodes}
        self._term = {n: INITIAL_TERM for n in self.nodes}
        self._believed_leader = {n: leader for n in self.nodes}
        self._last_heard = {n: env.now for n in self.nodes}
        self._granted = {n: INITIAL_TERM for n in self.nodes}
        #: Term a candidacy is proposing. ``_term`` only moves to it on a
        #: win (pre-vote style): a partitioned node that campaigns in
        #: vain must not inflate its own term, or it would reject the
        #: real leader's renewals after the heal and livelock.
        self._proposal = {n: 0 for n in self.nodes}
        self._votes = {n: 0 for n in self.nodes}
        self._ack_at = {n: {} for n in self.nodes}
        self._last_majority = {n: env.now for n in self.nodes}
        #: Per-node flag: a well-behaved leader steps down when it loses
        #: its own majority-ack window. Scenario code clears it on a node
        #: to model the pathological leader that fencing must stop.
        self.self_demote = {n: True for n in self.nodes}
        self._rng = {n: streams.get(f"election-{n}") for n in self.nodes}

        #: ``{term: winner}`` — ``setdefault`` only, so a double win at
        #: one term shows up as ``promotions > len(leaders_by_term)`` and
        #: trips the ``at_most_one_leader_per_term`` law.
        self.leaders_by_term = {INITIAL_TERM: leader}
        #: An int: it counts the boot leader, which the counter does not.
        self.promotions = 1

        for node in self.nodes:
            network.add_node(node)
            detector.register(self._key(node), renew_interval_s)
        self._procs = {n: env.process(self._node_loop(n))
                       for n in self.nodes}

    elections = property(lambda self: self.monitor.total("elections"))
    votes_granted = property(lambda self: self.monitor.total("votes_granted"))
    votes_denied = property(lambda self: self.monitor.total("votes_denied"))
    demotions = property(lambda self: self.monitor.total("demotions"))
    stand_downs = property(lambda self: self.monitor.total("stand_downs"))

    # -- queries ---------------------------------------------------------

    def believes_leader(self, node: str) -> bool:
        """Whether ``node`` currently thinks it holds the lease."""
        return self._role[node] == "leader"

    def leader_of(self, node: str) -> Optional[str]:
        """Who ``node`` believes leads (None while orphaned)."""
        return self._believed_leader[node]

    def term_of(self, node: str) -> int:
        return self._term[node]

    @property
    def majority(self) -> int:
        return len(self.nodes) // 2 + 1

    def _key(self, node: str) -> str:
        return f"lease@{node}"

    # -- external invalidation ------------------------------------------

    def depose(self, node: str) -> None:
        """Step ``node`` down to standby with no believed leader.

        Fencing calls this when a rejection proves a newer leader fenced
        the machines without saying who; a leader that lost its own
        majority abdicates the same way. The node re-learns the
        leadership through renewals or denials.
        """
        if self._role[node] != "leader":
            return
        self._role[node] = "standby"
        self._believed_leader[node] = None
        self._last_heard[node] = self.env.now
        self.monitor.count("demotions", key=node)

    # -- per-node state machine -----------------------------------------

    def _node_loop(self, node: str):
        while True:
            if self._role[node] == "leader":
                yield from self._lead_once(node)
            else:
                yield from self._watch_once(node)

    def _lead_once(self, node: str):
        """One renewal tick: broadcast the lease, audit the ack window."""
        now = self.env.now
        if (self.self_demote[node]
                and now - self._last_majority[node] > self.lease_ttl_s):
            # Lost our own majority for a full TTL: a healthy leader
            # abdicates rather than keep writing on a dead lease.
            self.depose(node)
            return
        term = self._term[node]
        self._last_heard[node] = now
        self.detector.heartbeat(self._key(node))
        for peer in self.nodes:
            if peer == node:
                continue
            self.network.send(
                node, peer,
                deliver=lambda p=peer, t=term: self._receive_renewal(
                    p, node, t),
                kind="lease")
            self.monitor.count("lease_renewals")
        fresh = sum(1 for at in self._ack_at[node].values()
                    if now - at <= self.lease_ttl_s) + 1  # + self
        if fresh >= self.majority:
            self._last_majority[node] = now
        yield self.env.timeout(self.renew_interval_s)

    def _receive_renewal(self, observer: str, leader: str,
                         term: int) -> None:
        if term < self._term[observer]:
            return  # a deposed leader's stale renewal; fencing handles it
        self._term[observer] = term
        if self._believed_leader[observer] != leader:
            if self._role[observer] == "leader":
                # A higher-termed leader exists: stand down immediately.
                self.monitor.count("demotions", key=observer)
            self._role[observer] = "standby"
            self._believed_leader[observer] = leader
        elif self._role[observer] == "candidate":
            self._role[observer] = "standby"
        self._last_heard[observer] = self.env.now
        self.detector.heartbeat(self._key(observer))
        self.network.send(
            observer, leader,
            deliver=lambda o=observer, t=term: self._receive_ack(
                leader, o, t),
            kind="lease_ack")

    def _receive_ack(self, leader: str, observer: str, term: int) -> None:
        if self._role[leader] == "leader" and self._term[leader] == term:
            self._ack_at[leader][observer] = self.env.now

    def _watch_once(self, node: str):
        """One standby poll: campaign only on a phi-confirmed dead lease."""
        if self._needs_election(node):
            yield from self._campaign(node)
        else:
            yield self.env.timeout(self.poll_interval_s)

    def _needs_election(self, node: str) -> bool:
        if self._believed_leader[node] is None:
            return True
        expired = (self.env.now - self._last_heard[node]) > self.lease_ttl_s
        return expired and self.detector.is_suspect(self._key(node))

    def _campaign(self, node: str):
        rng = self._rng[node]
        # Jittered candidacy delay: the deterministic tie-breaker. Two
        # standbys that detect the same death campaign at different
        # times, so the first one normally wins before the second tries.
        yield self.env.timeout(float(rng.uniform(0.0, CAMPAIGN_SPREAD_S)))
        if not self._needs_election(node):
            return  # a leader announced itself while we hesitated
        term = max(self._term[node], self._granted[node]) + 1
        self._proposal[node] = term
        self._granted[node] = term  # self-grant
        self._votes[node] = 1
        self._role[node] = "candidate"
        self.monitor.count("elections", key=node)
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "replication.election", node=node, term=term)
        for peer in self.nodes:
            if peer == node:
                continue
            self.network.send(
                node, peer,
                deliver=lambda p=peer, t=term: self._receive_vote_request(
                    p, node, t),
                kind="vote_req")
        yield self.env.timeout(ELECTION_ROUND_S)
        if self._role[node] != "candidate" or self._proposal[node] != term:
            # A renewal or a deny landed mid-round and stood us down.
            if span is not None:
                self.tracer.end_span(span, status="stood_down")
            return
        if self._votes[node] >= self.majority:
            self._win(node, term)
            if span is not None:
                self.tracer.end_span(span, status="won")
            return
        if span is not None:
            self.tracer.end_span(span, status="lost")
        self._role[node] = "standby"
        yield self.env.timeout(RETRY_BACKOFF_S * (0.5 + float(rng.random())))

    def _receive_vote_request(self, peer: str, candidate: str,
                              term: int) -> None:
        now = self.env.now
        lease_fresh = (self._believed_leader[peer] is not None
                       and now - self._last_heard[peer] <= self.lease_ttl_s)
        grant = (term > self._granted[peer]
                 and not lease_fresh
                 and self._role[peer] != "leader")
        if grant:
            self._granted[peer] = term
            self.monitor.count("votes_granted", key=peer)
            self.network.send(
                peer, candidate,
                deliver=lambda t=term: self._receive_vote(candidate, t),
                kind="vote")
            return
        self.monitor.count("votes_denied", key=peer)
        self.network.send(
            peer, candidate,
            deliver=lambda t=self._term[peer],
            led=self._believed_leader[peer],
            fresh=lease_fresh: self._receive_deny(candidate, t, led, fresh),
            kind="vote_deny")

    def _receive_vote(self, candidate: str, term: int) -> None:
        if self._role[candidate] == "candidate" \
                and self._proposal[candidate] == term:
            self._votes[candidate] += 1

    def _receive_deny(self, candidate: str, denier_term: int,
                      denier_leader: Optional[str],
                      lease_fresh: bool) -> None:
        if self._role[candidate] != "candidate":
            return
        if lease_fresh and denier_leader is not None:
            # A live lease exists somewhere we could not see: adopt the
            # denier's view and stand down. The grant floor stays put,
            # so our abandoned term can never be granted to us later.
            self._role[candidate] = "standby"
            self._term[candidate] = max(self._term[candidate], denier_term)
            self._believed_leader[candidate] = denier_leader
            self._last_heard[candidate] = self.env.now
            self.monitor.count("stand_downs", key=candidate)

    def _win(self, node: str, term: int) -> None:
        self._role[node] = "leader"
        self._term[node] = term
        self._believed_leader[node] = node
        self._last_heard[node] = self.env.now
        self._ack_at[node] = {}
        self._last_majority[node] = self.env.now
        self.promotions += 1
        self.leaders_by_term.setdefault(term, node)
        self.monitor.count("promotions", key=node)
        if self.on_promote is not None:
            self.on_promote(node, term)
