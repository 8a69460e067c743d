"""Partition and gray-failure fault models.

The crash/loss palette of :mod:`repro.faults.models` covers components
that *die*; ecosystems mostly suffer components that merely become
unreachable or unreliable. This module adds the two regimes the paper's
availability challenge (C6) turns on:

- :class:`NetworkPartitionModel` — named node-groups and scheduled
  split/heal episodes, including asymmetric ("one-way") partitions where
  traffic flows in only one direction. Attachable to a
  :class:`~repro.sim.Network` via its ``blocks`` hook.
- :class:`GrayFailureModel` — the node that is *heartbeat-alive but
  service-degraded* (Huang et al.'s "gray failure"): responses slow by a
  factor, error rates climb, and data-plane messages are partially
  dropped, while the control-plane liveness signal stays healthy. Its
  gray periods are a declarative per-node schedule.

Both are deterministic replayable: schedules are data, and any
randomness (error/drop draws) comes from named
:class:`~repro.sim.RandomStreams` streams supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.sim import Environment, Monitor

__all__ = ["GrayFailureModel", "NetworkPartitionModel", "PartitionEpisode",
           "ScheduledMessageLoss"]

_DIRECTIONS = ("both", "outbound", "inbound")


@dataclass(frozen=True)
class PartitionEpisode:
    """One scheduled split: ``isolate`` is cut off during [start, end).

    ``direction`` shapes the cut: ``"both"`` severs all traffic crossing
    the group boundary; ``"outbound"`` blocks only messages *from* the
    isolated group (its announcements vanish but it still hears the
    world); ``"inbound"`` blocks only messages *to* it (it shouts into
    the void that no longer answers) — the two asymmetric halves real
    switch/firewall faults produce.
    """

    start_s: float
    end_s: float
    isolate: str
    direction: str = "both"

    def __post_init__(self):
        if not 0 <= self.start_s < self.end_s:  # NaN fails too
            raise ValueError(
                f"episode needs 0 <= start_s < end_s, got "
                f"[{self.start_s}, {self.end_s})")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}, "
                             f"got {self.direction!r}")

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def severs(self, now: float, src_inside: bool, dst_inside: bool) -> bool:
        """Whether this episode blocks a src->dst message at ``now``."""
        if not self.active(now) or src_inside == dst_inside:
            return False
        if self.direction == "both":
            return True
        if self.direction == "outbound":
            return src_inside
        return dst_inside


class NetworkPartitionModel:
    """Scheduled network splits over named node-groups.

    ``groups`` maps group name -> node names; nodes outside every group
    form the implicit majority side of any cut. The ``blocks`` hook is a
    pure function of sim time (no RNG at query time), so attaching the
    model never perturbs the event order of fault-free traffic — the
    determinism property every chaos scenario leans on.
    """

    def __init__(self, env: Environment, groups: dict[str, Sequence[str]],
                 episodes: Iterable[PartitionEpisode],
                 monitor: Optional[Monitor] = None,
                 on_split: Optional[Callable[[PartitionEpisode], None]] = None,
                 on_heal: Optional[Callable[[PartitionEpisode], None]] = None):
        self.env = env
        self.groups = {g: list(members) for g, members in groups.items()}
        self.episodes = sorted(episodes,
                               key=lambda e: (e.start_s, e.end_s, e.isolate))
        for episode in self.episodes:
            if episode.isolate not in self.groups:
                raise ValueError(f"episode isolates unknown group "
                                 f"{episode.isolate!r}; "
                                 f"known: {sorted(self.groups)}")
        self._group_of: dict[str, str] = {}
        for group, members in self.groups.items():
            for node in members:
                self._group_of[str(node)] = group
        self.monitor = Monitor(env) if monitor is None else monitor
        self.on_split = on_split
        self.on_heal = on_heal
        self.name = "partition"
        if self.episodes:
            env.process(self._timeline())

    splits = property(lambda self: self.monitor.total("splits"))
    heals = property(lambda self: self.monitor.total("heals"))

    # -- Network model protocol --------------------------------------------
    def blocks(self, src: str, dst: str) -> bool:
        # ``src``/``dst`` arrive as registered node names (strings), so
        # no str() coercion; :meth:`PartitionEpisode.severs`, inlined.
        now = self.env.now
        group_of = self._group_of
        src_group = group_of.get(src)
        dst_group = group_of.get(dst)
        for episode in self.episodes:
            if not episode.start_s <= now < episode.end_s:
                continue
            src_inside = src_group == episode.isolate
            if src_inside == (dst_group == episode.isolate):
                continue
            # Across the cut: "outbound" blocks a source inside it,
            # "inbound" a destination inside it.
            direction = episode.direction
            if direction == "both" or src_inside == (direction == "outbound"):
                return True
        return False

    def _timeline(self):
        """Bookkeeping process: count and announce split/heal edges."""
        # Episodes are not orderable: sort on (time, is_heal), stably.
        events = sorted(
            [(e.start_s, 0, e) for e in self.episodes]
            + [(e.end_s, 1, e) for e in self.episodes], key=itemgetter(0, 1))
        for at, is_heal, episode in events:
            delay = at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if is_heal:
                self.monitor.count("heals", key=episode.isolate)
                if self.on_heal is not None:
                    self.on_heal(episode)
            else:
                self.monitor.count("splits", key=episode.isolate)
                if self.on_split is not None:
                    self.on_split(episode)


class GrayFailureModel:
    """Nodes that stay heartbeat-alive while their service rots.

    A gray node:

    - serves :meth:`service_factor` times slower (``slowdown``);
    - fails operations with probability ``error_rate``
      (:meth:`should_error`);
    - loses a fraction ``drop_rate`` of its *data-plane* messages — kinds
      listed in ``protected_kinds`` (heartbeats by default) are never
      dropped, because surviving the liveness check while failing the
      work is the definition of a gray failure;
    - adds ``extra_latency_s`` one-way delay to everything it sends or
      receives.

    Gray periods come from a declarative ``episodes`` schedule
    (node -> [(start_s, end_s), ...]). RNG is drawn **only while a
    node is gray**, so a baseline run of the same seed stays comparable
    (the :class:`~repro.faults.TransientErrorModel` ``enabled`` idiom).
    """

    def __init__(self, env: Environment, rng: np.random.Generator,
                 slowdown: float = 3.0, error_rate: float = 0.0,
                 drop_rate: float = 0.0, extra_latency_s: float = 0.0,
                 episodes: Optional[dict[str, Sequence[tuple]]] = None,
                 protected_kinds: Sequence[str] = ("heartbeat",),
                 monitor: Optional[Monitor] = None, name: str = "gray"):
        # Written so NaN fails every check.
        if not slowdown >= 1.0:
            raise ValueError("slowdown must be >= 1")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate {error_rate} not in [0, 1]")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate {drop_rate} not in [0, 1)")
        if not extra_latency_s >= 0:
            raise ValueError("extra_latency_s must be non-negative")
        self.env = env
        self.rng = rng
        self.slowdown = slowdown
        self.error_rate = error_rate
        self.drop_rate = drop_rate
        #: Constant one-way delay added to a gray node's traffic. Held
        #: under a private name so the instance attribute does not shadow
        #: the :meth:`extra_latency_s` protocol method.
        self._added_latency_s = extra_latency_s
        self.episodes = {str(node): [(float(a), float(b)) for a, b in spans]
                         for node, spans in (episodes or {}).items()}
        for node, spans in self.episodes.items():
            for a, b in spans:
                if not 0 <= a < b:
                    raise ValueError(f"gray episode [{a}, {b}) of {node!r} "
                                     "needs 0 <= start < end")
        self.protected_kinds = tuple(protected_kinds)
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = name
        self.slowed_operations = 0

    injected_errors = property(
        lambda self: self.monitor.total("injected_errors"))
    dropped_messages = property(
        lambda self: self.monitor.total("dropped_messages"))

    # -- state -------------------------------------------------------------
    def is_gray(self, node: str) -> bool:
        return self._gray(str(node))

    def _gray(self, node: str) -> bool:
        """:meth:`is_gray` for a name that is already a string."""
        spans = self.episodes.get(node)
        if not spans:
            return False
        now = self.env.now
        for a, b in spans:
            if a <= now < b:
                return True
        return False

    # -- service degradation ------------------------------------------------
    def service_factor(self, node: str) -> float:
        """Runtime multiplier for one operation served by ``node``."""
        if not self.is_gray(node):
            return 1.0
        self.slowed_operations += 1
        return self.slowdown

    def should_error(self, node: str) -> bool:
        """Draw one operation's fate on ``node`` (RNG only while gray)."""
        if not self.is_gray(node) or self.error_rate == 0.0:
            return False
        hit = bool(self.rng.random() < self.error_rate)
        if hit:
            self.monitor.count("injected_errors", key=str(node))
        return hit

    # -- Network model protocol --------------------------------------------
    def drops(self, src: str, dst: str, kind: str) -> bool:
        if kind in self.protected_kinds or self.drop_rate == 0.0:
            return False
        if not (self._gray(src) or self._gray(dst)):
            return False
        hit = bool(self.rng.random() < self.drop_rate)
        if hit:
            self.monitor.count("dropped_messages", key=kind)
        return hit

    def extra_latency_s(self, src: str, dst: str) -> float:
        if self._added_latency_s == 0.0:
            return 0.0
        if self._gray(src) or self._gray(dst):
            return self._added_latency_s
        return 0.0


#: Control-plane message kinds a loss episode never eats: liveness and
#: membership signals have their own fault models (partitions, gray
#: failures); scheduled loss is a *data-plane* regime.
_LOSS_PROTECTED_KINDS = ("heartbeat", "lease", "lease_ack", "vote_req",
                         "vote", "vote_deny", "fence")


class ScheduledMessageLoss:
    """Network-wide data-plane message loss during scheduled windows.

    Each episode is ``(start_s, end_s, rate)``: while any window is
    active, every unprotected message is dropped with probability
    ``rate`` (the max over active windows, if they overlap). Speaks the
    :class:`~repro.sim.Network` model protocol via :meth:`drops`, so it
    attaches next to partitions and gray failures. RNG is drawn **only
    while a window is active** — the same-seed baseline stays comparable
    (the ``TransientErrorModel`` ``enabled`` idiom).
    """

    def __init__(self, env: Environment, rng: np.random.Generator,
                 episodes: Iterable[tuple],
                 monitor: Optional[Monitor] = None):
        self.env = env
        self.rng = rng
        self.episodes = [(float(a), float(b), float(r))
                         for a, b, r in episodes]
        for a, b, r in self.episodes:
            if not 0 <= a < b:  # NaN fails too
                raise ValueError(f"loss episode [{a}, {b}) needs "
                                 "0 <= start < end")
            if not 0.0 <= r < 1.0:
                raise ValueError(f"loss rate {r} not in [0, 1)")
        self.protected_kinds = _LOSS_PROTECTED_KINDS
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = "loss"

    dropped_messages = property(
        lambda self: self.monitor.total("dropped_messages"))

    def active_rate(self) -> float:
        """The loss rate in force now (0 outside every window)."""
        now = self.env.now
        rate = 0.0
        for a, b, r in self.episodes:
            if a <= now < b and r > rate:
                rate = r
        return rate

    # -- Network model protocol --------------------------------------------
    def drops(self, src: str, dst: str, kind: str) -> bool:
        if kind in self.protected_kinds:
            return False
        rate = self.active_rate()
        if rate == 0.0:
            return False
        hit = bool(self.rng.random() < rate)
        if hit:
            self.monitor.count("dropped_messages", key=kind)
        return hit
