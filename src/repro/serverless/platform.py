"""A FaaS platform: function lifecycle fully managed by the provider.

The model implements the paper's three serverless principles ([101]):
(1) operational logic abstracted away — callers only ``invoke``;
(2) fine-grained pay-per-use — GB-second billing per invocation;
(3) event-driven, elastically scaled — instances spawn on demand (cold
start) and are reaped after an idle keep-alive window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional

import numpy as np

from repro.faults.models import TransientErrorModel
from repro.faults.policies import RetryPolicy
from repro.resilience.admission import CoDelShedder, TokenBucketAdmitter
from repro.resilience.brownout import BrownoutController, ServiceMode
from repro.sim import BoundedQueue, Environment, Monitor


@dataclass(frozen=True)
class FunctionSpec:
    """A deployed function."""

    name: str
    #: Execution time on a warm instance, seconds.
    runtime_s: float
    memory_gb: float = 0.25

    def __post_init__(self):
        if self.runtime_s <= 0:
            raise ValueError("runtime_s must be positive")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")


@dataclass
class PlatformConfig:
    """Operator-side knobs of the platform."""

    cold_start_s: float = 1.5
    keep_alive_s: float = 600.0
    #: Price per GB-second of function execution.
    price_per_gb_s: float = 0.0000167
    #: Billing also counts the cold start (as real platforms' init does)?
    bill_cold_start: bool = False
    #: Hard cap on concurrent instances per function (None = unbounded).
    concurrency_limit: Optional[int] = None
    #: Instances kept pre-warmed per function (cold-start mitigation).
    prewarmed: int = 0
    #: Front-door queue depth per function when the concurrency limit is
    #: saturated. 0 keeps the historical behavior (reject immediately);
    #: > 0 lets invocations wait for an instance, bounded — overflow is
    #: rejected, never silently backlogged.
    queue_capacity: int = 0

    def __post_init__(self) -> None:
        # Written as ``not (x >= 0)`` so that NaN is rejected too.
        for name in ("cold_start_s", "keep_alive_s", "price_per_gb_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        limit = self.concurrency_limit
        if limit is not None and limit < 1:
            raise ValueError("concurrency_limit must be None or >= 1")
        if self.prewarmed < 0:
            raise ValueError("prewarmed must be non-negative")
        if limit is not None and self.prewarmed > limit:
            raise ValueError("prewarmed must not exceed concurrency_limit")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")


@dataclass(slots=True)
class Invocation:
    """One function invocation and its measured life-cycle."""

    inv_id: int
    function: str
    submit_time: float
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    cold: bool = False
    rejected: bool = False
    #: True when admission control or queue-delay shedding turned the
    #: invocation away — a first-class outcome, not a vanished request.
    shed: bool = False
    #: Execution attempts made (1 = no retries).
    attempts: int = 1
    #: True when every attempt hit an injected fault (invocation lost).
    failed: bool = False

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def queue_delay(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


class _Instance:
    """A warm (or warming) instance of one function."""

    __slots__ = ("busy_until", "idle_since")

    def __init__(self, now: float):
        self.busy_until = now
        self.idle_since = now


class FaaSPlatform:
    """The platform: registry, pools, router, biller."""

    def __init__(self, env: Environment,
                 config: Optional[PlatformConfig] = None,
                 fault_model: Optional[TransientErrorModel] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 retry_rng: Optional[np.random.Generator] = None,
                 admitter: Optional[TokenBucketAdmitter] = None,
                 shedder: Optional[CoDelShedder] = None,
                 brownout: Optional[BrownoutController] = None,
                 tracer=None, registry=None):
        self.env = env
        self.config = config or PlatformConfig()
        if (retry_policy is not None and retry_policy.jitter > 0
                and retry_rng is None):
            raise ValueError(
                "retry_policy has jitter > 0 but retry_rng is None; pass a "
                "named RandomStreams stream (or a jitter=0.0 policy)")
        #: Optional per-attempt transient failure model (chaos experiments).
        self.fault_model = fault_model
        #: Optional platform-side retry of faulted attempts; retries show up
        #: in billing (failed attempts bill too) and in tail latency.
        self.retry_policy = retry_policy
        self._retry_rng = retry_rng
        #: Optional front-door rate limit: invocations beyond the bucket
        #: rate are shed at ``invoke()``, before they cost anything.
        self.admitter = admitter
        #: Optional CoDel-style shedder applied as queued invocations are
        #: dequeued: a request that already waited too long is shed rather
        #: than served uselessly late.
        self.shedder = shedder
        #: Optional brownout controller driven by :meth:`pressure`. In
        #: DEGRADED mode the platform sheds invocations that would pay a
        #: cold start (capacity is precious, spend it on warm work); in
        #: CRITICAL mode it sheds every new arrival.
        self.brownout = brownout
        self.functions: dict[str, FunctionSpec] = {}
        self._pools: dict[str, list[_Instance]] = {}
        self._queues: dict[str, BoundedQueue] = {}
        self._ids = count()
        self.invocations: list[Invocation] = []
        #: Optional :class:`~repro.observability.Tracer`: every invocation
        #: becomes a ``serverless.invoke`` span (status ok/shed/rejected/
        #: failed, with fault/retry/cold_start events).
        self.tracer = tracer
        if tracer is not None and tracer.env is None:
            tracer.bind(env)
        self.monitor = Monitor(env, registry=registry,
                               namespace="serverless")
        self.billed_gb_s = 0.0
        #: GB-seconds of idle warm capacity (the provider's keep-alive cost).
        self.idle_gb_s = 0.0
        env.process(self._reaper())

    # -- management --------------------------------------------------------
    def deploy(self, spec: FunctionSpec) -> None:
        if spec.name in self.functions:
            raise ValueError(f"function {spec.name!r} already deployed")
        self.functions[spec.name] = spec
        pool = []
        for _ in range(self.config.prewarmed):
            pool.append(_Instance(self.env.now))
        self._pools[spec.name] = pool
        if self.config.queue_capacity > 0:
            self._queues[spec.name] = BoundedQueue(
                self.env, self.config.queue_capacity)

    def warm_instances(self, name: str) -> int:
        now = self.env.now
        return sum(1 for inst in self._pools.get(name, ())
                   if inst.busy_until <= now)

    def pool_size(self, name: str) -> int:
        return len(self._pools.get(name, ()))

    # -- admission ---------------------------------------------------------
    def busy_instances(self, name: str) -> int:
        now = self.env.now
        return sum(1 for inst in self._pools.get(name, ())
                   if inst.busy_until > now)

    def pressure(self, name: str) -> float:
        """The overload signal the brownout controller watches.

        Below saturation it is instance utilization in [0, 1] (against the
        concurrency limit, or the current pool when unbounded). With a
        standing queue it is ``1 + head queueing delay in seconds`` — past
        saturation, *how stale* the backlog is measures how overloaded the
        platform is, which is the signal CoDel also acts on.
        """
        queue = self._queues.get(name)
        if queue is not None and len(queue):
            return 1.0 + queue.head_delay()
        busy = self.busy_instances(name)
        limit = self.config.concurrency_limit
        if limit is not None:
            return busy / limit
        pool = len(self._pools.get(name, ()))
        return busy / pool if pool else 0.0

    def _admit(self, name: str) -> bool:
        """The front door: False sheds the invocation before it costs."""
        if (self.admitter is None and self.brownout is None):
            return True
        if self.brownout is not None:
            mode = self.brownout.observe(self.pressure(name), self.env.now)
            if mode is ServiceMode.CRITICAL:
                return False
            if (mode is ServiceMode.DEGRADED
                    and self.warm_instances(name) == 0):
                # Brownout: don't pay cold starts while overloaded — spend
                # the remaining capacity on work that can run warm.
                return False
        if self.admitter is not None and not self.admitter.admit():
            return False
        return True

    # -- invocation -----------------------------------------------------------
    def invoke(self, name: str):
        """Start an invocation; returns an Event yielding the Invocation.

        From a process: ``inv = yield platform.invoke("f")``.
        """
        if name not in self.functions:
            raise KeyError(f"function {name!r} not deployed")
        inv = Invocation(inv_id=next(self._ids), function=name,
                         submit_time=self.env.now)
        self.invocations.append(inv)
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("serverless.invoke",
                                          function=name, inv_id=inv.inv_id)
        done = self.env.event()
        if not self._admit(name):
            inv.shed = True
            self.monitor.count("shed", key=name)
            self._finish_span(span, inv)
            done.succeed(inv)
            return done
        self.env.process(self._execute(inv, done, span))
        return done

    def _finish_span(self, span, inv: Invocation) -> None:
        if span is None:
            return
        status = ("shed" if inv.shed else
                  "rejected" if inv.rejected else
                  "failed" if inv.failed else "ok")
        self.tracer.end_span(span, status=status,
                             cold=inv.cold, attempts=inv.attempts)

    def _acquire_instance(self, name: str) -> tuple[Optional[_Instance], bool]:
        """(instance, is_cold); None if the concurrency cap rejects."""
        now = self.env.now
        pool = self._pools[name]
        # Prefer the warm instance idle the longest (stable reuse).
        warm = [i for i in pool if i.busy_until <= now]
        if warm:
            inst = min(warm, key=lambda i: i.idle_since)
            return inst, False
        limit = self.config.concurrency_limit
        if limit is not None and len(pool) >= limit:
            return None, False
        inst = _Instance(now)
        pool.append(inst)
        return inst, True

    def _execute(self, inv: Invocation, done, span=None):
        spec = self.functions[inv.function]
        max_attempts = (self.retry_policy.max_attempts
                        if self.retry_policy is not None else 1)
        attempt = 0
        while True:
            attempt += 1
            inv.attempts = attempt
            inst, cold = self._acquire_instance(inv.function)
            while inst is None:
                queue = self._queues.get(inv.function)
                if queue is None or not queue.offer((inv, slot := self.env.event())):
                    inv.rejected = True
                    self.monitor.count("rejections", key=inv.function)
                    self._finish_span(span, inv)
                    done.succeed(inv)
                    return
                verdict = yield slot
                if verdict == "shed":
                    inv.shed = True
                    self.monitor.count("shed", key=inv.function)
                    self._finish_span(span, inv)
                    done.succeed(inv)
                    return
                inst, cold = self._acquire_instance(inv.function)
            inv.cold = inv.cold or cold
            setup = self.config.cold_start_s if cold else 0.0
            if cold and span is not None:
                self.tracer.add_event(span, "cold_start")
            # Account idle time of a reused warm instance.
            if not cold:
                self.idle_gb_s += ((self.env.now - inst.idle_since)
                                   * spec.memory_gb)
            inst.busy_until = self.env.now + setup + spec.runtime_s
            if cold:
                yield self.env.timeout(setup)
            if inv.start_time is None:
                inv.start_time = self.env.now
            yield self.env.timeout(spec.runtime_s)
            inst.idle_since = self.env.now
            self._drain(inv.function)
            # Every attempt bills, faulted or not (as on real platforms).
            billed_s = spec.runtime_s + (setup if self.config.bill_cold_start
                                         else 0.0)
            self.billed_gb_s += billed_s * spec.memory_gb
            faulted = (self.fault_model is not None
                       and self.fault_model.should_fail())
            if not faulted:
                inv.finish_time = self.env.now
                self.monitor.count("invocations", key=inv.function)
                self.monitor.record(f"latency:{inv.function}", inv.latency)
                self._finish_span(span, inv)
                done.succeed(inv)
                return
            self.monitor.count("faults", key=inv.function)
            if span is not None:
                self.tracer.add_event(span, "fault", attempt=attempt)
            if attempt >= max_attempts:
                inv.failed = True
                self.monitor.count("failed_invocations", key=inv.function)
                self._finish_span(span, inv)
                done.succeed(inv)
                return
            self.monitor.count("retries", key=inv.function)
            if span is not None:
                self.tracer.add_event(span, "retry", attempt=attempt)
            yield self.env.timeout(
                self.retry_policy.backoff_s(attempt, self._retry_rng))

    def _has_room(self, name: str) -> bool:
        """Whether an invocation could start now (warm or cold)."""
        now = self.env.now
        pool = self._pools[name]
        if any(inst.busy_until <= now for inst in pool):
            return True
        limit = self.config.concurrency_limit
        return limit is None or len(pool) < limit

    def _drain(self, name: str) -> None:
        """Capacity freed: wake the next queued invocation (or shed it).

        Applies the CoDel shedder to each dequeued waiter — a request that
        already waited past the delay target is shed instead of served
        uselessly late, which is what keeps the queue from standing.
        """
        queue = self._queues.get(name)
        if queue is None:
            return
        while len(queue):
            if not self._has_room(name):
                return
            (_, slot), waited = queue.pop()
            if self.shedder is not None and self.shedder.should_shed(waited):
                slot.succeed("shed")
                continue
            slot.succeed("go")
            return

    def _reaper(self):
        """Reap instances idle past the keep-alive window."""
        interval = max(self.config.keep_alive_s / 4, 1.0)
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            for name, pool in self._pools.items():
                spec = self.functions[name]
                survivors = []
                for inst in pool:
                    idle = (now - inst.idle_since
                            if inst.busy_until <= now else 0.0)
                    if idle > self.config.keep_alive_s:
                        self.idle_gb_s += (self.config.keep_alive_s
                                           * spec.memory_gb)
                    else:
                        survivors.append(inst)
                # Maintain the pre-warmed floor.
                while len(survivors) < self.config.prewarmed:
                    survivors.append(_Instance(now))
                self._pools[name] = survivors
                # Reaping frees concurrency-limit headroom for queued work.
                self._drain(name)

    # -- accounting -----------------------------------------------------------
    def cost(self) -> float:
        """The customer's bill (principle 2: pay only for what runs)."""
        return self.billed_gb_s * self.config.price_per_gb_s

    def cold_start_fraction(self, name: Optional[str] = None) -> float:
        pool = [i for i in self.invocations
                if not i.rejected and not i.shed
                and (name is None or i.function == name)]
        if not pool:
            return 0.0
        return sum(1 for i in pool if i.cold) / len(pool)

    def completed(self, name: Optional[str] = None) -> list[Invocation]:
        return [i for i in self.invocations
                if i.finish_time is not None
                and (name is None or i.function == name)]

    def failure_fraction(self, name: Optional[str] = None) -> float:
        """Fraction of invocations that never produced an answer.

        Counts faults (after any retries), rejections at the concurrency
        cap, and admission-control sheds alike: to the caller they are all
        requests that got nothing back.
        """
        pool = [i for i in self.invocations
                if name is None or i.function == name]
        if not pool:
            return 0.0
        return sum(1 for i in pool
                   if i.failed or i.rejected or i.shed) / len(pool)

    def shed(self, name: Optional[str] = None) -> list[Invocation]:
        """Invocations dropped by admission control or the queue shedder."""
        return [i for i in self.invocations
                if i.shed and (name is None or i.function == name)]

    def shed_fraction(self, name: Optional[str] = None) -> float:
        pool = [i for i in self.invocations
                if name is None or i.function == name]
        if not pool:
            return 0.0
        return sum(1 for i in pool if i.shed) / len(pool)

    def slo_attainment(self, threshold_s: float,
                       name: Optional[str] = None) -> float:
        """Fraction of invocations that completed within ``threshold_s``.

        Failed, rejected, and shed invocations count as SLO misses — an
        answer that never arrives is worse than a slow one.
        """
        pool = [i for i in self.invocations
                if name is None or i.function == name]
        if not pool:
            return 1.0
        ok = sum(1 for i in pool
                 if i.latency is not None and i.latency <= threshold_s)
        return ok / len(pool)
