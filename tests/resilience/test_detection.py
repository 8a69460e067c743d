"""Heartbeats and phi-accrual failure detection."""

import math

import pytest

from repro.resilience import PHI_MAX, HeartbeatEmitter, PhiAccrualDetector
from repro.resilience.detection import _phi_of
from repro.sim import Environment, RandomStreams


def test_register_and_phi_starts_low():
    env = Environment()
    det = PhiAccrualDetector(env)
    det.register("a", 1.0)
    assert det.phi("a") == 0.0 or det.phi("a") < det.threshold
    assert not det.is_suspect("a")


def test_register_rejects_bad_interval():
    env = Environment()
    det = PhiAccrualDetector(env)
    with pytest.raises(ValueError):
        det.register("a", 0.0)


def test_unregistered_heartbeat_raises():
    env = Environment()
    det = PhiAccrualDetector(env)
    with pytest.raises(KeyError):
        det.heartbeat("ghost")


def test_phi_grows_with_silence():
    env = Environment()
    det = PhiAccrualDetector(env, min_std_s=0.1)
    det.register("a", 1.0)

    def probe(env):
        yield env.timeout(1.0)
        low = det.phi("a")
        yield env.timeout(9.0)
        high = det.phi("a")
        assert high > low
        assert high <= PHI_MAX

    env.process(probe(env))
    env.run()


def test_silent_component_becomes_suspect_and_heartbeat_clears():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0)
    det.register("a", 1.0)

    def scenario(env):
        # Regular heartbeats: never suspected.
        for _ in range(10):
            yield env.timeout(1.0)
            det.heartbeat("a")
            assert not det.is_suspect("a")
        # Then silence: suspicion must arise.
        yield env.timeout(30.0)
        assert det.is_suspect("a")
        assert det.suspected_at("a") is not None
        assert det.suspects() == ["a"]
        # It speaks again: cleared, and booked as false.
        det.heartbeat("a")
        assert not det.is_suspect("a")
        assert det.false_suspicions == 1

    env.process(scenario(env))
    env.run()
    assert det.suspicions == 1
    assert det.suspicion_log and det.suspicion_log[0][0] == "a"


def test_poll_records_onset_without_queries():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
    det.register("a", 1.0)
    env.run(until=60.0)
    # Nobody ever called is_suspect; the poller recorded the onset.
    assert det.suspected_at("a") is not None


def test_poll_order_is_str_sorted_with_ties_in_registration_order():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=1.0, poll_interval_s=100.0)
    early = ["b", 10, "1", 1, "a"]
    late = [2, ("x",), "10", "0"]
    for key in early:
        det.register(key, 1.0)
    env.run(until=50.0)
    for key in late:
        det.register(key, 1.0)
    env.run(until=101.0)
    # One poll at t=100 suspects every silent key, in poll order; equal
    # strings (1 and "1", 10 and "10") keep registration order.
    assert [key for key, _, _ in det.suspicion_log] == sorted(early + late,
                                                              key=str)
    assert {onset for _, onset, _ in det.suspicion_log} == {100.0}


def test_detection_latency_requires_onset_after_failure():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
    det.register("a", 1.0)
    env.run(until=60.0)
    assert det.detection_latency_s("a", failed_at=0.0) is not None
    # An onset before the claimed failure time is not a detection of it.
    assert det.detection_latency_s("a", failed_at=59.0) is None
    assert det.detection_latency_s("never-registered", 0.0) is None


def test_emitter_feeds_detector_and_suppresses_when_down():
    env = Environment()
    streams = RandomStreams(7)
    det = PhiAccrualDetector(env)
    up = {"a": True}
    emitter = HeartbeatEmitter(env, det, "a", 1.0,
                               rng=streams.get("hb-a"),
                               is_up=lambda: up["a"])

    def crash(env):
        yield env.timeout(10.0)
        up["a"] = False

    env.process(crash(env))
    env.run(until=20.0)
    assert emitter.sent > 0
    assert emitter.suppressed > 0
    assert det.heartbeats == emitter.sent


def test_emitter_with_jitter_requires_rng():
    """Regression: jitter > 0 without an rng used to silently phase-lock."""
    env = Environment()
    det = PhiAccrualDetector(env)
    with pytest.raises(ValueError, match="jitter > 0 requires a named rng"):
        HeartbeatEmitter(env, det, "a", 2.0)  # default jitter is 0.1


def test_emitter_with_explicit_zero_jitter_is_unjittered():
    env = Environment()
    det = PhiAccrualDetector(env)
    emitter = HeartbeatEmitter(env, det, "a", 2.0, jitter=0.0)
    env.run(until=10.0)
    assert emitter.sent == 4  # beats at 2, 4, 6, 8 (10.0 not reached)


def test_fault_free_emitters_never_suspected_across_seeds():
    """The acceptance property: bounded jitter, zero false suspicions."""
    for seed in (0, 1, 2):
        env = Environment()
        streams = RandomStreams(seed)
        det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
        for i in range(5):
            HeartbeatEmitter(env, det, f"m{i}", 1.0,
                             rng=streams.get(f"hb-m{i}"))
        env.run(until=120.0)
        assert det.suspicions == 0, f"seed {seed}"
        assert det.false_suspicions == 0, f"seed {seed}"
        assert det.suspects() == []


def test_validation_errors():
    env = Environment()
    with pytest.raises(ValueError):
        PhiAccrualDetector(env, threshold=0.0)
    with pytest.raises(ValueError):
        PhiAccrualDetector(env, window=0)
    with pytest.raises(ValueError):
        PhiAccrualDetector(env, poll_interval_s=0.0)
    det = PhiAccrualDetector(env)
    with pytest.raises(ValueError):
        HeartbeatEmitter(env, det, "a", 0.0)
    with pytest.raises(ValueError):
        HeartbeatEmitter(env, det, "a", 1.0, jitter=1.0)


def beat_regular(env, det, key, interval_s, n):
    """Advance the clock and deliver n perfectly regular heartbeats."""
    for _ in range(n):
        env.run(until=env.now + interval_s)
        det.heartbeat(key)


class TestPrimeDecayGuard:
    """Before ``min_samples`` real beats, the primed window is a guess and
    suspicion must be slower — but never impossible."""

    def test_early_silence_is_suspected_later_not_never(self):
        # After ONE real beat the naive detector (min_samples=1) trusts
        # its razor-thin window; the guarded one still widens the std
        # until min_samples beats arrive — so it suspects strictly
        # later, but it does suspect.
        def onset_after_one_beat(min_samples):
            env = Environment()
            det = PhiAccrualDetector(env, threshold=8.0,
                                     min_samples=min_samples, min_std_s=0.1)
            det.register("m", 1.0)
            env.run(until=1.0)
            det.heartbeat("m")
            t = 1.0
            while not det.is_suspect("m"):
                t += 0.1
                env.run(until=t)
                assert t < 60.0, "never suspected at all"
            return t, det
        t_naive, _ = onset_after_one_beat(1)
        t_guarded, guarded = onset_after_one_beat(3)
        assert t_naive < t_guarded
        assert guarded.suspicions == 1    # delayed, not prevented

    def test_guard_decays_with_each_real_beat(self):
        env = Environment()
        det = PhiAccrualDetector(env, min_samples=3, min_std_s=0.01)
        det.register("m", 1.0)
        stds = [det._window_stats("m")[1]]
        for _ in range(3):
            env.run(until=env.now + 1.0)
            det.heartbeat("m")
            stds.append(det._window_stats("m")[1])
        # 0 -> 1 -> 2 -> 3 observed beats: the widened std shrinks
        # monotonically and vanishes at min_samples.
        assert stds[0] > stds[1] > stds[2] > stds[3]
        assert stds[0] == pytest.approx(
            PhiAccrualDetector.PRIME_STD_FACTOR * 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualDetector(Environment(), min_samples=0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(Environment(), variance_cv=0.0)


class TestSuspectReason:
    def test_regular_source_going_quiet_is_silence(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0)
        det.register("steady", 1.0)
        beat_regular(env, det, "steady", 1.0, n=10)
        env.run(until=env.now + 30.0)      # it stops beating
        assert det.is_suspect("steady")
        assert det.suspect_reason("steady") == "silence"
        assert det.suspicions_by_reason == {"silence": 1, "variance": 0}
        assert det.suspicion_log[0][0] == "steady"
        assert det.suspicion_log[0][2] == "silence"

    def test_jittery_source_is_variance(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0, variance_cv=0.35)
        det.register("flaky", 1.0)
        # Alternate short/very-long gaps: window CV far above the
        # boundary, the gray/straggler signature.
        for i in range(12):
            env.run(until=env.now + (0.2 if i % 2 else 3.0))
            det.heartbeat("flaky")
        env.run(until=env.now + 40.0)
        assert det.is_suspect("flaky")
        assert det.suspect_reason("flaky") == "variance"
        assert det.suspicions_by_reason == {"silence": 0, "variance": 1}

    def test_never_heard_key_is_silence_by_definition(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0)
        det.register("mute", 1.0)
        env.run(until=60.0)
        assert det.is_suspect("mute")
        assert det.suspect_reason("mute") == "silence"

    def test_reason_clears_with_the_suspicion(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0)
        det.register("m", 1.0)
        beat_regular(env, det, "m", 1.0, n=8)
        env.run(until=env.now + 30.0)
        assert det.is_suspect("m")
        det.heartbeat("m")                 # it was alive after all
        assert det.suspect_reason("m") is None
        assert det.false_suspicions == 1
        # The all-time reason ledger is never decremented.
        assert det.suspicions_by_reason["silence"] == 1


def reference_stats(det, key):
    """(mean, guarded std) recomputed from the window on every call: the
    uncached reference the detector's cached statistics must match."""
    samples = det._intervals[key]
    mean = sum(samples) / len(samples)
    if len(samples) > 1:
        var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        std = max(math.sqrt(var), det.min_std_s)
    else:
        std = max(det.min_std_s, 0.1 * mean)
    observed = det._observed[key]
    if observed < det.min_samples:
        decay = (det.min_samples - observed) / det.min_samples
        std = max(std, det.PRIME_STD_FACTOR * mean * decay)
    return mean, std


class UncachedDetector(PhiAccrualDetector):
    def _window_stats(self, key):
        return reference_stats(self, key)


@pytest.mark.parametrize("seed", range(6))
def test_cached_stats_match_uncached_reference(seed):
    """Seeded interleavings of register/heartbeat/phi/is_suspect with a
    window of 4, so windows roll over; both detectors see every call."""
    env = Environment()
    kwargs = dict(threshold=3.0, window=4, min_samples=3, min_std_s=0.05)
    cached = PhiAccrualDetector(env, **kwargs)
    reference = UncachedDetector(env, **kwargs)
    rng = RandomStreams(seed).get("detector-ops")
    keys: list[str] = []
    beats: dict[str, int] = {}
    suspected_beats = guarded_beats = 0
    for _ in range(600):
        op = int(rng.integers(10))
        if op == 0 or not keys:
            key = f"k{int(rng.integers(5))}"
            interval = float(rng.choice([0.5, 1.0, 2.0]))
            cached.register(key, interval)
            reference.register(key, interval)
            if key not in keys:
                keys.append(key)
            continue
        key = keys[int(rng.integers(len(keys)))]
        if op <= 3:
            if cached.suspected_at(key) is not None:
                suspected_beats += 1
            if cached._observed[key] < cached.min_samples:
                guarded_beats += 1
            cached.heartbeat(key)
            reference.heartbeat(key)
            beats[key] = beats.get(key, 0) + 1
        elif op <= 5:
            assert cached.phi(key) == reference.phi(key)
        elif op <= 7:
            assert cached.is_suspect(key) == reference.is_suspect(key)
            assert cached.suspect_reason(key) == reference.suspect_reason(key)
        else:
            # Mostly short gaps, now and then a silence long enough to
            # raise suspicion.
            gap = float(rng.exponential(0.8 if op == 8 else 6.0))
            env.run(until=env.now + gap + 1e-3)
    assert cached.suspicion_log == reference.suspicion_log
    assert cached.suspicions_by_reason == reference.suspicions_by_reason
    assert cached.false_suspicions == reference.false_suspicions
    for key in keys:
        assert cached._window_stats(key) == reference_stats(cached, key)
    # The interleaving exercised what the cache must get right.
    assert max(beats.values()) > cached.window
    assert suspected_beats > 0 and guarded_beats > 0
    assert cached.suspicions > 0


class NoHorizonDetector(PhiAccrualDetector):
    """The detector without its calm horizon: ``is_suspect`` evaluates
    phi on every call, the reference the horizon must never disagree
    with."""

    def is_suspect(self, key):
        if key not in self._intervals:
            return False
        if key in self._suspected_at:
            return True
        if self.phi(key) >= self.threshold:
            reason = self._classify(key)
            self._suspected_at[key] = self.env.now
            self._suspect_reasons[key] = reason
            self.suspicions += 1
            self.suspicions_by_reason[reason] += 1
            self.suspicion_log.append((key, self.env.now, reason))
            return True
        return False


class CountingDetector(PhiAccrualDetector):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phi_calls = 0

    def phi(self, key):
        self.phi_calls += 1
        return super().phi(key)


class CountingNoHorizonDetector(NoHorizonDetector, CountingDetector):
    pass


HORIZON_THRESHOLDS = (0.2, 1.0, 4.0, 8.0, 400.0)
HORIZON_MIN_STDS = (0.0, 0.05, 0.1)


@pytest.mark.parametrize("threshold", HORIZON_THRESHOLDS)
@pytest.mark.parametrize("min_std_s", HORIZON_MIN_STDS)
@pytest.mark.parametrize("seed", range(3))
def test_calm_horizon_matches_always_phi_reference(threshold, min_std_s,
                                                   seed):
    """Seeded beat and probe processes, with probes that land within
    1e-3 s either side of a key's calm horizon; every probe of every key
    must agree with a detector that always computes phi.

    Most beats keep their key's rhythm to within 2%, so windows settle
    at the ``min_std_s`` floor, where the horizon is tightest; now and
    then a beat comes early or a key falls silent."""
    env = Environment()
    kwargs = dict(threshold=threshold, window=4, min_samples=3,
                  min_std_s=min_std_s)
    fast = CountingDetector(env, **kwargs)
    reference = CountingNoHorizonDetector(env, **kwargs)
    rng = RandomStreams(seed).get("horizon-ops")
    keys: list[str] = []
    near = {"before": 0, "tight": 0}

    def probe_all():
        for key in keys:
            assert fast.is_suspect(key) == reference.is_suspect(key)
            assert fast.suspect_reason(key) == reference.suspect_reason(key)

    def beater(key, interval, mute_s=0.0):
        yield env.timeout(float(rng.uniform(0.0, 3.0)))
        fast.register(key, interval)
        reference.register(key, interval)
        keys.append(key)
        env.process(prober(key))
        if mute_s:
            # Silent from registration: judged on the primed window.
            yield env.timeout(mute_s)
        while True:
            draw = float(rng.random())
            if draw < 0.1:
                gap = interval * float(rng.uniform(2.0, 8.0))
            elif draw < 0.13:
                gap = interval * float(rng.uniform(0.3, 1.0))
            else:
                gap = interval * (1.0 + 0.02 * float(rng.uniform(-1, 1)))
            yield env.timeout(gap)
            fast.heartbeat(key)
            reference.heartbeat(key)
            probe_all()

    def prober(key):
        """Probe ``key`` just before or after its current horizon; a
        beat that lands first moves the horizon past the probe."""
        while True:
            target = fast._calm_until[key] + float(rng.uniform(-1e-3, 1e-3))
            if not env.now < target < math.inf:
                yield env.timeout(float(rng.exponential(0.5)))
                probe_all()
                continue
            yield env.timeout(target - env.now)
            if env.now < fast._calm_until[key]:
                near["before"] += 1
            elif fast.suspected_at(key) is None:
                probe_all()
                near["tight"] += fast.suspected_at(key) == env.now
            probe_all()

    for i, interval in enumerate((0.5, 1.0, 2.0)):
        env.process(beater(f"k{i}", interval))
    env.process(beater("late", 1.0, mute_s=30.0))
    env.run(until=150.0)
    assert fast.suspicion_log == reference.suspicion_log
    assert fast.suspicions_by_reason == reference.suspicions_by_reason
    assert fast.false_suspicions == reference.false_suspicions
    assert reference.phi_calls > 0
    if math.isfinite(fast._calm_margin):
        # The horizon was probed from both sides, was at times the very
        # point where phi crosses the threshold, and saved phi calls.
        assert near["before"] > 0 and near["tight"] > 0
        assert fast.phi_calls < reference.phi_calls


@pytest.mark.parametrize("threshold", HORIZON_THRESHOLDS)
@pytest.mark.parametrize("min_std_s", HORIZON_MIN_STDS)
def test_calm_margin_is_tight_below_the_threshold(threshold, min_std_s):
    margin = PhiAccrualDetector(Environment(), threshold=threshold,
                                min_std_s=min_std_s)._calm_margin
    if min_std_s <= 0 or _phi_of(0.0) >= threshold:
        assert margin == -math.inf
    elif threshold > PHI_MAX:
        assert margin == math.inf
    else:
        x = margin / (math.sqrt(2.0) * min_std_s)
        assert _phi_of(x) < threshold
        # Only the 1e-6 slack separates the margin from the threshold.
        assert _phi_of(x / (1.0 - 2e-6)) >= threshold
