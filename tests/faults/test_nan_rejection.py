"""Every fault model that takes a time or a rate rejects NaN at construction.

A NaN slips past a ``x < 0`` or ``b <= a`` check, because every comparison
with NaN is false. A NaN partition start, for one, used to book a split
and a heal for an outage that never blocked a message.
"""

import math

import pytest

from repro.faults import (
    CrashRestart,
    GrayFailureModel,
    PartitionEpisode,
    RetryPolicy,
    ScheduledMessageLoss,
)
from repro.sim import Environment, RandomStreams

NAN = math.nan


def _rng():
    return RandomStreams(0).get("nan")


CASES = {
    "partition-start": lambda: PartitionEpisode(NAN, 10.0, "g"),
    "partition-end": lambda: PartitionEpisode(0.0, NAN, "g"),
    "gray-slowdown": lambda: GrayFailureModel(Environment(), _rng(),
                                              slowdown=NAN),
    "gray-extra-latency": lambda: GrayFailureModel(
        Environment(), _rng(), extra_latency_s=NAN),
    "gray-episode": lambda: GrayFailureModel(
        Environment(), _rng(), episodes={"n": [(NAN, 5.0)]}),
    "loss-window": lambda: ScheduledMessageLoss(
        Environment(), _rng(), [(0.0, NAN, 0.1)]),
    "crash-mtbf": lambda: CrashRestart(Environment(), [], _rng(),
                                       mtbf_s=NAN, mttr_s=1.0),
    "crash-mttr": lambda: CrashRestart(Environment(), [], _rng(),
                                       mtbf_s=1.0, mttr_s=NAN),
    "retry-base-delay": lambda: RetryPolicy(base_delay_s=NAN),
    "retry-max-delay": lambda: RetryPolicy(max_delay_s=NAN),
    "retry-multiplier": lambda: RetryPolicy(multiplier=NAN),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nan_time_or_rate_is_rejected(build):
    with pytest.raises(ValueError):
        build()
