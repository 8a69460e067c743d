"""System-level self-protection: detect, admit, degrade.

PR 1 (:mod:`repro.faults`) gave every domain fault *injection* and
per-request resilience (retry backoff). This package is
the *system-level* response side the paper's Principles P3/P4 call for —
dynamic non-functional properties managed through monitoring, not assumed:

- **failure detection** (:mod:`repro.resilience.detection`) — heartbeat
  emitters and a phi-accrual detector, so components suspect failures with
  measurable latency and false-positive rates instead of reading the
  simulator's ground truth;
- **admission control** (:mod:`repro.resilience.admission`) — a token
  bucket and a CoDel-style queue-delay shedder for any service front door;
- **brownout** (:mod:`repro.resilience.brownout`) — a NORMAL → DEGRADED →
  CRITICAL mode machine with hysteresis and per-domain degradation hooks.

The bounded-queue primitive these build on lives in the kernel
(:class:`repro.sim.BoundedQueue`), since backpressure is a property of the
queueing substrate, not of any one domain. Domain wirings: the serverless
platform sheds at ``invoke()``, the cluster scheduler avoids suspected
machines, the P2P tracker believes heartbeats instead of ground truth, and
the MMOG browns out world updates before refusing players. The chaos
harness (:mod:`repro.faults.chaos`) measures all of it: goodput, shed
rate, detection latency, false-suspicion rate, time-in-degraded-mode.
"""

from repro.resilience.admission import CoDelShedder, TokenBucketAdmitter
from repro.resilience.brownout import BrownoutController, ServiceMode
from repro.resilience.detection import (
    PHI_MAX,
    HeartbeatEmitter,
    PhiAccrualDetector,
)

__all__ = [
    "BrownoutController",
    "CoDelShedder",
    "HeartbeatEmitter",
    "PHI_MAX",
    "PhiAccrualDetector",
    "ServiceMode",
    "TokenBucketAdmitter",
]
