"""Deterministic fault injection and resilience for lossy MANETs.

The reproduction's clean-network assumption (peers depart gracefully,
radios never drop a frame) is exactly what short-lived MANETs violate.
This package makes degraded operation a first-class, *reproducible*
scenario:

* :class:`FaultPlan` / :class:`PartitionWindow` / :class:`RetryPolicy` —
  immutable, seeded descriptions of what goes wrong and how hard the
  protocol fights back (:mod:`repro.faults.plan`).
* :class:`FaultInjector` — applies a plan at the message-send boundary
  of :class:`repro.net.network.Network` (:mod:`repro.faults.injector`).
* :func:`reliable_send` / :func:`crash_peer` / :func:`tombstone_peer` —
  retry/backoff, abrupt crash without overlay cleanup, and stale-sphere
  tombstoning (:mod:`repro.faults.resilience`).

A plan reaches fabrics built deep inside experiment runners through the
run context: ``run_context(fault_plan=plan)`` (:mod:`repro.runtime`).

See ``docs/faults.md`` for the fault model, the retry semantics, and the
graceful-degradation contract (query confidence).
"""

from repro.faults.injector import REACTIVE_KINDS, FaultInjector, Verdict
from repro.faults.plan import (
    FaultPlan,
    PartitionWindow,
    RetryPolicy,
    parse_fault_plan,
)
from repro.faults.resilience import (
    SendOutcome,
    crash_peer,
    reliable_send,
    tombstone_peer,
)

__all__ = [
    "FaultPlan",
    "PartitionWindow",
    "RetryPolicy",
    "parse_fault_plan",
    "FaultInjector",
    "Verdict",
    "REACTIVE_KINDS",
    "SendOutcome",
    "reliable_send",
    "crash_peer",
    "tombstone_peer",
]
