"""The network fabric: transmission accounting and scheduled delivery.

Overlays send every overlay-hop through :meth:`Network.transmit`, which
writes the frame once into the fabric's integer rows (per kind, per
endpoint — :mod:`repro.net.metrics`) and (optionally) schedules the
delivery callback on the event queue (:meth:`Network.transmit_path` is
that write for a whole routed chain). ``fabric.metrics``, ``fabric.load``
and ``fabric.energy`` are read-side views of that one write. Synchronous
accounting plus an event-driven delivery mode covers both fast
benchmarking and the paper's "parallel behaviour" simulation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import runtime
from repro.engine.serial import SerialScheduler
from repro.exceptions import ValidationError
from repro.faults.injector import FaultInjector
from repro.net.energy import EnergyLedger, EnergyModel
from repro.net.messages import Message, MessageKind
from repro.net.metrics import LoadLedger, NetworkMetrics
from repro.net.node import SimNode


class Network:
    """A simulated MANET fabric connecting overlay nodes.

    Parameters
    ----------
    energy_model:
        Radio cost model; defaults to the Bluetooth-class constants.
    hop_latency:
        Virtual seconds one overlay hop takes (used in scheduled mode).
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan`; when given (or
        when the run context carries one, ``runtime.current.fault_plan``), a
        fresh :class:`repro.faults.injector.FaultInjector` is installed
        and every :meth:`transmit` passes through it.
    """

    def __init__(
        self,
        *,
        energy_model: EnergyModel | None = None,
        hop_latency: float = 0.01,
        fault_plan=None,
        scheduler=None,
    ):
        if hop_latency < 0:
            raise ValidationError(f"hop_latency must be >= 0, got {hop_latency}")
        #: The fabric clock. An execution engine may inject its own
        #: scheduler (``repro.engine``); the default is the serial one,
        #: byte-identical to the pre-engine behaviour.
        self.scheduler = scheduler if scheduler is not None else SerialScheduler()
        self.metrics = NetworkMetrics()
        self.load = LoadLedger()
        self.energy = EnergyLedger(
            energy_model or EnergyModel(), self.metrics, self.load
        )
        self.hop_latency = hop_latency
        self._nodes: dict[int, SimNode] = {}
        self.install_faults(
            fault_plan if fault_plan is not None
            else runtime.current.fault_plan
        )

    def install_faults(self, plan_or_injector):
        """Install a fault injector (from a plan or prebuilt); returns it.

        Passing ``None`` uninstalls fault injection, restoring the clean
        fabric behaviour.
        """
        if plan_or_injector is None:
            self.faults = None
            return None
        if isinstance(plan_or_injector, FaultInjector):
            self.faults = plan_or_injector
        else:
            self.faults = FaultInjector(plan_or_injector)
        return self.faults

    # -- membership ---------------------------------------------------------

    def register(self, node: SimNode) -> None:
        """Attach ``node`` to the fabric."""
        if node.node_id in self._nodes:
            raise ValidationError(f"node id {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> SimNode:
        """Look up a registered node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    @property
    def node_ids(self) -> list[int]:
        """Identifiers of all registered nodes."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- transmission -------------------------------------------------------

    def _charge(
        self, kind, sent, received, size_bytes,
        retransmits=0, duplicates=0, dropped=False,
    ) -> None:
        """The one write of the frame ledger.

        ``sent`` / ``received`` each yield ``(node_id, count)`` — a node
        that transmitted / was addressed and its primary frames — and
        every primary frame carries the same ``retransmits``,
        ``duplicates`` and ``dropped`` verdict. Per-kind totals count the
        primary frame only (Figure 8's cost), fault overhead goes in its
        own buckets. The load view counts every frame on the air,
        duplicates included, and gives a dropped frame's receiver no
        ``msgs_in``; the radio bills primaries and retransmits on both
        endpoints whether or not the frame arrived, so a faulty frame
        also books that difference (see
        :class:`~repro.net.metrics.NodeLoad`).
        """
        on_air = 1 + retransmits + duplicates
        heard = 0 if dropped else on_air
        faulty = on_air > 1 or dropped
        rows = self.load.per_node
        primaries = 0
        for node_id, count in sent:
            row = rows[node_id]
            frames = count * on_air
            row.msgs_out += frames
            row.bytes_out += frames * size_bytes
            primaries += count
            if faulty:
                row.retransmits += count * retransmits
                row.duplicates += count * duplicates
                row.drops += count * dropped
                row.tx_msgs_adjust -= count * duplicates
                row.tx_bytes_adjust -= count * duplicates * size_bytes
        for node_id, count in received:
            row = rows[node_id]
            frames = count * heard
            row.msgs_in += frames
            row.bytes_in += frames * size_bytes
            if faulty:
                row.retransmits += count * retransmits
                row.duplicates += count * duplicates
                row.drops += count * dropped
                unheard = count * (1 + retransmits) - frames
                row.rx_msgs_adjust += unheard
                row.rx_bytes_adjust += unheard * size_bytes
        bucket = self.metrics.by_kind[kind]
        bucket.messages += primaries
        bucket.hops += primaries
        bucket.bytes += primaries * size_bytes
        if faulty:
            bucket.retransmits += primaries * retransmits
            bucket.retransmit_bytes += primaries * retransmits * size_bytes
            bucket.duplicates += primaries * duplicates

    def transmit(
        self,
        source: int,
        destination: int,
        kind: MessageKind,
        size_bytes: int,
        *,
        deliver: Callable[[Message], None] | None = None,
    ) -> Message:
        """Send one overlay hop from ``source`` to ``destination``.

        Writes the frame to the ledger immediately. When ``deliver`` is
        given, the callback is scheduled ``hop_latency`` in the virtual
        future (event-driven mode); otherwise accounting-only
        (synchronous mode).

        When a fault injector is installed every message passes through
        it: query-plane messages may come back ``delivered=False`` (the
        caller retries or degrades — see :mod:`repro.faults`), overlay
        traffic is charged for link-layer retransmissions under loss, and
        delivery callbacks pick up jitter/duplication. Without an
        injector this path is exactly the clean-fabric code.
        """
        if source not in self._nodes:
            raise ValidationError(f"unknown source node {source}")
        if destination not in self._nodes:
            raise ValidationError(f"unknown destination node {destination}")
        if size_bytes < 0:
            raise ValidationError(f"size_bytes must be >= 0, got {size_bytes}")
        message = Message(
            kind=kind, source=source, destination=destination,
            size_bytes=size_bytes, hops=1,
        )
        retransmits = 0
        extra_delay = 0.0
        copies = 1
        if self.faults is not None:
            verdict = self.faults.on_transmit(
                kind, source, destination, self.scheduler.now
            )
            message.delivered = verdict.delivered
            retransmits = verdict.retransmits
            extra_delay = verdict.extra_delay
            copies = verdict.copies
        duplicates = max(0, copies - 1)
        self._charge(
            kind, ((source, 1),), ((destination, 1),), size_bytes,
            retransmits, duplicates, not message.delivered,
        )
        recorder = runtime.current.tracer
        if recorder.enabled:
            counts = {"messages": 1, "hops": 1, "bytes": size_bytes}
            if retransmits:
                counts["retransmits"] = retransmits
                counts["bytes"] += size_bytes * retransmits
            recorder.add(**counts)
        flight = runtime.current.flight
        if flight.enabled:
            stamp = flight.record(
                kind.value, source, destination, size_bytes,
                status="sent" if message.delivered else "dropped",
                copies=duplicates, retransmits=retransmits,
                t=self.scheduler.now,
            )
            if stamp is not None:
                message.trace_id, message.parent_op, message.hop_index = stamp
        if deliver is not None and message.delivered:
            for __ in range(copies):
                self.scheduler.schedule_after(
                    self.hop_latency + extra_delay, lambda: deliver(message)
                )
        return message

    def transmit_path(self, kind: MessageKind, source: int, path, size_bytes: int):
        """Forward one message along a routed chain ``source`` → ``path``.

        ``path[i]`` receives frame ``i`` and sends frame ``i + 1`` (a
        backtracking walk may revisit nodes). On a clean fabric with the
        flight recorder off, the chain is checked as :meth:`transmit`
        checks a frame and then is ONE :meth:`_charge` (rows created in
        the per-frame order, no :class:`Message` built); otherwise every
        frame needs its own verdict or edge, so it is a :meth:`transmit`
        loop.
        """
        senders = [source, *path[:-1]]
        if runtime.current.flight.enabled or (
            self.faults is not None and not self.faults.passthrough
        ):
            for sender, hop_id in zip(senders, path):
                self.transmit(sender, hop_id, kind, size_bytes)
            return
        if not path:
            return
        for i, node_id in enumerate((source, *path)):
            if node_id not in self._nodes:
                role = "destination" if i else "source"
                raise ValidationError(f"unknown {role} node {node_id}")
        if size_bytes < 0:
            raise ValidationError(f"size_bytes must be >= 0, got {size_bytes}")
        self._charge(
            kind, [(s, 1) for s in senders], [(r, 1) for r in path], size_bytes
        )
        n = len(path)
        runtime.current.tracer.add(messages=n, hops=n, bytes=size_bytes * n)

    def transmit_bulk(
        self, kind: MessageKind, senders, receivers, size_bytes: int
    ) -> int:
        """Account many equal-sized one-hop frames in one batched pass.

        The scale-harness companion to :meth:`transmit`, and the same
        write: each side is collapsed once to ``(id, count)`` pairs —
        distinct node ids ascending, frames each — and handed to the
        :meth:`_charge` every single frame goes through, so the ledger
        rows read exactly what the per-frame loop would have left, at
        O(distinct nodes) Python cost. Everything is checked before a
        row is touched, endpoints by the rule and wording of
        :meth:`transmit` (one membership test per *distinct* id).
        Restricted to the clean fabric — bulk construction models an
        orchestrated bootstrap, which the fault injector (per-message
        verdicts) cannot meaningfully perturb — and to accounting-only
        mode (no delivery callbacks). Returns the number of frames
        charged.
        """
        if self.faults is not None and not self.faults.passthrough:
            raise ValidationError(
                "bulk transmission is clean-fabric only; use transmit() "
                "under an active fault plan"
            )
        if size_bytes < 0:
            raise ValidationError(f"size_bytes must be >= 0, got {size_bytes}")
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if senders.ndim != 1 or senders.shape != receivers.shape:
            raise ValidationError("senders and receivers must align")
        n_frames = senders.size
        if n_frames == 0:
            return 0
        collapsed = []
        for endpoints, role in ((senders, "source"), (receivers, "destination")):
            ids, counts = np.unique(endpoints, return_counts=True)
            ids = ids.tolist()
            if not all(map(self._nodes.__contains__, ids)):  # C-speed pass
                unknown = next(i for i in ids if i not in self._nodes)
                raise ValidationError(f"unknown {role} node {unknown}")
            collapsed.append(zip(ids, counts.tolist()))
        self._charge(kind, *collapsed, size_bytes)
        recorder = runtime.current.tracer
        if recorder.enabled:
            recorder.add(
                messages=n_frames, hops=n_frames,
                bytes=size_bytes * n_frames,
            )
        return n_frames

    def finish_operation(self, kind: MessageKind, hops: int) -> None:
        """Record a completed logical operation (e.g. one full insertion)."""
        self.metrics.finish_operation(kind, hops)

    def snapshot(self) -> dict:
        """Deterministic fabric-health summary (metrics, energy, events).

        The ``faults`` section appears only when an injector is
        installed, so clean-fabric snapshots stay byte-identical to the
        pre-fault code.
        """
        snapshot = {
            "metrics": self.metrics.snapshot(),
            "energy": self.energy.snapshot(),
            "events_processed": self.scheduler.events_processed,
            "nodes": len(self._nodes),
        }
        if self.faults is not None:
            snapshot["faults"] = self.faults.snapshot()
        return snapshot
