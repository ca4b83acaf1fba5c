"""The network fabric: a synchronous frame ledger.

Overlays send every overlay-hop through :meth:`Network.transmit`, which
writes the frame once (per kind, and at each endpoint's column slot —
:mod:`repro.net.metrics`) and returns whether it arrived;
:meth:`Network.transmit_path` checks a routed chain whole before writing
it, :meth:`Network.transmit_bulk` writes a batch in array passes, and the
``fabric.*`` views only read. Overlay routing runs synchronously; the
fabric's clock (:mod:`repro.net.events`) moves only when retry backoff
waits, so partition windows can heal under a retried send.
"""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.exceptions import ValidationError
from repro.faults.injector import FaultInjector
from repro.net import metrics as rows  # rows of the load ledger's columns
from repro.net.energy import EnergyLedger, EnergyModel
from repro.net.events import SerialScheduler
from repro.net.messages import MessageKind
from repro.net.metrics import LoadLedger, NetworkMetrics


class Network:
    """A simulated MANET fabric connecting overlay nodes.

    Parameters
    ----------
    energy_model:
        Radio cost model; defaults to the Bluetooth-class constants.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan`; when given (or
        when the run context carries one, ``runtime.current.fault_plan``), a
        fresh :class:`repro.faults.injector.FaultInjector` is installed
        and every :meth:`transmit` passes through it.
    scheduler:
        The fabric clock; defaults to a fresh
        :class:`~repro.net.events.SerialScheduler`.
    """

    def __init__(
        self,
        *,
        energy_model: EnergyModel | None = None,
        fault_plan=None,
        scheduler=None,
    ):
        self.scheduler = scheduler if scheduler is not None else SerialScheduler()
        self.metrics = NetworkMetrics()
        self.load = LoadLedger()
        self.energy = EnergyLedger(
            energy_model or EnergyModel(), self.metrics, self.load
        )
        self._slot_of = self.load._slot  # the per-frame write's id -> slot
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

    def register(self, node_id: int) -> None:
        """Attach node ``node_id`` to the fabric."""
        slot = self.load._slot_for(node_id, create=True)
        if self.load._views[rows.REGISTERED][slot]:
            raise ValidationError(f"node id {node_id} already registered")
        self.load._views[rows.REGISTERED][slot] = 1

    def register_many(self, node_ids) -> None:
        """Attach every id in ``node_ids`` at once, or none of them.

        The batch is refused whole, before any id is added, when it names
        an id twice or one already registered (the lowest such id is
        reported, in :meth:`register`'s wording).
        """
        ids = np.sort(np.asarray(node_ids, dtype=np.int64))
        if (ids[1:] == ids[:-1]).any():
            raise ValidationError("node ids must be distinct")
        slots, found = self.load._lookup(ids)
        taken = ids[found][self.load._cols[rows.REGISTERED, slots[found]] == 1]
        if taken.size:
            raise ValidationError(f"node id {taken[0]} already registered")
        slots[~found] = self.load._new_slots(ids[~found])
        self.load._cols[rows.REGISTERED, slots] = 1

    def require_registered(self, node_ids, role: str) -> np.ndarray:
        """Refuse unless every id in ``node_ids`` is registered.

        The message names the first unknown id as :meth:`transmit` does
        (``unknown <role> node <id>``); one sorted-index search covers
        the whole list. Returns the ids' ledger slots.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        slots, found = self.load._lookup(ids)
        found[found] = self.load._cols[rows.REGISTERED, slots[found]] == 1
        if not found.all():
            raise ValidationError(f"unknown {role} node {ids[~found][0]}")
        return slots

    def _admit(self, node_ids, size_bytes: int) -> list[int]:
        """Ledger slots of a chain ``node_ids[0]`` → ``node_ids[1:]``, all
        checked as :meth:`transmit` checks a frame before any is touched."""
        load = self.load
        slots = [load._slot_for(node_id) for node_id in node_ids]
        for i, slot in enumerate(slots):
            if slot is None or not load._views[rows.REGISTERED][slot]:
                role = "destination" if i else "source"
                raise ValidationError(f"unknown {role} node {node_ids[i]}")
        if size_bytes < 0:
            raise ValidationError(f"size_bytes must be >= 0, got {size_bytes}")
        for node_id, slot in zip(node_ids, slots):
            load._touch(slot)
            load._slot[node_id] = slot
        return slots

    # -- transmission -------------------------------------------------------

    def _charge(
        self, kind, sent, received, size_bytes,
        retransmits=0, duplicates=0, dropped=False,
    ) -> None:
        """The per-frame write of the frame ledger.

        One primary frame from ledger slot ``sent`` to slot ``received``
        with its fault verdict. Per-kind totals count the primary frame
        only (Figure 8's cost), fault overhead goes in its own buckets.
        The load view counts every frame on the air, duplicates included,
        and gives a dropped frame's receiver no ``msgs_in``; the radio
        bills primaries and retransmits on both endpoints whether or not
        the frame arrived, so a faulty frame also books that difference
        (see :class:`~repro.net.metrics.NodeLoad`).
        """
        msgs_in, msgs_out, bytes_in, bytes_out = self.load._io
        on_air = 1 + retransmits + duplicates
        frame_bytes = on_air * size_bytes
        msgs_out[sent] += on_air
        bytes_out[sent] += frame_bytes
        if not dropped:
            msgs_in[received] += on_air
            bytes_in[received] += frame_bytes
        bucket = self.metrics.by_kind[kind]
        bucket.messages += 1
        bucket.hops += 1
        bucket.bytes += size_bytes
        if on_air > 1 or dropped:
            bucket.retransmits += retransmits
            bucket.retransmit_bytes += retransmits * size_bytes
            bucket.duplicates += duplicates
            views = self.load._views
            for slot, msgs_adjust, bytes_adjust, frames in (
                (sent, rows.TX_MSGS_ADJUST, rows.TX_BYTES_ADJUST, -duplicates),
                (received, rows.RX_MSGS_ADJUST, rows.RX_BYTES_ADJUST,
                 1 + retransmits - (0 if dropped else on_air)),
            ):
                views[rows.RETRANSMITS][slot] += retransmits
                views[rows.DUPLICATES][slot] += duplicates
                views[rows.DROPS][slot] += dropped
                views[msgs_adjust][slot] += frames
                views[bytes_adjust][slot] += frames * size_bytes

    def transmit(
        self, source: int, destination: int, kind: MessageKind, size_bytes: int
    ) -> bool:
        """Send one overlay hop from ``source`` to ``destination``.

        Writes the frame to the ledger and returns whether it arrived.
        When a fault injector is installed every frame passes through
        it: a query-plane frame may come back ``False`` (the caller
        retries or degrades — see :mod:`repro.faults`), overlay traffic
        is charged for link-layer retransmissions under loss, and any
        frame may be duplicated. Without an injector this path is
        exactly the clean-fabric code.
        """
        sent = self._slot_of.get(source, -1)
        received = self._slot_of.get(destination, -1)
        if sent < 0 or received < 0 or size_bytes < 0:
            sent, received = self._admit((source, destination), size_bytes)
        delivered = True
        retransmits = duplicates = 0
        if self.faults is not None:
            verdict = self.faults.on_transmit(
                kind, source, destination, self.scheduler.now
            )
            delivered = verdict.delivered
            retransmits = verdict.retransmits
            duplicates = verdict.copies - 1
        self._charge(
            kind, sent, received, size_bytes,
            retransmits, duplicates, not delivered,
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
            flight.record(
                kind.value, source, destination, size_bytes,
                status="sent" if delivered else "dropped",
                copies=duplicates, retransmits=retransmits,
                t=self.scheduler.now,
            )
        return delivered

    def transmit_path(self, kind: MessageKind, source: int, path, size_bytes: int):
        """Forward one message along a routed chain ``source`` → ``path``.

        ``path[i]`` receives frame ``i`` and sends frame ``i + 1`` (a
        backtracking walk may revisit nodes). The whole chain is checked
        as :meth:`transmit` checks a frame before any frame is charged.
        On a clean fabric with the flight recorder off its frames are then
        written in one loop (nodes touched in the per-frame order);
        otherwise every frame needs its own verdict or edge, so it is a
        :meth:`transmit` loop.
        """
        if not path:
            return
        chain = (source, *path)
        slots = [self._slot_of.get(node_id, -1) for node_id in chain]
        if min(slots) < 0 or size_bytes < 0:
            slots = self._admit(chain, size_bytes)
        if runtime.current.flight.enabled or (
            self.faults is not None and not self.faults.passthrough
        ):
            for sender, hop_id in zip(chain, path):
                self.transmit(sender, hop_id, kind, size_bytes)
            return
        # _charge's clean-frame write, inlined: a routed chain is ~10
        # frames, and one call per frame cost it ~25 %.
        msgs_in, msgs_out, bytes_in, bytes_out = self.load._io
        for sent, received in zip(slots, slots[1:]):
            msgs_out[sent] += 1
            bytes_out[sent] += size_bytes
            msgs_in[received] += 1
            bytes_in[received] += size_bytes
        n = len(path)
        bucket = self.metrics.by_kind[kind]
        bucket.messages += n
        bucket.hops += n
        bucket.bytes += n * size_bytes
        runtime.current.tracer.add(messages=n, hops=n, bytes=size_bytes * n)

    def transmit_bulk(
        self, kind: MessageKind, senders, receivers, size_bytes: int
    ) -> int:
        """Account many equal-sized one-hop frames in one batched pass.

        The scale-harness companion to :meth:`transmit`, leaving what the
        per-frame loop would in array passes: each side is collapsed to
        its distinct ids (ascending) and frame counts, checked registered
        and mapped to ledger slots by one sorted-index search (the rule
        and wording of :meth:`transmit`), and added with one fancy-index
        add per column, senders first. All is checked before any write.
        Restricted to the clean fabric — bulk construction models an
        orchestrated bootstrap, which the fault injector (per-message
        verdicts) cannot meaningfully perturb. With the flight recorder
        on, every frame needs its own edge, so after the same checks it
        is a :meth:`transmit` loop (as in :meth:`transmit_path`). Returns
        the number of frames charged.
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
        sides = []
        for endpoints, role in ((senders, "source"), (receivers, "destination")):
            ids, frames = np.unique(endpoints, return_counts=True)
            sides.append((self.require_registered(ids, role), frames))
        if runtime.current.flight.enabled:
            for source, destination in zip(senders.tolist(), receivers.tolist()):
                self.transmit(source, destination, kind, size_bytes)
            return n_frames
        cols = self.load._cols
        for (slots, frames), msgs, nbytes in zip(
            sides, (rows.MSGS_OUT, rows.MSGS_IN), (rows.BYTES_OUT, rows.BYTES_IN)
        ):
            self.load._touch_many(slots)  # senders first, as the loop would
            cols[msgs, slots] += frames
            cols[nbytes, slots] += frames * size_bytes
        bucket = self.metrics.by_kind[kind]
        bucket.messages += n_frames
        bucket.hops += n_frames
        bucket.bytes += n_frames * size_bytes
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
        """Deterministic fabric-health summary (metrics, energy, nodes).

        The ``faults`` section appears only when an injector is
        installed, so clean-fabric snapshots stay byte-identical to the
        pre-fault code.
        """
        snapshot = {
            "metrics": self.metrics.snapshot(),
            "energy": self.energy.snapshot(),
            "nodes": int(self.load._cols[rows.REGISTERED].sum()),
        }
        if self.faults is not None:
            snapshot["faults"] = self.faults.snapshot()
        return snapshot
