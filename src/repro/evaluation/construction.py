"""Network construction time via parallel event-driven simulation (§5.2).

The paper measures dissemination in hops, but its headline claim is about
*construction time*: "cut down the overall construction time of an overlay
network such as CAN by an order of magnitude". This module turns the
per-peer hop/byte accounting into wall-clock makespan the way the paper's
own simulator did — "we simulated the parallel behavior of a peer-to-peer
network with a scheduler class and an event queue":

* every peer publishes its own objects sequentially (a radio transmits
  one message at a time);
* across peers, publication is concurrent under **spatial reuse** (peers
  far apart can transmit simultaneously) — the *parallel makespan* is the
  slowest peer's finish time;
* under a **shared channel** (everyone in one collision domain — the
  paper's conference-room scenario) transmissions serialize and the
  makespan is the total airtime.

Both schedules are run through :class:`repro.net.events.SerialScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import NaiveCANPublisher
from repro.core.network import HyperMConfig
from repro.evaluation.workloads import build_markov_network
from repro.net.events import SerialScheduler
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class RadioModel:
    """First-order MANET radio timing.

    Attributes
    ----------
    bandwidth:
        Effective payload bandwidth in bytes/second (default approximates
        a Bluetooth 1.x-class link, the paper's motivating hardware).
    per_hop_latency:
        Fixed per-hop forwarding latency in seconds.
    """

    bandwidth: float = 100_000.0
    per_hop_latency: float = 0.005

    def __post_init__(self) -> None:
        check_positive(self.bandwidth, "bandwidth")
        check_positive(self.per_hop_latency, "per_hop_latency", strict=False)

    def hop_time(self, size_bytes: float) -> float:
        """Seconds one hop of a ``size_bytes`` message occupies the radio."""
        return self.per_hop_latency + size_bytes / self.bandwidth


@dataclass
class ConstructionTimeline:
    """Construction-time outcome for one dissemination method."""

    method: str
    items: int
    total_hops: int
    total_bytes: int
    per_peer_seconds: dict = field(default_factory=dict)
    parallel_makespan: float = 0.0
    shared_channel_makespan: float = 0.0

    @property
    def hops_per_item(self) -> float:
        """Average overlay hops per published item."""
        return self.total_hops / max(self.items, 1)

    @property
    def bytes_per_item(self) -> float:
        """Average bytes moved per published item."""
        return self.total_bytes / max(self.items, 1)


def _simulate_schedules(
    per_peer_costs: dict[int, list[float]]
) -> tuple[dict, float, float]:
    """Run both schedules on the event queue.

    ``per_peer_costs`` maps peer id to the airtime of each of its
    publication operations, in order. Returns (per-peer completion times,
    parallel makespan, shared-channel makespan).
    """
    # Parallel (spatial reuse): each peer chains its own operations.
    scheduler = SerialScheduler()
    completion: dict[int, float] = {}

    def chain(peer_id: int, costs: list[float], index: int) -> None:
        if index >= len(costs):
            completion[peer_id] = scheduler.now
            return
        scheduler.schedule_after(
            costs[index], lambda: chain(peer_id, costs, index + 1)
        )

    for peer_id, costs in per_peer_costs.items():
        chain(peer_id, costs, 0)
    scheduler.run()
    parallel_makespan = max(completion.values(), default=0.0)

    # Shared channel: one collision domain, FIFO over all operations.
    serial = SerialScheduler()
    cursor = {"t": 0.0}
    for costs in per_peer_costs.values():
        for cost in costs:
            cursor["t"] += cost
            serial.schedule_at(cursor["t"], lambda: None)
    serial.run()
    shared_makespan = serial.now

    return completion, parallel_makespan, shared_makespan


def hyperm_construction(
    *,
    n_peers: int = 20,
    items_per_peer: int = 200,
    dimensionality: int = 64,
    config: HyperMConfig | None = None,
    radio: RadioModel | None = None,
    rng=None,
) -> ConstructionTimeline:
    """Build + publish a Hyper-M network; return its construction timeline."""
    radio = radio or RadioModel()
    config = config or HyperMConfig()
    workload, __ = build_markov_network(
        n_peers=n_peers,
        items_per_peer=items_per_peer,
        dimensionality=dimensionality,
        config=config,
        rng=rng,
        publish=False,
    )
    network = workload.network
    per_peer_costs: dict[int, list[float]] = {}
    total_hops = 0
    total_bytes = 0
    items = 0
    for peer_id in network.peers:
        hops_before = network.fabric.metrics.total_hops
        bytes_before = network.fabric.metrics.total_bytes
        report = network.publish_peer(peer_id)
        hops = network.fabric.metrics.total_hops - hops_before
        size = network.fabric.metrics.total_bytes - bytes_before
        # Model each sphere insertion as one operation whose airtime is its
        # share of the peer's hops/bytes.
        ops = max(report.spheres_inserted, 1)
        mean_hop_bytes = size / max(hops, 1)
        op_cost = (hops / ops) * radio.hop_time(mean_hop_bytes)
        per_peer_costs[peer_id] = [op_cost] * ops
        total_hops += hops
        total_bytes += size
        items += report.items_published
    per_peer, parallel, shared = _simulate_schedules(per_peer_costs)
    return ConstructionTimeline(
        method="hyperm",
        items=items,
        total_hops=total_hops,
        total_bytes=total_bytes,
        per_peer_seconds=per_peer,
        parallel_makespan=parallel,
        shared_channel_makespan=shared,
    )


def naive_can_construction(
    *,
    n_peers: int = 20,
    items_per_peer: int = 200,
    dimensionality: int = 64,
    radio: RadioModel | None = None,
    sample_per_peer: int | None = 60,
    rng=None,
) -> ConstructionTimeline:
    """Per-item CAN publication timeline on an equivalent workload.

    ``sample_per_peer`` publishes a per-peer sample to estimate the
    (volume-independent) per-item cost, then extrapolates airtime to the
    full volume — identical statistics, far less simulation time.
    """
    radio = radio or RadioModel()
    generator = ensure_rng(rng)
    data_rng, can_rng = spawn_rngs(generator, 2)
    workload, __ = build_markov_network(
        n_peers=n_peers,
        items_per_peer=items_per_peer,
        dimensionality=dimensionality,
        rng=data_rng,
        publish=False,
    )
    publisher = NaiveCANPublisher(dimensionality, rng=can_rng)
    for peer_id in range(n_peers):
        publisher.add_peer(peer_id)
    per_peer_costs: dict[int, list[float]] = {}
    total_hops = 0.0
    total_bytes = 0.0
    items = 0
    for peer_id, (data, ids) in enumerate(workload.parts):
        full_count = data.shape[0]
        if sample_per_peer is not None and full_count > sample_per_peer:
            data = data[:sample_per_peer]
            ids = ids[:sample_per_peer]
        hops_before = publisher.fabric.metrics.total_hops
        bytes_before = publisher.fabric.metrics.total_bytes
        n, __h = publisher.publish_items(peer_id, data, ids)
        hops = publisher.fabric.metrics.total_hops - hops_before
        size = publisher.fabric.metrics.total_bytes - bytes_before
        scale = full_count / max(n, 1)
        mean_hop_bytes = size / max(hops, 1)
        per_item_cost = (hops / max(n, 1)) * radio.hop_time(mean_hop_bytes)
        per_peer_costs[peer_id] = [per_item_cost] * full_count
        total_hops += hops * scale
        total_bytes += size * scale
        items += full_count
    per_peer, parallel, shared = _simulate_schedules(per_peer_costs)
    return ConstructionTimeline(
        method="can",
        items=items,
        total_hops=int(round(total_hops)),
        total_bytes=int(round(total_bytes)),
        per_peer_seconds=per_peer,
        parallel_makespan=parallel,
        shared_channel_makespan=shared,
    )


@dataclass(frozen=True)
class ConstructionComparison:
    """Hyper-M vs per-item CAN construction-time summary."""

    hyperm: ConstructionTimeline
    can: ConstructionTimeline

    @property
    def parallel_speedup(self) -> float:
        """CAN / Hyper-M makespan under spatial reuse."""
        return self.can.parallel_makespan / max(
            self.hyperm.parallel_makespan, 1e-12
        )

    @property
    def shared_channel_speedup(self) -> float:
        """CAN / Hyper-M makespan on one shared channel."""
        return self.can.shared_channel_makespan / max(
            self.hyperm.shared_channel_makespan, 1e-12
        )


def run_construction_comparison(
    *,
    n_peers: int = 20,
    items_per_peer: int = 300,
    dimensionality: int = 64,
    config: HyperMConfig | None = None,
    radio: RadioModel | None = None,
    rng=None,
) -> ConstructionComparison:
    """Measure both methods' construction time on equivalent workloads."""
    generator = ensure_rng(rng)
    hm_rng, can_rng = spawn_rngs(generator, 2)
    hyperm = hyperm_construction(
        n_peers=n_peers,
        items_per_peer=items_per_peer,
        dimensionality=dimensionality,
        config=config,
        radio=radio,
        rng=hm_rng,
    )
    can = naive_can_construction(
        n_peers=n_peers,
        items_per_peer=items_per_peer,
        dimensionality=dimensionality,
        radio=radio,
        rng=can_rng,
    )
    return ConstructionComparison(hyperm=hyperm, can=can)
