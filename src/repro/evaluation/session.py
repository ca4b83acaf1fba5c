"""End-to-end MANET session simulation on the event queue.

The paper's scenario is a *session*: people come together for one to a few
hours, devices join, publish, query, and leave. The per-figure experiments
measure each mechanism in isolation; this module simulates the whole
lifetime on the discrete-event scheduler — Poisson query traffic, random
departures and (re)arrivals — and records how retrieval quality and
traffic evolve over virtual time.

The simulator drives the same :class:`~repro.core.network.HyperMNetwork`
the experiments use; events only decide *when* things happen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.datasets.histograms import generate_histograms
from repro.datasets.partition import partition_among_peers
from repro.evaluation.metrics import precision_recall
from repro.exceptions import ValidationError
from repro.net.events import SerialScheduler
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one simulated session.

    Attributes
    ----------
    duration:
        Virtual session length (seconds).
    n_peers:
        Devices present at session start.
    query_rate:
        Network-wide queries per virtual second (Poisson).
    departure_rate / arrival_rate:
        Peer departures and (re)arrivals per virtual second (Poisson).
        Departed peers may return later with their items and republish.
    query_radius:
        Range-query radius used by the synthetic query traffic.
    max_peers_contacted:
        Contact budget per query.
    sample_every:
        Interval between recall/traffic timeline samples.
    """

    duration: float = 600.0
    n_peers: int = 16
    query_rate: float = 0.2
    departure_rate: float = 0.01
    arrival_rate: float = 0.01
    query_radius: float = 0.12
    max_peers_contacted: int = 6
    sample_every: float = 60.0

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.n_peers < 2:
            raise ValidationError(
                "duration must be > 0 and n_peers >= 2"
            )
        for name in ("query_rate", "departure_rate", "arrival_rate"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass
class SessionSample:
    """One timeline sample."""

    time: float
    online_peers: int
    queries_so_far: int
    mean_recall: float
    total_hops: int
    total_energy: float


@dataclass
class SessionOutcome:
    """Everything a simulated session produced."""

    samples: list = field(default_factory=list)
    queries_run: int = 0
    recalls: list = field(default_factory=list)
    departures: int = 0
    arrivals: int = 0

    @property
    def mean_recall(self) -> float:
        """Recall averaged over every query in the session."""
        return float(np.mean(self.recalls)) if self.recalls else 0.0


class SessionSimulator:
    """Drives a Hyper-M network through a whole session lifetime."""

    def __init__(
        self,
        config: SessionConfig | None = None,
        *,
        hyperm: HyperMConfig | None = None,
        rng=None,
    ):
        self.config = config or SessionConfig()
        self._hyperm_config = hyperm or HyperMConfig(
            levels_used=4, n_clusters=6
        )
        root = ensure_rng(rng)
        (self._data_rng, self._part_rng, self._net_rng,
         self._event_rng) = spawn_rngs(root, 4)
        self.scheduler = SerialScheduler()
        self.outcome = SessionOutcome()
        self.network: HyperMNetwork | None = None
        self._offline: list[int] = []

    # -- setup -----------------------------------------------------------------

    def _build_network(self) -> None:
        count = self.config.n_peers
        dataset = generate_histograms(
            max(20, 4 * count), 10, 32, rng=self._data_rng
        )
        parts = partition_among_peers(
            dataset.data,
            count,
            clusters_per_peer=self._hyperm_config.n_clusters,
            item_ids=np.arange(dataset.n_items),
            rng=self._part_rng,
        )
        self.network = HyperMNetwork(
            32, self._hyperm_config, rng=self._net_rng
        )
        for data, ids in parts:
            self.network.add_peer(data, ids)
        self.network.publish_all()

    # -- event actions ------------------------------------------------------------

    def _exponential(self, rate: float) -> float:
        if rate <= 0:
            return float("inf")
        return float(self._event_rng.exponential(1.0 / rate))

    def _schedule(self, delay: float, action) -> None:
        if (
            delay != float("inf")
            and self.scheduler.now + delay <= self.config.duration
        ):
            self.scheduler.schedule_after(delay, action)

    def _online_peers(self) -> list[int]:
        return [
            pid for pid, peer in self.network.peers.items() if peer.online
        ]

    def _run_query(self) -> None:
        online = self._online_peers()
        if len(online) >= 2:
            origin = int(self._event_rng.choice(online))
            holder = self.network.peers[
                int(self._event_rng.choice(online))
            ]
            query = holder.data[
                int(self._event_rng.integers(holder.n_items))
            ]
            truth = CentralizedIndex.from_network_online_only(
                self.network
            ).range_search(query, self.config.query_radius)
            result = self.network.range_query(
                query,
                self.config.query_radius,
                origin_peer=origin,
                max_peers=self.config.max_peers_contacted,
            )
            if truth:
                recall = precision_recall(result.item_ids, truth).recall
                self.outcome.recalls.append(recall)
            self.outcome.queries_run += 1
        self._schedule(
            self._exponential(self.config.query_rate), self._run_query
        )

    def _run_departure(self) -> None:
        online = self._online_peers()
        if len(online) > 2:
            victim = int(self._event_rng.choice(online))
            self.network.depart(victim)
            self._offline.append(victim)
            self.outcome.departures += 1
        self._schedule(
            self._exponential(self.config.departure_rate),
            self._run_departure,
        )

    def _run_arrival(self) -> None:
        if self._offline:
            peer_id = self._offline.pop(0)
            peer = self.network.peers[peer_id]
            peer.online = True
            for level in self.network.levels:
                overlay = self.network.overlays[level]
                node_id = self.network.overlay_node(level, peer_id)
                if node_id not in overlay.node_ids:
                    # Rejoin costs a fresh overlay position; remap it.
                    self.network.place_node(level, peer_id, overlay.join())
            self.network.republish_peer(peer_id)
            self.outcome.arrivals += 1
        self._schedule(
            self._exponential(self.config.arrival_rate), self._run_arrival
        )

    def _take_sample(self) -> None:
        fabric = self.network.fabric
        self.outcome.samples.append(
            SessionSample(
                time=self.scheduler.now,
                online_peers=len(self._online_peers()),
                queries_so_far=self.outcome.queries_run,
                mean_recall=self.outcome.mean_recall,
                total_hops=fabric.metrics.total_hops,
                total_energy=fabric.energy.total,
            )
        )
        self._schedule(self.config.sample_every, self._take_sample)

    # -- entry point -----------------------------------------------------------

    def run(self) -> SessionOutcome:
        """Simulate the whole session; returns its outcome."""
        self._build_network()
        self._schedule(
            self._exponential(self.config.query_rate), self._run_query
        )
        self._schedule(
            self._exponential(self.config.departure_rate),
            self._run_departure,
        )
        self._schedule(
            self._exponential(self.config.arrival_rate), self._run_arrival
        )
        self._schedule(self.config.sample_every, self._take_sample)
        self.scheduler.run()
        self._take_sample_final()
        return self.outcome

    def _take_sample_final(self) -> None:
        if (
            not self.outcome.samples
            or self.outcome.samples[-1].time < self.scheduler.now
        ):
            self._take_sample()
