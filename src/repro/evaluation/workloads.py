"""Standard workload builders shared by experiments and benchmarks.

The defaults are scaled-down (seconds, not hours) versions of the paper's
configurations; every knob accepts the full paper-scale values:

* §5 dissemination — 100 nodes, 1,000 Markov items each, 512-d;
* §6 effectiveness — 50 nodes, ~200 ALOI histograms each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.datasets.histograms import generate_histograms
from repro.datasets.markov import generate_markov_vectors
from repro.datasets.partition import partition_among_peers
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass
class MarkovWorkload:
    """A built §5-style network plus its raw data."""

    network: HyperMNetwork
    data: np.ndarray
    item_ids: np.ndarray
    parts: list


@dataclass
class HistogramWorkload:
    """A built §6-style network plus its data, labels and ground truth."""

    network: HyperMNetwork
    data: np.ndarray
    labels: np.ndarray
    item_ids: np.ndarray
    ground_truth: CentralizedIndex
    parts: list = field(default_factory=list)
    #: Peers mutated since their last publication (maintained by
    #: :func:`insert_post_hoc`; consumed by republish-enabled experiments).
    dirty_peers: set = field(default_factory=set)


def build_markov_network(
    *,
    n_peers: int = 20,
    items_per_peer: int = 100,
    dimensionality: int = 64,
    config: HyperMConfig | None = None,
    rng=None,
    publish: bool = True,
    overlay_factory=None,
) -> tuple[MarkovWorkload, object]:
    """Build and publish a Markov-data Hyper-M network.

    Returns ``(workload, dissemination_report)``; the report is ``None``
    when ``publish`` is false. ``overlay_factory`` selects the overlay
    backend (default: the run context's ``--overlay`` choice, else CAN).
    """
    generator = ensure_rng(rng)
    data_rng, part_rng, net_rng = spawn_rngs(generator, 3)
    n_items = n_peers * items_per_peer
    data = generate_markov_vectors(n_items, dimensionality, rng=data_rng)
    item_ids = np.arange(n_items, dtype=np.int64)
    parts = partition_among_peers(
        data,
        n_peers,
        clusters_per_peer=(config or HyperMConfig()).n_clusters,
        item_ids=item_ids,
        rng=part_rng,
    )
    network = HyperMNetwork(
        dimensionality, config, rng=net_rng, overlay_factory=overlay_factory
    )
    for peer_data, peer_ids in parts:
        network.add_peer(peer_data, peer_ids)
    report = network.publish_all() if publish else None
    workload = MarkovWorkload(
        network=network, data=data, item_ids=item_ids, parts=parts
    )
    return workload, report


def build_histogram_network(
    *,
    n_peers: int = 20,
    n_objects: int = 120,
    views_per_object: int = 12,
    n_bins: int = 64,
    config: HyperMConfig | None = None,
    rng=None,
    publish: bool = True,
    holdout_fraction: float = 0.0,
    overlay_factory=None,
) -> HistogramWorkload:
    """Build and publish an ALOI-style histogram network.

    ``holdout_fraction`` reserves that fraction of items *outside* the
    network for the Figure 10c staleness experiment (they are inserted
    post-hoc via :func:`insert_post_hoc`); held-out rows are the workload's
    ``parts[-1]`` equivalent, returned on the workload as extra fields.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValidationError(
            f"holdout_fraction must be in [0, 1), got {holdout_fraction}"
        )
    generator = ensure_rng(rng)
    data_rng, part_rng, net_rng, holdout_rng = spawn_rngs(generator, 4)
    dataset = generate_histograms(
        n_objects, views_per_object, n_bins, rng=data_rng
    )
    n_items = dataset.n_items
    item_ids = np.arange(n_items, dtype=np.int64)

    holdout = int(round(holdout_fraction * n_items))
    order = holdout_rng.permutation(n_items)
    held_idx, used_idx = order[:holdout], order[holdout:]

    parts = partition_among_peers(
        dataset.data[used_idx],
        n_peers,
        clusters_per_peer=(config or HyperMConfig()).n_clusters,
        item_ids=item_ids[used_idx],
        rng=part_rng,
    )
    network = HyperMNetwork(
        n_bins, config, rng=net_rng, overlay_factory=overlay_factory
    )
    for peer_data, peer_ids in parts:
        network.add_peer(peer_data, peer_ids)
    if publish:
        network.publish_all()
    workload = HistogramWorkload(
        network=network,
        data=dataset.data,
        labels=dataset.labels,
        item_ids=item_ids,
        ground_truth=CentralizedIndex(
            dataset.data[used_idx], item_ids[used_idx]
        ),
        parts=parts,
    )
    workload.held_out_data = dataset.data[held_idx]
    workload.held_out_ids = item_ids[held_idx]
    return workload


def insert_post_hoc(
    workload: HistogramWorkload, count: int, *, rng=None
) -> int:
    """Distribute ``count`` held-out items to random peers *unpublished*.

    Models documents arriving after overlay creation (Figure 10c). Updates
    the workload's ground truth to include them (queries should find them;
    the published index does not know them) and records the receiving
    peers in ``workload.dirty_peers`` so republish-enabled experiments can
    run a delta round over exactly the mutated peers. Returns how many
    were added.
    """
    generator = ensure_rng(rng)
    available = workload.held_out_data.shape[0]
    count = min(count, available)
    if count == 0:
        return 0
    network = workload.network
    peer_ids = list(network.peers)
    for i in range(count):
        peer = network.peers[int(generator.choice(peer_ids))]
        peer.add_items(
            workload.held_out_data[i : i + 1], workload.held_out_ids[i : i + 1]
        )
        workload.dirty_peers.add(peer.peer_id)
    workload.held_out_data = workload.held_out_data[count:]
    workload.held_out_ids = workload.held_out_ids[count:]
    workload.ground_truth = CentralizedIndex.from_network(network)
    return count


def sample_queries(
    data: np.ndarray, n_queries: int, *, rng=None, jitter: float = 0.0
) -> np.ndarray:
    """Draw query vectors from the dataset (optionally jittered).

    Sampling real items as queries matches the paper's methodology (find
    things similar to something you have).
    """
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    generator = ensure_rng(rng)
    idx = generator.integers(0, data.shape[0], size=n_queries)
    queries = np.array(data[idx], dtype=np.float64)
    if jitter > 0:
        queries = queries + generator.normal(0.0, jitter, size=queries.shape)
        queries = np.clip(queries, 0.0, 1.0)
    return queries
