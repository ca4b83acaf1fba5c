"""Music sharing on a commuter train — a short-lived, churn-prone MANET.

Passengers board a long-distance train and share music libraries (audio
feature vectors) for the ride. This example exercises the aspects of
Hyper-M the other examples don't:

* late boarders: items added *after* the overlay is built are never
  republished, so the index goes stale (paper Figure 10c);
* overlay independence: the same session runs over the CAN overlay and
  over the BATON tree;
* per-device energy: the dissemination phase's radio budget.

Run:  python examples/commuter_music_swap.py
"""

import numpy as np

from repro.core import CentralizedIndex, HyperMConfig, HyperMNetwork
from repro.datasets import generate_audio_features, partition_among_peers
from repro.evaluation.metrics import precision_recall
from repro.overlay import BatonNetwork, CANNetwork
from repro.utils.tables import format_table

N_PASSENGERS = 20
TRACKS_EACH = 250
DIMS = 64

master_rng = np.random.default_rng(99)
# Tonal-feature vectors with genre structure: passengers' taste overlaps
# by genre, exactly the "limited set of interests" the paper models.
audio = generate_audio_features(
    40, N_PASSENGERS * TRACKS_EACH // 40, DIMS, rng=master_rng
)
library = audio.data
collections = partition_among_peers(library, N_PASSENGERS, rng=master_rng)

results = []
for overlay_name, factory in (("CAN", CANNetwork), ("BATON", BatonNetwork)):
    network = HyperMNetwork(
        DIMS, HyperMConfig(levels_used=4, n_clusters=10),
        rng=np.random.default_rng(1), overlay_factory=factory,
    )
    for tracks, ids in collections:
        network.add_peer(tracks, ids)
    report = network.publish_all()
    results.append([
        overlay_name,
        report.hops_per_item,
        report.bytes_sent / report.items_published,
        report.energy / 1e6,
    ])

print(format_table(
    ["overlay", "hops/track", "bytes/track", "energy (Mu)"],
    results,
    title="Publishing the same libraries over two different overlays "
    "(Hyper-M is overlay-independent)",
))

# --- continue the session on the CAN overlay ---------------------------------
network = HyperMNetwork(
    DIMS, HyperMConfig(levels_used=4, n_clusters=10),
    rng=np.random.default_rng(1),
)
for tracks, ids in collections:
    network.add_peer(tracks, ids)
network.publish_all()

seed_track = network.peers[0].data[10]
truth = CentralizedIndex.from_network(network)
# Calibrate the tonal radius to "about the 30 most similar tracks".
EPSILON = max(i.distance for i in truth.knn_items(seed_track, 30))
before = network.range_query(seed_track, EPSILON, max_peers=8)
pr_before = precision_recall(
    before.item_ids, truth.range_search(seed_track, EPSILON)
)

# Late boarders join at the next station with fresh libraries; their
# tracks are stored but never published (the ride is short).
print("\nNext station: late boarders add 30% more tracks, unpublished…")
late_rng = np.random.default_rng(2)
# Late boarders share the same tastes: their tracks are near-duplicates
# of tracks already on the train (same genres, different recordings).
n_new = int(0.3 * N_PASSENGERS * TRACKS_EACH)
base_idx = late_rng.integers(0, library.shape[0], size=n_new)
new_tracks = np.clip(
    library[base_idx] + late_rng.normal(0.0, 0.01, (n_new, DIMS)), 0.0, 1.0
)
next_id = N_PASSENGERS * TRACKS_EACH
for i, track in enumerate(new_tracks):
    passenger = network.peers[int(late_rng.integers(N_PASSENGERS))]
    passenger.add_items(track[None, :], np.array([next_id + i]))

after = network.range_query(seed_track, EPSILON, max_peers=8)
truth = CentralizedIndex.from_network(network)
pr_after = precision_recall(
    after.item_ids, truth.range_search(seed_track, EPSILON)
)
print(format_table(
    ["phase", "recall@8 peers", "precision"],
    [
        ["all published", pr_before.recall, pr_before.precision],
        ["after +30% unpublished", pr_after.recall, pr_after.precision],
    ],
    title="Stale summaries degrade recall gracefully (paper Figure 10c)",
))

drained = sorted(network.fabric.energy.per_node.values(), reverse=True)
print(f"\nenergy: total {sum(drained) / 1e6:.2f} Mu across "
      f"{len(drained)} radios; top device used "
      f"{drained[0] / sum(drained):.1%} — no hotspot, thanks to the "
      "wavelet subspaces' natural load spreading (paper Figure 9)")
