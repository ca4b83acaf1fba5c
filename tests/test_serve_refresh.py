"""Property: a stale look-up refreshed from its prior equals a fresh one.

The serving tier patches a stale look-up instead of rebuilding it
(:func:`repro.serve.batch.refresh`): only the rows stamped since the
prior go through the mask pass, and only rows stamped, new, or whose
distance bits moved go through the Eq. 1 kernel. After every step of a
random ``add`` / ``update_entry`` / ``remove_entry`` / ``bulk_add`` /
forced ``compact`` sequence, a look-up refreshed from the last step's
look-up — and one refreshed from a look-up several steps old — must
hold the same candidate rows, the same peers and the same totals, bit
for bit, as a look-up resolved from scratch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import ClusterRecord
from repro.core.scoring import evaluate_tables
from repro.index import LevelStore
from repro.serve.batch import fresh_candidates, refresh

N_PEERS = 5
OPS = ("add", "bulk", "update", "remove", "compact")


def _record(rng) -> ClusterRecord:
    return ClusterRecord(
        peer_id=int(rng.integers(N_PEERS)), items=int(rng.integers(1, 30)),
        level_name="A",
    )


def _mutate(store: LevelStore, op: str, rng) -> None:
    d = store.dimensionality
    live = store.live_rows()
    if op == "add" or (op in ("update", "remove") and live.size == 0):
        store.add(rng.random(d), float(rng.uniform(0.0, 0.4)), _record(rng))
    elif op == "bulk":
        n = int(rng.integers(1, 6))
        store.bulk_add(
            rng.random((n, d)), rng.uniform(0.0, 0.4, n),
            items=rng.integers(1, 30, n), peer_ids=rng.integers(0, N_PEERS, n),
        )
    elif op == "update":
        entry_id = store.entry_id_of(int(rng.choice(live)))
        row = store.row_of(entry_id)
        field = int(rng.integers(5))
        if field == 0:
            store.update_entry(entry_id, key=rng.random(d))
        elif field == 1:  # a nudge: the row's distance moves by a hair
            store.update_entry(
                entry_id, key=store.key_of(row) + rng.normal(0.0, 1e-9, d)
            )
        elif field == 2:
            store.update_entry(entry_id, radius=float(rng.uniform(0.0, 0.4)))
        elif field == 3:
            store.update_entry(entry_id, value=_record(rng))
        else:  # a no-op patch: no stamp, no generation bump
            store.update_entry(entry_id, radius=store.radius_of(row))
    elif op == "remove":
        store.remove_entry(store.entry_id_of(int(rng.choice(live))))
    else:
        store.compact()


def _resolved(store: LevelStore, queries: list, priors: dict) -> dict:
    """Refresh every query's look-up from ``priors``; score them together."""
    found = refresh(store, dict(enumerate(queries)), priors)
    evaluate_tables([lookup.table() for lookup in found.values()])
    return found


def _assert_same(got, want) -> None:
    np.testing.assert_array_equal(got.candidates.rows, want.candidates.rows)
    got, want = got.table(), want.table()
    np.testing.assert_array_equal(got.peers, want.peers)
    assert (
        got.totals().view(np.int64).tolist()
        == want.totals().view(np.int64).tolist()
    )


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=12),
)
def test_refreshed_lookup_equals_fresh(d, seed, ops):
    rng = np.random.default_rng(seed)
    store = LevelStore(d)
    for __ in range(int(rng.integers(0, 40))):
        _mutate(store, "add", rng)
    queries = [
        (rng.random(d), float(rng.uniform(0.05, 0.5))) for __ in range(3)
    ]
    held = _resolved(store, queries, {})
    older = dict(held)
    for step, op in enumerate(ops):
        _mutate(store, op, rng)
        fresh = _resolved(store, queries, {})
        # Look-up 2 refreshes from a prior up to three steps old, so the
        # stacked mask pass spans rows stamped since the older snapshot.
        held = _resolved(store, queries, {0: held[0], 1: held[1], 2: older[2]})
        for index, (key, radius) in enumerate(queries):
            _assert_same(held[index], fresh[index])
            np.testing.assert_array_equal(
                held[index].candidates.rows,
                fresh_candidates(store, key, radius).candidates.rows,
            )
        if step % 3 == 2:
            older = dict(held)
