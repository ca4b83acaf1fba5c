"""Span wrappers on the layer entry points of ``src/repro``.

The benchmark may not edit ``src/``, so the traced run records its
per-layer spans from here: :class:`Probe` swaps each entry point listed
in :data:`BOUNDARIES` for a wrapper that opens a span on the probe's own
:class:`repro.obs.trace.TraceRecorder` (never the process-wide one, so
the program's in-source spans stay off and cannot double-count). Self
time per span name then comes from :func:`repro.obs.profile.phase_rows`.

A module function is patched in every ``repro.*`` module whose globals
hold it, which covers the ``from x import f`` re-imports
(``core.queries.level_scores`` and friends) without listing them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.obs.profile import phase_rows
from repro.obs.trace import NULL_RECORDER, TraceRecorder


def _count_insert(counts, receipt):
    counts["insert_routing_hops"] += receipt.routing_hops
    counts["insert_replica_hops"] += receipt.replicas


def _count_range(counts, receipt):
    counts["range_routing_hops"] += receipt.routing_hops
    counts["range_flood_hops"] += receipt.flood_hops


def _count_mask(counts, mask):
    counts["rows_scanned"] += mask.size
    counts["rows_surviving"] += int(np.count_nonzero(mask))


#: ``(module, owner class or None, attribute, span name, count hook)``.
#: Span names are the per-layer metric stems: span ``overlay.insert``
#: feeds ``overlay.insert_self_s``.
BOUNDARIES = [
    ("repro.wavelets.multiresolution", None, "decompose_dataset", "wavelets.dwt", None),
    ("repro.wavelets.multiresolution", None, "decompose", "wavelets.translate", None),
    ("repro.wavelets.bounds", None, "to_unit_cube", "wavelets.translate", None),
    ("repro.clustering.kmeans", None, "kmeans", "clustering.kmeans", None),
    ("repro.core.peer", "HyperMPeer", "build_delta", "clustering.delta_build", None),
    ("repro.overlay.can.network", "CANNetwork", "join", "overlay.join", None),
    ("repro.overlay.can.network", "CANNetwork", "insert", "overlay.insert", _count_insert),
    ("repro.overlay.can.network", "CANNetwork", "range_query", "overlay.range_query", _count_range),
    ("repro.overlay.maintenance", "StoreMaintenancePlane", "patch_entries", "overlay.patch", None),
    ("repro.overlay.maintenance", "StoreMaintenancePlane", "retract_entries", "overlay.patch", None),
    ("repro.index.store", "LevelStore", "intersection_mask", "index.mask", _count_mask),
    ("repro.index.store", "LevelStore", "intersection_masks", "index.mask", _count_mask),
    ("repro.index.store", "LevelStore", "column_block", "index.gather", None),
    ("repro.index.store", "CandidateSet", "columns", "index.gather", None),
    ("repro.index.store", "LevelStore", "add", "index.update", None),
    ("repro.index.store", "LevelStore", "bulk_add", "index.update", None),
    ("repro.index.store", "LevelStore", "update_entry", "index.update", None),
    ("repro.index.store", "LevelStore", "remove_entry", "index.update", None),
    ("repro.index.store", "LevelStore", "maybe_compact", "index.update", None),
    ("repro.core.scoring", None, "level_scores", "core.level_scores", None),
    ("repro.core.scoring", None, "aggregate_scores", "core.aggregate", None),
    ("repro.core.queries", None, "index_phase", "core.index_phase", None),
    ("repro.core.queries", None, "retrieval_phase", "core.retrieval", None),
    ("repro.core.queries", None, "range_query", "core.range_query", None),
    ("repro.core.knn", None, "knn_query", "core.knn", None),
    ("repro.core.peer", "HyperMPeer", "range_search", "core.peer_search", None),
    ("repro.core.peer", "HyperMPeer", "nearest_items", "core.peer_search", None),
    ("repro.core.network", "HyperMNetwork", "publish_peer", "core.publish", None),
    ("repro.core.network", "HyperMNetwork", "publish_delta", "core.publish", None),
    ("repro.geometry.batch", None, "intersection_fraction_batch", "geometry.intersection", None),
    ("repro.geometry.epsilon", None, "estimate_epsilon_for_k", "geometry.epsilon", None),
    ("repro.geometry.epsilon", None, "expected_items", "geometry.epsilon", None),
    ("repro.net.network", "Network", "transmit", "net.transmit", None),
    ("repro.net.network", "Network", "transmit_bulk", "net.transmit", None),
    ("repro.serve.engine", "ServeEngine", "execute_batch", "serve.execute_batch", None),
    ("repro.engine.serial", "SerialEngine", "score_levels", "engine.score_levels", None),
    ("repro.engine.sharded", "ShardedEngine", "score_levels", "engine.score_levels", None),
]

#: Span the harness opens around each of its own timed calls; its self
#: time is what no layer accounts for.
ROOT_SPAN = "harness.op"


def _holders(module_name: str, owner, attr: str) -> list:
    """``(dotted name, namespace)`` of everything holding one boundary."""
    module = importlib.import_module(module_name)
    if owner is not None:
        return [(f"{module_name}.{owner}", getattr(module, owner))]
    original = getattr(module, attr)
    return [
        (name, mod) for name, mod in sorted(sys.modules.items())
        if name.partition(".")[0] == "repro" and vars(mod).get(attr) is original
    ]


class Probe:
    """The benchmark's recorder plus the wrappers that feed it.

    Untraced, ``span()`` hands back the shared no-op span and no
    wrapper is installed, so the end-to-end run executes the program
    exactly as shipped.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.rec = NULL_RECORDER
        self.counts: Counter = Counter()
        self._undo: list = []

    def span(self, name: str):
        return self.rec.span(name)

    @contextmanager
    def tracing(self, rec: TraceRecorder):
        """Install the wrappers and record into ``rec`` for the block."""
        if not self.traced:
            yield
            return
        self.rec = rec
        self._install()
        try:
            yield
        finally:
            for holder, attr, original in reversed(self._undo):
                setattr(holder, attr, original)
            self._undo.clear()
            self.rec = NULL_RECORDER

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.rec.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, out)
            return out

        return wrapper

    def _install(self) -> None:
        for module_name, owner, attr, name, count in BOUNDARIES:
            holders = _holders(module_name, owner, attr)
            original = vars(holders[0][1])[attr]
            wrapper = self._wrap(original, name, count)
            for __, holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)


def self_seconds(rec: TraceRecorder) -> dict:
    """``{span name: {"self_s", "total_s", "calls"}}`` for one recorder."""
    return {row["phase"]: row for row in phase_rows(rec.spans)}


@contextmanager
def quiet_gc():
    """Collect now, then keep the cyclic collector out of a timed section."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Run:
    """What one workload run accumulates: samples, counts, failures."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.setup_rec = TraceRecorder()
        self.rec = TraceRecorder()
        #: Wall seconds per kind of timed op (publish, query, knn, close).
        self.samples: dict = defaultdict(list)
        self.counts: Counter = Counter()
        #: ``{rate: report}`` of the open-loop runs.
        self.open_loop: dict = {}
        self.attempted = 0
        self.failed = 0

    def timed(self, kind: str, fn, *args, span: str = ROOT_SPAN, **kwargs):
        """Call ``fn`` as one attempted op under a span; keep its wall."""
        self.attempted += 1
        try:
            with self.probe.span(span):
                start = perf_counter()
                out = fn(*args, **kwargs)
                wall = perf_counter() - start
        except Exception:
            self._fail(traceback.format_exc())
            return None
        self.samples[kind].append(wall)
        return out

    def check(self, ok: bool, message: str) -> None:
        """One oracle comparison; a mismatch is a failed op."""
        self.attempted += 1
        if not ok:
            self._fail(message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED: {message}", file=sys.stderr)
