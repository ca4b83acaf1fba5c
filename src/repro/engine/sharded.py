"""The sharded engine: level shards on worker processes over shared memory.

Topology: ``workers`` long-lived processes (``fork`` start method), one
duplex pipe each. Level stores are migrated into
``multiprocessing.shared_memory`` blocks
(:meth:`repro.index.LevelStore.share_columns`), so workers read the
key/radius/items/peer columns zero-copy; only task descriptors and
result arrays cross the pipes.

Barrier protocol (one *epoch* per exchange):

1. the parent batches every task into per-worker outboxes by level
   (``shard_key % workers``);
2. one pipe send per non-empty outbox (the per-tick batched cross-shard
   message exchange — never one send per task);
3. the parent blocks until every solicited worker replies (the epoch
   barrier), reassembles results in task order, and bumps
   :attr:`ShardedEngine.epoch`. A failed reply is raised only after
   every solicited reply is read, so no pipe carries an old answer.

Staleness is governed by the store's existing generation counter exactly
as for the serve caches: every task carries the generation observed at
enqueue, workers echo it, and the parent rejects any reply whose
generation no longer matches the store. Reallocation (column growth) is
tracked separately by ``shm_epoch``; the parent resends a shard's
manifest to a worker only when its attachment is stale.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing as mp
from collections.abc import Mapping

import numpy as np

from repro.core.scoring import LevelScoreTable, level_scores
from repro.engine.base import Engine, EngineConfig
from repro.exceptions import StaleCandidateError, ValidationError
from repro.net.events import SerialScheduler


def _attach_columns(manifest: dict):
    """Worker side: map a shard's shm blocks into numpy column views."""
    from multiprocessing import shared_memory

    blocks = {}
    columns = {}
    for name, (shm_name, shape, dtype) in manifest["columns"].items():
        block = shared_memory.SharedMemory(name=shm_name)
        blocks[name] = block
        columns[name] = np.ndarray(shape, dtype=np.dtype(dtype),
                                   buffer=block.buf)
    # directory: the CellDirectory over the columns, of one generation.
    return {"epoch": manifest["epoch"], "blocks": blocks,
            "columns": columns, "generation": None, "directory": None}


def _mute_shm_tracking() -> None:
    """Stop this process's resource tracker registering shm attaches.

    Workers only ever *attach* to segments the parent owns and unlinks,
    but ``SharedMemory(name=...)`` on Python <= 3.12 registers the
    segment with the (fork-shared) resource tracker anyway. The
    tracker's cache is a per-type set, so a worker registration is
    indistinguishable from the parent's — letting it stand causes
    double-unlink warnings at shutdown, and unregistering would steal
    the parent's entry. Muting registration in the worker (which never
    creates segments) keeps the tracker exactly in the parent's view.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):  # pragma: no cover - exercised in workers
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register


def _detach(attachment: dict) -> None:
    attachment["directory"] = None
    attachment["columns"].clear()
    for block in attachment["blocks"].values():
        try:
            block.close()
        except BufferError:  # pragma: no cover - late view still alive
            pass
    attachment["blocks"].clear()


def _run_task(attached: dict, task: tuple):
    """Worker side: one mask or scan+score task over a level's rows."""
    from repro.index.store import _DIRECTORY_COLUMNS, CellDirectory

    mode, shard_key, manifest, size, generation, center, radius = task
    if manifest is not None:
        old = attached.pop(shard_key, None)
        if old is not None:
            _detach(old)
        attached[shard_key] = _attach_columns(manifest)
    attachment = attached[shard_key]
    columns = attachment["columns"]
    if attachment["generation"] != generation:
        attachment["directory"] = None
        attachment["generation"] = generation
    directory = attachment["directory"]
    if directory is None:
        directory = attachment["directory"] = CellDirectory.build(
            *(columns[name][:size] for name in _DIRECTORY_COLUMNS)
        )
    if mode == "mask":
        return (generation, directory.mask(center, radius)[0])
    # Eager arrays cross the pipe: the deferred table's row arrays are
    # more bytes than its totals, and a dict pickles slower than either.
    table = level_scores(directory.hits(center, radius), center, radius)
    return (generation, (table.peers, table.totals()))


def _worker_main(conn) -> None:
    """Worker loop: recv one batch, run it, send one reply. Repeat."""
    _mute_shm_tracking()
    attached: dict = {}
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send(("bye",))
                break
            try:
                replies = [_run_task(attached, task)
                           for task in message[1]]
                conn.send(("ok", replies))
            except Exception as exc:  # surface, don't hang the barrier
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        for attachment in attached.values():
            _detach(attachment)
        conn.close()


def _shutdown(workers) -> None:
    """Finalizer: stop worker processes (runs at close or GC/exit)."""
    for proc, conn in workers:
        try:
            if proc.is_alive():
                conn.send(("stop",))
                conn.recv()
            conn.close()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        except (OSError, EOFError, BrokenPipeError):
            pass
    workers.clear()


class ShardedEngine(Engine):
    """Fan per-level tasks out across persistent worker processes."""

    name = "sharded"
    parallel = True

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config or EngineConfig(engine="sharded"))
        ctx = mp.get_context("fork")
        self._workers: list = []
        for __ in range(self.config.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        #: worker index -> shard key -> shm epoch last attached there.
        self._attached_epoch: list[dict[int, int]] = [
            {} for __ in self._workers
        ]
        self.epoch = 0
        self.tasks_dispatched = 0
        self._closed = False
        # A per-instance callable so close() unregisters only *this*
        # engine's exit hook (atexit.unregister matches by equality).
        self._atexit_cb = functools.partial(_shutdown, self._workers)
        atexit.register(self._atexit_cb)

    # -- shard plane ---------------------------------------------------------

    def create_scheduler(self) -> SerialScheduler:
        return SerialScheduler()

    def register_store(self, shard_key: int, store) -> None:
        store.share_columns()
        self._stores[shard_key] = store

    def _descriptor(self, worker: int, mode: str, shard_key: int,
                    center: np.ndarray, radius: float) -> tuple:
        store = self._stores[shard_key]
        manifest = None
        if self._attached_epoch[worker].get(shard_key) != store.shm_epoch:
            manifest = store.shm_manifest()
            self._attached_epoch[worker][shard_key] = store.shm_epoch
        return (
            mode, shard_key, manifest, store.n_rows, store.generation,
            np.asarray(center, dtype=np.float64), float(radius),
        )

    def _exchange(self, mode: str, tasks) -> list:
        """One epoch: batch, flush, barrier, reassemble in task order."""
        if self._closed:
            raise ValidationError("engine is closed")
        n_workers = len(self._workers)
        outboxes: list[list] = [[] for __ in range(n_workers)]
        # slots[task index] -> (worker, position in its outbox).
        slots: list[tuple] = []
        for shard_key, center, radius in tasks:
            worker = shard_key % n_workers
            outboxes[worker].append(self._descriptor(
                worker, mode, shard_key, center, radius
            ))
            slots.append((worker, len(outboxes[worker]) - 1))
        solicited = [w for w in range(n_workers) if outboxes[w]]
        for worker in solicited:  # flush: one batched send per worker
            self._workers[worker][1].send(("tasks", outboxes[worker]))
            self.tasks_dispatched += len(outboxes[worker])
        inboxes: dict[int, list] = {}
        failures = []
        for worker in solicited:  # barrier: collect every reply
            status, payload = self._workers[worker][1].recv()
            if status == "ok":
                inboxes[worker] = payload
            else:
                failures.append(payload)
                # Its batch stopped part-way: resend manifests next time.
                self._attached_epoch[worker].clear()
        if failures:
            raise ValidationError(
                f"shard worker failed: {'; '.join(failures)}"
            )
        self.epoch += 1
        results = []
        for (shard_key, __, ___), (worker, position) in zip(tasks, slots):
            store = self._stores[shard_key]
            generation, payload = inboxes[worker][position]
            if generation != store.generation:
                raise StaleCandidateError(
                    f"shard {shard_key} reply from generation "
                    f"{generation}, store is at {store.generation}"
                )
            results.append(
                payload if mode == "mask" else LevelScoreTable(*payload)
            )
        return results

    def masks(self, tasks) -> list[np.ndarray]:
        return self._exchange("mask", tasks)

    def score_levels(self, tasks) -> list[Mapping]:
        return self._exchange("score", tasks)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit_cb)
        _shutdown(self._workers)
        for store in self._stores.values():
            store.release_shared()
        self._stores.clear()

    def __del__(self):  # pragma: no cover - GC path
        try:
            self.close()
        except Exception:
            pass

    def snapshot(self) -> dict:
        return {
            "engine": self.name,
            "workers": self.config.workers,
            "shard_by": self.config.shard_by,
            "shards": len(self._stores),
            "epochs": self.epoch,
            "tasks_dispatched": self.tasks_dispatched,
        }
