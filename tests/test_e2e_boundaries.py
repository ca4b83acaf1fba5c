"""The e2e benchmark harness still fits the program it measures.

``benchmarks/e2e`` may not be edited alongside ``src/`` (the pipeline
runs it on the parent commit and on the change), so a refactor that
renames a layer entry point would break the harness silently — the
wrappers in ``probes.py`` are patched on by name. These tests resolve
every name the harness depends on, without running a workload.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", E2E / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBES = _load("probes")


def _repro_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from repro… import name`` in a file."""
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.partition(".")[0] == "repro"
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "module_name, owner, attr",
    [row[:3] for row in PROBES.BOUNDARIES],
    ids=[f"{row[1] or row[0]}.{row[2]}" for row in PROBES.BOUNDARIES],
)
def test_boundary_resolves(module_name, owner, attr):
    module = importlib.import_module(module_name)
    holder = module if owner is None else getattr(module, owner)
    assert callable(vars(holder)[attr])
    # The probe patches every namespace holding the boundary; the
    # defining one must be among them.
    holders = PROBES._holders(module_name, owner, attr)
    expected = module_name if owner is None else f"{module_name}.{owner}"
    assert expected in [name for name, __ in holders]


def test_single_call_sites_are_patchable():
    """The pipeline's join points are reached through patched globals."""
    held = {
        attr: [name for name, __ in PROBES._holders(module, None, attr)]
        for module, attr in [
            ("repro.core.scoring", "aggregate_scores"),
            ("repro.core.scoring", "level_scores"),
            ("repro.core.queries", "retrieval_phase"),
        ]
    }
    assert "repro.core.queries" in held["aggregate_scores"]
    assert "repro.core.queries" in held["level_scores"]
    assert "repro.serve.cache" in held["level_scores"]
    assert "repro.core.queries" in held["retrieval_phase"]


@pytest.mark.parametrize("filename", ["workloads.py", "probes.py"])
def test_repro_imports_resolve(filename):
    imports = _repro_imports(E2E / filename)
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")


def test_call_shapes_the_workloads_use():
    from repro.core.network import HyperMNetwork
    from repro.engine import Engine, EngineConfig
    from repro.overlay.can import build_grid_can, bulk_publish
    from repro.serve import KnnRequest, RangeRequest, ServeConfig, ServeEngine

    for method in ("execute_batch", "start", "submit", "stop", "snapshot"):
        assert callable(getattr(ServeEngine, method))
    for method in ("score_levels", "masks", "register_store",
                   "create_scheduler", "close", "snapshot"):
        assert callable(getattr(Engine, method))
    for method in ("add_peer", "publish_peer", "publish_delta",
                   "range_query", "knn_query"):
        assert callable(getattr(HyperMNetwork, method))
    publish = inspect.signature(bulk_publish).parameters
    assert {"peer_ids", "origins", "values", "charge"} <= set(publish)
    grid = inspect.signature(build_grid_can).parameters
    assert {"fabric", "rng", "node_id_offset"} <= set(grid)
    assert list(inspect.signature(EngineConfig).parameters)[:1] == ["engine"]
    assert {"workers", "shard_by"} <= set(
        inspect.signature(EngineConfig).parameters
    )
    ServeConfig()
    assert {"query", "epsilon", "max_peers"} <= set(
        inspect.signature(RangeRequest).parameters
    )
    assert {"query", "k"} <= set(inspect.signature(KnnRequest).parameters)


def test_serve_snapshot_keeps_the_counters_the_harness_reads(
    tiny_histogram_workload,
):
    from repro.serve import ServeEngine

    snapshot = ServeEngine(tiny_histogram_workload.network).snapshot()
    for cache in ("candidate_cache", "translation_cache"):
        assert {"hits", "misses"} <= set(snapshot[cache])
    assert "stale" in snapshot["candidate_cache"]
