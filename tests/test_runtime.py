"""The one run context: defaults, nesting, and the CLI flags that fill it."""

import pytest

from repro import cli, runtime
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.faults import FaultPlan
from repro.net import SerialScheduler
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry, metrics
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.overlay.adapt import AdaptConfig
from repro.overlay.baton import BatonNetwork
from repro.overlay.can import CANNetwork
from repro.overlay.vbi import VBITree
from repro.runtime import RunContext, run_context

FIELDS = (
    "overlay", "fault_plan", "adapt", "metrics", "tracer", "flight",
)


def _fields(context=runtime.current) -> dict:
    return {name: getattr(context, name) for name in FIELDS}


def _network() -> HyperMNetwork:
    return HyperMNetwork(8, HyperMConfig(levels_used=2), rng=0)


class TestRunContext:
    def test_has_exactly_the_six_fields(self):
        assert RunContext.__slots__ == FIELDS
        with pytest.raises(AttributeError):
            RunContext().mobility = None

    def test_default_context(self):
        default = _fields(RunContext())
        registry = default.pop("metrics")
        assert isinstance(registry, MetricsRegistry)
        assert default == {
            "overlay": None,
            "fault_plan": None,
            "adapt": None,
            "tracer": NULL_RECORDER,
            "flight": NULL_RECORDER,
        }
        # ...and the process starts (and every test leaves it) there.
        current = _fields()
        assert current.pop("metrics") is metrics()
        assert current == default

    def test_default_context_means_can_clean_unadapted_serial(self):
        network = _network()
        assert all(
            type(overlay) is CANNetwork for overlay in network.overlays.values()
        )
        assert network.fabric.faults is None
        assert network.adaptation is None
        assert type(network.fabric.scheduler) is SerialScheduler

    def test_overrides_only_the_named_fields(self):
        before = _fields()
        plan = FaultPlan(loss=0.2, seed=1)
        with run_context(fault_plan=plan, overlay=BatonNetwork):
            inside = _fields()
        changed = {name for name in FIELDS if inside[name] is not before[name]}
        assert changed == {"fault_plan", "overlay"}
        assert inside["fault_plan"] is plan
        assert _fields() == before

    def test_nested_blocks_restore_level_by_level(self):
        outer, inner = TraceRecorder(), TraceRecorder()
        flight = FlightRecorder()
        with run_context(tracer=outer, flight=flight):
            with run_context(tracer=inner, adapt=AdaptConfig()):
                assert runtime.current.tracer is inner
                assert runtime.current.flight is flight
                assert runtime.current.adapt is not None
            assert runtime.current.tracer is outer
            assert runtime.current.flight is flight
            assert runtime.current.adapt is None
        assert runtime.current.tracer is NULL_RECORDER
        assert runtime.current.flight is NULL_RECORDER

    def test_restores_after_an_exception(self):
        before = _fields()
        with pytest.raises(RuntimeError):
            with run_context(adapt=AdaptConfig(), metrics=MetricsRegistry()):
                with run_context(adapt=None, tracer=TraceRecorder()):
                    raise RuntimeError("boom")
        assert _fields() == before

    def test_unknown_field_changes_nothing(self):
        before = _fields()
        with pytest.raises(AttributeError):
            with run_context(adapt=AdaptConfig(), mobility="random-walk"):
                pass  # pragma: no cover - never entered
        assert _fields() == before

    def test_explicit_constructor_arguments_beat_the_context(self):
        with run_context(overlay=VBITree):
            network = HyperMNetwork(
                8, HyperMConfig(levels_used=2), rng=0,
                overlay_factory=BatonNetwork,
            )
        assert all(
            type(overlay) is BatonNetwork
            for overlay in network.overlays.values()
        )


class TestCliFillsTheContext:
    """``main`` turns its flags into one ``run_context`` around dispatch."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Networks a stand-in command builds while ``main`` dispatches."""
        networks = []
        monkeypatch.setattr(
            cli, "_cmd_experiment", lambda args: networks.append(_network()) or 0
        )
        return networks

    @pytest.mark.parametrize("flags, reached", [
        (
            ["--overlay", "baton"],
            lambda net: all(
                type(overlay) is BatonNetwork
                for overlay in net.overlays.values()
            ),
        ),
        (
            ["--fault-plan", "loss=0.1,seed=3"],
            lambda net: (
                net.fabric.faults.plan.loss, net.fabric.faults.plan.seed
            ) == (0.1, 3),
        ),
        (["--adapt"], lambda net: net.adaptation is not None),
    ], ids=["overlay", "fault-plan", "adapt"])
    def test_flag_reaches_a_constructed_network(self, built, flags, reached):
        before = _fields()
        assert cli.main(["fig9", *flags]) == 0
        (network,) = built
        assert reached(network)
        assert _fields() == before

    def test_all_flags_together(self, built):
        assert cli.main([
            "fig9", "--adapt", "--overlay", "baton",
            "--fault-plan", "loss=0.1,seed=3",
        ]) == 0
        (network,) = built
        assert network.adaptation is not None
        assert type(network.overlays[network.levels[0]]) is BatonNetwork
        assert network.fabric.faults.plan.loss == 0.1

    @pytest.mark.parametrize(
        "flag", [["--engine", "sharded"], ["--workers", "2"]]
    )
    def test_engine_flags_belong_to_scale_bench_only(self, built, flag, capsys):
        # The protocol runs on one engine: no network takes an engine.
        with pytest.raises(SystemExit) as raised:
            cli.main(["fig9", *flag])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert built == []

    def test_no_flags_leave_the_default_context(self, monkeypatch):
        before = _fields()
        seen = {}
        monkeypatch.setattr(
            cli, "_cmd_experiment", lambda args: seen.update(_fields()) or 0
        )
        assert cli.main(["fig9"]) == 0
        assert seen == before

    def test_context_is_restored_when_the_command_raises(self, monkeypatch):
        before = _fields()

        def dispatch(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_experiment", dispatch)
        with pytest.raises(RuntimeError):
            cli.main([
                "fig9", "--adapt", "--overlay", "baton",
                "--fault-plan", "loss=0.2",
            ])
        assert _fields() == before
