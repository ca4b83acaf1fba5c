"""Discrete-event MANET simulator.

The paper evaluates on a simulated network: "We implemented CAN … and
simulated the parallel behavior of a peer-to-peer network with a scheduler
class and an event queue" (Section 5.2). This package is that substrate:

* :mod:`repro.net.events` — the event queue and its scheduler
  (``SerialScheduler`` / ``Event``), the simulator's clock;
* :mod:`repro.net.messages` — message kinds and wire sizes;
* :mod:`repro.net.metrics` — the frame ledger: one integer row per
  message kind and an int64 column slot per node, written once per frame
  by the fabric, plus the ``fabric.metrics`` / ``fabric.load`` views;
* :mod:`repro.net.energy` — a radio energy model (tx/rx per byte) and the
  ``fabric.energy`` view that prices the same counters at read time, backing
  the paper's energy-efficiency claims with measurable numbers;
* :mod:`repro.net.network` — the network fabric that overlays send
  through, and the ledger's only writer: a synchronous write per frame
  that returns whether the frame arrived.
"""

from repro.net.energy import EnergyLedger, EnergyModel
from repro.net.events import Event, SerialScheduler
from repro.net.messages import MessageKind
from repro.net.metrics import (
    LoadLedger,
    NetworkMetrics,
    NodeLoad,
    OperationMetrics,
)
from repro.net.network import Network

__all__ = [
    "SerialScheduler",
    "Event",
    "MessageKind",
    "EnergyLedger",
    "EnergyModel",
    "LoadLedger",
    "NetworkMetrics",
    "NodeLoad",
    "OperationMetrics",
    "Network",
]
