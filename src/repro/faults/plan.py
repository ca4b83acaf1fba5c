"""Declarative fault plans for lossy-MANET simulation.

A :class:`FaultPlan` describes everything that can go wrong on the radio:
per-message loss, duplication, partition windows, and the
retry policy the resilience layer uses to fight back. Plans are immutable
value objects — the same plan plus the same seed always reproduces the
same fault sequence (see :class:`repro.faults.injector.FaultInjector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class RetryPolicy:
    """Per-message timeout/retry behaviour of the resilience layer.

    Attributes
    ----------
    max_attempts:
        Total transmission attempts per logical message (1 = no retries).
    base_timeout:
        Virtual seconds waited before the first retry.
    backoff:
        Multiplier applied to the wait after each failed attempt
        (capped exponential backoff).
    max_timeout:
        Ceiling on any single backoff wait.
    """

    max_attempts: int = 4
    base_timeout: float = 0.05
    backoff: float = 2.0
    max_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_timeout < 0:
            raise ValidationError(
                f"base_timeout must be >= 0, got {self.base_timeout}"
            )
        if self.backoff < 1.0:
            raise ValidationError(
                f"backoff must be >= 1, got {self.backoff}"
            )
        if self.max_timeout < self.base_timeout:
            raise ValidationError(
                "max_timeout must be >= base_timeout "
                f"({self.max_timeout} < {self.base_timeout})"
            )

    def wait_before_attempt(self, attempt: int) -> float:
        """Backoff wait before transmission attempt ``attempt`` (2-based)."""
        if attempt <= 1:
            return 0.0
        wait = self.base_timeout * self.backoff ** (attempt - 2)
        return min(wait, self.max_timeout)


@dataclass(frozen=True)
class PartitionWindow:
    """A transient network split: ``nodes`` vs everyone else.

    During ``[start, end)`` (virtual seconds on the fabric scheduler's
    clock) any message with exactly one endpoint inside ``nodes`` is
    severed. Retries whose backoff carries them past ``end`` succeed —
    partitions heal.
    """

    start: float
    end: float
    nodes: frozenset = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if self.end <= self.start:
            raise ValidationError(
                f"partition window must end after it starts "
                f"({self.start} .. {self.end})"
            )

    def severs(self, source: int, destination: int, now: float) -> bool:
        """True when the window cuts the ``source -> destination`` link."""
        if not self.start <= now < self.end:
            return False
        return (source in self.nodes) != (destination in self.nodes)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of a lossy MANET session.

    Attributes
    ----------
    loss:
        Per-message loss probability in ``[0, 1)``. Query-plane messages
        (contact requests, data responses, index-phase replies) are lost
        end-to-end and must be retried by the resilience layer; overlay
        maintenance traffic recovers via link-layer retransmissions,
        which are *charged* (extra messages/bytes/energy) but never lose
        the message — see ``docs/faults.md``.
    duplication:
        Probability a delivered message arrives twice.
    partitions:
        :class:`PartitionWindow` tuple; windows may overlap.
    crash_fraction:
        Fraction of peers the *fault scenario runners* crash abruptly
        (no overlay cleanup) after publication. The injector itself only
        tracks crashes registered via
        :func:`repro.faults.resilience.crash_peer`.
    seed:
        Seed (``>= 0``) of the injector's private fault stream.
        Independent from every data/overlay RNG, so installing a plan
        never perturbs clustering or routing randomness.
    max_link_retransmits:
        Cap on charged link-layer retransmissions per overlay message.
    retry:
        The :class:`RetryPolicy` resilient sends use under this plan.
    """

    loss: float = 0.0
    duplication: float = 0.0
    partitions: tuple = ()
    crash_fraction: float = 0.0
    seed: int = 0
    max_link_retransmits: int = 5
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))
        for name in ("loss", "duplication"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1), got {value}"
                )
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValidationError(
                f"crash_fraction must be in [0, 1], got {self.crash_fraction}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.max_link_retransmits < 0:
            raise ValidationError(
                "max_link_retransmits must be >= 0, got "
                f"{self.max_link_retransmits}"
            )
        for window in self.partitions:
            if not isinstance(window, PartitionWindow):
                raise ValidationError(
                    f"partitions must hold PartitionWindow, got {window!r}"
                )

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at the message boundary.

        A null plan never draws from the fault stream, so installing
        ``FaultPlan()`` is byte-identical to running without one.
        """
        return (
            self.loss == 0.0
            and self.duplication == 0.0
            and not self.partitions
        )


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a CLI ``--fault-plan`` spec into a :class:`FaultPlan`.

    The spec is a comma-separated ``key=value`` list::

        loss=0.1,dup=0.01,crash=0.2,seed=3,retries=5

    Keys: ``loss``, ``dup`` (duplication), ``crash`` (crash fraction),
    ``seed``, ``retries`` (max attempts); ``seed`` and ``retries`` must
    be whole numbers.
    """
    values: dict = {}
    spec = spec.strip()
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise ValidationError(
                    f"fault-plan entries must be key=value, got {part!r}"
                )
            key, raw = (s.strip() for s in part.split("=", 1))
            try:
                values[key] = float(raw)
            except ValueError:
                raise ValidationError(
                    f"fault-plan value for {key!r} is not a number: {raw!r}"
                ) from None
    known = {"loss", "dup", "crash", "seed", "retries"}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValidationError(
            f"unknown fault-plan key(s) {', '.join(unknown)}; "
            f"expected {', '.join(sorted(known))}"
        )
    for key in ("seed", "retries"):
        if key in values and not values[key].is_integer():
            raise ValidationError(
                f"fault-plan value for {key!r} must be a whole number, "
                f"got {values[key]}"
            )
    retry = RetryPolicy()
    if "retries" in values:
        retry = RetryPolicy(max_attempts=int(values["retries"]))
    return FaultPlan(
        loss=values.get("loss", 0.0),
        duplication=values.get("dup", 0.0),
        crash_fraction=values.get("crash", 0.0),
        seed=int(values.get("seed", 0)),
        retry=retry,
    )
