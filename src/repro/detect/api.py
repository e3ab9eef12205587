"""The unified streaming detector API.

Every deployable detector in the reproduction — the incumbent CDet
simulators (:class:`~repro.detect.detectors.NetScoutDetector`,
:class:`~repro.detect.detectors.FastNetMonDetector`) and Xatu's streaming
mode (:class:`~repro.core.online.OnlineXatu`) — conforms to one minute-
driven contract, so evaluation harnesses can drive any of them
interchangeably, and the serving engine's shards (:mod:`repro.serve`)
call the same method on their :class:`~repro.core.online.OnlineXatu`:

* ``step(minute, batch)`` ingests one minute of sampled flows (a
  :class:`~repro.netflow.FlowBatch`) and returns that minute's alerts;
* ``reset()`` returns the detector to its post-construction state.

The caller owns the clock: ``minute`` must advance on every call, and a
driver steps quiet minutes too, with :meth:`FlowBatch.empty` — absence of
traffic is itself signal.  :func:`drive` is that driver.

Alerts are structural: anything with ``customer_id``, ``minute``, and
``score`` attributes satisfies :class:`Alert`.  ``score`` is detector-
specific (Xatu's survival probability; a CDet's excursion ratio) but is
always orientation-free metadata — the *emission* of the alert is the
detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol as TypingProtocol, runtime_checkable

from ..netflow.records import FlowBatch

__all__ = ["Alert", "StreamAlert", "Detector", "drive"]


@runtime_checkable
class Alert(TypingProtocol):
    """Structural alert shape shared by every streaming detector."""

    customer_id: int
    minute: int
    score: float


@dataclass(frozen=True, slots=True)
class StreamAlert:
    """Concrete :class:`Alert` emitted by the streaming CDet modes.

    ``detector`` names the emitting system (``netscout`` / ``fastnetmon``
    / ``xatu``), letting merged multi-detector streams stay attributable.
    """

    customer_id: int
    minute: int
    score: float
    detector: str = "cdet"


@runtime_checkable
class Detector(TypingProtocol):
    """The minute-driven streaming detector contract (see module docs)."""

    name: str

    def step(self, minute: int, flows: FlowBatch) -> list[Alert]:
        """Ingest one minute of sampled flows; return its alerts."""
        ...  # pragma: no cover - protocol

    def reset(self) -> None:
        """Return to the post-construction state (clock, stores, trackers)."""
        ...  # pragma: no cover - protocol


def drive(
    detector: Detector,
    minutes: Iterable[tuple[int, FlowBatch]],
) -> list[Alert]:
    """Feed ``(minute, batch)`` pairs to any detector and return the
    collected alerts.

    Quiet minutes between consecutive batch minutes are stepped with an
    empty batch, so the detector sees every minute — this is the reference
    driver the eval harness and tests share.
    """
    alerts: list[Alert] = []
    last: int | None = None
    for minute, flows in minutes:
        if last is not None:
            for quiet in range(last + 1, minute):
                alerts.extend(detector.step(quiet, FlowBatch.empty()))
        alerts.extend(detector.step(minute, flows))
        last = minute
    return alerts
