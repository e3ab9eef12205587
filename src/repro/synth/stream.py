"""The ``TraceSource`` streaming protocol: traces as minute-slice streams.

Every producer of per-minute flow data — the live :class:`TraceGenerator`,
the :class:`TraceReplayer` reconstruction of a saved trace, and the
:class:`MaterializedTraceSource` adapter over an in-memory :class:`Trace` —
speaks one protocol::

    source.horizon                  # minutes in the stream
    source.iter_minutes(a, b)       # Iterator[MinuteSlice] over [a, b)
    source.events_so_far()          # ground-truth events revealed so far

Consumers (``eval.stream_trace``, the scenario matrix, ``cli serve``, the
scale bench) iterate :class:`MinuteSlice` objects and never need the whole
trace in memory.  A slice is built from the minute's sampled flows as one
columnar :class:`~repro.netflow.FlowBatch`; its scalar record list is a
view materialized on first access, so only record-protocol consumers pay
for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

import numpy as np

from ..netflow.records import FlowBatch, FlowRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenario imports us)
    from .scenario import AttackEvent, Trace

__all__ = [
    "MinuteSlice",
    "TraceSource",
    "MaterializedTraceSource",
    "as_trace_source",
]


class MinuteSlice:
    """One minute of sampled, source-class-tagged traffic.

    ``batch`` holds the flows in arrival order and ``records`` is its
    lazy scalar view; ``class_masks`` maps each auxiliary source class
    (A1/A2/A3 plus per-botnet provenance) to a boolean membership mask
    over the flows.  ``events_started`` / ``events_ended`` reveal
    ground truth incrementally: an event appears in ``events_ended`` once
    its ``attackers`` / ``anomalous_bytes`` fields are final.
    """

    __slots__ = (
        "minute",
        "customer_ids",
        "batch",
        "class_masks",
        "events_started",
        "events_ended",
        "total_flows",
        "_records",
    )

    def __init__(
        self,
        minute: int,
        customer_ids: np.ndarray,
        batch: FlowBatch,
        *,
        class_masks: dict[str, np.ndarray] | None = None,
        events_started: tuple["AttackEvent", ...] = (),
        events_ended: tuple["AttackEvent", ...] = (),
        total_flows: int | None = None,
    ) -> None:
        self.minute = minute
        self.customer_ids = np.asarray(customer_ids, dtype=np.int64)
        self.batch = batch
        self._records: list[FlowRecord] | None = None
        self.class_masks = class_masks or {}
        self.events_started = events_started
        self.events_ended = events_ended
        n = len(batch)
        if self.customer_ids.shape != (n,):
            raise ValueError("customer_ids must align with the minute's flows")
        self.total_flows = n if total_flows is None else total_flows

    @property
    def sampled_flows(self) -> int:
        return len(self.customer_ids)

    @property
    def records(self) -> list[FlowRecord]:
        """Scalar view (materialized from the batch on first access)."""
        if self._records is None:
            self._records = self.batch.to_records()
        return self._records


@runtime_checkable
class TraceSource(Protocol):
    """Anything that can stream a trace minute by minute."""

    @property
    def horizon(self) -> int: ...

    def iter_minutes(
        self, start_minute: int = 0, end_minute: int | None = None
    ) -> Iterator[MinuteSlice]: ...

    def events_so_far(self) -> list["AttackEvent"]: ...


class MaterializedTraceSource:
    """Adapter presenting an in-memory :class:`Trace` as a TraceSource.

    Flow reconstruction delegates to :class:`TraceReplayer`, so the
    records it yields are identical to ``TraceReplayer.replay`` — the
    pre-streaming consumers' behaviour (alert streams, scenario
    baselines) is preserved byte for byte.
    """

    def __init__(self, trace: "Trace", seed: int = 0) -> None:
        from .replay import TraceReplayer

        self.trace = trace
        self._replayer = TraceReplayer(trace, seed=seed)
        self._cursor = 0

    @property
    def horizon(self) -> int:
        return self.trace.horizon

    def iter_minutes(
        self, start_minute: int = 0, end_minute: int | None = None
    ) -> Iterator[MinuteSlice]:
        for sl in self._replayer.iter_minutes(start_minute, end_minute):
            self._cursor = max(self._cursor, sl.minute + 1)
            yield sl

    def events_so_far(self) -> list["AttackEvent"]:
        return [e for e in self.trace.events if e.onset < self._cursor]


def as_trace_source(obj, seed: int = 0) -> TraceSource:
    """Coerce a :class:`Trace` (or any TraceSource) to a TraceSource."""
    if isinstance(obj, TraceSource):
        return obj
    from .scenario import Trace

    if isinstance(obj, Trace):
        return MaterializedTraceSource(obj, seed=seed)
    raise TypeError(f"cannot stream {type(obj).__name__} as a TraceSource")
