"""The ``TraceSource`` streaming protocol: traces as minute-slice streams.

Every producer of per-minute flow data speaks one protocol::

    source.horizon                  # minutes in the stream
    source.iter_minutes(a, b)       # Iterator[MinuteSlice] over [a, b)
    source.events_so_far()          # ground-truth events revealed so far

The producer is the :class:`TraceGenerator`.  A materialized
:class:`Trace` streams through :func:`as_trace_source`, which builds a
fresh generator from the trace's config: a trace's flows are a function
of its config alone, so the stream is exactly the one the trace's matrix
was folded from (a saved trace re-streams after ``load_trace`` too).

Consumers (``eval.stream_trace``, the scenario matrix, ``cli serve``, the
scale bench) iterate :class:`MinuteSlice` objects and never need the whole
trace in memory.  A slice carries the minute's sampled flows as one
columnar :class:`~repro.netflow.FlowBatch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

import numpy as np

from ..netflow.records import FlowBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenario imports us)
    from .scenario import AttackEvent

__all__ = [
    "MinuteSlice",
    "TraceSource",
    "as_trace_source",
]


class MinuteSlice:
    """One minute of sampled, source-class-tagged traffic.

    ``batch`` holds the flows in arrival order; ``class_masks`` maps each auxiliary source class
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


@runtime_checkable
class TraceSource(Protocol):
    """Anything that can stream a trace minute by minute."""

    @property
    def horizon(self) -> int: ...

    def iter_minutes(
        self, start_minute: int = 0, end_minute: int | None = None
    ) -> Iterator[MinuteSlice]: ...

    def events_so_far(self) -> list["AttackEvent"]: ...


def as_trace_source(obj) -> TraceSource:
    """Coerce a :class:`Trace` (or any TraceSource) to a TraceSource.

    A trace streams as a fresh ``TraceGenerator(trace.config)``: the very
    flows its matrix was folded from, class masks aside when the trace was
    built with a ``blocklist_membership`` override (tagging draws no
    randomness, so the flows themselves never depend on it).
    """
    if isinstance(obj, TraceSource):
        return obj
    from .scenario import Trace, TraceGenerator

    if isinstance(obj, Trace):
        return TraceGenerator(obj.config)
    raise TypeError(f"cannot stream {type(obj).__name__} as a TraceSource")
