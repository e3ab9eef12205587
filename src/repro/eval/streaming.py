"""Drive any streaming detector over a streamed trace.

The :class:`~repro.detect.Detector` contract makes the incumbent CDet
simulators and Xatu's streaming mode interchangeable; this module is the
eval-side driver that exploits that — one loop, any detector, any
:class:`~repro.synth.TraceSource` (a streaming generator, or a
materialized :class:`~repro.synth.Trace`, which re-streams its own
generator) as the live feed.
"""

from __future__ import annotations

from ..detect.api import Alert, Detector, drive
from ..synth.scenario import Trace
from ..synth.stream import TraceSource, as_trace_source

__all__ = ["stream_trace"]


def stream_trace(
    detector: Detector,
    trace: Trace | TraceSource,
    start_minute: int = 0,
    end_minute: int | None = None,
) -> list[Alert]:
    """Stream a trace minute-by-minute through any streaming detector.

    Accepts a materialized :class:`Trace` (streamed as a fresh
    ``TraceGenerator(trace.config)``: the flows its matrix was folded
    from) or any :class:`TraceSource` directly; steps each minute's
    :attr:`~repro.synth.MinuteSlice.batch` through
    :func:`~repro.detect.drive` and returns every alert emitted over the
    range.
    """
    source = as_trace_source(trace)
    minutes = (
        (sl.minute, sl.batch)
        for sl in source.iter_minutes(start_minute, end_minute)
    )
    return drive(detector, minutes)
