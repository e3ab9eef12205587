"""One serving shard: an :class:`~repro.core.OnlineXatu` partition plus an
execution backend.

The worker speaks a tiny command protocol (``step`` / ``state`` / ``load``
/ ``stop``); one ``_execute`` dispatch serves both backends:

* ``inline``  — commands execute synchronously in the caller's thread
  (the deterministic reference);
* ``process`` — a forked child runs the loop over a ``multiprocessing``
  pipe, escaping the GIL for the numpy scoring work.

``submit_step`` / ``collect`` split each minute into a dispatch and a
join, so the engine can fan a minute out to every shard before waiting on
any of them — that overlap is the whole point of the process backend.
A worker that raises, dies, or cannot be sent its command is marked
unhealthy, keeps no pending command, and refuses every later one with
:class:`ShardFailure`; the engine then closes and re-raises (one fault
rule, docs/SERVING.md "Faults").

Shared-memory transport
-----------------------
With ``transport="shm"`` the process backend stops pickling flow payloads
through the pipe: every step's :class:`FlowBatch` is staged in a
per-shard :class:`~repro.serve.shm.ShmRing` and the pipe carries only the
``("shm", name, offset, length)`` control tuple.  The child decodes the
block as a zero-copy view and replies after the detector has consumed it,
which is what makes the lock-free ring correct.  Hosts without a usable
shared-memory filesystem fall back to the pipe transport with a warning;
the transports are interchangeable — same state, same alerts, same
checkpoints.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from typing import Callable, Sequence

import numpy as np

from ..core.online import OnlineAlert, OnlineXatu
from ..netflow.records import FLOW_WIRE_SIZE, FlowBatch
from ..signals.history import AlertRecord
from .config import BACKENDS
from .shm import ShmReader, ShmRing

__all__ = ["ShardWorker", "ShardFailure"]


class ShardFailure(RuntimeError):
    """A shard worker raised (or died) while executing a command."""


def _decode_payload(flows, reader: ShmReader | None):
    """Resolve a step payload: shm control tuples become zero-copy batches."""
    if type(flows) is tuple and flows and flows[0] == "shm":
        _, name, offset, length = flows
        return FlowBatch.from_buffer(
            reader.view(name, offset, length), count=length // FLOW_WIRE_SIZE
        )
    return flows


def _execute(detector: OnlineXatu, message, reader: ShmReader | None = None):
    """Run one ``step`` / ``state`` / ``load`` command — the single
    dispatch both backends share.  Returns the ``(status, payload)``
    reply; exceptions become error replies (surfaced to the engine as
    :class:`ShardFailure`).

    A ``step``'s zero-copy shm view dies with this frame, i.e. before the
    caller can send the reply: the parent may rewrite (or unlink, on
    growth) the ring slot as soon as it sees it.
    """
    op = message[0]
    try:
        if op == "step":
            _, minute, flows, cdet_alerts, mitigation_ends = message
            for record in cdet_alerts:
                detector.ingest_cdet_alert(record)
            for customer_id, end_minute in mitigation_ends:
                detector.ingest_mitigation_end(customer_id, end_minute)
            result = detector.step(minute, _decode_payload(flows, reader))
        elif op == "state":
            result = detector.state_dict()
        elif op == "load":
            detector.load_state_dict(message[1])
            result = None
        else:
            raise ValueError(f"unknown shard command {op!r}")
        return ("ok", result)
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def _worker_loop(detector: OnlineXatu, conn) -> None:
    """Serve commands until ``stop`` (the process backend's child).

    The shard runs under ``SCHED_BATCH``: the kernel never lets a batch
    task preempt on wake-up, so the dispatcher finishes sending the minute
    to every shard (and blocks in ``collect``) before a shard sharing its
    CPU starts.  A host that lacks or refuses the policy serves the same.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass
    reader = ShmReader()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            reader.close()
            conn.send(("ok", None))
            return
        conn.send(_execute(detector, message, reader))


class ShardWorker:
    """Owns one detector partition behind a chosen execution backend."""

    def __init__(
        self,
        index: int,
        detector_factory: Callable[[], OnlineXatu],
        backend: str = "inline",
        transport: str = "pipe",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown shard backend {backend!r}")
        self.index = index
        self.backend = backend
        # The worker loop never touches `self` — it owns only the detector
        # and its connection end.  Liveness/dispatch bookkeeping is written
        # exclusively by the engine thread driving submit()/collect().
        self.healthy = True  # owner: engine thread
        self._pending = 0  # owner: engine thread
        # Built before any ring or process, so a factory that raises
        # leaves nothing of this shard behind.
        detector = detector_factory()
        self._ring: ShmRing | None = None
        self.transport = "pipe"
        if backend == "process" and transport == "shm":
            try:
                self._ring = ShmRing()
                self.transport = "shm"
            except (OSError, ValueError) as exc:
                warnings.warn(
                    f"shared-memory transport unavailable ({exc}); "
                    "shard falling back to pipe transport",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if backend == "inline":
            self._detector = detector
            self._inline_result = None  # owner: engine thread
        else:
            ctx = multiprocessing.get_context()
            self._conn, child_conn = ctx.Pipe()
            # The detector is built in the parent and inherited by the
            # fork; all live state then belongs to the child (the parent
            # reads it back via the ``state`` command).
            self._process = ctx.Process(
                target=_worker_loop,
                args=(detector, child_conn),
                name=f"serve-shard-{index}",
                daemon=True,
            )
            self._process.start()

    # ------------------------------------------------------------------
    def _call(self, *message):
        """Synchronous command round-trip."""
        self.submit(*message)
        return self.collect()

    def submit(self, *message) -> None:
        """Dispatch one command without waiting for its reply.  A send the
        worker cannot take (it died) is a :class:`ShardFailure` that leaves
        no pending command."""
        if not self.healthy:
            raise ShardFailure(f"shard {self.index} is unhealthy")
        if self._pending:
            raise ShardFailure(f"shard {self.index} already has a pending command")
        if self.backend == "inline":
            self._inline_result = _execute(self._detector, message)
        else:
            try:
                self._conn.send(message)
            except (EOFError, OSError) as exc:
                self.healthy = False
                raise ShardFailure(f"shard {self.index} died: {exc}") from exc
        self._pending = 1

    def collect(self):
        """Wait for and unwrap the pending command's reply."""
        if not self._pending:
            raise ShardFailure(f"shard {self.index} has no pending command")
        self._pending = 0
        if self.backend == "inline":
            status, payload = self._inline_result
            self._inline_result = None
        else:
            try:
                status, payload = self._conn.recv()
            except (EOFError, OSError) as exc:
                self.healthy = False
                raise ShardFailure(f"shard {self.index} died: {exc}") from exc
        if status != "ok":
            self.healthy = False
            raise ShardFailure(f"shard {self.index} failed: {payload}")
        return payload

    # ------------------------------------------------------------------
    def submit_step(
        self,
        minute: int,
        flows: FlowBatch,
        cdet_alerts: Sequence[AlertRecord] = (),
        mitigation_ends: Sequence[tuple[int, int]] = (),
    ) -> None:
        payload = flows
        if self._ring is not None:
            # Stage the batch's own buffer in shared memory (one copy, into
            # the ring); the pipe carries only the control tuple.  Safe to
            # reuse the ring slot on the next submit: the child replies only
            # after the detector fully consumed this payload.
            block = np.ascontiguousarray(flows.array).view(np.uint8)
            payload = ("shm", *self._ring.write(block))
        self.submit("step", minute, payload, list(cdet_alerts), list(mitigation_ends))

    def step(
        self,
        minute: int,
        flows: FlowBatch,
        cdet_alerts: Sequence[AlertRecord] = (),
        mitigation_ends: Sequence[tuple[int, int]] = (),
    ) -> list[OnlineAlert]:
        self.submit_step(minute, flows, cdet_alerts, mitigation_ends)
        return self.collect()

    def state_dict(self) -> dict:
        return self._call("state")

    def load_state_dict(self, state: dict) -> None:
        self._call("load", state)

    def close(self) -> None:
        """Stop the backend (idempotent; tolerates a dead worker).  A worker
        that replied with an error still takes ``stop``; one that cannot
        (dead, or mid-command) is terminated and reaped."""
        if self.backend == "inline":
            return
        try:
            if not self._pending:
                self._conn.send(("stop",))
                self._conn.recv()
        except (EOFError, OSError):
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        if self._ring is not None:
            self._ring.close()
            self._ring = None  # owner: engine thread
