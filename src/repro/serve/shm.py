"""Shared-memory payload transport for process-backend shards.

The process backend's pipe used to carry every minute's flow payload as a
pickled record list — one serialize/copy/deserialize round trip per shard
per minute.  :class:`ShmRing` moves the payload bytes into one
``multiprocessing.shared_memory`` segment per shard: the parent writes the
encoded :class:`~repro.netflow.records.FlowBatch` block into the ring and
ships only a ``("shm", name, offset, length)`` control tuple through the
pipe; the child maps the segment once (:class:`ShmReader`) and decodes the
block as a zero-copy ``np.frombuffer`` view.

The shard protocol is strict request/reply — one in-flight command per
shard, and the child replies only after the detector has fully consumed
the batch — so a single segment with sequential offsets is a correct ring:
by the time the writer wraps (or grows the segment), the previous payload
is guaranteed dead.  No locks, no copies, no reader/writer races.
"""

from __future__ import annotations

from multiprocessing import shared_memory

__all__ = ["ShmRing", "ShmReader", "MIN_RING_BYTES"]

MIN_RING_BYTES = 4096


class ShmRing:
    """Single-producer payload channel over one shared-memory segment.

    ``write`` returns the ``(segment name, offset, length)`` control tuple
    to ship over the pipe.  Payloads larger than the segment trigger a
    growth: a fresh, bigger segment is allocated under a new name (the
    reader re-attaches when the name in the control tuple changes) and the
    old one is unlinked — safe even while the child still has it mapped.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(int(capacity), MIN_RING_BYTES)
        )
        self._write = 0
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._shm.size

    def write(self, payload) -> tuple[str, int, int]:
        """Stage one payload; returns its ``(name, offset, length)``.

        ``payload`` is ``bytes`` or any contiguous byte buffer whose
        ``len()`` is its byte count (a ``uint8`` array view of a batch).
        """
        n = len(payload)
        if n > self._shm.size:
            self._grow(n)
        if self._write + n > self._shm.size:
            self._write = 0  # wrap: the previous payload is already consumed
        offset = self._write
        self._shm.buf[offset : offset + n] = payload
        self._write = offset + n
        return self._shm.name, offset, n

    def _grow(self, need: int) -> None:
        old = self._shm
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(old.size * 2, need)
        )
        self._write = 0
        old.close()
        old.unlink()

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
            self._shm.unlink()
        except (BufferError, FileNotFoundError, OSError):
            pass


class ShmReader:
    """Consumer-side cache of the producer's current segment.

    Re-attaches only when the control tuple names a new segment (ring
    growth); otherwise each ``view`` call is a constant-time buffer slice.
    """

    def __init__(self) -> None:
        self._shm: shared_memory.SharedMemory | None = None

    def view(self, name: str, offset: int, length: int) -> memoryview:
        if self._shm is None or self._shm.name != name:
            if self._shm is not None:
                try:
                    self._shm.close()
                except BufferError:
                    # A numpy view of the old segment is still alive; leave
                    # the mapping for the GC rather than crash the worker.
                    pass
            # The forked child shares the parent's resource-tracker
            # process, so this attach re-registers a name the tracker
            # already holds (a set — idempotent).  Unregistering here
            # would strip the *parent's* registration; the parent is the
            # sole owner and unlinks once on close.
            self._shm = shared_memory.SharedMemory(name=name)
        return self._shm.buf[offset : offset + length]

    def close(self) -> None:
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                pass
            self._shm = None
