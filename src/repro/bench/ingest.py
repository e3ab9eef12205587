"""Ingest benchmarks: the columnar NetFlow path vs the scalar baseline.

Each case times the zero-copy columnar lane ("fused") against the
per-record scalar lane it replaced ("unfused") on identical, seeded
workloads — the same convention as :mod:`repro.bench.micro`, so the
``speedups()`` column reads as the columnar win directly:

* ``datagram_decode``  — header + record-block parse of a stream of
  export datagrams: one ``np.frombuffer`` view per datagram
  (:meth:`DatagramCodec.decode_batch`) vs per-record ``struct`` unpacking
  (:meth:`DatagramCodec.decode`).
* ``matrix_aggregate`` — folding already-decoded flows into a
  :class:`TrafficMatrix`: one sorted group-by ``add_batch`` per datagram
  vs one ``add_flow`` per record.  Both paths produce bit-identical
  matrices (``tests/test_columnar.py`` proves it differentially).
* ``ingest_flows``     — the headline end-to-end number: wire datagrams →
  decoded flows → aggregated matrix, columnar vs scalar.  Flows/sec is
  ``sizes["ingest"]["flows"] / best_s``.
* ``sampler``          — binomial packet sampling of a ground-truth batch:
  one vectorized ``rng.binomial`` draw (:meth:`PacketSampler.sample_batch`)
  vs one scalar draw per flow.  Same seed ⇒ identical kept counts.
* ``ingest_obs``       — the ``ingest_flows`` columnar workload with
  telemetry disabled vs enabled, extending the instrumentation-overhead
  budget (docs/OBSERVABILITY.md) to the ingest path.

Serving — transport, fan-out, the whole minute — is measured only by the
end-to-end suite (``BENCHMARK.json``, ``benchmarks/e2e/README.md``).

``run_ingest(smoke=True)`` shrinks every size so the suite finishes in a
few seconds — what ``make bench-ingest``/CI run to keep this path from
rotting.
"""

from __future__ import annotations

import numpy as np

from .harness import BenchReport, BenchTiming, time_callable

__all__ = ["run_ingest", "INGEST_BENCH_CASES"]

INGEST_BENCH_CASES = (
    "datagram_decode",
    "matrix_aggregate",
    "ingest_flows",
    "sampler",
    "ingest_obs",
)


def _sizes(smoke: bool) -> dict[str, dict]:
    if smoke:
        return {
            "ingest": {"flows": 600, "flows_per_datagram": 200, "customers": 6},
            "sampler": {"flows": 500, "rate": 100},
        }
    return {
        # ~40k flows per rep keeps the scalar baseline measurable in
        # seconds while the columnar lane stays well within one.
        "ingest": {"flows": 40_000, "flows_per_datagram": 2_000, "customers": 50},
        "sampler": {"flows": 50_000, "rate": 100},
    }


def _flow_array(
    n: int,
    customers: np.ndarray,
    rng: np.random.Generator,
    minute: int | None = None,
):
    """One seeded structured flow array addressed at ``customers``.

    ``minute`` pins every record's timestamp, matching real collection
    where one export datagram carries one minute of flows.
    """
    from ..netflow.records import FLOW_DTYPE

    arr = np.zeros(n, dtype=FLOW_DTYPE)
    arr["timestamp"] = rng.integers(0, 30, size=n) if minute is None else minute
    arr["src_addr"] = rng.integers(1, 2**28, size=n)
    arr["dst_addr"] = rng.choice(customers, size=n)
    arr["src_port"] = rng.choice([53, 80, 123, 443, 11211, 17000], size=n)
    arr["dst_port"] = rng.choice([53, 80, 443, 8080, 40000], size=n)
    arr["protocol"] = rng.choice([1, 6, 17], size=n)
    arr["tcp_flags"] = rng.integers(0, 64, size=n)
    arr["packets"] = rng.integers(1, 2_000, size=n)
    arr["bytes"] = rng.integers(40, 3_000_000, size=n)
    arr["sampling_rate"] = rng.choice([1, 100, 1000], size=n)
    arr["src_country"] = rng.choice(
        np.array([b"US", b"CN", b"DE", b"BR", b"RU", b"XX"]), size=n
    )
    return arr


def _ingest_workload(sizes: dict):
    """Encoded export datagrams + the address universe they target."""
    from ..netflow.datagram import DatagramCodec
    from ..netflow.records import FlowBatch

    s = sizes["ingest"]
    rng = np.random.default_rng(10)
    addresses = np.arange(50_000, 50_000 + s["customers"], dtype=np.int64)
    codec = DatagramCodec(engine_id=1)
    datagrams = []
    remaining = s["flows"]
    minute = 0
    while remaining > 0:
        n = min(remaining, s["flows_per_datagram"])
        datagrams.append(
            codec.encode(FlowBatch(_flow_array(n, addresses, rng, minute=minute)))
        )
        remaining -= n
        minute += 1
    return datagrams, addresses


def _make_datagram_decode(sizes: dict, fused: bool):
    from ..netflow.datagram import DatagramCodec

    datagrams, _ = _ingest_workload(sizes)
    if fused:
        return lambda: [DatagramCodec.decode_batch(blob) for blob in datagrams]
    return lambda: [DatagramCodec.decode(blob) for blob in datagrams]


def _decoded_batches(sizes: dict):
    from ..netflow.datagram import DatagramCodec

    datagrams, addresses = _ingest_workload(sizes)
    batches = [DatagramCodec.decode_batch(blob)[1] for blob in datagrams]
    customer_of = {int(addr): i for i, addr in enumerate(addresses)}
    return batches, customer_of


def _make_matrix_aggregate(sizes: dict, fused: bool):
    from ..netflow.matrix import SOURCE_CLASS_BLOCKLIST, TrafficMatrix

    batches, customer_of = _decoded_batches(sizes)
    if fused:
        staged = [
            (
                np.fromiter(
                    (customer_of[int(d)] for d in b.array["dst_addr"]),
                    dtype=np.int64,
                    count=len(b),
                ),
                b,
                {SOURCE_CLASS_BLOCKLIST: b.array["src_addr"] % 7 == 0},
            )
            for b in batches
        ]

        def run():
            matrix = TrafficMatrix()
            for cust, batch, masks in staged:
                matrix.add_batch(cust, batch, masks)
            return matrix

        return run

    staged_records = [
        [
            (
                customer_of[record.dst_addr],
                record,
                [SOURCE_CLASS_BLOCKLIST] if record.src_addr % 7 == 0 else [],
            )
            for record in b.to_records()
        ]
        for b in batches
    ]

    def run_scalar():
        matrix = TrafficMatrix()
        for records in staged_records:
            for customer_id, record, classes in records:
                matrix.add_flow(customer_id, record, classes)
        return matrix

    return run_scalar


def _make_ingest_flows(sizes: dict, fused: bool):
    """Wire datagrams → decoded flows → aggregated matrix, end to end."""
    from ..netflow.datagram import DatagramCodec
    from ..netflow.matrix import TrafficMatrix

    datagrams, addresses = _ingest_workload(sizes)
    customer_of = {int(addr): i for i, addr in enumerate(addresses)}

    if fused:
        # Vectorized routing, the same sorted-searchsorted idiom the
        # serving engine and OnlineXatu use on their columnar lanes.
        cids = np.arange(len(addresses), dtype=np.int64)

        def run():
            matrix = TrafficMatrix()
            for blob in datagrams:
                _header, batch = DatagramCodec.decode_batch(blob)
                pos = np.searchsorted(
                    addresses, batch.array["dst_addr"].astype(np.int64)
                )
                matrix.add_batch(cids[pos], batch, {})
            return matrix

        return run

    def run_scalar():
        matrix = TrafficMatrix()
        for blob in datagrams:
            _header, records = DatagramCodec.decode(blob)
            for record in records:
                matrix.add_flow(customer_of[record.dst_addr], record, [])
        return matrix

    return run_scalar


def _make_sampler(sizes: dict, fused: bool):
    from ..netflow.records import FlowBatch
    from ..netflow.sampler import PacketSampler

    s = sizes["sampler"]
    rng = np.random.default_rng(11)
    addresses = np.arange(50_000, 50_010, dtype=np.int64)
    batch = FlowBatch(_flow_array(s["flows"], addresses, rng))
    records = batch.to_records()

    if fused:

        def run():
            sampler = PacketSampler(s["rate"], rng=np.random.default_rng(12))
            return sampler.sample_batch(batch)

        return run

    def run_scalar():
        sampler = PacketSampler(s["rate"], rng=np.random.default_rng(12))
        return [kept for kept in map(sampler.sample, records) if kept is not None]

    return run_scalar


def _make_ingest_obs(sizes: dict, enabled: bool):
    """The full columnar ingest path under a telemetry switch state.

    Collection *and* aggregation — the overhead budget is judged against
    the work a real minute of ingest always does, not against the bare
    (sub-millisecond) decode.
    """
    from ..netflow.matrix import TrafficMatrix
    from ..netflow.sampler import FlowCollector
    from ..obs import set_enabled

    datagrams, addresses = _ingest_workload(sizes)
    cids = np.arange(len(addresses), dtype=np.int64)

    def run():
        previous = set_enabled(enabled)
        try:
            collector = FlowCollector()
            matrix = TrafficMatrix()
            for blob in datagrams:
                batch = collector.ingest_datagram_batch(blob)
                pos = np.searchsorted(
                    addresses, batch.array["dst_addr"].astype(np.int64)
                )
                matrix.add_batch(cids[pos], batch, {})
            collector.drain_batch()
        finally:
            set_enabled(previous)

    return run


def run_ingest(
    tag: str = "ingest",
    smoke: bool = False,
    reps: int | None = None,
    cases: tuple[str, ...] | None = None,
) -> BenchReport:
    """Run the ingest benchmarks in both variants and return the report."""
    sizes = _sizes(smoke)
    if reps is None:
        reps = 1 if smoke else 5
    warmup = 0 if smoke else 1
    report = BenchReport(tag=tag, smoke=smoke, sizes=sizes)
    builders = {
        "datagram_decode": _make_datagram_decode,
        "matrix_aggregate": _make_matrix_aggregate,
        "ingest_flows": _make_ingest_flows,
        "sampler": _make_sampler,
    }
    for case in cases or INGEST_BENCH_CASES:
        if case == "ingest_obs":
            for variant, enabled in (("disabled", False), ("enabled", True)):
                fn = _make_ingest_obs(sizes, enabled)
                report.add(
                    BenchTiming(case, variant, tuple(time_callable(fn, reps, warmup)))
                )
            continue
        builder = builders[case]
        for variant, fused in (("fused", True), ("unfused", False)):
            fn = builder(sizes, fused)
            report.add(
                BenchTiming(case, variant, tuple(time_callable(fn, reps, warmup)))
            )
    return report
