"""A corrupt export datagram is refused at the decoder, never inside a shard.

A datagram whose bytes were damaged in transit either fails to decode —
``ValueError``, with the collector and its feed-health accounting exactly
as they were — or decodes to records every shard can fold.  What must never
happen is the old failure mode: the collector keeps a record the matrix
fold rejects, the shard that owns it raises, the engine swallows the error
and the shard's customers go unscored from then on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import FLOW_DTYPE, FLOW_WIRE_SIZE, DatagramCodec
from repro.netflow.datagram import HEADER_SIZE
from repro.serve import ServeConfig, ServeEngine
from tests.test_serve import ADDRESS_OF, _checkpoint_files, _minutes_of_flows, _xatu_factory

MINUTES = 8
CORRUPT_AT = 5
_COUNTRY = FLOW_DTYPE.fields["src_country"][1]  # field offset in a record


def _country_at(record: int) -> int:
    """Where record ``record``'s two country bytes start in a datagram."""
    return HEADER_SIZE + record * FLOW_WIRE_SIZE + _COUNTRY


def _datagrams(minutes: int) -> list[bytes]:
    codec = DatagramCodec(engine_id=1)
    return [
        codec.encode(flows, unix_secs=minute * 60)
        for minute, flows in enumerate(_minutes_of_flows(minutes))
    ]


def _engine() -> ServeEngine:
    return ServeEngine(_xatu_factory(), ADDRESS_OF, ServeConfig(shards=2))


def test_a_non_ascii_country_is_refused_and_the_feed_serves_on(tmp_path):
    """The hostile engine also receives a copy of minute 5's datagram with
    record 0's country bytes flipped past ASCII (record 0 routes to shard
    0).  Decoding refuses it, the feed operator drops it, and the engine
    emits the alerts and writes the checkpoint bytes of an engine that
    never received it, with every shard healthy throughout."""

    def serve(hostile: bool):
        alerts = []
        with _engine() as engine:
            for minute, blob in enumerate(_datagrams(MINUTES)):
                if hostile and minute == CORRUPT_AT:
                    corrupt = bytearray(blob)
                    at = _country_at(0)
                    corrupt[at : at + 2] = bytes(b ^ 0x80 for b in blob[at : at + 2])
                    health = engine.feed_health()
                    with pytest.raises(ValueError, match="non-ASCII country"):
                        engine.ingest_datagram(bytes(corrupt))
                    assert engine.feed_health() == health
                engine.ingest_datagram(blob)
                alerts += [(a.minute, a.customer_id, a.survival) for a in engine.tick(minute)]
                assert engine.shard_health() == {0: True, 1: True}
            files = _checkpoint_files(engine.checkpoint(tmp_path / str(hostile)))
        return alerts, files

    assert serve(hostile=True) == serve(hostile=False)


def test_single_byte_mutations_are_refused_or_served_healthy():
    """Any one byte of a valid datagram, set to any value: the datagram is
    either refused with ``ValueError`` before the collector's feed health
    moves, or it is accepted and the minute it lands in leaves every shard
    healthy.  The second run aims every mutation at a country byte, where
    a value past ASCII must always be refused."""
    blobs = _datagrams(3)
    last = blobs[-1]
    records = (len(last) - HEADER_SIZE) // FLOW_WIRE_SIZE
    countries = [_country_at(record) + i for record in range(records) for i in (0, 1)]

    def refused_or_served(position: int, value: int) -> None:
        mutated = bytearray(last)
        mutated[position] = value
        with _engine() as engine:
            for minute, blob in enumerate(blobs[:-1]):
                engine.ingest_datagram(blob)
                engine.tick(minute)
            health = engine.feed_health()
            try:
                engine.ingest_datagram(bytes(mutated))
            except ValueError:
                assert engine.feed_health() == health
                assert value >= 0x80 or position not in countries
            else:
                assert value < 0x80 or position not in countries
            engine.tick(len(blobs) - 1)
            assert all(engine.shard_health().values()), engine.shard_health()

    anywhere = given(st.integers(0, len(last) - 1), st.integers(0, 255))(refused_or_served)
    on_a_country = given(st.sampled_from(countries), st.integers(0, 255))(refused_or_served)
    settings(max_examples=24)(anywhere)()
    settings(max_examples=12)(on_a_country)()
