"""Unit tests for the NetFlow substrate: records, codec, addressing, routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import (
    BOGON_CIDRS,
    FLOW_WIRE_SIZE,
    FlowRecord,
    Protocol,
    RouteTable,
    SpoofVerdict,
    TcpFlags,
    cidr_to_range,
    decode_flow,
    decode_flows,
    encode_flow,
    encode_flows,
    in_cidr,
    int_to_ip,
    ip_to_int,
    is_bogon,
    subnet24,
    subnet24_str,
)


def make_flow(**overrides) -> FlowRecord:
    base = dict(
        timestamp=12,
        src_addr=ip_to_int("45.1.2.3"),
        dst_addr=ip_to_int("203.1.0.0"),
        src_port=53,
        dst_port=4444,
        protocol=int(Protocol.UDP),
        packets=10,
        bytes_=5120,
    )
    base.update(overrides)
    return FlowRecord(**base)


class TestFlowRecord:
    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            make_flow(packets=-1)

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            make_flow(src_port=70000)

    def test_sampling_rate_minimum(self):
        with pytest.raises(ValueError):
            make_flow(sampling_rate=0)

    def test_estimated_counters_scale_by_rate(self):
        flow = make_flow(sampling_rate=100)
        assert flow.estimated_bytes == 512000
        assert flow.estimated_packets == 1000


class TestCodec:
    def test_roundtrip(self):
        flow = make_flow(tcp_flags=int(TcpFlags.SYN | TcpFlags.ACK), src_country="DE")
        assert decode_flow(encode_flow(flow)) == flow

    def test_wire_size_fixed(self):
        assert len(encode_flow(make_flow())) == FLOW_WIRE_SIZE

    def test_batch_roundtrip(self):
        flows = [make_flow(timestamp=i) for i in range(5)]
        assert decode_flows(encode_flows(flows)) == flows

    def test_empty_batch(self):
        assert decode_flows(encode_flows([])) == []

    def test_truncated_batch_raises(self):
        blob = encode_flows([make_flow()])
        with pytest.raises(ValueError, match="truncated"):
            decode_flows(blob[:-3])

    def test_missing_header_raises(self):
        with pytest.raises(ValueError, match="count header"):
            decode_flows(b"\x01")

    @settings(max_examples=50, deadline=None)
    @given(
        timestamp=st.integers(0, 2**31 - 1),
        src=st.integers(0, 2**32 - 1),
        dst=st.integers(0, 2**32 - 1),
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
        proto=st.sampled_from([1, 6, 17]),
        packets=st.integers(0, 2**31 - 1),
        bytes_=st.integers(0, 2**60),
        flags=st.integers(0, 63),
        rate=st.integers(1, 10000),
        country=st.sampled_from(["US", "DE", "CN", "BR"]),
    )
    def test_roundtrip_property(
        self, timestamp, src, dst, sport, dport, proto, packets, bytes_, flags, rate, country
    ):
        flow = FlowRecord(
            timestamp=timestamp, src_addr=src, dst_addr=dst, src_port=sport,
            dst_port=dport, protocol=proto, packets=packets, bytes_=bytes_,
            tcp_flags=flags, src_country=country, sampling_rate=rate,
        )
        assert decode_flow(encode_flow(flow)) == flow


class TestAddressing:
    def test_ip_roundtrip_known(self):
        assert int_to_ip(ip_to_int("192.168.1.1")) == "192.168.1.1"
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF

    @settings(max_examples=50, deadline=None)
    @given(addr=st.integers(0, 2**32 - 1))
    def test_ip_roundtrip_property(self, addr):
        assert ip_to_int(int_to_ip(addr)) == addr

    def test_bad_ip_raises(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")
        with pytest.raises(ValueError):
            ip_to_int("1.2.3.999")
        with pytest.raises(ValueError):
            int_to_ip(2**32)

    def test_subnet24(self):
        addr = ip_to_int("10.20.30.40")
        assert int_to_ip(subnet24(addr)) == "10.20.30.0"
        assert subnet24_str(addr) == "10.20.30.0/24"

    def test_cidr_range(self):
        lo, hi = cidr_to_range("10.0.0.0/8")
        assert lo == ip_to_int("10.0.0.0")
        assert hi == ip_to_int("10.255.255.255")

    def test_cidr_zero_length_covers_everything(self):
        lo, hi = cidr_to_range("0.0.0.0/0")
        assert (lo, hi) == (0, 0xFFFFFFFF)

    def test_in_cidr(self):
        assert in_cidr(ip_to_int("192.168.5.5"), "192.168.0.0/16")
        assert not in_cidr(ip_to_int("192.169.0.0"), "192.168.0.0/16")

    def test_bad_prefix_length_raises(self):
        with pytest.raises(ValueError):
            cidr_to_range("10.0.0.0/33")


class TestBogons:
    @pytest.mark.parametrize("ip", ["10.1.2.3", "192.168.0.1", "172.16.5.5", "127.0.0.1", "100.64.0.1"])
    def test_known_bogons(self, ip):
        assert is_bogon(ip_to_int(ip))

    @pytest.mark.parametrize("ip", ["8.8.8.8", "45.1.1.1", "203.0.112.1", "172.32.0.1"])
    def test_non_bogons(self, ip):
        assert not is_bogon(ip_to_int(ip))

    def test_all_bogon_cidrs_self_consistent(self):
        for cidr in BOGON_CIDRS:
            lo, hi = cidr_to_range(cidr)
            assert is_bogon(lo) and is_bogon(hi)


class TestRouteTable:
    def make_table(self):
        table = RouteTable()
        table.announce("45.0.0.0/16", origin_asn=100)
        table.announce("46.0.0.0/16", origin_asn=200)
        return table

    def test_lookup_finds_covering_prefix(self):
        table = self.make_table()
        entry = table.lookup(ip_to_int("45.0.5.5"))
        assert entry is not None and entry.origin_asn == 100

    def test_lookup_miss_returns_none(self):
        assert self.make_table().lookup(ip_to_int("47.0.0.1")) is None

    def test_classify_bogon_first(self):
        table = self.make_table()
        assert table.classify_source(ip_to_int("10.0.0.1")) == SpoofVerdict.BOGON

    def test_classify_unrouted(self):
        table = self.make_table()
        assert table.classify_source(ip_to_int("50.0.0.1")) == SpoofVerdict.UNROUTED

    def test_classify_invalid_origin(self):
        table = self.make_table()
        verdict = table.classify_source(ip_to_int("45.0.0.1"), observed_asn=200)
        assert verdict == SpoofVerdict.INVALID_ORIGIN

    def test_customer_cone_allows_member_origin(self):
        table = self.make_table()
        table.add_cone(200, {100})
        verdict = table.classify_source(ip_to_int("45.0.0.1"), observed_asn=200)
        assert verdict == SpoofVerdict.VALID

    def test_valid_without_observed_asn(self):
        table = self.make_table()
        assert table.classify_source(ip_to_int("45.0.0.1")) == SpoofVerdict.VALID
        assert not table.is_spoofed(ip_to_int("45.0.0.1"))

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            RouteTable().announce((10, 5), 1)

    def test_len_counts_entries(self):
        assert len(self.make_table()) == 2

    @pytest.mark.parametrize("n_prefixes", [0, 1, 7])
    def test_spoofed_mask_equals_is_spoofed_per_address(self, n_prefixes):
        """Range edges of every prefix and bogon block (overlapping and
        nested prefixes included), both ends of the address space, and
        announcements that arrive after a first lookup."""
        rng = np.random.default_rng(n_prefixes)
        table = RouteTable()
        assert table.spoofed_mask([]).shape == (0,)
        edges = [0, 1, 2**32 - 1]
        for cidr in BOGON_CIDRS:
            lo, hi = cidr_to_range(cidr)
            edges += [lo - 1, lo, hi, hi + 1]
        for k in range(n_prefixes):
            lo = int(rng.integers(0, 2**32 - 2**20))
            hi = lo + int(rng.integers(0, 2**20))
            table.announce((lo, hi), origin_asn=k)
            table.announce((lo + 5, lo + 9), origin_asn=100 + k)  # nested
            edges += [lo - 1, lo, lo + 4, lo + 5, lo + 9, lo + 10, hi, hi + 1]
            if k == 3:  # a lookup mid-way: later announcements must re-sort
                assert not table.spoofed_mask([lo])[0] or is_bogon(lo)
        addrs = [a for a in edges if 0 <= a < 2**32]
        addrs += rng.integers(0, 2**32, size=500).tolist()
        mask = table.spoofed_mask(np.array(addrs, dtype=np.uint32))
        assert mask.dtype == bool
        assert mask.tolist() == [table.is_spoofed(a) for a in addrs]
