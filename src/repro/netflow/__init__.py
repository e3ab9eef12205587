"""NetFlow substrate: records, wire codec, sampling, routing, aggregation."""

from .addressing import cidr_to_range, in_cidr, int_to_ip, ip_to_int, subnet24, subnet24_str
from .matrix import (
    N_VOLUMETRIC,
    POPULAR_COUNTRIES,
    POPULAR_PORTS,
    SOURCE_CLASS_ALL,
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    VOLUMETRIC_FEATURE_NAMES,
    TrafficMatrix,
    VolumetricAccumulator,
)
from .records import (
    FLOW_DTYPE,
    FLOW_WIRE_SIZE,
    FlowBatch,
    FlowRecord,
    Protocol,
    TcpFlags,
    check_flow_columns,
    decode_flows_batch,
    encode_flows,
)
from .datagram import DatagramCodec, DatagramHeader, SequenceTracker
from .routing import BOGON_CIDRS, RouteEntry, RouteTable, SpoofVerdict, is_bogon
from .sampler import FeedHealth, FlowCollector

__all__ = [
    "FlowRecord", "FlowBatch", "Protocol", "TcpFlags", "FLOW_DTYPE",
    "encode_flows", "decode_flows_batch", "FLOW_WIRE_SIZE", "check_flow_columns",
    "ip_to_int", "int_to_ip", "subnet24", "subnet24_str", "in_cidr", "cidr_to_range",
    "BOGON_CIDRS", "is_bogon", "RouteEntry", "RouteTable", "SpoofVerdict",
    "FlowCollector", "FeedHealth",
    "TrafficMatrix", "VolumetricAccumulator",
    "POPULAR_PORTS", "POPULAR_COUNTRIES", "VOLUMETRIC_FEATURE_NAMES", "N_VOLUMETRIC",
    "SOURCE_CLASS_ALL", "SOURCE_CLASS_BLOCKLIST", "SOURCE_CLASS_PREV_ATTACKER",
    "SOURCE_CLASS_SPOOFED",
    "DatagramCodec", "DatagramHeader", "SequenceTracker",
]
