"""The six prevalent attack types and their flow-level generators.

Table 2 of the paper covers UDP flood, TCP ACK, TCP SYN, TCP RST, DNS
amplification, and ICMP flood — 97.2% of all NetScout alerts in the ISP
dataset.  Each :class:`AttackType` carries the coarse-grained signature CDet
would emit (§2.1: destination, transport protocol, and source and/or
destination ports) plus the flow-shape parameters its generator uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..netflow.records import FlowBatch, Protocol, TcpFlags, encode_countries

__all__ = [
    "AttackType",
    "ATTACK_TYPE_MIX",
    "TYPE_TRANSITIONS",
    "AttackSignature",
    "signature_for",
    "generate_attack_flows",
]


class AttackType(str, enum.Enum):
    """The six attack types evaluated in the paper."""

    UDP_FLOOD = "udp_flood"
    TCP_ACK = "tcp_ack"
    TCP_SYN = "tcp_syn"
    TCP_RST = "tcp_rst"
    DNS_AMPLIFICATION = "dns_amplification"
    ICMP_FLOOD = "icmp_flood"


# Table 2: share of alerts by type.
ATTACK_TYPE_MIX: dict[AttackType, float] = {
    AttackType.UDP_FLOOD: 0.263,
    AttackType.TCP_ACK: 0.620,
    AttackType.TCP_SYN: 0.014,
    AttackType.TCP_RST: 0.011,
    AttackType.DNS_AMPLIFICATION: 0.072,
    AttackType.ICMP_FLOOD: 0.020,
}

# Figure 4(b): consecutive attacks on the same customer overwhelmingly repeat
# the same type (97.9% overall; 98.3% for UDP, 97.4% for TCP ACK), with the
# cross-type explorations the paper calls out (SYN→RST 3.7%, DNS→UDP 2.3%,
# ICMP→UDP 0.1%).  Rows are renormalized by the campaign engine.
TYPE_TRANSITIONS: dict[AttackType, dict[AttackType, float]] = {
    AttackType.UDP_FLOOD: {
        AttackType.UDP_FLOOD: 0.983,
        AttackType.TCP_ACK: 0.010,
        AttackType.DNS_AMPLIFICATION: 0.007,
    },
    AttackType.TCP_ACK: {
        AttackType.TCP_ACK: 0.974,
        AttackType.TCP_SYN: 0.012,
        AttackType.UDP_FLOOD: 0.014,
    },
    AttackType.TCP_SYN: {
        AttackType.TCP_SYN: 0.943,
        AttackType.TCP_RST: 0.037,
        AttackType.TCP_ACK: 0.020,
    },
    AttackType.TCP_RST: {
        AttackType.TCP_RST: 0.950,
        AttackType.TCP_SYN: 0.030,
        AttackType.TCP_ACK: 0.020,
    },
    AttackType.DNS_AMPLIFICATION: {
        AttackType.DNS_AMPLIFICATION: 0.967,
        AttackType.UDP_FLOOD: 0.023,
        AttackType.TCP_ACK: 0.010,
    },
    AttackType.ICMP_FLOOD: {
        AttackType.ICMP_FLOOD: 0.989,
        AttackType.UDP_FLOOD: 0.001,
        AttackType.TCP_ACK: 0.010,
    },
}


@dataclass(frozen=True, slots=True)
class AttackSignature:
    """The coarse signature CDet attaches to an alert (§2.1).

    Matching is on destination address, transport protocol, and (when set)
    source/destination port.  This is exactly what gets diverted to CScrub.
    """

    dst_addr: int
    protocol: int
    src_port: int | None = None
    dst_port: int | None = None
    tcp_flags: int | None = None

    def match_mask(self, batch: FlowBatch) -> np.ndarray:
        """Which flows of ``batch`` match this diversion signature, as a
        boolean mask (a set ``tcp_flags`` needs any one of its bits)."""
        array = batch.array
        mask = (array["dst_addr"] == self.dst_addr) & (array["protocol"] == self.protocol)
        if self.src_port is not None:
            mask &= array["src_port"] == self.src_port
        if self.dst_port is not None:
            mask &= array["dst_port"] == self.dst_port
        if self.tcp_flags is not None:
            mask &= (array["tcp_flags"] & self.tcp_flags) != 0
        return mask


# Flow-shape parameters per type: (mean packet size bytes, src_port,
# dst_port, tcp_flags).  None ports mean "random ephemeral".
_TYPE_SHAPE: dict[AttackType, tuple[int, int | None, int | None, int]] = {
    AttackType.UDP_FLOOD: (512, 53, None, 0),
    AttackType.TCP_ACK: (64, None, 80, int(TcpFlags.ACK)),
    AttackType.TCP_SYN: (60, None, 443, int(TcpFlags.SYN)),
    AttackType.TCP_RST: (60, None, 80, int(TcpFlags.RST)),
    AttackType.DNS_AMPLIFICATION: (3000, 53, None, 0),
    AttackType.ICMP_FLOOD: (84, 0, 0, 0),
}

_TYPE_PROTOCOL: dict[AttackType, int] = {
    AttackType.UDP_FLOOD: int(Protocol.UDP),
    AttackType.TCP_ACK: int(Protocol.TCP),
    AttackType.TCP_SYN: int(Protocol.TCP),
    AttackType.TCP_RST: int(Protocol.TCP),
    AttackType.DNS_AMPLIFICATION: int(Protocol.UDP),
    AttackType.ICMP_FLOOD: int(Protocol.ICMP),
}


def signature_for(attack_type: AttackType, dst_addr: int) -> AttackSignature:
    """The CDet-style coarse signature for an attack of ``attack_type``.

    Mirrors the example of Figure 2: a UDP flood's signature names the
    victim's address, protocol UDP, and source port 53.
    """
    _size, src_port, dst_port, flags = _TYPE_SHAPE[attack_type]
    return AttackSignature(
        dst_addr=dst_addr,
        protocol=_TYPE_PROTOCOL[attack_type],
        src_port=src_port,
        dst_port=dst_port,
        tcp_flags=flags or None,
    )


def generate_attack_flows(
    attack_type: AttackType,
    minute: int,
    dst_addr: int,
    sources: np.ndarray,
    total_bytes: float,
    rng: np.random.Generator,
    country_of: dict[int, str] | None = None,
) -> FlowBatch:
    """Emit one minute of attack flows totalling roughly ``total_bytes``.

    ``sources`` is the array of participating source addresses this minute;
    bytes are split across them log-normally (bots differ in capacity).
    A port the type leaves open is drawn per flow, source port before
    destination port: one vector draw over the open slots in row-major
    order.
    """
    if len(sources) == 0 or total_bytes <= 0:
        return FlowBatch.empty()
    mean_size, src_port, dst_port, flags = _TYPE_SHAPE[attack_type]
    n = len(sources)
    weights = rng.lognormal(mean=0.0, sigma=0.6, size=n)
    weights /= weights.sum()
    flow_bytes = np.maximum(mean_size, (total_bytes * weights).astype(np.int64))
    ports = np.tile(
        [-1 if src_port is None else src_port, -1 if dst_port is None else dst_port], (n, 1)
    )
    ephemeral = ports < 0
    ports[ephemeral] = rng.integers(1024, 65535, size=int(ephemeral.sum()))
    countries = country_of or {}
    return FlowBatch.from_columns(
        n,
        timestamp=minute,
        src_addr=sources,
        dst_addr=dst_addr,
        src_port=ports[:, 0],
        dst_port=ports[:, 1],
        protocol=_TYPE_PROTOCOL[attack_type],
        packets=np.maximum(1, np.rint(flow_bytes / mean_size).astype(np.int64)),
        bytes=flow_bytes,
        tcp_flags=flags,
        src_country=encode_countries([countries.get(a, "US") for a in np.asarray(sources).tolist()]),
    )
