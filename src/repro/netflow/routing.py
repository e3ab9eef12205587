"""A toy inter-domain routing substrate for spoof classification.

The paper's A3 signal (§5.1) classifies a source address as spoofed when it
is (a) a bogon (private/reserved space), (b) unrouted — not covered by any
prefix in BGP route collectors, or (c) invalid-origin — announced traffic
arriving from an AS other than the prefix's origin (or its customer cone).

The reproduction builds the same three checks against a
:class:`RouteTable` populated by the synthetic world.  The checks are
deliberately *imperfect*, exactly as the paper stresses: spoofed traffic
using routed, valid-origin addresses is invisible to them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .addressing import cidr_to_range

__all__ = ["BOGON_CIDRS", "is_bogon", "RouteEntry", "RouteTable", "SpoofVerdict"]

# RFC1918 private, RFC5737 documentation, RFC6598 shared address space, plus
# loopback/link-local/multicast/reserved — the "obviously spoofed" set.
BOGON_CIDRS: tuple[str, ...] = (
    "0.0.0.0/8",
    "10.0.0.0/8",
    "100.64.0.0/10",
    "127.0.0.0/8",
    "169.254.0.0/16",
    "172.16.0.0/12",
    "192.0.2.0/24",
    "192.168.0.0/16",
    "198.18.0.0/15",
    "198.51.100.0/24",
    "203.0.113.0/24",
    "224.0.0.0/4",
    "240.0.0.0/4",
)

_BOGON_RANGES: tuple[tuple[int, int], ...] = tuple(
    sorted(cidr_to_range(c) for c in BOGON_CIDRS)
)
_BOGON_STARTS = [lo for lo, _ in _BOGON_RANGES]
_BOGON_LO, _BOGON_HI = np.array(_BOGON_RANGES, dtype=np.int64).T


def _in_ranges(addrs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per address: does the range with the greatest start <= it cover it
    (inclusive ``lo``/``hi`` bounds, ascending by ``lo``)."""
    if not len(lo):
        return np.zeros(len(addrs), dtype=bool)
    slot = np.searchsorted(lo, addrs, side="right") - 1
    return (slot >= 0) & (addrs <= hi[slot])


def is_bogon(addr: int) -> bool:
    """Whether ``addr`` falls in reserved/private (bogon) space."""
    idx = bisect_right(_BOGON_STARTS, addr) - 1
    if idx < 0:
        return False
    lo, hi = _BOGON_RANGES[idx]
    return lo <= addr <= hi


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One routed prefix: inclusive integer range plus its origin AS."""

    lo: int
    hi: int
    origin_asn: int


class SpoofVerdict:
    """Classification outcomes for a source address."""

    VALID = "valid"
    BOGON = "bogon"
    UNROUTED = "unrouted"
    INVALID_ORIGIN = "invalid_origin"


class RouteTable:
    """Longest-prefix-match-free interval route table.

    The synthetic world allocates disjoint prefixes, so an interval table
    with binary search is sufficient (and fast).  ``customer_cones`` maps an
    AS to the set of ASes whose prefixes may legitimately source traffic
    through it (the "full cone with adjustments for multi-AS organizations"
    of §5.1).
    """

    def __init__(self) -> None:
        self._entries: list[RouteEntry] = []
        self._starts: list[int] = []
        self._lo = self._hi = np.zeros(0, dtype=np.int64)
        self._sorted = True
        self.customer_cones: dict[int, set[int]] = {}

    def announce(self, cidr_or_range: str | tuple[int, int], origin_asn: int) -> None:
        """Insert a routed prefix with its origin AS."""
        if isinstance(cidr_or_range, str):
            lo, hi = cidr_to_range(cidr_or_range)
        else:
            lo, hi = cidr_or_range
        if lo > hi:
            raise ValueError("prefix range is inverted")
        self._entries.append(RouteEntry(lo, hi, origin_asn))
        self._sorted = False

    def add_cone(self, transit_asn: int, member_asns: set[int]) -> None:
        """Register ``member_asns`` as the customer cone of ``transit_asn``."""
        self.customer_cones.setdefault(transit_asn, set()).update(member_asns)
        self.customer_cones[transit_asn].add(transit_asn)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._entries.sort(key=lambda e: e.lo)
            self._starts = [e.lo for e in self._entries]
            self._lo = np.array(self._starts, dtype=np.int64)
            self._hi = np.array([e.hi for e in self._entries], dtype=np.int64)
            self._sorted = True

    def ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """The routed prefixes' inclusive ``(lo, hi)`` bounds, ascending by
        ``lo`` (int64; built once per change of the table)."""
        self._ensure_sorted()
        return self._lo, self._hi

    def lookup(self, addr: int) -> RouteEntry | None:
        """Return the routed entry covering ``addr``, if any."""
        self._ensure_sorted()
        idx = bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        entry = self._entries[idx]
        return entry if entry.lo <= addr <= entry.hi else None

    def classify_source(self, addr: int, observed_asn: int | None = None) -> str:
        """Classify a source address per the paper's three spoof categories.

        ``observed_asn`` is the AS from which the traffic entered the ISP
        (known for synthetic traffic); when provided, origin validation is
        applied on top of the bogon and routedness checks.
        """
        if is_bogon(addr):
            return SpoofVerdict.BOGON
        entry = self.lookup(addr)
        if entry is None:
            return SpoofVerdict.UNROUTED
        if observed_asn is not None and observed_asn != entry.origin_asn:
            cone = self.customer_cones.get(observed_asn, set())
            if entry.origin_asn not in cone:
                return SpoofVerdict.INVALID_ORIGIN
        return SpoofVerdict.VALID

    def is_spoofed(self, addr: int, observed_asn: int | None = None) -> bool:
        """Boolean convenience wrapper over :meth:`classify_source`."""
        return self.classify_source(addr, observed_asn) != SpoofVerdict.VALID

    def spoofed_mask(self, addrs) -> np.ndarray:
        """:meth:`is_spoofed` (no observed AS) over an address array: bogon
        or not covered by a routed prefix."""
        addrs = np.asarray(addrs, dtype=np.int64)
        routed = _in_ranges(addrs, *self.ranges())
        return _in_ranges(addrs, _BOGON_LO, _BOGON_HI) | ~routed

    def __len__(self) -> int:
        return len(self._entries)
