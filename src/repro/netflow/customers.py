"""Columnar destination-address → customer-id lookup.

Every served minute routes its flows to customers twice from the same
kind of deployment context — the engine to pick a shard, each shard's
detector to pick a traffic-matrix row.  The context is either a plain
``{dst_addr: customer_id}`` dict or an analytic router exposing
``route_batch`` (:class:`repro.serve.ContiguousCustomerRouter`);
:class:`CustomerLookup` answers both the same way.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

__all__ = ["CustomerLookup"]


class CustomerLookup:
    """Vectorized ``dst → customer`` routing over a dict or a router.

    A dict is copied, once, into sorted address/customer arrays, and
    ``mapping`` is a read-only view of that copy: there is no way to change
    the mapping behind the arrays, so a new table means a new lookup.  A
    router is kept by reference (it is immutable context, and materializing
    it as a dict would defeat its purpose).
    """

    __slots__ = ("mapping", "is_table", "_addrs", "_cids")

    def __init__(self, customer_of=None) -> None:
        # A dict (view) is checkpointable state; a router is re-supplied.
        self.is_table = isinstance(customer_of, (dict, MappingProxyType, type(None)))
        if not self.is_table:
            self.mapping = customer_of
            return
        table = dict(customer_of or {})
        self.mapping = MappingProxyType(table)
        addrs = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
        cids = np.fromiter(table.values(), dtype=np.int64, count=len(table))
        order = np.argsort(addrs, kind="stable")
        self._addrs, self._cids = addrs[order], cids[order]

    def route(self, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(customer_ids, routed)`` for an int64 address column.

        ``customer_ids`` is only meaningful where ``routed`` is True.
        """
        if not self.is_table:
            cids = self.mapping.route_batch(dst)
            return cids, cids >= 0
        addrs = self._addrs
        if not len(addrs):
            return np.zeros(len(dst), dtype=np.int64), np.zeros(len(dst), dtype=bool)
        pos = np.minimum(np.searchsorted(addrs, dst), len(addrs) - 1)
        return self._cids[pos], addrs[pos] == dst
