"""Columnar destination-address → customer-id lookup.

Every served minute routes its flows to customers twice from the same
kind of deployment context — the engine to pick a shard, each shard's
detector to pick a traffic-matrix row.  The context is either a plain
``{dst_addr: customer_id}`` dict or an analytic router exposing
``route_batch`` (:class:`repro.serve.ContiguousCustomerRouter`);
:class:`CustomerLookup` answers both the same way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CustomerLookup"]


class CustomerLookup:
    """Vectorized ``dst → customer`` routing over a dict or a router.

    A dict is searched through sorted address/customer arrays, rebuilt
    when the dict is replaced (identity) or grows (length) — the only
    mutations its owners perform between restores.
    """

    __slots__ = ("_table", "_size", "_addrs", "_cids")

    def __init__(self) -> None:
        self._table: dict[int, int] | None = None
        self._size = -1
        self._addrs = self._cids = np.empty(0, dtype=np.int64)

    def route(self, customer_of, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(customer_ids, routed)`` for an int64 address column.

        ``customer_ids`` is only meaningful where ``routed`` is True.
        """
        if not isinstance(customer_of, dict):
            cids = customer_of.route_batch(dst)
            return cids, cids >= 0
        if self._table is not customer_of or self._size != len(customer_of):
            n = len(customer_of)
            addrs = np.fromiter(customer_of.keys(), dtype=np.int64, count=n)
            cids = np.fromiter(customer_of.values(), dtype=np.int64, count=n)
            order = np.argsort(addrs, kind="stable")
            self._table, self._size = customer_of, n
            self._addrs, self._cids = addrs[order], cids[order]
        addrs = self._addrs
        if not len(addrs):
            return np.zeros(len(dst), dtype=np.int64), np.zeros(len(dst), dtype=bool)
        pos = np.minimum(np.searchsorted(addrs, dst), len(addrs) - 1)
        return self._cids[pos], addrs[pos] == dst
