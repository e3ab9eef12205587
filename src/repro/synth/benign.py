"""Benign background traffic model.

Each customer receives diurnal web/DNS/mail-shaped traffic from the benign
client population.  The model deliberately includes *benign bursts* — flash
crowds lasting a few minutes — because the whole premise of the paper (§1)
is that "benign traffic can be bursty" and volumetric detectors must stay
conservative to avoid paging on those bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..netflow.records import FlowBatch, Protocol, TcpFlags, encode_countries
from .world import Customer

__all__ = ["BenignTrafficModel", "BenignConfig", "BudgetedBenignTraffic"]


@dataclass
class BenignConfig:
    """Shape parameters for the benign traffic generator."""

    minutes_per_day: int = 1440
    flows_per_minute: int = 6
    burst_probability: float = 0.002  # per customer-minute
    burst_multiplier: float = 6.0
    burst_duration: int = 4  # minutes
    noise_sigma: float = 0.15
    # Concept drift (scenario matrix): from ``drift_minute`` on, the benign
    # distribution changes shape.  "flash_crowd" multiplies the burst
    # frequency by ``drift_scale`` × 10 (a viral-event regime of frequent
    # legitimate surges); "diurnal_shift" moves the diurnal peak half a day
    # and raises the baseline by ``drift_scale``.  Neither is an attack —
    # detectors must ride the drift out without alerting.
    drift_kind: str | None = None  # None | "flash_crowd" | "diurnal_shift"
    drift_minute: int | None = None
    drift_scale: float = 1.5


# (protocol, src_port, dst_port, tcp_flags, weight) — a web-dominated mix.
_BENIGN_MIX = (
    (int(Protocol.TCP), 443, 0, int(TcpFlags.ACK | TcpFlags.PSH), 0.45),
    (int(Protocol.TCP), 80, 0, int(TcpFlags.ACK), 0.25),
    (int(Protocol.UDP), 53, 0, 0, 0.12),
    (int(Protocol.UDP), 123, 0, 0, 0.05),
    (int(Protocol.TCP), 0, 443, int(TcpFlags.SYN | TcpFlags.ACK), 0.08),
    (int(Protocol.ICMP), 0, 0, 0, 0.05),
)
# The mix as columns: (protocol, src_port, dst_port, tcp_flags) per kind,
# and how many of each kind's ports are ephemeral (drawn per flow).
_MIX_COLUMNS = np.array([row[:4] for row in _BENIGN_MIX], dtype=np.int64)
_EPHEMERAL_PORTS = (_MIX_COLUMNS[:, 1:3] == 0).sum(axis=1)


class _Draws(NamedTuple):
    """What the benign stream decides for a run of flows: each flow's byte
    count, client index and mix kind, and the ephemeral ports in flow
    order, source port before destination port."""

    flow_bytes: np.ndarray
    picks: np.ndarray
    kinds: np.ndarray
    ports: np.ndarray


class BenignTrafficModel:
    """Generates one customer-minute of benign flows at a time."""

    def __init__(
        self,
        clients: np.ndarray,
        country_of: dict[int, str],
        config: BenignConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(clients) == 0:
            raise ValueError("benign client pool is empty")
        self.clients = clients
        self.country_of = country_of
        self.config = config or BenignConfig()
        self._rng = rng or np.random.default_rng(0)
        self._burst_until: dict[int, int] = {}
        weights = np.array([w for *_rest, w in _BENIGN_MIX])
        self._mix_weights = weights / weights.sum()
        # Each client's country code, read once: flows pick clients by index.
        self._client_countries = encode_countries(
            [country_of.get(int(a), "US") for a in clients]
        )

    def rate_at(self, customer: Customer, minute: int) -> float:
        """Expected benign bytes/minute at ``minute`` (diurnal + noise).

        The diurnal curve peaks mid-"day" (sinusoid over
        ``minutes_per_day``); multiplicative lognormal noise keeps the series
        from being trivially thresholdable.
        """
        cfg = self.config
        drifted = (
            cfg.drift_kind is not None
            and cfg.drift_minute is not None
            and minute >= cfg.drift_minute
        )
        phase = 0.25
        if drifted and cfg.drift_kind == "diurnal_shift":
            phase = 0.75  # the peak moves half a day
        day_frac = (minute % cfg.minutes_per_day) / cfg.minutes_per_day
        diurnal = 1.0 + customer.diurnal_amplitude * math.sin(2 * math.pi * (day_frac - phase))
        noise = float(self._rng.lognormal(mean=0.0, sigma=cfg.noise_sigma))
        rate = customer.base_rate_bytes * diurnal * noise
        if drifted and cfg.drift_kind == "diurnal_shift":
            rate *= cfg.drift_scale

        # Benign flash crowds.
        burst_probability = cfg.burst_probability
        if drifted and cfg.drift_kind == "flash_crowd":
            burst_probability *= 10.0 * cfg.drift_scale
        until = self._burst_until.get(customer.customer_id, -1)
        if minute <= until:
            rate *= cfg.burst_multiplier
        elif self._rng.random() < burst_probability:
            self._burst_until[customer.customer_id] = minute + cfg.burst_duration
            rate *= cfg.burst_multiplier
        return rate

    def flows_at(self, customer: Customer, minute: int) -> FlowBatch:
        """Sample the benign flows arriving at ``customer`` this minute."""
        return self.minute_flows([customer], minute)[1]

    def minute_flows(
        self, customers: Sequence[Customer], minute: int, n_flows: int | None = None
    ) -> tuple[np.ndarray, FlowBatch]:
        """:meth:`flows_at` for each of ``customers`` in turn, as one batch
        with each flow's customer id.  ``n_flows`` fixes the flows per
        customer instead of the Poisson draw."""
        draws = []
        for customer in customers:
            total_bytes = self.rate_at(customer, minute)
            n = n_flows or max(1, int(self._rng.poisson(self.config.flows_per_minute)))
            draws.append(self._draw(n, total_bytes))
        counts = [len(d.picks) for d in draws]
        return (
            np.repeat(np.array([c.customer_id for c in customers], dtype=np.int64), counts),
            self._assemble(
                minute, np.repeat([c.address for c in customers], counts), draws
            ),
        )

    def _draw(self, n_flows: int, total_bytes: float) -> _Draws:
        """Split ``total_bytes`` into ``n_flows`` mix-shaped flows.

        Clients are drawn by index (``rng.choice(len(clients))`` draws what
        ``rng.choice(clients)`` draws).  The ephemeral ports are drawn flow
        by flow, source port before destination port: one vector draw over
        the zero slots of the mix in row-major order.
        """
        rng = self._rng
        shares = rng.dirichlet(np.ones(n_flows))
        picks = rng.choice(len(self.clients), size=n_flows)
        kinds = rng.choice(len(_BENIGN_MIX), size=n_flows, p=self._mix_weights)
        ports = rng.integers(1024, 65535, size=int(_EPHEMERAL_PORTS[kinds].sum()))
        flow_bytes = np.maximum(64, (total_bytes * shares).astype(np.int64))
        return _Draws(flow_bytes, picks, kinds, ports)

    def _assemble(self, minute: int, dst_addr: np.ndarray, draws: list[_Draws]) -> FlowBatch:
        """One batch from runs of drawn flows, in order."""
        flow_bytes, picks, kinds, drawn = (np.concatenate(column) for column in zip(*draws))
        mix = _MIX_COLUMNS[kinds]
        ports = mix[:, 1:3].copy()
        ports[ports == 0] = drawn
        return FlowBatch.from_columns(
            len(kinds),
            timestamp=minute,
            src_addr=self.clients[picks],
            dst_addr=dst_addr,
            src_port=ports[:, 0],
            dst_port=ports[:, 1],
            protocol=mix[:, 0],
            packets=np.maximum(1, flow_bytes // 700),
            bytes=flow_bytes,
            tcp_flags=mix[:, 3],
            src_country=self._client_countries[picks],
        )


class BudgetedBenignTraffic:
    """Constant-work benign traffic for huge universes.

    The dense :class:`BenignTrafficModel` pass costs one generator call per
    customer per minute — fatal at a million customers.  This model spends
    a fixed per-minute *flow budget* instead: most of it on a deterministic
    "hot" subset of customers that keeps the full diurnal / burst / drift
    machinery, and the rest on a uniform low-rate tail over the whole
    population so arbitrary customers still see occasional background
    flows.  Work and memory per minute are O(budget), entirely independent
    of ``n_customers``.

    The hot set is every ``stride = n // hot_customers``-th id from 0.  It
    spans the id space but does not balance any modulus: every hot id is a
    multiple of the stride, so when the stride shares a factor with a
    shard or sampler count, the hot customers share residues.  At 2,000
    customers and 8 hot ones the stride is 250 and every hot id is even,
    so ``customer_id % 2`` puts all of them on one shard (and, with two
    per-POP sampling rates, on one rate).
    """

    def __init__(
        self,
        customers: Sequence[Customer],
        clients: np.ndarray,
        country_of: dict[int, str],
        config: BenignConfig | None = None,
        rng: np.random.Generator | None = None,
        flow_budget: int = 600,
        hot_customers: int = 256,
        tail_fraction: float = 0.2,
    ) -> None:
        if flow_budget < 1:
            raise ValueError("flow_budget must be >= 1")
        if not 0.0 <= tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in [0, 1]")
        if len(customers) == 0:
            raise ValueError("customer population is empty")
        self._model = BenignTrafficModel(clients, country_of, config, rng=rng)
        self._rng = self._model._rng  # one shared benign stream
        self.customers = customers
        self.flow_budget = flow_budget
        self.tail_fraction = tail_fraction
        n = len(customers)
        hot_n = max(1, min(hot_customers, n))
        stride = max(1, n // hot_n)
        # Hot set is a pure function of (n, hot_n): no RNG draws, no O(n)
        # permutation, and stable across the whole stream.
        self._hot = [customers[(i * stride) % n] for i in range(hot_n)]

    @property
    def config(self) -> BenignConfig:
        return self._model.config

    def flows_for_minute(self, minute: int) -> tuple[np.ndarray, FlowBatch]:
        """One minute of budgeted benign traffic: each flow's customer id,
        and the flows (hot customers in turn, then the tail)."""
        n_tail = int(self.flow_budget * self.tail_fraction)
        n_hot = max(len(self._hot), self.flow_budget - n_tail)
        per_hot = max(1, n_hot // len(self._hot))
        hot_ids, hot = self._model.minute_flows(self._hot, minute, per_hot)
        tail_ids, tail = self._tail_flows(minute, n_tail)
        return np.concatenate([hot_ids, tail_ids]), FlowBatch.concat([hot, tail])

    def _tail_flows(self, minute: int, n_tail: int) -> tuple[np.ndarray, FlowBatch]:
        """The uniform low-rate tail.  Each flow interleaves five kinds of
        draw (customer, mix kind, client, size, ephemeral ports), so the
        loop stays sequential and only writes columns."""
        rng = self._rng
        model = self._model
        n = len(self.customers)
        n_clients = len(model.clients)
        ids = np.empty(n_tail, dtype=np.int64)
        dst = np.empty(n_tail, dtype=np.int64)
        kinds = np.empty(n_tail, dtype=np.int64)
        picks = np.empty(n_tail, dtype=np.int64)
        sizes = np.empty(n_tail, dtype=np.int64)
        ports: list[int] = []
        for i in range(n_tail):
            ids[i] = cid = int(rng.integers(n))
            dst[i] = self.customers[cid].address
            kinds[i] = kind = int(rng.choice(len(_BENIGN_MIX), p=model._mix_weights))
            _protocol, src_port, dst_port, _flags, _w = _BENIGN_MIX[kind]
            picks[i] = int(rng.choice(n_clients))
            sizes[i] = max(64, int(rng.lognormal(mean=8.0, sigma=1.0)))
            if not src_port:
                ports.append(int(rng.integers(1024, 65535)))
            if not dst_port:
                ports.append(int(rng.integers(1024, 65535)))
        draws = _Draws(sizes, picks, kinds, np.array(ports, dtype=np.int64))
        return ids, model._assemble(minute, dst, [draws])
