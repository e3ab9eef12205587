"""End-to-end trace generation: world → flows → sampled NetFlow → matrix.

:class:`TraceGenerator` advances the synthetic world minute by minute,
emitting benign traffic, preparation probes, and attack floods; runs them
through packet sampling; tags every sampled flow with its auxiliary source
classes; and folds everything into a :class:`~repro.netflow.TrafficMatrix`.

The output :class:`Trace` bundles the matrix with the ground-truth
:class:`AttackEvent` records (onset/end/sources/anomalous byte series) that
the detectors, the trainer, and every evaluation figure consume.

Scale compression: the paper's trace is 100 days at 1440 min/day.  The
``minutes_per_day`` knob lets tests and benchmarks run a *compressed day*
(e.g. 120 "minutes") while every window (prep days, history length,
timescales) scales through the same :class:`ScenarioConfig`, so the shape of
the learning problem is preserved at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..netflow.matrix import (
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    TrafficMatrix,
)
from ..netflow.records import FlowBatch, encode_countries
from ..netflow.sampler import sample_at_rates
from .attacks import AttackSignature, AttackType, generate_attack_flows, signature_for
from .benign import BenignConfig, BenignTrafficModel, BudgetedBenignTraffic
from .campaign import (
    Campaign,
    CampaignConfig,
    PlannedAttack,
    PlannedPrep,
    plan_carpet_bombing,
    plan_multi_vector,
    plan_pulse_wave,
    schedule_campaigns,
)
from .stream import MinuteSlice
from .world import IspWorld, WorldConfig

ATTACK_FAMILIES = ("campaign", "carpet_bombing", "pulse_wave", "multi_vector")
BENIGN_DRIFTS = ("flash_crowd", "diurnal_shift")

__all__ = [
    "ATTACK_FAMILIES",
    "BENIGN_DRIFTS",
    "ScenarioConfig",
    "AttackEvent",
    "Trace",
    "TraceGenerator",
]


@dataclass
class ScenarioConfig:
    """Everything needed to synthesize one dataset.

    ``total_days`` / ``minutes_per_day`` fix the horizon; ``prep_days``
    is the auxiliary-signal lookback of §3 (10 days in the paper).
    """

    total_days: float = 100.0
    minutes_per_day: int = 1440
    prep_days: float = 10.0
    n_customers: int = 20
    n_botnets: int = 6
    botnet_size: int = 400
    campaigns_per_botnet: int = 1
    sampling_rate: int = 1
    # Per-POP heterogeneous sampling (§5.1: "1:1 to 1:10,000 at various
    # routers").  When set, each customer's ingress POP is assigned one of
    # these rates round-robin and ``sampling_rate`` is ignored.
    sampling_rates: tuple[int, ...] | None = None
    benign_flows_per_minute: int = 6
    seed: int = 7
    # Smart-attacker knobs (§6.4): pin every attack's ramp-up dR, and/or
    # scale attack volume during the ramp-up (pre-plateau) phase so a
    # volume-changing attacker stays under CDet's radar longer.
    ramp_rate: float | None = None
    rampup_volume_scale: float = 1.0
    # §8 limitation scenario: a determined attacker using brand-new sources
    # for every attack (defeating A2) and skipping preparation probes
    # (muting A1/A3 prep signals).
    fresh_sources: bool = False
    skip_preparation: bool = False
    # Campaign shape knobs (None = CampaignConfig defaults).
    attacks_per_campaign: float | None = None
    target_group_size: int | None = None
    echo_probability: float | None = None
    # ---- scenario-matrix knobs (repro.scenarios) ---------------------
    # Attack family: the paper-style Markov campaigns, or one of the new
    # adversarial families (each backed by a scripted planner).
    attack_family: str = "campaign"
    # Pin every attack to one AttackType value (per-type paper scenarios).
    fixed_attack_type: str | None = None
    # No campaigns at all — pure-benign traces for drift stressors.
    attack_free: bool = False
    # Adaptive attacker: damp A1/A2/A3 preparation signals to this level
    # (0 = full prep as in the paper, 1 = fully silent preparation).
    prep_damping: float = 0.0
    # Pulse-wave shape (attack_family="pulse_wave").
    pulse_period: int = 6
    pulse_duty: float = 0.5
    # Carpet bombing (attack_family="carpet_bombing"): number of
    # simultaneous low-rate victims (None = every customer) and the
    # per-victim peak as a multiple of its benign base rate.
    carpet_targets: int | None = None
    carpet_intensity: float = 1.5
    # Benign concept drift: None | "flash_crowd" | "diurnal_shift",
    # starting at drift_start_day (None = mid-trace).
    benign_drift: str | None = None
    drift_start_day: float | None = None
    # ---- scale knobs (million-customer universes) --------------------
    # Lazy customer allocation: customers materialize on demand, so world
    # construction is O(1) in n_customers (see WorldConfig.lazy).
    lazy_world: bool = False
    # When set, benign traffic spends a fixed per-minute flow budget
    # (BudgetedBenignTraffic) instead of one generator pass per customer —
    # per-minute work becomes independent of n_customers.
    benign_flow_budget: int | None = None
    benign_hot_customers: int = 256
    benign_tail_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.total_days <= 0 or self.minutes_per_day < 1:
            raise ValueError("scenario horizon must be positive")
        if self.prep_days < 0:
            raise ValueError("prep_days must be non-negative")
        if self.prep_days >= self.total_days:
            raise ValueError(
                "prep_days must be shorter than the horizon "
                f"({self.prep_days} vs {self.total_days} days)"
            )
        if self.n_customers < 1 or self.n_botnets < 1 or self.botnet_size < 1:
            raise ValueError("population sizes must be >= 1")
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate is 1:N with N >= 1")
        if self.sampling_rates is not None and (
            not self.sampling_rates or any(r < 1 for r in self.sampling_rates)
        ):
            raise ValueError("sampling_rates must be a non-empty tuple of N >= 1")
        if self.rampup_volume_scale <= 0:
            raise ValueError("rampup_volume_scale must be positive")
        if self.ramp_rate is not None and self.ramp_rate <= 0:
            raise ValueError("ramp_rate (dR) must be positive")
        if self.attacks_per_campaign is not None and self.attacks_per_campaign <= 0:
            raise ValueError("attacks_per_campaign must be positive")
        if self.target_group_size is not None and self.target_group_size < 1:
            raise ValueError("target_group_size must be >= 1")
        if self.echo_probability is not None and not 0.0 <= self.echo_probability <= 1.0:
            raise ValueError("echo_probability must be in [0, 1]")
        if self.attack_family not in ATTACK_FAMILIES:
            raise ValueError(
                f"attack_family must be one of {ATTACK_FAMILIES}, "
                f"got {self.attack_family!r}"
            )
        if self.fixed_attack_type is not None:
            AttackType(self.fixed_attack_type)  # raises on unknown values
        if not 0.0 <= self.prep_damping <= 1.0:
            raise ValueError("prep_damping must be in [0, 1]")
        if self.pulse_period < 1:
            raise ValueError("pulse_period must be >= 1 minute")
        if not 0.0 < self.pulse_duty <= 1.0:
            raise ValueError("pulse_duty must be in (0, 1]")
        if self.carpet_targets is not None and self.carpet_targets < 1:
            raise ValueError("carpet_targets must be >= 1")
        if self.carpet_intensity <= 0:
            raise ValueError("carpet_intensity must be positive")
        if self.benign_drift is not None and self.benign_drift not in BENIGN_DRIFTS:
            raise ValueError(
                f"benign_drift must be one of {BENIGN_DRIFTS}, "
                f"got {self.benign_drift!r}"
            )
        if self.drift_start_day is not None and not (
            0 <= self.drift_start_day < self.total_days
        ):
            raise ValueError("drift_start_day must fall inside the horizon")
        if self.benign_flow_budget is not None and self.benign_flow_budget < 1:
            raise ValueError("benign_flow_budget must be >= 1")
        if self.benign_hot_customers < 1:
            raise ValueError("benign_hot_customers must be >= 1")
        if not 0.0 <= self.benign_tail_fraction <= 1.0:
            raise ValueError("benign_tail_fraction must be in [0, 1]")

    @property
    def horizon_minutes(self) -> int:
        return int(self.total_days * self.minutes_per_day)

    @property
    def prep_minutes(self) -> int:
        return int(self.prep_days * self.minutes_per_day)

    def world_config(self) -> WorldConfig:
        return WorldConfig(
            n_customers=self.n_customers,
            n_botnets=self.n_botnets,
            botnet_size=self.botnet_size,
            seed=self.seed,
            lazy=self.lazy_world,
        )

    def campaign_config(self) -> CampaignConfig:
        ramp_range = (
            (self.ramp_rate, self.ramp_rate)
            if self.ramp_rate is not None
            else (0.5, 2.5)
        )
        config = CampaignConfig(
            prep_days=self.prep_days,
            minutes_per_day=self.minutes_per_day,
            ramp_rate_range=ramp_range,
        )
        if self.attacks_per_campaign is not None:
            config.attacks_per_campaign_mean = self.attacks_per_campaign
        if self.target_group_size is not None:
            config.target_group_size = self.target_group_size
        if self.echo_probability is not None:
            config.echo_probability = self.echo_probability
        if self.fixed_attack_type is not None:
            config.fixed_type = AttackType(self.fixed_attack_type)
        return config

    @property
    def drift_minute(self) -> int | None:
        """First minute of benign concept drift (None = no drift)."""
        if self.benign_drift is None:
            return None
        start_day = (
            self.drift_start_day
            if self.drift_start_day is not None
            else self.total_days / 2
        )
        return int(start_day * self.minutes_per_day)

    def benign_config(self) -> BenignConfig:
        return BenignConfig(
            minutes_per_day=self.minutes_per_day,
            flows_per_minute=self.benign_flows_per_minute,
            drift_kind=self.benign_drift,
            drift_minute=self.drift_minute,
        )


@dataclass
class AttackEvent:
    """Ground truth for one attack, as recovered for evaluation (§2.3).

    ``anomalous_bytes`` is the per-minute anomalous byte series over
    ``[onset, end)`` — Area A of Figure 2 — used by the effectiveness and
    overhead metrics.  ``attackers`` is the set of source addresses whose
    flows matched the signature during the attack (it may include benign
    sources, exactly the imperfection §5.1 notes).
    """

    event_id: int
    customer_id: int
    customer_address: int
    attack_type: AttackType
    onset: int
    end: int
    signature: AttackSignature
    peak_bytes: float
    ramp_rate: float
    campaign_id: int
    botnet_id: int
    anomalous_bytes: np.ndarray = field(default_factory=lambda: np.zeros(0))
    attackers: set[int] = field(default_factory=set)
    # Multi-vector attacks carry one signature per additional vector; any
    # of them matching counts the flow as anomalous for this event.
    extra_signatures: tuple[AttackSignature, ...] = ()

    def match_mask(self, batch: FlowBatch) -> np.ndarray:
        """Which flows of ``batch`` match any of the event's vector
        signatures."""
        mask = self.signature.match_mask(batch)
        for sig in self.extra_signatures:
            mask |= sig.match_mask(batch)
        return mask

    @property
    def duration(self) -> int:
        return self.end - self.onset

    def duration_class(self) -> str:
        """short (<5 min) / medium (<20 min) / long buckets, as in Figure 3.

        Attack durations are in real minutes regardless of the day
        compression knob, so the paper's absolute cuts apply directly.
        """
        if self.duration < 5:
            return "short"
        if self.duration < 20:
            return "medium"
        return "long"


@dataclass
class Trace:
    """A complete synthetic dataset: traffic matrix + ground truth."""

    config: ScenarioConfig
    world: IspWorld
    matrix: TrafficMatrix
    events: list[AttackEvent]
    preps: list[PlannedPrep]
    horizon: int
    total_flows: int
    sampled_flows: int


class TraceGenerator:
    """Drives the synthetic world and materializes a :class:`Trace`."""

    def __init__(
        self,
        config: ScenarioConfig | None = None,
        blocklist_membership=None,
    ) -> None:
        """``blocklist_membership`` is any object supporting ``addr in x``
        (e.g. a :class:`repro.signals.BlocklistDirectory`); when omitted the
        ground-truth listed-bot set is used for A1 tagging."""
        self.config = config or ScenarioConfig()
        # One root seed fans out into named, independent child streams
        # (SeedSequence spawning), one consumer each: campaign planning,
        # per-minute traffic draws, the benign model, packet sampling, and
        # spoofed-address pools.  No stream is shared between generators,
        # so the whole trace is reproducible from ``config.seed`` alone and
        # adding draws to one consumer can never perturb another.
        root = np.random.SeedSequence(self.config.seed)
        plan_ss, traffic_ss, benign_ss, sampler_ss, spoof_ss = root.spawn(5)
        self._plan_rng = np.random.default_rng(plan_ss)
        self._rng = np.random.default_rng(traffic_ss)
        self._spoof_rng = np.random.default_rng(spoof_ss)
        self.world = IspWorld(self.config.world_config())
        if self.config.benign_flow_budget is not None:
            self._benign: BenignTrafficModel | BudgetedBenignTraffic = (
                BudgetedBenignTraffic(
                    self.world.customers,
                    self.world.benign_clients,
                    self.world.country_of,
                    self.config.benign_config(),
                    rng=np.random.default_rng(benign_ss),
                    flow_budget=self.config.benign_flow_budget,
                    hot_customers=self.config.benign_hot_customers,
                    tail_fraction=self.config.benign_tail_fraction,
                )
            )
        else:
            self._benign = BenignTrafficModel(
                self.world.benign_clients,
                self.world.country_of,
                self.config.benign_config(),
                rng=np.random.default_rng(benign_ss),
            )
        rates = self.config.sampling_rates or (self.config.sampling_rate,)
        self._rates = np.array(rates, dtype=np.int64)
        self._sampler_rng = np.random.default_rng(sampler_ss)  # shared by every POP
        # Blocklisted /24 ground truth is the union over botnets; the
        # signals.BlocklistDirectory adds category structure and noise on top.
        self.blocklisted_addrs: set[int] = set()
        for botnet in self.world.botnets:
            self.blocklisted_addrs.update(int(a) for a in botnet.blocklisted_members)
        self._blocklist = (
            blocklist_membership if blocklist_membership is not None
            else self.blocklisted_addrs
        )
        # Streaming state: one generator = one pass over the RNG streams.
        self._consumed = False
        self._events: list[AttackEvent] = []
        self._events_seen: list[AttackEvent] = []
        self._preps: list[PlannedPrep] = []
        self._total_flows = 0
        self._sampled_flows = 0

    def sampling_rates_of(self, customer_ids) -> np.ndarray:
        """Each customer's ingress-POP sampling rate (1:N).

        POPs take ``sampling_rates`` round-robin; customer ids are
        allocation indices, so the modulo mapping matches the historical
        per-customer round-robin table without materializing an entry per
        customer.
        """
        return self._rates[np.asarray(customer_ids, dtype=np.int64) % len(self._rates)]

    # ------------------------------------------------------------------
    def _attack_sources(
        self, attack: PlannedAttack, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict[int, str]]:
        """Pick the source pool for one attack (bots + spoofed/resolvers)."""
        if self.config.fresh_sources:
            # §8 limitation: a determined attacker recruits brand-new hosts
            # per attack — never blocklisted, never previous attackers.
            base = int(0x2F000000 + attack.campaign_id * 2**20 + attack.onset * 256)
            fresh = base + rng.choice(200000, size=attack.n_sources, replace=False)
            fresh = fresh.astype(np.int64)
            self.world.route_table.announce(
                (int(fresh.min()), int(fresh.max())), 64900 + attack.campaign_id
            )
            return fresh, {int(a): "US" for a in fresh}
        botnet = self.world.botnets[attack.botnet_id]
        n_real = min(attack.n_sources, botnet.size)
        real = rng.choice(botnet.members, size=n_real, replace=False)
        country_of = dict(botnet.country_of)

        if attack.attack_type is AttackType.DNS_AMPLIFICATION:
            # Reflection: traffic arrives from open resolvers, not bots.
            n_refl = min(len(self.world.resolvers), max(20, n_real // 2))
            reflectors = rng.choice(self.world.resolvers, size=n_refl, replace=False)
            for a in reflectors:
                country_of[int(a)] = "US"
            return reflectors.astype(np.int64), country_of

        n_spoofed = int(attack.spoofed_fraction * n_real)
        if n_spoofed:
            half = n_spoofed // 2
            spoofed = np.concatenate(
                [
                    self.world.bogon_pool(half or 1, rng=self._spoof_rng),
                    self.world.unrouted_pool(n_spoofed - half or 1, rng=self._spoof_rng),
                ]
            )[:n_spoofed]
            for a in spoofed:
                country_of[int(a)] = "US"
            sources = np.concatenate([real[: n_real - n_spoofed], spoofed])
        else:
            sources = real
        return sources.astype(np.int64), country_of

    def _probe_flows(
        self, minute: int, preps: list[PlannedPrep], rng: np.random.Generator
    ) -> tuple[np.ndarray, FlowBatch]:
        """Low-rate probe traffic of every preparation window open at
        ``minute``, window by window, with each flow's customer id.

        The active fraction of eventual sources rises toward the attack
        (Figure 15: median blocklisted-source reappearance grows from ~66%
        five days out to ~93% one day out).  Each probe interleaves six
        kinds of draw, so the loop stays sequential and only collects rows.
        """
        rows: list[tuple[int, ...]] = []
        countries: list[str] = []
        damping = self.config.prep_damping
        for prep in preps:
            if not prep.start <= minute < prep.end:
                continue
            span = max(1, prep.end - prep.start)
            progress = (minute - prep.start) / span  # 0 → 1 approaching onset
            botnet = self.world.botnets[prep.botnet_id]
            active_fraction = 0.05 + 0.30 * progress
            n_active = max(1, int(active_fraction * botnet.size * 0.05))
            if damping > 0:
                # Adaptive attacker: probe with proportionally fewer sources;
                # a fully-damped minute stays silent.
                n_active = int(round((1.0 - damping) * n_active))
                if n_active == 0:
                    continue
            # Probing favours blocklisted members (they are the reused, noisy
            # bots); an adaptive attacker avoids its listed bots proportionally.
            use_listed = rng.random() < 0.7 * (1.0 - damping)
            pool = botnet.blocklisted_members if use_listed else botnet.members
            sources = rng.choice(pool, size=min(n_active, len(pool)), replace=False)
            customer_id = prep.customer_id
            dst = self.world.customers[customer_id].address
            for src in sources.tolist():
                rows.append(
                    (
                        customer_id, src, dst,
                        int(rng.integers(1024, 65535)),  # src_port
                        int(rng.choice([80, 443, 53, 0])),  # dst_port
                        int(rng.choice([6, 17])),  # protocol
                        int(rng.integers(1, 8)),  # packets
                        int(rng.integers(60, 1500)),  # bytes
                        2 if rng.random() < 0.5 else 0,  # tcp_flags
                    )
                )
                countries.append(botnet.country_of.get(src, "US"))
            # Occasional spoofed probes (the adaptive attacker damps these too).
            spoof_probability = prep.spoofed_fraction * progress * (1.0 - damping)
            if prep.spoofed_fraction > 0 and rng.random() < spoof_probability:
                spoofed = self.world.bogon_pool(max(1, n_active // 4), rng=self._spoof_rng)
                ports = rng.integers(1024, 65535, size=len(spoofed))
                for src, port in zip(spoofed.tolist(), ports.tolist()):
                    rows.append((customer_id, src, dst, port, 443, 6, 1, 60, 2))
                    countries.append("US")
        ids, src, dst, sport, dport, protocol, packets, nbytes, flags = (
            np.array(rows, dtype=np.int64).reshape(-1, 9).T
        )
        return ids, FlowBatch.from_columns(
            len(rows),
            timestamp=minute,
            src_addr=src,
            dst_addr=dst,
            src_port=sport,
            dst_port=dport,
            protocol=protocol,
            packets=packets,
            bytes=nbytes,
            tcp_flags=flags,
            src_country=encode_countries(countries),
        )

    # ------------------------------------------------------------------
    def _plan_campaigns(self, horizon: int) -> list[Campaign]:
        """Schedule attacks for the configured family (planning stream)."""
        cfg = self.config
        if cfg.attack_free:
            return []
        campaign_cfg = cfg.campaign_config()
        rng = self._plan_rng
        if cfg.attack_family == "campaign":
            return schedule_campaigns(
                self.world.botnets,
                self.world.customers,
                horizon,
                campaign_cfg,
                rng,
                campaigns_per_botnet=cfg.campaigns_per_botnet,
            )
        if cfg.attack_family == "carpet_bombing":
            n_targets = cfg.carpet_targets or len(self.world.customers)
            targets = self.world.customers[: min(n_targets, len(self.world.customers))]
            return [
                plan_carpet_bombing(
                    self.world.botnets[0],
                    targets,
                    campaign_cfg,
                    rng,
                    horizon,
                    intensity=cfg.carpet_intensity,
                    attack_type=campaign_cfg.fixed_type or AttackType.UDP_FLOOD,
                )
            ]
        # Pulse-wave / multi-vector: one campaign per botnet over
        # round-robin target groups, mirroring schedule_campaigns.
        campaigns: list[Campaign] = []
        customers = self.world.customers
        size = min(campaign_cfg.target_group_size, len(customers))
        cursor = 0
        for b, botnet in enumerate(self.world.botnets):
            targets = [customers[(cursor + i) % len(customers)] for i in range(size)]
            cursor += size
            if cfg.attack_family == "pulse_wave":
                campaigns.append(
                    plan_pulse_wave(
                        botnet,
                        targets,
                        campaign_cfg,
                        rng,
                        horizon,
                        campaign_id=b,
                        pulse_period=cfg.pulse_period,
                        pulse_duty=cfg.pulse_duty,
                        attack_type=campaign_cfg.fixed_type or AttackType.UDP_FLOOD,
                    )
                )
            else:  # multi_vector
                campaigns.append(
                    plan_multi_vector(
                        botnet, targets, campaign_cfg, rng, horizon, campaign_id=b
                    )
                )
        return campaigns

    # ------------------------------------------------------------------
    # TraceSource protocol
    @property
    def horizon(self) -> int:
        return self.config.horizon_minutes

    def events_so_far(self) -> list[AttackEvent]:
        """Ground-truth events whose onset the stream has reached."""
        return list(self._events_seen)

    def iter_minutes(
        self, start_minute: int = 0, end_minute: int | None = None
    ) -> Iterator[MinuteSlice]:
        """Stream the simulation as per-minute :class:`MinuteSlice` objects.

        The world always advances causally from minute 0 (every RNG stream
        is consumed in the same order as the materialized lane, which is
        what makes streaming and materialization byte-identical); slices
        outside ``[start_minute, end_minute)`` are simulated but not
        yielded.  One generator supports exactly one pass — the underlying
        streams advance as minutes are produced — so build a fresh
        :class:`TraceGenerator` to iterate again.
        """
        horizon = self.config.horizon_minutes
        end = horizon if end_minute is None else end_minute
        if not 0 <= start_minute <= end <= horizon:
            raise ValueError("requested range outside the scenario horizon")
        if self._consumed:
            raise RuntimeError(
                "TraceGenerator streams are single-shot; build a fresh "
                "generator to iterate again"
            )
        self._consumed = True
        return self._stream(start_minute, end)

    def _stream(self, start: int, end: int) -> Iterator[MinuteSlice]:
        """Run the simulation minute by minute (the one true minute loop)."""
        cfg = self.config
        rng = self._rng
        horizon = cfg.horizon_minutes

        campaigns = self._plan_campaigns(horizon)
        planned: list[PlannedAttack] = sorted(
            (a for c in campaigns for a in c.attacks), key=lambda a: a.onset
        )
        preps: list[PlannedPrep] = [p for c in campaigns for p in c.preps]
        self._preps = preps

        events: list[AttackEvent] = []
        for i, attack in enumerate(planned):
            customer = self.world.customers[attack.customer_id]
            extra = tuple(
                signature_for(t, customer.address)
                for t in attack.vector_types()
                if t is not attack.attack_type
            )
            events.append(
                AttackEvent(
                    event_id=i,
                    customer_id=attack.customer_id,
                    customer_address=customer.address,
                    attack_type=attack.attack_type,
                    onset=attack.onset,
                    end=attack.end,
                    signature=signature_for(attack.attack_type, customer.address),
                    peak_bytes=attack.peak_bytes,
                    ramp_rate=attack.ramp_rate,
                    campaign_id=attack.campaign_id,
                    botnet_id=attack.botnet_id,
                    anomalous_bytes=np.zeros(attack.end - attack.onset),
                    extra_signatures=extra,
                )
            )

        self._events = events

        # Per-attack fixed source pools (reused every minute of the attack —
        # bots persist within an attack).
        source_pools = {
            e.event_id: self._attack_sources(planned[e.event_id], rng) for e in events
        }

        # Previous attackers (sorted, unique) per customer with a finished
        # attack: idle customers in a huge universe cost nothing.
        prev_attackers: dict[int, np.ndarray] = {}
        events_by_onset = sorted(events, key=lambda e: e.onset)
        active_events: list[AttackEvent] = []
        event_cursor = 0

        for minute in range(end):
            # Activate/retire events.
            started_events: list[AttackEvent] = []
            while event_cursor < len(events_by_onset) and events_by_onset[event_cursor].onset <= minute:
                started_events.append(events_by_onset[event_cursor])
                active_events.append(events_by_onset[event_cursor])
                event_cursor += 1
            finished = [e for e in active_events if e.end <= minute]
            for e in finished:
                if e.attackers:
                    attackers = np.fromiter(e.attackers, dtype=np.int64, count=len(e.attackers))
                    prev_attackers[e.customer_id] = np.union1d(
                        prev_attackers.get(e.customer_id, attackers), attackers
                    )
            active_events = [e for e in active_events if e.end > minute]
            self._events_seen.extend(started_events)

            customer_ids, flows = self._minute_flows(
                minute, preps, active_events, planned, source_pools
            )
            # Sample and tag — and fold signature-matching bytes into the
            # per-event anomalous series / attacker sets.  Aggregation into
            # a matrix is the *consumer's* choice (see ``materialize``).
            sampled, kept = sample_at_rates(
                flows, self.sampling_rates_of(customer_ids), self._sampler_rng
            )
            customer_ids = customer_ids[kept]
            masks = self._tag(minute, customer_ids, sampled, prev_attackers, active_events)
            self._total_flows += len(flows)
            self._sampled_flows += len(sampled)
            if minute >= start:
                yield MinuteSlice(
                    minute,
                    customer_ids,
                    sampled,
                    class_masks=masks,
                    events_started=tuple(started_events),
                    events_ended=tuple(finished),
                    total_flows=len(flows),
                )

    def _minute_flows(
        self,
        minute: int,
        preps: list[PlannedPrep],
        active_events: list[AttackEvent],
        planned: list[PlannedAttack],
        source_pools: dict[int, tuple[np.ndarray, dict[int, str]]],
    ) -> tuple[np.ndarray, FlowBatch]:
        """Every ground-truth flow of one minute with its customer id, in
        arrival order: benign traffic, preparation probes, attack floods."""
        cfg = self.config
        rng = self._rng
        if isinstance(self._benign, BudgetedBenignTraffic):
            parts = [self._benign.flows_for_minute(minute)]
        else:
            parts = [self._benign.minute_flows(self.world.customers, minute)]

        # Preparation probes (suppressed in the §8 evasion scenario).
        if not cfg.skip_preparation:
            parts.append(self._probe_flows(minute, preps, rng))

        # Attack floods.
        for event in active_events:
            attack = planned[event.event_id]
            rate = attack.rate_at(minute)
            if rate <= 0:
                continue
            if rate < attack.peak_bytes and cfg.rampup_volume_scale != 1.0:
                rate *= cfg.rampup_volume_scale
            sources, country_of = source_pools[event.event_id]
            # A per-minute subset participates (rotating bots).
            k = max(3, int(len(sources) * min(1.0, 0.3 + 0.7 * rate / attack.peak_bytes)))
            subset = rng.choice(sources, size=min(k, len(sources)), replace=False)
            flood = generate_attack_flows(
                attack.type_at(minute),
                minute,
                event.customer_address,
                subset,
                rate,
                rng,
                country_of=country_of,
            )
            parts.append((np.full(len(flood), event.customer_id, dtype=np.int64), flood))
        return (
            np.concatenate([ids for ids, _ in parts]),
            FlowBatch.concat([flows for _, flows in parts]),
        )

    def _tag(
        self,
        minute: int,
        customer_ids: np.ndarray,
        flows: FlowBatch,
        prev_attackers: dict[int, np.ndarray],
        active_events: list[AttackEvent],
    ) -> dict[str, np.ndarray]:
        """The minute's class masks, and each active event's provenance.

        A sampled flow is A1 when its source is blocklisted, A2 when the
        source attacked the same customer before, A3 when it is spoofed,
        and ``botnet:<id>`` for the first active event on its customer
        whose signature it matches; that event adds the source to its
        attackers and the flow's estimated bytes to its anomalous series,
        in arrival order.  Classes enter the dict in the order a per-flow
        scan meets them: by first row, then A1, A2, A3, botnet.
        """
        src = flows.array["src_addr"].astype(np.int64)
        n = len(src)
        unique, inverse = np.unique(src, return_inverse=True)
        listed = np.fromiter(
            (addr in self._blocklist for addr in unique.tolist()), dtype=bool, count=len(unique)
        )[inverse]
        reused = np.zeros(n, dtype=bool)
        for customer_id, attackers in prev_attackers.items():
            rows = np.flatnonzero(customer_ids == customer_id)
            if len(rows):
                slot = np.minimum(np.searchsorted(attackers, src[rows]), len(attackers) - 1)
                reused[rows] = attackers[slot] == src[rows]
        tagged = [
            (SOURCE_CLASS_BLOCKLIST, listed),
            (SOURCE_CLASS_PREV_ATTACKER, reused),
            (SOURCE_CLASS_SPOOFED, self.world.route_table.spoofed_mask(src)),
        ]
        claimed = np.zeros(n, dtype=bool)
        estimated = flows.estimated_bytes().astype(np.float64)
        for event in active_events:
            rows = ~claimed & (customer_ids == event.customer_id) & event.match_mask(flows)
            if not rows.any():
                continue
            claimed |= rows
            tagged.append((f"botnet:{event.botnet_id}", rows))
            event.attackers.update(src[rows].tolist())
            slot = minute - event.onset
            # cumsum adds left to right, as the per-flow loop did.
            event.anomalous_bytes[slot] = np.cumsum(
                np.concatenate(([event.anomalous_bytes[slot]], estimated[rows]))
            )[-1]
        masks: dict[str, np.ndarray] = {}
        for cls, mask in tagged:
            if mask.any():  # two active events may share a botnet class
                masks[cls] = masks[cls] | mask if cls in masks else mask
        rank = {SOURCE_CLASS_BLOCKLIST: 0, SOURCE_CLASS_PREV_ATTACKER: 1, SOURCE_CLASS_SPOOFED: 2}
        order = sorted(masks, key=lambda cls: (int(np.argmax(masks[cls])), rank.get(cls, 3)))
        return {cls: masks[cls] for cls in order}

    def materialize(self) -> Trace:
        """Collect the full stream into an in-memory :class:`Trace`.

        The matrix fold is ``add_batch``, bit-identical to the per-record
        oracle ``repro.testing.reference.reference_add_flow`` in arrival
        order, so the result matches the historical one-shot generation
        byte for byte.
        """
        cfg = self.config
        matrix = TrafficMatrix()
        for sl in self.iter_minutes():
            if sl.sampled_flows:
                matrix.add_batch(sl.customer_ids, sl.batch, sl.class_masks)
        return Trace(
            config=cfg,
            world=self.world,
            matrix=matrix,
            events=self._events,
            preps=self._preps,
            horizon=cfg.horizon_minutes,
            total_flows=self._total_flows,
            sampled_flows=self._sampled_flows,
        )
