#!/usr/bin/env python3
"""Streaming deployment (§2.6): run Xatu on a live flow feed.

Trains a model offline (as usual), then replays the test portion of the
scenario *flow by flow* through the :class:`~repro.core.OnlineXatu`
streaming detector — the shape of a real deployment, where sampled NetFlow
and CDet alert notices arrive continuously and Xatu emits early alerts.
"""

import numpy as np

from repro.core import OnlineXatu, PipelineConfig, TrainConfig, XatuPipeline
from repro.eval import bench_model_config, tiny_scenario
from repro.netflow import FlowBatch
from repro.synth import BenignConfig, BenignTrafficModel, TraceGenerator, generate_attack_flows


def main() -> None:
    # --- Offline training (same as quickstart) ---------------------------
    config = PipelineConfig(
        scenario=tiny_scenario(seed=3),
        model=bench_model_config(),
        train=TrainConfig(epochs=5, batch_size=8, learning_rate=3e-3),
        overhead_bound=0.1,
    )
    pipeline = XatuPipeline(config)
    result = pipeline.run()
    trace = pipeline.trace
    print(f"trained; calibrated threshold = {result.calibration.threshold:.3g}")

    # The pipeline holds the trained artefacts via its detection run;
    # rebuild an online detector around the same model + scaler.
    # (In a real deployment these come from XatuModelRegistry.load().)
    model_entry_scaler = None
    # Reconstruct from pipeline internals: retrain quickly for the demo.
    from repro.core import DatasetBuilder, XatuModel, XatuTrainer, alerts_to_records
    from repro.detect import NetScoutDetector
    from repro.signals import FeatureExtractor

    labeled = [a for a in result.cdet_alerts if a.event_id >= 0]
    extractor = FeatureExtractor(trace, alerts=alerts_to_records(trace, labeled))
    builder = DatasetBuilder(trace, extractor, config.model, rng=np.random.default_rng(0))
    train_set = builder.build(labeled, (0, int(trace.horizon * 0.7)))
    model = XatuModel(config.model)
    XatuTrainer(model, config.train).fit(train_set)

    blocklist = set()
    for botnet in trace.world.botnets:
        blocklist.update(int(a) for a in botnet.blocklisted_members)
    online = OnlineXatu(
        model=model,
        scaler=train_set.scaler,
        threshold=result.calibration.threshold,
        customer_of={c.address: c.customer_id for c in trace.world.customers},
        blocklist=blocklist,
        route_table=trace.world.route_table,
        base_rate_of={c.customer_id: c.base_rate_bytes for c in trace.world.customers},
    )
    for alert_record in alerts_to_records(trace, labeled):
        online.ingest_cdet_alert(alert_record)

    # --- Live replay: one synthetic attack over benign background --------
    rng = np.random.default_rng(9)
    benign = BenignTrafficModel(
        trace.world.benign_clients, trace.world.country_of,
        BenignConfig(minutes_per_day=trace.config.minutes_per_day),
        rng=rng,
    )
    victim = trace.world.customers[0]
    botnet = trace.world.botnets[0]
    attack_start, attack_minutes = 30, 10
    event = trace.events[0]

    n_alerts = 0
    for minute in range(45):
        _ids, flows = benign.minute_flows(trace.world.customers[:4], minute)
        if attack_start <= minute < attack_start + attack_minutes:
            sources = botnet.members[:80]
            flows = FlowBatch.concat([flows, generate_attack_flows(
                event.attack_type, minute, victim.address,
                sources, total_bytes=victim.base_rate_bytes * 20.0,
                rng=rng, country_of=botnet.country_of,
            )])
        alerts = online.step(minute, flows)
        for alert in alerts:
            n_alerts += 1
            marker = "<< ATTACK WINDOW" if attack_start <= minute else ""
            print(f"  minute {minute:>3}: alert on customer {alert.customer_id} "
                  f"(S_t = {alert.survival:.3f}) {marker}")
    print(f"\nreplayed 45 live minutes; {n_alerts} alerts emitted")


if __name__ == "__main__":
    main()
