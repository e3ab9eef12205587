#!/usr/bin/env python3
"""Reproducibility workflow: pin, persist, reload, and stream a dataset.

The pattern a research group would actually use:

1. pin the synthetic world in a versionable JSON scenario file,
2. generate the trace once and persist it (npz/json, no pickle),
3. reload it in later sessions — bit-identical aggregates guaranteed by a
   world checksum,
4. stream any slice as live flows (e.g. into OnlineXatu): the restored
   trace re-streams the very flows its matrix was folded from.
"""

import tempfile
import time
from pathlib import Path

from repro.detect import NetScoutDetector
from repro.eval import tiny_scenario
from repro.synth import (
    TraceGenerator,
    as_trace_source,
    load_scenario_file,
    load_trace,
    save_scenario_file,
    save_trace,
)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="xatu_repro_") as workdir:
        workflow(Path(workdir))


def workflow(workdir: Path) -> None:
    # 1. Pin the scenario.
    scenario_path = save_scenario_file(tiny_scenario(seed=3), workdir / "scenario.json")
    print(f"scenario pinned at {scenario_path}")

    # 2. Generate once, persist.
    scenario = load_scenario_file(scenario_path)
    t0 = time.time()
    trace = TraceGenerator(scenario).materialize()
    print(f"generated {len(trace.events)} attacks / {trace.sampled_flows} flows "
          f"in {time.time() - t0:.1f}s")
    save_trace(trace, workdir / "trace")
    size_mb = sum(f.stat().st_size for f in (workdir / "trace").iterdir()) / 1e6
    print(f"persisted to {workdir / 'trace'} ({size_mb:.1f} MB)")

    # 3. Reload (later session) — identical analysis results.
    t0 = time.time()
    restored = load_trace(workdir / "trace")
    print(f"reloaded in {time.time() - t0:.1f}s")
    a = NetScoutDetector().detect(trace)
    b = NetScoutDetector().detect(restored)
    assert [(x.customer_id, x.detect_minute) for x in a] == [
        (x.customer_id, x.detect_minute) for x in b
    ]
    print(f"detector runs identical on both copies ({len(a)} alerts)")

    # 4. Stream a slice as live flows.
    lo = restored.horizon // 2
    n_flows = sum(
        len(sl.batch) for sl in as_trace_source(restored).iter_minutes(lo, lo + 10)
    )
    print(f"streamed minutes [{lo}, {lo + 10}) as {n_flows} live flows")


if __name__ == "__main__":
    main()
