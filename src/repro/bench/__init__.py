"""The offline benches (``python -m repro.cli bench``).

Serving speed has one measurement, the end-to-end suite in
``BENCHMARK.json``.  Two suites measure what it never runs:

* ``train`` (:mod:`.train`) — training throughput, each case fused vs the
  pre-fusion tape, plus the telemetry overhead of a training epoch;
* ``scale`` (:mod:`.scale`) — peak RSS of a streamed compressed day at
  10k, 100k and 1M customers.

Both write one format, ``BENCH_<suite>.json``, and share one loader, one
:func:`compare` and one :func:`gates` (:mod:`.harness`).  See
docs/PERFORMANCE.md for methodology and the committed numbers.
"""

from .harness import (
    BENCH_FORMAT_VERSION,
    bench_report,
    compare,
    gates,
    load_bench_json,
    write_bench_json,
)
from .scale import SCALE_CELLS, render_scale, run_scale
from .train import TRAIN_CASES, obs_overheads, render_train, run_train, speedups

# suite name -> (case names, runner(smoke=, cases=), renderer(payload))
SUITES = {
    "train": (TRAIN_CASES, run_train, render_train),
    "scale": (tuple(SCALE_CELLS), run_scale, render_scale),
}

__all__ = [
    "BENCH_FORMAT_VERSION",
    "SUITES",
    "bench_report",
    "compare",
    "gates",
    "load_bench_json",
    "write_bench_json",
    "run_train",
    "run_scale",
    "render_train",
    "render_scale",
    "speedups",
    "obs_overheads",
]
