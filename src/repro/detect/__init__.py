"""CDet substrates: CUSUM labeling plus NetScout/FastNetMon simulators.

``Detector`` is the unified *streaming* contract (``step(minute, batch)
-> alerts`` / ``reset``) shared with :class:`repro.core.OnlineXatu`, whose
``step`` is also what :mod:`repro.serve` shards call; ``TraceDetector`` is
the offline "sweep a materialized trace" protocol the evaluation harness
uses.
"""

from .api import Alert, Detector, StreamAlert, drive
from .cusum import NUMSTD_BY_TYPE, anomaly_start, cusum_detect, cusum_scores
from .detectors import (
    DetectionAlert,
    FastNetMonDetector,
    NetScoutDetector,
    TraceDetector,
)
from .entropy import EntropyDetector, distribution_entropy

__all__ = [
    "cusum_scores", "cusum_detect", "anomaly_start", "NUMSTD_BY_TYPE",
    "Alert", "StreamAlert", "Detector", "TraceDetector", "drive",
    "DetectionAlert", "NetScoutDetector", "FastNetMonDetector",
    "EntropyDetector", "distribution_entropy",
]
