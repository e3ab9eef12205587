"""A shard's snapshot holds serving state, not the alerts it raised.

Alerts leave a shard with the ``step`` that raised them.  A queue of them
inside the detector is stream state no stage reads: it grows by every alert
for as long as the shard serves, and every checkpoint pickles it again.
"""

import pickle

from repro.core import OnlineConfig, OnlineXatu, XatuModel
from repro.netflow import FlowBatch
from repro.serve import ShardWorker
from tests.test_serve import ADDRESS_OF, _xatu_factory


def _hot_detector() -> OnlineXatu:
    """Every customer alerts every minute: a hazard head of ~3 per minute,
    and no re-arm delay."""
    detector = _xatu_factory(threshold=0.5)(ADDRESS_OF)
    hot = XatuModel(detector.model.config)
    hot.combine.bias.data[...] = 3.0
    return OnlineXatu(
        model=hot,
        scaler=detector.scaler,
        threshold=0.5,
        customer_of=ADDRESS_OF,
        blocklist=set(),
        route_table=detector.route_table,
        config=OnlineConfig(rearm_after=0),
    )


def test_a_shard_snapshot_does_not_grow_with_the_alerts_it_raised():
    detector = _hot_detector()
    # Hazard histories are trimmed from 4 to 2 detect windows, so their
    # lengths repeat every 2 * window + 1 minutes once the first trim is done.
    period = 2 * detector.model.config.detect_window + 1
    first, second = 5 * period, 8 * period  # below 256: clock ints pickle alike
    worker = ShardWorker(0, lambda: detector)
    raised: dict[int, int] = {}
    sizes: dict[int, int] = {}
    total = 0
    for minute in range(second + 1):
        total += len(worker.step(minute, FlowBatch.empty()))
        if minute in (first, second):
            raised[minute] = total
            sizes[minute] = len(pickle.dumps(worker.state_dict(), protocol=4))
    assert raised[second] - raised[first] == (second - first) * len(ADDRESS_OF)
    assert sizes[second] == sizes[first]
