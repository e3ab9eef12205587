"""Property-based tests on the scrubbing accounting invariants.

Whatever diversion windows a detector emits, the Figure 2 accounting must
obey: 0 <= B <= A per event, C >= 0 per customer, full coverage gives
effectiveness 1, more diversion never reduces per-event effectiveness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scrub import DiversionWindow, ScrubbingCenter


@pytest.fixture(scope="module")
def center(trace):
    return ScrubbingCenter(trace)


def window_strategy(trace):
    customers = [c.customer_id for c in trace.world.customers]
    return st.lists(
        st.builds(
            lambda cid, start, length: DiversionWindow(
                cid, start, min(trace.horizon, start + length)
            ),
            st.sampled_from(customers),
            st.integers(0, trace.horizon - 1),
            st.integers(1, 60),
        ),
        max_size=12,
    )


class TestAccountingInvariants:
    @settings(max_examples=25)
    @given(data=st.data())
    def test_b_bounded_by_a_and_c_nonnegative(self, data, trace, center):
        windows = data.draw(window_strategy(trace))
        report = center.account(windows)
        for event_id, (a, b) in report.event_area.items():
            assert 0.0 <= b <= a + 1e-6
        for value in report.customer_extraneous.values():
            assert value >= 0.0

    @settings(max_examples=15)
    @given(data=st.data())
    def test_monotone_in_coverage(self, data, trace, center):
        """Adding windows never lowers any event's effectiveness."""
        windows = data.draw(window_strategy(trace))
        extra = data.draw(window_strategy(trace))
        small = center.account(windows)
        large = center.account(windows + extra)
        for event_id in small.event_area:
            assert (
                large.effectiveness(event_id)
                >= small.effectiveness(event_id) - 1e-9
            )

    @settings(max_examples=15)
    @given(data=st.data())
    def test_effectiveness_in_unit_interval(self, data, trace, center):
        windows = data.draw(window_strategy(trace))
        report = center.account(windows)
        values = report.effectiveness_values()
        assert ((0.0 <= values) & (values <= 1.0 + 1e-9)).all()

    def test_full_horizon_diversion_is_ideal_effectiveness(self, trace, center):
        windows = [
            DiversionWindow(c.customer_id, 0, trace.horizon)
            for c in trace.world.customers
        ]
        report = center.account(windows)
        for event in trace.events:
            assert report.effectiveness(event.event_id) == pytest.approx(1.0)

    def test_full_horizon_diversion_maximizes_overhead(self, trace, center):
        full = center.account(
            [DiversionWindow(c.customer_id, 0, trace.horizon) for c in trace.world.customers]
        )
        nothing = center.account([])
        for cid in full.customer_extraneous:
            assert full.overhead(cid) >= nothing.overhead(cid)

    @settings(max_examples=15)
    @given(data=st.data())
    def test_delay_within_event_bounds(self, data, trace, center):
        windows = data.draw(window_strategy(trace))
        report = center.account(windows)
        for event in trace.events:
            delay = report.detection_delay[event.event_id]
            if delay is not None:
                # Delay can be negative (early) but a diversion counted for
                # the event can never start after the event's end.
                assert event.onset + delay < event.end
