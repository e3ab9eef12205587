"""Property-based invariants of the stack: gradcheck over random op DAGs,
survival monotonicity, detector/CUSUM causality, sampler unbiasedness,
the wire-domain checks of the columnar flow builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.cusum import cusum_detect
from repro.netflow.records import FLOW_DTYPE, FlowBatch, FlowRecord
from repro.netflow.sampler import sample_at_rates
from repro.nn import Tensor, gradcheck, hazard_to_survival
from repro.survival.analysis import hazards_to_survival_np
from repro.testing.reference import reference_sample


def uniform_tensor(seed, shape, lo, hi):
    """A leaf ``Tensor`` of ``uniform(lo, hi)`` draws seeded by ``seed``."""
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape), requires_grad=True)


class TestGradcheckOnRandomDags:
    UNARY = ["sigmoid", "tanh", "softplus", "exp", "neg"]

    @staticmethod
    def _apply(op, value):
        if op == "neg":
            return -value
        return getattr(value, op)()

    def test_random_unary_chains_gradcheck(self):
        @settings(max_examples=20)
        @given(
            st.integers(1, 3),
            st.integers(1, 4),
            st.integers(0, 10**6),
            st.sampled_from(self.UNARY),
            st.sampled_from(self.UNARY),
        )
        def prop(rows, cols, seed, op_a, op_b):
            def func(v):
                return self._apply(op_b, self._apply(op_a, v)).sum()

            assert gradcheck(func, [uniform_tensor(seed, (rows, cols), -2.0, 2.0)])

        prop()

    def test_random_binary_dags_gradcheck(self):
        """Diamond graphs: both operands derive from the same tensors."""

        @settings(max_examples=15)
        @given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(self.UNARY))
        def prop(seed_a, seed_b, op):
            def func(x, y):
                mixed = x * y + x.tanh()
                return self._apply(op, mixed).mean()

            a, b = (uniform_tensor(s, (2, 3), -1.5, 1.5) for s in (seed_a, seed_b))
            assert gradcheck(func, [a, b])

        prop()

    def test_matmul_reduction_dags_gradcheck(self):
        @settings(max_examples=10)
        @given(st.integers(0, 10**6), st.integers(0, 10**6))
        def prop(seed_a, seed_b):
            a = uniform_tensor(seed_a, (2, 4), -1.0, 1.0)
            b = uniform_tensor(seed_b, (4, 3), -1.0, 1.0)
            assert gradcheck(lambda x, y: ((x @ y).sigmoid()).sum(), [a, b])

        prop()


class TestSurvivalInvariants:
    def test_survival_monotone_nonincreasing_in_unit_interval(self):
        @settings(max_examples=40)
        @given(st.integers(1, 5), st.integers(1, 20), st.integers(0, 10**6))
        def prop(batch, steps, seed):
            h = np.random.default_rng(seed).uniform(0.0, 2.0, (batch, steps))
            s = hazards_to_survival_np(h)
            assert np.all(s > 0) and np.all(s <= 1.0)
            assert np.all(np.diff(s, axis=-1) <= 1e-15)
            # The autograd path agrees with the inference path.
            s_t = hazard_to_survival(Tensor(h)).numpy()
            assert s_t == pytest.approx(s, abs=1e-12)

        prop()

    def test_zero_hazard_means_certain_survival(self):
        @settings(max_examples=10)
        @given(st.integers(1, 4), st.integers(1, 16))
        def prop(batch, steps):
            s = hazards_to_survival_np(np.zeros((batch, steps)))
            assert np.all(s == 1.0)

        prop()


class TestDetectorCausality:
    def test_cusum_never_fires_before_anomaly_onset(self):
        """With sub-threshold baseline noise, the first alarm index is at or
        after the first anomalous bin — alerts cannot precede the anomaly."""

        @settings(max_examples=60)
        @given(
            st.integers(1, 120),
            st.floats(2.0, 20.0, exclude_max=True),
            st.floats(0.0, 0.9, exclude_max=True),
        )
        def prop(onset, magnitude, noise_scale):
            mu, sigma, numstd = 50.0, 4.0, 1.0
            series = np.full(onset + 30, mu)
            rng = np.random.default_rng(onset * 31 + int(magnitude))
            # Noise strictly below numstd*sigma keeps every pre-onset
            # increment negative, so S_n stays 0 until the anomaly.
            series[:onset] += rng.uniform(
                -1.0, noise_scale * numstd * sigma, size=onset
            )
            series[onset:] += magnitude * sigma
            hit = cusum_detect(series, mu, sigma, numstd, threshold=5.0)
            assert hit is None or hit >= onset

        prop()


class TestSamplerInvariants:
    def test_packet_sampling_unbiased_within_ci(self):
        """Total kept packets over many flows stays inside a 6-sigma
        binomial confidence band around n/rate — for ``sample_at_rates``,
        which keeps exactly what a ``reference_sample`` loop keeps."""

        from repro.netflow.records import Protocol

        @settings(max_examples=12)
        @given(st.sampled_from([2, 8, 64]), st.integers(50, 2000))
        def prop(rate, packets):
            seed = rate * 7919 + packets
            flow = FlowRecord(
                timestamp=0, src_addr=1, dst_addr=2, src_port=0,
                dst_port=0, protocol=Protocol.UDP,
                packets=packets, bytes_=packets * 100,
            )
            trials = 400
            scalar = np.random.default_rng(seed)
            kept = [reference_sample(flow, rate, scalar) for _ in range(trials)]
            sampled, _rows = sample_at_rates(
                FlowBatch.from_records([flow] * trials),
                np.full(trials, rate),
                np.random.default_rng(seed),
            )
            total = int(sampled.array["packets"].sum())
            assert total == sum(k.packets for k in kept if k is not None)
            n = trials * packets
            p = 1.0 / rate
            expected = n * p
            sigma = (n * p * (1 - p)) ** 0.5
            assert abs(total - expected) <= 6.0 * sigma + 1.0

        prop()


class TestWireDomainChecks:
    """An array assignment into a ``FLOW_DTYPE`` field casts silently, so
    the columnar builders check their columns first and must refuse
    exactly what the scalar path (``FlowRecord`` + ``from_records``)
    refuses, with the same exception type."""

    FIELDS = (
        "timestamp", "src_addr", "dst_addr", "src_port", "dst_port",
        "protocol", "tcp_flags", "packets", "bytes", "sampling_rate",
    )
    VALID = dict(
        timestamp=3, src_addr=1, dst_addr=2, src_port=80, dst_port=443,
        protocol=6, tcp_flags=2, packets=4, bytes=240, sampling_rate=1,
    )

    @classmethod
    def scalar_error(cls, field, value):
        """The exception type the record path raises for ``value``."""
        kwargs = {("bytes_" if k == "bytes" else k): v for k, v in cls.VALID.items()}
        kwargs["bytes_" if field == "bytes" else field] = value
        try:
            FlowBatch.from_records([FlowRecord(**kwargs)])
        except (ValueError, OverflowError) as exc:
            return type(exc)
        return None

    @classmethod
    def columns_with(cls, field, value, n, row):
        """Valid ``n``-row columns with ``value`` at ``row`` of ``field``."""
        columns = {k: np.full(n, v, dtype=np.int64) for k, v in cls.VALID.items()}
        column = columns[field]
        if not np.iinfo(np.int64).min <= value <= np.iinfo(np.int64).max:
            column = column.astype(object)
        column[row % n] = value
        columns[field] = column
        return columns

    def test_builders_refuse_out_of_domain_columns_like_the_record_path(self):
        @settings(max_examples=120)
        @given(
            st.sampled_from(self.FIELDS),
            st.sampled_from(["below", "above"]),
            st.sampled_from([1, 2, 2**31, 2**64]),
            st.integers(1, 12),
            st.integers(0, 11),
        )
        def prop(field, side, excess, n, row):
            info = np.iinfo(FLOW_DTYPE[field])
            value = info.min - excess if side == "below" else info.max + excess
            expected = self.scalar_error(field, value)
            assert expected is not None, (field, value)
            with pytest.raises(expected):
                FlowBatch.from_columns(n, **self.columns_with(field, value, n, row))

        prop()

    def test_domain_edges_are_accepted_and_match_the_record_path(self):
        @settings(max_examples=60)
        @given(
            st.sampled_from(self.FIELDS),
            st.sampled_from(["floor", "ceiling"]),
            st.integers(1, 12),
            st.integers(0, 11),
        )
        def prop(field, side, n, row):
            info = np.iinfo(FLOW_DTYPE[field])
            floor = 1 if field == "sampling_rate" else int(info.min)
            value = floor if side == "floor" else int(info.max)
            assert self.scalar_error(field, value) is None
            batch = FlowBatch.from_columns(n, **self.columns_with(field, value, n, row))
            assert batch == FlowBatch.from_records(batch.to_records())
            assert int(batch.array[field][row % n]) == value

        prop()

    def test_sampling_rates_beyond_the_wire_field_are_refused(self):
        batch = FlowBatch.from_columns(2, **self.columns_with("packets", 10, 2, 0))
        rng = np.random.default_rng(0)
        with pytest.raises(OverflowError):
            sample_at_rates(batch, np.array([1, 2**16]), rng)
        with pytest.raises(ValueError):
            sample_at_rates(batch, np.array([0, 2]), rng)
