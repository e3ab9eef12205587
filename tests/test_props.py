"""The property-based fuzzing pillar: runner self-tests plus the stack's
core invariants (gradcheck over random op DAGs, survival monotonicity,
detector/CUSUM causality, sampler unbiasedness, the wire-domain checks
of the columnar flow builders)."""

import numpy as np
import pytest

from repro.detect.cusum import cusum_detect
from repro.netflow.records import (
    FLOW_DTYPE,
    FlowBatch,
    FlowRecord,
    decode_flows_batch,
    encode_flows,
)
from repro.netflow.sampler import sample_at_rates
from repro.nn import Tensor, gradcheck, hazard_to_survival
from repro.survival.analysis import hazards_to_survival_np
from repro.testing import (
    PropertyError,
    arrays,
    choices,
    flow_records,
    forall,
    hazard_batches,
    integers,
    floats,
    run_property,
    tensors,
)
from repro.testing.reference import reference_sample


class TestRunnerSelfChecks:
    def test_passing_property_runs_all_cases(self):
        count = run_property(lambda n: n >= 0, integers(0, 100), runs=25)
        assert count == 25

    def test_failing_property_shrinks_to_boundary(self):
        """x < 50 over [0, 100] must shrink to exactly 50."""
        with pytest.raises(PropertyError) as exc_info:
            run_property(lambda n: n < 50, integers(0, 100), runs=200, seed=1)
        assert exc_info.value.counterexample == (50,)
        assert "integers(0,100) = 50" in str(exc_info.value)

    def test_exception_treated_as_failure_and_replayable(self):
        def prop(n):
            if n > 10:
                raise ValueError("too big")
            return True

        with pytest.raises(PropertyError) as exc_info:
            run_property(prop, integers(0, 1000), runs=100, seed=3)
        err = exc_info.value
        assert err.counterexample == (11,)  # shrunk to the smallest failing value
        assert isinstance(err.cause, ValueError)
        assert "seed 3" in str(err)
        # Replay: the recorded counterexample still fails the property.
        with pytest.raises(ValueError):
            prop(*err.counterexample)

    def test_array_counterexamples_shrink_toward_zero(self):
        with pytest.raises(PropertyError) as exc_info:
            run_property(
                lambda a: float(np.abs(a).sum()) < 1e9 and a.shape[0] < 2,
                arrays((integers(2, 6), integers(1, 3))),
                runs=20,
                seed=0,
            )
        (minimal,) = exc_info.value.counterexample
        assert minimal.shape[0] == 2  # trimmed to the smallest failing length
        assert np.all(minimal == 0)  # elements zeroed

    def test_forall_decorator_sweeps_and_replays(self):
        @forall(integers(1, 8), integers(1, 8), runs=10, seed=12)
        def commutes(a, b):
            return a + b == b + a

        assert commutes() == 10  # no args → run the whole sweep
        assert commutes(3, 4) is True  # explicit args → replay one case

    def test_seed_makes_runs_reproducible(self):
        observed = []
        run_property(lambda n: observed.append(n) or True, integers(0, 10**6), runs=5, seed=9)
        second = []
        run_property(lambda n: second.append(n) or True, integers(0, 10**6), runs=5, seed=9)
        assert observed == second


class TestGradcheckOnRandomDags:
    UNARY = ["sigmoid", "tanh", "softplus", "exp", "neg"]

    @staticmethod
    def _apply(op, value):
        if op == "neg":
            return -value
        return getattr(value, op)()

    def test_random_unary_chains_gradcheck(self):
        def prop(t, op_a, op_b):
            def func(v):
                return self._apply(op_b, self._apply(op_a, v)).sum()

            return gradcheck(func, [t])

        run_property(
            prop,
            tensors((integers(1, 3), integers(1, 4)), lo=-2.0, hi=2.0),
            choices(self.UNARY),
            choices(self.UNARY),
            runs=20,
            seed=2,
        )

    def test_random_binary_dags_gradcheck(self):
        """Diamond graphs: both operands derive from the same tensors."""

        def prop(a, b, op):
            def func(x, y):
                mixed = x * y + x.tanh()
                return self._apply(op, mixed).mean()

            return gradcheck(func, [a, b])

        run_property(
            prop,
            tensors((2, 3), lo=-1.5, hi=1.5),
            tensors((2, 3), lo=-1.5, hi=1.5),
            choices(self.UNARY),
            runs=15,
            seed=4,
        )

    def test_matmul_reduction_dags_gradcheck(self):
        def prop(a, b):
            return gradcheck(lambda x, y: ((x @ y).sigmoid()).sum(), [a, b])

        run_property(
            prop,
            tensors((2, 4), lo=-1.0, hi=1.0),
            tensors((4, 3), lo=-1.0, hi=1.0),
            runs=10,
            seed=5,
        )


class TestSurvivalInvariants:
    def test_survival_monotone_nonincreasing_in_unit_interval(self):
        def prop(h):
            s = hazards_to_survival_np(h)
            assert np.all(s > 0) and np.all(s <= 1.0)
            assert np.all(np.diff(s, axis=-1) <= 1e-15)
            # The autograd path agrees with the inference path.
            s_t = hazard_to_survival(Tensor(h)).numpy()
            assert s_t == pytest.approx(s, abs=1e-12)
            return True

        run_property(prop, hazard_batches(max_batch=5, max_steps=20), runs=40, seed=6)

    def test_zero_hazard_means_certain_survival(self):
        def prop(batch, steps):
            s = hazards_to_survival_np(np.zeros((batch, steps)))
            return bool(np.all(s == 1.0))

        run_property(prop, integers(1, 4), integers(1, 16), runs=10, seed=7)


class TestDetectorCausality:
    def test_cusum_never_fires_before_anomaly_onset(self):
        """With sub-threshold baseline noise, the first alarm index is at or
        after the first anomalous bin — alerts cannot precede the anomaly."""

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
            return hit is None or hit >= onset

        run_property(
            prop,
            integers(1, 120),
            floats(2.0, 20.0),
            floats(0.0, 0.9),
            runs=60,
            seed=8,
        )


class TestSamplerInvariants:
    def test_packet_sampling_unbiased_within_ci(self):
        """Total kept packets over many flows stays inside a 6-sigma
        binomial confidence band around n/rate — for ``sample_at_rates``,
        which keeps exactly what a ``reference_sample`` loop keeps."""

        from repro.netflow.records import FlowRecord, Protocol

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
            return abs(total - expected) <= 6.0 * sigma + 1.0

        run_property(
            prop, choices([2, 8, 64]), integers(50, 2000), runs=12, seed=10
        )

    def test_wire_codec_roundtrip_preserves_counters(self):
        def prop(flow):
            (back,) = decode_flows_batch(encode_flows(FlowBatch.from_records([flow])))
            assert back.packets == flow.packets
            assert back.bytes_ == flow.bytes_
            assert back.src_addr == flow.src_addr
            assert back.dst_addr == flow.dst_addr
            assert back.timestamp == flow.timestamp
            return True

        run_property(prop, flow_records(), runs=50, seed=11)


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
        def prop(field, side, excess, n, row):
            info = np.iinfo(FLOW_DTYPE[field])
            value = info.min - excess if side == "below" else info.max + excess
            expected = self.scalar_error(field, value)
            assert expected is not None, (field, value)
            with pytest.raises(expected):
                FlowBatch.from_columns(n, **self.columns_with(field, value, n, row))
            return True

        run_property(
            prop,
            choices(self.FIELDS),
            choices(["below", "above"]),
            choices([1, 2, 2**31, 2**64]),
            integers(1, 12),
            integers(0, 11),
            runs=120,
            seed=35,
        )

    def test_domain_edges_are_accepted_and_match_the_record_path(self):
        def prop(field, side, n, row):
            info = np.iinfo(FLOW_DTYPE[field])
            floor = 1 if field == "sampling_rate" else int(info.min)
            value = floor if side == "floor" else int(info.max)
            assert self.scalar_error(field, value) is None
            batch = FlowBatch.from_columns(n, **self.columns_with(field, value, n, row))
            assert batch == FlowBatch.from_records(batch.to_records())
            assert int(batch.array[field][row % n]) == value
            return True

        run_property(
            prop,
            choices(self.FIELDS),
            choices(["floor", "ceiling"]),
            integers(1, 12),
            integers(0, 11),
            runs=60,
            seed=36,
        )

    def test_sampling_rates_beyond_the_wire_field_are_refused(self):
        batch = FlowBatch.from_columns(2, **self.columns_with("packets", 10, 2, 0))
        rng = np.random.default_rng(0)
        with pytest.raises(OverflowError):
            sample_at_rates(batch, np.array([1, 2**16]), rng)
        with pytest.raises(ValueError):
            sample_at_rates(batch, np.array([0, 2]), rng)
