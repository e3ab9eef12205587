"""Unit tests for blocklists, history stores, clustering, and features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import ip_to_int, subnet24
from repro.signals import (
    BLOCKLIST_CATEGORIES,
    AlertRecord,
    AttackerCustomerGraph,
    AttackHistoryStore,
    BlocklistDirectory,
    FeatureExtractor,
    FeatureScaler,
    N_FEATURES,
    PreviousAttackerStore,
    SEVERITIES,
    bipartite_clustering,
    feature_names,
    group_slices,
    severity_of,
)
from repro.synth import AttackType


class TestBlocklistDirectory:
    def make(self, recall=1.0, false_rate=0.0):
        rng = np.random.default_rng(7)
        malicious = {ip_to_int("45.0.0.1") + i * 256 for i in range(50)}
        benign = np.array([ip_to_int("20.0.0.1") + i * 256 for i in range(100)])
        directory = BlocklistDirectory(recall=recall, false_rate=false_rate, rng=rng)
        directory.populate(malicious, benign)
        return directory, malicious

    def test_full_recall_lists_all(self):
        directory, malicious = self.make(recall=1.0)
        assert all(a in directory for a in malicious)

    def test_partial_recall_misses_some(self):
        directory, malicious = self.make(recall=0.5)
        listed = sum(1 for a in malicious if a in directory)
        assert 10 < listed < 45

    def test_false_rate_lists_benign(self):
        directory, _ = self.make(recall=1.0, false_rate=0.2)
        benign = [ip_to_int("20.0.0.1") + i * 256 for i in range(100)]
        assert any(a in directory for a in benign)

    def test_membership_is_per_slash24(self):
        directory, malicious = self.make()
        addr = next(iter(malicious))
        sibling = subnet24(addr) + 200  # same /24, different host
        assert directory.is_listed(sibling)

    def test_categories_of_listed_address(self):
        directory, malicious = self.make()
        addr = next(iter(malicious))
        cats = directory.categories_of(addr)
        assert cats and all(c in BLOCKLIST_CATEGORIES for c in cats)

    def test_unknown_category_raises(self):
        directory, malicious = self.make()
        with pytest.raises(KeyError):
            directory.is_listed(next(iter(malicious)), "nonexistent")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BlocklistDirectory(recall=1.5)
        with pytest.raises(ValueError):
            BlocklistDirectory(false_rate=-0.1)

    def test_category_sizes_cover_all(self):
        directory, _ = self.make()
        sizes = directory.category_sizes()
        assert set(sizes) == set(BLOCKLIST_CATEGORIES)
        assert sum(sizes.values()) >= len(directory)


def alert(customer=0, type_=AttackType.UDP_FLOOD, detect=100, end=110,
          peak=1e6, attackers=(1, 2, 3)):
    return AlertRecord(
        customer_id=customer, attack_type=type_, detect_minute=detect,
        end_minute=end, peak_bytes=peak, attackers=frozenset(attackers),
    )


class TestPreviousAttackerStore:
    def test_members_effective_after_end(self):
        store = PreviousAttackerStore()
        store.add_alert(alert(end=110, attackers=(7, 8)))
        assert store.members_at(0, 109) == set()
        assert store.members_at(0, 110) == {7, 8}

    def test_union_over_alerts(self):
        store = PreviousAttackerStore()
        store.add_alert(alert(end=10, attackers=(1,)))
        store.add_alert(alert(end=20, attackers=(2,)))
        assert store.members_at(0, 15) == {1}
        assert store.members_at(0, 25) == {1, 2}

    def test_per_customer_isolation(self):
        store = PreviousAttackerStore()
        store.add_alert(alert(customer=1, end=10, attackers=(5,)))
        assert store.members_at(0, 100) == set()
        assert store.is_previous_attacker(1, 5, 100)
        assert not store.is_previous_attacker(1, 6, 100)


class TestAttackHistoryStore:
    def test_severity_buckets(self):
        assert severity_of(1e6, 1e6) == "low"
        assert severity_of(1e7, 1e6) == "medium"
        assert severity_of(1e8, 1e6) == "high"
        assert severity_of(1.0, 0.0) == "high"

    def test_features_shape_and_placement(self):
        store = AttackHistoryStore(decay_minutes=100)
        store.add_alert(alert(type_=AttackType.TCP_SYN, end=50, peak=1e8), base_rate=1e6)
        features = store.features_at(0, 50)
        assert features.shape == (18,)
        types = list(AttackType)
        idx = types.index(AttackType.TCP_SYN) * 3 + SEVERITIES.index("high")
        assert features[idx] == pytest.approx(1.0)
        assert features.sum() == pytest.approx(1.0)

    def test_exponential_decay(self):
        store = AttackHistoryStore(decay_minutes=100)
        store.add_alert(alert(end=0), base_rate=1e6)
        f0 = store.features_at(0, 0).sum()
        f100 = store.features_at(0, 100).sum()
        assert f100 == pytest.approx(f0 * np.exp(-1.0))

    def test_block_matches_pointwise(self):
        """Property: the incremental block equals per-minute features_at."""
        store = AttackHistoryStore(decay_minutes=37)
        rng = np.random.default_rng(2)
        types = list(AttackType)
        for _ in range(6):
            end = int(rng.integers(0, 200))
            store.add_alert(
                alert(type_=types[int(rng.integers(len(types)))], end=end,
                      peak=float(rng.uniform(1e5, 1e9))),
                base_rate=1e6,
            )
        block = store.feature_block(0, 50, 120)
        for t in range(0, 70, 7):
            assert block[t] == pytest.approx(store.features_at(0, 50 + t), rel=1e-9)

    def test_future_alerts_invisible(self):
        store = AttackHistoryStore()
        store.add_alert(alert(end=500), base_rate=1e6)
        assert store.features_at(0, 100).sum() == 0
        assert store.alerts_before(0, 100) == 0
        assert store.alerts_before(0, 600) == 1

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            AttackHistoryStore(decay_minutes=0)


class TestBipartiteClustering:
    def test_identical_neighbors_full_overlap(self):
        n = {1: frozenset({"a", "b"}), 2: frozenset({"a", "b"})}
        coeffs = bipartite_clustering(n)
        assert coeffs[1] == (1.0, 1.0, 1.0)

    def test_disjoint_neighbors_zero(self):
        n = {1: frozenset({"a"}), 2: frozenset({"b"})}
        coeffs = bipartite_clustering(n)
        assert coeffs[1] == (0.0, 0.0, 0.0)

    def test_partial_overlap_hand_computed(self):
        n = {1: frozenset({"a", "b"}), 2: frozenset({"b", "c", "d"})}
        dot, mn, mx = bipartite_clustering(n)[1]
        assert dot == pytest.approx(1 / 4)  # |∩|=1, |∪|=4
        assert mn == pytest.approx(1 / 2)
        assert mx == pytest.approx(1 / 3)

    def test_min_geq_dot_geq_nothing(self):
        """Invariant: cc_min >= cc_dot and cc_min >= cc_max."""
        rng = np.random.default_rng(3)
        groups = list("abcdefgh")
        n = {
            i: frozenset(rng.choice(groups, size=rng.integers(1, 5), replace=False))
            for i in range(6)
        }
        for dot, mn, mx in bipartite_clustering(n).values():
            assert mn >= dot - 1e-12
            assert mn >= mx - 1e-12

    def test_empty_neighbors(self):
        assert bipartite_clustering({1: frozenset()})[1] == (0.0, 0.0, 0.0)


class TestAttackerCustomerGraph:
    def test_window_expiry(self):
        graph = AttackerCustomerGraph(window_minutes=10)
        graph.add_alert(0, 1, {ip_to_int("45.0.0.1")})
        graph.add_alert(0, 2, {ip_to_int("45.0.0.2")})  # same /24!
        assert graph.features_at(1, 5).sum() > 0
        assert graph.features_at(1, 20).sum() == 0

    def test_same_slash24_counts_as_shared_group(self):
        graph = AttackerCustomerGraph(window_minutes=100)
        graph.add_alert(0, 1, {ip_to_int("45.0.0.1")})
        graph.add_alert(0, 2, {ip_to_int("45.0.0.99")})
        assert graph.features_at(1, 1) == pytest.approx([1.0, 1.0, 1.0])

    def test_block_stride_reuses_values(self):
        graph = AttackerCustomerGraph(window_minutes=50)
        graph.add_alert(10, 1, {ip_to_int("45.0.0.1")})
        graph.add_alert(10, 2, {ip_to_int("45.0.0.2")})
        block = graph.feature_block(1, 0, 30, stride=10)
        assert block.shape == (30, 3)
        assert (block[10:20] == block[10]).all()

    def test_empty_attackers_ignored(self):
        graph = AttackerCustomerGraph()
        graph.add_alert(0, 1, set())
        assert graph.features_at(1, 1).sum() == 0

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            AttackerCustomerGraph(window_minutes=0)


class TestFeatureLayout:
    def test_total_width(self):
        assert N_FEATURES == 273
        assert len(feature_names()) == 273

    def test_group_slices_partition(self):
        slices = group_slices()
        covered = sorted(
            i for s in slices.values() for i in range(s.start, s.stop)
        )
        assert covered == list(range(273))

    def test_names_prefixed_by_group(self):
        names = feature_names()
        slices = group_slices()
        for group, sl in slices.items():
            assert all(n.startswith(group + ".") for n in names[sl])


class TestFeatureExtractor:
    def test_unknown_group_rejected(self, trace):
        with pytest.raises(ValueError, match="unknown feature groups"):
            FeatureExtractor(trace, enabled_groups=frozenset({"V", "Z9"}))

    def test_disabled_groups_zero(self, trace):
        fx = FeatureExtractor(trace, enabled_groups=frozenset({"V"}))
        event = trace.events[-1]
        block = fx.window(event.customer_id, event.onset - 50, event.onset)
        slices = group_slices()
        assert block[:, slices["V"]].sum() > 0
        for g in ("A1", "A2", "A3", "A4", "A5"):
            assert block[:, slices[g]].sum() == 0

    def test_empty_window_rejected(self, trace):
        fx = FeatureExtractor(trace)
        with pytest.raises(ValueError):
            fx.window(0, 10, 10)

    def test_alert_feeds_history_group(self, trace):
        fx = FeatureExtractor(trace)
        event = trace.events[0]
        fx.add_alert(alert(customer=event.customer_id, end=event.end,
                           detect=event.onset, attackers=tuple(event.attackers)))
        block = fx.window(event.customer_id, event.end, event.end + 10)
        slices = group_slices()
        assert block[:, slices["A4"]].sum() > 0


class TestFeatureScaler:
    def test_transform_standardizes(self, rng):
        blocks = [np.abs(rng.lognormal(3, 2, size=(50, 10))) for _ in range(3)]
        scaler = FeatureScaler().fit(blocks)
        out = scaler.transform(blocks[0])
        stacked = np.concatenate([scaler.transform(b) for b in blocks])
        assert stacked.mean(axis=0) == pytest.approx(np.zeros(10), abs=1e-9)
        assert stacked.std(axis=0) == pytest.approx(np.ones(10), abs=1e-9)

    def test_constant_columns_pass_through(self, rng):
        block = np.zeros((20, 3))
        scaler = FeatureScaler().fit([block])
        assert np.isfinite(scaler.transform(block)).all()

    def test_unfit_transform_raises(self):
        with pytest.raises(RuntimeError):
            FeatureScaler().transform(np.zeros((2, 2)))

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            FeatureScaler().fit([])

    def test_state_dict_roundtrip(self, rng):
        scaler = FeatureScaler().fit([rng.lognormal(size=(10, 4))])
        clone = FeatureScaler()
        clone.load_state_dict(scaler.state_dict())
        x = rng.lognormal(size=(5, 4))
        assert clone.transform(x) == pytest.approx(scaler.transform(x))

    @settings(max_examples=20)
    @given(seed=st.integers(0, 100))
    def test_transform_monotone_per_column(self, seed):
        """log1p+standardize preserves per-column ordering."""
        rng = np.random.default_rng(seed)
        block = rng.uniform(0, 100, size=(30, 4))
        scaler = FeatureScaler().fit([block])
        out = scaler.transform(block)
        for col in range(4):
            order_in = np.argsort(block[:, col], kind="stable")
            order_out = np.argsort(out[:, col], kind="stable")
            assert (order_in == order_out).all()
