"""Auxiliary signals: blocklists, history stores, clustering, 273 features."""

from .blocklists import BLOCKLIST_CATEGORIES, BlocklistDirectory
from .clustering import AttackerCustomerGraph, bipartite_clustering
from .features import (
    FEATURE_GROUPS,
    N_FEATURES,
    FeatureExtractor,
    FeatureScaler,
    feature_names,
    group_slices,
)
from .history import (
    SEVERITIES,
    AlertRecord,
    AttackHistoryStore,
    PreviousAttackerStore,
    severity_of,
)

__all__ = [
    "BLOCKLIST_CATEGORIES", "BlocklistDirectory",
    "AttackerCustomerGraph", "bipartite_clustering",
    "N_FEATURES", "FEATURE_GROUPS", "feature_names", "group_slices",
    "FeatureExtractor", "FeatureScaler",
    "AlertRecord", "PreviousAttackerStore", "AttackHistoryStore",
    "SEVERITIES", "severity_of",
]
