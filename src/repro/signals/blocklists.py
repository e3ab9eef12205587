"""Synthetic public blocklist directory (the A1 auxiliary signal source).

The paper aggregates 151 public blocklists into 11 categories (§5.1),
widened to /24 subnets, refreshed over the same 100-day window as the
traffic.  This module reproduces that structure: a
:class:`BlocklistDirectory` holds per-category /24 membership built from the
synthetic world's ground-truth malicious population — with configurable
*recall* (listed fraction of true bots) and *false-listing rate* (benign /24s
listed anyway), because "blocklisted addresses may miss some offenders and
may contain legitimate addresses".
"""

from __future__ import annotations

import numpy as np

from ..netflow.addressing import subnet24

__all__ = ["BLOCKLIST_CATEGORIES", "BlocklistDirectory"]

# Eleven categories, following §5.1's description of the selected lists:
# DDoS sources, reflection attack sources, VoIP attackers, C&C servers, and
# bots infected with specific malware families.
BLOCKLIST_CATEGORIES: tuple[str, ...] = (
    "ddos_source",
    "bot_generic",
    "scanner",
    "reflection",
    "voip_attack",
    "cnc_server",
    "malware_mirai",
    "malware_gafgyt",
    "malware_xor",
    "spam_source",
    "bruteforce",
)


class BlocklistDirectory:
    """Per-category /24 blocklists with realistic imperfection.

    Parameters
    ----------
    recall:
        Probability a genuinely malicious /24 appears on at least one list.
    false_rate:
        Fraction (relative to the listed count) of extra *benign* /24s
        erroneously listed.
    categories_per_subnet:
        Mean number of categories a listed subnet appears in (bots often
        land on several lists).
    """

    def __init__(
        self,
        recall: float = 0.85,
        false_rate: float = 0.08,
        categories_per_subnet: float = 1.6,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= recall <= 1.0:
            raise ValueError("recall must be in [0, 1]")
        if false_rate < 0:
            raise ValueError("false_rate must be non-negative")
        self.recall = recall
        self.false_rate = false_rate
        self.categories_per_subnet = categories_per_subnet
        self._rng = rng or np.random.default_rng(0)
        self._lists: dict[str, set[int]] = {c: set() for c in BLOCKLIST_CATEGORIES}
        self._all: set[int] = set()

    # ------------------------------------------------------------------
    @classmethod
    def from_ground_truth(
        cls,
        malicious_addrs: set[int],
        benign_addrs: np.ndarray | None = None,
        recall: float = 0.85,
        false_rate: float = 0.08,
        rng: np.random.Generator | None = None,
    ) -> "BlocklistDirectory":
        """Build a directory from the synthetic world's true bot population."""
        directory = cls(recall=recall, false_rate=false_rate, rng=rng)
        directory.populate(malicious_addrs, benign_addrs)
        return directory

    def populate(
        self,
        malicious_addrs: set[int],
        benign_addrs: np.ndarray | None = None,
    ) -> None:
        """Assign malicious /24s to categories; inject benign false listings."""
        rng = self._rng
        subnets = sorted({subnet24(a) for a in malicious_addrs})
        n_cat = len(BLOCKLIST_CATEGORIES)
        # First three categories dominate (Appendix E: DDoS-source, bot, and
        # scanner lists are the prevalent ones).
        cat_weights = np.array([0.25, 0.20, 0.15, 0.07, 0.05, 0.06, 0.06, 0.05, 0.04, 0.04, 0.03])
        cat_weights = cat_weights / cat_weights.sum()
        for subnet in subnets:
            if rng.random() > self.recall:
                continue  # missed offender
            n_memberships = max(1, int(rng.poisson(self.categories_per_subnet)))
            picks = rng.choice(n_cat, size=min(n_memberships, n_cat), replace=False, p=cat_weights)
            for c in picks:
                self._lists[BLOCKLIST_CATEGORIES[c]].add(subnet)
            self._all.add(subnet)
        if benign_addrs is not None and len(benign_addrs) and self.false_rate > 0:
            n_false = int(self.false_rate * len(self._all))
            if n_false:
                picks = rng.choice(benign_addrs, size=min(n_false, len(benign_addrs)), replace=False)
                for addr in picks:
                    subnet = subnet24(int(addr))
                    cat = BLOCKLIST_CATEGORIES[int(rng.integers(n_cat))]
                    self._lists[cat].add(subnet)
                    self._all.add(subnet)

    # ------------------------------------------------------------------
    def is_listed(self, addr: int, category: str | None = None) -> bool:
        """Whether ``addr``'s /24 appears on any list (or one category)."""
        subnet = subnet24(addr)
        if category is None:
            return subnet in self._all
        if category not in self._lists:
            raise KeyError(f"unknown blocklist category {category!r}")
        return subnet in self._lists[category]

    def categories_of(self, addr: int) -> list[str]:
        """All categories listing ``addr``'s /24."""
        subnet = subnet24(addr)
        return [c for c, members in self._lists.items() if subnet in members]

    def category_sizes(self) -> dict[str, int]:
        return {c: len(members) for c, members in self._lists.items()}

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, addr: int) -> bool:
        return self.is_listed(addr)
