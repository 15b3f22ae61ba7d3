"""The transaction stats table (§III-B).

Per transaction *profile* (the workload operation type — e.g. "bank.transfer"),
the table keeps an EWMA of historical commit latencies; that EWMA is the
point estimate the ETS triple needs.  The paper stores, per entry, "a bloom
filter representation of the most current successful commit times" — a
storage format for that history which nothing in the protocol reads, so
the estimate alone is kept here.

Whenever a transaction starts, its expected commit time is picked from
this table (``expected_commit = start + expected_duration(profile)``) and
travels inside every request message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.util.stats import Ewma

__all__ = ["ProfileStats", "TransactionStatsTable"]


@dataclass
class ProfileStats:
    """One table entry."""

    profile: str
    ewma: Ewma = field(default_factory=lambda: Ewma(alpha=0.2))

    def record(self, duration: float) -> None:
        self.ewma.observe(duration)


class TransactionStatsTable:
    """profile -> :class:`ProfileStats` map with safe fallbacks."""

    def __init__(self) -> None:
        self._entries: Dict[str, ProfileStats] = {}

    def entry(self, profile: str) -> ProfileStats:
        stats = self._entries.get(profile)
        if stats is None:
            stats = ProfileStats(profile)
            self._entries[profile] = stats
        return stats

    def record_commit(self, profile: str, duration: float) -> None:
        self.entry(profile).record(duration)

    def expected_duration(self, profile: str, fallback: float) -> float:
        """EWMA estimate of commit latency, or ``fallback`` before any data."""
        stats = self._entries.get(profile)
        if stats is None or not stats.ewma.available:
            return fallback
        return stats.ewma.value

    def known_profiles(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, profile: str) -> bool:
        return profile in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<TransactionStatsTable profiles={len(self._entries)}>"
