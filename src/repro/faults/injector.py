"""The per-simulation fault-injection runtime.

The kernel asks the injector one question per fault opportunity ("does this
delivery fail its CRC?", "is this grant lost?") and the injector answers
from the fault plan's deterministic PRNG streams.  One stream per record:
every opportunity draws a Bernoulli sample from *each* matching record, so
adding a record to a plan never changes the decisions of the others, and
two runs of the same plan produce bit-identical injections.

The injector also keeps the fault bookkeeping — how many faults of each
kind were injected at which site — snapshotted into the report's fault
summary at the end of emulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.faults.model import (
    KIND_BU_DROP,
    KIND_CORRUPTION,
    KIND_FU_STALL,
    KIND_GRANT_LOSS,
    FaultPlan,
    FaultRecord,
)
from repro.faults.prng import DeterministicStream


@dataclass
class FaultCounters:
    """Injection bookkeeping: per-kind and per-site totals."""

    by_kind: Dict[str, int] = field(default_factory=dict)
    by_site: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, site: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.by_site[site] = self.by_site.get(site, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "by_kind": dict(sorted(self.by_kind.items())),
            "by_site": dict(sorted(self.by_site.items())),
        }


class FaultInjector:
    """Runtime oracle over a :class:`~repro.faults.model.FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        # one independent stream per record, keyed by its position so two
        # otherwise-identical records still draw independently; grouped by
        # kind, in plan order within each kind
        self._streams: Dict[str, List[Tuple[FaultRecord, DeterministicStream]]]
        self._streams = {}
        for i, record in enumerate(plan.records):
            if record.is_transient:
                stream = DeterministicStream(
                    plan.seed, record.site, record.kind, str(i)
                )
                self._streams.setdefault(record.kind, []).append((record, stream))
        #: the transient kinds the plan holds: a query about any other kind
        #: draws from no stream and always answers "no fault", so the
        #: kernel may skip it
        self.kinds: FrozenSet[str] = frozenset(self._streams)

    # -- generic draw ----------------------------------------------------------

    def _draw(self, kind: str, site: str) -> Optional[FaultRecord]:
        """One opportunity at ``site``: Bernoulli-draw every matching record."""
        hit: Optional[FaultRecord] = None
        for record, stream in self._streams.get(kind, ()):
            if not record.matches(site):
                continue
            if stream.chance(record.rate) and hit is None:
                hit = record
        if hit is not None:
            self.counters.record(kind, site)
        return hit

    # -- kernel-facing queries -------------------------------------------------

    def corrupt_package(self, segment_index: int) -> bool:
        """Does the package delivered on ``segment_index`` fail its CRC?"""
        return self._draw(KIND_CORRUPTION, f"segment:{segment_index}") is not None

    def lose_segment_grant(self, segment_index: int) -> bool:
        """Is the SA grant on ``segment_index`` lost before the transfer?"""
        return self._draw(KIND_GRANT_LOSS, f"segment:{segment_index}") is not None

    def lose_ca_grant(self) -> bool:
        """Is the CA's circuit grant lost before the source fills the BU?"""
        return self._draw(KIND_GRANT_LOSS, "ca") is not None

    def stall_ticks(self, process: str) -> int:
        """Extra compute ticks injected into ``process`` (0 = no stall)."""
        record = self._draw(KIND_FU_STALL, f"fu:{process}")
        return record.ticks if record is not None else 0

    def drop_in_bu(self, left: int, right: int) -> bool:
        """Does BU(left,right) overrun and drop the package it latched?"""
        return self._draw(KIND_BU_DROP, f"bu:{left}:{right}") is not None

    def permanent_failures(self) -> Tuple[FaultRecord, ...]:
        """The scheduled permanent failures (kernel turns them into events)."""
        return self.plan.permanent_records

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        data = self.counters.as_dict()
        data["seed"] = self.plan.seed
        data["records"] = len(self.plan.records)
        return data
