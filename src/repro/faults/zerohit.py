"""Zero-hit classification: which fault plans provably never fire?

A reliability sweep runs a *population* of emulations that differ only
in their fault plans (rate and seed).  At the low rates reliability
studies care about, most plans draw no fault at all over the whole run,
so simulating them again would only reproduce the fault-free execution.
This module proves that ahead of time:

* one *reference* run with a counting injector (:class:`CountingPlan`)
  records how many fault-draw opportunities each ``(kind, site)`` sees
  in a fault-free execution;
* :func:`record_draws` turns that census into a draw count per
  transient record of a plan;
* :func:`zero_hit` replays every record's xorshift64* stream for that
  many draws and reports the plans whose streams never hit.

A zero-hit plan consults the injector at exactly the reference's
opportunities and gets "no fault" every time, so it executes the exact
same event sequence as the reference and its report can be taken from
the reference instead of re-simulating
(:func:`repro.analysis.reliability.reliability_sweep` does this for every
engine).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.faults.model import (
    KIND_BU_DROP,
    KIND_CORRUPTION,
    KIND_FU_STALL,
    KIND_GRANT_LOSS,
    FaultPlan,
)
from repro.faults.prng import stream_state


# ---------------------------------------------------------------------------
# predraw: replay xorshift64* streams ahead of the simulation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_INV_2_64 = 1.0 / float(1 << 64)
_XS_MULT = 0x2545F4914F6CDD1D


def predraw_any_hit(states: Sequence[int], rates: Sequence[float],
                    draws: Sequence[int]) -> List[bool]:
    """Per stream: does any of the first ``draws[i]`` Bernoulli samples hit?

    Replays xorshift64* exactly like
    :meth:`~repro.faults.prng.DeterministicStream.chance`
    (same shifts, wrapping multiply, u64 -> [0, 1) mapping and strict
    ``<``), so it makes exactly the decisions
    :class:`~repro.faults.injector.FaultInjector` would.
    """
    hits = []
    for state, rate, count in zip(states, rates, draws):
        x = state
        hit = False
        for _ in range(count):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            if ((x * _XS_MULT) & _MASK64) * _INV_2_64 < rate:
                hit = True
                break
        hits.append(hit)
    return hits


# ---------------------------------------------------------------------------
# opportunity counting: how often would a fault plan be consulted?
# ---------------------------------------------------------------------------


class _CountingInjector:
    """Injector stand-in that tallies draw opportunities and never injects.

    The kernel consults the injector once per opportunity; this records
    ``(kind, site) -> count`` for the fault-free execution so the
    zero-hit predraw knows how many samples each record's stream would
    consume.  ``counters.total`` stays 0, so the reference report is
    bit-identical to a fault-free run (see ``build_report``).
    """

    class _ZeroCounters:
        total = 0

    def __init__(self) -> None:
        self.opportunities: Dict[Tuple[str, str], int] = {}
        self.counters = self._ZeroCounters()

    def _count(self, kind: str, site: str) -> None:
        key = (kind, site)
        self.opportunities[key] = self.opportunities.get(key, 0) + 1

    def corrupt_package(self, segment_index: int) -> bool:
        self._count(KIND_CORRUPTION, f"segment:{segment_index}")
        return False

    def lose_segment_grant(self, segment_index: int) -> bool:
        self._count(KIND_GRANT_LOSS, f"segment:{segment_index}")
        return False

    def lose_ca_grant(self) -> bool:
        self._count(KIND_GRANT_LOSS, "ca")
        return False

    def stall_ticks(self, process: str) -> int:
        self._count(KIND_FU_STALL, f"fu:{process}")
        return 0

    def drop_in_bu(self, left: int, right: int) -> bool:
        self._count(KIND_BU_DROP, f"bu:{left}:{right}")
        return False

    def permanent_failures(self) -> Tuple[()]:
        return ()

    def summary(self) -> Dict[str, object]:  # pragma: no cover - not reported
        return {"total": 0, "by_kind": {}, "by_site": {}}


class CountingPlan:
    """A fault-plan stand-in whose injector is the counting injector.

    Pass it as any engine's ``fault_plan``; after ``run()`` the
    simulation's ``faults.opportunities`` holds the census.
    """

    def injector(self) -> _CountingInjector:
        return _CountingInjector()


def record_draws(plan: FaultPlan,
                 opportunities: Dict[Tuple[str, str], int]) -> List[Tuple[int, object, int]]:
    """Per transient record: ``(record index, record, draw count)`` against
    the reference execution's opportunity tally."""
    out = []
    for index, record in enumerate(plan.records):
        if not record.is_transient:
            continue
        count = sum(
            n for (kind, site), n in opportunities.items()
            if kind == record.kind and record.matches(site)
        )
        out.append((index, record, count))
    return out


def zero_hit(
    plans: Sequence[FaultPlan],
    opportunities: Dict[Tuple[str, str], int],
) -> List[bool]:
    """Per plan: can it provably not inject anything the reference didn't?

    A plan with permanent records always changes the run, so it is never
    zero-hit.  All other plans' streams are replayed by
    :func:`predraw_any_hit`.
    """
    states: List[int] = []
    rates: List[float] = []
    draws: List[int] = []
    owner: List[int] = []
    for p, plan in enumerate(plans):
        for index, record, count in record_draws(plan, opportunities):
            states.append(
                stream_state(plan.seed, record.site, record.kind, str(index))
            )
            rates.append(record.rate)
            draws.append(count)
            owner.append(p)
    verdict = [not plan.permanent_records for plan in plans]
    for k, hit in enumerate(predraw_any_hit(states, rates, draws)):
        if hit:
            verdict[owner[k]] = False
    return verdict
