"""The discrete-event simulation kernel of the SegBus emulator.

One :class:`Simulation` executes a PSDF application on a platform
configuration and accumulates the monitoring counters of section 3.5.  The
behavioural rules (normative version in DESIGN.md):

**Firing.** A process fires once every input flow is fully delivered
(initial processes at t = 0); activity starts at the first clock edge of its
segment *strictly after* the enabling instant, so a source process starts at
tick 1 — the paper's ``P0, Start Time = 10989 ps`` at 91 MHz.

**Intra-segment transfer.** Master computes ``C`` ticks per package, raises
a request; the SA arbitrates round-robin whenever its bus is free and
unlocked.  Each arbitration round observes every pending request (that is
the SA's request counter — contention inflates it above the raw package
count, as in the paper's 124 observations for 95 local packages).  A grant
occupies the bus for ``s`` ticks (plus configured grant/ack latencies).

**Inter-segment transfer.** The SA forwards the request to the CA (counted
once per package at both arbiters).  The CA connects the full source→target
path when every segment on it is free, then: the source master fills the
first BU (``s`` ticks, source clock), segments release in cascade while the
package hops BU-to-BU (``s`` ticks per segment, local clock); the final hop
delivers to the target device.  A BU's waiting period between load and
unload is ``bu_sampling_ticks`` (+``bu_sync_ticks``) in the downstream
clock — W̄P = 1 tick by default, matching the paper's measurement.

**Counters.** SA TCT = clock cycles from t = 0 until the segment's last bus
activity; CA TCT = cycles until the global end plus a small epilogue.  The
execution time is ``max_x(TCT_x * period_x)`` over all SAs and the CA
(section 4, "Calculation of the execution time").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.emulator.bu import BURT
from repro.emulator.ca import CART
from repro.emulator.clock import ClockDomain
from repro.emulator.config import EmulationConfig
from repro.emulator.counters import (
    BUCounters,
    CACounters,
    ProcessCounters,
    SegmentCounters,
)
from repro.emulator.events import EventQueue, PRIO_CA, PRIO_SA, PRIO_STATE
from repro.emulator.fu import MasterRT, TransferJob
from repro.emulator.segment import SegmentRT
from repro.errors import (
    DeadlockError,
    ElementFailureError,
    EmulationError,
    FaultConfigError,
    MappingError,
    StallError,
)
from repro.faults.model import KIND_PERMANENT
from repro.faults.policy import RetryPolicy
from repro.model.topology import LinearTopology
from repro.psdf.graph import PSDFGraph
from repro.psdf.schedule import Schedule, extract_schedule
from repro.units import Frequency


@dataclass(frozen=True)
class PlatformSpec:
    """The platform parameters the kernel needs (a slimmed-down PSM).

    Usually produced from a platform model (:meth:`from_platform`); a
    parsed PSM scheme gets there through
    :meth:`~repro.xmlio.psm_parser.ParsedPSM.to_platform`, so the model
    elements check every platform value the scheme carries.
    """

    package_size: int
    segment_frequencies_mhz: Mapping[int, float]
    ca_frequency_mhz: float
    placement: Mapping[str, int]
    bu_depths: Mapping[Tuple[int, int], int] = field(default_factory=dict)
    #: per-segment arbitration policy ("round-robin" default, or
    #: "fixed-priority": masters served in ascending name order)
    sa_policies: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.package_size < 1:
            raise EmulationError(f"package size must be >= 1, got {self.package_size}")
        indices = sorted(self.segment_frequencies_mhz)
        if indices != list(range(1, len(indices) + 1)):
            raise EmulationError(
                f"segment indices must be contiguous from 1, got {indices}"
            )
        for process, seg in self.placement.items():
            if seg not in self.segment_frequencies_mhz:
                raise MappingError(
                    f"process {process!r} placed on unknown segment {seg}"
                )

    @property
    def segment_count(self) -> int:
        return len(self.segment_frequencies_mhz)

    @classmethod
    def from_platform(cls, platform) -> "PlatformSpec":
        """Build from :class:`repro.model.elements.SegBusPlatform`."""
        if platform.central_arbiter is None:
            raise EmulationError("platform has no central arbiter")
        return cls(
            package_size=platform.package_size,
            segment_frequencies_mhz={
                seg.index: seg.frequency.mhz for seg in platform.segments
            },
            ca_frequency_mhz=platform.central_arbiter.frequency.mhz,
            placement=platform.process_placement(),
            bu_depths={
                (bu.left, bu.right): bu.depth for bu in platform.border_units
            },
            sa_policies={
                seg.index: seg.arbiter.policy for seg in platform.segments
            },
        )


class Simulation:
    """One emulation run: construct, :meth:`run`, then read the counters."""

    def __init__(
        self,
        application: PSDFGraph,
        spec: PlatformSpec,
        config: Optional[EmulationConfig] = None,
        tracer=None,
        fault_plan=None,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog=None,
    ) -> None:
        self.application = application
        self.spec = spec
        self.config = config or EmulationConfig()
        #: optional repro.emulator.trace.Tracer receiving semantic events
        self.tracer = tracer
        #: optional repro.faults.FaultPlan turned into a per-run injector
        self.faults = fault_plan.injector() if fault_plan is not None else None
        self.retry_policy = retry_policy or RetryPolicy()
        #: optional repro.faults.Watchdog observing the run loop
        self.watchdog = watchdog
        missing = sorted(set(application.process_names) - set(spec.placement))
        if missing:
            raise MappingError(
                "processes without placement: " + ", ".join(missing)
            )
        self.schedule: Schedule = extract_schedule(application, spec.package_size)
        self.topology = LinearTopology(spec.segment_count)
        self.queue = EventQueue()

        self.segments: Dict[int, SegmentRT] = {}
        for index in sorted(spec.segment_frequencies_mhz):
            clock = ClockDomain(
                f"Segment{index}",
                Frequency.from_mhz(spec.segment_frequencies_mhz[index]),
            )
            self.segments[index] = SegmentRT(
                index=index, clock=clock, counters=SegmentCounters(index=index)
            )
        self.ca = CART(
            clock=ClockDomain("CA", Frequency.from_mhz(spec.ca_frequency_mhz)),
            counters=CACounters(),
        )
        self.bus_units: Dict[Tuple[int, int], BURT] = {}
        for pair in self.topology.bu_pairs:
            self.bus_units[pair] = BURT(
                left=pair[0],
                right=pair[1],
                depth=spec.bu_depths.get(pair, 1),
                counters=BUCounters(left=pair[0], right=pair[1]),
            )

        self.process_counters: Dict[str, ProcessCounters] = {}
        self.masters: Dict[str, MasterRT] = {}
        for name in application.process_names:
            counters = ProcessCounters(
                name=name, expected_inputs=self.schedule.inputs_of[name]
            )
            self.process_counters[name] = counters
            transfers = self.schedule.transfers_of[name]
            if transfers:
                self.masters[name] = MasterRT(
                    process=name,
                    segment_index=spec.placement[name],
                    transfers=transfers,
                    counters=counters,
                )
        self.global_end_fs = 0
        self._finished = False
        # dedup handles for pending arbitration events (earliest-wins)
        self._sa_entries: Dict[int, object] = {}
        self._ca_entry = None
        # -- resilience state ------------------------------------------------
        #: retirement counter observed by the watchdog (fires, deliveries,
        #: completed transfers/hops — never NACKs or lost grants)
        self.progress_count = 0
        self.last_progress_fs = 0
        #: True when the run completed in degraded mode (see run())
        self.degraded = False
        #: human-readable descriptions of flows the platform never served
        self.unserved_flows: Tuple[str, ...] = ()
        #: processes whose FU failed permanently, in failure order
        self.failed_elements: List[str] = []
        #: (job, site) pairs abandoned after retry exhaustion
        self._abandoned: List[Tuple[TransferJob, str]] = []
        # per-package failed-attempt counts / CA-queue entry timestamps
        self._failures: Dict[Tuple[str, str, int, int], int] = {}
        self._ca_wait_since: Dict[Tuple[str, str, int, int], int] = {}

    # ------------------------------------------------------------------ utils

    @property
    def package_size(self) -> int:
        return self.spec.package_size

    def _segment_of(self, process: str) -> SegmentRT:
        return self.segments[self.spec.placement[process]]

    def _note_end(self, t_fs: int) -> None:
        if t_fs > self.global_end_fs:
            self.global_end_fs = t_fs

    def _trace(self, kind: str, subject: str, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(self.queue.now_fs, kind, subject, detail)

    def _progress(self, t_fs: int) -> None:
        """Mark a retirement (something durable happened) for the watchdog."""
        self.progress_count += 1
        self.last_progress_fs = t_fs

    @staticmethod
    def _job_key(job: TransferJob) -> Tuple[str, str, int, int]:
        return (
            job.master,
            job.transfer.target,
            job.transfer.order,
            job.package_seq,
        )

    # ------------------------------------------------------------------ firing

    def _schedule_fire(self, process: str, enable_fs: int) -> None:
        clock = self._segment_of(process).clock
        at = clock.edge_after(enable_fs)
        self.queue.schedule(at, lambda p=process: self._on_fire(p), PRIO_STATE)

    def _on_fire(self, process: str) -> None:
        now = self.queue.now_fs
        if process in self.failed_elements:
            return  # a dead FU never fires
        counters = self.process_counters[process]
        counters.start_fs = now
        self._trace("fire", process)
        self._progress(now)
        master = self.masters.get(process)
        if master is None:
            # A sink: its job is consuming inputs, all already delivered;
            # it completes at its own firing edge.
            counters.done = True
            counters.end_fs = now
            self._trace("process_done", process)
            self._note_end(now)
            return
        self._start_compute(master, now)

    # ------------------------------------------------------------------ compute

    def _start_compute(self, master: MasterRT, at_fs: int) -> None:
        if master.failed:
            return
        transfer = master.current_transfer
        assert transfer is not None
        clock = self.segments[master.segment_index].clock
        start = clock.edge_at_or_after(at_fs)
        master.computing = True
        stall = 0
        if self.faults is not None:
            stall = self.faults.stall_ticks(master.process)
            if stall:
                master.counters.stall_ticks_injected += stall
                self._trace("fu_stall", master.process, f"+{stall} ticks")
        # master_handshake_ticks model the request/acknowledge signalling
        # between producing a package and the request reaching the arbiter
        end = start + clock.ticks_to_fs(
            transfer.ticks_per_package + self.config.master_handshake_ticks + stall
        )
        self.queue.schedule(
            end, lambda m=master: self._on_compute_done(m), PRIO_STATE
        )

    def _on_compute_done(self, master: MasterRT) -> None:
        now = self.queue.now_fs
        if master.failed:
            master.computing = False
            return  # the FU died while computing; the package never forms
        master.computing = False
        master.waiting_grant = True
        transfer = master.current_transfer
        assert transfer is not None
        source_segment = master.segment_index
        target_segment = self.spec.placement[transfer.target]
        job = TransferJob(
            master=master.process,
            source_segment=source_segment,
            target_segment=target_segment,
            transfer=transfer,
            package_seq=master.package_index,
        )
        segment = self.segments[source_segment]
        self._trace("request", master.process, job.label)
        if job.is_inter_segment:
            segment.counters.inter_requests += 1
            self.ca.counters.inter_requests += 1
            self.ca.queue.append(job)
            self._ca_wait_since[self._job_key(job)] = now
            self._arm_timeout_sweep(now)
            self._schedule_ca_check(now)
        else:
            segment.pending_intra.append(job)
            if segment.locked or not segment.bus_free_at(now):
                # The SA logs the incoming request immediately but cannot
                # serve it; the request is observed again in every later
                # arbitration round — this is what pushes the paper's
                # request counters above the raw package count (124 vs 95
                # local packages on SA1).
                segment.counters.intra_requests += 1
            self._schedule_sa_check(segment, now)

    # ------------------------------------------------------------------ SA side

    def _schedule_sa_check(self, segment: SegmentRT, t_fs: int) -> None:
        at = segment.clock.edge_at_or_after(
            max(t_fs, segment.bus_busy_until_fs, segment.next_grant_fs)
        )
        entry = self._sa_entries.get(segment.index)
        if entry is not None and not entry.cancelled:
            if entry.time_fs <= at:
                return
            self.queue.cancel(entry)
        self._sa_entries[segment.index] = self.queue.schedule(
            at, lambda s=segment: self._on_sa_check(s), PRIO_SA
        )

    def _on_sa_check(self, segment: SegmentRT) -> None:
        self._sa_entries.pop(segment.index, None)
        now = self.queue.now_fs
        if segment.locked:
            return  # circuit in progress; unlock re-schedules the check
        if not segment.bus_free_at(now):
            self._schedule_sa_check(segment, now)
            return
        if segment.pending_bu and self._try_serve_hop(segment, now):
            return
        if not segment.pending_intra:
            return
        # One arbitration round: every pending request is observed.
        segment.counters.intra_requests += len(segment.pending_intra)
        if self.spec.sa_policies.get(segment.index) == "fixed-priority":
            job = self._pick_fixed_priority(segment)
        else:
            job = self._pick_round_robin(segment)
        if self.faults is not None and self.faults.lose_segment_grant(segment.index):
            # the grant signal is lost before the master drives the bus:
            # the request re-enters arbitration one tick later
            segment.counters.grant_losses += 1
            segment.pending_intra.append(job)
            self._trace("grant_loss", f"SA{segment.index}", job.label)
            self._schedule_sa_check(segment, now + segment.clock.ticks_to_fs(1))
            return
        segment.counters.grants += 1
        segment.last_granted_master = job.master
        self._trace("grant", f"SA{segment.index}", job.label)
        clock = segment.clock
        start = now + clock.ticks_to_fs(self.config.grant_latency_ticks)
        occupy = self.package_size + self.config.slave_ack_ticks
        end = start + clock.ticks_to_fs(occupy)
        segment.bus_busy_until_fs = end
        segment.counters.record_busy(start, end)
        self.queue.schedule(
            end, lambda j=job, s=segment: self._on_intra_done(j, s), PRIO_STATE
        )

    def _pick_fixed_priority(self, segment: SegmentRT) -> TransferJob:
        """Fixed-priority arbitration: lowest master name wins every round.

        Starves late-named masters under saturation — the classic trade-off
        the round-robin default avoids; exposed for the policy ablation.
        """
        pending = segment.pending_intra
        best = min(range(len(pending)), key=lambda i: (pending[i].master, i))
        return pending.pop(best)

    def _pick_round_robin(self, segment: SegmentRT) -> TransferJob:
        """Round-robin among masters: rotate past the last granted one."""
        pending = segment.pending_intra
        if segment.last_granted_master is not None:
            order = sorted({j.master for j in pending})
            after = [m for m in order if m > segment.last_granted_master]
            ring = after + [m for m in order if m <= segment.last_granted_master]
            for master_name in ring:
                for i, job in enumerate(pending):
                    if job.master == master_name:
                        return pending.pop(i)
        return pending.pop(0)

    def _on_intra_done(self, job: TransferJob, segment: SegmentRT) -> None:
        now = self.queue.now_fs
        master = self.masters[job.master]
        segment.next_grant_fs = now + segment.clock.ticks_to_fs(
            self.config.bus_turnaround_ticks
        )
        if self.faults is not None and self.faults.corrupt_package(segment.index):
            # CRC failure at the receiving side: the slave NACKs and the
            # package is re-arbitrated (the bus time was still spent)
            segment.counters.nacks += 1
            self._trace("nack", f"Segment{segment.index}", job.label)
            self._fail_intra(job, segment, now)
            if segment.pending_intra or segment.pending_bu:
                self._schedule_sa_check(segment, now)
            self._schedule_ca_check(now)
            self._note_end(now)
            return
        master.waiting_grant = False
        master.counters.packages_sent += 1
        self._clear_retry_state(job)
        self._trace("transfer_done", f"Segment{segment.index}", job.label)
        self._deliver(job.transfer.target, now)
        self._advance_master(master, now, delivered=True)
        self._progress(now)
        if segment.pending_intra or segment.pending_bu:
            self._schedule_sa_check(segment, now)
        self._schedule_ca_check(now)
        self._note_end(now)

    # -- retry/timeout/backoff protocol --------------------------------------

    def _clear_retry_state(self, job: TransferJob) -> None:
        key = self._job_key(job)
        self._failures.pop(key, None)
        self._ca_wait_since.pop(key, None)

    def _record_failure(self, job: TransferJob) -> int:
        """Bump and return the package's failed-attempt count."""
        key = self._job_key(job)
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        return failures

    def _fail_intra(self, job: TransferJob, segment: SegmentRT, now_fs: int) -> None:
        failures = self._record_failure(job)
        if failures >= self.retry_policy.max_attempts:
            self._on_retry_exhausted(
                job, f"segment:{segment.index}", failures, now_fs
            )
            return
        segment.counters.retries += 1
        delay_fs = segment.clock.ticks_to_fs(
            self.retry_policy.delay_ticks(failures)
        )
        self.queue.schedule(
            now_fs + delay_fs,
            lambda j=job: self._requeue_intra(j),
            PRIO_STATE,
        )

    def _requeue_intra(self, job: TransferJob) -> None:
        now = self.queue.now_fs
        if self.masters[job.master].failed:
            return  # the master died while backing off
        segment = self.segments[job.source_segment]
        segment.pending_intra.append(job)
        if segment.locked or not segment.bus_free_at(now):
            segment.counters.intra_requests += 1
        self._trace("retry", job.master, job.label)
        self._schedule_sa_check(segment, now)

    def _fail_inter(self, job: TransferJob, now_fs: int) -> None:
        failures = self._record_failure(job)
        if failures >= self.retry_policy.max_attempts:
            self._on_retry_exhausted(job, "ca", failures, now_fs)
            return
        self.ca.counters.retries += 1
        delay_fs = self.ca.clock.ticks_to_fs(
            self.retry_policy.delay_ticks(failures)
        )
        self.queue.schedule(
            now_fs + delay_fs,
            lambda j=job: self._requeue_inter(j),
            PRIO_STATE,
        )

    def _requeue_inter(self, job: TransferJob) -> None:
        now = self.queue.now_fs
        if self.masters[job.master].failed:
            return
        # the SA forwards the request to the CA again: both arbiters
        # observe (and count) the retry as a fresh request
        self.segments[job.source_segment].counters.inter_requests += 1
        self.ca.counters.inter_requests += 1
        self.ca.queue.append(job)
        self._ca_wait_since[self._job_key(job)] = now
        self._arm_timeout_sweep(now)
        self._trace("retry", job.master, job.label)
        self._schedule_ca_check(now)

    def _on_retry_exhausted(
        self, job: TransferJob, site: str, attempts: int, now_fs: int
    ) -> None:
        from repro.errors import RetryExhaustedError

        self._clear_retry_state(job)
        if not self.retry_policy.degrades_on_exhaustion:
            raise RetryExhaustedError(site, job.label, attempts)
        self._abandoned.append((job, site))
        master = self.masters[job.master]
        master.waiting_grant = False
        self._trace("abandon", job.master, f"{job.label} at {site}")
        self._advance_master(master, now_fs, delivered=False)

    # ------------------------------------------------------------------ CA side

    def _schedule_ca_check(self, t_fs: int) -> None:
        at = self.ca.clock.edge_at_or_after(t_fs)
        entry = self._ca_entry
        if entry is not None and not entry.cancelled:
            if entry.time_fs <= at:
                return
            self.queue.cancel(entry)
        self._ca_entry = self.queue.schedule(at, self._on_ca_check, PRIO_CA)

    def _on_ca_check(self) -> None:
        self._ca_entry = None
        now = self.queue.now_fs
        self._expire_ca_timeouts(now)
        remaining: List[TransferJob] = []
        grant_lost = False
        for job in self.ca.queue:
            path = self.topology.path(job.source_segment, job.target_segment)
            if self._can_grant(job, path, now):
                if self.faults is not None and self.faults.lose_ca_grant():
                    # the circuit grant never reaches the source segment;
                    # the request stays queued and is re-examined next tick
                    self.ca.counters.grant_losses += 1
                    self._trace("grant_loss", "CA", job.label)
                    remaining.append(job)
                    grant_lost = True
                    continue
                self._grant_circuit(job, path, now)
            else:
                remaining.append(job)
        self.ca.queue = remaining
        if grant_lost:
            self._schedule_ca_check(now + self.ca.clock.ticks_to_fs(1))
        if remaining:
            # Some blocker may be purely time-based (busy bus or turnaround
            # window) with no release event to come — schedule a retry at the
            # earliest such expiry so the queue can never stall.  Lock- and
            # FIFO-space blockers are event-based: releases and pops schedule
            # CA checks themselves.
            retry_candidates = []
            for job in remaining:
                path = self.topology.path(job.source_segment, job.target_segment)
                if self.config.inter_segment_protocol == "circuit":
                    watched = path
                else:
                    watched = path[:1]
                expiries = []
                lock_blocked = False
                for index in watched:
                    segment = self.segments[index]
                    if segment.locked:
                        lock_blocked = True
                        break
                    blocker = max(
                        segment.bus_busy_until_fs, segment.next_grant_fs
                    )
                    if blocker > now:
                        expiries.append(blocker)
                if not lock_blocked and expiries:
                    retry_candidates.append(max(expiries))
            if retry_candidates:
                self._schedule_ca_check(min(retry_candidates))

    def _arm_timeout_sweep(self, now_fs: int) -> None:
        """Schedule a sweep just past the newly-stamped job's wait budget so
        a timeout fires even when no other event would wake the CA."""
        if self.retry_policy.timeout_ticks is None:
            return
        budget_fs = self.ca.clock.ticks_to_fs(self.retry_policy.timeout_ticks)
        at = self.ca.clock.edge_at_or_after(
            now_fs + budget_fs
        ) + self.ca.clock.ticks_to_fs(1)
        self.queue.schedule(at, self._timeout_sweep, PRIO_CA)

    def _timeout_sweep(self) -> None:
        now = self.queue.now_fs
        before = len(self.ca.queue)
        self._expire_ca_timeouts(now)
        if len(self.ca.queue) != before:
            self._schedule_ca_check(now)

    def _expire_ca_timeouts(self, now_fs: int) -> None:
        """Per-hop timeout: a request waiting in the CA queue longer than
        ``timeout_ticks`` counts as a failed attempt and is re-requested
        (with backoff) or abandoned once its attempts are exhausted."""
        if self.retry_policy.timeout_ticks is None or not self.ca.queue:
            return
        budget_fs = self.ca.clock.ticks_to_fs(self.retry_policy.timeout_ticks)
        survivors: List[TransferJob] = []
        for job in self.ca.queue:
            since = self._ca_wait_since.get(self._job_key(job), now_fs)
            if now_fs - since > budget_fs:
                self.ca.counters.timeouts += 1
                self._trace("timeout", "CA", job.label)
                self._fail_inter(job, now_fs)
            else:
                survivors.append(job)
        self.ca.queue = survivors

    def _can_grant(self, job: TransferJob, path: Tuple[int, ...], now_fs: int) -> bool:
        """Grant condition: full free path (circuit) or free source bus plus
        space in the first BU's virtual channel (store-and-forward)."""
        if self.config.inter_segment_protocol == "circuit":
            return all(self.segments[i].bus_free_at(now_fs) for i in path)
        direction = self.topology.direction(path[0], path[-1])
        bu = self._bu_between(path[0], path[1])
        return self.segments[path[0]].bus_free_at(now_fs) and bu.has_space(direction)

    def _bu_between(self, a: int, b: int):
        return self.bus_units[self.topology.bus_on_path(a, b)[0]]

    def _grant_circuit(
        self, job: TransferJob, path: Tuple[int, ...], now_fs: int
    ) -> None:
        if self.config.inter_segment_protocol == "circuit":
            # the CA connects the whole path; cascaded release follows
            for index in path:
                self.segments[index].locked = True
        else:
            # store-and-forward: only the source segment is granted
            self.segments[path[0]].locked = True
        self.ca.begin_circuit(job, now_fs)
        self._trace("circuit_grant", "CA", job.label)
        source = self.segments[path[0]]
        clock = source.clock
        decided = now_fs + self.ca.clock.ticks_to_fs(self.config.ca_decision_ticks)
        fill_start = clock.edge_at_or_after(decided) + clock.ticks_to_fs(
            self.config.grant_latency_ticks
        )
        fill_end = fill_start + clock.ticks_to_fs(self.package_size)
        source.bus_busy_until_fs = fill_end
        source.counters.record_busy(fill_start, fill_end)
        bu = self._bu_between(path[0], path[1])
        bu.counters.busy_intervals.append((fill_start, fill_end))
        self.queue.schedule(
            fill_end,
            lambda j=job, p=path: self._on_fill_done(j, p),
            PRIO_STATE,
        )

    def _on_fill_done(self, job: TransferJob, path: Tuple[int, ...]) -> None:
        now = self.queue.now_fs
        source = self.segments[path[0]]
        direction = self.topology.direction(path[0], path[-1])
        if direction > 0:
            source.counters.packets_to_right += 1
        else:
            source.counters.packets_to_left += 1
        bu = self._bu_between(path[0], path[1])
        bu.counters.input_packages += 1
        if path[0] == bu.left:
            bu.counters.received_from_left += 1
        else:
            bu.counters.received_from_right += 1
        bu.counters.tct += self.package_size
        bu.push(now, direction)
        self._trace("fill_done", bu.name, job.label)
        master = self.masters[job.master]
        master.outstanding_deliveries += 1
        if self.faults is not None and self.faults.drop_in_bu(bu.left, bu.right):
            # BU overrun: the latched package is lost; the circuit tears
            # down and the whole transfer is re-requested end-to-end
            bu.pop(direction)
            bu.counters.dropped_packages += 1
            master.outstanding_deliveries -= 1
            self._trace("bu_drop", bu.name, job.label)
            self.ca.end_circuit(job, now)
            self._release_segment(source, now)
            if self.config.inter_segment_protocol == "circuit":
                for index in path[1:]:
                    downstream = self.segments[index]
                    if downstream.locked:
                        self._release_segment(downstream, now)
            self._fail_inter(job, now)
            self._note_end(now)
            return
        self._progress(now)
        self._release_segment(source, now)
        # The master's transaction is circuit-switched end-to-end: it holds
        # (and only resumes computing) once the package reaches the target
        # device, not when its own segment is released.  This is what makes
        # an inter-segment flow cost throughput rather than mere latency —
        # the mechanism behind the paper's "P9 moved to segment 3"
        # experiment slowing the application by ~10 %.
        if self.config.inter_segment_protocol == "circuit":
            self.queue.schedule(
                now, lambda j=job, p=path: self._on_hop(j, p, 1), PRIO_STATE
            )
        else:
            self._enqueue_hop(job, path, 1, now)
        self._note_end(now)

    def _on_hop(self, job: TransferJob, path: Tuple[int, ...], index: int) -> None:
        """Start the unload of the package into segment ``path[index]``
        (circuit protocol: the segment is already locked for this transfer)."""
        now = self.queue.now_fs
        segment = self.segments[path[index]]
        clock = segment.clock
        wait_ticks = self.config.bu_sampling_ticks + self.config.bu_sync_ticks
        u_start = clock.edge_after(now) + clock.ticks_to_fs(max(0, wait_ticks - 1))
        self._start_hop_occupation(job, path, index, load_end_fs=now, u_start_fs=u_start)

    def _start_hop_occupation(
        self,
        job: TransferJob,
        path: Tuple[int, ...],
        index: int,
        load_end_fs: int,
        u_start_fs: int,
    ) -> None:
        """Occupy segment ``path[index]``'s bus to move the package onward."""
        segment = self.segments[path[index]]
        clock = segment.clock
        bu_prev = self._bu_between(path[index - 1], path[index])
        wp = clock.ticks_between(load_end_fs, u_start_fs)
        bu_prev.counters.tct += wp
        bu_prev.counters.waiting_ticks += wp
        is_destination = index == len(path) - 1
        occupy = self.package_size + (
            self.config.slave_ack_ticks if is_destination else 0
        )
        u_end = u_start_fs + clock.ticks_to_fs(occupy)
        segment.bus_busy_until_fs = u_end
        segment.counters.record_busy(u_start_fs, u_end)
        bu_prev.counters.busy_intervals.append((u_start_fs, u_end))
        self.queue.schedule(
            u_end,
            lambda j=job, p=path, i=index: self._on_hop_done(j, p, i),
            PRIO_STATE,
        )

    # -- store-and-forward hop arbitration -----------------------------------

    def _enqueue_hop(
        self, job: TransferJob, path: Tuple[int, ...], index: int, now_fs: int
    ) -> None:
        """Queue a hop for SA arbitration in segment ``path[index]``."""
        segment = self.segments[path[index]]
        segment.pending_bu.append((job, path, index))
        self._schedule_sa_check(segment, now_fs)

    def _try_serve_hop(self, segment: SegmentRT, now_fs: int) -> bool:
        """Serve the first feasible queued hop; True if the bus was granted.

        Hops have priority over local masters (draining the network frees
        BU slots that upstream traffic is waiting on).  A hop into a full
        next-BU virtual channel is skipped; the pop that frees the slot
        re-schedules this segment's arbitration.
        """
        for slot, (job, path, index) in enumerate(segment.pending_bu):
            direction = self.topology.direction(path[0], path[-1])
            is_destination = index == len(path) - 1
            if not is_destination:
                bu_next = self._bu_between(path[index], path[index + 1])
                if not bu_next.has_space(direction):
                    continue
            segment.pending_bu.pop(slot)
            clock = segment.clock
            bu_prev = self._bu_between(path[index - 1], path[index])
            load_end = bu_prev.head_loaded_at(direction)
            wait_ticks = self.config.bu_sampling_ticks + self.config.bu_sync_ticks
            earliest = clock.edge_after(load_end) + clock.ticks_to_fs(
                max(0, wait_ticks - 1)
            )
            u_start = max(
                earliest,
                now_fs + clock.ticks_to_fs(self.config.grant_latency_ticks),
            )
            self._start_hop_occupation(
                job, path, index, load_end_fs=load_end, u_start_fs=u_start
            )
            return True
        return False

    def _on_hop_done(self, job: TransferJob, path: Tuple[int, ...], index: int) -> None:
        now = self.queue.now_fs
        segment = self.segments[path[index]]
        direction = self.topology.direction(path[0], path[-1])
        bu_prev = self._bu_between(path[index - 1], path[index])
        bu_prev.pop(direction)
        bu_prev.counters.output_packages += 1
        if path[index] == bu_prev.left:
            bu_prev.counters.transferred_to_left += 1
        else:
            bu_prev.counters.transferred_to_right += 1
        bu_prev.counters.tct += self.package_size
        self._trace("hop_done", bu_prev.name, job.label)
        is_destination = index == len(path) - 1
        if is_destination:
            master = self.masters[job.master]
            if self.faults is not None and self.faults.corrupt_package(
                segment.index
            ):
                # CRC failure at the target device: the delivery is NACKed
                # and the whole inter-segment transfer re-requested
                self.ca.counters.nacks += 1
                self._trace("nack", f"Segment{segment.index}", job.label)
                master.outstanding_deliveries -= 1
                self._release_segment(segment, now)
                self.ca.end_circuit(job, now)
                self._fail_inter(job, now)
            else:
                self._deliver(job.transfer.target, now)
                master.waiting_grant = False
                master.counters.packages_sent += 1
                master.outstanding_deliveries -= 1
                self._clear_retry_state(job)
                self._release_segment(segment, now)
                self.ca.end_circuit(job, now)
                self._advance_master(master, now, delivered=True)
                self._progress(now)
        else:
            # Transit packages do not count in the segment's packet counters:
            # the paper's listing credits a package only to the segment that
            # initiated it (Segment 2 reports 0/0 although P3->P4 transits it).
            bu_next = self._bu_between(path[index], path[index + 1])
            bu_next.counters.input_packages += 1
            if path[index] == bu_next.left:
                bu_next.counters.received_from_left += 1
            else:
                bu_next.counters.received_from_right += 1
            bu_next.counters.tct += self.package_size
            bu_next.push(now, direction)
            self._progress(now)
            self._release_segment(segment, now)
            if self.config.inter_segment_protocol == "circuit":
                self.queue.schedule(
                    now,
                    lambda j=job, p=path, i=index + 1: self._on_hop(j, p, i),
                    PRIO_STATE,
                )
            else:
                self._enqueue_hop(job, path, index + 1, now)
        if self.config.inter_segment_protocol != "circuit":
            # the pop freed a slot in bu_prev's virtual channel: wake the
            # upstream side (fills and hops may be waiting on that space)
            upstream = bu_prev.left if direction > 0 else bu_prev.right
            self._schedule_sa_check(self.segments[upstream], now)
            self._schedule_ca_check(now)
        self._note_end(now)

    def _release_segment(self, segment: SegmentRT, now_fs: int) -> None:
        """Cascaded release: the segment rejoins local/inter arbitration."""
        segment.locked = False
        segment.next_grant_fs = max(
            segment.next_grant_fs,
            now_fs + segment.clock.ticks_to_fs(self.config.bus_turnaround_ticks),
        )
        if segment.pending_intra or segment.pending_bu:
            self._schedule_sa_check(segment, now_fs)
        self._schedule_ca_check(now_fs)

    # ------------------------------------------------------------------ delivery

    def _deliver(self, target: str, now_fs: int) -> None:
        counters = self.process_counters[target]
        counters.packages_received += 1
        self._trace("deliver", target)
        counters.last_input_fs = now_fs
        if (
            not counters.fired
            and counters.packages_received >= counters.expected_inputs
        ):
            self._schedule_fire(target, now_fs)

    def _advance_master(self, master: MasterRT, now_fs: int, delivered: bool) -> None:
        master.advance()
        if not master.all_issued:
            self._start_compute(master, now_fs)
        elif delivered and master.is_done and not master.counters.done:
            master.counters.done = True
            master.counters.end_fs = now_fs
            self._trace("process_done", master.process)

    # ------------------------------------------------------------------ run

    def run(self) -> "Simulation":
        """Execute the emulation to completion (idempotent).

        Under fault injection the run may finish *degraded*: a permanent
        element failure or an abandoned (retry-exhausted) transfer leaves
        some flows unserved; with a degrading policy the remaining flows
        complete, ``degraded`` is set and ``unserved_flows`` lists what the
        platform never delivered, instead of raising
        :class:`~repro.errors.DeadlockError`.
        """
        if self._finished:
            return self
        for name in self.application.process_names:
            if self.schedule.inputs_of[name] == 0:
                self._schedule_fire(name, 0)
        self._schedule_permanent_failures()
        self._run_loop()
        self._finished = True
        if self.failed_elements or self._abandoned:
            self._finalize_degraded()
        else:
            self._validate_final_state()
        self._finalize_counters()
        return self

    def _run_loop(self) -> None:
        """Drain the event queue under the event/tick budgets + watchdog."""
        queue = self.queue
        budget = self.config.max_events
        horizon_fs = self.ca.clock.ticks_to_fs(self.config.max_ticks)
        executed = 0
        while True:
            item = queue.pop()
            if item is None:
                return
            t_fs, action = item
            if t_fs > horizon_fs:
                raise StallError(
                    f"tick budget exhausted: simulated time passed "
                    f"{self.config.max_ticks} CA ticks — model livelock?",
                    pending=self.pending_work(),
                    last_progress_tick=self.ca.clock.ticks(self.last_progress_fs),
                    stalled_elements=self.stalled_elements(),
                )
            action()
            executed += 1
            if executed >= budget:
                raise StallError(
                    f"event budget exhausted after {budget} events at "
                    f"t={queue.now_fs} fs — model livelock?",
                    pending=self.pending_work(),
                    last_progress_tick=self.ca.clock.ticks(self.last_progress_fs),
                    stalled_elements=self.stalled_elements(),
                )
            if self.watchdog is not None:
                self.watchdog.observe(self)

    # ------------------------------------------------------------------ faults

    def _schedule_permanent_failures(self) -> None:
        if self.faults is None:
            return
        for record in self.faults.permanent_failures():
            process = record.site[len("fu:"):]
            if process not in self.process_counters:
                raise FaultConfigError(
                    f"permanent_failure site {record.site!r} names an "
                    "unknown process"
                )
            clock = self._segment_of(process).clock
            at_fs = clock.ticks_to_fs(record.at_tick)
            self.queue.schedule(
                at_fs,
                lambda p=process, r=record: self._on_element_failed(p, r),
                PRIO_STATE,
            )

    def _on_element_failed(self, process: str, record) -> None:
        if not self.retry_policy.degrades_on_permanent_failure:
            raise ElementFailureError(record.site, record.at_tick)
        self.failed_elements.append(process)
        self.faults.counters.record(KIND_PERMANENT, record.site)
        self._trace("element_failed", process, f"at tick {record.at_tick}")
        master = self.masters.get(process)
        if master is not None:
            master.failed = True
        # purge queued requests originating from the dead element; packages
        # already in flight through BUs drain normally
        for segment in self.segments.values():
            segment.pending_intra = [
                j for j in segment.pending_intra if j.master != process
            ]
        self.ca.queue = [j for j in self.ca.queue if j.master != process]

    def _finalize_degraded(self) -> None:
        """Graceful degradation: flag the run, list what was never served."""
        self.degraded = True
        unserved: List[str] = []
        for job, site in self._abandoned:
            unserved.append(f"{job.label} (abandoned at {site})")
        for name in sorted(self.process_counters):
            counters = self.process_counters[name]
            if not counters.done:
                missing = counters.expected_inputs - counters.packages_received
                if name in self.failed_elements:
                    unserved.append(f"process {name} (failed permanently)")
                elif missing > 0:
                    unserved.append(
                        f"process {name} (missing {missing} input package(s))"
                    )
                else:
                    unserved.append(f"process {name} (incomplete)")
        self.unserved_flows = tuple(unserved)

    # ------------------------------------------------------------------ finish

    def pending_work(self) -> List[str]:
        """Unfinished-activity diagnostics (the MonitorClass observations)."""
        pending: List[str] = []
        for name, counters in self.process_counters.items():
            if not counters.done:
                pending.append(f"process {name} not done")
        for master in self.masters.values():
            if not master.is_done:
                pending.append(
                    f"master {master.process} at transfer {master.transfer_index} "
                    f"package {master.package_index} "
                    f"(outstanding={master.outstanding_deliveries})"
                )
        for segment in self.segments.values():
            if segment.locked:
                pending.append(f"segment {segment.index} still locked")
            if segment.pending_intra:
                pending.append(
                    f"segment {segment.index} has {len(segment.pending_intra)} "
                    "queued local requests"
                )
            if segment.pending_bu:
                pending.append(
                    f"segment {segment.index} has {len(segment.pending_bu)} "
                    "queued hop transfers"
                )
        if self.ca.queue:
            pending.append(f"CA queue holds {len(self.ca.queue)} requests")
        for bu in self.bus_units.values():
            if bu.occupancy:
                pending.append(f"{bu.name} holds {bu.occupancy} package(s)")
        return pending

    def stalled_elements(self) -> List[str]:
        """Elements currently blocked waiting for something (watchdog info)."""
        stalled: List[str] = []
        for master in self.masters.values():
            if master.waiting_grant:
                stalled.append(f"master {master.process} (waiting grant)")
            elif master.failed:
                stalled.append(f"master {master.process} (failed)")
        for segment in self.segments.values():
            if segment.locked:
                stalled.append(f"segment {segment.index} (locked)")
        return stalled

    def _validate_final_state(self) -> None:
        """The MonitorClass check: flags high, no activity left anywhere."""
        pending = self.pending_work()
        if pending:
            raise DeadlockError(
                "emulation ended with unfinished activity",
                pending,
                last_progress_tick=self.ca.clock.ticks(self.last_progress_fs),
            )

    def _finalize_counters(self) -> None:
        for segment in self.segments.values():
            quiesce = segment.counters.quiesce_fs
            segment.counters.busy_fs = sum(
                e - s for s, e in segment.counters.busy_intervals
            )
            # SA TCT: every own-clock cycle from start until segment quiesce.
            segment.counters.quiesce_fs = quiesce
        self.ca.counters.tct = (
            self.ca.clock.ticks(self.global_end_fs) + self.config.ca_epilogue_ticks
        )

    # -- derived results ---------------------------------------------------------

    def sa_tct(self, index: int) -> int:
        segment = self.segments[index]
        return segment.clock.ticks(segment.counters.quiesce_fs)

    def sa_time_fs(self, index: int) -> int:
        segment = self.segments[index]
        return self.sa_tct(index) * segment.clock.period_fs

    def ca_time_fs(self) -> int:
        return self.ca.counters.tct * self.ca.clock.period_fs

    def execution_time_fs(self) -> int:
        """``max(t_SA1, ..., t_SAn, t_CA)`` — the paper's total time."""
        times = [self.sa_time_fs(i) for i in self.segments]
        times.append(self.ca_time_fs())
        return max(times)
