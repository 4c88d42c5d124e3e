"""The fast event-driven engine: observably identical to the stepped kernel.

:class:`~repro.emulator.kernel.Simulation` is the *normative* engine — its
handlers read like the DESIGN.md protocol rules and recompute every clock
quantity from first principles on each event.  That clarity costs real
time: >90 % of a run's wall clock goes to interpreter overhead (property
chains re-deriving ``period_fs`` from the frequency, per-event closure
allocation, dataclass heap entries with generated ``__lt__``), not to the
protocol itself.

:class:`FastSimulation` is the same discrete-event machine with the
constant factors engineered out:

* every clock-domain quantity (period, grant latency, bus occupancy,
  turnaround, BU waiting window) is pre-multiplied into plain integer
  femtoseconds at construction, one lookup per use;
* transfer jobs — route, direction, BU chain and owning master runtime
  included — are precreated per package instead of being allocated and
  re-derived on every compute completion;
* heap entries are plain lists ordered by ``(time, priority, sequence)``,
  pushed inline at the hot call sites, and recurring actions (SA checks,
  CA checks, per-master completions) are bound once and reused, so the
  hot loop allocates almost nothing;
* tracing and fault hooks are branch-hoisted: a run without a tracer or
  fault plan never pays for either.

**Equivalence contract.**  The fast engine schedules the *same logical
events in the same order* as the stepped engine, so the executed-event
count, every monitoring counter, the trace/timeline/report digests and
``max(t_SA, t_CA)`` are bit-identical — not approximately, exactly.  The
contract is enforced three ways (see docs/PERFORMANCE.md): the ENG-1
differential oracle in ``segbus selftest``, the Hypothesis property suite
(``tests/property/test_engine_equivalence.py``), and the golden-trace
store, which both engines must reproduce byte for byte.

Pick an engine via ``Emulator.run(engine="fast"|"stepped")``, the
``--engine`` CLI flag, or the ``SEGBUS_ENGINE`` environment variable.
"""

from __future__ import annotations

import os
from functools import partial
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple, Type

from repro.emulator.events import PRIO_CA, PRIO_SA, PRIO_STATE
from repro.emulator.kernel import Simulation
from repro.errors import EmulationError, SegBusError, StallError

#: the known engine names, in registry order
ENGINE_NAMES: Tuple[str, ...] = ("stepped", "fast")

#: environment variable consulted when no engine is given explicitly
ENGINE_ENV_VAR = "SEGBUS_ENGINE"

#: the repository default when neither an argument nor the env var says
DEFAULT_ENGINE = "stepped"


class FastEventQueue:
    """Drop-in :class:`~repro.emulator.events.EventQueue` with list entries.

    A heap entry is a plain list ``[time_fs, priority, sequence, cancelled,
    action]``: list comparison orders by time, then priority, then the
    unique sequence number — identical to the stepped queue's dataclass
    ordering, and the two trailing slots are never compared because
    sequences never tie.  ``now_fs`` and ``executed`` are plain attributes
    (the run loop writes them directly); the API — ``schedule``/``cancel``/
    ``pop``/``len`` — matches the stepped queue so inherited cold-path
    handlers work unchanged.  Hot handlers bypass ``schedule`` and push
    entries inline, sharing the same ``seq`` counter so tie-breaking stays
    bit-compatible with the stepped engine's schedule order.
    """

    __slots__ = ("heap", "seq", "now_fs", "executed")

    def __init__(self) -> None:
        self.heap: List[list] = []
        self.seq = 0
        self.now_fs = 0
        self.executed = 0

    def __len__(self) -> int:
        return sum(1 for e in self.heap if not e[3])

    def schedule(self, time_fs: int, action, priority: int = PRIO_STATE) -> list:
        if time_fs < self.now_fs:
            raise EmulationError(
                f"cannot schedule event in the past: {time_fs} < now "
                f"{self.now_fs}"
            )
        self.seq = seq = self.seq + 1
        entry = [time_fs, priority, seq, False, action]
        heappush(self.heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        entry[3] = True

    def pop(self):
        heap = self.heap
        while heap:
            entry = heappop(heap)
            if entry[3]:
                continue
            self.now_fs = entry[0]
            self.executed += 1
            return entry[0], entry[4]
        return None


class _FastJob:
    """A TransferJob with precomputed routing.

    Duck-type compatible with :class:`repro.emulator.fu.TransferJob` for
    every consumer inside the kernel (retry bookkeeping, CA bookkeeping,
    purges, traces).  One instance exists per package and is reused across
    retry attempts, exactly like the stepped engine reuses its job object
    through the fail/requeue cycle.  ``path`` is ``None`` for
    intra-segment packages.
    """

    __slots__ = (
        "master",
        "source_segment",
        "target_segment",
        "transfer",
        "package_seq",
        "path",
        "direction",
        "chain",
        "mrt",
    )

    def __init__(
        self,
        master: str,
        source_segment: int,
        target_segment: int,
        transfer,
        package_seq: int,
        path,
        direction: int,
        chain,
        mrt,
    ) -> None:
        self.master = master
        self.source_segment = source_segment
        self.target_segment = target_segment
        self.transfer = transfer
        self.package_seq = package_seq
        self.path = path
        self.direction = direction
        self.chain = chain
        #: the owning MasterRT — saves a name lookup on every completion
        self.mrt = mrt

    @property
    def label(self) -> str:
        # lazy: only traces, faults and diagnostics read it
        t = self.transfer
        return f"{t.source}->{t.target}#{self.package_seq + 1}/{t.packages}"

    @property
    def is_inter_segment(self) -> bool:
        return self.source_segment != self.target_segment


class FastSimulation(Simulation):
    """The fast engine: same protocol, same events, a fraction of the wall.

    Construction mirrors :class:`~repro.emulator.kernel.Simulation`; only
    the event machinery and the hot handlers are replaced.  Cold paths
    (retry/backoff bookkeeping, timeouts, permanent failures, degradation,
    diagnostics, derived results) are inherited verbatim.  Per-element
    constants hang off the runtime objects as ``f_*`` attributes.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queue = FastEventQueue()
        config = self.config
        spec = self.spec
        package = spec.package_size
        wait_minus_1 = max(
            0, config.bu_sampling_ticks + config.bu_sync_ticks - 1
        )

        # -- per-segment femtosecond constants, attached to the runtime ------
        self._seg_by_index: List = [None] * (spec.segment_count + 1)
        for index, segment in self.segments.items():
            p = segment.clock.period_fs
            self._seg_by_index[index] = segment
            segment.f_period = p
            segment.f_grant_lat = config.grant_latency_ticks * p
            segment.f_turnaround = config.bus_turnaround_ticks * p
            segment.f_occupy_intra = (package + config.slave_ack_ticks) * p
            segment.f_fill = package * p
            segment.f_hop_dest = (package + config.slave_ack_ticks) * p
            segment.f_hop_transit = package * p
            segment.f_bu_wait = wait_minus_1 * p
            segment.f_round_robin = (
                spec.sa_policies.get(index) != "fixed-priority"
            )
            segment.f_sa_action = partial(self._on_sa_check, segment)
            segment.f_intra_action = partial(self._on_intra_pop, segment)
            segment.f_intra_job = None
            segment.f_sa_entry = None
        self._ca_period = self.ca.clock.period_fs
        self._ca_decision_fs = config.ca_decision_ticks * self._ca_period
        self._circuit = config.inter_segment_protocol == "circuit"
        self._has_timeout = self.retry_policy.timeout_ticks is not None
        #: retry-state dicts only see writes under faults or timeouts —
        #: fault-free runs skip the per-package key bookkeeping entirely
        self._resilient = self.faults is not None or self._has_timeout

        # -- per-process firing metadata -------------------------------------
        self._fire_meta = {
            name: (
                self.segments[spec.placement[name]].f_period,
                partial(self._on_fire, name),
            )
            for name in self.application.process_names
        }
        self._ca_check_action = self._on_ca_check

        # -- per-master metadata: compute times, precreated jobs -------------
        routes: Dict[Tuple[int, int], tuple] = {}
        handshake = config.master_handshake_ticks
        for master in self.masters.values():
            src = master.segment_index
            p = self.segments[src].f_period
            master.f_period = p
            master.f_segment = self.segments[src]
            master.f_action = partial(self._on_compute_done, master)
            compute_fs: List[int] = []
            jobs: List[Tuple[_FastJob, ...]] = []
            for transfer in master.transfers:
                compute_fs.append(
                    (transfer.ticks_per_package + handshake) * p
                )
                tgt = spec.placement[transfer.target]
                if src != tgt:
                    route = routes.get((src, tgt))
                    if route is None:
                        path = self.topology.path(src, tgt)
                        chain = tuple(
                            self.bus_units[(min(a, b), min(a, b) + 1)]
                            for a, b in zip(path, path[1:])
                        )
                        route = (path, 1 if tgt > src else -1, chain)
                        routes[(src, tgt)] = route
                else:
                    route = (None, 0, None)
                jobs.append(
                    tuple(
                        _FastJob(
                            master.process,
                            src,
                            tgt,
                            transfer,
                            seq,
                            route[0],
                            route[1],
                            route[2],
                            master,
                        )
                        for seq in range(transfer.packages)
                    )
                )
            master.f_compute = tuple(compute_fs)
            master.f_jobs = tuple(jobs)
            master.f_packages = tuple(t.packages for t in master.transfers)
            master.f_ntransfers = len(master.transfers)

    # ------------------------------------------------------------------ loop

    def _run_loop(self) -> None:
        """Drain the queue with the heap inlined into the loop body."""
        queue = self.queue
        heap = queue.heap
        budget = self.config.max_events
        horizon_fs = self._ca_period * self.config.max_ticks
        watchdog = self.watchdog
        executed = 0
        pop = heappop
        # ``queue.executed`` is written back on every exit path (the
        # finally) instead of per event — nothing reads it mid-run
        try:
            while heap:
                entry = pop(heap)
                if entry[3]:
                    continue
                t_fs = entry[0]
                queue.now_fs = t_fs
                executed += 1
                if t_fs > horizon_fs:
                    raise StallError(
                        f"tick budget exhausted: simulated time passed "
                        f"{self.config.max_ticks} CA ticks — model livelock?",
                        pending=self.pending_work(),
                        last_progress_tick=self.ca.clock.ticks(
                            self.last_progress_fs
                        ),
                        stalled_elements=self.stalled_elements(),
                    )
                entry[4]()
                if executed >= budget:
                    raise StallError(
                        f"event budget exhausted after {budget} events at "
                        f"t={queue.now_fs} fs — model livelock?",
                        pending=self.pending_work(),
                        last_progress_tick=self.ca.clock.ticks(
                            self.last_progress_fs
                        ),
                        stalled_elements=self.stalled_elements(),
                    )
                if watchdog is not None:
                    queue.executed = executed
                    watchdog.observe(self)
        finally:
            queue.executed = executed

    # ------------------------------------------------------------------ firing

    def _schedule_fire(self, process: str, enable_fs: int) -> None:
        p, action = self._fire_meta[process]
        queue = self.queue
        queue.seq = seq = queue.seq + 1
        heappush(
            queue.heap,
            [(enable_fs // p + 1) * p, PRIO_STATE, seq, False, action],
        )

    def _on_fire(self, process: str) -> None:
        now = self.queue.now_fs
        if process in self.failed_elements:
            return
        counters = self.process_counters[process]
        counters.start_fs = now
        tracer = self.tracer
        if tracer is not None:
            tracer.record(now, "fire", process)
        self.progress_count += 1
        self.last_progress_fs = now
        master = self.masters.get(process)
        if master is None:
            counters.done = True
            counters.end_fs = now
            if tracer is not None:
                tracer.record(now, "process_done", process)
            if now > self.global_end_fs:
                self.global_end_fs = now
            return
        self._start_compute(master, now)

    # ------------------------------------------------------------------ compute

    def _start_compute(self, master, at_fs: int) -> None:
        if master.failed:
            return
        p = master.f_period
        compute_fs = master.f_compute[master.transfer_index]
        master.computing = True
        if self.faults is not None:
            stall = self.faults.stall_ticks(master.process)
            if stall:
                master.counters.stall_ticks_injected += stall
                if self.tracer is not None:
                    self.tracer.record(
                        self.queue.now_fs,
                        "fu_stall",
                        master.process,
                        f"+{stall} ticks",
                    )
                compute_fs += stall * p
        queue = self.queue
        queue.seq = seq = queue.seq + 1
        heappush(
            queue.heap,
            [
                -(-at_fs // p) * p + compute_fs,
                PRIO_STATE,
                seq,
                False,
                master.f_action,
            ],
        )

    def _on_compute_done(self, master) -> None:
        now = self.queue.now_fs
        if master.failed:
            master.computing = False
            return
        master.computing = False
        master.waiting_grant = True
        job = master.f_jobs[master.transfer_index][master.package_index]
        if self.tracer is not None:
            self.tracer.record(now, "request", master.process, job.label)
        segment = master.f_segment
        if job.path is not None:
            segment.counters.inter_requests += 1
            self.ca.counters.inter_requests += 1
            self.ca.queue.append(job)
            if self._has_timeout:
                self._ca_wait_since[self._job_key(job)] = now
                self._arm_timeout_sweep(now)
            self._schedule_ca_check(now)
        else:
            segment.pending_intra.append(job)
            if (
                segment.locked
                or segment.bus_busy_until_fs > now
                or segment.next_grant_fs > now
            ):
                segment.counters.intra_requests += 1
            self._schedule_sa_check(segment, now)

    # ------------------------------------------------------------------ SA side

    def _schedule_sa_check(self, segment, t_fs: int) -> None:
        if segment.bus_busy_until_fs > t_fs:
            t_fs = segment.bus_busy_until_fs
        if segment.next_grant_fs > t_fs:
            t_fs = segment.next_grant_fs
        p = segment.f_period
        at = -(-t_fs // p) * p
        entry = segment.f_sa_entry
        if entry is not None and not entry[3]:
            if entry[0] <= at:
                return
            entry[3] = True
        queue = self.queue
        queue.seq = seq = queue.seq + 1
        entry = [at, PRIO_SA, seq, False, segment.f_sa_action]
        heappush(queue.heap, entry)
        segment.f_sa_entry = entry

    def _on_sa_check(self, segment) -> None:
        segment.f_sa_entry = None
        queue = self.queue
        now = queue.now_fs
        if segment.locked:
            return
        if segment.bus_busy_until_fs > now or segment.next_grant_fs > now:
            self._schedule_sa_check(segment, now)
            return
        if segment.pending_bu and self._try_serve_hop(segment, now):
            return
        pending = segment.pending_intra
        if not pending:
            return
        counters = segment.counters
        counters.intra_requests += len(pending)
        if segment.f_round_robin:
            # single-requester rounds (the common case) skip the ring scan:
            # both branches of the stepped algorithm return pending[0] then
            if segment.last_granted_master is None or len(pending) == 1:
                job = pending.pop(0)
            else:
                job = self._pick_round_robin(segment)
        else:
            job = self._pick_fixed_priority(segment)
        if self.faults is not None and self.faults.lose_segment_grant(
            segment.index
        ):
            counters.grant_losses += 1
            pending.append(job)
            if self.tracer is not None:
                self.tracer.record(
                    now, "grant_loss", f"SA{segment.index}", job.label
                )
            self._schedule_sa_check(segment, now + segment.f_period)
            return
        counters.grants += 1
        segment.last_granted_master = job.master
        if self.tracer is not None:
            self.tracer.record(now, "grant", f"SA{segment.index}", job.label)
        start = now + segment.f_grant_lat
        end = start + segment.f_occupy_intra
        segment.bus_busy_until_fs = end
        counters.busy_intervals.append((start, end))
        counters.busy_fs += end - start
        if end > counters.quiesce_fs:
            counters.quiesce_fs = end
        segment.f_intra_job = job
        queue.seq = seq = queue.seq + 1
        heappush(
            queue.heap, [end, PRIO_STATE, seq, False, segment.f_intra_action]
        )

    def _on_intra_pop(self, segment) -> None:
        """The prebound completion of the segment's in-flight intra grant.

        A segment's bus serves one intra transfer at a time — the grant
        marks the bus busy until this very event, and same-time SA checks
        pop after it (PRIO_STATE < PRIO_SA) — so a single job slot per
        segment replaces the stepped engine's per-grant closure.
        """
        job = segment.f_intra_job
        segment.f_intra_job = None
        now = self.queue.now_fs
        master = job.mrt
        segment.next_grant_fs = now + segment.f_turnaround
        if self.faults is not None and self.faults.corrupt_package(
            segment.index
        ):
            segment.counters.nacks += 1
            if self.tracer is not None:
                self.tracer.record(
                    now, "nack", f"Segment{segment.index}", job.label
                )
            self._fail_intra(job, segment, now)
            if segment.pending_intra or segment.pending_bu:
                self._schedule_sa_check(segment, now)
            self._schedule_ca_check(now)
            if now > self.global_end_fs:
                self.global_end_fs = now
            return
        master.waiting_grant = False
        master.counters.packages_sent += 1
        if self._resilient:
            self._clear_retry_state(job)
        if self.tracer is not None:
            self.tracer.record(
                now, "transfer_done", f"Segment{segment.index}", job.label
            )
        self._deliver(job.transfer.target, now)
        self._advance_master(master, now, True)
        self.progress_count += 1
        self.last_progress_fs = now
        if segment.pending_intra or segment.pending_bu:
            self._schedule_sa_check(segment, now)
        self._schedule_ca_check(now)
        if now > self.global_end_fs:
            self.global_end_fs = now

    def _on_intra_done(self, job, segment) -> None:
        # kept for signature parity with the stepped kernel
        segment.f_intra_job = job
        self._on_intra_pop(segment)

    # ------------------------------------------------------------------ CA side

    def _schedule_ca_check(self, t_fs: int) -> None:
        p = self._ca_period
        at = -(-t_fs // p) * p
        entry = self._ca_entry
        if entry is not None and not entry[3]:
            if entry[0] <= at:
                return
            entry[3] = True
        queue = self.queue
        queue.seq = seq = queue.seq + 1
        entry = [at, PRIO_CA, seq, False, self._ca_check_action]
        heappush(queue.heap, entry)
        self._ca_entry = entry

    def _on_ca_check(self) -> None:
        self._ca_entry = None
        now = self.queue.now_fs
        jobs = self.ca.queue
        if self._has_timeout and jobs:
            self._expire_ca_timeouts(now)
            jobs = self.ca.queue
        if not jobs:
            return
        remaining: List[_FastJob] = []
        grant_lost = False
        faults = self.faults
        segments = self._seg_by_index
        circuit = self._circuit
        for job in jobs:
            path = job.path
            if circuit:
                free = True
                for index in path:
                    s = segments[index]
                    if (
                        s.locked
                        or s.bus_busy_until_fs > now
                        or s.next_grant_fs > now
                    ):
                        free = False
                        break
            else:
                s = segments[path[0]]
                bu = job.chain[0]
                free = (
                    not s.locked
                    and s.bus_busy_until_fs <= now
                    and s.next_grant_fs <= now
                    and len(bu.queues[job.direction]) < bu.depth
                )
            if free:
                if faults is not None and faults.lose_ca_grant():
                    self.ca.counters.grant_losses += 1
                    if self.tracer is not None:
                        self.tracer.record(now, "grant_loss", "CA", job.label)
                    remaining.append(job)
                    grant_lost = True
                    continue
                self._grant_circuit(job, path, now)
            else:
                remaining.append(job)
        self.ca.queue = remaining
        if grant_lost:
            self._schedule_ca_check(now + self._ca_period)
        if remaining:
            # a blocker may be purely time-based (busy bus or turnaround
            # window): schedule a retry at the earliest such expiry so the
            # queue can never stall (lock/FIFO blockers are event-based)
            retry_candidates = []
            for job in remaining:
                watched = job.path if circuit else job.path[:1]
                expiries = []
                lock_blocked = False
                for index in watched:
                    s = segments[index]
                    if s.locked:
                        lock_blocked = True
                        break
                    blocker = s.bus_busy_until_fs
                    if s.next_grant_fs > blocker:
                        blocker = s.next_grant_fs
                    if blocker > now:
                        expiries.append(blocker)
                if not lock_blocked and expiries:
                    retry_candidates.append(max(expiries))
            if retry_candidates:
                self._schedule_ca_check(min(retry_candidates))

    def _bu_between(self, a: int, b: int):
        return self.bus_units[(a, b) if a < b else (b, a)]

    def _grant_circuit(self, job, path, now_fs: int) -> None:
        segments = self._seg_by_index
        if self._circuit:
            for index in path:
                segments[index].locked = True
        else:
            segments[path[0]].locked = True
        self.ca.begin_circuit(job, now_fs)
        if self.tracer is not None:
            self.tracer.record(now_fs, "circuit_grant", "CA", job.label)
        source = segments[path[0]]
        p = source.f_period
        decided = now_fs + self._ca_decision_fs
        fill_start = -(-decided // p) * p + source.f_grant_lat
        fill_end = fill_start + source.f_fill
        source.bus_busy_until_fs = fill_end
        counters = source.counters
        counters.busy_intervals.append((fill_start, fill_end))
        counters.busy_fs += fill_end - fill_start
        if fill_end > counters.quiesce_fs:
            counters.quiesce_fs = fill_end
        job.chain[0].counters.busy_intervals.append((fill_start, fill_end))
        self.queue.schedule(
            fill_end, partial(self._on_fill_done, job, path), PRIO_STATE
        )

    def _on_fill_done(self, job, path) -> None:
        now = self.queue.now_fs
        source = self._seg_by_index[path[0]]
        direction = job.direction
        if direction > 0:
            source.counters.packets_to_right += 1
        else:
            source.counters.packets_to_left += 1
        bu = job.chain[0]
        counters = bu.counters
        counters.input_packages += 1
        if path[0] == bu.left:
            counters.received_from_left += 1
        else:
            counters.received_from_right += 1
        counters.tct += self.spec.package_size
        bu.push(now, direction)
        if self.tracer is not None:
            self.tracer.record(now, "fill_done", bu.name, job.label)
        master = job.mrt
        master.outstanding_deliveries += 1
        if self.faults is not None and self.faults.drop_in_bu(
            bu.left, bu.right
        ):
            bu.pop(direction)
            counters.dropped_packages += 1
            master.outstanding_deliveries -= 1
            if self.tracer is not None:
                self.tracer.record(now, "bu_drop", bu.name, job.label)
            self.ca.end_circuit(job, now)
            self._release_segment(source, now)
            if self._circuit:
                for index in path[1:]:
                    downstream = self._seg_by_index[index]
                    if downstream.locked:
                        self._release_segment(downstream, now)
            self._fail_inter(job, now)
            if now > self.global_end_fs:
                self.global_end_fs = now
            return
        self.progress_count += 1
        self.last_progress_fs = now
        self._release_segment(source, now)
        if self._circuit:
            self.queue.schedule(
                now, partial(self._on_hop, job, path, 1), PRIO_STATE
            )
        else:
            self._enqueue_hop(job, path, 1, now)
        if now > self.global_end_fs:
            self.global_end_fs = now

    def _on_hop(self, job, path, index: int) -> None:
        now = self.queue.now_fs
        segment = self._seg_by_index[path[index]]
        p = segment.f_period
        u_start = (now // p + 1) * p + segment.f_bu_wait
        self._start_hop_occupation(
            job, path, index, load_end_fs=now, u_start_fs=u_start
        )

    def _start_hop_occupation(
        self, job, path, index: int, load_end_fs: int, u_start_fs: int
    ) -> None:
        segment = self._seg_by_index[path[index]]
        p = segment.f_period
        bu_prev = job.chain[index - 1]
        wp = u_start_fs // p - load_end_fs // p
        bu_prev.counters.tct += wp
        bu_prev.counters.waiting_ticks += wp
        if index == len(path) - 1:
            u_end = u_start_fs + segment.f_hop_dest
        else:
            u_end = u_start_fs + segment.f_hop_transit
        segment.bus_busy_until_fs = u_end
        counters = segment.counters
        counters.busy_intervals.append((u_start_fs, u_end))
        counters.busy_fs += u_end - u_start_fs
        if u_end > counters.quiesce_fs:
            counters.quiesce_fs = u_end
        bu_prev.counters.busy_intervals.append((u_start_fs, u_end))
        self.queue.schedule(
            u_end, partial(self._on_hop_done, job, path, index), PRIO_STATE
        )

    # -- store-and-forward hop arbitration -----------------------------------

    def _enqueue_hop(self, job, path, index: int, now_fs: int) -> None:
        segment = self._seg_by_index[path[index]]
        segment.pending_bu.append((job, path, index))
        self._schedule_sa_check(segment, now_fs)

    def _try_serve_hop(self, segment, now_fs: int) -> bool:
        for slot, (job, path, index) in enumerate(segment.pending_bu):
            direction = job.direction
            if index != len(path) - 1:
                bu_next = job.chain[index]
                if len(bu_next.queues[direction]) >= bu_next.depth:
                    continue
            segment.pending_bu.pop(slot)
            p = segment.f_period
            load_end = job.chain[index - 1].queues[direction][0]
            earliest = (load_end // p + 1) * p + segment.f_bu_wait
            u_start = now_fs + segment.f_grant_lat
            if earliest > u_start:
                u_start = earliest
            self._start_hop_occupation(
                job, path, index, load_end_fs=load_end, u_start_fs=u_start
            )
            return True
        return False

    def _on_hop_done(self, job, path, index: int) -> None:
        now = self.queue.now_fs
        seg_index = path[index]
        segment = self._seg_by_index[seg_index]
        direction = job.direction
        bu_prev = job.chain[index - 1]
        bu_prev.pop(direction)
        prev_counters = bu_prev.counters
        prev_counters.output_packages += 1
        if seg_index == bu_prev.left:
            prev_counters.transferred_to_left += 1
        else:
            prev_counters.transferred_to_right += 1
        prev_counters.tct += self.spec.package_size
        if self.tracer is not None:
            self.tracer.record(now, "hop_done", bu_prev.name, job.label)
        if index == len(path) - 1:
            master = job.mrt
            if self.faults is not None and self.faults.corrupt_package(
                seg_index
            ):
                self.ca.counters.nacks += 1
                if self.tracer is not None:
                    self.tracer.record(
                        now, "nack", f"Segment{seg_index}", job.label
                    )
                master.outstanding_deliveries -= 1
                self._release_segment(segment, now)
                self.ca.end_circuit(job, now)
                self._fail_inter(job, now)
            else:
                self._deliver(job.transfer.target, now)
                master.waiting_grant = False
                master.counters.packages_sent += 1
                master.outstanding_deliveries -= 1
                if self._resilient:
                    self._clear_retry_state(job)
                self._release_segment(segment, now)
                self.ca.end_circuit(job, now)
                self._advance_master(master, now, True)
                self.progress_count += 1
                self.last_progress_fs = now
        else:
            bu_next = job.chain[index]
            next_counters = bu_next.counters
            next_counters.input_packages += 1
            if seg_index == bu_next.left:
                next_counters.received_from_left += 1
            else:
                next_counters.received_from_right += 1
            next_counters.tct += self.spec.package_size
            bu_next.push(now, direction)
            self.progress_count += 1
            self.last_progress_fs = now
            self._release_segment(segment, now)
            if self._circuit:
                self.queue.schedule(
                    now,
                    partial(self._on_hop, job, path, index + 1),
                    PRIO_STATE,
                )
            else:
                self._enqueue_hop(job, path, index + 1, now)
        if not self._circuit:
            upstream = bu_prev.left if direction > 0 else bu_prev.right
            self._schedule_sa_check(self._seg_by_index[upstream], now)
            self._schedule_ca_check(now)
        if now > self.global_end_fs:
            self.global_end_fs = now

    def _release_segment(self, segment, now_fs: int) -> None:
        segment.locked = False
        next_grant = now_fs + segment.f_turnaround
        if next_grant > segment.next_grant_fs:
            segment.next_grant_fs = next_grant
        if segment.pending_intra or segment.pending_bu:
            self._schedule_sa_check(segment, now_fs)
        self._schedule_ca_check(now_fs)

    # ------------------------------------------------------------------ delivery

    def _deliver(self, target: str, now_fs: int) -> None:
        counters = self.process_counters[target]
        counters.packages_received += 1
        if self.tracer is not None:
            self.tracer.record(now_fs, "deliver", target)
        counters.last_input_fs = now_fs
        if (
            counters.start_fs is None
            and counters.packages_received >= counters.expected_inputs
        ):
            self._schedule_fire(target, now_fs)

    def _advance_master(self, master, now_fs: int, delivered: bool) -> None:
        master.package_index += 1
        if master.package_index >= master.f_packages[master.transfer_index]:
            master.package_index = 0
            master.transfer_index += 1
        if master.transfer_index < master.f_ntransfers:
            self._start_compute(master, now_fs)
        elif (
            delivered
            and master.outstanding_deliveries == 0
            and not master.counters.done
        ):
            master.counters.done = True
            master.counters.end_fs = now_fs
            if self.tracer is not None:
                self.tracer.record(now_fs, "process_done", master.process)


# ---------------------------------------------------------------------------
# engine registry
# ---------------------------------------------------------------------------

_ENGINES: Dict[str, Type[Simulation]] = {
    "stepped": Simulation,
    "fast": FastSimulation,
}


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize an engine name: explicit argument, else ``SEGBUS_ENGINE``,
    else the repository default (``stepped``).

    Raises :class:`~repro.errors.SegBusError` on unknown names, naming the
    known engines — both for CLI typos and for a bad environment value.
    """
    if engine is None or engine == "":
        engine = os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    if engine not in ENGINE_NAMES:
        raise SegBusError(
            f"unknown emulation engine {engine!r}; known engines: "
            + ", ".join(ENGINE_NAMES)
        )
    return engine


def simulation_class(engine: Optional[str] = None) -> Type[Simulation]:
    """The Simulation class implementing ``engine`` (after resolution)."""
    return _ENGINES[resolve_engine(engine)]


def make_simulation(
    application,
    spec,
    config=None,
    engine: Optional[str] = None,
    **kwargs,
) -> Simulation:
    """Construct an unrun Simulation on the chosen engine."""
    return simulation_class(engine)(application, spec, config, **kwargs)
