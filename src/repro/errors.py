"""Exception hierarchy for the SegBus reproduction library.

Every error raised by :mod:`repro` derives from :class:`SegBusError` so that
callers can catch library failures with a single ``except`` clause while the
concrete subclasses preserve the failing subsystem:

* :class:`PSDFError` -- ill-formed application (PSDF) models.
* :class:`ModelError` -- ill-formed platform (PSM) models; its subclass
  :class:`ConstraintViolation` carries the structured diagnostics produced by
  the OCL-style constraint engine in :mod:`repro.model.constraints`.
* :class:`XMLFormatError` -- malformed XML schemes handed to the parsers in
  :mod:`repro.xmlio`.
* :class:`EmulationError` -- runtime failures of the discrete-event emulator
  (deadlock, unroutable transfer, exhausted event budget).
* :class:`PlacementError` -- infeasible allocation problems.
* :class:`FrequencyError` -- a clock frequency without a whole
  femtosecond period (:mod:`repro.units`); also a :class:`ValueError`.
* :class:`ServeError` -- simulation-service failures (:mod:`repro.serve`);
  its subclasses :class:`JobValidationError` and :class:`AdmissionError`
  map to the 400 and 429 HTTP statuses of ``segbus serve``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class SegBusError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class PSDFError(SegBusError):
    """An application model (PSDF graph, flow, or schedule) is ill-formed."""


class FlowError(PSDFError):
    """A single packet flow violates the PSDF flow definition."""


class ScheduleError(PSDFError):
    """The T-ordering of flows cannot be turned into a valid schedule."""


class ModeError(PSDFError):
    """A multi-mode application or its mode-switch schedule is ill-formed."""


class ModelError(SegBusError):
    """A platform model (PSM) is structurally ill-formed."""


class ConstraintViolation(ModelError):
    """One or more OCL-style structural constraints failed validation.

    Mirrors the paper's DSL behaviour: *"Upon breach of any constraint
    requirement during the design process, the tool provides appropriate
    error message"* (section 2.2).  The ``diagnostics`` attribute holds the
    individual messages, one per breached constraint.
    """

    def __init__(self, diagnostics: Sequence[str], model_name: Optional[str] = None):
        self.diagnostics: List[str] = list(diagnostics)
        self.model_name = model_name
        heading = f"model {model_name!r}" if model_name else "model"
        message = (
            f"{len(self.diagnostics)} constraint violation(s) in {heading}:\n"
            + "\n".join(f"  - {d}" for d in self.diagnostics)
        )
        super().__init__(message)


class MappingError(ModelError):
    """An application process could not be mapped onto the platform."""


class XMLFormatError(SegBusError):
    """An XML scheme does not follow the expected M2T output structure."""


class LintError(SegBusError):
    """Static analysis refused the input (``Emulator.run(strict=True)``).

    ``findings`` holds the formatted error-severity findings; the full
    :class:`repro.lint.LintReport` travels as ``report`` for callers that
    want the structured data.
    """

    def __init__(self, findings: Sequence[str], report=None):
        self.findings: List[str] = list(findings)
        self.report = report
        message = (
            f"static analysis found {len(self.findings)} error(s):\n"
            + "\n".join(f"  - {f}" for f in self.findings)
        )
        super().__init__(message)


class EmulationError(SegBusError):
    """The emulator reached an invalid runtime state."""


class FaultConfigError(SegBusError):
    """A fault plan or resilience policy is ill-formed."""


#: how many pending-work entries a deadlock/stall message renders in full
PENDING_RENDER_CAP = 10


def _render_pending(pending: Sequence[str], cap: int = PENDING_RENDER_CAP) -> str:
    shown = list(pending[:cap])
    extra = len(pending) - len(shown)
    text = ", ".join(shown)
    if extra > 0:
        text += f", … and {extra} more"
    return text


class DeadlockError(EmulationError):
    """Emulation stalled: pending work exists but no event can make progress.

    ``pending`` always holds the *full* list of unfinished-activity
    diagnostics; the rendered message caps it at
    :data:`PENDING_RENDER_CAP` entries so giant models stay readable.
    ``last_progress_tick`` (CA clock) locates the stall in time.
    """

    def __init__(
        self,
        message: str,
        pending: Optional[Sequence[str]] = None,
        last_progress_tick: Optional[int] = None,
    ):
        self.pending: List[str] = list(pending or [])
        self.last_progress_tick = last_progress_tick
        if last_progress_tick is not None:
            message += f" (last progress at CA tick {last_progress_tick})"
        if self.pending:
            message = message + "; pending: " + _render_pending(self.pending)
        super().__init__(message)


class StallError(DeadlockError):
    """The watchdog (or a tick/event budget) detected lack of progress.

    Unlike a plain :class:`DeadlockError` — raised after the event queue
    drained with work left over — a stall is diagnosed *while the emulation
    is still producing events*: time advances but nothing retires.
    ``stalled_elements`` names the platform elements holding work.
    """

    def __init__(
        self,
        message: str,
        pending: Optional[Sequence[str]] = None,
        last_progress_tick: Optional[int] = None,
        stalled_elements: Optional[Sequence[str]] = None,
    ):
        self.stalled_elements: List[str] = list(stalled_elements or [])
        if self.stalled_elements:
            message += "; stalled: " + _render_pending(self.stalled_elements)
        super().__init__(
            message, pending=pending, last_progress_tick=last_progress_tick
        )


class RetryExhaustedError(EmulationError):
    """A transfer was NACKed/timed out more times than the policy allows."""

    def __init__(self, site: str, label: str, attempts: int):
        self.site = site
        self.label = label
        self.attempts = attempts
        super().__init__(
            f"transfer {label} abandoned at {site} after "
            f"{attempts} failed attempt(s)"
        )


class ElementFailureError(EmulationError):
    """A platform element failed permanently and the policy is fail-fast."""

    def __init__(self, site: str, at_tick: int):
        self.site = site
        self.at_tick = at_tick
        super().__init__(
            f"permanent failure of {site} at tick {at_tick} "
            "(policy on_permanent_failure='fail')"
        )


class RoutingError(EmulationError):
    """A transfer targets a device that is not reachable on the platform."""


class PlacementError(SegBusError):
    """The placement problem is infeasible or the solver misbehaved."""


class FrequencyError(SegBusError, ValueError):
    """A clock frequency without a whole period of at least 1 fs (zero,
    negative, NaN, infinite, or too small or large for the time base)."""


class ServeError(SegBusError):
    """Base class for simulation-service failures (:mod:`repro.serve`)."""


class JobValidationError(ServeError):
    """A submitted serve job failed schema or scheme-loader validation.

    The HTTP layer maps this to ``400 Bad Request``; ``detail`` carries
    the field-level message shown to the client.
    """

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"invalid serve job: {detail}")


class AdmissionError(ServeError):
    """The bounded admission queue is full and the request was shed.

    The HTTP layer maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header of ``retry_after_s`` seconds.
    """

    def __init__(self, depth: int, retry_after_s: float):
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"admission queue full ({depth} job(s) queued); "
            f"retry after {retry_after_s:g}s"
        )
