"""The emulator facade: the paper's ``SegBusEmulatorView``.

Accepts the two XML schemes, or model objects routed *through* the schemes
(the design flow of Fig. 3 always passes via the schemes): the writers build
the PSDF and PSM scheme documents and the same parsers that read scheme
files read them, so nothing the schemes cannot carry can influence the
emulation.  Only the XML text is skipped for model objects; the equivalence
suite (``tests/xmlio/test_document_equivalence.py``) holds the text to the
documents.  The facade then rebuilds the platform model from the parsed PSM
(its elements check every platform value), instantiates the
platform-element runtimes and runs the emulation; the communication matrix
is built when first read.

>>> from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
>>> emulator = SegBusEmulator.from_models(mp3_decoder_psdf(), paper_platform())
>>> report = emulator.run()
>>> report.segment_count
3
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Optional, Union

from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import resolve_engine, simulation_class
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import EmulationReport, build_report
from repro.errors import LintError
from repro.model.elements import SegBusPlatform
from repro.psdf.flow import PacketFlow
from repro.psdf.graph import PSDFGraph
from repro.psdf.matrix import CommunicationMatrix, build_communication_matrix
from repro.xmlio.psdf_parser import ParsedPSDF, parse_psdf_schema, parse_psdf_xml
from repro.xmlio.psdf_writer import psdf_to_schema
from repro.xmlio.psm_parser import ParsedPSM, parse_psm_schema, parse_psm_xml
from repro.xmlio.psm_writer import psm_to_schema


class SegBusEmulator:
    """One emulation session: parse schemes, set up, run, report."""

    def __init__(
        self,
        psdf_xml: str,
        psm_xml: str,
        config: Optional[EmulationConfig] = None,
        fault_plan=None,
        retry_policy=None,
        watchdog=None,
    ) -> None:
        parsed_psdf = parse_psdf_xml(psdf_xml)
        self._set_up(
            parsed_psdf,
            parse_psm_xml(psm_xml),
            parsed_psdf.to_graph(),
            config,
            fault_plan,
            retry_policy,
            watchdog,
        )

    def _set_up(
        self,
        parsed_psdf: ParsedPSDF,
        parsed_psm: ParsedPSM,
        application: PSDFGraph,
        config: Optional[EmulationConfig],
        fault_plan,
        retry_policy,
        watchdog,
    ) -> None:
        self._parsed_psdf = parsed_psdf
        self.config = config or EmulationConfig()
        #: optional resilience knobs (see repro.faults / docs/ROBUSTNESS.md)
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.watchdog = watchdog
        self.application = application
        #: the platform model the PSM scheme describes; building it is where
        #: every platform value (clocks, policies, FIFO depths) is checked
        self.platform: SegBusPlatform = parsed_psm.to_platform()
        self.spec = PlatformSpec.from_platform(self.platform)
        # per-engine caches: both engines are observationally identical,
        # but callers comparing them need each engine's own simulation
        self._simulations: dict = {}
        self._reports: dict = {}
        self._linted = False

    @cached_property
    def communication_matrix(self) -> CommunicationMatrix:
        """The application's communication matrix (section 3.5), built on
        first read: the simulation itself does not need it."""
        return build_communication_matrix(self.application)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_files(
        cls,
        psdf_path: Union[str, Path],
        psm_path: Union[str, Path],
        config: Optional[EmulationConfig] = None,
        fault_plan=None,
        retry_policy=None,
        watchdog=None,
    ) -> "SegBusEmulator":
        """Load the generated schemes from disk (the tool's normal input)."""
        return cls(
            Path(psdf_path).read_text(encoding="utf-8"),
            Path(psm_path).read_text(encoding="utf-8"),
            config=config,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            watchdog=watchdog,
        )

    @classmethod
    def from_models(
        cls,
        application: PSDFGraph,
        platform: SegBusPlatform,
        config: Optional[EmulationConfig] = None,
        fault_plan=None,
        retry_policy=None,
        watchdog=None,
    ) -> "SegBusEmulator":
        """Build from model objects, routed through their scheme documents.

        :func:`~repro.xmlio.psdf_writer.psdf_to_schema` and
        :func:`~repro.xmlio.psm_writer.psm_to_schema` build the documents
        that :func:`~repro.xmlio.psdf_writer.psdf_to_xml` and
        :func:`~repro.xmlio.psm_writer.psm_to_xml` would serialize, and the
        parsers behind :func:`~repro.xmlio.psdf_parser.parse_psdf_xml` and
        :func:`~repro.xmlio.psm_parser.parse_psm_xml` read them, so the
        emulation sees exactly what the scheme files would carry — except
        that the parsed flows keep the original
        :class:`~repro.psdf.flow.FlowCost` objects, which the schemes flatten
        to ``C`` at the platform's package size.
        """
        # both writers run before either parser, as when the text was
        # written first, so a model refused twice reports the same error
        psdf_doc = psdf_to_schema(application, platform.package_size)
        psm_doc = psm_to_schema(platform)
        parsed_psdf = parse_psdf_schema(psdf_doc)
        parsed_psm = parse_psm_schema(psm_doc)
        graph = _with_costs_of(parsed_psdf, application)
        emulator = cls.__new__(cls)
        emulator._set_up(
            parsed_psdf, parsed_psm, graph, config, fault_plan, retry_policy, watchdog
        )
        return emulator

    # -- static analysis ---------------------------------------------------------

    def lint(self):
        """Run the ``segbus lint`` rule catalogue over this session's inputs.

        Returns the :class:`repro.lint.LintReport` covering the application,
        the platform and the fault plan.  Never raises — :meth:`run` with
        ``strict=True`` is the enforcing entry point.
        """
        from repro.lint import lint_models

        return lint_models(
            application=self._parsed_psdf,
            platform=self.platform,
            fault_plan=self.fault_plan,
        )

    # -- execution ---------------------------------------------------------------

    def run(
        self, strict: bool = False, engine: Optional[str] = None
    ) -> EmulationReport:
        """Run the emulation (cached: repeated calls return the same report).

        With ``strict=True`` the static analyzer runs first and the call
        raises :class:`~repro.errors.LintError` on any error-severity
        finding instead of starting a simulation of a broken input.

        ``engine`` selects the simulation kernel (``"stepped"`` or
        ``"fast"``; default honours ``SEGBUS_ENGINE``).  Both engines are
        tick-for-tick equivalent, so the report is the same either way;
        results are cached per engine.
        """
        name = resolve_engine(engine)
        if strict and not self._linted:
            lint_report = self.lint()
            if lint_report.errors:
                raise LintError(
                    [f.format() for f in lint_report.errors], report=lint_report
                )
            self._linted = True
        if name not in self._reports:
            self._simulations[name] = simulation_class(name)(
                self.application,
                self.spec,
                self.config,
                fault_plan=self.fault_plan,
                retry_policy=self.retry_policy,
                watchdog=self.watchdog,
            ).run()
            self._reports[name] = build_report(self._simulations[name])
        return self._reports[name]

    @property
    def simulation(self) -> Simulation:
        """The underlying finished simulation (runs it if needed)."""
        name = resolve_engine(None)
        self.run(engine=name)
        return self._simulations[name]


def _with_costs_of(parsed: ParsedPSDF, original: PSDFGraph) -> PSDFGraph:
    """The parsed graph, each flow carrying ``original``'s cost model."""
    costs = {(f.source, f.target, f.order): f.cost for f in original.flows}
    return PSDFGraph(
        parsed.processes,
        [
            PacketFlow(
                source=flow.source,
                target=flow.target,
                data_items=flow.data_items,
                order=flow.order,
                cost=costs[(flow.source, flow.target, flow.order)],
            )
            for flow in parsed.flows
        ],
        name=parsed.name,
    )


def emulate(
    application: PSDFGraph,
    platform: SegBusPlatform,
    config: Optional[EmulationConfig] = None,
    fault_plan=None,
    retry_policy=None,
    watchdog=None,
    strict: bool = False,
    engine: Optional[str] = None,
) -> EmulationReport:
    """One-shot convenience: model objects in, report out.

    ``strict=True`` lints the inputs first and raises
    :class:`~repro.errors.LintError` on any error-severity finding.
    ``engine`` picks the simulation kernel (see
    :func:`repro.emulator.fastkernel.resolve_engine`).
    """
    return SegBusEmulator.from_models(
        application,
        platform,
        config=config,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        watchdog=watchdog,
    ).run(strict=strict, engine=engine)
