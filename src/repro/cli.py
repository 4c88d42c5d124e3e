"""Command-line interface: ``segbus`` — generate, emulate, explore.

Subcommands mirror the design flow of Fig. 3:

``segbus generate``
    write the PSDF and PSM XML schemes of a built-in configuration
    (the M2T step);
``segbus emulate``
    run the emulator on two scheme files and print the results listing;
``segbus accuracy``
    run emulator + reference simulator on a built-in configuration and
    print the estimated/actual/accuracy row;
``segbus explore``
    design-space exploration over segment counts and package sizes;
``segbus power``
    activity-based energy breakdown of a configuration;
``segbus codegen``
    generate the arbiter VHDL (schedule ROM, SAs, CA) for a configuration;
``segbus trace``
    emulate and write a VCD waveform of the platform activity;
``segbus campaign``
    run a package-size campaign, print the Markdown table, export CSV;
``segbus analytic``
    instant contention-free estimate vs emulation;
``segbus report``
    re-run the headline experiments and write the Markdown
    paper-vs-measured report;
``segbus faults``
    reliability sweep under transient fault injection — completion
    probability and execution-time overhead per fault rate;
``segbus lint``
    static analysis of PSDF/PSM/fault-plan schemes: rule engine with
    stable ids, PSDF verifier, hazard detector, scheme integrity (exit 0
    clean, 1 warnings, 2 errors — see docs/LINTING.md);
``segbus selftest``
    conformance harness: seeded random models through the differential
    oracle plus golden-trace drift detection (see docs/TESTING.md);
``segbus bench``
    headless perf scenarios: exact tick counters plus two same-host
    speed-ratio gates; ``--check`` gates against the committed
    ``BENCH_*.json`` baselines;
``segbus serve``
    simulation-as-a-service: an HTTP front end with a digest-keyed
    result cache, job batching and bounded-queue backpressure
    (see docs/SERVING.md);
``segbus loadgen``
    seeded deterministic load generator against a running server;
    ``--verify`` re-executes distinct payloads in-process and demands
    byte-identical responses.

Any :class:`~repro.errors.SegBusError` surfaces as a one-line message on
stderr and exit code 2; pass ``--debug`` (before the subcommand) to get the
full traceback instead.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.dse import explore_design_space
from repro.apps.mp3 import (
    PAPER_CA_FREQUENCY_MHZ,
    mp3_decoder_psdf,
    paper_allocation,
    paper_platform,
    paper_segment_frequencies_mhz,
)
from repro.apps.workloads import named_workload, workload_catalog
from repro.emulator.emulator import SegBusEmulator
from repro.reference.accuracy import compare_estimate_to_reference
from repro.xmlio.codegen import CodeEngineeringSet, generate_models


def _application(name: str):
    if name == "mp3":
        return mp3_decoder_psdf()
    return named_workload(name)


def _cmd_generate(args: argparse.Namespace) -> int:
    application = _application(args.app)
    platform = paper_platform(
        segment_count=args.segments, package_size=args.package_size
    )
    if args.app != "mp3":
        print(
            "generate currently pairs the paper platform with the MP3 "
            "application only",
            file=sys.stderr,
        )
        return 2
    sets = [
        CodeEngineeringSet(
            name="psdf",
            model=application,
            output_file="psdf.xml",
            package_size=args.package_size,
        ),
        CodeEngineeringSet(name="psm", model=platform, output_file="psm.xml"),
    ]
    written = generate_models(sets, args.output_dir)
    for path in written:
        print(path)
    return 0


def _workload_or_files(args: argparse.Namespace, command: str):
    """Resolve the scheme-files-vs-``--workload`` choice of a subcommand.

    Returns the named :class:`~repro.apps.workloads.WorkloadModel`, or
    ``None`` for the scheme-file path; raises ``SystemExit``-style by
    printing and returning an error marker string on misuse.
    """
    if args.workload is not None:
        if args.psdf is not None or args.psm is not None:
            print(
                f"{command}: give either PSDF/PSM scheme files or "
                "--workload, not both",
                file=sys.stderr,
            )
            return 2
        from repro.apps.workloads import workload_model

        return workload_model(args.workload)
    if args.psdf is None or args.psm is None:
        print(
            f"{command}: need a PSDF and a PSM scheme file "
            "(or --workload NAME)",
            file=sys.stderr,
        )
        return 2
    return None


def _cmd_emulate(args: argparse.Namespace) -> int:
    resolved = _workload_or_files(args, "emulate")
    if resolved == 2:
        return 2
    if resolved is not None and resolved.is_multimode:
        from repro.emulator.multimode import run_multimode

        composed = run_multimode(
            resolved.application, resolved.platform, engine=args.engine
        )
        print(composed.format_listing())
        print(
            f"\nTotal execution time: {composed.execution_time_us:.2f} us "
            f"({composed.total_events} events)"
        )
        return 0
    if resolved is not None:
        emulator = SegBusEmulator.from_models(
            resolved.application, resolved.platform
        )
    else:
        emulator = SegBusEmulator.from_files(args.psdf, args.psm)
    report = emulator.run(strict=args.strict, engine=args.engine)
    print(report.format_listing())
    print(
        f"\nTotal execution time: {report.execution_time_us:.2f} us "
        f"({report.total_events} events)"
    )
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    application = mp3_decoder_psdf()
    platform = paper_platform(
        segment_count=args.segments, package_size=args.package_size
    )
    result = compare_estimate_to_reference(
        application,
        platform,
        label=f"{args.segments} segments, s={args.package_size}",
    )
    print(
        f"{result.label}: estimated {result.estimated_us:.2f} us, "
        f"actual {result.actual_us:.2f} us, accuracy {result.accuracy:.1%}"
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    application = _application(args.app)
    if args.app == "mp3":
        freq = paper_segment_frequencies_mhz
        ca = PAPER_CA_FREQUENCY_MHZ
        extra = [
            (f"paper[{n}seg]", paper_allocation(n)) for n in args.segment_counts
            if n in (1, 2, 3)
        ]
    else:
        freq = lambda n: [100.0] * n  # noqa: E731 - tiny local adapter
        ca = 111.0
        extra = []
    points = explore_design_space(
        application,
        segment_counts=args.segment_counts,
        package_sizes=args.package_sizes,
        segment_frequencies_mhz=freq,
        ca_frequency_mhz=ca,
        extra_allocations=extra,
        estimator_prune=args.estimate_prune,
    )
    print(f"{'rank':>4} {'segments':>8} {'pkg':>4} {'time (us)':>10}  allocation")
    for rank, point in enumerate(points, start=1):
        estimated = (
            f" (est {point.estimated_us:.2f})"
            if point.estimated_us is not None
            else ""
        )
        print(
            f"{rank:>4} {point.segment_count:>8} {point.package_size:>4} "
            f"{point.execution_time_us:>10.2f}  "
            f"{point.allocation_source}: {point.allocation}{estimated}"
        )
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.analysis.power import estimate_power
    from repro.emulator.emulator import SegBusEmulator

    application = mp3_decoder_psdf()
    platform = paper_platform(
        segment_count=args.segments, package_size=args.package_size
    )
    emulator = SegBusEmulator.from_models(application, platform)
    emulator.run()
    report = estimate_power(emulator.simulation)
    print(report.format_table())
    print(
        f"\nRuntime: {report.runtime_us:.2f} us, "
        f"average power: {report.average_power:.2f} au/us"
    )
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.codegen import ArbiterCodeGenerator

    application = mp3_decoder_psdf()
    platform = paper_platform(
        segment_count=args.segments, package_size=args.package_size
    )
    generator = ArbiterCodeGenerator(application, platform)
    for path in generator.write(args.output_dir):
        print(path)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.emulator.kernel import PlatformSpec, Simulation
    from repro.emulator.trace import Tracer, export_vcd

    application = mp3_decoder_psdf()
    platform = paper_platform(
        segment_count=args.segments, package_size=args.package_size
    )
    tracer = Tracer()
    sim = Simulation(
        application, PlatformSpec.from_platform(platform), tracer=tracer
    ).run()
    export_vcd(sim, path=args.output)
    print(f"{args.output}: {len(tracer)} events, "
          f"run length {sim.global_end_fs / 1e9:.2f} us")
    if args.log:
        print(tracer.format_log(limit=args.log))
    return 0


def _cmd_estimate_multimode(args: argparse.Namespace, resolved) -> int:
    from repro.analysis.stochastic import stochastic_estimate_multimode
    from repro.emulator.kernel import PlatformSpec

    spec = PlatformSpec.from_platform(resolved.platform)
    estimate = stochastic_estimate_multimode(resolved.application, spec)
    analytic = estimate.analytic
    print(
        f"analytic lower bound:  {analytic.execution_time_us:.2f} us "
        f"(incl. {analytic.transition_total_fs / 1e9:.2f} us over "
        f"{analytic.switch_count} switch(es))\n"
        f"predicted contention:  {estimate.contention_us:.2f} us\n"
        f"expected TCT:          {estimate.execution_time_us:.2f} us"
    )
    print(f"\n{'#':>3} {'mode':<24} {'iter':>5} {'per-iter (us)':>14}")
    for index, (mode, count) in enumerate(analytic.phases):
        per_iter = estimate.per_mode[mode].execution_time_us
        print(f"{index:>3} {mode:<24} {count:>5} {per_iter:>14.2f}")
    if args.emulate:
        from repro.emulator.multimode import run_multimode

        composed = run_multimode(
            resolved.application, spec, engine=args.engine
        )
        error = (
            (estimate.execution_time_us - composed.execution_time_us)
            / composed.execution_time_us
            if composed.execution_time_us
            else 0.0
        )
        print(
            f"\nemulated TCT:          {composed.execution_time_us:.2f} us "
            f"(estimate off by {error:+.2%})"
        )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.analysis.stochastic import stochastic_estimate
    from repro.emulator.emulator import SegBusEmulator

    resolved = _workload_or_files(args, "estimate")
    if resolved == 2:
        return 2
    if resolved is not None and resolved.is_multimode:
        return _cmd_estimate_multimode(args, resolved)
    if resolved is not None:
        emulator = SegBusEmulator.from_models(
            resolved.application, resolved.platform
        )
    else:
        emulator = SegBusEmulator.from_files(args.psdf, args.psm)
    estimate = stochastic_estimate(
        emulator.application, emulator.spec, emulator.config
    )
    print(
        f"analytic lower bound:  {estimate.analytic_us:.2f} us\n"
        f"predicted contention:  {estimate.contention_us:.2f} us\n"
        f"expected TCT:          {estimate.execution_time_us:.2f} us "
        f"({estimate.contention_ratio:.3f}x the bound)\n"
        f"critical chain:        {' -> '.join(estimate.critical_chain)}"
    )
    print(f"\n{'resource':<10} {'grants':>7} {'rho':>6} {'Wq (us)':>9} {'Lq':>7}")
    rows = [estimate.segments[i] for i in sorted(estimate.segments)]
    rows.append(estimate.ca)
    rows.extend(estimate.border_units[p] for p in sorted(estimate.border_units))
    for model in rows:
        print(
            f"{model.name:<10} {model.arrivals:>7} {model.utilization:>6.3f} "
            f"{model.mean_wait_fs / 1e9:>9.4f} {model.mean_queue_depth:>7.4f}"
        )
    if args.emulate:
        report = emulator.run(engine=args.engine)
        error = (
            (estimate.execution_time_us - report.execution_time_us)
            / report.execution_time_us
            if report.execution_time_us
            else 0.0
        )
        print(
            f"\nemulated TCT:          {report.execution_time_us:.2f} us "
            f"(estimate off by {error:+.2%})"
        )
    return 0


def _cmd_analytic(args: argparse.Namespace) -> int:
    from repro.analysis.analytic import diagnose_contention
    from repro.emulator.kernel import PlatformSpec

    application = mp3_decoder_psdf()
    platform = paper_platform(
        segment_count=args.segments, package_size=args.package_size
    )
    diagnosis = diagnose_contention(
        application, PlatformSpec.from_platform(platform)
    )
    print(
        f"analytic (contention-free): {diagnosis.analytic_us:.2f} us\n"
        f"emulated:                   {diagnosis.emulated_us:.2f} us\n"
        f"contention cost:            {diagnosis.contention_us:.2f} us "
        f"({diagnosis.contention_share:.1%})"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.model.compare import diff_platforms
    from repro.xmlio.psm_parser import parse_psm_xml

    a = parse_psm_xml(Path(args.psm_a).read_text(encoding="utf-8")).to_platform()
    b = parse_psm_xml(Path(args.psm_b).read_text(encoding="utf-8")).to_platform()
    diff = diff_platforms(a, b)
    print(diff.format())
    return 0 if diff.identical else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import write_experiment_report

    target = write_experiment_report(args.output)
    print(f"wrote {target}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.analysis.reliability import reliability_sweep
    from repro.apps.jpeg import jpeg_decoder_psdf, jpeg_platform
    from repro.faults import RetryPolicy
    from repro.xmlio.faults_xml import fault_plan_to_xml
    from repro.faults.model import FaultPlan

    if args.app == "mp3":
        application = mp3_decoder_psdf()
        platform = paper_platform(args.segments, package_size=args.package_size)
    elif args.app == "jpeg":
        application = jpeg_decoder_psdf()
        platform = jpeg_platform(args.segments, package_size=args.package_size)
    else:
        print(f"faults supports mp3 or jpeg, not {args.app!r}", file=sys.stderr)
        return 2
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        backoff=args.backoff,
        timeout_ticks=args.timeout_ticks,
        on_exhaustion=args.on_exhaustion,
    )
    curve = reliability_sweep(
        application,
        platform,
        rates=args.rates,
        kind=args.kind,
        seeds=tuple(range(1, args.seeds + 1)),
        retry_policy=policy,
        engine=args.engine,
        **_executor_kwargs(args),
    )
    print(
        f"{curve.application}: {curve.kind} sweep, baseline "
        f"{curve.baseline_execution_time_us:.2f} us"
    )
    print(curve.to_markdown())
    if args.csv:
        curve.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    if args.plan_xml:
        rate_kw = {
            "package_corruption": "corruption_rate",
            "grant_loss": "grant_loss_rate",
            "fu_stall": "stall_rate",
            "bu_drop": "bu_drop_rate",
        }[args.kind]
        plan = FaultPlan.transient(seed=1, **{rate_kw: max(args.rates)})
        Path(args.plan_xml).write_text(
            fault_plan_to_xml(plan), encoding="utf-8"
        )
        print(f"wrote {args.plan_xml}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import default_registry, lint_paths, render

    registry = default_registry()
    if args.list_rules:
        for rule in registry:
            print(
                f"{rule.id}  {rule.severity.value:<7}  {rule.category:<9}  "
                f"{rule.name}: {rule.description}"
            )
        return 0
    if not args.paths:
        print("segbus lint: no input files (or use --list-rules)", file=sys.stderr)
        return 2
    report = lint_paths(
        [str(p) for p in args.paths], registry=registry, disable=args.disable
    )
    print(render(report, args.format, registry=registry))
    return report.exit_code


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import Campaign
    from repro.apps.jpeg import jpeg_decoder_psdf, jpeg_platform

    campaign = Campaign(args.name)
    if args.app == "mp3":
        application = mp3_decoder_psdf()
        factory = lambda s: paper_platform(args.segments, package_size=s)  # noqa: E731
    elif args.app == "jpeg":
        application = jpeg_decoder_psdf()
        factory = lambda s: jpeg_platform(args.segments, package_size=s)  # noqa: E731
    else:
        print(f"campaign supports mp3 or jpeg, not {args.app!r}", file=sys.stderr)
        return 2
    campaign.add_grid(application, factory, package_sizes=args.package_sizes)
    print(campaign.to_markdown())
    if args.csv:
        campaign.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    best = campaign.best()
    print(f"\nbest: {best.name} at {best.execution_time_us:.2f} us")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.testing.selftest import (
        DEFAULT_COUNT,
        QUICK_COUNT,
        run_selftest,
    )

    count = args.count
    if count is None:
        count = QUICK_COUNT if args.quick else DEFAULT_COUNT
    report = run_selftest(
        count=count,
        base_seed=args.seed,
        include_golden=not args.skip_golden,
        models_dir=args.models_dir,
        store_path=args.golden_store,
        update_golden=args.update_golden,
        progress=print,
        engine=args.engine,
        **_executor_kwargs(args),
    )
    print(report.format())
    return report.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.testing.bench import (
        SCENARIOS,
        check_bench,
        format_results,
        run_bench,
        write_baselines,
    )

    if args.list:
        for item in SCENARIOS:
            print(f"{item.name:<24}  {item.description}")
        return 0
    results = run_bench(
        names=args.scenarios or None,
        repeats=args.repeats,
        engine=args.engine,
    )
    print(format_results(results))
    if args.update:
        paths = write_baselines(results, args.baseline_dir)
        print(f"\nwrote {len(paths)} baseline(s) under {args.baseline_dir}")
        return 0
    if args.check:
        check = check_bench(results, baseline_dir=args.baseline_dir)
        print()
        print(check.format())
        return 0 if check.ok else 1
    return 0


def _serve_config(args: argparse.Namespace):
    """The ``ServiceConfig`` a ``segbus serve`` command line asks for."""
    from dataclasses import replace

    from repro.serve.service import ServiceConfig

    config = ServiceConfig(
        engine=args.engine,
        workers=args.serve_workers,
        timeout_s=args.timeout,
        queue_depth=args.queue_depth,
        cache_entries=args.cache_entries,
        cache_bytes=int(args.cache_mb * (1 << 20)),
    )
    if args.retries is None:
        return config
    # --retries counts retries after the first attempt, as on every
    # other subcommand
    return replace(config, max_attempts=args.retries + 1)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import create_server
    from repro.serve.service import SegbusService

    service = SegbusService(_serve_config(args))
    server = create_server(service, host=args.host, port=args.port)

    # a `segbus serve … &` launched from a non-interactive shell inherits
    # SIGINT as SIG_IGN (POSIX job control), and Python keeps an ignored
    # disposition — reinstall both stop signals so `kill [-INT]` always
    # shuts the server down instead of hanging a CI `wait`
    def _request_stop(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    for stop_signal in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(stop_signal, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    # tests parse this line for the ephemeral port — keep it first & flushed
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_from_args

    return run_from_args(args)


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Flags for the supervised campaign executor (see docs/ROBUSTNESS.md)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the batch (default: CPU count; "
        "1 forces the in-process serial path)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout; a stalled worker is killed and the job "
        "retried (needs workers >= 2)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per job after the first attempt, with seeded "
        "exponential backoff (default 2)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal completed jobs under this directory "
        "(e.g. .segbus/checkpoints) so --resume can replay them",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint journal and run only the missing jobs "
        "(implies --checkpoint-dir, default .segbus/checkpoints)",
    )


def _executor_kwargs(args: argparse.Namespace) -> dict:
    """Translate the executor flags into run_* keyword arguments."""
    from repro.analysis.executor import ExecutorPolicy

    policy = None
    if args.timeout is not None or args.retries is not None:
        defaults = ExecutorPolicy()
        policy = ExecutorPolicy(
            max_attempts=(
                args.retries + 1
                if args.retries is not None
                else defaults.max_attempts
            ),
            timeout_s=args.timeout,
        )
    checkpoint_dir = args.checkpoint_dir
    if args.resume and checkpoint_dir is None:
        checkpoint_dir = str(Path(".segbus") / "checkpoints")
    return {
        "workers": args.workers,
        "executor_policy": policy,
        "checkpoint_dir": checkpoint_dir,
        "resume": args.resume,
    }


def _add_workload_flag(parser: argparse.ArgumentParser) -> None:
    from repro.apps.workloads import scenario_catalog

    parser.add_argument(
        "--workload",
        default=None,
        choices=sorted(scenario_catalog()),
        metavar="NAME",
        help="run a named workload scenario instead of scheme files: "
        f"{', '.join(sorted(scenario_catalog()))}",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    from repro.emulator.fastkernel import ENGINE_NAMES

    parser.add_argument(
        "--engine",
        default=None,
        choices=list(ENGINE_NAMES),
        help="simulation kernel: 'stepped' (cycle-stepped reference) or "
        "'fast' (event-driven), tick-for-tick equivalent; default honours "
        "SEGBUS_ENGINE (see docs/PERFORMANCE.md). For bench, omitting it "
        "times both engines and records the speedup.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segbus",
        description="SegBus performance estimation (ICPP 2010 reproduction)",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise SegBus errors with a full traceback (default: "
        "one-line message, exit code 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write PSDF/PSM XML schemes")
    gen.add_argument("--app", default="mp3", help="application name (default mp3)")
    gen.add_argument("--segments", type=int, default=3)
    gen.add_argument("--package-size", type=int, default=36)
    gen.add_argument("--output-dir", default="generated")
    gen.set_defaults(func=_cmd_generate)

    emu = sub.add_parser(
        "emulate", help="emulate from XML schemes or a named workload scenario"
    )
    emu.add_argument("psdf", type=Path, nargs="?", default=None)
    emu.add_argument("psm", type=Path, nargs="?", default=None)
    _add_workload_flag(emu)
    emu.add_argument(
        "--strict",
        action="store_true",
        help="run the static analyzer first; refuse inputs with lint errors",
    )
    _add_engine_flag(emu)
    emu.set_defaults(func=_cmd_emulate)

    lnt = sub.add_parser(
        "lint", help="static analysis of XML scheme files (see docs/LINTING.md)"
    )
    lnt.add_argument(
        "paths", type=Path, nargs="*", help="PSDF/PSM/fault-plan scheme files"
    )
    lnt.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"]
    )
    lnt.add_argument(
        "--disable", nargs="+", default=[], metavar="RULE_ID",
        help="rule ids to skip (e.g. --disable SB209 SB212)",
    )
    lnt.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lnt.set_defaults(func=_cmd_lint)

    acc = sub.add_parser("accuracy", help="estimated vs reference execution")
    acc.add_argument("--segments", type=int, default=3)
    acc.add_argument("--package-size", type=int, default=36)
    acc.set_defaults(func=_cmd_accuracy)

    exp = sub.add_parser("explore", help="design-space exploration")
    exp.add_argument(
        "--app",
        default="mp3",
        help=f"mp3 or one of: {', '.join(workload_catalog())}",
    )
    exp.add_argument(
        "--segment-counts", type=int, nargs="+", default=[1, 2, 3]
    )
    exp.add_argument("--package-sizes", type=int, nargs="+", default=[18, 36])
    exp.add_argument(
        "--estimate-prune",
        type=int,
        default=None,
        metavar="N",
        help="rank candidates with the stochastic estimator and emulate "
        "only the best N (the estimator prunes, the engines confirm)",
    )
    exp.set_defaults(func=_cmd_explore)

    pwr = sub.add_parser("power", help="energy breakdown of a configuration")
    pwr.add_argument("--segments", type=int, default=3)
    pwr.add_argument("--package-size", type=int, default=36)
    pwr.set_defaults(func=_cmd_power)

    gen = sub.add_parser("codegen", help="generate arbiter VHDL")
    gen.add_argument("--segments", type=int, default=3)
    gen.add_argument("--package-size", type=int, default=36)
    gen.add_argument("--output-dir", default="rtl")
    gen.set_defaults(func=_cmd_codegen)

    trc = sub.add_parser("trace", help="emulate and write a VCD waveform")
    trc.add_argument("--segments", type=int, default=3)
    trc.add_argument("--package-size", type=int, default=36)
    trc.add_argument("--output", default="segbus.vcd")
    trc.add_argument(
        "--log", type=int, default=0, metavar="N",
        help="also print the first N trace events",
    )
    trc.set_defaults(func=_cmd_trace)

    camp = sub.add_parser(
        "campaign", help="run a package-size campaign and export the table"
    )
    camp.add_argument("--name", default="campaign")
    camp.add_argument("--app", default="mp3", help="mp3 or jpeg")
    camp.add_argument("--segments", type=int, default=3)
    camp.add_argument(
        "--package-sizes", type=int, nargs="+", default=[18, 36, 72]
    )
    camp.add_argument("--csv", default="", help="also write a CSV file here")
    camp.set_defaults(func=_cmd_campaign)

    ana = sub.add_parser(
        "analytic", help="instant contention-free estimate vs emulation"
    )
    ana.add_argument("--segments", type=int, default=3)
    ana.add_argument("--package-size", type=int, default=36)
    ana.set_defaults(func=_cmd_analytic)

    est = sub.add_parser(
        "estimate",
        help="stochastic contention estimate from XML schemes (no simulation)",
    )
    est.add_argument("psdf", type=Path, nargs="?", default=None)
    est.add_argument("psm", type=Path, nargs="?", default=None)
    _add_workload_flag(est)
    est.add_argument(
        "--emulate",
        action="store_true",
        help="also emulate and report the estimator's signed error",
    )
    _add_engine_flag(est)
    est.set_defaults(func=_cmd_estimate)

    rep = sub.add_parser(
        "report", help="re-run the headline experiments, write a Markdown report"
    )
    rep.add_argument("--output", default="reproduction_report.md")
    rep.set_defaults(func=_cmd_report)

    cmp_ = sub.add_parser(
        "compare", help="diff two PSM scheme files (exit 1 when they differ)"
    )
    cmp_.add_argument("psm_a", type=Path)
    cmp_.add_argument("psm_b", type=Path)
    cmp_.set_defaults(func=_cmd_compare)

    flt = sub.add_parser(
        "faults",
        help="reliability sweep under transient fault injection",
    )
    flt.add_argument("--app", default="mp3", help="mp3 or jpeg")
    flt.add_argument("--segments", type=int, default=3)
    flt.add_argument("--package-size", type=int, default=36)
    flt.add_argument(
        "--kind",
        default="package_corruption",
        choices=["package_corruption", "grant_loss", "fu_stall", "bu_drop"],
    )
    flt.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.0, 0.001, 0.01, 0.05],
        help="fault rates to sweep",
    )
    flt.add_argument(
        "--seeds", type=int, default=3, help="seed population per rate"
    )
    flt.add_argument("--max-attempts", type=int, default=4)
    flt.add_argument(
        "--backoff", default="exponential", choices=["none", "linear", "exponential"]
    )
    flt.add_argument(
        "--timeout-ticks", type=int, default=None,
        help="per-hop CA-queue timeout (CA clock ticks)",
    )
    flt.add_argument(
        "--on-exhaustion", default="degrade", choices=["fail", "degrade"]
    )
    flt.add_argument("--csv", default="", help="also write a CSV file here")
    flt.add_argument(
        "--plan-xml", default="",
        help="also write the worst-case fault plan as an XML scheme",
    )
    _add_engine_flag(flt)
    _add_executor_flags(flt)
    flt.set_defaults(func=_cmd_faults)

    slf = sub.add_parser(
        "selftest",
        help="conformance harness: random-model oracle + golden traces",
    )
    slf.add_argument(
        "--count",
        type=int,
        default=None,
        help="random models to run through the oracle (default 200)",
    )
    slf.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 25 models unless --count is given",
    )
    slf.add_argument(
        "--seed", type=int, default=1, help="first seed (default 1)"
    )
    slf.add_argument(
        "--skip-golden",
        action="store_true",
        help="skip the golden-trace comparison stage",
    )
    slf.add_argument(
        "--update-golden",
        action="store_true",
        help="re-pin the golden-trace store instead of checking it",
    )
    slf.add_argument(
        "--models-dir",
        default="examples/models",
        help="directory of (psdf, psm) pairs (default examples/models)",
    )
    slf.add_argument(
        "--golden-store",
        default="tests/integration/golden/trace_digests.json",
        help="golden digest store path",
    )
    _add_engine_flag(slf)
    _add_executor_flags(slf)
    slf.set_defaults(func=_cmd_selftest)

    bch = sub.add_parser(
        "bench",
        help="headless perf scenarios; --check gates against baselines",
    )
    bch.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names (default: all; see --list)",
    )
    bch.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    bch.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed rounds per engine-aware scenario, interleaved across "
        "engines; the ratio gates take the median (default 3)",
    )
    mode = bch.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baselines (exit 1 on drift)",
    )
    mode.add_argument(
        "--update",
        action="store_true",
        help="(re)write the baseline files from this run",
    )
    bch.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="baseline directory (default benchmarks/baselines)",
    )
    _add_engine_flag(bch)
    bch.set_defaults(func=_cmd_bench)

    srv = sub.add_parser(
        "serve",
        help="HTTP simulation service with result cache and batching",
    )
    srv.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    srv.add_argument(
        "--port",
        type=int,
        default=8337,
        help="bind port; 0 picks an ephemeral one (default 8337)",
    )
    srv.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        help="executor worker processes behind the service (default 1: "
        "in-process serial; >= 2 enables per-job timeouts)",
    )
    srv.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout (needs --serve-workers >= 2)",
    )
    srv.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per job after the first attempt (default 2)",
    )
    srv.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission queue bound; excess jobs shed with 429 "
        "(default 64)",
    )
    srv.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="result cache entry cap (default 1024)",
    )
    srv.add_argument(
        "--cache-mb",
        type=float,
        default=64.0,
        help="result cache byte cap in MiB (default 64)",
    )
    _add_engine_flag(srv)
    srv.set_defaults(func=_cmd_serve)

    ldg = sub.add_parser(
        "loadgen",
        help="seeded load generator against a running segbus serve",
    )
    from repro.serve.loadgen import add_arguments as _loadgen_arguments

    _loadgen_arguments(ldg)
    ldg.set_defaults(func=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import SegBusError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SegBusError, OSError) as exc:
        if args.debug:
            raise
        print(f"segbus: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
