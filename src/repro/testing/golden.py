"""Golden-trace store: pinned digests for the example models.

``tests/integration/golden`` already pins the headline listing as text;
this store generalizes the idea to *trace-level* behaviour for every
(PSDF, PSM) pair under ``examples/models/``.  For each pair it records

* the canonical **trace digest** (every semantic event, in order),
* the **timeline digest** (per-process start/end/packages),
* the **report digest** (every counter of the results listing),
* readable metadata — event count, per-kind event counts, execution time —

in one JSON file.  ``segbus selftest`` re-emulates the pairs and fails on
*unexplained drift*: any digest mismatch is reported with the metadata
diff (which digests moved, how the event mix and the execution time
changed), so a reviewer can tell a timing refactor from a broken kernel
at a glance.  Intentional changes are re-pinned with
``segbus selftest --update-golden`` (see docs/TESTING.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.emulator.fastkernel import ENGINE_NAMES, simulation_class
from repro.emulator.kernel import PlatformSpec
from repro.emulator.report import build_report
from repro.emulator.trace import Tracer
from repro.errors import SegBusError
from repro.units import fs_to_ps
from repro.xmlio.psdf_parser import parse_psdf_xml
from repro.xmlio.psm_parser import parse_psm_xml

#: default locations, relative to a repository checkout
DEFAULT_MODELS_DIR = Path("examples") / "models"
DEFAULT_STORE = (
    Path("tests") / "integration" / "golden" / "trace_digests.json"
)
#: pinned digests for the named workload scenarios (see
#: :mod:`repro.apps.workloads`), including the composed multi-mode digests
DEFAULT_WORKLOAD_STORE = (
    Path("tests") / "integration" / "golden" / "workload_digests.json"
)
#: the scenarios pinned by default: one adversarial shape and the
#: two-phase multi-mode composition
WORKLOAD_GOLDEN_NAMES = ("adversarial_hot_segment", "mp3_jpeg_multimode")
STORE_VERSION = 2


@dataclass(frozen=True)
class GoldenEntry:
    """The pinned digests and readable metadata of one model pair."""

    key: str
    trace_digest: str
    timeline_digest: str
    report_digest: str
    events: int
    kind_counts: Dict[str, int]
    execution_time_ps: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_digest": self.trace_digest,
            "timeline_digest": self.timeline_digest,
            "report_digest": self.report_digest,
            "events": self.events,
            "kind_counts": self.kind_counts,
            "execution_time_ps": self.execution_time_ps,
        }

    @classmethod
    def from_dict(cls, key: str, data: Dict[str, object]) -> "GoldenEntry":
        return cls(
            key=key,
            trace_digest=str(data["trace_digest"]),
            timeline_digest=str(data["timeline_digest"]),
            report_digest=str(data["report_digest"]),
            events=int(data["events"]),
            kind_counts={
                str(k): int(v) for k, v in dict(data["kind_counts"]).items()
            },
            execution_time_ps=int(data["execution_time_ps"]),
        )


@dataclass
class GoldenCheck:
    """Outcome of one golden comparison run."""

    drifts: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    unpinned: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.drifts and not self.missing and not self.unpinned

    def format(self) -> str:
        if self.ok:
            return f"golden traces: {self.checked} pair(s) unchanged"
        lines = [f"golden traces: {self.checked} pair(s) checked"]
        for drift in self.drifts:
            lines.append(drift)
        for key in self.missing:
            lines.append(
                f"  {key}: pinned but the model files are gone — regenerate "
                "the store or restore the files"
            )
        for key in self.unpinned:
            lines.append(
                f"  {key}: present but not pinned — run with --update-golden "
                "to pin it"
            )
        return "\n".join(lines)


def discover_pairs(
    models_dir: Union[str, Path] = DEFAULT_MODELS_DIR,
) -> List[Tuple[str, Path, Path]]:
    """(key, psdf path, psm path) for every application/platform pair.

    A PSM named ``<app>_psm*.xml`` pairs with the PSDF ``<app>_psdf.xml``;
    the key is ``<psdf name>+<psm name>``.
    """
    directory = Path(models_dir)
    if not directory.is_dir():
        raise SegBusError(f"model directory {directory} does not exist")
    psdfs = {
        p.name.split("_psdf")[0]: p for p in sorted(directory.glob("*_psdf.xml"))
    }
    pairs: List[Tuple[str, Path, Path]] = []
    for psm in sorted(directory.glob("*_psm*.xml")):
        app = psm.name.split("_psm")[0]
        psdf = psdfs.get(app)
        if psdf is None:
            continue
        pairs.append((f"{psdf.name}+{psm.name}", psdf, psm))
    return pairs


def measure_pair(
    psdf_path: Path, psm_path: Path, key: str, engine: str = "stepped"
) -> GoldenEntry:
    """Emulate one pair with a tracer and digest everything.

    ``engine`` picks the simulation kernel; every engine is pinned
    against the *same* store entries, so drift in any one trips the
    same check.
    """
    application = parse_psdf_xml(
        psdf_path.read_text(encoding="utf-8")
    ).to_graph()
    spec = PlatformSpec.from_platform(
        parse_psm_xml(psm_path.read_text(encoding="utf-8")).to_platform()
    )
    tracer = Tracer()
    sim = simulation_class(engine)(application, spec, tracer=tracer).run()
    report = build_report(sim)
    return GoldenEntry(
        key=key,
        trace_digest=tracer.digest(),
        timeline_digest=report.timeline.digest(),
        report_digest=report.digest(),
        events=len(tracer),
        kind_counts=tracer.kind_counts(),
        execution_time_ps=fs_to_ps(sim.execution_time_fs()),
    )


def load_store(path: Union[str, Path]) -> Dict[str, GoldenEntry]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("version") != STORE_VERSION:
        raise SegBusError(
            f"golden store {path}: unsupported version {data.get('version')!r}"
        )
    return {
        key: GoldenEntry.from_dict(key, entry)
        for key, entry in data.get("entries", {}).items()
    }


def write_store(
    entries: Dict[str, GoldenEntry], path: Union[str, Path]
) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": STORE_VERSION,
        "engines": list(ENGINE_NAMES),
        "entries": {
            key: entries[key].to_dict() for key in sorted(entries)
        },
    }
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def update_goldens(
    models_dir: Union[str, Path] = DEFAULT_MODELS_DIR,
    store_path: Union[str, Path] = DEFAULT_STORE,
) -> Dict[str, GoldenEntry]:
    """Re-measure every pair and (re)write the store — the intentional path.

    Pinning refuses to proceed if the engines disagree with each other:
    a store written from a divergent matrix would silently bless exactly
    the bug ENG-1 exists to catch.
    """
    entries: Dict[str, GoldenEntry] = {}
    for key, psdf, psm in discover_pairs(models_dir):
        entries[key] = measure_pair(psdf, psm, key)
        for engine in ENGINE_NAMES[1:]:
            drift = _diff_entry(
                entries[key], measure_pair(psdf, psm, key, engine=engine)
            )
            if drift:
                raise SegBusError(
                    f"refusing to pin {key}: the {engine} engine diverges "
                    f"from {ENGINE_NAMES[0]}:\n{drift}"
                )
    if not entries:
        raise SegBusError(f"no (psdf, psm) pairs found under {models_dir}")
    write_store(entries, store_path)
    return entries


def _diff_entry(pinned: GoldenEntry, measured: GoldenEntry) -> Optional[str]:
    """A readable drift description, or None when digests all match."""
    moved = [
        name
        for name, attr in (
            ("trace", "trace_digest"),
            ("timeline", "timeline_digest"),
            ("report", "report_digest"),
        )
        if getattr(pinned, attr) != getattr(measured, attr)
    ]
    if not moved:
        return None
    lines = [f"  {pinned.key}: {', '.join(moved)} digest(s) drifted"]
    if pinned.events != measured.events:
        lines.append(
            f"      events: {pinned.events} -> {measured.events}"
        )
    kinds = sorted(set(pinned.kind_counts) | set(measured.kind_counts))
    for kind in kinds:
        before = pinned.kind_counts.get(kind, 0)
        after = measured.kind_counts.get(kind, 0)
        if before != after:
            lines.append(f"      {kind}: {before} -> {after}")
    if pinned.execution_time_ps != measured.execution_time_ps:
        lines.append(
            f"      execution time: {pinned.execution_time_ps} ps -> "
            f"{measured.execution_time_ps} ps"
        )
    if len(lines) == 1:
        lines.append(
            "      counters identical at this granularity — event order or "
            "payload changed; diff the canonical trace lines of the two "
            "builds to localize it"
        )
    lines.append(
        "      intentional? re-pin with `segbus selftest --update-golden` "
        "and justify in EXPERIMENTS.md"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# workload scenarios: the same store machinery over the named catalog
# ---------------------------------------------------------------------------


def measure_workload(name: str, engine: str = "stepped") -> GoldenEntry:
    """Run one named scenario with a tracer and digest everything.

    Single-mode scenarios digest exactly like :func:`measure_pair`;
    multi-mode scenarios pin the *composed*
    :class:`~repro.emulator.multimode.MultiModeReport` digests, so a
    drift in any per-mode run, the phase resolution, or the transition
    accounting trips the check.
    """
    # lazy: the workload catalog pulls in the generators (numpy + lint)
    from repro.apps.workloads import workload_model

    workload = workload_model(name)
    if workload.is_multimode:
        from repro.emulator.multimode import run_multimode

        composed = run_multimode(
            workload.application, workload.platform, engine=engine
        )
        return GoldenEntry(
            key=name,
            trace_digest=composed.trace_digest(),
            timeline_digest=composed.timeline_digest(),
            report_digest=composed.report_digest(),
            events=composed.total_events,
            kind_counts=composed.kind_counts(),
            execution_time_ps=composed.execution_time_ps,
        )
    spec = PlatformSpec.from_platform(workload.platform)
    tracer = Tracer()
    sim = simulation_class(engine)(
        workload.application, spec, tracer=tracer
    ).run()
    report = build_report(sim)
    return GoldenEntry(
        key=name,
        trace_digest=tracer.digest(),
        timeline_digest=report.timeline.digest(),
        report_digest=report.digest(),
        events=len(tracer),
        kind_counts=tracer.kind_counts(),
        execution_time_ps=fs_to_ps(sim.execution_time_fs()),
    )


def update_workload_goldens(
    store_path: Union[str, Path] = DEFAULT_WORKLOAD_STORE,
    names: Tuple[str, ...] = WORKLOAD_GOLDEN_NAMES,
) -> Dict[str, GoldenEntry]:
    """Re-measure the named scenarios and (re)write their store.

    Same refuse-to-pin discipline as :func:`update_goldens`: if any
    engine diverges from the stepped reference on any scenario —
    including on the composed multi-mode digests — nothing is written.
    """
    entries: Dict[str, GoldenEntry] = {}
    for name in names:
        entries[name] = measure_workload(name)
        for engine in ENGINE_NAMES[1:]:
            drift = _diff_entry(
                entries[name], measure_workload(name, engine=engine)
            )
            if drift:
                raise SegBusError(
                    f"refusing to pin workload {name}: the {engine} engine "
                    f"diverges from {ENGINE_NAMES[0]}:\n{drift}"
                )
    write_store(entries, store_path)
    return entries


def check_workload_goldens(
    store_path: Union[str, Path] = DEFAULT_WORKLOAD_STORE,
    names: Tuple[str, ...] = WORKLOAD_GOLDEN_NAMES,
    engines: Tuple[str, ...] = ENGINE_NAMES,
) -> GoldenCheck:
    """Compare the named scenarios against their pinned store, per engine."""
    store = load_store(store_path)
    check = GoldenCheck()
    seen = set()
    for name in names:
        seen.add(name)
        pinned = store.get(name)
        if pinned is None:
            check.unpinned.append(name)
            continue
        for engine in engines:
            check.checked += 1
            drift = _diff_entry(
                pinned, measure_workload(name, engine=engine)
            )
            if drift:
                check.drifts.append(
                    drift.replace(
                        f"  {name}:", f"  {name} [{engine} engine]:", 1
                    )
                )
    check.missing.extend(sorted(set(store) - seen))
    return check


def check_goldens(
    models_dir: Union[str, Path] = DEFAULT_MODELS_DIR,
    store_path: Union[str, Path] = DEFAULT_STORE,
    engines: Tuple[str, ...] = ENGINE_NAMES,
) -> GoldenCheck:
    """Compare every pair against the pinned store, once per engine.

    The store holds a single set of digests per pair; every engine in
    ``engines`` must reproduce them exactly, so the same pins catch drift
    in the stepped kernel, the fast kernel, or both — the matrix is
    pairs x engines.
    """
    store = load_store(store_path)
    check = GoldenCheck()
    seen = set()
    for key, psdf, psm in discover_pairs(models_dir):
        seen.add(key)
        pinned = store.get(key)
        if pinned is None:
            check.unpinned.append(key)
            continue
        for engine in engines:
            check.checked += 1
            drift = _diff_entry(
                pinned, measure_pair(psdf, psm, key, engine=engine)
            )
            if drift:
                check.drifts.append(
                    drift.replace(
                        f"  {key}:", f"  {key} [{engine} engine]:", 1
                    )
                )
    check.missing.extend(sorted(set(store) - seen))
    return check
