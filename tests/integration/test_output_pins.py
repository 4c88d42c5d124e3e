"""SHA-256 pins of what the user reads: CLI output, written files, report.

Each CLI case drives :func:`repro.cli.main` in-process from an empty
working directory and hashes its stdout followed by the bytes of every
file it was asked to write (relative names, so the printed paths are
stable).  The sweep cases hash the numbers and report digests of the
three accuracy sweeps.  Both engines print the same bytes, so every pin
holds whatever ``SEGBUS_ENGINE`` says.

A pin that moves means a user-visible byte changed.  If that is
intended, re-pin with the digest the failure prints and say why in the
change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Sequence

import pytest

from repro.analysis.campaign import Campaign
from repro.analysis.reporting import generate_experiment_report
from repro.analysis.sweep import (
    frequency_sweep,
    package_size_sweep,
    segment_count_sweep,
)
from repro.apps.mp3 import (
    PAPER_CA_FREQUENCY_MHZ,
    mp3_decoder_psdf,
    paper_allocation,
    paper_platform,
    paper_segment_frequencies_mhz,
)
from repro.cli import main


def cli_digest(argv: Sequence[str], files: Sequence[str] = ()) -> str:
    """SHA-256 over ``segbus argv``'s stdout, then each written file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8"))
    for name in files:
        digest.update(Path(name).read_bytes())
    return digest.hexdigest()


#: name -> (argv, files the command writes, sha256)
CLI_PINS = {
    "explore": (
        ["explore"],
        (),
        "291d527951fa5f556df5aa629e3f81b789c1da669a5e96ac338639d6552f956a",
    ),
    "explore_prune": (
        ["explore", "--estimate-prune", "4"],
        (),
        "3dd48271c62b1a5ad2919dac8473c1c6834680c7563d95c07548a7b9bbcff719",
    ),
    "faults": (
        ["faults"],
        (),
        "45d80ac0cf4c0987c1567d2d1434348c2da817f93f8f4a048693befab6d71a2f",
    ),
    "faults_csv": (
        ["faults", "--csv", "curve.csv"],
        ("curve.csv",),
        "a8bbceb9c5d1c3a9dfa3a545f199c76187a048d3b5ee1173ff1b530a7b88354d",
    ),
    "faults_plan_xml": (
        ["faults", "--plan-xml", "plan.xml"],
        ("plan.xml",),
        "5f722a8666971a7aedfff264614d883cb0af13927fa1b021a0aece0b21a606c5",
    ),
    "faults_fail_grid": (
        ["faults", "--segments", "2", "--rates", "0.0", "0.05", "0.2",
         "--seeds", "2", "--max-attempts", "1", "--on-exhaustion", "fail"],
        (),
        "e9922e3a64427e7d5b541e82906f830083c96fa1471fe430e1dca7a92595ae65",
    ),
    "faults_jpeg_grant_loss": (
        ["faults", "--app", "jpeg", "--kind", "grant_loss",
         "--on-exhaustion", "fail", "--rates", "0.0", "0.05", "0.2",
         "--seeds", "2"],
        (),
        "de5952a478c2a272ee4d137bc55f14baff9a20d6e1c69e6f86e23b36ba45f784",
    ),
    # the same table as without a timeout
    "faults_timeout": (
        ["faults", "--timeout-ticks", "100000"],
        (),
        "45d80ac0cf4c0987c1567d2d1434348c2da817f93f8f4a048693befab6d71a2f",
    ),
    "accuracy": (
        ["accuracy"],
        (),
        "f1f95fc46f79482f83a8f1e3d1eef7c5f547e7c400a36869bea7c695c95d95bb",
    ),
    "accuracy_2seg": (
        ["accuracy", "--segments", "2", "--package-size", "18"],
        (),
        "fc672c225e164c06e0d77b566850bcc365d29ee564f6128cd74d6eb8debf12af",
    ),
    "campaign": (
        ["campaign"],
        (),
        "b89139e5bb5f7646077195738ebd4bb07bc43c45e934ac7111c5d1a2cf3d7a6c",
    ),
    "campaign_csv": (
        ["campaign", "--app", "jpeg", "--csv", "campaign.csv"],
        ("campaign.csv",),
        "be4b7eac73a595b3b03552fe4173f034fea0384c7bb6a3bb0e9129e476239730",
    ),
    "power": (
        ["power"],
        (),
        "11ecde9bbd14294f2d7fec5bfac39433a5b667a967cb8e8f695a40fe8b2c7613",
    ),
    "analytic": (
        ["analytic"],
        (),
        "feac71fe8f4e4f6751266afe71667778aa26acbab63e59575a4f17ec7a75dab4",
    ),
    "trace": (
        ["trace", "--output", "trace.vcd", "--log", "40"],
        ("trace.vcd",),
        "960a3eaa6cc788030d9119107758ade8e1c86b86f88da4a9db495309d7ecec75",
    ),
    "trace_1seg": (
        ["trace", "--segments", "1", "--package-size", "18",
         "--output", "trace.vcd"],
        ("trace.vcd",),
        "9d730f480dc3a17d531499649bb6d40f94fe77aa9c77fb9f96f022ffcaea4208",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_output_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, files, expected = CLI_PINS[name]
    assert cli_digest(argv, files) == expected, name


def test_experiment_report_pinned():
    # ``segbus report``'s text, and so the EXPERIMENTS.md numbers
    digest = hashlib.sha256(
        generate_experiment_report().encode("utf-8")
    ).hexdigest()
    assert digest == (
        "528506057f3151d13381f2f7603fed0e35d427302b8ac4d945e67fd3f7b75a84"
    )


def sweep_digest(points) -> str:
    """SHA-256 over every point's numbers and both report digests."""
    rows = [
        [
            p.parameter,
            p.result.label,
            repr(p.estimated_us),
            repr(p.actual_us),
            repr(p.accuracy),
            p.result.estimated_report.digest(),
            p.result.actual_report.digest(),
        ]
        for p in points
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def run_sweep(name: str, workers: int):
    application = mp3_decoder_psdf()
    if name == "package_size":
        return package_size_sweep(
            application,
            lambda size: paper_platform(3, package_size=size),
            package_sizes=(9, 18, 36, 72),
            workers=workers,
        )
    if name == "frequency":
        return frequency_sweep(
            application,
            paper_allocation(3),
            paper_segment_frequencies_mhz(3),
            PAPER_CA_FREQUENCY_MHZ,
            package_size=36,
            scales=(0.5, 1.0, 2.0),
            workers=workers,
        )
    return segment_count_sweep(
        application,
        [paper_allocation(n) for n in (1, 2, 3)],
        paper_segment_frequencies_mhz,
        PAPER_CA_FREQUENCY_MHZ,
        package_size=36,
        workers=workers,
    )


SWEEP_PINS = {
    "frequency": "400b1786d4f5fea4c50d5b25742607a270f27df9d99a51e0609953c3dcc9e44d",
    "package_size": "cc42ccd92b98a279e819a3ab59081fbfc0109cefb8c93acae887438661aa92f4",
    "segment_count": "2fee6ef7680ae2be4388aa76cec1cc8ebc7d7094ec8a3226d3f305fc28f0fd98",
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_accuracy_sweep_pinned(name):
    assert sweep_digest(run_sweep(name, workers=1)) == SWEEP_PINS[name]


def test_accuracy_sweep_pinned_in_workers():
    assert (
        sweep_digest(run_sweep("package_size", workers=2))
        == SWEEP_PINS["package_size"]
    )


def test_campaign_exports_pinned():
    campaign = Campaign("pins").add_grid(
        mp3_decoder_psdf(),
        lambda size: paper_platform(2, package_size=size),
        package_sizes=(9, 18, 36),
    )
    digest = hashlib.sha256(
        (campaign.to_json() + campaign.to_csv()).encode("utf-8")
    ).hexdigest()
    assert digest == (
        "96cddcf72543c70d566e16075839e748cb7cce1f8c966fa8feba01f0f333f149"
    )
