"""Seeded serve payloads: an endless, deterministic stream of distinct jobs.

The stream is a function of ``seed`` alone.  The mix covers the sizes
the service sees:

* the generator's default small models (``repro.testing.generators``);
* a larger :class:`GeneratorProfile`;
* MP3 and JPEG paper models across segment counts and package sizes,
  with jittered clocks so every variant is a distinct scheme;
* each curated ``workload`` name once, early in the stream.

Nothing in the repository measures what traffic the service sees, so
the four model families get equal shares rather than invented ones.
Every block of 20 items holds each family five times, crossed with the
kind mix: 40 % emulate, 20 % strict emulate, 20 % estimate and 20 %
lint.  The stream labels every payload with its family (``curated`` for
the catalog workloads), so a run can report each family's share of its
wall.  Payloads carry no engine: the server's ``--engine fast`` default
applies.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, Iterator, List, Tuple

KIND_BLOCK = (
    ("emulate", False),
    ("emulate", False),
    ("emulate", True),
    ("estimate", False),
    ("lint", False),
)
FAMILIES = ("small", "large", "mp3", "jpeg")
CURATED = "curated"
ALL_FAMILIES = FAMILIES + (CURATED,)
#: curated workloads land at seeded positions among the first items
CURATED_SPAN = 40
MP3_PACKAGE_SIZES = (4, 6, 8, 9, 12, 18, 24, 36)
#: sizes dividing both JPEG volumes (2556 luma, 648 chroma items)
JPEG_PACKAGE_SIZES = (6, 9, 12, 18, 36)


def _large_profile():
    from repro.testing.generators import GeneratorProfile

    return GeneratorProfile(min_processes=10, max_processes=16, max_segments=4)


def _schemes(application, platform) -> Dict[str, str]:
    from repro.xmlio.psdf_writer import psdf_to_xml
    from repro.xmlio.psm_writer import psm_to_xml

    return {
        "psdf_xml": psdf_to_xml(application, platform.package_size),
        "psm_xml": psm_to_xml(platform),
    }


def _paper_model(rng: random.Random, family: str):
    from repro.model.mapping import map_application

    segments = rng.choice((1, 2, 3))
    if family == "mp3":
        from repro.apps.mp3 import (
            PAPER_CA_FREQUENCY_MHZ,
            mp3_decoder_psdf,
            paper_allocation,
            paper_segment_frequencies_mhz,
        )

        application = mp3_decoder_psdf()
        allocation = paper_allocation(segments)
        base = paper_segment_frequencies_mhz(segments)
        ca = PAPER_CA_FREQUENCY_MHZ
        size = rng.choice(MP3_PACKAGE_SIZES)
    else:
        from repro.apps.jpeg import jpeg_allocation, jpeg_decoder_psdf

        application = jpeg_decoder_psdf()
        allocation = jpeg_allocation(segments)
        base = (100.0,) * segments
        ca = 120.0
        size = rng.choice(JPEG_PACKAGE_SIZES)
    psm = map_application(
        application,
        allocation,
        segment_frequencies_mhz=[f + rng.randint(-8, 8) for f in base],
        ca_frequency_mhz=ca + rng.randint(0, 40),
        package_size=size,
        name="SBP",
    )
    return application, psm.platform


def _model_payload(rng: random.Random, family: str) -> Dict[str, object]:
    if family in ("small", "large"):
        from repro.testing.generators import DEFAULT_PROFILE, generate_model

        profile = DEFAULT_PROFILE if family == "small" else _large_profile()
        model = generate_model(rng.randrange(1 << 31), profile)
        return _schemes(model.application, model.platform)
    return _schemes(*_paper_model(rng, family))


def payload_stream(seed: int) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Endless deterministic ``(family, payload)`` pairs for ``seed``.

    Items come in shuffled blocks holding every (family, kind) pair once,
    so two seeds differ in their models, not in their mix.
    """
    from repro.apps.workloads import scenario_catalog

    rng = random.Random(seed)
    curated = dict(
        zip(rng.sample(range(CURATED_SPAN), len(scenario_catalog())), scenario_catalog())
    )
    block = [
        (family, kind, strict) for family in FAMILIES for kind, strict in KIND_BLOCK
    ]
    index = 0
    while True:
        rng.shuffle(block)
        for family, kind, strict in block:
            item_rng = random.Random(f"{seed}:{index}")
            if index in curated:
                payload: Dict[str, object] = {"workload": curated[index]}
                family = CURATED
            else:
                payload = _model_payload(item_rng, family)
            payload["kind"] = kind
            if strict:
                payload["strict"] = True
            yield family, payload
            index += 1


def encode(payload: Dict[str, object]) -> bytes:
    """The request body exactly as sent (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(bodies: List[bytes]) -> str:
    """SHA-256 over a sequence of encoded payloads."""
    hasher = hashlib.sha256()
    for body in bodies:
        hasher.update(hashlib.sha256(body).digest())
    return hasher.hexdigest()


def prefix_digest(seed: int, count: int) -> str:
    """Digest of the first ``count`` payloads of ``seed``'s stream."""
    stream = payload_stream(seed)
    return digest([encode(next(stream)[1]) for _ in range(count)])
