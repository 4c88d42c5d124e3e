"""Job schema, cache-key sensitivity and execution."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.emulator.fastkernel import ENGINE_NAMES, resolve_engine
from repro.errors import JobValidationError
from repro.serve.jobs import (
    JOB_KINDS,
    MAX_SELFTEST_COUNT,
    RESPONSE_SCHEMA_VERSION,
    cache_key,
    execute_job,
    parse_job,
    response_bytes,
)


class TestParseJob:
    def test_minimal_workload_job(self):
        job = parse_job({"kind": "emulate", "workload": "bursty"})
        assert job.kind == "emulate"
        assert job.workload == "bursty"
        assert job.engine == resolve_engine(None)

    def test_engine_spellings_cannot_fragment_the_cache(self):
        # the resolved default and its explicit spelling share one key
        implicit = parse_job({"kind": "emulate", "workload": "bursty"})
        explicit = parse_job(
            {
                "kind": "emulate",
                "workload": "bursty",
                "engine": resolve_engine(None),
            }
        )
        assert cache_key(implicit) == cache_key(explicit)

    @pytest.mark.parametrize(
        "payload, detail",
        [
            ("not-a-dict", "JSON object"),
            ({"kind": "emulate", "workload": "bursty", "x": 1}, "unknown"),
            ({"kind": "simulate"}, "kind must be one of"),
            ({}, "kind must be one of"),
            (
                {"kind": "emulate", "workload": "bursty", "engine": "warp"},
                "warp",
            ),
            ({"kind": "emulate", "workload": "nope"}, "unknown workload"),
            ({"kind": "emulate"}, "both psdf_xml and psm_xml"),
            ({"kind": "estimate"}, "both psdf_xml and psm_xml"),
            ({"kind": "lint"}, "at least one inline scheme"),
            ({"kind": "emulate", "workload": ""}, "non-empty string"),
            (
                {"kind": "emulate", "workload": "bursty", "strict": "yes"},
                "strict must be a boolean",
            ),
            (
                {"kind": "emulate", "workload": "bursty", "count": 3},
                "count applies to selftest",
            ),
            ({"kind": "selftest"}, "count must be in"),
            ({"kind": "selftest", "count": 0}, "count must be in"),
            (
                {"kind": "selftest", "count": MAX_SELFTEST_COUNT + 1},
                "count must be in",
            ),
            (
                {"kind": "selftest", "count": 1, "workload": "bursty"},
                "not a model",
            ),
            (
                {"kind": "selftest", "count": 1, "seed": "x"},
                "seed must be an integer",
            ),
            (
                {
                    "kind": "selftest",
                    "count": 1,
                    "fault_plan_xml": "<plan/>",
                },
                "fault_plan_xml applies to emulate",
            ),
        ],
    )
    def test_schema_rejections(self, payload, detail):
        with pytest.raises(JobValidationError, match=detail):
            parse_job(payload)

    def test_workload_and_inline_are_mutually_exclusive(self, inline_schemes):
        psdf_xml, psm_xml = inline_schemes
        with pytest.raises(JobValidationError, match="mutually exclusive"):
            parse_job(
                {
                    "kind": "emulate",
                    "workload": "bursty",
                    "psdf_xml": psdf_xml,
                    "psm_xml": psm_xml,
                }
            )

    def test_default_engine_parameter(self):
        job = parse_job(
            {"kind": "emulate", "workload": "bursty"}, default_engine="fast"
        )
        assert job.engine == "fast"
        # an explicit engine on the payload wins over the server default
        job = parse_job(
            {"kind": "emulate", "workload": "bursty", "engine": "stepped"},
            default_engine="fast",
        )
        assert job.engine == "stepped"


class TestCacheKey:
    def test_single_field_mutations_give_distinct_keys(self, inline_schemes):
        psdf_xml, psm_xml = inline_schemes
        base = {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": psm_xml}
        # whichever engine the default does not resolve to
        other_engine = next(e for e in ENGINE_NAMES if e != resolve_engine())
        mutations = [
            {**base, "kind": "estimate"},
            {**base, "kind": "lint"},
            {**base, "engine": other_engine},
            {**base, "strict": True},
            {**base, "psdf_xml": psdf_xml + "<!-- -->"},
            {**base, "psm_xml": psm_xml + "<!-- -->"},
        ]
        keys = {cache_key(parse_job(base))}
        for payload in mutations:
            keys.add(cache_key(parse_job(payload)))
        assert len(keys) == len(mutations) + 1

    def test_selftest_count_and_seed_key_separately(self):
        keys = {
            cache_key(parse_job({"kind": "selftest", "count": c, "seed": s}))
            for c, s in ((1, 1), (2, 1), (1, 2))
        }
        assert len(keys) == 3

    def test_key_is_stable_across_calls(self):
        job = parse_job({"kind": "emulate", "workload": "bursty"})
        assert cache_key(job) == cache_key(job)

    def test_label_carries_kind_and_key_prefix(self):
        job = parse_job({"kind": "emulate", "workload": "bursty"})
        assert job.label == f"emulate:{cache_key(job)[:12]}"

    def test_key_is_derived_not_a_field(self):
        # the key is computed once per job object, yet leaves equality,
        # the canonical form and construction alone; a pickled job
        # carries it to a pool worker
        from dataclasses import fields

        from repro.analysis.executor import canonical_digest

        payload = {"kind": "lint", "workload": "bursty"}
        job, fresh = parse_job(payload), parse_job(payload)
        digest = canonical_digest(job)
        assert job.key == cache_key(job)
        assert "key" not in {f.name for f in fields(job)}
        assert job == fresh and canonical_digest(job) == digest
        assert pickle.loads(pickle.dumps(job)).__dict__["key"] == job.key


class TestExecuteJob:
    def test_emulate_inline_matches_direct_emulation(self, inline_schemes):
        from repro.emulator.emulator import SegBusEmulator

        psdf_xml, psm_xml = inline_schemes
        job = parse_job(
            {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": psm_xml}
        )
        body = execute_job(job)
        report = SegBusEmulator(psdf_xml, psm_xml).run(engine=job.engine)
        assert body["kind"] == "emulate"
        assert body["multimode"] is False
        assert body["digest"] == report.digest()
        assert body["result"] == report.to_dict()
        assert body["schema"] == RESPONSE_SCHEMA_VERSION
        assert body["key"] == cache_key(job)

    def test_emulate_multimode_workload(self):
        job = parse_job({"kind": "emulate", "workload": "mp3_jpeg_multimode"})
        body = execute_job(job)
        assert body["multimode"] is True
        assert body["digest"]

    def test_estimate_reports_exact_ints_and_version(self, inline_schemes):
        from repro.analysis.stochastic import ESTIMATOR_VERSION

        psdf_xml, psm_xml = inline_schemes
        body = execute_job(
            parse_job(
                {"kind": "estimate", "psdf_xml": psdf_xml, "psm_xml": psm_xml}
            )
        )
        assert body["estimator_version"] == ESTIMATOR_VERSION
        result = body["result"]
        assert isinstance(result["execution_time_fs"], int)
        assert isinstance(result["execution_time_ps"], int)
        assert result["execution_time_fs"] > 0

    def test_lint_carries_registry_hash_and_exit_code(self, inline_schemes):
        from repro.lint import registry_hash

        psdf_xml, psm_xml = inline_schemes
        body = execute_job(
            parse_job(
                {"kind": "lint", "psdf_xml": psdf_xml, "psm_xml": psm_xml}
            )
        )
        assert body["registry"] == registry_hash()
        assert body["exit_code"] in (0, 1, 2)
        assert "findings" in json.dumps(body["result"]) or body["result"]

    def test_selftest_runs_the_battery(self):
        body = execute_job(
            parse_job({"kind": "selftest", "count": 2, "seed": 7})
        )
        result = body["result"]
        assert result["models"] == 2
        assert result["divergent"] == 0
        assert result["ok"] is True
        # wall clocks are banned from response bodies
        assert "elapsed_s" not in result

    def test_response_bytes_are_deterministic(self, inline_schemes):
        psdf_xml, psm_xml = inline_schemes
        payload = {
            "kind": "emulate",
            "psdf_xml": psdf_xml,
            "psm_xml": psm_xml,
        }
        first = response_bytes(execute_job(parse_job(payload)))
        second = response_bytes(execute_job(parse_job(payload)))
        assert first == second

    def test_job_kinds_constant_is_the_full_dispatch_surface(self):
        assert JOB_KINDS == ("emulate", "estimate", "lint", "selftest")
