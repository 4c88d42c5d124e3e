"""Simulation-as-a-service: the ``segbus serve`` subsystem.

The ROADMAP's production-serving item: a stdlib-HTTP front end that
schema-checks emulate/estimate/lint/selftest jobs, runs each through
the supervised campaign-executor pool with one load (an input the
library refuses answers 400), and memoizes canonical response bytes in
a digest-keyed LRU cache.
See docs/SERVING.md for the API schema, cache
semantics and backpressure contract, and ``repro.serve.loadgen`` for
the seeded load generator.
"""

from repro.serve.cache import CacheStats, ResultCache
from repro.serve.jobs import (
    JOB_KINDS,
    MAX_SELFTEST_COUNT,
    RESPONSE_SCHEMA_VERSION,
    ServeJob,
    cache_key,
    execute_job,
    parse_job,
    response_bytes,
)
from repro.serve.server import SegbusHTTPServer, create_server
from repro.serve.service import (
    SegbusService,
    ServeResponse,
    ServiceConfig,
)

__all__ = [
    "CacheStats",
    "JOB_KINDS",
    "MAX_SELFTEST_COUNT",
    "RESPONSE_SCHEMA_VERSION",
    "ResultCache",
    "SegbusHTTPServer",
    "SegbusService",
    "ServeJob",
    "ServeResponse",
    "ServiceConfig",
    "cache_key",
    "create_server",
    "execute_job",
    "parse_job",
    "response_bytes",
]
