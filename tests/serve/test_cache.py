"""Result-cache correctness: LRU caps, counters, version-keyed invalidation."""

from __future__ import annotations

import pytest

from repro.serve.cache import CacheStats, ResultCache
from repro.serve.jobs import cache_key, parse_job


class TestLRU:
    def test_get_returns_exact_bytes(self):
        cache = ResultCache()
        cache.put("k", b"payload-bytes")
        assert cache.get("k") == b"payload-bytes"

    def test_entry_cap_evicts_least_recent(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.get("a")  # refresh a: b becomes the LRU entry
        cache.put("c", b"3")
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_byte_cap_evicts_until_it_holds(self):
        cache = ResultCache(max_bytes=10)
        cache.put("a", b"xxxx")  # 4
        cache.put("b", b"yyyy")  # 8
        cache.put("c", b"zzzz")  # would be 12: a evicted
        stats = cache.stats()
        assert stats.bytes <= 10
        assert "a" not in cache
        assert cache.get("b") == b"yyyy"
        assert cache.get("c") == b"zzzz"

    def test_eviction_is_never_stale(self):
        # an evicted key must read as a clean miss, and a re-put must
        # serve the *new* bytes — never a resurrected old value
        cache = ResultCache(max_entries=1)
        cache.put("a", b"old")
        cache.put("b", b"other")  # evicts a
        assert cache.get("a") is None
        cache.put("a", b"new")
        assert cache.get("a") == b"new"

    def test_replacing_a_key_serves_new_bytes_immediately(self):
        cache = ResultCache()
        cache.put("k", b"v1")
        cache.put("k", b"v2")
        assert cache.get("k") == b"v2"
        assert cache.stats().entries == 1
        assert cache.stats().bytes == 2

    def test_oversized_value_is_refused_not_stored(self):
        cache = ResultCache(max_bytes=4)
        cache.put("small", b"ok")
        assert not cache.put("big", b"way-too-large")
        assert "big" not in cache
        assert cache.get("small") == b"ok"  # the cache was not nuked
        assert cache.stats().oversized == 1

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestCounters:
    def test_hit_miss_accounting(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", b"v")
        assert cache.get("k") == b"v"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_contains_has_no_side_effects(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert "a" in cache
        assert "nope" not in cache
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0
        # a probe must not refresh recency either: a is still the LRU entry
        cache.put("c", b"3")
        assert "a" not in cache

    def test_invalidate_and_clear(self):
        cache = ResultCache()
        cache.put("k", b"v")
        assert cache.invalidate("k")
        assert not cache.invalidate("k")
        cache.put("k", b"v")
        cache.get("k")
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0 and stats.bytes == 0
        assert stats.hits == 0 and stats.misses == 0

    def test_stats_to_dict_roundtrip(self):
        stats = CacheStats(
            hits=3, misses=1, evictions=0, oversized=0,
            entries=2, bytes=10, max_entries=8, max_bytes=100,
        )
        data = stats.to_dict()
        assert data["hit_rate"] == 0.75
        assert data["entries"] == 2


class TestVersionKeys:
    """SB-fix regression: keys include the rule-registry hash and the
    estimator version, so upgrading either machinery invalidates the
    affected cached responses instead of replaying stale findings."""

    def _bump_registry(self, monkeypatch):
        # reword one rule's description: registry_hash() must change
        import dataclasses

        from repro.lint import engine as lint_engine

        real = lint_engine.default_registry

        def bumped():
            rebuilt = lint_engine.RuleRegistry()
            for index, rule in enumerate(real()):
                if index == 0:
                    rule = dataclasses.replace(
                        rule, description=rule.description + " (v2)"
                    )
                rebuilt.register(rule)
            return rebuilt

        monkeypatch.setattr(lint_engine, "default_registry", bumped)

    def test_lint_keys_change_when_the_registry_bumps(self, monkeypatch):
        job = parse_job({"kind": "lint", "workload": "bursty"})
        before = cache_key(job)
        self._bump_registry(monkeypatch)
        assert cache_key(job) != before

    def test_strict_emulate_keys_change_too(self, monkeypatch):
        job = parse_job(
            {"kind": "emulate", "workload": "bursty", "strict": True}
        )
        before = cache_key(job)
        self._bump_registry(monkeypatch)
        assert cache_key(job) != before

    def test_plain_emulate_keys_do_not_depend_on_the_registry(
        self, monkeypatch
    ):
        # a non-strict emulation never consults the linter: bumping the
        # catalogue must NOT throw its cached responses away
        job = parse_job({"kind": "emulate", "workload": "bursty"})
        before = cache_key(job)
        self._bump_registry(monkeypatch)
        assert cache_key(job) == before

    def test_estimate_keys_change_with_the_estimator_version(
        self, monkeypatch
    ):
        from repro.serve import jobs as serve_jobs

        job = parse_job({"kind": "estimate", "workload": "bursty"})
        before = cache_key(job)
        monkeypatch.setattr(serve_jobs, "ESTIMATOR_VERSION", 99)
        assert cache_key(job) != before
        # but emulate jobs do not carry the estimator version
        emulate = parse_job({"kind": "emulate", "workload": "bursty"})
        before_emulate_bump = cache_key(emulate)
        monkeypatch.undo()
        assert cache_key(emulate) == before_emulate_bump

    def test_bumped_registry_means_cache_miss_not_stale_hit(
        self, monkeypatch
    ):
        # end to end through a ResultCache: the old entry becomes
        # unreachable, which reads as a miss — never a stale replay
        cache = ResultCache()
        job = parse_job({"kind": "lint", "workload": "bursty"})
        cache.put(cache_key(job), b"stale-findings")
        self._bump_registry(monkeypatch)
        assert cache.get(cache_key(job)) is None

    def test_the_catalogue_is_hashed_once_per_process(self, monkeypatch):
        # the built-in catalogue is code: 50 lint and strict keys build
        # its 48 rules once, not once per key
        from repro.lint import engine as lint_engine

        real = lint_engine.default_registry
        builds = []

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(lint_engine, "default_registry", counted)
        jobs = [
            parse_job({"kind": "lint", "workload": "bursty"}),
            parse_job({"kind": "emulate", "workload": "bursty", "strict": True}),
        ]
        keys = {cache_key(job) for _ in range(25) for job in jobs}
        assert len(keys) == 2
        assert len(builds) == 1

    def test_an_explicit_registry_is_hashed_fresh(self):
        from repro.lint import RuleRegistry, default_registry, registry_hash

        registry = RuleRegistry()
        rules = list(default_registry())
        for rule in rules[:-1]:
            registry.register(rule)
        before = registry_hash(registry)
        registry.register(rules[-1])
        assert registry_hash(registry) != before
        assert registry_hash(registry) == registry_hash()
