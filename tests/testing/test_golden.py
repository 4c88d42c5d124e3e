"""Golden-trace store tests: pinning, drift detection, readable diffs."""

import json

import pytest

from repro.errors import SegBusError
from repro.testing.golden import (
    DEFAULT_MODELS_DIR,
    DEFAULT_STORE,
    check_goldens,
    discover_pairs,
    load_store,
    update_goldens,
    write_store,
)


class TestDiscovery:
    def test_finds_example_pairs(self):
        pairs = discover_pairs(DEFAULT_MODELS_DIR)
        keys = [key for key, _, _ in pairs]
        assert "mp3_psdf.xml+mp3_psm_2seg.xml" in keys
        assert "mp3_psdf.xml+mp3_psm_3seg.xml" in keys

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SegBusError, match="does not exist"):
            discover_pairs(tmp_path / "nope")


class TestCommittedStore:
    def test_committed_store_matches_reality(self):
        # THE regression: the checked-in digests must match what the
        # current emulator produces for the example models
        check = check_goldens(DEFAULT_MODELS_DIR, DEFAULT_STORE)
        assert check.ok, check.format()
        assert check.checked >= 2

    def test_store_is_versioned_json(self):
        entries = load_store(DEFAULT_STORE)
        for entry in entries.values():
            assert len(entry.trace_digest) == 64
            assert len(entry.timeline_digest) == 64
            assert len(entry.report_digest) == 64
            assert entry.events > 0
            assert entry.execution_time_ps > 0


class TestDriftDetection:
    def _tmp_store(self, tmp_path):
        path = tmp_path / "golden.json"
        entries = update_goldens(DEFAULT_MODELS_DIR, path)
        return path, entries

    def test_update_then_check_clean(self, tmp_path):
        path, entries = self._tmp_store(tmp_path)
        assert len(entries) >= 2
        check = check_goldens(DEFAULT_MODELS_DIR, path)
        assert check.ok
        assert "unchanged" in check.format()

    def test_tampered_digest_reports_readable_drift(self, tmp_path):
        path, _ = self._tmp_store(tmp_path)
        data = json.loads(path.read_text())
        key = sorted(data["entries"])[0]
        data["entries"][key]["trace_digest"] = "0" * 64
        data["entries"][key]["events"] += 5
        path.write_text(json.dumps(data))
        check = check_goldens(DEFAULT_MODELS_DIR, path)
        assert not check.ok
        text = check.format()
        assert key in text
        assert "trace digest(s) drifted" in text
        assert "events:" in text
        assert "--update-golden" in text

    def test_missing_model_reported(self, tmp_path):
        path, _ = self._tmp_store(tmp_path)
        data = json.loads(path.read_text())
        data["entries"]["ghost_psdf.xml+ghost_psm.xml"] = next(
            iter(data["entries"].values())
        )
        path.write_text(json.dumps(data))
        check = check_goldens(DEFAULT_MODELS_DIR, path)
        assert not check.ok
        assert check.missing == ["ghost_psdf.xml+ghost_psm.xml"]

    def test_unpinned_pair_reported(self, tmp_path):
        path, _ = self._tmp_store(tmp_path)
        data = json.loads(path.read_text())
        dropped = sorted(data["entries"])[0]
        del data["entries"][dropped]
        path.write_text(json.dumps(data))
        check = check_goldens(DEFAULT_MODELS_DIR, path)
        assert not check.ok
        assert check.unpinned == [dropped]

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(SegBusError, match="unsupported version"):
            load_store(path)

    def test_write_store_is_sorted_and_stable(self, tmp_path):
        path, entries = self._tmp_store(tmp_path)
        first = path.read_text()
        write_store(entries, path)
        assert path.read_text() == first


class TestWorkloadGoldens:
    def test_committed_workload_store_matches_reality(self):
        from repro.testing.golden import (
            DEFAULT_WORKLOAD_STORE,
            check_workload_goldens,
        )

        check = check_workload_goldens(DEFAULT_WORKLOAD_STORE)
        assert check.ok, check.format()
        # two scenarios x two engines
        assert check.checked == 4

    def test_committed_store_pins_the_required_scenarios(self):
        from repro.testing.golden import (
            DEFAULT_WORKLOAD_STORE,
            WORKLOAD_GOLDEN_NAMES,
            load_store,
        )

        entries = load_store(DEFAULT_WORKLOAD_STORE)
        assert set(entries) == set(WORKLOAD_GOLDEN_NAMES)
        assert "mp3_jpeg_multimode" in entries
        for entry in entries.values():
            assert len(entry.trace_digest) == 64
            assert entry.events > 0
            assert entry.execution_time_ps > 0

    def test_update_then_check_clean(self, tmp_path):
        from repro.testing.golden import (
            check_workload_goldens,
            update_workload_goldens,
        )

        path = tmp_path / "workloads.json"
        entries = update_workload_goldens(path)
        assert set(entries) == {
            "adversarial_hot_segment",
            "mp3_jpeg_multimode",
        }
        assert check_workload_goldens(path).ok

    def test_tampered_digest_reports_drift(self, tmp_path):
        from repro.testing.golden import (
            check_workload_goldens,
            update_workload_goldens,
        )

        path = tmp_path / "workloads.json"
        update_workload_goldens(path)
        data = json.loads(path.read_text())
        data["entries"]["mp3_jpeg_multimode"]["trace_digest"] = "f" * 64
        path.write_text(json.dumps(data))
        check = check_workload_goldens(path)
        assert not check.ok
        assert "mp3_jpeg_multimode" in check.format()

    def test_multimode_entry_pins_composed_digests(self):
        from repro.apps.workloads import workload_model
        from repro.emulator.multimode import run_multimode
        from repro.testing.golden import measure_workload

        entry = measure_workload("mp3_jpeg_multimode")
        scenario = workload_model("mp3_jpeg_multimode")
        composed = run_multimode(scenario.application, scenario.platform)
        assert entry.trace_digest == composed.trace_digest()
        assert entry.events == composed.total_events
        assert entry.execution_time_ps == composed.execution_time_ps
