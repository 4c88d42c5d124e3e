"""Campaign runner and export tests."""

import csv
import io
import json

import pytest

from repro.analysis.campaign import COLUMNS, Campaign, Variant, _run_variant
from repro.apps.mp3 import paper_platform
from repro.emulator import emulator as emulator_module
from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import SegBusEmulator
from repro.emulator.fastkernel import ENGINE_ENV_VAR, resolve_engine
from repro.errors import SegBusError


@pytest.fixture(scope="module")
def campaign(mp3_graph):
    c = Campaign("demo")
    c.add("3seg_s36", mp3_graph, paper_platform(3))
    c.add("3seg_s18", mp3_graph, paper_platform(3, package_size=18))
    c.add(
        "3seg_ref",
        mp3_graph,
        paper_platform(3),
        config=EmulationConfig.reference(),
    )
    return c


class TestRun:
    def test_one_result_per_variant(self, campaign):
        results = campaign.run()
        assert [r.name for r in results] == ["3seg_s36", "3seg_s18", "3seg_ref"]

    def test_results_cached(self, campaign):
        assert campaign.run() == campaign.run()

    def test_known_relationships(self, campaign):
        by_name = {r.name: r for r in campaign.run()}
        assert by_name["3seg_s18"].execution_time_us > \
            by_name["3seg_s36"].execution_time_us
        assert by_name["3seg_ref"].execution_time_us > \
            by_name["3seg_s36"].execution_time_us
        assert by_name["3seg_s18"].inter_segment_packages == \
            2 * by_name["3seg_s36"].inter_segment_packages

    def test_best(self, campaign):
        assert campaign.best().name == "3seg_s36"
        assert campaign.best("total_events").name in campaign.variant_names

    def test_best_rejects_unknown_key(self, campaign):
        with pytest.raises(SegBusError):
            campaign.best("prettiness")

    def test_empty_campaign_rejected(self):
        with pytest.raises(SegBusError):
            Campaign("empty").run()

    def test_duplicate_variant_rejected(self, mp3_graph):
        c = Campaign("dup")
        c.add("x", mp3_graph, paper_platform(3))
        with pytest.raises(SegBusError):
            c.add("x", mp3_graph, paper_platform(3))

    def test_add_grid(self, mp3_graph):
        c = Campaign("grid")
        c.add_grid(
            mp3_graph,
            platform_factory=lambda s: paper_platform(3, package_size=s),
            package_sizes=[18, 36],
        )
        assert c.variant_names == ["s18", "s36"]

    def test_runner_honours_engine_and_routed_spec(self, mp3_graph, monkeypatch):
        # the campaign runner takes every variant the other runners take
        engines = []
        real = emulator_module.make_simulation

        def recording(*args, engine=None, **kwargs):
            engines.append(resolve_engine(engine))
            return real(*args, engine=engine, **kwargs)

        monkeypatch.setattr(emulator_module, "make_simulation", recording)
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        routed = SegBusEmulator.from_models(mp3_graph, paper_platform(3))
        row = _run_variant(Variant("v", mp3_graph, paper_platform(3)))
        on_spec = _run_variant(
            Variant("v", routed.application, routed.spec, engine="stepped")
        )
        assert on_spec == row
        assert engines == ["fast", "stepped"]


class TestExports:
    def test_csv(self, campaign, tmp_path):
        target = tmp_path / "out.csv"
        text = campaign.to_csv(target)
        assert target.read_text() == text
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert set(rows[0]) == set(COLUMNS)
        assert float(rows[0]["execution_time_us"]) > 0

    def test_markdown(self, campaign):
        table = campaign.to_markdown()
        lines = table.splitlines()
        assert lines[0].startswith("| name |")
        assert len(lines) == 2 + 3  # header + rule + rows

    def test_json(self, campaign, tmp_path):
        target = tmp_path / "out.json"
        payload = json.loads(campaign.to_json(target))
        assert payload["campaign"] == "demo"
        assert len(payload["results"]) == 3
        assert json.loads(target.read_text()) == payload


class TestSweepPaths:
    def test_add_invalidates_cached_results(self, mp3_graph):
        c = Campaign("inval")
        c.add("a", mp3_graph, paper_platform(3))
        first = c.run()
        c.add("b", mp3_graph, paper_platform(2))
        second = c.run()
        assert [r.name for r in first] == ["a"]
        assert [r.name for r in second] == ["a", "b"]

    def test_add_grid_custom_label(self, mp3_graph):
        c = Campaign("labels")
        c.add_grid(
            mp3_graph,
            platform_factory=lambda s: paper_platform(3, package_size=s),
            package_sizes=[36],
            label="pkg",
        )
        assert c.variant_names == ["pkg36"]

    def test_fault_variant_rides_along(self, mp3_graph):
        from repro.faults.model import KIND_BU_DROP, FaultPlan, FaultRecord

        c = Campaign("faulty")
        c.add("clean", mp3_graph, paper_platform(3))
        c.add(
            "faulted",
            mp3_graph,
            paper_platform(3),
            fault_plan=FaultPlan(
                seed=3,
                records=(
                    FaultRecord(site="bu:1:2", kind=KIND_BU_DROP, rate=0.02),
                ),
            ),
        )
        by_name = {r.name: r for r in c.run()}
        assert by_name["faulted"].execution_time_us >= \
            by_name["clean"].execution_time_us

    def test_segment_sweep_prefers_parallelism(self, mp3_graph):
        c = Campaign("segments")
        for n in (1, 2, 3):
            c.add(f"{n}seg", mp3_graph, paper_platform(n))
        best = c.best()
        assert best.name in {"2seg", "3seg"}
        markdown = c.to_markdown()
        assert markdown.count("\n") == 1 + 3  # header+rule+3 rows

    def test_to_json_without_path(self, campaign):
        payload = json.loads(campaign.to_json())
        assert len(payload["results"]) == 3
