"""Parameter sweep and design-space exploration tests."""

import hashlib
import json

import pytest

from repro.analysis.dse import explore_design_space
from repro.analysis.reliability import reliability_sweep
from repro.analysis.sweep import package_size_sweep, segment_count_sweep
from repro.apps.mp3 import (
    PAPER_CA_FREQUENCY_MHZ,
    paper_allocation,
    paper_platform,
    paper_segment_frequencies_mhz,
)


class TestPackageSizeSweep:
    @pytest.fixture(scope="class")
    def points(self, mp3_graph):
        return package_size_sweep(
            mp3_graph,
            platform_factory=lambda s: paper_platform(3, package_size=s),
            package_sizes=[18, 36],
        )

    def test_one_point_per_size(self, points):
        assert [p.parameter for p in points] == [18, 36]

    def test_smaller_packages_slower(self, points):
        # the paper's experiment: s=18 -> 560 us vs s=36 -> 490 us
        by_size = {p.parameter: p for p in points}
        assert by_size[18].estimated_us > by_size[36].estimated_us

    def test_smaller_packages_less_accurate(self, points):
        # "the higher the data package, the less impact of these figures"
        by_size = {p.parameter: p for p in points}
        assert by_size[18].accuracy < by_size[36].accuracy

    def test_estimates_below_actuals(self, points):
        for point in points:
            assert point.estimated_us < point.actual_us


class TestSegmentCountSweep:
    def test_runs_paper_configurations(self, mp3_graph):
        points = segment_count_sweep(
            mp3_graph,
            allocations=[paper_allocation(n) for n in (1, 2, 3)],
            segment_frequencies_mhz=paper_segment_frequencies_mhz,
            ca_frequency_mhz=PAPER_CA_FREQUENCY_MHZ,
            package_size=36,
        )
        assert [p.parameter for p in points] == [1, 2, 3]
        for point in points:
            assert point.estimated_us > 0
            assert point.estimated_us < point.actual_us


class TestDSE:
    def test_explore_returns_sorted_points(self, mp3_graph):
        points = explore_design_space(
            mp3_graph,
            segment_counts=[2],
            package_sizes=[36, 72],
            segment_frequencies_mhz=paper_segment_frequencies_mhz,
            ca_frequency_mhz=PAPER_CA_FREQUENCY_MHZ,
            extra_allocations=[("paper", paper_allocation(2))],
        )
        # placetool(2) x 2 sizes + paper x 2 sizes
        assert len(points) == 4
        times = [p.execution_time_us for p in points]
        assert times == sorted(times)

    def test_points_labelled_by_source(self, mp3_graph):
        points = explore_design_space(
            mp3_graph,
            segment_counts=[2],
            package_sizes=[36],
            segment_frequencies_mhz=paper_segment_frequencies_mhz,
            ca_frequency_mhz=PAPER_CA_FREQUENCY_MHZ,
        )
        assert all("placetool" in p.allocation_source for p in points)


class TestDSEPin:
    """perfbench's sweep grid ranks exactly as before on both engines:
    same PlaceTool allocations, same emulated times, same order."""

    #: sha256 over ``[source, segments, package size, time_fs]`` per point,
    #: the rule of ``perfbench/sweep_worker.py``'s ``dse_checksum``
    CHECKSUM = "bf76dc8846a4e0aabc9e87d630e608b72e452b982a0073e1f2c3b37fd696afab"

    @pytest.mark.parametrize("engine", ["stepped", "fast"])
    def test_perfbench_grid_checksum(self, mp3_graph, engine, monkeypatch):
        monkeypatch.setenv("SEGBUS_ENGINE", engine)
        points = explore_design_space(
            mp3_graph, (2, 3), (3, 4, 6),
            paper_segment_frequencies_mhz, PAPER_CA_FREQUENCY_MHZ,
            extra_allocations=[(f"paper{n}", paper_allocation(n)) for n in (2, 3)],
            workers=1,
        )
        ranking = [
            [p.allocation_source, p.segment_count, p.package_size,
             p.report.execution_time_fs]
            for p in points
        ]
        digest = hashlib.sha256(json.dumps(ranking).encode()).hexdigest()
        assert digest == self.CHECKSUM


class TestFaultsPin:
    """perfbench's fault curves are exactly as before on both engines and
    through the worker pool: same baseline, same points, same injections."""

    #: sha256 of ``json.dumps(curve.as_dict(), sort_keys=True)`` per plan
    #: seed, the rule of ``perfbench/sweep_worker.py``'s ``curve_checksum``
    CHECKSUMS = {
        1: "6f1aa39afdc7015926268c7396750a85d32af30c4d136552db231a87010551d9",
        7: "2c039b3a9b5098ccc622b87ea0c4eb6e72e688ad30703d35e23c277a72e505ab",
    }
    #: faults injected over the runs that reported (``sweep_worker.injected``)
    INJECTED = {1: 18, 7: 10}

    def sweep(self, mp3_graph, seed, engine, workers=1):
        return reliability_sweep(
            mp3_graph,
            paper_platform(2, package_size=8),
            rates=(0.0, 0.0001, 0.0002, 0.0005),
            seeds=range(seed * 1000 + 1, seed * 1000 + 13),
            workers=workers,
            engine=engine,
        )

    def check(self, curve, seed):
        digest = hashlib.sha256(
            json.dumps(curve.as_dict(), sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.CHECKSUMS[seed]
        injected = sum(
            round(p.mean_injected * (p.completed + p.degraded))
            for p in curve.points
        )
        assert injected == self.INJECTED[seed]

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("engine", ["stepped", "fast"])
    def test_perfbench_curve_checksum(self, mp3_graph, engine, seed):
        self.check(self.sweep(mp3_graph, seed, engine), seed)

    def test_worker_pool_curve_checksum(self, mp3_graph):
        # the simulated points' jobs are pickled to two worker processes
        self.check(self.sweep(mp3_graph, 1, "fast", workers=2), 1)


class TestEstimatorPrune:
    def explore(self, mp3_graph, **kwargs):
        return explore_design_space(
            mp3_graph,
            segment_counts=[2],
            package_sizes=[36, 72],
            segment_frequencies_mhz=paper_segment_frequencies_mhz,
            ca_frequency_mhz=PAPER_CA_FREQUENCY_MHZ,
            extra_allocations=[("paper", paper_allocation(2))],
            **kwargs,
        )

    def test_prune_narrows_the_grid(self, mp3_graph):
        full = self.explore(mp3_graph)
        pruned = self.explore(mp3_graph, estimator_prune=2)
        assert len(full) == 4
        assert len(pruned) == 2
        # the pre-estimate rides along on every surviving point
        assert all(p.estimated_us is not None and p.estimated_us > 0
                   for p in pruned)
        assert all(p.estimated_us is None for p in full)

    def test_prune_preserves_the_winner(self, mp3_graph):
        # the estimator ranks well enough that the emulated optimum
        # survives a half-width cut — the whole point of the inner loop
        full = self.explore(mp3_graph)
        pruned = self.explore(mp3_graph, estimator_prune=2)
        assert pruned[0].execution_time_us == full[0].execution_time_us
        assert pruned[0].package_size == full[0].package_size

    def test_prune_wider_than_grid_keeps_everything(self, mp3_graph):
        pruned = self.explore(mp3_graph, estimator_prune=100)
        assert len(pruned) == 4

    def test_prune_must_be_positive(self, mp3_graph):
        with pytest.raises(ValueError, match="estimator_prune"):
            self.explore(mp3_graph, estimator_prune=0)
