"""Unit tests for exact time/frequency arithmetic."""

import math

import pytest

from repro.errors import FrequencyError, SegBusError
from repro.units import (
    FS_PER_PS,
    FS_PER_SECOND,
    Frequency,
    fs_to_ps,
    fs_to_us,
    period_fs_from_hz,
    ps_to_fs,
)


class TestPeriodFromHz:
    def test_91mhz_matches_paper_tick(self):
        # 1 / 91 MHz = 10989.011 ps — the paper prints P0's start as 10989 ps
        assert period_fs_from_hz(91e6) == 10_989_011

    def test_111mhz(self):
        assert period_fs_from_hz(111e6) == 9_009_009

    def test_one_hz(self):
        assert period_fs_from_hz(1.0) == FS_PER_SECOND

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            period_fs_from_hz(0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            period_fs_from_hz(-5e6)


class TestConversions:
    def test_fs_to_ps_truncates(self):
        assert fs_to_ps(10_989_011) == 10_989

    def test_fs_to_us(self):
        assert fs_to_us(10**9) == 1.0

    def test_ps_to_fs_roundtrip(self):
        assert fs_to_ps(ps_to_fs(123_456)) == 123_456


class TestFrequency:
    def test_from_mhz(self):
        assert Frequency.from_mhz(98).hz == 98e6

    def test_mhz_property(self):
        assert Frequency.from_mhz(89).mhz == pytest.approx(89.0)

    def test_period_fs(self):
        assert Frequency.from_mhz(91).period_fs == 10_989_011

    def test_period_ps(self):
        assert Frequency.from_mhz(91).period_ps == pytest.approx(10989.011)

    def test_ticks_to_fs(self):
        f = Frequency.from_mhz(100)
        assert f.ticks_to_fs(5) == 5 * 10_000_000

    def test_fs_to_ticks_ceil_exact(self):
        f = Frequency.from_mhz(100)
        assert f.fs_to_ticks_ceil(20_000_000) == 2

    def test_fs_to_ticks_ceil_rounds_up(self):
        f = Frequency.from_mhz(100)
        assert f.fs_to_ticks_ceil(20_000_001) == 3

    def test_next_edge_on_edge(self):
        f = Frequency.from_mhz(100)
        assert f.next_edge_fs(10_000_000) == 10_000_000

    def test_next_edge_between(self):
        f = Frequency.from_mhz(100)
        assert f.next_edge_fs(10_000_001) == 20_000_000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Frequency(0)

    def test_hashable(self):
        assert len({Frequency.from_mhz(91), Frequency.from_mhz(91)}) == 1


#: MHz values whose period is not a finite whole number of >= 1 fs
NO_PERIOD_MHZ = [math.nan, math.inf, -math.inf, 0, -5, 1e-300, 1e10]


class TestFrequenciesWithoutAPeriod:
    @pytest.mark.parametrize("mhz", NO_PERIOD_MHZ, ids=repr)
    def test_frequency_refuses(self, mhz):
        with pytest.raises(FrequencyError) as caught:
            Frequency.from_mhz(mhz)
        # a library error the CLI and the service report, and a ValueError
        assert isinstance(caught.value, SegBusError)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("mhz", NO_PERIOD_MHZ, ids=repr)
    def test_period_refuses(self, mhz):
        with pytest.raises(FrequencyError):
            period_fs_from_hz(mhz * 1e6)

    def test_one_fs_is_the_shortest_period(self):
        assert Frequency.from_mhz(1e9).period_fs == 1
