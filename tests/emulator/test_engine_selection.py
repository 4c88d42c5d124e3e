"""Engine selection: resolve_engine, make_simulation, facade caching, env var."""

import pytest

from repro.emulator.emulator import SegBusEmulator, emulate
from repro.emulator.fastkernel import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    FastSimulation,
    make_simulation,
    resolve_engine,
)
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.errors import SegBusError


class TestResolveEngine:
    def test_explicit_names_win(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        assert resolve_engine("stepped") == "stepped"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        assert resolve_engine(None) == "fast"

    def test_default_when_unset(self, monkeypatch):
        # users meet the fast engine; stepped stays the normative reference
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine() == DEFAULT_ENGINE == "fast"

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert resolve_engine() == DEFAULT_ENGINE

    def test_unknown_name_rejected(self):
        with pytest.raises(SegBusError, match="unknown emulation engine"):
            resolve_engine("warp")

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(SegBusError, match="turbo"):
            resolve_engine()

    def test_every_advertised_name_resolves(self):
        for name in ENGINE_NAMES:
            assert resolve_engine(name) == name


class TestSimulationClass:
    def test_stepped_maps_to_base_kernel(self, mp3_graph, platform_3seg):
        spec = PlatformSpec.from_platform(platform_3seg)
        sim = make_simulation(mp3_graph, spec, engine="stepped")
        assert type(sim) is Simulation

    def test_fast_maps_to_fastkernel(self, mp3_graph, platform_3seg):
        spec = PlatformSpec.from_platform(platform_3seg)
        sim = make_simulation(mp3_graph, spec, engine="fast")
        assert type(sim) is FastSimulation

    def test_fast_is_a_simulation(self):
        # drop-in subtype: everything accepting a Simulation accepts it
        assert issubclass(FastSimulation, Simulation)

    def test_make_simulation_constructs_unrun(self, mp3_graph, platform_3seg):
        spec = PlatformSpec.from_platform(platform_3seg)
        sim = make_simulation(mp3_graph, spec, engine="fast")
        assert isinstance(sim, FastSimulation)
        assert sim.queue.executed == 0


class TestFacadeEngineCaching:
    def test_reports_cached_per_engine(self, mp3_graph, platform_3seg):
        emulator = SegBusEmulator.from_models(mp3_graph, platform_3seg)
        stepped = emulator.run(engine="stepped")
        fast = emulator.run(engine="fast")
        assert emulator.run(engine="stepped") is stepped
        assert emulator.run(engine="fast") is fast
        assert stepped is not fast

    def test_engines_agree_through_facade(self, mp3_graph, platform_3seg):
        emulator = SegBusEmulator.from_models(mp3_graph, platform_3seg)
        stepped = emulator.run(engine="stepped")
        fast = emulator.run(engine="fast")
        assert stepped.digest() == fast.digest()

    def test_simulation_property_follows_env(
        self, mp3_graph, platform_3seg, monkeypatch
    ):
        monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
        emulator = SegBusEmulator.from_models(mp3_graph, platform_3seg)
        assert isinstance(emulator.simulation, FastSimulation)

    def test_emulate_one_shot_engine(self, mp3_graph, platform_1seg):
        stepped = emulate(mp3_graph, platform_1seg, engine="stepped")
        fast = emulate(mp3_graph, platform_1seg, engine="fast")
        assert stepped.execution_time_fs == fast.execution_time_fs

    def test_emulate_rejects_unknown_engine(self, mp3_graph, platform_1seg):
        with pytest.raises(SegBusError, match="known engines"):
            emulate(mp3_graph, platform_1seg, engine="cycle-accurate")
