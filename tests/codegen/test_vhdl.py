"""VHDL document model and emitter tests."""

import pytest

from repro.codegen.vhdl import (
    ConstantPackage,
    Entity,
    Generic,
    Port,
    bits_for,
    check_identifier,
    std_logic_vector,
)
from repro.errors import SegBusError


class TestIdentifiers:
    @pytest.mark.parametrize("good", ["clk", "sa1_arbiter", "G_SEGMENTS", "a1"])
    def test_accepts_legal(self, good):
        assert check_identifier(good) == good

    @pytest.mark.parametrize("bad", ["1clk", "a-b", "", "a b", "_x", "seg1\n"])
    def test_rejects_illegal(self, bad):
        with pytest.raises(SegBusError):
            check_identifier(bad)

    @pytest.mark.parametrize("word", ["signal", "entity", "PROCESS", "Begin"])
    def test_rejects_reserved_words(self, word):
        with pytest.raises(SegBusError, match="reserved"):
            check_identifier(word)


class TestHelpers:
    def test_std_logic_vector(self):
        assert std_logic_vector(8) == "std_logic_vector(7 downto 0)"

    def test_std_logic_vector_rejects_zero(self):
        with pytest.raises(SegBusError):
            std_logic_vector(0)

    @pytest.mark.parametrize(
        "count,bits", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (16, 4), (17, 5)]
    )
    def test_bits_for(self, count, bits):
        assert bits_for(count) == bits


class TestPort:
    def test_render(self):
        assert Port("clk", "in", "std_logic").render() == "clk : in std_logic"

    def test_rejects_bad_direction(self):
        with pytest.raises(SegBusError):
            Port("clk", "input", "std_logic")


class TestEntityRender:
    def entity(self):
        e = Entity("demo_block", comment="a demo")
        e.add_generic("G_WIDTH", "natural", "8")
        e.add_port("clk", "in", "std_logic")
        e.add_port("q", "out", "std_logic")
        e.declarations.append("signal r : std_logic;")
        e.statements.append("q <= r;")
        return e

    def test_structure(self):
        text = self.entity().render()
        assert text.index("entity demo_block is") < text.index(
            "end entity demo_block;"
        )
        assert text.index("architecture rtl of demo_block is") < text.index(
            "end architecture rtl;"
        )
        assert "G_WIDTH : natural := 8" in text
        assert "clk : in std_logic" in text
        assert "-- a demo" in text

    def test_balanced_blocks(self):
        text = self.entity().render()
        assert text.count("entity demo_block") == 2  # open + end
        assert text.count("architecture rtl") == 2

    def test_library_clauses_first(self):
        lines = self.entity().render().splitlines()
        non_comment = [l for l in lines if l and not l.startswith("--")]
        assert non_comment[0] == "library ieee;"

    def test_deterministic(self):
        assert self.entity().render() == self.entity().render()


class TestConstantPackage:
    def test_render(self):
        pkg = ConstantPackage("demo_pkg")
        pkg.types.append("type t is record a : natural; end record;")
        pkg.constants.append("constant C_N : natural := 3;")
        text = pkg.render()
        assert "package demo_pkg is" in text
        assert "end package demo_pkg;" in text
        assert "constant C_N : natural := 3;" in text
