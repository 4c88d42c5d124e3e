"""A minimal VHDL document model and emitter.

Just enough structure to generate clean, deterministic arbiter sources:
entities with typed ports and generics, architectures made of declaration
and statement blocks, and constant packages.  The emitter produces
consistently indented text; structural well-formedness (balanced
entity/architecture/process blocks, legal identifiers) is enforced at
construction so generation bugs fail fast in Python rather than at
synthesis time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List

from repro.errors import SegBusError

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

#: VHDL-93 reserved words that may not be used as identifiers.
RESERVED = frozenset(
    """abs access after alias all and architecture array assert attribute
    begin block body buffer bus case component configuration constant
    disconnect downto else elsif end entity exit file for function generate
    generic group guarded if impure in inertial inout is label library
    linkage literal loop map mod nand new next nor not null of on open or
    others out package port postponed procedure process pure range record
    register reject rem report return rol ror select severity signal shared
    sla sll sra srl subtype then to transport type unaffected units until
    use variable wait when while with xnor xor""".split()
)


def check_identifier(name: str) -> str:
    """Validate a VHDL identifier; returns it for chaining."""
    if not _IDENT_RE.fullmatch(name):
        raise SegBusError(f"invalid VHDL identifier {name!r}")
    if name.lower() in RESERVED:
        raise SegBusError(f"{name!r} is a reserved VHDL word")
    return name


@dataclass(frozen=True)
class Port:
    """One entity port: ``name : direction type``."""

    name: str
    direction: str
    type: str

    def __post_init__(self) -> None:
        check_identifier(self.name)
        if self.direction not in ("in", "out", "inout"):
            raise SegBusError(
                f"port {self.name!r}: direction must be in/out/inout, "
                f"got {self.direction!r}"
            )

    def render(self) -> str:
        return f"{self.name} : {self.direction} {self.type}"


@dataclass(frozen=True)
class Generic:
    """One entity generic: ``name : type := default``."""

    name: str
    type: str
    default: str

    def __post_init__(self) -> None:
        check_identifier(self.name)

    def render(self) -> str:
        return f"{self.name} : {self.type} := {self.default}"


@dataclass
class Entity:
    """An entity plus one architecture (the generator's unit of output)."""

    name: str
    generics: List[Generic] = field(default_factory=list)
    ports: List[Port] = field(default_factory=list)
    declarations: List[str] = field(default_factory=list)
    statements: List[str] = field(default_factory=list)
    architecture: str = "rtl"
    comment: str = ""

    def __post_init__(self) -> None:
        check_identifier(self.name)
        check_identifier(self.architecture)

    def add_port(self, name: str, direction: str, type_: str) -> "Entity":
        self.ports.append(Port(name, direction, type_))
        return self

    def add_generic(self, name: str, type_: str, default: str) -> "Entity":
        self.generics.append(Generic(name, type_, default))
        return self

    def render(self) -> str:
        lines: List[str] = []
        if self.comment:
            for row in self.comment.splitlines():
                lines.append(f"-- {row}")
        lines.append("library ieee;")
        lines.append("use ieee.std_logic_1164.all;")
        lines.append("use ieee.numeric_std.all;")
        lines.append("")
        lines.append(f"entity {self.name} is")
        if self.generics:
            lines.append("  generic (")
            body = ";\n".join(f"    {g.render()}" for g in self.generics)
            lines.append(body)
            lines.append("  );")
        if self.ports:
            lines.append("  port (")
            body = ";\n".join(f"    {p.render()}" for p in self.ports)
            lines.append(body)
            lines.append("  );")
        lines.append(f"end entity {self.name};")
        lines.append("")
        lines.append(f"architecture {self.architecture} of {self.name} is")
        for decl in self.declarations:
            lines.extend(f"  {row}" for row in decl.splitlines())
        lines.append("begin")
        for stmt in self.statements:
            lines.extend(f"  {row}" for row in stmt.splitlines())
        lines.append(f"end architecture {self.architecture};")
        return "\n".join(lines) + "\n"


@dataclass
class ConstantPackage:
    """A VHDL package of constants (the schedule ROM container)."""

    name: str
    constants: List[str] = field(default_factory=list)
    types: List[str] = field(default_factory=list)
    comment: str = ""

    def __post_init__(self) -> None:
        check_identifier(self.name)

    def render(self) -> str:
        lines: List[str] = []
        if self.comment:
            for row in self.comment.splitlines():
                lines.append(f"-- {row}")
        lines.append("library ieee;")
        lines.append("use ieee.std_logic_1164.all;")
        lines.append("use ieee.numeric_std.all;")
        lines.append("")
        lines.append(f"package {self.name} is")
        for type_decl in self.types:
            lines.extend(f"  {row}" for row in type_decl.splitlines())
        for constant in self.constants:
            lines.extend(f"  {row}" for row in constant.splitlines())
        lines.append(f"end package {self.name};")
        return "\n".join(lines) + "\n"


def std_logic_vector(width: int) -> str:
    """``std_logic_vector(width-1 downto 0)`` with a width sanity check."""
    if width < 1:
        raise SegBusError(f"vector width must be >= 1, got {width}")
    return f"std_logic_vector({width - 1} downto 0)"


def bits_for(count: int) -> int:
    """Bits needed to encode ``count`` distinct values (min 1)."""
    if count < 1:
        raise SegBusError(f"count must be >= 1, got {count}")
    return max(1, (count - 1).bit_length())
