"""PSDF processes: the nodes of the application graph.

The DSL adds three stereotypes for PSDF modeling (paper section 2.2):
``InitialNode``, ``ProcessNode`` and ``FinalNode``.  ``ProcessKind`` mirrors
those stereotypes; the graph validator checks that the declared kind matches
the node's connectivity (initial nodes have no producers, final nodes have no
consumers).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional

from repro.errors import PSDFError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class ProcessKind(enum.Enum):
    """UML-profile stereotype of a PSDF node (section 2.2)."""

    INITIAL = "InitialNode"
    PROCESS = "ProcessNode"
    FINAL = "FinalNode"


@dataclass(frozen=True)
class Process:
    """A PSDF process.

    ``name`` is the identifier used in the communication matrix, the XML
    schemes and the PSM mapping (``P0``, ``P1``, ...).  ``description``
    carries the functional role (e.g. *frame decoding* for the MP3 decoder's
    P0) and has no semantic effect.
    """

    name: str
    kind: ProcessKind = ProcessKind.PROCESS
    description: Optional[str] = None

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise PSDFError(
                f"invalid process name {self.name!r}: must start with a letter "
                "and contain only letters and digits (names are embedded in "
                "underscore-separated XML element names)"
            )

    @property
    def stereotype(self) -> str:
        """The UML stereotype string applied in the DSL profile."""
        return self.kind.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
