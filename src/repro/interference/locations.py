"""Location abstractions used by the interference analysis.

Section 5.1 abstracts a memory location as a pair ``(name, kind)`` where
``name`` is a variable name and ``kind`` is one of ``var`` (the variable
itself), ``left``, ``right`` or ``value`` (a field of the node the variable
names).

Section 5.3 refines this for statement *sequences* into a **relative
location** ``(name, kind, access_path)``: the location is reached from the
live-in handle ``name`` by following ``access_path`` (a set of path
expressions) and then selecting the field ``kind``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from ..sil.ast import Field
from ..analysis.paths import Path, format_path
from ..analysis.pathset import PathSet


class LocationKind(enum.Enum):
    """What part of a variable / node a location denotes."""

    VAR = "var"
    LEFT = "left"
    RIGHT = "right"
    VALUE = "value"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @staticmethod
    def of_field(field: Field) -> "LocationKind":
        return {
            Field.LEFT: LocationKind.LEFT,
            Field.RIGHT: LocationKind.RIGHT,
            Field.VALUE: LocationKind.VALUE,
        }[field]


@dataclass(frozen=True)
class Location:
    """The Section 5.1 location abstraction: ``(name, kind)``."""

    name: str
    kind: LocationKind

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.name},{self.kind.value})"


def var_location(name: str) -> Location:
    return Location(name, LocationKind.VAR)


def field_location(name: str, field: Field) -> Location:
    return Location(name, LocationKind.of_field(field))


@dataclass(frozen=True)
class RelativeLocation:
    """The Section 5.3 relative location: ``(name, kind, access_path)``.

    ``access_path`` is a frozen set of :class:`~repro.analysis.paths.Path`
    describing how the accessed node is reached from the handle ``name``
    (``S`` when the handle itself names the node).  For ``var`` locations
    the access path is always ``{S}``.
    """

    name: str
    kind: LocationKind
    access_path: FrozenSet[Path]

    def __str__(self) -> str:  # pragma: no cover - trivial
        paths = ", ".join(sorted(format_path(p) for p in self.access_path)) or "S"
        return f"({self.name},{self.kind.value},{{{paths}}})"

    @property
    def path_set(self) -> PathSet:
        return PathSet(self.access_path)


def relative_var_location(name: str) -> RelativeLocation:
    """A relative location for the variable ``name`` itself."""
    return RelativeLocation(name, LocationKind.VAR, frozenset({Path((), True)}))


def relative_field_location(name: str, field: Field, paths: PathSet) -> RelativeLocation:
    """A relative location for a field reached from ``name`` via ``paths``."""
    return RelativeLocation(name, LocationKind.of_field(field), frozenset(paths))
