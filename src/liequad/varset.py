"""Ordered coordinate charts.

A :class:`VarSet` fixes the names and the ordering of the coordinate
variables of a chart.  The ordering is load-bearing: term ordering of
scalars, the variable peeling order of the potential operator and all
serialization are defined relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VarSet:
    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @staticmethod
    def of(*names: str) -> "VarSet":
        return VarSet(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in chart {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)


def coordinate_chart(n: int, prefix: str = "x") -> VarSet:
    """Chart x1..xn used for the synthesized group structures."""
    return VarSet(tuple(f"{prefix}{i}" for i in range(1, n + 1)))


def doubled_chart(n: int) -> VarSet:
    """Chart (x1..xn, y1..yn) of a product group."""
    return VarSet(
        tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"y{i}" for i in range(1, n + 1))
    )
