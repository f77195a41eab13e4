"""Vertex partitions with dense, first-appearance community ids."""

from __future__ import annotations

from typing import Iterable, Sequence

from .frozen import Frozen

__all__ = ["Partition"]


class Partition(Frozen, fields=("assignment", "communities"), compare=("assignment",)):
    """Assignment of every vertex to exactly one community.

    Community ids are always normalized to 0..q-1 in order of first
    appearance along the vertex index, so two relabelings of the same
    grouping compare equal and all iteration over communities is
    deterministic. ``communities`` lists the members of each id.
    """

    assignment: tuple[int, ...]
    communities: tuple[tuple[int, ...], ...]

    def __init__(self, assignment: Iterable[int]):
        remap: dict[int, int] = {}
        normalized = []
        for c in assignment:
            if c not in remap:
                remap[c] = len(remap)
            normalized.append(remap[c])
        members: list[list[int]] = [[] for _ in range(len(remap))]
        for v, c in enumerate(normalized):
            members[c].append(v)
        object.__setattr__(self, "assignment", tuple(normalized))
        object.__setattr__(self, "communities", tuple(tuple(m) for m in members))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @property
    def n_communities(self) -> int:
        return len(self.communities)

    def merge(self, r: int, s: int) -> "Partition":
        """Partition with communities r and s merged (ids renormalized)."""
        target = min(r, s)
        other = max(r, s)
        return Partition(
            tuple(target if c == other else c for c in self.assignment)
        )

    def compose(self, coarser: Sequence[int]) -> "Partition":
        """Refine through one aggregation level.

        ``coarser`` assigns each of this partition's communities to a
        higher-level community; the result maps original vertices directly
        to the higher-level communities.
        """
        if len(coarser) != self.n_communities:
            raise ValueError(
                f"coarser partition has {len(coarser)} entries for "
                f"{self.n_communities} communities"
            )
        return Partition(tuple(coarser[c] for c in self.assignment))
