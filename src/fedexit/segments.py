"""Layout of a flat parameter vector into backbone blocks and exit heads.

Exit ``e`` owns the union of backbone blocks 1..e plus its own head, so the
backbone parts of the active sets are nested: anything exit ``e`` touches in
the backbone, exit ``e+1`` touches too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SegmentMap:
    """Half-open index ranges for each backbone block and each head."""

    blocks: tuple[tuple[int, int], ...]
    heads: tuple[tuple[int, int], ...]
    dim: int

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.heads):
            raise ValueError("need one head range per block")
        spans = sorted(self.blocks + self.heads)
        cursor = 0
        for start, stop in spans:
            if start != cursor or stop < start:
                raise ValueError("segments must be disjoint and cover 0..dim")
            cursor = stop
        if cursor != self.dim:
            raise ValueError("segments must cover the full vector")

    @property
    def num_exits(self) -> int:
        return len(self.blocks)

    @cached_property
    def _active_cache(self) -> dict[int, np.ndarray]:
        return {}

    def active_indices(self, exit: int) -> np.ndarray:
        """Sorted indices of the coordinates exit ``exit`` trains."""
        if not 1 <= exit <= self.num_exits:
            raise ValueError(f"exit {exit} outside 1..{self.num_exits}")
        cached = self._active_cache.get(exit)
        if cached is None:
            ranges = list(self.blocks[:exit]) + [self.heads[exit - 1]]
            pieces = [np.arange(start, stop) for start, stop in ranges]
            cached = np.sort(np.concatenate(pieces)) if pieces else np.arange(0)
            self._active_cache[exit] = cached
        return cached

    def active_mask(self, exit: int) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        mask[self.active_indices(exit)] = True
        return mask

