"""Feature layouts: named column blocks over a frames-by-dimensions matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureLayout:
    """Ordered (name, width) column blocks.  Widths are positive, names unique."""

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in layout: {names}")
        for name, width in self.blocks:
            if width <= 0:
                raise ValueError(f"block {name!r} has non-positive width {width}")

    @property
    def width(self) -> int:
        return sum(width for _, width in self.blocks)

    @property
    def block_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    def block_slice(self, name: str) -> slice:
        start = 0
        for block_name, width in self.blocks:
            if block_name == name:
                return slice(start, start + width)
            start += width
        raise KeyError(f"no block named {name!r} in layout {self.block_names}")

    def column_names(self) -> list[str]:
        cols = []
        for name, width in self.blocks:
            cols.extend(f"{name}[{i}]" for i in range(width))
        return cols


@dataclass
class FeatureMatrix:
    """A (frames, width) float matrix with a named-block column layout."""

    values: np.ndarray
    layout: FeatureLayout

    def __post_init__(self):
        # C order, so reductions over frames (the scaler's std) do not
        # depend on how the values were sliced.
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature values must be a 2-D array")
        if self.values.shape[1] != self.layout.width:
            raise ValueError(
                f"matrix width {self.values.shape[1]} does not match "
                f"layout width {self.layout.width}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")

    @property
    def frame_count(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def block(self, name: str) -> np.ndarray:
        return self.values[:, self.layout.block_slice(name)]

    def select(self, names: list[str] | tuple[str, ...]) -> FeatureMatrix:
        """The named blocks, in the order given; KeyError for a missing one."""
        slices = [self.layout.block_slice(name) for name in names]
        columns = np.concatenate([np.arange(s.start, s.stop) for s in slices])
        layout = FeatureLayout(tuple((name, s.stop - s.start)
                                     for name, s in zip(names, slices)))
        return FeatureMatrix(values=self.values[:, columns], layout=layout)

