"""Half-open boxes, partitions of a hull box, and grids."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

MAX_GRID_POINTS = 100_000_000


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box: lower[j] <= x[j] < upper[j] on every axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if not lo or len(lo) != len(up):
            raise ValueError("box needs matching, nonempty lower and upper tuples")
        for j, (l, u) in enumerate(zip(lo, up)):
            if not (math.isfinite(l) and math.isfinite(u)):
                raise ValueError(f"box axis {j}: bounds must be finite, got [{l}, {u})")
            if not l < u:
                raise ValueError(f"box axis {j}: need lower < upper, got [{l}, {u})")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.upper, self.lower)))

    def contains(self, x: Sequence[float]) -> bool:
        """Half-open membership test."""
        self._check_dim(x)
        return all(l <= v < u for l, v, u in zip(self.lower, x, self.upper))

    def closure_contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        """Membership in the closed box, optionally padded by ``tol``."""
        self._check_dim(x)
        return all(l - tol <= v <= u + tol for l, v, u in zip(self.lower, x, self.upper))

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (l + u) for l, u in zip(self.lower, self.upper))

    def corners(self) -> list[tuple[float, ...]]:
        """All 2^dim closed-box corners, lexicographic in (lower, upper) choice."""
        return [tuple(c) for c in itertools.product(*zip(self.lower, self.upper))]

    def _check_dim(self, x) -> None:
        if len(x) != self.dim:
            raise ValueError(f"point has {len(x)} coordinates, box has {self.dim}")


@dataclass(frozen=True)
class Partition:
    """Finitely many boxes of equal dimension, intended to tile a hull box."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ValueError("partition needs at least one box")
        dim = boxes[0].dim
        for i, b in enumerate(boxes):
            if b.dim != dim:
                raise ValueError(f"box {i} has dimension {b.dim}, expected {dim}")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def locate(self, x: Sequence[float]) -> int | None:
        """Index of the box whose half-open interior contains x, else None."""
        for i, b in enumerate(self.boxes):
            if b.contains(x):
                return i
        return None

    def locate_closure(self, x: Sequence[float], tol: float = 1e-12) -> int | None:
        """Half-open match first, then the first box whose closure contains x."""
        hit = self.locate(x)
        if hit is not None:
            return hit
        for i, b in enumerate(self.boxes):
            if b.closure_contains(x, tol):
                return i
        return None


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    disjoint: bool
    volume_match: bool
    covered: bool
    problems: tuple[str, ...]


def _axis_counts(dim: int, resolution, least: int = 2) -> list[int]:
    """The point counts of a grid of ``resolution``, one count or one per axis.

    A wrong number of axes, a count below ``least``, or more than
    ``MAX_GRID_POINTS`` points in all raises ValueError.
    """
    if isinstance(resolution, (int, np.integer)):
        counts = [int(resolution)] * dim
    else:
        counts = [int(r) for r in resolution]
        if len(counts) != dim:
            raise ValueError(f"resolution has {len(counts)} axes, box has {dim}")
    for r in counts:
        if r < least:
            raise ValueError(f"resolution must be >= {least} per axis, got {r}")
    total = math.prod(counts)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points exceeds limit {MAX_GRID_POINTS}")
    return counts


def grid_axes(box: Box, resolution) -> list[np.ndarray]:
    """Per-axis closed sample lines (both endpoints included)."""
    return [
        np.linspace(l, u, r)
        for l, u, r in zip(box.lower, box.upper, _axis_counts(box.dim, resolution))
    ]


def grid_array(box: Box, resolution) -> np.ndarray:
    """Tensor grid over the CLOSED box as an (N, dim) array, lexicographic order."""
    axes = grid_axes(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, box.dim)


def grid_points(box: Box, resolution) -> list[tuple[float, ...]]:
    """Like grid_array but as a list of coordinate tuples."""
    return [tuple(p) for p in grid_array(box, resolution)]


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def halton_points(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy points in [0,1)^dim (Halton sequence)."""
    out = np.empty((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        col = np.empty(count)
        for i in range(count):
            value = 0.0
            denom = 1.0
            k = i + 1
            while k:
                denom *= base
                k, digit = divmod(k, base)
                value += digit / denom
            col[i] = value
        out[:, j] = col
    return out


def validate_partition(partition: Partition, hull: Box) -> PartitionReport:
    """Check exactly that the partition tiles the hull.

    Each axis is cut at the sorted unique bounds of every box and of the
    hull.  The cuts split space into cells that each box covers whole or
    misses, so counting the boxes over every cell decides the question: a
    tiling covers each cell inside the hull exactly once and each cell
    outside it not at all (Bentley's coordinate compression for unions of
    boxes).  There is no sampling and no tolerance; faces meant to touch
    must be bit-equal floats, and a gap or overlap one ulp wide is found.

    Problems name overlapping box pairs, boxes that extend outside the hull,
    the volume deficit or excess (summed exactly), and the centres of up to
    three hull cells not covered exactly once.  A partition whose cell array
    would exceed ``MAX_GRID_POINTS`` cells is rejected without building it,
    and then none of ``disjoint``, ``volume_match`` or ``covered`` holds.
    """
    if partition.dim != hull.dim:
        raise ValueError(
            f"partition dimension {partition.dim} != hull dimension {hull.dim}"
        )
    boxes = partition.boxes
    lower, upper = np.array([b.lower for b in boxes]), np.array([b.upper for b in boxes])
    cuts = [
        np.unique(np.concatenate((lower[:, j], upper[:, j], (hull.lower[j], hull.upper[j]))))
        for j in range(hull.dim)
    ]
    shape = tuple(len(c) - 1 for c in cuts)
    cells = math.prod(shape)
    if cells > MAX_GRID_POINTS:
        message = f"checking the partition needs {cells} cells, over the limit {MAX_GRID_POINTS}"
        return PartitionReport(False, False, False, False, (message,))

    # +1 at each box's lower corner, alternating signs over its other
    # corners; prefix sums along every axis then give the per-cell counts.
    lo = [np.searchsorted(c, lower[:, j]) for j, c in enumerate(cuts)]
    hi = [np.searchsorted(c, upper[:, j]) for j, c in enumerate(cuts)]
    count = np.zeros(tuple(s + 1 for s in shape), dtype=np.min_scalar_type(-len(boxes) - 1))
    for corner in itertools.product((0, 1), repeat=hull.dim):
        index = tuple(h if c else l for c, l, h in zip(corner, lo, hi))
        np.add.at(count, index, -1 if sum(corner) % 2 else 1)
    for axis in range(hull.dim):
        np.cumsum(count, axis=axis, out=count)
    count = count[tuple(slice(0, s) for s in shape)]
    inside = tuple(
        slice(int(np.searchsorted(c, l)), int(np.searchsorted(c, u)))
        for c, l, u in zip(cuts, hull.lower, hull.upper)
    )
    problems: list[str] = []

    disjoint = bool(count.max() <= 1)
    if not disjoint:
        for i in range(len(boxes) - 1):
            meet = np.maximum(lower[i], lower[i + 1:]) < np.minimum(upper[i], upper[i + 1:])
            later = i + 1 + np.flatnonzero(np.all(meet, axis=1))
            problems.extend(f"boxes {i} and {j} overlap" for j in later)

    outside = np.flatnonzero(np.any((lower < hull.lower) | (upper > hull.upper), axis=1))
    problems.extend(f"box {i} extends outside the hull" for i in outside)

    hull_counts = count[inside]
    miscovered = np.flatnonzero(hull_counts != 1)
    covered = miscovered.size == 0

    tiling = disjoint and covered and outside.size == 0
    volume_match = tiling
    if not tiling:  # a tiling has the hull's volume; otherwise sum exactly
        total = sum(_exact_volume(b) for b in boxes)
        hull_volume = _exact_volume(hull)
        volume_match = total == hull_volume
        if not volume_match:
            word = "deficit" if total < hull_volume else "excess"
            problems.append(
                f"volume {word}: boxes sum to {float(total)!r}, "
                f"hull volume is {float(hull_volume)!r}"
            )

    for flat in miscovered[:3]:
        cell = [int(k) + s.start for k, s in zip(np.unravel_index(flat, hull_counts.shape), inside)]
        point = tuple(_cell_centre(c[k], c[k + 1]) for c, k in zip(cuts, cell))
        problems.append(f"hull point {point} lies in {hull_counts.flat[flat]} boxes")
    if miscovered.size > 3:
        problems.append(f"{miscovered.size} of {hull_counts.size} hull cells miscovered")

    return PartitionReport(
        ok=tiling,
        disjoint=disjoint,
        volume_match=volume_match,
        covered=covered,
        problems=tuple(problems),
    )


def _exact_volume(box: Box) -> Fraction:
    return math.prod(Fraction(u) - Fraction(l) for l, u in zip(box.lower, box.upper))


def _cell_centre(a: float, b: float) -> float:
    """Midpoint of [a, b), or a when the cell is too narrow for one."""
    mid = 0.5 * a + 0.5 * b
    return float(mid) if a <= mid < b else float(a)
