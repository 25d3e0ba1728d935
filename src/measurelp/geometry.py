"""Half-open boxes, partitions of a hull box, and grids."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_GRID_POINTS = 100_000_000
COVERAGE_SAMPLES = 10_000
VOLUME_RTOL = 1e-12


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


def _resolutions(box: Box, resolution) -> list[int]:
    if isinstance(resolution, (int, np.integer)):
        res = [int(resolution)] * box.dim
    else:
        res = [int(r) for r in resolution]
        if len(res) != box.dim:
            raise ValueError(f"resolution has {len(res)} axes, box has {box.dim}")
    for r in res:
        if r < 2:
            raise ValueError(f"resolution must be >= 2 per axis, got {r}")
    total = 1
    for r in res:
        total *= r
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points exceeds limit {MAX_GRID_POINTS}")
    return res


def grid_axes(box: Box, resolution) -> list[np.ndarray]:
    """Per-axis closed sample lines (both endpoints included)."""
    res = _resolutions(box, resolution)
    return [
        np.linspace(l, u, r)
        for l, u, r in zip(box.lower, box.upper, res)
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
    """Check the partition tiles the hull.

    Three checks: (a) pairwise disjointness of the half-open boxes, (b) box
    volumes sum to the hull volume, (c) every sampled hull point (10k Halton
    points) lies in exactly one box.  Problems name the offending boxes.
    """
    if partition.dim != hull.dim:
        raise ValueError(
            f"partition dimension {partition.dim} != hull dimension {hull.dim}"
        )
    problems: list[str] = []

    disjoint = True
    boxes = partition.boxes
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            overlaps = all(
                max(la, lb) < min(ua, ub)
                for la, ua, lb, ub in zip(a.lower, a.upper, b.lower, b.upper)
            )
            if overlaps:
                disjoint = False
                problems.append(f"boxes {i} and {j} overlap")

    total = sum(b.volume for b in boxes)
    volume_match = math.isclose(total, hull.volume, rel_tol=VOLUME_RTOL, abs_tol=0.0)
    if not volume_match:
        word = "deficit" if total < hull.volume else "excess"
        problems.append(
            f"volume {word}: boxes sum to {total!r}, hull volume is {hull.volume!r}"
        )

    covered = True
    samples = halton_points(COVERAGE_SAMPLES, hull.dim)
    width = np.subtract(hull.upper, hull.lower)
    misses = 0
    for t in samples:
        x = tuple(np.asarray(hull.lower) + t * width)
        hits = sum(1 for b in boxes if b.contains(x))
        if hits != 1:
            covered = False
            misses += 1
            if misses <= 3:
                problems.append(
                    f"hull point {tuple(round(float(v), 12) for v in x)} lies in {hits} boxes"
                )
    if misses > 3:
        problems.append(f"{misses} of {COVERAGE_SAMPLES} sampled points miscovered")

    ok = disjoint and volume_match and covered
    return PartitionReport(
        ok=ok,
        disjoint=disjoint,
        volume_match=volume_match,
        covered=covered,
        problems=tuple(problems),
    )
