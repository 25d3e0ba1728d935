"""Generalized moment problems over box partitions, solved from both sides.

A problem asks for  sup ∫ h dF  over nonnegative measures F on a partitioned
domain, subject to  ∫ φ_s dF <= a_s  and  ∫ ψ_t dF = b_t.  Two routes:

* primal: restrict F to atoms on a tensor grid (closed-box sampling, each
  box evaluated with its own piece) and solve the resulting finite LP; this
  bounds the supremum from below.
* dual: find multipliers (y >= 0, z) with  Σ y_s φ_s + Σ z_t ψ_t >= h
  pointwise; the value  a.y + b.z  bounds the supremum from above.  The
  pointwise constraint is handled by an exchange method: solve a master LP
  over a working set of points, scan the boxes for the worst violation,
  zoom in on it, add it as a cut, repeat.  The dual Slater check runs the
  same loop with a different master LP.

The working cuts live in a ``CutSet``: one array per field (box index,
point, the (phi, psi) row, h), which the master LPs read directly.  The
grid primal, the cuts and the oracle value the problem's functions through
``_box_table``: one box's functions at a batch of its points, from
``evaluate_many``, whose values do not depend on the batch.  So a point
gets the same values bit for bit wherever it is valued, and the oracle's
column is the cut it appends.  ``duality_report`` seeds every grid point
into the cut set by reading the grid primal's columns, and no per-point
``Cut`` is built.

Weak duality (primal value <= dual value) is checked on every report; a
violation beyond LP tolerances raises WeakDualityError because it can only
mean a solver bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .expressions import (
    Binary,
    Expression,
    Literal,
    Variable,
    evaluate,
    evaluate_many,
    free_variables,
    substitute_variables,
)
from .geometry import Box, Partition, grid_array
from .simplex import FiniteLP, LPOutcome, LPStatus, make_lp, solve_lp

DUAL_FEAS_CLIP = 1e-7  # y from LP duals may dip this far below 0 before we complain
ATOM_WEIGHT_FLOOR = 1e-12
SLATER_CAP = 1e6
MULTIPLIER_CAP = 1e8  # keeps the restricted dual bounded while cuts are scarce
WEAK_DUALITY_RTOL = 1e-8


class WeakDualityError(RuntimeError):
    """Primal value exceeded dual value beyond LP tolerances: a solver bug."""


class ExchangeError(RuntimeError):
    """The restricted dual was infeasible (primal unbounded on the cut set)."""


@dataclass(frozen=True)
class PiecewiseFunction:
    """One expression per partition box; evaluated with closure semantics.

    Points on a shared face take the value of the box whose piece is asked
    for, so the function may jump across box boundaries.
    """

    partition: Partition
    pieces: tuple[Expression, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if len(pieces) != len(self.partition.boxes):
            raise ValueError(
                f"{len(self.partition.boxes)} boxes but {len(pieces)} pieces"
            )
        for i, e in enumerate(pieces):
            if e.arity != self.partition.dim:
                raise ValueError(
                    f"piece {i} has arity {e.arity}, partition dimension is "
                    f"{self.partition.dim}"
                )

    def value_at(self, x: Sequence[float], box_index: int | None = None) -> float:
        if box_index is None:
            box_index = self.partition.locate_closure(x)
            if box_index is None:
                raise ValueError(f"point {tuple(x)} lies outside the partition")
        return evaluate(self.pieces[box_index], x)

    def values_on(self, box_index: int, points: np.ndarray) -> np.ndarray:
        return evaluate_many(self.pieces[box_index], points)

    def is_constant_one(self) -> bool:
        """True when every piece is the constant 1 (a total-mass integrand)."""
        for i, e in enumerate(self.pieces):
            if free_variables(e):
                return False
            if evaluate(e, self.partition.boxes[i].center()) != 1.0:
                return False
        return True


@dataclass(frozen=True)
class MomentProblem:
    """sup ∫ h dF  s.t.  ∫ φ_s dF <= a_s,  ∫ ψ_t dF = b_t,  F >= 0 on the domain."""

    domain: Partition
    hull: Box
    objective: PiecewiseFunction
    inequalities: tuple[tuple[PiecewiseFunction, float], ...]
    equalities: tuple[tuple[PiecewiseFunction, float], ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        if self.domain.dim != self.hull.dim:
            raise ValueError("domain and hull dimensions differ")
        if not self.inequalities and not self.equalities:
            raise ValueError("need at least one moment constraint")
        for fn in self._functions():
            if fn.partition is not self.domain and fn.partition != self.domain:
                raise ValueError("all functions must share the problem's partition")
        for _, bound in self.inequalities + self.equalities:
            if not math.isfinite(bound):
                raise ValueError("moment bounds must be finite")

    def _functions(self):
        yield self.objective
        for fn, _ in self.inequalities:
            yield fn
        for fn, _ in self.equalities:
            yield fn

    @property
    def n_ineq(self) -> int:
        return len(self.inequalities)

    @property
    def n_eq(self) -> int:
        return len(self.equalities)

    def has_mass_bound(self) -> bool:
        """Whether some constraint integrates the constant 1 (bounds total mass)."""
        return any(
            fn.is_constant_one() for fn, _ in self.inequalities + self.equalities
        )


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms; box_indices name the boxes that own them."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    box_indices: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.points) == len(self.weights) == len(self.box_indices)):
            raise ValueError("points, weights, box_indices must have equal length")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("atom weights must be nonnegative")

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))

    def integrate(self, fn: PiecewiseFunction) -> float:
        return float(
            sum(
                w * fn.value_at(p, box_index=i)
                for p, w, i in zip(self.points, self.weights, self.box_indices)
            )
        )


@dataclass(frozen=True)
class DualPoint:
    """Multipliers (y for inequalities, y >= 0; z for equalities, free)."""

    y: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        if any(v < 0.0 for v in self.y):
            raise ValueError("inequality multipliers must be nonnegative")

    def value(self, mp: MomentProblem) -> float:
        a = [bound for _, bound in mp.inequalities]
        b = [bound for _, bound in mp.equalities]
        return float(np.dot(self.y, a) + np.dot(self.z, b))

    def slack_at(self, mp: MomentProblem, x: Sequence[float], box_index: int) -> float:
        """Σ y φ(x) + Σ z ψ(x) - h(x), evaluated with box ``box_index``'s pieces."""
        table = _box_table(mp, box_index, np.array([x], dtype=float))
        return float(_slack(np.concatenate([self.y, self.z]), table)[0])


def _clip_duals(raw: np.ndarray, count: int) -> np.ndarray:
    y = np.asarray(raw[:count], dtype=float)
    if y.size and float(y.min()) < -DUAL_FEAS_CLIP:
        raise WeakDualityError(
            f"inequality dual dipped to {float(y.min())}, beyond LP tolerance"
        )
    return np.maximum(y, 0.0)


# ---------------------------------------------------------------------------
# grid-discretised primal


@dataclass
class GridPrimal:
    """Finite LP over atom weights at fixed grid points, plus the grid itself."""

    lp: FiniteLP
    points: np.ndarray       # (G, dim)
    box_indices: np.ndarray  # (G,)


def _box_table(mp: MomentProblem, box_index: int, points: np.ndarray) -> np.ndarray:
    """Rows phi_1..phi_M, psi_1..psi_N, h at one box's points: (M + N + 1, K)."""
    fns = [fn for fn, _ in mp.inequalities + mp.equalities] + [mp.objective]
    table = np.vstack([fn.values_on(box_index, points) for fn in fns])
    if not np.all(np.isfinite(table)):
        raise ValueError(f"non-finite function value in box {box_index}")
    return table


def _slack(yz: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Σ y φ + Σ z ψ - h at every column of a ``_box_table``."""
    return yz @ table[:-1] - table[-1]


def assemble_grid_primal(mp: MomentProblem, resolution) -> GridPrimal:
    """LP over atom weights on the closed-box tensor grids of every box.

    Variables are atom weights w_g >= 0; rows are the M inequality moments
    (<= a) followed by the N equality moments (= b); the objective is
    max Σ h(x_g) w_g.
    """
    blocks = []
    boxes = []
    for i, box in enumerate(mp.domain.boxes):
        pts = grid_array(box, resolution)
        blocks.append(pts)
        boxes.append(np.full(len(pts), i))
    points = np.vstack(blocks)
    box_idx = np.concatenate(boxes)
    table = np.hstack([_box_table(mp, i, pts) for i, pts in enumerate(blocks)])
    A, h = table[:-1], table[-1]
    rhs = [bound for _, bound in mp.inequalities] + [bound for _, bound in mp.equalities]
    senses = ("<=",) * mp.n_ineq + ("=",) * mp.n_eq
    lp = make_lp("max", h, A, senses, rhs)
    return GridPrimal(lp=lp, points=points, box_indices=box_idx)


@dataclass
class PrimalSolve:
    status: LPStatus
    value: float | None
    measure: AtomicMeasure | None
    outcome: LPOutcome
    grid: GridPrimal


def solve_grid_primal(mp: MomentProblem, resolution) -> PrimalSolve:
    grid = assemble_grid_primal(mp, resolution)
    out = solve_lp(grid.lp)
    if out.status != LPStatus.OPTIMAL:
        return PrimalSolve(out.status, None, None, out, grid)
    keep = np.flatnonzero(out.x > ATOM_WEIGHT_FLOOR)
    measure = AtomicMeasure(
        points=tuple(tuple(float(v) for v in grid.points[g]) for g in keep),
        weights=tuple(float(out.x[g]) for g in keep),
        box_indices=tuple(int(grid.box_indices[g]) for g in keep),
    )
    return PrimalSolve(out.status, float(out.value), measure, out, grid)


# ---------------------------------------------------------------------------
# exchange dual


@dataclass(frozen=True)
class Cut:
    """One pointwise dual constraint Σ y φ(x) + Σ z ψ(x) >= h(x)."""

    box_index: int
    point: tuple[float, ...]
    phi: tuple[float, ...]
    psi: tuple[float, ...]
    h: float


def make_cut(mp: MomentProblem, box_index: int, point: Sequence[float]) -> Cut:
    pt = tuple(float(v) for v in point)
    if not mp.domain.boxes[box_index].closure_contains(pt, tol=1e-9):
        raise ValueError(f"point {pt} is not in the closure of box {box_index}")
    column = _box_table(mp, box_index, np.array([pt]))[:, 0].tolist()
    M, N = mp.n_ineq, mp.n_eq
    return Cut(
        box_index=box_index, point=pt,
        phi=tuple(column[:M]), psi=tuple(column[M:M + N]), h=column[-1],
    )


def initial_cuts(mp: MomentProblem) -> list[Cut]:
    """Corners and center of every box (closed-box corners)."""
    return list(_seed_cuts(mp))


@dataclass
class CutSet(Sequence):
    """Cuts held as arrays, one entry per cut, in the order they were added.

    ``box_index`` (C,), ``points`` (C, dim), ``rows`` (C, M + N) with each
    cut's phi values then its psi values, and ``h`` (C,); the first
    ``n_ineq`` columns of ``rows`` are phi.  It reads as a
    ``Sequence[Cut]``: an integer index gives a ``Cut`` whose fields are
    Python numbers and tuples, a slice gives a CutSet, and ``==`` compares
    cut by cut.
    """

    n_ineq: int
    box_index: np.ndarray
    points: np.ndarray
    rows: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return CutSet(self.n_ineq, self.box_index[k], self.points[k], self.rows[k], self.h[k])
        row = self.rows[k].tolist()
        return Cut(
            box_index=int(self.box_index[k]), point=tuple(self.points[k].tolist()),
            phi=tuple(row[: self.n_ineq]), psi=tuple(row[self.n_ineq:]), h=float(self.h[k]),
        )

    def __iter__(self):
        M = self.n_ineq
        for b, p, row, h in zip(
            self.box_index.tolist(), self.points.tolist(), self.rows.tolist(), self.h.tolist()
        ):
            yield Cut(box_index=b, point=tuple(p), phi=tuple(row[:M]), psi=tuple(row[M:]), h=h)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutSet):
            return NotImplemented
        return self.n_ineq == other.n_ineq and all(
            np.array_equal(a, b)
            for a, b in zip(
                (self.box_index, self.points, self.rows, self.h),
                (other.box_index, other.points, other.rows, other.h),
            )
        )

    def __repr__(self) -> str:
        return f"CutSet({len(self)} cuts)"

    def append(self, box_index: int, point: np.ndarray, column: np.ndarray) -> None:
        """Add one cut at the end; ``column`` is its ``_box_table`` column.

        Slices taken earlier keep their own cuts.
        """
        self.box_index = np.append(self.box_index, box_index)
        self.points = np.vstack([self.points, [point]])
        self.rows = np.vstack([self.rows, [column[:-1]]])
        self.h = np.append(self.h, column[-1])


def _seed_cuts(mp: MomentProblem, extra_cuts=()) -> CutSet:
    """The corner and center cuts of every box, then ``extra_cuts``.

    Points are valued box by box with ``_box_table``; a GridPrimal's values
    are read from its LP, which holds that table.  Extra points already
    among the corners and centers, and repeats, are dropped: the first
    occurrence wins and the given order is kept.
    """
    seeds = [
        (i, p) for i, box in enumerate(mp.domain.boxes) for p in box.corners() + [box.center()]
    ]
    grid = extra_cuts if isinstance(extra_cuts, GridPrimal) else None
    if grid is None:
        seeds += list(extra_cuts)
    n = len(seeds)
    box_idx = np.array([i for i, _ in seeds], dtype=int)
    points = np.array([p for _, p in seeds], dtype=float).reshape(n, mp.domain.dim)
    if grid is not None:
        box_idx = np.concatenate([box_idx, grid.box_indices])
        points = np.vstack([points, grid.points])
    lower = np.array([b.lower for b in mp.domain.boxes])[box_idx]
    upper = np.array([b.upper for b in mp.domain.boxes])[box_idx]
    outside = ~np.all((points >= lower - 1e-9) & (points <= upper + 1e-9), axis=1)
    if outside.any():
        g = int(np.argmax(outside))
        pt = tuple(points[g].tolist())
        raise ValueError(f"point {pt} is not in the closure of box {box_idx[g]}")

    table = np.empty((mp.n_ineq + mp.n_eq + 1, len(points)))
    for i in np.unique(box_idx[:n]):
        sel = np.flatnonzero(box_idx[:n] == i)
        table[:, sel] = _box_table(mp, int(i), points[sel])
    if grid is not None:
        table[:-1, n:] = grid.lp.rows
        table[-1, n:] = grid.lp.objective

    # first occurrence of each (box, point)
    keys = np.column_stack([box_idx, points])
    order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in given order
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    keep = np.sort(order[first])
    return CutSet(mp.n_ineq, box_idx[keep], points[keep], table[:-1, keep].T, table[-1, keep])


def restricted_dual_lp(
    mp: MomentProblem, cuts: Sequence[Cut], cap: float | None = None
) -> FiniteLP:
    """The (y, z)-variable form: min a.y + b.z s.t. one >= row per cut.

    ``cap`` bounds every multiplier's magnitude; the exchange loop uses it to
    keep this LP bounded while the working cut set is still too small.
    """
    M, N = mp.n_ineq, mp.n_eq
    A = np.empty((len(cuts), M + N))
    rhs = np.empty(len(cuts))
    for r, cut in enumerate(cuts):
        A[r, :M] = cut.phi
        A[r, M:] = cut.psi
        rhs[r] = cut.h
    obj = np.array(
        [bound for _, bound in mp.inequalities] + [bound for _, bound in mp.equalities]
    )
    lower = np.concatenate([np.zeros(M), np.full(N, -np.inf if cap is None else -cap)])
    upper = np.inf if cap is None else cap
    return make_lp("min", obj, A, (">=",) * len(cuts), rhs, lower=lower, upper=upper)


def _solve_master(mp: MomentProblem, rows, H, elastic: float | None = None):
    """Solve the cut-supported primal; its row duals are the restricted dual.

    ``rows`` and ``H`` are the working cuts' ``CutSet.rows`` and ``CutSet.h``.
    Returns (status, value, DualPoint | None).  Columns are cuts, rows are
    the M + N moment constraints, so the tableau stays small however many
    cuts tests seed.  With ``elastic``, extra columns that buy one unit of
    constraint defect at that price make the LP feasible for any right-hand
    side; by LP duality the row duals are then the optimum of the restricted
    dual with every multiplier capped at the elastic price.
    """
    M, N = mp.n_ineq, mp.n_eq
    A = rows.T
    if elastic is not None:
        defect = np.zeros((M + N, M + 2 * N))
        defect[:M, :M] = -np.eye(M)
        defect[M:, M : M + N] = np.eye(N)
        defect[M:, M + N :] = -np.eye(N)
        A = np.hstack([A, defect])
        H = np.concatenate([H, np.full(M + 2 * N, -float(elastic))])
    rhs = [bound for _, bound in mp.inequalities] + [bound for _, bound in mp.equalities]
    lp = make_lp("max", H, A, ("<=",) * M + ("=",) * N, rhs)
    out = solve_lp(lp)
    if out.status != LPStatus.OPTIMAL:
        return out.status, None, None
    y = _clip_duals(out.duals, M)
    z = out.duals[M:]
    return LPStatus.OPTIMAL, float(out.value), DualPoint(y=tuple(y), z=tuple(z))


@dataclass(frozen=True)
class SeparationResult:
    box_index: int
    point: tuple[float, ...]
    slack: float
    # the point's ``_box_table`` column: phi, psi, then h
    column: np.ndarray = field(repr=False, compare=False)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ZOOM_POINTS = 129  # points per zoom round; a round keeps 2 of their 128 gaps


def _scan_axes(dim: int, scan_resolution) -> list[int] | int:
    if scan_resolution is not None:
        return scan_resolution
    # default budget of ~1024 scan points per box, spread across the axes
    return max(2, int(round(1024 ** (1.0 / dim))))


class _ScanOracle:
    """Separation oracle: a scan of cached per-box grids, then a zoom on the argmin.

    The grid values are computed once and reused by every exchange
    iteration.  The zoom scores points with the scan's own slack formula,
    on ``_box_table`` columns, so the column it returns is the cut.
    """

    def __init__(self, mp: MomentProblem, scan_resolution, refine_steps: int):
        self.mp = mp
        self.refine_steps = refine_steps
        res = _scan_axes(mp.domain.dim, scan_resolution)
        self.points = []   # per box: (K, dim)
        self.tables = []   # per box: rows = M phi, N psi, then h; shape (M+N+1, K)
        self.steps = []    # per box: scan step per axis
        for i, box in enumerate(mp.domain.boxes):
            pts = grid_array(box, res)
            table = _box_table(mp, i, pts)
            self.points.append(pts)
            self.tables.append(table)
            axes_res = res if not isinstance(res, int) else [res] * box.dim
            self.steps.append(
                [(u - l) / (r - 1) for l, u, r in zip(box.lower, box.upper, axes_res)]
            )

    def find(self, dual: DualPoint) -> SeparationResult:
        yz = np.concatenate([dual.y, dual.z])
        best = None
        for i, (points, table) in enumerate(zip(self.points, self.tables)):
            slack = _slack(yz, table)
            g = int(np.argmin(slack))
            if best is None or slack[g] < best[0]:
                best = (float(slack[g]), i, points[g], table[:, g])
        slack, box_index, point, column = best
        if self.refine_steps > 0:
            slack, point, column = self._zoom(yz, box_index, point, slack, column)
        return SeparationResult(box_index, tuple(point.tolist()), slack, column)

    def _zoom(self, yz, box_index, x, slack, column):
        """Coordinate-wise zoom around the scan argmin ``x``; returns the best point seen.

        Axis j starts from the bracket of one scan step either side of x_j,
        clipped to the box.  Each round values ``_ZOOM_POINTS`` equally
        spaced points in one ``_box_table`` call and keeps the gaps either
        side of the best one, until the bracket is no wider than a
        golden-section search's after ``refine_steps`` steps.
        """
        box = self.mp.domain.boxes[box_index]
        for j, step in enumerate(self.steps[box_index]):
            lo, hi = max(box.lower[j], x[j] - step), min(box.upper[j], x[j] + step)
            width = (hi - lo) * _INVPHI ** self.refine_steps
            while hi - lo > width:
                trial = np.repeat([x], _ZOOM_POINTS, axis=0)
                trial[:, j] = np.linspace(lo, hi, _ZOOM_POINTS)
                table = _box_table(self.mp, box_index, trial)
                s = _slack(yz, table)
                k = int(np.argmin(s))
                if s[k] < slack:
                    slack, x, column = float(s[k]), trial[k], table[:, k]
                bracket = trial[max(k - 1, 0), j], trial[min(k + 1, _ZOOM_POINTS - 1), j]
                if bracket == (lo, hi):  # no float left between the points
                    break
                lo, hi = bracket
        return slack, x, column


def separation_oracle(
    mp: MomentProblem,
    dual: DualPoint,
    scan_resolution=None,
    refine_steps: int = 40,
) -> SeparationResult:
    """Most-violated point of the dual constraint: argmin of the slack.

    Scans a per-box tensor grid, then zooms in coordinate-wise: each round
    values a bracket of equally spaced points in one batch and shrinks it to
    the best point's neighbours, until it is no wider than a golden-section
    bracket after ``refine_steps`` steps (0 turns the zoom off).  The
    returned point is the best point actually evaluated, so it is never
    worse than the scan argmin.  slack < 0 means the dual point is
    infeasible at that point.
    """
    return _ScanOracle(mp, scan_resolution, refine_steps).find(dual)


@dataclass
class IterationRecord:
    value: float
    dual: DualPoint
    worst_point: tuple[float, ...]
    worst_box: int
    slack: float


@dataclass
class ExchangeResult:
    """Outcome of ``exchange_solve``.

    ``cuts`` is the final working set as a CutSet: the initial cuts, then the
    seeded ones, then one cut per iteration that did not stop the loop.
    """

    status: str  # "converged" | "not_converged" | "dual_unbounded"
    value: float | None
    dual: DualPoint | None
    cuts: CutSet
    iterations: int
    history: list[IterationRecord]
    final_slack: float | None


def _exchange(mp, cuts, master, tol, max_iters, scan_resolution, refine_steps):
    """The exchange loop of both the dual and the dual Slater check.

    ``cuts`` is the working CutSet.  ``master(rows, h)`` solves on its
    arrays and returns (value, dual point, target, tag); the loop stops once
    the oracle's worst slack is >= target - tol, else appends that point's
    cut.  Returns (converged, the last tag, one IterationRecord per
    iteration).
    """
    oracle = _ScanOracle(mp, scan_resolution, refine_steps)
    history: list[IterationRecord] = []
    for _ in range(max(1, int(max_iters))):
        value, dual, target, tag = master(cuts.rows, cuts.h)
        sep = oracle.find(dual)
        history.append(IterationRecord(value, dual, sep.point, sep.box_index, sep.slack))
        if sep.slack >= target - tol:
            return True, tag, history
        cuts.append(sep.box_index, sep.point, sep.column)
    return False, tag, history


def exchange_solve(
    mp: MomentProblem,
    tol: float = 1e-6,
    max_iters: int = 200,
    scan_resolution=None,
    refine_steps: int = 40,
    extra_cuts: Sequence[tuple[int, Sequence[float]]] | GridPrimal = (),
) -> ExchangeResult:
    """Exchange method for the dual: master LP on a working cut set + oracle.

    Starts from the corner and center cuts of every box, plus ``extra_cuts``
    given as (box_index, point) pairs or as a GridPrimal whose points are all
    seeded, and stops when the worst slack is >= -tol.  The working set is a
    CutSet that grows by one cut per iteration and is returned as
    ``ExchangeResult.cuts``.  Master values are nondecreasing because cuts
    only ever add columns to the cut-supported primal.

    An infeasible master means the restricted dual is unbounded below on the
    working set -- the dual value is -inf *so far*, so the primal is either
    infeasible or just needs more cuts.  Those iterations re-solve the
    restricted dual with multipliers capped at ``MULTIPLIER_CAP`` and
    separate against that minimizer: a violated point restores progress,
    while a capped minimizer that no point cuts off is a near-feasible dual
    direction with an enormously negative value, returned as
    "dual_unbounded".  An infeasible restricted dual (possible only when the
    primal is unbounded above) raises ExchangeError.
    """
    cuts = _seed_cuts(mp, extra_cuts)

    def master(rows, h):
        status, value, dual = _solve_master(mp, rows, h)
        if status == LPStatus.UNBOUNDED:
            raise ExchangeError(
                "restricted dual infeasible: the primal is unbounded above "
                "on the working cut set"
            )
        recovering = status == LPStatus.INFEASIBLE
        if recovering:
            status, value, dual = _solve_master(mp, rows, h, elastic=MULTIPLIER_CAP)
            if status != LPStatus.OPTIMAL:
                raise ExchangeError(
                    "restricted dual infeasible even with capped multipliers: "
                    "the primal is unbounded above on the working cut set"
                )
        return value, dual, 0.0, recovering

    converged, recovering, history = _exchange(
        mp, cuts, master, tol, max_iters, scan_resolution, refine_steps
    )
    last = history[-1]
    status = "not_converged" if not converged else "dual_unbounded" if recovering else "converged"
    return ExchangeResult(
        status=status,
        value=None if status == "dual_unbounded" else last.value,
        dual=last.dual, cuts=cuts,
        iterations=len(history), history=history, final_slack=last.slack,
    )


# ---------------------------------------------------------------------------
# Slater condition checks


@dataclass
class DualSlaterReport:
    """Largest t with Σ y φ + Σ z ψ - h >= t everywhere (capped at 1e6)."""

    margin: float
    witness: DualPoint | None
    converged: bool
    capped: bool
    iterations: int


def check_dual_slater(
    mp: MomentProblem,
    tol: float = 1e-6,
    max_iters: int = 200,
    scan_resolution=None,
    refine_steps: int = 0,
    cap: float = SLATER_CAP,
) -> DualSlaterReport:
    """Maximize the uniform dual slack t over the scan mesh (exchange loop).

    The LP has variables (y >= 0, z, t <= cap) and one row per cut; the
    margin is certified against the scan points, so refinement is off by
    default.  Margin > 0 certifies the strict-positivity hypothesis on the
    mesh.  Whenever a constraint can lift the slack uniformly (any problem
    with a total-mass constraint), the margin is unbounded and reports the
    cap.

    A tiny penalty on the multiplier norm breaks the master's degeneracy:
    once t sits at the cap every feasible (y, z) is optimal, and without
    the penalty the vertex sequence wanders instead of settling on one
    certificate.  The reported margin is the t component, not the
    penalised objective.
    """
    M, N = mp.n_ineq, mp.n_eq
    eps = 1e-9  # lexicographic tie-break; shifts t* by at most eps * |(y, z)|_1
    # variables: y (M), z split into zp - zn (2N), then t
    width = M + 2 * N + 1
    obj = np.full(width, -eps)
    obj[-1] = 1.0
    lower = np.concatenate([np.zeros(M + 2 * N), [-np.inf]])
    upper = np.concatenate([np.full(M + 2 * N, np.inf), [cap]])

    def master(rows, h):
        A = np.hstack([rows, -rows[:, M:], np.full((len(rows), 1), -1.0)])
        lp = make_lp("max", obj, A, (">=",) * len(rows), h, lower=lower, upper=upper)
        out = solve_lp(lp)
        if out.status != LPStatus.OPTIMAL:
            raise WeakDualityError(f"slater master reported {out.status.value}")
        t = float(out.x[-1])
        z = out.x[M:M + N] - out.x[M + N:M + 2 * N]
        return t, DualPoint(y=tuple(_clip_duals(out.x, M)), z=tuple(z)), t, None

    converged, _, history = _exchange(
        mp, _seed_cuts(mp), master, tol, max_iters, scan_resolution, refine_steps
    )
    margin = history[-1].value
    return DualSlaterReport(
        margin=margin, witness=history[-1].dual, converged=converged,
        capped=margin >= cap * (1.0 - 1e-6), iterations=len(history),
    )


@dataclass
class PrimalSlaterReport:
    """Largest uniform inequality slack of a feasible grid measure (capped).

    ``margin`` is -inf when even the equalities cannot be met on the grid.
    ``equality_rank`` is the numerical rank of the equality moment rows on
    the grid; rank < n_equalities flags redundant or contradictory rows.
    """

    margin: float
    feasible: bool
    equality_rank: int
    n_equalities: int
    capped: bool

    @property
    def rank_deficient(self) -> bool:
        return self.equality_rank < self.n_equalities


def check_primal_slater(
    mp: MomentProblem, resolution=129, cap: float = SLATER_CAP
) -> PrimalSlaterReport:
    grid = assemble_grid_primal(mp, resolution)
    M, N = mp.n_ineq, mp.n_eq
    G = grid.lp.rows.shape[1]
    psi_rows = grid.lp.rows[M:, :]
    rank = int(np.linalg.matrix_rank(psi_rows)) if N else 0

    # maximize delta s.t. moments(w) + delta <= a (ineq rows), = b (eq rows)
    obj = np.zeros(G + 1)
    obj[-1] = 1.0
    A = np.zeros((M + N, G + 1))
    A[:, :G] = grid.lp.rows
    A[:M, -1] = 1.0
    lower = np.concatenate([np.zeros(G), [-np.inf]])
    upper = np.concatenate([np.full(G, np.inf), [cap]])
    lp = make_lp(
        "max", obj, A, grid.lp.row_senses, grid.lp.rhs, lower=lower, upper=upper
    )
    out = solve_lp(lp)
    if out.status == LPStatus.INFEASIBLE:
        return PrimalSlaterReport(
            margin=-math.inf, feasible=False, equality_rank=rank,
            n_equalities=N, capped=False,
        )
    if out.status != LPStatus.OPTIMAL:
        raise WeakDualityError(f"primal slater LP reported {out.status.value}")
    margin = float(out.value)
    return PrimalSlaterReport(
        margin=margin, feasible=True, equality_rank=rank, n_equalities=N,
        capped=margin >= cap * (1.0 - 1e-9),
    )


# ---------------------------------------------------------------------------
# the full report


class ReportStatus(str, Enum):
    STRONG_DUALITY = "strong_duality_numerically"
    GAP_REMAINS = "gap_remains"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_UNBOUNDED = "dual_unbounded_below"
    NOT_CONVERGED = "not_converged"


@dataclass(frozen=True)
class SolverConfig:
    grid_resolution: int | tuple[int, ...] = 1025
    tol: float = 1e-6
    max_iters: int = 200
    scan_resolution: int | tuple[int, ...] | None = None
    refine_steps: int = 40
    gap_rtol: float = 1e-3
    verification_factor: int = 4
    slater_resolution: int = 129


def _exchange_options(config: SolverConfig) -> dict:
    """The config fields that exchange_solve and check_dual_slater take."""
    return {
        "tol": config.tol, "max_iters": config.max_iters,
        "scan_resolution": config.scan_resolution, "refine_steps": config.refine_steps,
    }


@dataclass
class DualityReport:
    status: ReportStatus
    primal_value: float | None
    dual_value: float | None
    gap: float | None
    max_dual_violation: float | None
    iterations: int
    atoms: AtomicMeasure | None
    dual: DualPoint | None
    primal_slater: PrimalSlaterReport
    dual_slater: DualSlaterReport
    has_mass_bound: bool
    notes: tuple[str, ...]


def _verification_scan(mp, dual, config) -> float:
    """Max violation of the dual constraint on a mesh finer than the oracle's."""
    res = _scan_axes(mp.domain.dim, config.scan_resolution)
    factor = config.verification_factor
    if isinstance(res, int):
        fine = factor * res
    else:
        fine = tuple(factor * r for r in res)
    sep = separation_oracle(mp, dual, fine, config.refine_steps)
    return max(0.0, -sep.slack)


def duality_report(mp: MomentProblem, config: SolverConfig | None = None) -> DualityReport:
    """Solve both routes, certify weak duality, and check both Slater conditions.

    The grid primal's points are seeded into the exchange cut set, and the
    seeded cuts are exactly the grid primal's columns, corner and center
    cuts included: the same values from the same evaluator.  So every
    master LP holds the grid LP's columns and its value dominates the grid
    value by LP duality.  Raises WeakDualityError if, despite that, a
    converged dual lands more than 1e-8 * (1 + |dual|) below an optimal grid
    primal: that ordering can only fail through a solver bug.  A grid
    primal that is unbounded above makes the exchange raise ExchangeError,
    because the master LP holds the same columns.
    """
    config = config or SolverConfig()
    notes: list[str] = []

    primal = solve_grid_primal(mp, config.grid_resolution)
    ex = exchange_solve(mp, extra_cuts=primal.grid, **_exchange_options(config))
    primal_slater = check_primal_slater(mp, config.slater_resolution)
    dual_slater = check_dual_slater(mp, **_exchange_options(config))

    has_mass = mp.has_mass_bound()
    if not has_mass:
        notes.append(
            "no total-mass constraint: a dual tolerance of tol does not convert "
            "into a bound on the optimal value"
        )
    if primal_slater.capped or dual_slater.capped:
        notes.append(f"slater margin hit the reporting cap {SLATER_CAP:g}")

    max_violation = None
    if ex.dual is not None:
        max_violation = _verification_scan(mp, ex.dual, config)

    gap = None
    if primal.value is not None and ex.value is not None:
        gap = ex.value - primal.value
        if ex.status == "converged" and gap < -WEAK_DUALITY_RTOL * (1.0 + abs(ex.value)):
            raise WeakDualityError(
                f"weak duality violated: primal {primal.value!r} > dual {ex.value!r}"
            )

    if primal.status == LPStatus.INFEASIBLE:
        status = ReportStatus.PRIMAL_INFEASIBLE
    elif ex.status == "dual_unbounded":
        status = ReportStatus.DUAL_UNBOUNDED
    elif ex.status == "not_converged":
        status = ReportStatus.NOT_CONVERGED
    elif gap is not None and gap <= config.gap_rtol * (1.0 + abs(ex.value)):
        status = ReportStatus.STRONG_DUALITY
    else:
        status = ReportStatus.GAP_REMAINS

    return DualityReport(
        status=status,
        primal_value=primal.value,
        dual_value=ex.value,
        gap=gap,
        max_dual_violation=max_violation,
        iterations=ex.iterations,
        atoms=primal.measure,
        dual=ex.dual,
        primal_slater=primal_slater,
        dual_slater=dual_slater,
        has_mass_bound=has_mass,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# unit-box normalisation


def apply_unit_normalization(mp: MomentProblem) -> MomentProblem:
    """Affinely relocate each box to a disjoint translated unit box.

    Box i becomes [i, i+1) x [0, 1)^(dim-1); every expression is composed
    with the inverse affine map, so integrals of the relocated problem agree
    with the original ones measure-for-measure.
    """
    dim = mp.domain.dim
    new_boxes = []
    replacements_per_box = []
    for i, box in enumerate(mp.domain.boxes):
        offset = [float(i)] + [0.0] * (dim - 1)
        lower = tuple(offset)
        upper = tuple(o + 1.0 for o in offset)
        new_boxes.append(Box(lower=lower, upper=upper))
        repl = []
        for j in range(dim):
            scale = box.upper[j] - box.lower[j]
            shift = box.lower[j] - scale * offset[j]
            # x_orig_j = shift + scale * u_j
            repl.append(
                Binary(
                    "+",
                    Literal(shift),
                    Binary("*", Literal(scale), Variable(j, f"x{j + 1}")),
                )
            )
        replacements_per_box.append(repl)

    partition = Partition(boxes=tuple(new_boxes))
    hull = Box(
        lower=(0.0,) * dim,
        upper=(float(len(new_boxes)),) + (1.0,) * (dim - 1),
    )

    def transform(fn: PiecewiseFunction) -> PiecewiseFunction:
        pieces = tuple(
            substitute_variables(piece, replacements_per_box[i], dim)
            for i, piece in enumerate(fn.pieces)
        )
        return PiecewiseFunction(partition=partition, pieces=pieces)

    return MomentProblem(
        domain=partition,
        hull=hull,
        objective=transform(mp.objective),
        inequalities=tuple((transform(fn), b) for fn, b in mp.inequalities),
        equalities=tuple((transform(fn), b) for fn, b in mp.equalities),
        name=f"{mp.name}-unit" if mp.name else "unit",
    )
