"""Generalized moment problems over box partitions, solved from both sides.

A problem asks for  sup ∫ h dF  over nonnegative measures F on a partitioned
domain, subject to  ∫ φ_s dF <= a_s  and  ∫ ψ_t dF = b_t.  Two routes:

* primal: restrict F to atoms on a tensor grid (closed-box sampling, each
  box evaluated with its own piece) and solve the resulting finite LP; this
  bounds the supremum from below.  ``solve_grid_primal`` solves it on the
  generation loop, with the grid as the pool of columns it prices in.
* dual: find multipliers (y >= 0, z) with  Σ y_s φ_s + Σ z_t ψ_t >= h
  pointwise; the value  a.y + b.z  bounds the supremum from above.  The
  pointwise constraint is handled by an exchange method: solve a master LP
  over a working set of points, find the worst violation, add it as a cut,
  repeat.  On a 1-D box whose functions are piecewise polynomials the
  worst violation is exact: the least slack over the box's ends, its
  breakpoints and the real roots of the slack's derivative, while the
  rounding of those pieces allows.  Other boxes are scanned on a mesh, and
  the scan's argmin is zoomed in on.  The dual Slater check runs the same
  loop with a different master LP, on the same polynomial pieces, scan
  meshes and corner and center cuts: they are built
  once per problem and kept, read-only, in the per-problem cache of
  ``expressions`` (``_kept``).

The working cuts live in a ``CutSet``: one array per field (box index,
point, the (phi, psi) row, h), which the master LPs read directly.  The
grid primal, the cuts and the oracle value the problem's functions through
``_box_table``: one box's functions at a batch of its points, in one pass
of the box's program from the per-problem cache in ``expressions``, which
gives each function's ``evaluate_many`` values bit for bit, whatever the
batch, and rejects a value that is not finite naming the box.  So a point
gets the same values wherever it is valued, and the oracle's column is the
cut it appends; every grid and its table come from ``_grid``.
``duality_report``'s exchange takes the grid primal's arrays as its cut set
and starts its masters from no column, so its first master is the solve of
``solve_grid_primal``, and no per-point ``Cut`` is built.  The masters and
the Slater margin LP (``_max_margin``) run on the generation loop of
``simplex`` (``simplex._generate``), which prices the grid's columns in by
the row duals, or an infeasible master's Farkas vector, so no master holds
the grid.

Weak duality (primal value <= dual value) is checked on every report; a
violation beyond LP tolerances raises WeakDualityError because it can only
mean a solver bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .expressions import (
    Binary,
    Expression,
    Literal,
    Variable,
    _horner,
    _problem_cache,
    _problem_program,
    _problem_table,
    _real_roots,
    evaluate,
    free_variables,
    substitute_variables,
)
from .geometry import Box, Partition, _axis_counts, grid_array
from .simplex import FiniteLP, LPOutcome, LPStatus, _Fixed, _generate, make_lp

DUAL_FEAS_CLIP = 1e-7  # y from LP duals may dip this far below 0 before we complain
ATOM_WEIGHT_FLOOR = 1e-12
WEAK_DUALITY_RTOL = 1e-8


class WeakDualityError(RuntimeError):
    """A result only a solver bug gives: primal above dual, or an unbounded margin LP."""


class ExchangeError(RuntimeError):
    """The restricted dual was infeasible (primal unbounded on the cut set)."""


@dataclass(frozen=True)
class SolverConfig:
    """Settings of ``duality_report``; an out-of-range one raises ValueError naming it.

    The separation oracle takes no setting: its scan mesh (``_scan_axes``),
    its zoom's depth (``_ZOOM_DEPTH``) and the verification mesh
    (``_verification_axes``) follow from the problem alone, the same for
    every caller.
    """

    grid_resolution: int | tuple[int, ...] = 1025
    tol: float = 1e-6
    max_iters: int = 200
    gap_rtol: float = 1e-3
    slater_resolution: int = 129

    def __post_init__(self):
        _check_loop(self.tol, self.max_iters)
        _check_tolerance("gap_rtol", self.gap_rtol)
        for name in ("grid_resolution", "slater_resolution"):
            value = getattr(self, name)
            if any(r < 2 for r in np.atleast_1d(value)):
                raise ValueError(f"{name} must be >= 2 per axis, got {value!r}")


def _check_tolerance(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _check_loop(tol: float, max_iters: int) -> None:
    """Raise ValueError naming the argument unless the exchange loop can run on these."""
    _check_tolerance("tol", tol)
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")


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

    def is_positive_constant(self) -> bool:
        """True when every piece is a constant > 0, which may differ by box.

        Its integral bounds the total mass: ∫ dF <= ∫ ψ dF / min ψ.
        """
        for i, e in enumerate(self.pieces):
            if free_variables(e):
                return False
            if not evaluate(e, self.partition.boxes[i].center()) > 0.0:
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
        """Every function, in ``_box_table``'s row order: phi, psi, then h."""
        for fn, _ in self.inequalities + self.equalities:
            yield fn
        yield self.objective

    @property
    def n_ineq(self) -> int:
        return len(self.inequalities)

    @property
    def n_eq(self) -> int:
        return len(self.equalities)

    def has_mass_bound(self) -> bool:
        """Whether some constraint integrates a positive constant (bounds total mass)."""
        return any(
            fn.is_positive_constant() for fn, _ in self.inequalities + self.equalities
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
    """Multipliers (y for inequalities, y >= 0; z for equalities, free).

    A ``ray`` is a direction of the dual instead, scaled to max |entry| 1:
    Σ y φ + Σ z ψ >= 0 pointwise, with no h term, while a.y + b.z < 0, so
    adding it to a feasible dual point lowers the bound without limit.
    """

    y: tuple[float, ...]
    z: tuple[float, ...]
    ray: bool = False

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        if any(v < 0.0 for v in self.y):
            raise ValueError("inequality multipliers must be nonnegative")

    def value(self, mp: MomentProblem) -> float:
        a = [bound for _, bound in mp.inequalities]
        b = [bound for _, bound in mp.equalities]
        return float(np.dot(self.y, a) + np.dot(self.z, b))


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
    """Rows phi_1..phi_M, psi_1..psi_N, h at one box's points: (M + N + 1, K).

    The box's M + N + 1 pieces are valued in one pass of one ``_Program``,
    compiled once per problem, so a subexpression the pieces share (a
    monomial, say) is computed once.  Each row is bit for bit
    ``evaluate_many`` of its piece.  A domain failure raises the DomainError
    of the first failing row; a value that is infinite without one (an
    overflow in ``*``, say) raises ValueError naming the box.
    """
    return _problem_table(mp, box_index, _box_functions(mp, box_index), points, f"box {box_index}")


def _box_functions(mp: MomentProblem, box_index: int):
    """The pieces of ``_box_table``'s rows in box ``box_index``, as the cache compiles them."""
    return lambda: tuple(fn.pieces[box_index] for fn in mp._functions())


def _kept(mp: MomentProblem, key: tuple, build) -> tuple:
    """``build()``'s arrays, made read-only and kept under ``key`` in ``mp``'s cache.

    They are built once while ``mp`` is the last problem valued (see
    ``expressions._problem_cache``), so both exchange loops of a problem
    share them; read-only, no caller can change them under the next one.
    """
    cache = _problem_cache(mp)
    arrays = cache.get(key)
    if arrays is None:
        arrays = build()
        for a in arrays:
            a.setflags(write=False)
        cache[key] = arrays
    return arrays


def _slack(yz: np.ndarray, table: np.ndarray, ray: bool = False) -> np.ndarray:
    """Σ y φ + Σ z ψ - h at every column of a ``_box_table``; a ray's drops h."""
    return yz @ table[:-1] if ray else yz @ table[:-1] - table[-1]


# The grid paths hold a few arrays the size of a grid's points and table at
# once (the per-box blocks and their concatenation, a cut store that doubles
# on its first append), so a 1 GiB table keeps a run to a few GiB: a
# 1025 x 1025 grid of three moments needs 50 MB, while a 1-D grid of 10^8
# points with two, which ``MAX_GRID_POINTS`` admits, would need 3.2 GB.  The
# density Slater check's equality rank table (``density._check_rank_bytes``)
# is held whole too, and by ``matrix_rank``'s SVD again, under the same limit.
_GRID_BYTES = 2**30


def _check_grid_bytes(
    mp: MomentProblem, resolution, boxes=None,
    grid: str = "grid", advice: str = "lower the grid resolution",
) -> None:
    """Raise ValueError naming ``grid`` if its points and table would pass ``_GRID_BYTES``."""
    boxes = mp.domain.boxes if boxes is None else boxes
    count = math.prod(_axis_counts(mp.domain.dim, resolution)) * len(boxes)
    need = 8 * count * (mp.n_ineq + mp.n_eq + 1 + mp.domain.dim)
    if need > _GRID_BYTES:
        raise ValueError(
            f"{grid} of {count} points needs {need} bytes, over the limit {_GRID_BYTES}; {advice}"
        )


def _grid(mp: MomentProblem, resolution, boxes=None):
    """Every box's closed tensor grid, box by box: ``(points, box_idx, table)``.

    ``points`` is (G, dim), ``box_idx`` (G,) names each point's box, and
    ``table`` (M + N + 1, G) is the boxes' ``_box_table`` side by side;
    ``boxes``, a sequence of box indices, limits it to those.  A grid over
    ``_check_grid_bytes``'s limit raises ValueError before anything is
    allocated.
    """
    _check_grid_bytes(mp, resolution, boxes)
    boxes = range(len(mp.domain.boxes)) if boxes is None else boxes
    blocks = [grid_array(mp.domain.boxes[i], resolution) for i in boxes]
    box_idx = np.concatenate([np.full(len(pts), i) for i, pts in zip(boxes, blocks)])
    table = np.hstack([_box_table(mp, i, pts) for i, pts in zip(boxes, blocks)])
    return np.vstack(blocks), box_idx, table


def assemble_grid_primal(mp: MomentProblem, resolution) -> GridPrimal:
    """LP over atom weights on the closed-box tensor grids of every box.

    Variables are atom weights w_g >= 0; rows are the M inequality moments
    (<= a) followed by the N equality moments (= b); the objective is
    max Σ h(x_g) w_g.
    """
    points, box_idx, table = _grid(mp, resolution)
    rhs = [bound for _, bound in mp.inequalities] + [bound for _, bound in mp.equalities]
    senses = ("<=",) * mp.n_ineq + ("=",) * mp.n_eq
    lp = make_lp("max", table[-1], table[:-1], senses, rhs)
    return GridPrimal(lp=lp, points=points, box_indices=box_idx)


@dataclass
class PrimalSolve:
    status: LPStatus
    value: float | None
    measure: AtomicMeasure | None
    outcome: LPOutcome
    grid: GridPrimal


def _atoms(points: np.ndarray, box_indices: np.ndarray, weights: np.ndarray) -> AtomicMeasure:
    """The atoms of an LP's weights over its columns, dropping those at the floor."""
    keep = np.flatnonzero(weights > ATOM_WEIGHT_FLOOR)
    return AtomicMeasure(
        points=tuple(map(tuple, points[keep].tolist())),
        weights=tuple(weights[keep].tolist()),
        box_indices=tuple(box_indices[keep].tolist()),
    )


def solve_grid_primal(mp: MomentProblem, resolution) -> PrimalSolve:
    """The grid LP on ``simplex._generate``, with the grid as its pool of columns.

    The loop starts from every moment row and no column, so Farkas pricing
    takes the first columns in and row-dual pricing the rest, as in
    ``duality_report``'s masters.  ``outcome`` is the grid LP's: its ``x``
    and ``ray`` are grid-wide, the restricted LP's values on the columns it
    took in and 0 elsewhere.
    """
    grid = assemble_grid_primal(mp, resolution)
    lp, every_row = grid.lp, np.arange(grid.lp.n_rows)
    # R holds every moment row from the start, so K[R, C] is a view of the LP's rows
    _, out, (_, C) = _generate(
        lambda R, C: lp.rows[:, C], lp.objective, lp.rhs, every_row >= mp.n_ineq,
        (every_row, np.zeros(0, dtype=int)),
    )

    def wide(v):  # the values on C, 0 on every other grid column
        if v is None:
            return None
        full = np.zeros(len(grid.points))
        full[C] = v
        return full

    out = replace(out, x=wide(out.x), ray=wide(out.ray))
    if out.status != LPStatus.OPTIMAL:
        return PrimalSolve(out.status, None, None, out, grid)
    measure = _atoms(grid.points, grid.box_indices, out.x)
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


class CutSet(Sequence):
    """Cuts held as arrays, one entry per cut, in the order they were added.

    ``box_index`` (C,), ``points`` (C, dim), ``rows`` (C, M + N) with each
    cut's phi values then its psi values, and ``h`` (C,); the first
    ``n_ineq`` columns of ``rows`` are phi.  It reads as a
    ``Sequence[Cut]``: an integer index gives a ``Cut`` whose fields are
    Python numbers and tuples, a slice or an array of indices gives a CutSet
    of those cuts, and ``==`` compares cut by cut.

    The four arrays are views of the filled part of a store that ``append``
    grows by doubling its capacity, so a run of appends copies each cut
    O(1) times, however large a grid pool is.  The store starts as the given
    arrays, uncopied and full, so the first append copies them and never
    writes into them.
    """

    def __init__(self, n_ineq: int, box_index, points, rows, h):
        self.n_ineq = n_ineq
        self._store = [np.asarray(a) for a in (box_index, points, rows, h)]
        self._len = len(self._store[-1])

    box_index = property(lambda self: self._store[0][: self._len])
    points = property(lambda self: self._store[1][: self._len])
    rows = property(lambda self: self._store[2][: self._len])
    h = property(lambda self: self._store[3][: self._len])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if isinstance(k, (slice, np.ndarray)):
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

        Slices taken earlier keep their own cuts: a slice's arrays end where
        the set ended, and a full store is copied into a new one of twice the
        size, never written past its end.
        """
        n = self._len
        if n == len(self._store[-1]):
            self._store = [
                np.concatenate([a, np.empty((max(n, 1),) + a.shape[1:], a.dtype)])
                for a in self._store
            ]
        for a, value in zip(self._store, (box_index, point, column[:-1], column[-1])):
            a[n] = value
        self._len = n + 1


def _seed_cuts(mp: MomentProblem, extra_cuts=()) -> CutSet:
    """The corner and center cuts of every box, then ``extra_cuts``.

    Points are valued box by box with ``_box_table``.  Extra points already
    among the corners and centers, and repeats, are dropped: the first
    occurrence wins and the given order is kept.  With no extra cuts the
    arrays are ``_kept``'s, built once per problem for both exchange loops:
    the CutSet's store starts as them, so its first append copies them.
    """
    extra = list(extra_cuts)
    if extra:
        return CutSet(mp.n_ineq, *_seed_arrays(mp, extra))
    return CutSet(mp.n_ineq, *_kept(mp, ("seeds",), lambda: _seed_arrays(mp, [])))


def _seed_arrays(mp: MomentProblem, extra: list) -> tuple:
    """``_seed_cuts``'s (box_index, points, rows, h)."""
    seeds = [
        (i, p) for i, box in enumerate(mp.domain.boxes) for p in box.corners() + [box.center()]
    ]
    seeds += extra
    box_idx = np.array([i for i, _ in seeds], dtype=int)
    points = np.array([p for _, p in seeds], dtype=float).reshape(len(seeds), mp.domain.dim)
    lower = np.array([b.lower for b in mp.domain.boxes])[box_idx]
    upper = np.array([b.upper for b in mp.domain.boxes])[box_idx]
    outside = ~np.all((points >= lower - 1e-9) & (points <= upper + 1e-9), axis=1)
    if outside.any():
        g = int(np.argmax(outside))
        pt = tuple(points[g].tolist())
        raise ValueError(f"point {pt} is not in the closure of box {box_idx[g]}")

    # first occurrence of each (box, point)
    keys = np.column_stack([box_idx, points])
    order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in given order
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    keep = np.sort(order[first])
    box_idx, points = box_idx[keep], points[keep]

    table = np.empty((mp.n_ineq + mp.n_eq + 1, len(points)))
    for i in np.unique(box_idx):
        sel = np.flatnonzero(box_idx == i)
        table[:, sel] = _box_table(mp, int(i), points[sel])
    return box_idx, points, table[:-1].T, table[-1]


def restricted_dual_lp(mp: MomentProblem, cuts: Sequence[Cut]) -> FiniteLP:
    """The (y, z)-variable form: min a.y + b.z s.t. one >= row per cut.

    No solver builds it (the masters solve the cut-supported primal); it is
    the reference the masters' values are checked against.
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
    lower = np.concatenate([np.zeros(M), np.full(N, -np.inf)])
    return make_lp("min", obj, A, (">=",) * len(cuts), rhs, lower=lower)


@dataclass(frozen=True)
class SeparationResult:
    box_index: int
    point: tuple[float, ...]
    slack: float
    # the point's ``_box_table`` column: phi, psi, then h
    column: np.ndarray = field(repr=False, compare=False)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ZOOM_POINTS = 129  # points per zoom round; a round keeps 2 of their 128 gaps
_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)
_ZOOM_DEPTH = 40  # the zoom ends no wider than a golden-section bracket after this many steps


def _zoom_axis(lo: float, hi: float) -> np.ndarray:
    """``np.linspace(lo, hi, _ZOOM_POINTS)`` by its own arithmetic, without its overhead.

    Bit for bit the same whenever the step ``(hi - lo) / (_ZOOM_POINTS - 1)``
    is nonzero.
    """
    axis = _ZOOM_STEPS * ((hi - lo) / (_ZOOM_POINTS - 1)) + lo
    axis[-1] = hi
    return axis


def _scan_axes(dim: int) -> list[int]:
    """Points per axis of the oracle's scan mesh: about 1024 per box, spread across the axes."""
    return _axis_counts(dim, max(2, int(round(1024 ** (1.0 / dim)))))


_VERIFICATION_FACTOR = 4


def _verification_axes(mp: MomentProblem) -> list[int]:
    """Points per axis of the verification scan, worked out from the problem.

    ``_VERIFICATION_FACTOR`` times the scan's where that mesh on every box
    passes ``_check_grid_bytes``; else the most that do, at least the scan's.
    """
    dim, scan = mp.domain.dim, _scan_axes(mp.domain.dim)[0]
    for r in range(_VERIFICATION_FACTOR * scan, scan, -1):
        try:
            _check_grid_bytes(mp, r)
            return _axis_counts(dim, r)
        except ValueError:
            pass
    return _axis_counts(dim, scan)


# a piece's slack is read from its power coefficients only while their
# rounding (``expressions._Program.polynomial``'s error, weighted by the
# multipliers) is bounded by this, a hundredth of the default tol; past it
# (a steep power whose terms cancel where the slack is least, say) the box
# is scanned for that dual
EXACT_SLACK_ERROR = 1e-8
_EPS = np.finfo(float).eps


class _Exact(NamedTuple):
    """The polynomial pieces of a problem's 1-D boxes, side by side (see ``_exact_pieces``).

    Piece p lies in box ``box[p]`` from ``lower[p]`` to ``upper[p]`` in that
    box's ``t = (x - lo) / (hi - lo)``, with ``lo[p]`` and ``hi[p]`` the box's
    ends; ``coeffs[:, p]`` holds the power coefficients in t of every
    ``_box_table`` row there, padded to one width.  ``error[:, i]`` bounds
    each row's rounding on box i: its ``_Program.polynomial`` error plus
    what a weighted sum of the rows and Horner's rule add, per unit of the
    row's weight (0 on a box that is not exact).  ``fixed_x`` are every
    exact box's ends and breakpoints, in boxes ``fixed_box``, with their
    ``_box_table`` columns ``fixed_table``.
    """

    exact: np.ndarray        # (B,) whether box i is read as polynomial pieces
    box: np.ndarray          # (P,)
    lower: np.ndarray        # (P,)
    upper: np.ndarray        # (P,)
    lo: np.ndarray           # (P,)
    hi: np.ndarray           # (P,)
    coeffs: np.ndarray       # (M + N + 1, P, W)
    error: np.ndarray        # (M + N + 1, B)
    fixed_box: np.ndarray    # (F,)
    fixed_x: np.ndarray      # (F,)
    fixed_table: np.ndarray  # (M + N + 1, F)


def _exact_pieces(mp: MomentProblem) -> _Exact:
    """``_Program.polynomial`` of every 1-D box's program, where it has one.

    A box is exact when its program reads as piecewise polynomials (see
    ``expressions._Program.polynomial``); a box of a problem in more than
    one dimension never is.
    """
    boxes = mp.domain.boxes
    exact = np.zeros(len(boxes), dtype=bool)
    found = []
    if mp.domain.dim == 1:
        for i, box in enumerate(boxes):
            lo, hi = box.lower[0], box.upper[0]
            reading = _problem_program(mp, i, _box_functions(mp, i)).polynomial(lo, hi)
            if reading is not None:
                exact[i] = True
                found.append((i, lo, hi) + reading)
    # one row (box, t from, t to, box lower end, box upper end) per piece
    spans = np.array([
        (i, t0, t1, lo, hi)
        for i, lo, hi, breaks, _, _ in found
        for t0, t1 in zip(np.concatenate([[0.0], breaks]), np.concatenate([breaks, [1.0]]))
    ]).reshape(-1, 5)
    rows = mp.n_ineq + mp.n_eq + 1
    coeffs = np.zeros((rows, len(spans), max((c.shape[2] for *_, c, _ in found), default=1)))
    error = np.zeros((rows, len(boxes)))
    fixed = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros((rows, 0)))]
    first = 0
    for i, lo, hi, breaks, c, e in found:
        coeffs[:, first:first + c.shape[1], : c.shape[2]] = c
        first += c.shape[1]
        # summing the rows and Horner's rule: a rounding of each term each
        size = np.abs(c).sum(axis=2).max(axis=1)
        error[:, i] = e + (rows + c.shape[2]) * _EPS * size
        x = np.concatenate([[lo], np.clip(lo + (hi - lo) * breaks, lo, hi), [hi]])
        fixed.append((np.full(len(x), i), x, _box_table(mp, i, x[:, None])))
    fixed_box, fixed_x, fixed_table = (np.concatenate(a, axis=-1) for a in zip(*fixed))
    return _Exact(
        exact, spans[:, 0].astype(int), *spans[:, 1:].T, coeffs, error,
        fixed_box, fixed_x, fixed_table,
    )


class _ScanOracle:
    """Separation oracle: exact on polynomial 1-D boxes, a scan and a zoom on the rest.

    On an exact box (``_exact_pieces``, ``_kept`` per problem) the slack is
    a polynomial on each piece, so its minimum lies at an end of the box, a
    breakpoint, or a real root of its derivative.  The roots of every piece
    of every box come from one ``expressions._real_roots``, and the point
    returned is valued with ``_box_table``, so its column is the cut and the
    slack is computed from it.  Of equal slacks the lower box wins, then the
    lower point.  An exact box is read so only while every piece's slack
    coefficients carry at most ``EXACT_SLACK_ERROR`` of rounding at this
    dual (see ``scanned``); within that bound Horner's rule ranks the
    roots, and those within twice the bound of the least are valued.

    The other boxes are scanned: ``mesh(i)`` returns box i's ``_grid(mp,
    res, (i,))``, built only when box i is scanned; the exchange loops pass
    one ``_kept`` per problem and box, so
    ``exchange_solve`` and ``check_dual_slater`` share it, while
    ``separation_oracle`` builds its own.  The scan takes each box's argmin
    of the slack in box order, the lower box winning a tie, and zooms in on
    the least; the zoom scores points with the scan's slack formula, on
    ``_box_table`` columns, so the column it returns is the cut.
    """

    def __init__(self, mp: MomentProblem, res: list[int], mesh):
        advice = "no setting sizes it: use fewer boxes or dimensions"  # any box may be scanned
        _check_grid_bytes(mp, res, grid="the separation oracle's mesh", advice=advice)
        self.mp = mp
        self.mesh = mesh
        self.exact = _kept(mp, ("exact",), lambda: _exact_pieces(mp))
        self.steps = [  # per box: scan step per axis
            [(u - l) / (r - 1) for l, u, r in zip(box.lower, box.upper, res)]
            for box in mp.domain.boxes
        ]

    def find(self, dual: DualPoint) -> SeparationResult:
        yz = np.concatenate([dual.y, dual.z])
        s, scan = self._read(yz, dual.ray)
        found = []
        if len(self.exact.box):
            found.append(self._exact_min(yz, dual.ray, s, ~scan[self.exact.box]))
        if scan.any():
            found.append(self._scan(yz, dual.ray, np.flatnonzero(scan)))
        slack, box_index, point, column = min(found, key=lambda f: (f[0], f[1]))
        return SeparationResult(box_index, tuple(point.tolist()), slack, column)

    def scanned(self, dual: DualPoint) -> np.ndarray:
        """(B,) which boxes ``find(dual)`` scans: those not exact, and those it may not read so."""
        return self._read(np.concatenate([dual.y, dual.z]), dual.ray)[1]

    def _read(self, yz, ray):
        """The slack's power coefficients on every exact piece, and the boxes to scan.

        A box's bound on the rounding of its slack is the multipliers'
        weighting of its rows' ``error``.
        """
        ex = self.exact
        if not len(ex.box):
            return None, ~ex.exact
        s = yz @ ex.coeffs[:-1].reshape(len(yz), -1)
        bound = np.abs(yz) @ ex.error[:-1]
        if not ray:
            s -= ex.coeffs[-1].reshape(-1)
            bound += ex.error[-1]
        return s.reshape(-1, ex.coeffs.shape[2]), ~ex.exact | (bound > EXACT_SLACK_ERROR)

    def _scan(self, yz, ray, boxes):
        """(slack, box, point, column) of the least of ``boxes``' scan argmins, zoomed in on."""
        best = None
        for i in boxes.tolist():
            points, _, table = self.mesh(i)
            slack = _slack(yz, table, ray)
            g = int(np.argmin(slack))
            if best is None or slack[g] < best[0]:
                best = float(slack[g]), i, points[g], table[:, g]
        slack, box_index, point, column = best
        slack, point, column = self._zoom(yz, ray, box_index, point, slack, column)
        return slack, box_index, point, column

    def _exact_min(self, yz, ray, s, read):
        """(slack, box, point, column) of the least slack over the exact boxes.

        The fixed candidates' slacks come from their kept columns; the
        roots are taken on the pieces ``read`` only and ranked by the
        slack's coefficients ``s``, and those that may be the least are
        valued with ``_box_table``, one call per box; the slack returned is
        its column's.
        """
        ex = self.exact
        g = int(np.argmin(_slack(yz, ex.fixed_table, ray)))  # ties: lower box, then point
        column = ex.fixed_table[:, g]
        slack = float(_slack(yz, column[:, None], ray)[0])  # as the column alone gives it
        best = slack, int(ex.fixed_box[g]), ex.fixed_x[g:g + 1], column
        width = s.shape[1]
        derivative = s[:, 1:] * np.arange(1, width)
        if read.all():
            piece, t = _real_roots(derivative)
        else:
            live = np.flatnonzero(read)
            piece, t = _real_roots(derivative[live])
            piece = live[piece]
        inside = (t > ex.lower[piece]) & (t < ex.upper[piece])
        if not inside.any():
            return best
        piece, t = piece[inside], t[inside]
        values = _horner(s[piece], t)
        least = values.min()
        if least >= best[0] + EXACT_SLACK_ERROR:  # no root is lower than the ends and breakpoints
            return best
        # each value is within the bound of its root's slack, so any root
        # within twice the bound of the least may be the least
        near = values <= least + 2.0 * EXACT_SLACK_ERROR
        piece, t = piece[near], t[near]
        lo, hi, box = ex.lo[piece], ex.hi[piece], ex.box[piece]
        x = np.minimum(np.maximum(lo + (hi - lo) * t, lo), hi)
        for i in sorted(set(box.tolist())):  # ties: lower box, then point
            pts = np.sort(x[box == i])[:, None]
            table = _box_table(self.mp, i, pts)
            slack = _slack(yz, table, ray)
            k = int(np.argmin(slack))
            least = float(_slack(yz, table[:, k:k + 1], ray)[0])  # as the column alone gives it
            if least < best[0]:
                best = least, i, pts[k], table[:, k]
        return best

    def _zoom(self, yz, ray, box_index, x, slack, column):
        """Coordinate-wise zoom around the scan argmin ``x``; returns the best point seen.

        Axis j starts from the bracket of one scan step either side of x_j,
        clipped to the box.  Each round values ``_ZOOM_POINTS`` equally
        spaced points in one ``_box_table`` call and keeps the gaps either
        side of the best one, until the bracket is no wider than a
        golden-section search's after ``_ZOOM_DEPTH`` steps (none at 0).
        """
        box = self.mp.domain.boxes[box_index]
        for j, step in enumerate(self.steps[box_index]):
            lo, hi = max(box.lower[j], x[j] - step), min(box.upper[j], x[j] + step)
            width = (hi - lo) * _INVPHI ** _ZOOM_DEPTH
            while hi - lo > width:
                trial = np.repeat([x], _ZOOM_POINTS, axis=0)
                trial[:, j] = _zoom_axis(lo, hi)
                table = _box_table(self.mp, box_index, trial)
                s = _slack(yz, table, ray)
                k = int(np.argmin(s))
                if s[k] < slack:
                    slack, x, column = float(s[k]), trial[k], table[:, k]
                bracket = trial[max(k - 1, 0), j], trial[min(k + 1, _ZOOM_POINTS - 1), j]
                if bracket == (lo, hi):  # no float left between the points
                    break
                lo, hi = bracket
        return slack, x, column


def separation_oracle(mp: MomentProblem, dual: DualPoint) -> SeparationResult:
    """Most-violated point of the dual constraint: argmin of the slack.

    On a 1-D box whose functions are piecewise polynomials of degree at
    most ``expressions.MAX_POLYNOMIAL_DEGREE`` (``+ - *``, integer powers,
    ``min``, ``max`` and ``abs``; see ``expressions._Program.polynomial``)
    the minimum is exact, up to rounding: the least slack over the box's
    ends, its breakpoints and the real roots of the slack's derivative.
    Such a box is scanned after all at a dual where the rounding of its
    slack's power coefficients may pass ``EXACT_SLACK_ERROR``.
    Other boxes are scanned on ``_scan_axes``' per-box tensor grid, the
    same for every caller, then zoomed in on coordinate-wise: each round
    values a bracket of equally spaced points in one batch and shrinks it
    to the best point's neighbours, until it is no wider than a
    golden-section bracket after ``_ZOOM_DEPTH`` steps, the same depth for
    every caller.  The returned point is the best point actually
    evaluated, so it is never worse than the scan argmin.  slack < 0 means
    the dual point is infeasible at that point.
    """
    res = _scan_axes(mp.domain.dim)
    return _ScanOracle(mp, res, lambda i: _grid(mp, res, (i,))).find(dual)


@dataclass
class IterationRecord:
    """One exchange iteration; an infeasible master gives its ray as ``dual`` and -inf."""

    value: float
    dual: DualPoint
    measure: AtomicMeasure | None  # the master's primal measure, if it has one
    worst_point: tuple[float, ...]
    worst_box: int
    slack: float


@dataclass
class ExchangeResult:
    """Outcome of ``exchange_solve``.

    ``cuts`` is the final working set as a CutSet: the corner and center
    cuts and the seeded ones, or a GridPrimal's columns in grid order, then
    one cut per iteration that did not stop the loop.  Until a cut is
    appended its arrays are those it started from: the corner and center
    cuts alone are the problem's kept read-only arrays (see ``_kept``).
    Each ``history`` record holds its master's primal measure (None where
    the master was infeasible): a feasible measure, so a lower bound.
    ``value`` is None whenever the last dual is a ray, "dual_unbounded" or
    "not_converged"; a "dual_unbounded" dual is the ray that the oracle
    found no point to cut off.
    """

    status: str  # "converged" | "not_converged" | "dual_unbounded"
    value: float | None
    dual: DualPoint | None
    cuts: CutSet
    iterations: int
    history: list[IterationRecord]
    final_slack: float | None


def _exchange(mp, cuts, master, tol, max_iters):
    """The exchange loop of both the dual and the dual Slater check.

    ``cuts`` is the working CutSet.  ``master(cuts)`` solves on it and
    returns (value, dual point, primal measure or None, target); the loop
    stops once the oracle's worst slack is >= target - tol, else appends
    that point's cut.  Returns (converged, one IterationRecord per
    iteration); a bad ``tol`` or ``max_iters`` raises ValueError naming it.
    The oracle's polynomial pieces and scan meshes are ``_kept`` per
    problem, so the two loops on one problem build them once, and a box's
    mesh only if it is scanned.
    """
    _check_loop(tol, max_iters)
    res = _scan_axes(mp.domain.dim)
    mesh = lambda i: _kept(mp, ("scan", i), lambda: _grid(mp, res, (i,)))
    oracle = _ScanOracle(mp, res, mesh)
    history: list[IterationRecord] = []
    for _ in range(int(max_iters)):
        value, dual, measure, target = master(cuts)
        sep = oracle.find(dual)
        history.append(IterationRecord(value, dual, measure, sep.point, sep.box_index, sep.slack))
        if sep.slack >= target - tol:
            return True, history
        cuts.append(sep.box_index, sep.point, sep.column)
    return False, history


def exchange_solve(
    mp: MomentProblem,
    tol: float = SolverConfig.tol,
    max_iters: int = SolverConfig.max_iters,
    extra_cuts: Sequence[tuple[int, Sequence[float]]] | GridPrimal = (),
) -> ExchangeResult:
    """Exchange method for the dual: master LP on a working cut set + oracle.

    Starts from the corner and center cuts of every box plus ``extra_cuts``
    given as (box_index, point) pairs, or from a GridPrimal's columns alone,
    and stops when the worst slack is >= -tol.  The cut set is a CutSet,
    one cut per iteration longer, returned as ``ExchangeResult.cuts``.
    Master values are nondecreasing because cuts only ever add columns to
    the cut-supported primal.

    Each master is ``simplex._generate`` with every moment row and, as the
    columns to start from, the working set W.  With a grid, W starts empty
    and keeps the columns taken in and each oracle cut: the grid is a pool
    that the masters price in (an infeasible one by its Farkas vector), so
    the first master is ``solve_grid_primal``'s solve.  Without a grid W
    holds every cut, and each iteration solves once.  The master is one
    ``simplex._Master`` kept from iteration to iteration, which each new cut
    joins as a column, so the loop builds one master, not an LP per
    iteration.

    An infeasible master means the restricted dual is unbounded below on the
    working set: its Farkas vector, negated and scaled to max |entry| 1, is
    a ray (y >= 0, z) of that dual, with Σ y φ + Σ z ψ >= 0 on every cut
    and a.y + b.z < 0.  The oracle separates against the ray, with no h
    term: a point where it goes negative joins as a cut, and a ray that no
    point cuts off ends the loop as "dual_unbounded", with the ray as the
    dual.  An infeasible restricted dual (possible only when the primal is
    unbounded above) raises ExchangeError.
    """
    # W, and the count of cuts placed; a grid's arrays are the store (views
    # that the first append copies) and the masters' pool, and W starts empty
    if isinstance(extra_cuts, GridPrimal):
        g = extra_cuts
        cuts = CutSet(mp.n_ineq, g.box_indices, g.points, g.lp.rows.T, g.lp.objective)
        work = np.zeros(0, dtype=int)
    else:
        cuts = _seed_cuts(mp, extra_cuts)
        work = np.arange(len(cuts))
    seen = len(cuts)
    M, N = mp.n_ineq, mp.n_eq
    every_row = np.arange(M + N)
    rhs = np.array([bound for _, bound in mp.inequalities + mp.equalities])
    equality = every_row >= M
    kept = None  # the master's _Master, kept from one iteration to the next

    def master(cuts):
        nonlocal work, seen, kept
        work, seen = np.concatenate([work, np.arange(seen, len(cuts))]), len(cuts)
        # R holds every moment row from the start, so K[R, C] is the cuts' rows
        # transposed, and for every column a view: no copy of a grid pool
        table = lambda R, C: cuts.rows[C].T
        start = every_row, work
        kept, out, (_, work) = _generate(table, cuts.h, rhs, equality, start, master=kept)
        if out.status == LPStatus.UNBOUNDED:
            raise ExchangeError(
                "restricted dual infeasible: the primal is unbounded above on the working cut set"
            )
        if out.status == LPStatus.INFEASIBLE:  # on every cut: the Farkas vector says so
            ray = out.duals / -np.max(np.abs(out.duals))
            return -math.inf, DualPoint(_clip_duals(ray, M), ray[M:], ray=True), None, 0.0
        measure = _atoms(cuts.points[work], cuts.box_index[work], out.x)
        dual = DualPoint(y=tuple(_clip_duals(out.duals, M)), z=tuple(out.duals[M:]))
        return float(out.value), dual, measure, 0.0

    converged, history = _exchange(mp, cuts, master, tol, max_iters)
    last, ray = history[-1], history[-1].dual.ray
    status = "not_converged" if not converged else "dual_unbounded" if ray else "converged"
    return ExchangeResult(
        status=status,
        value=None if ray else last.value,
        dual=last.dual, cuts=cuts,
        iterations=len(history), history=history, final_slack=last.slack,
    )


# ---------------------------------------------------------------------------
# Slater condition checks

SLATER_CAP = 1e6


def _max_margin(table, cost, rhs, equality, start, column, master=None):
    """(t, x, master) of the margin LP: ``max cost . v + t``, v >= 0, t <= SLATER_CAP.

    The rows are ``K[j] . v + column[j] t`` ``=`` ``rhs[j]`` where
    ``equality[j]``, else ``<=``.  Every Slater check solves this LP, on
    ``simplex._generate`` from ``start = (R, C)``, with ``t`` as the fixed
    column, going on from ``master`` where an earlier call's LP has grown;
    ``table`` values ``K`` as the loop asks, and x is the restricted LP's
    (v_C, t).  An infeasible LP gives (-inf, None).  The cap bounds the
    optimum, so any other status is a solver bug and raises WeakDualityError.
    """
    t = _Fixed(np.ones(1), np.full(1, -np.inf), np.full(1, SLATER_CAP), column[:, None])
    master, out, _ = _generate(table, cost, rhs, equality, start, t, master)
    if out.status == LPStatus.INFEASIBLE:
        return -math.inf, None, master
    if out.status != LPStatus.OPTIMAL:
        raise WeakDualityError(f"slater margin LP reported {out.status.value}")
    return float(out.x[-1]), out.x, master


def _capped(margin: float) -> bool:
    """Whether a margin sits at SLATER_CAP, up to the simplex's roundoff."""
    return margin >= SLATER_CAP * (1.0 - 1e-6)


@dataclass
class DualSlaterReport:
    """Largest t with Σ y φ + Σ z ψ - h >= t everywhere, capped at SLATER_CAP."""

    margin: float
    witness: DualPoint | None
    converged: bool
    capped: bool
    iterations: int


def check_dual_slater(
    mp: MomentProblem,
    tol: float = SolverConfig.tol,
    max_iters: int = SolverConfig.max_iters,
) -> DualSlaterReport:
    """Maximize the uniform dual slack t over the domain (exchange loop).

    The master is the margin LP over (y >= 0, z split into two nonnegative
    parts, t <= SLATER_CAP) with one row per cut, one ``simplex._Master``
    that each new cut joins as a row, by dual simplex.  The oracle is
    ``exchange_solve``'s: exact on polynomial 1-D boxes, where the margin is
    certified on the whole box up to rounding; on the boxes it scans it is
    certified against the scan points and the zoom's, on the mesh and to
    the depth of every other caller.  Margin > 0 certifies the
    strict-positivity hypothesis there.  Whenever a constraint can lift the
    slack uniformly (any problem with a total-mass constraint), the margin
    is unbounded and reports the cap.  Its seed cuts, polynomial pieces and
    scan meshes are ``exchange_solve``'s, built once while ``mp`` is the last
    problem valued (see ``_kept``), so the two loops on one problem value
    them once.

    A tiny penalty on the multiplier norm breaks the master's degeneracy:
    once t sits at the cap every feasible (y, z) is optimal, and without
    the penalty the vertex sequence wanders instead of settling on one
    certificate.  The reported margin is the t component, not the
    penalised objective.
    """
    M, N = mp.n_ineq, mp.n_eq
    eps = 1e-9  # lexicographic tie-break; shifts t* by at most eps * |(y, z)|_1
    kept = None  # the margin LP's _Master: each new cut joins it as a row

    # K's columns (y, z+, z-) as columns of a cut's row, and their signs in
    # each cut's >= row negated into <=
    source = np.concatenate([np.arange(M + N), np.arange(M, M + N)])
    sign = np.concatenate([np.full(M + N, -1.0), np.ones(N)])

    def master(cuts):
        nonlocal kept
        table = lambda R, C: cuts.rows[R][:, source[C]] * sign[C]  # the cuts R alone
        every = np.arange(len(cuts)), np.arange(M + 2 * N)
        equality, t_column = np.zeros(len(cuts), dtype=bool), np.ones(len(cuts))
        cost = np.full(M + 2 * N, -eps)
        t, x, kept = _max_margin(table, cost, -cuts.h, equality, every, t_column, kept)
        if x is None:  # t is free below, so only a solver bug lands here
            raise WeakDualityError("slater master reported infeasible")
        z = x[M:M + N] - x[M + N:M + 2 * N]
        return t, DualPoint(y=tuple(_clip_duals(x, M)), z=tuple(z)), None, t

    converged, history = _exchange(mp, _seed_cuts(mp), master, tol, max_iters)
    margin = history[-1].value
    return DualSlaterReport(
        margin=margin, witness=history[-1].dual, converged=converged,
        capped=_capped(margin), iterations=len(history),
    )


@dataclass
class PrimalSlaterReport:
    """Largest uniform inequality slack of a feasible grid measure, capped at SLATER_CAP.

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
    mp: MomentProblem, resolution=SolverConfig.slater_resolution
) -> PrimalSlaterReport:
    """Maximize delta with moments(w) + delta <= a and moments(w) = b over grid weights w >= 0."""
    rows = _grid(mp, resolution)[2][:-1]
    M, N = mp.n_ineq, mp.n_eq
    rank = int(np.linalg.matrix_rank(rows[M:, :])) if N else 0
    rhs = np.array([bound for _, bound in mp.inequalities + mp.equalities])
    every = np.arange(M + N), np.arange(rows.shape[1])  # the whole grid from the start
    delta = np.concatenate([np.ones(M), np.zeros(N)])
    margin, x, _ = _max_margin(
        lambda R, C: rows[R][:, C], np.zeros(rows.shape[1]), rhs, every[0] >= M, every, delta
    )
    return PrimalSlaterReport(
        margin=margin, feasible=x is not None, equality_rank=rank, n_equalities=N,
        capped=_capped(margin),
    )


# ---------------------------------------------------------------------------
# the full report


class ReportStatus(str, Enum):
    STRONG_DUALITY = "strong_duality_numerically"
    GAP_REMAINS = "gap_remains"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    PRIMAL_UNBOUNDED = "primal_unbounded"
    NOT_CONVERGED = "not_converged"


def _exchange_options(config: SolverConfig) -> dict:
    """The config fields that exchange_solve and check_dual_slater take."""
    return {"tol": config.tol, "max_iters": config.max_iters}


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


def _verification_scan(mp, last: IterationRecord) -> float:
    """Max violation of the dual constraint at the exchange's ``last`` dual, on a finer mesh.

    An exact box's violation is its exact maximum; only the boxes scanned
    at that dual are valued, on the ``_verification_axes`` mesh.  Where no
    box is, the finer mesh changes nothing, and the exchange's own last
    oracle call on that dual gives the answer.
    """
    fine = _verification_axes(mp)
    oracle = _ScanOracle(mp, fine, lambda i: _grid(mp, fine, (i,)))
    scanned = oracle.scanned(last.dual).any()
    return max(0.0, -(oracle.find(last.dual).slack if scanned else last.slack))


def duality_report(mp: MomentProblem, config: SolverConfig | None = None) -> DualityReport:
    """Solve both routes from one exchange, certify weak duality, check Slater.

    The grid primal is the exchange's cut set, and its masters start from no
    column and price the grid in (see ``exchange_solve``), so the first
    master is the very solve of ``solve_grid_primal``: the primal value and
    atoms are read from it.  Where that master is infeasible, a later one
    that took oracle cuts in may not be, and every master's measure is
    feasible: the primal value and atoms are then the last such measure's,
    and a note says that the grid primal was infeasible.  The primal is
    infeasible only when the exchange ends "dual_unbounded", on a ray
    (``DualPoint.ray``) that the oracle does not cut off; the report's dual is
    that ray, a note says so, and ``max_dual_violation`` is the ray's own,
    with no h term.  Later masters only add columns, so the dual value
    dominates the primal; WeakDualityError is raised if a converged dual
    still lands more than 1e-8 * (1 + |dual|) below it, which only a solver
    bug can cause.  A grid primal that is unbounded above makes the
    exchange raise ExchangeError.
    """
    config = config or SolverConfig()
    notes: list[str] = []

    grid = assemble_grid_primal(mp, config.grid_resolution)
    ex = exchange_solve(mp, extra_cuts=grid, **_exchange_options(config))
    lower = ex.history[0]  # the grid primal's solve
    if lower.measure is None and ex.status != "dual_unbounded":
        lower = next((r for r in reversed(ex.history) if r.measure is not None), lower)
        notes.append(
            f"the grid primal is infeasible at grid resolution {config.grid_resolution}: "
            "the primal value, if any, is the last feasible exchange master's"
        )
    primal_value = None if lower.measure is None else lower.value
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
        max_violation = _verification_scan(mp, ex.history[-1])
        if ex.dual.ray:
            notes.append(
                "the dual is a ray (a.y + b.z < 0, and Σ y φ + Σ z ψ >= 0 on every "
                "box read as polynomial pieces and at the scan points of the others): "
                "the dual is unbounded below, and its max violation drops h"
            )

    gap = None
    if primal_value is not None and ex.value is not None:
        gap = ex.value - primal_value
        if ex.status == "converged" and gap < -WEAK_DUALITY_RTOL * (1.0 + abs(ex.value)):
            raise WeakDualityError(
                f"weak duality violated: primal {primal_value!r} > dual {ex.value!r}"
            )

    if ex.status == "dual_unbounded":  # a ray that certifies the primal infeasible
        status = ReportStatus.PRIMAL_INFEASIBLE
    elif ex.status == "not_converged":
        status = ReportStatus.NOT_CONVERGED
    elif gap is not None and gap <= config.gap_rtol * (1.0 + abs(ex.value)):
        status = ReportStatus.STRONG_DUALITY
    else:
        status = ReportStatus.GAP_REMAINS

    return DualityReport(
        status=status,
        primal_value=primal_value,
        dual_value=ex.value,
        gap=gap,
        max_dual_violation=max_violation,
        iterations=ex.iterations,
        atoms=lower.measure,
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
