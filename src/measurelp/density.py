"""Linear programs over nonnegative densities on a box.

A density problem asks for ``max ∫ c(x) f(x) dx`` over densities ``f ≥ 0`` on a
box, subject to kernel constraints ``∫ A(y,x) f(x) dx ≤ a(y)`` for every ``y``
in an inequality box and ``∫ B(z,x) f(x) dx = b(z)`` for every ``z`` in an
equality box.  This module provides

- quadrature evaluators for the kernel column norms ``tau(x) = ||A(.,x)||_p``
  and row norms ``rho(y) = ||A(y,.)||_q`` (conjugate exponents 1/p + 1/q = 1),
- a randomized check that the induced integral operator obeys the triangle /
  Hoelder bound chain and a Lipschitz modulus ``M = max sampled rho``,
- a collocation discretization producing a primal/dual pair of finite LPs
  that are exact LP duals of each other (up to quadrature weighting); the
  report solves the primal alone and reads the dual solution off its row
  duals, checked for dual feasibility, and
- a strict-feasibility margin diagnostic with a rank report for the
  discretized equality operator; it solves ``moment._max_margin`` with the
  margin as the fixed column, its row sums valued a chunk of rows at a time.

Every collocated LP, the margin LP included, is solved on the generation
loop of ``simplex`` (``simplex._generate``), with the collocation points as
its rows and the domain cells as its columns, so only the kernel blocks of
the rows and cells it takes in are valued, whether the LP is optimal,
infeasible or unbounded.  ``discretize_lp_density`` builds the dense pair
from the same rows; nothing in the package solves it.

All quadrature uses the composite midpoint rule, which matches the piecewise
constant density class used throughout: a discrete density takes one value
per grid cell, and every norm or integral below is the midpoint-rule value on
the same cells.  The exponent ``p`` enters only the norm checks; the
collocation LPs themselves are independent of ``p``.

Objective, bound and kernel values run on the per-problem program cache of
``expressions`` (``_values``); a value that is not finite, or a Slater row
sum that is not, raises ValueError naming the expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .expressions import Expression, _problem_table
from .geometry import Box, _axis_counts
from .moment import _GRID_BYTES, ReportStatus, _capped, _check_tolerance, _max_margin
from .simplex import FEAS_TOL, FiniteLP, LPStatus, NumericalFailure, _generate
from .simplex import kkt_residuals, make_lp

DEFAULT_QUAD_RESOLUTION = 128
ROUNDOFF_SLACK = 1e-12


@dataclass(frozen=True)
class LpDensityProblem:
    """max ∫ c f dx over f ≥ 0 with kernel inequality/equality constraints.

    ``kernel_a`` takes the inequality-point variables first and the domain
    variables second (arity ``ineq_domain.dim + domain.dim``); ``kernel_b``
    likewise with the equality-point variables first.  Each constraint family
    is optional but must come complete (kernel, bound, box); at least one
    family is required.
    """

    domain: Box
    objective: Expression
    p: float = 2.0
    kernel_a: Expression | None = None
    bound_a: Expression | None = None
    ineq_domain: Box | None = None
    kernel_b: Expression | None = None
    bound_b: Expression | None = None
    eq_domain: Box | None = None
    name: str = "lp-density"

    def __post_init__(self):
        if not (math.isfinite(self.p) and 1.0 < self.p):
            raise ValueError(f"exponent p must satisfy 1 < p < inf, got {self.p}")
        if self.objective.arity != self.domain.dim:
            raise ValueError(
                f"objective arity {self.objective.arity} does not match "
                f"domain dimension {self.domain.dim}"
            )
        for label, kernel, bound, box in (
            ("a", self.kernel_a, self.bound_a, self.ineq_domain),
            ("b", self.kernel_b, self.bound_b, self.eq_domain),
        ):
            parts = (kernel, bound, box)
            if all(v is None for v in parts):
                continue
            if any(v is None for v in parts):
                raise ValueError(
                    f"constraint family {label!r} needs kernel, bound, and box together"
                )
            if kernel.arity != box.dim + self.domain.dim:
                raise ValueError(
                    f"kernel {label!r} arity {kernel.arity} does not match "
                    f"{box.dim} + {self.domain.dim}"
                )
            if bound.arity != box.dim:
                raise ValueError(
                    f"bound {label!r} arity {bound.arity} does not match "
                    f"box dimension {box.dim}"
                )
        if self.kernel_a is None and self.kernel_b is None:
            raise ValueError("need at least one constraint family")

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)

    @property
    def has_inequalities(self) -> bool:
        return self.kernel_a is not None

    @property
    def has_equalities(self) -> bool:
        return self.kernel_b is not None


def midpoint_axes(box: Box, resolution) -> list[np.ndarray]:
    """Midpoints of ``resolution`` equal cells per axis, one count or one per axis."""
    axes = []
    for l, u, r in zip(box.lower, box.upper, _axis_counts(box.dim, resolution, least=1)):
        step = (u - l) / r
        axes.append(l + (np.arange(r) + 0.5) * step)
    return axes


def midpoint_grid(box: Box, resolution) -> tuple[np.ndarray, float]:
    """Cell midpoints (lexicographic, shape ``(count, dim)``) and cell volume."""
    axes = midpoint_axes(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    cells = int(points.shape[0])
    return points, box.volume / cells


def _pair_points(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All (left_j, right_i) concatenations, left-major ordering.

    The array is stored column-major, so each variable a program reads is
    one contiguous column.
    """
    (j, d), i = left.shape, right.shape[0]
    columns = np.empty((d + right.shape[1], j * i))
    columns[:d].reshape(d, j, i)[...] = left.T[:, :, None]
    columns[d:].reshape(-1, j, i)[...] = right.T[:, None, :]
    return columns.T


def _values(pb: LpDensityProblem, expr: Expression, where: str, points) -> np.ndarray:
    """``evaluate_many(expr, points)`` on ``pb``'s cached program; non-finite names ``where``."""
    return _problem_table(pb, id(expr), lambda: (expr,), points, where)[0]


def _scaled(values: np.ndarray, scale, where: str) -> np.ndarray:
    """Finite ``values`` times cell volumes ``scale``; a non-finite product names ``where``."""
    if np.max(scale, initial=0.0) <= 1.0:  # finite values times at most 1 stay finite
        return values * scale
    with np.errstate(over="ignore"):  # an overflow is reported below
        out = values * scale
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite function value in {where} times the cell volume")
    return out


def _kernel_table(kernel: Callable, outer: np.ndarray, x_pts: np.ndarray) -> np.ndarray:
    """``kernel`` (a ``_values`` partial) on the product grid: (len(outer), len(x_pts))."""
    values = kernel(_pair_points(outer, x_pts))
    return values.reshape(outer.shape[0], x_pts.shape[0])


def _family(pb: LpDensityProblem, which: str) -> tuple[Callable, Box]:
    """Family ``which``'s kernel, as a ``_kernel_table`` kernel, and its box."""
    if which == "a":
        kernel, where, box = pb.kernel_a, "the inequality kernel", pb.ineq_domain
    elif which == "b":
        kernel, where, box = pb.kernel_b, "the equality kernel", pb.eq_domain
    else:
        raise ValueError(f"kernel selector must be 'a' or 'b', got {which!r}")
    if kernel is None:
        raise ValueError(f"problem has no {which!r} constraint family")
    return partial(_values, pb, kernel, where), box


def kernel_tau(
    pb: LpDensityProblem,
    which: str,
    x: Sequence[float],
    quad_resolution: int = DEFAULT_QUAD_RESOLUTION,
) -> float:
    """Column norm ``(∫ |K(y, x)|^p dy)^(1/p)`` by midpoint quadrature."""
    kernel, kbox = _family(pb, which)
    point = tuple(float(v) for v in x)
    if not pb.domain.closure_contains(point, tol=1e-12):
        raise ValueError(f"point {point} lies outside the closed domain")
    outer, weight = midpoint_grid(kbox, quad_resolution)
    column = _kernel_table(kernel, outer, np.asarray([point]))[:, 0]
    return float((np.sum(np.abs(column) ** pb.p) * weight) ** (1.0 / pb.p))


def kernel_rho(
    pb: LpDensityProblem,
    which: str,
    y: Sequence[float],
    quad_resolution: int = DEFAULT_QUAD_RESOLUTION,
) -> float:
    """Row norm ``(∫ |K(y, x)|^q dx)^(1/q)`` by midpoint quadrature."""
    kernel, kbox = _family(pb, which)
    point = tuple(float(v) for v in y)
    if not kbox.closure_contains(point, tol=1e-12):
        raise ValueError(f"point {point} lies outside the closed constraint box")
    x_pts, weight = midpoint_grid(pb.domain, quad_resolution)
    row = _kernel_table(kernel, np.asarray([point]), x_pts)[0, :]
    return float((np.sum(np.abs(row) ** pb.q) * weight) ** (1.0 / pb.q))


@dataclass(frozen=True)
class KernelNorms:
    """Quadrature evaluators and summary norms for one kernel family.

    ``uniform_bound`` is the maximum of ``rho`` over the sampled constraint
    grid (the computable stand-in for an essential supremum); ``tau_norm`` is
    the q-norm of ``tau`` over the domain, the constant in the Hoelder bound
    ``∫ |f| tau ≤ ||f||_p * tau_norm``.
    """

    tau: Callable[[Sequence[float]], float]
    rho: Callable[[Sequence[float]], float]
    uniform_bound: float
    tau_norm: float


def _norm_summary(pb: LpDensityProblem, which: str, quad_resolution: int) -> tuple:
    """(tau_norm, uniform_bound, table, tau, dx, dy) on midpoint grids at one resolution."""
    kernel, kbox = _family(pb, which)
    outer, dy = midpoint_grid(kbox, quad_resolution)
    x_pts, dx = midpoint_grid(pb.domain, quad_resolution)
    table = _kernel_table(kernel, outer, x_pts)
    tau = (np.sum(np.abs(table) ** pb.p, axis=0) * dy) ** (1.0 / pb.p)
    rho = (np.sum(np.abs(table) ** pb.q, axis=1) * dx) ** (1.0 / pb.q)
    tau_norm = float((np.sum(tau**pb.q) * dx) ** (1.0 / pb.q))
    return tau_norm, float(np.max(rho)), table, tau, dx, dy


def kernel_norms(
    pb: LpDensityProblem,
    which: str = "a",
    quad_resolution: int = DEFAULT_QUAD_RESOLUTION,
) -> KernelNorms:
    """Bundle tau/rho evaluators with their sampled summary norms."""
    tau_norm, uniform_bound = _norm_summary(pb, which, quad_resolution)[:2]
    return KernelNorms(
        tau=lambda x: kernel_tau(pb, which, x, quad_resolution),
        rho=lambda y: kernel_rho(pb, which, y, quad_resolution),
        uniform_bound=uniform_bound,
        tau_norm=tau_norm,
    )


@dataclass(frozen=True)
class TrialBound:
    """One random-density check of the norm-bound chain."""

    operator_norm: float
    envelope_integral: float
    holder_bound: float
    lipschitz_lhs: float
    lipschitz_rhs: float
    passed: bool


@dataclass(frozen=True)
class OperatorBoundReport:
    """Outcome of ``operator_bound_check`` for one kernel family."""

    kernel: str
    p: float
    q: float
    quad_resolution: int
    tau_norm: float
    uniform_bound: float
    refinement_delta: float
    refinement_ratio: float
    eps_quad: float
    trials: tuple[TrialBound, ...]
    notes: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(t.passed for t in self.trials)


def operator_bound_check(
    pb: LpDensityProblem,
    which: str = "a",
    trials: int = 100,
    quad_resolution: int = DEFAULT_QUAD_RESOLUTION,
    seed: int = 0,
) -> OperatorBoundReport:
    """Check the norm-bound chain on random piecewise-constant densities.

    For each trial, drawing cell values ``f`` (and a second density ``f2``)
    uniformly from [-1, 1] on the quadrature cells, verifies

    1. ``||Kf||_p ≤ ∫ |f| tau ≤ ||f||_p * ||tau||_q + eps_quad`` and
    2. ``||K f - K f2||_p ≤ M * ||f - f2||_p + eps_quad`` with
       ``M = max sampled rho``,

    where ``eps_quad`` is ten times the change of the summary norms between
    ``quad_resolution`` and its doubling.  The report also records the ratio
    of successive refinement deltas (about 4 for smooth kernels under the
    midpoint rule) and flags a row-norm maximum that keeps growing under
    refinement, since the Lipschitz constant is then unreliable.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coarse = max(2, quad_resolution // 2)
    tau_c, rho_c = _norm_summary(pb, which, coarse)[:2]
    tau_norm, uniform_bound, table, tau, dx, dy = _norm_summary(pb, which, quad_resolution)
    tau_f, rho_f = _norm_summary(pb, which, 2 * quad_resolution)[:2]
    delta_coarse = max(abs(tau_c - tau_norm), abs(rho_c - uniform_bound))
    delta_fine = max(abs(tau_norm - tau_f), abs(uniform_bound - rho_f))
    ratio = delta_coarse / delta_fine if delta_fine > 0.0 else math.inf
    eps_quad = 10.0 * delta_fine

    notes: list[str] = []
    if abs(rho_f - uniform_bound) > 0.05 * (1.0 + uniform_bound):
        notes.append(
            "row norm rho still growing under quadrature refinement; "
            "uniform bound M is unreliable"
        )

    def image_norm(values: np.ndarray) -> float:
        image = (table @ values) * dx
        return float((np.sum(np.abs(image) ** pb.p) * dy) ** (1.0 / pb.p))

    def density_norm(values: np.ndarray) -> float:
        return float((np.sum(np.abs(values) ** pb.p) * dx) ** (1.0 / pb.p))

    rng = np.random.default_rng(seed)
    results = []
    for _ in range(trials):
        f = rng.uniform(-1.0, 1.0, table.shape[1])
        f2 = rng.uniform(-1.0, 1.0, table.shape[1])
        operator_norm = image_norm(f)
        envelope = float(np.sum(np.abs(f) * tau) * dx)
        holder = density_norm(f) * tau_norm
        lip_lhs = image_norm(f - f2)
        lip_rhs = uniform_bound * density_norm(f - f2)
        ok = (
            operator_norm <= envelope + eps_quad + ROUNDOFF_SLACK * (1.0 + envelope)
            and envelope <= holder + eps_quad + ROUNDOFF_SLACK * (1.0 + holder)
            and lip_lhs <= lip_rhs + eps_quad + ROUNDOFF_SLACK * (1.0 + lip_rhs)
        )
        results.append(
            TrialBound(
                operator_norm=operator_norm,
                envelope_integral=envelope,
                holder_bound=holder,
                lipschitz_lhs=lip_lhs,
                lipschitz_rhs=lip_rhs,
                passed=ok,
            )
        )
    return OperatorBoundReport(
        kernel=which,
        p=pb.p,
        q=pb.q,
        quad_resolution=quad_resolution,
        tau_norm=tau_norm,
        uniform_bound=uniform_bound,
        refinement_delta=delta_fine,
        refinement_ratio=ratio,
        eps_quad=eps_quad,
        trials=tuple(results),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class DensityConfig:
    """Settings of a density problem's solve; an out-of-range one raises ValueError naming it.

    ``collocation_report`` takes the first four and ``check_lp_slater`` the
    three resolutions, with ``slater_resolution`` as its x resolution.  An
    unset ``y_resolution`` or ``z_resolution`` is each solve's own x
    resolution, and an unset ``slater_resolution`` is ``x_resolution``, so
    that the report and the Slater check collocate the same LP.
    """

    x_resolution: int = 64
    y_resolution: int | None = None
    z_resolution: int | None = None
    gap_rtol: float = 1e-3
    slater_resolution: int | None = None

    def __post_init__(self):
        _check_tolerance("gap_rtol", self.gap_rtol)
        for name in ("x_resolution", "y_resolution", "z_resolution", "slater_resolution"):
            value = getattr(self, name)
            if value is not None and value < 2:
                raise ValueError(f"{name} must be >= 2, got {value}")

    def grids(self) -> dict:
        """The three grid resolutions of a solve at ``x_resolution``, y and z defaulting to x."""
        x = self.x_resolution
        return dict(
            x_resolution=x,
            y_resolution=x if self.y_resolution is None else self.y_resolution,
            z_resolution=x if self.z_resolution is None else self.z_resolution,
        )

    def report_options(self) -> dict:
        """The keyword arguments of ``collocation_report``."""
        names = ("x_resolution", "y_resolution", "z_resolution", "gap_rtol")
        return {name: getattr(self, name) for name in names}

    def slater_options(self) -> dict:
        """The keyword arguments of ``check_lp_slater``."""
        x = self.x_resolution if self.slater_resolution is None else self.slater_resolution
        return dict(x_resolution=x, y_resolution=self.y_resolution, z_resolution=self.z_resolution)


_SEED_CELLS = 4  # cells that start the report's loop, each with the row bounding it alone
_SUM_PAIRS = 1 << 14  # most kernel pairs valued at once for the margin column's row sums


class _Rows:
    """The collocation points: the inequality rows, then the equality rows.

    ``volume`` is each row's cell volume on its own grid.  ``table(rows,
    x_pts, scale)`` values the kernels on the (point, x) pairs of the rows
    asked for only, times ``scale`` if given, shape ``(len(rows), len(x_pts))``.
    """

    def __init__(self, pb: LpDensityProblem, y_resolution: int, z_resolution: int):
        self.families = []  # (kernel, "inequality" or "equality", first row, points)
        rhs, equality, volume = [], [], []
        for kernel, bound, box, res, name in (
            (pb.kernel_a, pb.bound_a, pb.ineq_domain, y_resolution, "inequality"),
            (pb.kernel_b, pb.bound_b, pb.eq_domain, z_resolution, "equality"),
        ):
            if kernel is not None:
                pts, cell = midpoint_grid(box, res)
                kernel = partial(_values, pb, kernel, f"the {name} kernel")
                self.families.append((kernel, name, len(rhs), pts))
                rhs.extend(_values(pb, bound, f"the {name} bound", pts))
                equality.extend([name == "equality"] * len(pts))
                volume.extend([cell] * len(pts))
        self.rhs = np.array(rhs)
        self.equality = np.array(equality)
        self.volume = np.array(volume)

    def table(self, rows: np.ndarray, x_pts: np.ndarray, scale=None) -> np.ndarray:
        out = np.empty((len(rows), len(x_pts)))
        for kernel, _, first, pts in self.families:
            mine = (rows >= first) & (rows < first + len(pts))
            if out.size and mine.any():
                out[mine] = _kernel_table(kernel, pts[rows[mine] - first], x_pts)
        return out if scale is None else self.scaled(out, rows, scale)

    def scaled(self, table: np.ndarray, rows: np.ndarray, scale) -> np.ndarray:
        """``table``, on ``rows``, times ``scale``: one cell volume, or one per row.

        A product that is not finite raises ValueError naming its kernel.
        """
        scale = np.broadcast_to(np.reshape(scale, (-1, 1)), (len(rows), 1))
        out = np.empty_like(table)
        for _, name, first, pts in self.families:
            mine = (rows >= first) & (rows < first + len(pts))
            out[mine] = _scaled(table[mine], scale[mine], f"the {name} kernel")
        return out

    def weighted_rhs(self) -> np.ndarray:
        """Each row's bound times its cell volume: the dual LP's objective."""
        out = np.empty(len(self.rhs))
        for _, name, first, pts in self.families:
            mine = slice(first, first + len(pts))
            out[mine] = _scaled(self.rhs[mine], self.volume[mine], f"the {name} bound")
        return out

    def sums(self, x_pts: np.ndarray, dx: float) -> np.ndarray:
        """Every row's ``sum_i K(p_j, x_i) dx``, valued a chunk of rows at a time.

        A chunk holds at most ``_SUM_PAIRS`` kernel pairs (one row at least),
        so the whole table is never held; each row is summed alone, so the
        sums are bit for bit those of the whole table's rows.  A sum that is
        not finite raises ValueError naming its kernel.
        """
        step = max(1, _SUM_PAIRS // len(x_pts))
        every_row = np.arange(len(self.rhs))
        with np.errstate(over="ignore"):  # an overflow is reported below
            sums = np.concatenate([
                self.table(every_row[i:i + step], x_pts, dx).sum(axis=1)
                for i in range(0, len(every_row), step)
            ])
        for _, name, first, pts in self.families:
            if not np.isfinite(sums[first:first + len(pts)]).all():
                raise ValueError(f"non-finite row sum of the {name} kernel")
        return sums


def discretize_lp_density(
    pb: LpDensityProblem,
    x_resolution: int,
    y_resolution: int | None = None,
    z_resolution: int | None = None,
) -> tuple[FiniteLP, FiniteLP]:
    """Collocate the density problem into an exact primal/dual LP pair.

    The primal variables are the density's cell values ``f_i ≥ 0`` on the
    domain midpoint grid; constraints are collocated at the midpoints of the
    inequality and equality boxes.  The dual variables are a nonnegative cell
    density ``g`` on the inequality grid and a free cell density ``s`` on the
    equality grid, with one ``≥ c(x_i)`` row per domain midpoint.  The two
    LPs differ from an exact transpose pair only by the positive cell-volume
    rescaling of the dual variables, so their optimal values coincide to
    solver accuracy at every resolution.  Both are dense; the reports solve
    the primal on ``simplex._generate`` instead.
    """
    resolutions = DensityConfig(x_resolution, y_resolution, z_resolution).grids()
    rows = _Rows(pb, resolutions["y_resolution"], resolutions["z_resolution"])
    x_pts, dx = midpoint_grid(pb.domain, x_resolution)
    c = _values(pb, pb.objective, "the objective", x_pts)
    every_row = np.arange(len(rows.rhs))
    table = rows.table(every_row, x_pts)
    senses = np.where(rows.equality, "=", "<=").tolist()
    primal = make_lp(
        "max", _scaled(c, dx, "the objective"), rows.scaled(table, every_row, dx), senses,
        rows.rhs,
    )
    dual = make_lp(  # C order: the products of a transposed table differ in the last bits
        "min", rows.weighted_rhs(),
        np.ascontiguousarray(rows.scaled(table, every_row, rows.volume).T),
        (">=",) * len(x_pts), c, lower=np.where(rows.equality, -np.inf, 0.0),
    )
    return primal, dual


def _subcells(cells: np.ndarray, x_resolution, dim: int) -> np.ndarray:
    """Indices on the grid of ``2 * x_resolution`` cells of each cell's 2^dim subcells."""
    shape = np.array(_axis_counts(dim, x_resolution, least=1))
    index = np.array(np.unravel_index(cells, shape))
    offsets = np.indices((2,) * dim).reshape(dim, -1)
    fine = 2 * index[:, :, None] + offsets[:, None, :]
    return np.ravel_multi_index(tuple(fine.reshape(dim, -1)), 2 * shape)


def _collocated_primal(pb: LpDensityProblem, rows: _Rows, resolutions: dict, start=None):
    """The collocated primal on ``simplex._generate``: ``(lp, outcome, (R, C))``.

    ``start`` is an ``(R, C)`` to begin from; without one, ``C`` is the
    ``_SEED_CELLS`` cells of largest ``c dx`` and ``R`` has, per seed cell,
    the row that bounds it alone (the ratio test's ``argmin a_j / A_ji``
    over ``A_ji > 0``).  ``lp`` is the restricted LP that the loop ended
    on, rows ``R`` and columns ``C``, valued once more from the table for
    ``collocation_report``'s KKT check; it is None unless the solve started
    from the seeds and ended optimal, so the refined solve, whose value
    alone is read, builds none.
    """
    x_pts, dx = midpoint_grid(pb.domain, resolutions["x_resolution"])
    cost = _scaled(_values(pb, pb.objective, "the objective", x_pts), dx, "the objective")
    table = lambda R, C: rows.table(R, x_pts[C], dx)
    seeded = start is None
    if seeded:
        cells = np.argsort(-cost, kind="stable")[:_SEED_CELLS]
        columns = table(np.arange(len(rows.rhs)), cells)
        ratio = np.full(columns.shape, np.inf)
        np.divide(rows.rhs[:, None], columns, out=ratio, where=columns > 0.0)
        bounded = np.isfinite(ratio).any(axis=0)
        active = np.array(list(dict.fromkeys(np.argmin(ratio[:, bounded], axis=0))), dtype=int)
        start = active, cells
    _, out, (R, C) = _generate(table, cost, rows.rhs, rows.equality, start)
    if not seeded or out.status != LPStatus.OPTIMAL:
        return None, out, (R, C)
    senses = np.where(rows.equality[R], "=", "<=").tolist()
    return make_lp("max", cost[C], table(R, C), senses, rows.rhs[R]), out, (R, C)


@dataclass(frozen=True)
class CollocationReport:
    """Primal/dual collocation values at one resolution, plus refinement."""

    status: ReportStatus
    primal_value: float | None
    dual_value: float | None
    gap: float | None
    x_resolution: int
    y_resolution: int
    z_resolution: int
    gap_rtol: float
    refined_primal_value: float | None
    notes: tuple[str, ...]


def collocation_report(
    pb: LpDensityProblem,
    x_resolution: int = DensityConfig.x_resolution,
    y_resolution: int | None = None,
    z_resolution: int | None = None,
    gap_rtol: float = DensityConfig.gap_rtol,
    refine: bool = True,
) -> CollocationReport:
    """Solve the collocated primal, read the dual from its row duals, and label.

    Only the primal LP is solved, on ``simplex._generate``, which stops on
    the full collocated LP's KKT certificate, so the values are that LP's
    own, yet only the kernel values of the rows and cells taken in are
    computed.  The refined primal starts from the rows and the subcells of
    the cells the first one ended with.  An LP that a Farkas vector or a ray
    shows is not optimal reports ``primal_infeasible`` or
    ``primal_unbounded`` (the dual LP is then infeasible), with no values.

    The primal's row duals, divided by the cell volumes, solve the dual LP,
    so the dual value is the KKT dual value; its dual-sign and stationarity
    residuals check that the duals are dual feasible, and one above
    ``FEAS_TOL * (1 + |value|)`` raises ``NumericalFailure``.

    When refining the domain grid keeps pushing the value up by more than
    ``gap_rtol``-relative, the supremum is being approached by densities that
    pile mass into ever-smaller cells, and no limiting density exists; the
    report then carries the note "value approached, optimizer escapes the
    density class".  A ``gap_rtol`` that is not finite or is below 0 raises
    ValueError.
    """
    resolutions = DensityConfig(x_resolution, y_resolution, z_resolution, gap_rtol).grids()
    rows = _Rows(pb, resolutions["y_resolution"], resolutions["z_resolution"])
    primal, p_out, active = _collocated_primal(pb, rows, resolutions)
    if p_out.status != LPStatus.OPTIMAL:
        infeasible = p_out.status == LPStatus.INFEASIBLE
        return CollocationReport(
            status=(
                ReportStatus.PRIMAL_INFEASIBLE if infeasible else ReportStatus.PRIMAL_UNBOUNDED
            ),
            primal_value=None,
            dual_value=None,
            gap=None,
            gap_rtol=gap_rtol,
            refined_primal_value=None,
            notes=(
                "collocated primal has no nonnegative density"
                if infeasible
                else "collocated primal is unbounded above; dual infeasible",
            ),
            **resolutions,
        )

    # the generation loop stops only once every cell outside the restricted
    # LP prices below this tolerance, so its residuals are the full LP's
    kkt = kkt_residuals(primal, p_out)
    worst = max(kkt.dual_sign_residual, kkt.stationarity_residual)
    if worst > FEAS_TOL * (1.0 + abs(p_out.value)):
        raise NumericalFailure(
            f"row duals of the collocated primal are not dual feasible ({worst:.3g})"
        )
    gap = kkt.dual_value - p_out.value
    status = ReportStatus.STRONG_DUALITY
    if abs(gap) > gap_rtol * (1.0 + abs(kkt.dual_value)):
        status = ReportStatus.GAP_REMAINS

    notes: list[str] = []
    refined_value = None
    if refine:
        # the y grid is shared; each cell splits into subcells
        active = active[0], _subcells(active[1], x_resolution, pb.domain.dim)
        fine = dict(resolutions, x_resolution=2 * x_resolution)
        _, r_out, _ = _collocated_primal(pb, rows, fine, active)
        if r_out.status == LPStatus.OPTIMAL:
            refined_value = r_out.value
            if refined_value - p_out.value > gap_rtol * (1.0 + abs(refined_value)):
                notes.append("value approached, optimizer escapes the density class")
    return CollocationReport(
        status=status,
        primal_value=p_out.value,
        dual_value=kkt.dual_value,
        gap=gap,
        gap_rtol=gap_rtol,
        refined_primal_value=refined_value,
        notes=tuple(notes),
        **resolutions,
    )


@dataclass(frozen=True)
class DensitySlaterReport:
    """Strict-feasibility margin for the collocated density problem."""

    margin: float
    feasible: bool
    capped: bool
    equality_rank: int
    n_equality_rows: int
    x_resolution: int

    @property
    def rank_deficient(self) -> bool:
        return self.equality_rank < self.n_equality_rows


def _check_rank_bytes(pb: LpDensityProblem, resolutions: dict) -> None:
    """Raise ValueError if ``check_lp_slater``'s equality rank table would pass ``_GRID_BYTES``.

    ``resolutions`` is the check's ``DensityConfig.grids()``.  The table
    holds a kernel value for every equality row and cell: ``8 * n_eq * n_x``
    bytes, from the resolutions alone.
    """
    if pb.kernel_b is None:
        return
    x, z = resolutions["x_resolution"], resolutions["z_resolution"]
    need = 8 * math.prod(_axis_counts(pb.eq_domain.dim, z, least=1)) * math.prod(
        _axis_counts(pb.domain.dim, x, least=1)
    )
    if need > _GRID_BYTES:
        raise ValueError(
            f"the equality rank table at x_resolution {x} and z_resolution {z} needs "
            f"{need} bytes, over the limit {_GRID_BYTES}; lower the resolutions"
        )


def check_lp_slater(
    pb: LpDensityProblem,
    x_resolution: int = 33,
    y_resolution: int | None = None,
    z_resolution: int | None = None,
) -> DensitySlaterReport:
    """Maximize the margin delta with f_i ≥ delta and delta of slack per row.

    The margin is ``max delta`` subject to ``sum_i A(y_j, x_i) f_i dx + delta
    ≤ a(y_j)``, ``sum_i B(z_l, x_i) f_i dx = b(z_l)``, ``f_i ≥ delta`` and
    ``delta ≤ SLATER_CAP``.  Substituting ``f = g + delta`` with ``g ≥ 0``
    turns the ``f_i ≥ delta`` rows into bounds and leaves the margin
    unchanged: ``delta`` is then a free column whose coefficient on row
    ``j`` is ``u_j = sum_i K(p_j, x_i) dx``, plus 1 on an inequality row.

    ``moment._max_margin`` solves that LP on ``simplex._generate``, with
    zero cell costs and ``delta`` as its fixed column, from the equality
    rows and the inequality row of least ``a_j / u_j`` over ``u_j > 0`` (the
    one that bounds ``delta`` alone) and no cells; where ``delta`` alone
    cannot meet the equalities, the Farkas vectors price cells in.  The sums
    ``u`` are taken a chunk of rows at a time, so no whole table is held.

    A positive margin exhibits a strictly positive density satisfying every
    inequality strictly, a negative one shows that no nonnegative density
    meets the rows, and an infeasible margin LP reports ``-inf``.  The cap
    bounds the margin, so any other status is a solver bug and raises
    ``WeakDualityError``.  The rank of the collocated equality matrix,
    valued in full, is reported as a finite surrogate for surjectivity of
    the equality operator, so duplicated or dependent equality rows show up
    as a rank deficit.  A resolution below 2, or a rank table over
    ``_check_rank_bytes``'s limit, raises ValueError before it is built.
    """
    resolutions = DensityConfig(x_resolution, y_resolution, z_resolution).grids()
    _check_rank_bytes(pb, resolutions)
    rows = _Rows(pb, resolutions["y_resolution"], resolutions["z_resolution"])
    x_pts, dx = midpoint_grid(pb.domain, x_resolution)
    equalities = np.flatnonzero(rows.equality)
    rank = int(np.linalg.matrix_rank(rows.table(equalities, x_pts))) if equalities.size else 0

    u = rows.sums(x_pts, dx)
    u[~rows.equality] += 1.0
    ratio = np.full(u.shape, np.inf)
    np.divide(rows.rhs, u, out=ratio, where=~rows.equality & (u > 0.0))
    first = [np.argmin(ratio)] if np.isfinite(ratio).any() else []
    start = np.concatenate([equalities, first]).astype(int), np.zeros(0, dtype=int)
    table = lambda R, C: rows.table(R, x_pts[C], dx)
    margin, x, _ = _max_margin(table, np.zeros(len(x_pts)), rows.rhs, rows.equality, start, u)
    return DensitySlaterReport(
        margin=margin,
        feasible=x is not None,
        capped=_capped(margin),
        equality_rank=rank,
        n_equality_rows=len(equalities),
        x_resolution=x_resolution,
    )
