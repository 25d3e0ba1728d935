"""Dense two-phase primal simplex for the small LPs this package generates.

Everything is kept deliberately simple: dense tableau, Dantzig pricing with
lowest-index tie-breaks, Bland's rule engaged after a run of degenerate
pivots, duals read off the final basis.  Problems here have at most a few
thousand columns and a handful of rows (or vice versa), so a dense tableau
is the right tool.

Dual convention: ``duals[i]`` is the derivative of the optimal value with
respect to ``rhs[i]`` for the problem's own sense.  So for a ``max`` problem
with ``<=`` rows the duals are nonnegative, and at optimality
``value == duals . rhs + (bound terms)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9

ROW_SENSES = ("<=", "=", ">=")


class LPStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class NumericalFailure(RuntimeError):
    """Pivoting could not finish within tolerances; not a problem status."""


@dataclass
class FiniteLP:
    """min or max of objective . x over rows (<=, =, >=) and variable bounds."""

    sense: str
    objective: np.ndarray
    rows: np.ndarray
    row_senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = c.shape[0]
        A = np.asarray(self.rows, dtype=float)
        if A.size == 0:
            A = A.reshape(0, n)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"rows must have shape (m, {n}), got {A.shape}")
        m = A.shape[0]
        senses = tuple(self.row_senses)
        if len(senses) != m:
            raise ValueError(f"{m} rows but {len(senses)} row senses")
        for s in senses:
            if s not in ROW_SENSES:
                raise ValueError(f"row sense must be one of {ROW_SENSES}, got {s!r}")
        b = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if b.shape != (m,):
            raise ValueError(f"rhs must have shape ({m},), got {b.shape}")
        lo = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        up = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("objective, rows, and rhs must all be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)) or np.any(lo > up):
            raise ValueError("need lower <= upper for every variable")
        if np.any(lo == np.inf) or np.any(up == -np.inf):
            raise ValueError("lower bounds must be < +inf and upper bounds > -inf")
        self.objective = c
        self.rows = A
        self.row_senses = senses
        self.rhs = b
        self.lower = lo
        self.upper = up

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def make_lp(sense, objective, rows, row_senses, rhs, lower=0.0, upper=np.inf) -> FiniteLP:
    """Convenience constructor with broadcastable scalar bounds."""
    return FiniteLP(
        sense=sense,
        objective=objective,
        rows=rows,
        row_senses=tuple(row_senses),
        rhs=rhs,
        lower=lower,
        upper=upper,
    )


@dataclass
class LPOutcome:
    status: LPStatus
    value: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None


@dataclass
class StandardizedLP:
    """Computational standard form: min objective . x, rows x = rhs, x >= 0.

    ``columns`` records, for each original variable, how to undo the
    substitution: ("shift", col, l) means x = l + x'_col, ("mirror", col, u)
    means x = u - x'_col, ("split", c1, c2) means x = x'_c1 - x'_c2.  Finite
    upper bounds become extra rows appended after the original ones.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    constant: float
    negate: bool
    columns: list[tuple]
    m_original: int
    n_original: int

    def as_lp(self) -> FiniteLP:
        m = self.rows.shape[0]
        return make_lp("min", self.objective, self.rows, ("=",) * m, self.rhs)

    def recover_x(self, x_std: np.ndarray) -> np.ndarray:
        x = np.empty(self.n_original)
        for j, layout in enumerate(self.columns):
            kind = layout[0]
            if kind == "shift":
                x[j] = layout[2] + x_std[layout[1]]
            elif kind == "mirror":
                x[j] = layout[2] - x_std[layout[1]]
            else:
                x[j] = x_std[layout[1]] - x_std[layout[2]]
        return x

    def recover_value(self, value_std: float) -> float:
        v = -value_std if self.negate else value_std
        return self.constant + v

    def recover_duals(self, y_std: np.ndarray) -> np.ndarray:
        y = np.asarray(y_std[: self.m_original], dtype=float)
        return -y if self.negate else y


def standardize(p: FiniteLP) -> StandardizedLP:
    """Rewrite as min c'.x', A'x' = b', x' >= 0 with a recorded inverse map."""
    m, n = p.n_rows, p.n_vars
    A = p.rows
    c = p.objective
    base = np.zeros(n)
    col_vecs: list[np.ndarray] = []
    col_costs: list[float] = []
    columns: list[tuple] = []
    upper_rows: list[tuple[int, float]] = []  # (structural col, bound on shifted var)
    for j in range(n):
        l, u = p.lower[j], p.upper[j]
        aj = A[:, j]
        if np.isfinite(l):
            idx = len(col_vecs)
            col_vecs.append(aj.copy())
            col_costs.append(float(c[j]))
            columns.append(("shift", idx, float(l)))
            base[j] = l
            if np.isfinite(u):
                upper_rows.append((idx, float(u - l)))
        elif np.isfinite(u):
            idx = len(col_vecs)
            col_vecs.append(-aj)
            col_costs.append(float(-c[j]))
            columns.append(("mirror", idx, float(u)))
            base[j] = u
        else:
            idx = len(col_vecs)
            col_vecs.append(aj.copy())
            col_costs.append(float(c[j]))
            col_vecs.append(-aj)
            col_costs.append(float(-c[j]))
            columns.append(("split", idx, idx + 1))

    n_struct = len(col_vecs)
    n_slack = sum(1 for s in p.row_senses if s != "=") + len(upper_rows)
    m_all = m + len(upper_rows)
    width = n_struct + n_slack
    S = np.zeros((m_all, width))
    if n_struct:
        S[:m, :n_struct] = np.column_stack(col_vecs) if m else np.zeros((0, n_struct))
    rhs = np.concatenate([p.rhs - A @ base, [b for _, b in upper_rows]])
    for k, (cidx, _) in enumerate(upper_rows):
        S[m + k, cidx] = 1.0
    obj = np.zeros(width)
    obj[:n_struct] = col_costs
    scol = n_struct
    for i, s in enumerate(p.row_senses):
        if s == "<=":
            S[i, scol] = 1.0
            scol += 1
        elif s == ">=":
            S[i, scol] = -1.0
            scol += 1
    for k in range(len(upper_rows)):
        S[m + k, scol] = 1.0
        scol += 1
    negate = p.sense == "max"
    if negate:
        obj = -obj
    return StandardizedLP(
        objective=obj,
        rows=S,
        rhs=rhs,
        constant=float(c @ base),
        negate=negate,
        columns=columns,
        m_original=m,
        n_original=n,
    )


def _pivot(T: np.ndarray, basis: list[int], r: int, e: int) -> None:
    T[r] /= T[r, e]
    col = T[:, e].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = e


def _pivot_loop(T, basis, cost, enterable, pivot_tol) -> str:
    m = T.shape[0]
    n_total = T.shape[1] - 1
    bland = False
    degenerate = 0
    bland_after = 5 * (m + n_total)
    max_iters = 10_000 + 10 * (m + n_total)
    basis_arr = None
    for _ in range(max_iters):
        cB = cost[basis]
        z = cost - cB @ T[:, :-1]
        cand = np.flatnonzero(enterable & (z < -pivot_tol))
        if cand.size == 0:
            return "optimal"
        if bland:
            e = int(cand[0])
        else:
            e = int(cand[np.argmin(z[cand])])
        col = T[:, e]
        pos = np.flatnonzero(col > pivot_tol)
        if pos.size == 0:
            return "unbounded"
        ratios = T[pos, -1] / col[pos]
        rmin = float(ratios.min())
        tie = pos[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        if bland:
            basis_arr = np.asarray(basis)
            r = int(tie[np.argmin(basis_arr[tie])])
        else:
            r = int(tie[0])
        if rmin <= 1e-12:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        else:
            degenerate = 0
        _pivot(T, basis, r, e)
    raise NumericalFailure("simplex pivot limit exceeded")


def _solve_standard(A, b, c, *, pivot_tol=PIVOT_TOL, feas_tol=FEAS_TOL):
    """Two-phase simplex on min c.x, Ax = b, x >= 0.

    Returns (status, x, y, value); y holds one dual per row, zeros for rows
    dropped as redundant during phase 1.
    """
    m, n = A.shape
    if m == 0:
        if np.any(c < -pivot_tol):
            return LPStatus.UNBOUNDED, None, None, None
        return LPStatus.OPTIMAL, np.zeros(n), np.zeros(0), 0.0
    sign = np.where(b < 0.0, -1.0, 1.0)
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A * sign[:, None]
    T[:, n:n + m] = np.eye(m)
    T[:, -1] = b * sign
    basis = list(range(n, n + m))
    row_ids = list(range(m))
    enterable = np.zeros(n + m, dtype=bool)
    enterable[:n] = True

    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    if _pivot_loop(T, basis, cost1, enterable, pivot_tol) != "optimal":
        raise NumericalFailure("phase 1 claimed an unbounded direction")
    infeas = sum(T[i, -1] for i, bi in enumerate(basis) if bi >= n)
    scale = 1.0 + float(np.max(np.abs(b)))
    if infeas > feas_tol * scale:
        return LPStatus.INFEASIBLE, None, None, None

    redundant = []
    for i in range(len(basis)):
        if basis[i] < n:
            continue
        cand = np.flatnonzero(np.abs(T[i, :n]) > pivot_tol)
        if cand.size:
            _pivot(T, basis, i, int(cand[0]))
        else:
            redundant.append(i)
    for i in reversed(redundant):
        T = np.delete(T, i, axis=0)
        del basis[i]
        del row_ids[i]

    cost2 = np.concatenate([c, np.zeros(m)])
    if _pivot_loop(T, basis, cost2, enterable, pivot_tol) == "unbounded":
        return LPStatus.UNBOUNDED, None, None, None

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    worst = float(np.min(x)) if n else 0.0
    if worst < -feas_tol * scale:
        raise NumericalFailure(f"basic solution drifted negative ({worst})")
    x = np.maximum(x, 0.0)
    value = float(c @ x)
    cB = cost2[basis]
    ybar = cB @ T[:, n:n + m]
    live = np.zeros(m, dtype=bool)
    live[row_ids] = True
    y = np.where(live, ybar * sign, 0.0)
    return LPStatus.OPTIMAL, x, y, value


def solve_lp(p: FiniteLP) -> LPOutcome:
    """Solve a FiniteLP; statuses are optimal/infeasible/unbounded.

    Tolerance failures raise NumericalFailure instead of mislabeling the
    problem.  The only presolve is dropping all-zero rows (their duals are
    reported as 0) after checking them for trivial infeasibility.
    """
    nonzero = np.any(p.rows != 0.0, axis=1)
    if not nonzero.all():
        senses = np.asarray(p.row_senses)
        b, s = p.rhs[~nonzero], senses[~nonzero]
        # an all-zero row reads ``0 <sense> b``
        if np.any(((b < -FEAS_TOL) & (s != ">=")) | ((b > FEAS_TOL) & (s != "<="))):
            return LPOutcome(status=LPStatus.INFEASIBLE)
        reduced = make_lp(
            p.sense,
            p.objective,
            p.rows[nonzero],
            tuple(senses[nonzero].tolist()),
            p.rhs[nonzero],
            p.lower,
            p.upper,
        )
        out = solve_lp(reduced)
        if out.status == LPStatus.OPTIMAL:
            duals = np.zeros(p.n_rows)
            duals[nonzero] = out.duals
            out.duals = duals
        return out

    std = standardize(p)
    status, x_std, y_std, value_std = _solve_standard(std.rows, std.rhs, std.objective)
    if status != LPStatus.OPTIMAL:
        return LPOutcome(status=status)
    return LPOutcome(
        status=LPStatus.OPTIMAL,
        value=std.recover_value(value_std),
        x=std.recover_x(x_std),
        duals=std.recover_duals(y_std),
    )


@dataclass
class KKTReport:
    primal_residual: float
    dual_sign_residual: float
    stationarity_residual: float
    comp_slack_residual: float
    dual_value: float
    gap: float


def kkt_residuals(p: FiniteLP, out: LPOutcome, active_tol: float = 1e-7) -> KKTReport:
    """Residuals of the optimality system for an OPTIMAL outcome.

    All residuals are ~0 (below solver tolerances) at a correct optimum;
    ``gap`` is |primal - dual| / (1 + |primal|) with the dual value rebuilt
    from the reported row duals and reduced costs.
    """
    if out.status != LPStatus.OPTIMAL:
        raise ValueError("kkt_residuals needs an optimal outcome")
    x = out.x
    lam = out.duals
    sigma = 1.0 if p.sense == "min" else -1.0
    r_rows = p.rows @ x - p.rhs

    primal = 0.0
    for i, s in enumerate(p.row_senses):
        if s == "<=":
            primal = max(primal, r_rows[i])
        elif s == ">=":
            primal = max(primal, -r_rows[i])
        else:
            primal = max(primal, abs(r_rows[i]))
    with np.errstate(invalid="ignore"):
        primal = max(primal, float(np.max(np.maximum(p.lower - x, 0.0), initial=0.0)))
        primal = max(primal, float(np.max(np.maximum(x - p.upper, 0.0), initial=0.0)))

    lam_t = sigma * lam
    sign_res = 0.0
    for i, s in enumerate(p.row_senses):
        if s == "<=":
            sign_res = max(sign_res, lam_t[i])
        elif s == ">=":
            sign_res = max(sign_res, -lam_t[i])

    rt = sigma * p.objective - p.rows.T @ lam_t
    stat = 0.0
    cs = 0.0
    dual_t = float(p.rhs @ lam_t)
    for j in range(p.n_vars):
        l, u = p.lower[j], p.upper[j]
        at_l = np.isfinite(l) and x[j] <= l + active_tol
        at_u = np.isfinite(u) and x[j] >= u - active_tol
        if at_l and at_u:
            v = 0.0
        elif at_l:
            v = max(0.0, -rt[j])
        elif at_u:
            v = max(0.0, rt[j])
        else:
            v = abs(rt[j])
        stat = max(stat, v)
        if np.isfinite(l) and rt[j] > 0.0:
            cs = max(cs, rt[j] * (x[j] - l))
            dual_t += l * rt[j]
        if np.isfinite(u) and rt[j] < 0.0:
            cs = max(cs, -rt[j] * (u - x[j]))
            dual_t += u * rt[j]
    for i in range(p.n_rows):
        cs = max(cs, abs(lam_t[i] * r_rows[i]))

    dual_value = sigma * dual_t
    gap = abs(out.value - dual_value) / (1.0 + abs(out.value))
    return KKTReport(
        primal_residual=float(primal),
        dual_sign_residual=float(sign_res),
        stationarity_residual=float(stat),
        comp_slack_residual=float(cs),
        dual_value=float(dual_value),
        gap=float(gap),
    )
