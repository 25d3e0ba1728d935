"""Independent reference implementations used to cross-check the solvers.

Nothing here reuses the package's LP code paths: finite LPs are checked by
brute-force vertex enumeration and by scipy's HiGHS backend, the standard
form by a column-at-a-time rebuild of the package's layout, moment values by
a fine-grid LP assembled directly from the expressions and solved with scipy,
option bounds by an exhaustive two-atom search, kernel norms by a local
midpoint quadrature with refinement, and expressions by a scalar tree-walker
over Python's ``math`` module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from measurelp import DomainError, LPStatus, evaluate_many
from measurelp.expressions import Binary, Literal, Negate, Variable, format_node


# ---------------------------------------------------------------------------
# scalar expression walker on libm


def reference_evaluate(e, point) -> float:
    """Value of ``e`` at one point, one node at a time with Python floats and ``math``.

    Raises DomainError at the first node that fails in evaluation order
    (children before parents, left to right), with Python's message for it.
    """
    value = _reference_node(e.root, point)
    if math.isnan(value):
        raise DomainError("evaluation produced NaN", format_node(e.root))
    return value


def _reference_node(node, point) -> float:
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Variable):
        return float(point[node.slot])
    if isinstance(node, Negate):
        return -_reference_node(node.operand, point)
    if isinstance(node, Binary):
        a = _reference_node(node.left, point)
        b = _reference_node(node.right, point)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise DomainError("division by zero", format_node(node))
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"invalid power ({exc})", format_node(node)) from None
    args = [_reference_node(a, point) for a in node.args]
    f = node.func
    if f == "min":
        return min(args)
    if f == "max":
        return max(args)
    if f == "abs":
        return abs(args[0])
    try:
        return {"exp": math.exp, "log": math.log, "sqrt": math.sqrt}[f](args[0])
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"invalid {f} ({exc})", format_node(node)) from None


# ---------------------------------------------------------------------------
# brute-force vertex enumeration for small bounded LPs


def vertex_enumeration(lp, feas_tol: float = 1e-8):
    """(status, value) by enumerating intersections of n constraint planes.

    Valid for bounded feasible sets only (every variable needs finite bounds
    or the rows must imply boundedness): a bounded nonempty polyhedron has a
    vertex, and every vertex solves some nonsingular n-subset of the active
    constraints.
    """
    n = lp.n_vars
    planes_a = [np.asarray(row, dtype=float) for row in lp.rows]
    planes_b = [float(v) for v in lp.rhs]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(lp.lower[j]):
            planes_a.append(e.copy())
            planes_b.append(float(lp.lower[j]))
        if math.isfinite(lp.upper[j]):
            planes_a.append(e.copy())
            planes_b.append(float(lp.upper[j]))
    pool_a = np.asarray(planes_a)
    pool_b = np.asarray(planes_b)

    combos = np.asarray(list(itertools.combinations(range(len(pool_a)), n)))
    sub_a = pool_a[combos]
    sub_b = pool_b[combos]
    scale = np.prod(np.linalg.norm(sub_a, axis=2), axis=1)
    dets = np.abs(np.linalg.det(sub_a))
    keep = dets > 1e-10 * np.maximum(scale, 1e-300)
    if not np.any(keep):
        return "infeasible", None
    x = np.linalg.solve(sub_a[keep], sub_b[keep][..., None])[..., 0]
    x = x[np.all(np.isfinite(x), axis=1)]
    if x.size == 0:
        return "infeasible", None

    r = x @ lp.rows.T
    ok = np.ones(len(x), dtype=bool)
    for i, s in enumerate(lp.row_senses):
        tol = feas_tol * (1.0 + abs(lp.rhs[i]))
        if s == "<=":
            ok &= r[:, i] <= lp.rhs[i] + tol
        elif s == ">=":
            ok &= r[:, i] >= lp.rhs[i] - tol
        else:
            ok &= np.abs(r[:, i] - lp.rhs[i]) <= tol
    for j in range(n):
        if math.isfinite(lp.lower[j]):
            ok &= x[:, j] >= lp.lower[j] - feas_tol
        if math.isfinite(lp.upper[j]):
            ok &= x[:, j] <= lp.upper[j] + feas_tol
    if not np.any(ok):
        return "infeasible", None
    values = x[ok] @ lp.objective
    best = float(np.max(values) if lp.sense == "max" else np.min(values))
    return "optimal", best


# ---------------------------------------------------------------------------
# standard form built one column at a time


class LoopStandardized:
    """Standard form of a FiniteLP with a per-variable inverse map.

    ``columns[j]`` is ("shift", col, l): x = l + x'_col, ("mirror", col, u):
    x = u - x'_col, or ("split", c1, c2): x = x'_c1 - x'_c2.
    """

    def __init__(self, objective, rows, rhs, constant, negate, columns, m_original):
        self.objective = objective
        self.rows = rows
        self.rhs = rhs
        self.constant = constant
        self.negate = negate
        self.columns = columns
        self.m_original = m_original

    def recover_x(self, x_std):
        x = np.empty(len(self.columns))
        for j, (kind, a, b) in enumerate(self.columns):
            if kind == "shift":
                x[j] = b + x_std[a]
            elif kind == "mirror":
                x[j] = b - x_std[a]
            else:
                x[j] = x_std[a] - x_std[b]
        return x

    def recover_value(self, value_std):
        return self.constant + (-value_std if self.negate else value_std)

    def recover_duals(self, y_std):
        y = np.asarray(y_std[: self.m_original], dtype=float)
        return -y if self.negate else y


def loop_standardize(p) -> LoopStandardized:
    """min c'.x', A'x' = b', x' >= 0, built by a Python loop over the columns.

    Column order: each variable's structural column(s) in variable order (a
    free variable gets x'+ then x'-), then one slack per inequality row, then
    one slack per finite upper bound of a lower-bounded variable, whose row
    is appended after the original rows.
    """
    m, n = p.n_rows, p.n_vars
    A, c = p.rows, p.objective
    base = np.zeros(n)
    col_vecs, col_costs, columns, upper_rows = [], [], [], []
    for j in range(n):
        l, u = p.lower[j], p.upper[j]
        aj = A[:, j]
        idx = len(col_vecs)
        if np.isfinite(l):
            col_vecs.append(aj.copy())
            col_costs.append(float(c[j]))
            columns.append(("shift", idx, float(l)))
            base[j] = l
            if np.isfinite(u):
                upper_rows.append((idx, float(u - l)))
        elif np.isfinite(u):
            col_vecs.append(-aj)
            col_costs.append(float(-c[j]))
            columns.append(("mirror", idx, float(u)))
            base[j] = u
        else:
            col_vecs += [aj.copy(), -aj]
            col_costs += [float(c[j]), float(-c[j])]
            columns.append(("split", idx, idx + 1))

    n_struct = len(col_vecs)
    n_slack = sum(1 for s in p.row_senses if s != "=") + len(upper_rows)
    S = np.zeros((m + len(upper_rows), n_struct + n_slack))
    if n_struct and m:
        S[:m, :n_struct] = np.column_stack(col_vecs)
    rhs = np.concatenate([p.rhs - A @ base, [b for _, b in upper_rows]])
    for k, (cidx, _) in enumerate(upper_rows):
        S[m + k, cidx] = 1.0
    obj = np.zeros(n_struct + n_slack)
    obj[:n_struct] = col_costs
    scol = n_struct
    for i, s in enumerate(p.row_senses):
        if s != "=":
            S[i, scol] = 1.0 if s == "<=" else -1.0
            scol += 1
    for k in range(len(upper_rows)):
        S[m + k, scol] = 1.0
        scol += 1
    negate = p.sense == "max"
    return LoopStandardized(
        -obj if negate else obj, S, rhs, float(c @ base), negate, columns, m
    )


# ---------------------------------------------------------------------------
# scipy cross-check for arbitrary FiniteLPs

_SCIPY_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def scipy_solve(lp):
    """(LPStatus, value) via scipy.optimize.linprog (HiGHS)."""
    sign = -1.0 if lp.sense == "max" else 1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, s, rhs in zip(lp.rows, lp.row_senses, lp.rhs):
        if s == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif s == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [
        (
            None if not math.isfinite(lp.lower[j]) else float(lp.lower[j]),
            None if not math.isfinite(lp.upper[j]) else float(lp.upper[j]),
        )
        for j in range(lp.n_vars)
    ]
    res = linprog(
        c=sign * lp.objective,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    status = _SCIPY_STATUS.get(res.status)
    if status is None:
        raise RuntimeError(f"scipy linprog returned status {res.status}: {res.message}")
    value = sign * float(res.fun) if status == LPStatus.OPTIMAL else None
    return status, value


# ---------------------------------------------------------------------------
# fine-grid moment LP, assembled directly and solved with scipy


def fine_grid_moment_value(mp, total_points: int = 20001) -> float:
    """Optimal value of the moment problem on a dense 1-d grid (scipy HiGHS).

    The LP is rebuilt here from the problem's expressions, independently of
    the package's assembly and simplex code.
    """
    if mp.domain.dim != 1:
        raise ValueError("the fine-grid oracle handles one-dimensional domains")
    lengths = [box.upper[0] - box.lower[0] for box in mp.domain.boxes]
    total = sum(lengths)
    blocks = []
    for box, length in zip(mp.domain.boxes, lengths):
        count = max(2, int(round(total_points * length / total)))
        blocks.append(np.linspace(box.lower[0], box.upper[0], count)[:, None])

    def stacked(fn):
        return np.concatenate(
            [evaluate_many(fn.pieces[i], pts) for i, pts in enumerate(blocks)]
        )

    h = stacked(mp.objective)
    a_ub = [stacked(fn) for fn, _ in mp.inequalities]
    a_eq = [stacked(fn) for fn, _ in mp.equalities]
    res = linprog(
        c=-h,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=[bound for _, bound in mp.inequalities] or None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=[bound for _, bound in mp.equalities] or None,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"fine-grid oracle LP not optimal: {res.message}")
    return -float(res.fun)


# ---------------------------------------------------------------------------
# exhaustive two-atom search for option bounds


def two_atom_bound(lo, hi, forward, payoff, direction, count: int = 2001) -> float:
    """Best E[payoff] over one- and two-atom laws with mean ``forward``.

    Scans every pair (x_i, x_j) on a ``count``-point grid straddling the
    forward; the weight on x_i is fixed by the mean constraint.
    """
    xs = np.linspace(lo, hi, count)
    pays = np.asarray([payoff(float(x)) for x in xs])
    xi = xs[:, None]
    xj = xs[None, :]
    den = xj - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (xj - forward) / den
    valid = (den > 1e-12) & (w >= -1e-12) & (w <= 1.0 + 1e-12)
    w = np.clip(w, 0.0, 1.0)
    vals = w * pays[:, None] + (1.0 - w) * pays[None, :]
    fill = -math.inf if direction == "sup" else math.inf
    vals = np.where(valid, vals, fill)
    best = float(np.max(vals) if direction == "sup" else np.min(vals))
    if lo <= forward <= hi:
        single = float(payoff(float(forward)))
        best = max(best, single) if direction == "sup" else min(best, single)
    return best


# ---------------------------------------------------------------------------
# local midpoint quadrature with refinement control


def midpoint_quad(f, lo: float, hi: float, n: int) -> float:
    """Composite midpoint rule with vectorized integrand."""
    xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return float(np.sum(f(xs)) * (hi - lo) / n)


def refined_quad(f, lo: float, hi: float, n: int = 4096):
    """(value at 2n, |change from n to 2n|) — the refinement oracle."""
    coarse = midpoint_quad(f, lo, hi, n)
    fine = midpoint_quad(f, lo, hi, 2 * n)
    return fine, abs(fine - coarse)
