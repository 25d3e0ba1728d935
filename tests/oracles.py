"""Independent reference implementations used to cross-check the solvers.

Nothing here reuses the package's LP code paths: finite LPs are checked by
brute-force vertex enumeration and by scipy's HiGHS backend, the standard
form by a column-at-a-time rebuild of the package's layout, optimality
residuals by loops over rows and variables, moment values by
a fine-grid LP assembled directly from the expressions and solved with scipy,
option bounds by an exhaustive two-atom search, kernel norms by a local
midpoint quadrature with refinement, expressions by a scalar tree-walker
over Python's ``math`` module, and partition coverage by testing every
breakpoint cell's exact midpoint against every box.

Polynomial pieces are checked by Horner's rule written out here, against
``evaluate_many`` on a fine mesh, and the exact separation oracle's
minimum against the least slack on a mesh of every box, valued by
``evaluate_many`` one function at a time.

The exceptions are the Slater margin LPs, a dual point's slack at one
point and the oracle's scan.  Each check's margin LP is kept here as it was
first built, by hand and separately per check, and solved with the
package's own simplex, so that the shared margin LP can be pinned to it bit
for bit.  The slack is valued as the separation oracle values it, so that a
slack the oracle reports can be pinned to it exactly, and the scan is the
oracle's first form, a loop over the boxes, which pins the flat scan of
every box at once.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from measurelp import DomainError, FiniteLP, LPStatus, evaluate_many, solve_lp
from measurelp import density, moment
from measurelp.expressions import Binary, Literal, Negate, Variable, format_node
from measurelp.geometry import grid_array
from measurelp.simplex import KKTReport, make_lp


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
# optimality residuals, one row and one variable at a time


def loop_kkt_residuals(p, out, active_tol: float = 1e-7) -> KKTReport:
    """``simplex.kkt_residuals`` written as Python loops over rows and variables."""
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
    for j in range(p.n_vars):
        primal = max(primal, p.lower[j] - x[j], x[j] - p.upper[j])

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
        at_l = math.isfinite(l) and x[j] <= l + active_tol
        at_u = math.isfinite(u) and x[j] >= u - active_tol
        if at_l and at_u:
            v = 0.0
        elif at_l:
            v = max(0.0, -rt[j])
        elif at_u:
            v = max(0.0, rt[j])
        else:
            v = abs(rt[j])
        stat = max(stat, v)
        if at_l and rt[j] > 0.0:
            cs = max(cs, rt[j] * (x[j] - l))
            dual_t += l * rt[j]
        if at_u and rt[j] < 0.0:
            cs = max(cs, -rt[j] * (u - x[j]))
            dual_t += u * rt[j]
    for i in range(p.n_rows):
        cs = max(cs, abs(lam_t[i] * r_rows[i]))

    dual_value = sigma * dual_t
    return KKTReport(
        primal_residual=float(primal),
        dual_sign_residual=float(sign_res),
        stationarity_residual=float(stat),
        comp_slack_residual=float(cs),
        dual_value=float(dual_value),
        gap=float(abs(out.value - dual_value) / (1.0 + abs(out.value))),
    )


# ---------------------------------------------------------------------------
# the three Slater margin LPs, each built by hand as its check first did


def hand_built_dual_slater(mp, tol=1e-6, max_iters=200):
    """``check_dual_slater`` with its master LP assembled column block by column block."""
    cap = moment.SLATER_CAP
    M, N = mp.n_ineq, mp.n_eq
    eps = 1e-9
    width = M + 2 * N + 1
    obj = np.full(width, -eps)
    obj[-1] = 1.0
    lower = np.concatenate([np.zeros(M + 2 * N), [-np.inf]])
    upper = np.concatenate([np.full(M + 2 * N, np.inf), [cap]])

    def master(cuts):
        A = np.hstack([cuts.rows, -cuts.rows[:, M:], np.full((len(cuts), 1), -1.0)])
        lp = make_lp("max", obj, A, (">=",) * len(cuts), cuts.h, lower=lower, upper=upper)
        out = solve_lp(lp)
        assert out.status == LPStatus.OPTIMAL
        t = float(out.x[-1])
        z = out.x[M:M + N] - out.x[M + N:M + 2 * N]
        y = tuple(moment._clip_duals(out.x, M))
        return t, moment.DualPoint(y=y, z=tuple(z)), None, t

    converged, history = moment._exchange(mp, moment._seed_cuts(mp), master, tol, max_iters)
    margin = history[-1].value
    return moment.DualSlaterReport(
        margin=margin, witness=history[-1].dual, converged=converged,
        capped=margin >= cap * (1.0 - 1e-6), iterations=len(history),
    )


def whole_table_dual_slater(mp, tol=1e-6, max_iters=200):
    """``check_dual_slater`` on its kept master, with ``K`` built from every cut each call.

    The margin LP's table is the whole ``K`` of the cut set, negated into
    ``<=`` rows, and every block the generation loop asks for is cut from
    it, as the check first did; only the table differs, so the report must
    be the same bit for bit.
    """
    M, N = mp.n_ineq, mp.n_eq
    kept = None

    def master(cuts):
        nonlocal kept
        K = -np.hstack([cuts.rows, -cuts.rows[:, M:]])
        every = np.arange(K.shape[0]), np.arange(K.shape[1])
        t, x, kept = moment._max_margin(
            lambda R, C: K[R][:, C], np.full(K.shape[1], -1e-9), -cuts.h,
            np.zeros(len(cuts), dtype=bool), every, np.ones(len(cuts)), kept,
        )
        z = x[M:M + N] - x[M + N:M + 2 * N]
        return t, moment.DualPoint(y=tuple(moment._clip_duals(x, M)), z=tuple(z)), None, t

    converged, history = moment._exchange(mp, moment._seed_cuts(mp), master, tol, max_iters)
    margin = history[-1].value
    return moment.DualSlaterReport(
        margin=margin, witness=history[-1].dual, converged=converged,
        capped=moment._capped(margin), iterations=len(history),
    )


def hand_built_primal_slater(mp, resolution=129):
    """``check_primal_slater`` with its LP assembled into a zeroed matrix.

    ``capped`` keeps this form's own rule, 1e-9 relative of the cap.
    """
    cap = moment.SLATER_CAP
    grid = moment.assemble_grid_primal(mp, resolution)
    M, N = mp.n_ineq, mp.n_eq
    G = grid.lp.rows.shape[1]
    rank = int(np.linalg.matrix_rank(grid.lp.rows[M:, :])) if N else 0
    obj = np.zeros(G + 1)
    obj[-1] = 1.0
    A = np.zeros((M + N, G + 1))
    A[:, :G] = grid.lp.rows
    A[:M, -1] = 1.0
    lower = np.concatenate([np.zeros(G), [-np.inf]])
    upper = np.concatenate([np.full(G, np.inf), [cap]])
    out = solve_lp(
        make_lp("max", obj, A, grid.lp.row_senses, grid.lp.rhs, lower=lower, upper=upper)
    )
    if out.status == LPStatus.INFEASIBLE:
        return moment.PrimalSlaterReport(
            margin=-math.inf, feasible=False, equality_rank=rank, n_equalities=N, capped=False,
        )
    assert out.status == LPStatus.OPTIMAL
    margin = float(out.value)
    return moment.PrimalSlaterReport(
        margin=margin, feasible=True, equality_rank=rank, n_equalities=N,
        capped=margin >= cap * (1.0 - 1e-9),
    )


def collocation_tables(pb, x_resolution, y_resolution=None, z_resolution=None):
    """Domain midpoints, cell volume, and per family (inequality, equality) its tables.

    A family's tables are the kernel at every (point, midpoint) pair and the
    bound at every point of its own midpoint grid, valued with
    ``evaluate_many``; an absent family gives empty ones.
    """
    x_pts, dx = density.midpoint_grid(pb.domain, x_resolution)
    families = []
    for kernel, bound, box, resolution in (
        (pb.kernel_a, pb.bound_a, pb.ineq_domain, y_resolution),
        (pb.kernel_b, pb.bound_b, pb.eq_domain, z_resolution),
    ):
        if kernel is None:
            families.append((np.zeros((0, len(x_pts))), np.zeros(0)))
            continue
        pts, _ = density.midpoint_grid(box, resolution or x_resolution)
        pairs = np.concatenate(
            [np.repeat(pts, len(x_pts), axis=0), np.tile(x_pts, (len(pts), 1))], axis=1
        )
        table = evaluate_many(kernel, pairs).reshape(len(pts), len(x_pts))
        families.append((table, evaluate_many(bound, pts)))
    return x_pts, dx, families


def hand_built_margin_lp(pb, x_resolution=33, y_resolution=None, z_resolution=None):
    """``check_lp_slater``'s margin LP over (g, delta), dense, as a FiniteLP; delta is last."""
    x_pts, dx, ((a_tab, a_vals), (b_tab, b_vals)) = collocation_tables(
        pb, x_resolution, y_resolution, z_resolution
    )
    n_x = x_pts.shape[0]
    n_y, n_z = a_tab.shape[0], b_tab.shape[0]
    g_rows = np.vstack([a_tab, b_tab]) * dx
    delta_col = g_rows.sum(axis=1)
    delta_col[:n_y] += 1.0
    objective = np.zeros(n_x + 1)
    objective[n_x] = 1.0
    return FiniteLP(
        sense="max",
        objective=objective,
        rows=np.column_stack([g_rows, delta_col]),
        row_senses=("<=",) * n_y + ("=",) * n_z,
        rhs=np.concatenate([a_vals, b_vals]),
        lower=np.concatenate([np.zeros(n_x), [-np.inf]]),
        upper=np.concatenate([np.full(n_x, np.inf), [moment.SLATER_CAP]]),
    )


def hand_built_lp_slater(pb, x_resolution=33, y_resolution=None, z_resolution=None):
    """``check_lp_slater`` with its margin LP solved dense, the whole LP at once."""
    cap = moment.SLATER_CAP
    b_tab = collocation_tables(pb, x_resolution, y_resolution, z_resolution)[2][1][0]
    n_z = b_tab.shape[0]
    rank = int(np.linalg.matrix_rank(b_tab)) if n_z else 0
    lp = hand_built_margin_lp(pb, x_resolution, y_resolution, z_resolution)
    out = solve_lp(lp)
    feasible = out.status == LPStatus.OPTIMAL
    assert feasible or out.status == LPStatus.INFEASIBLE
    margin = float(out.x[-1]) if feasible else -math.inf
    return density.DensitySlaterReport(
        margin=margin, feasible=feasible, capped=margin >= cap * (1.0 - 1e-6),
        equality_rank=rank, n_equality_rows=n_z, x_resolution=x_resolution,
    )


# ---------------------------------------------------------------------------
# piecewise polynomials: random sources, and their pieces by Horner's rule


def random_polynomial_source(rng, degree: int = 6, depth: int = 4) -> str:
    """A random expression in x1 of degree at most ``degree``, fully parenthesised.

    It is built from x1, constants in [-1, 1], ``+ - *``, integer powers,
    negation, ``min``, ``max`` and ``abs``, so it is a piecewise polynomial.
    """
    return _random_source(rng, degree, depth)[0]


def _random_source(rng, budget: int, depth: int) -> tuple[str, int]:
    if depth == 0 or rng.random() < 0.2:
        if budget >= 1 and rng.random() < 0.6:
            return "x1", 1
        return f"({round(float(rng.uniform(-1.0, 1.0)), 4)!r})", 0
    kind = int(rng.integers(7))
    a, da = _random_source(rng, budget, depth - 1)
    if kind == 0:
        return f"(-{a})", da
    if kind == 1:
        return f"abs({a})", da
    if kind == 2 and da:
        k = int(rng.integers(0, budget // da + 1))
        return f"(({a}) ^ {k})", da * k
    if kind == 3 and da < budget:
        b, db = _random_source(rng, budget - da, depth - 1)
        return f"({a} * {b})", da + db
    b, db = _random_source(rng, budget, depth - 1)
    if kind == 4:
        return f"min({a}, {b})", max(da, db)
    if kind == 5:
        return f"max({a}, {b})", max(da, db)
    return f"({a} {'+' if rng.random() < 0.5 else '-'} {b})", max(da, db)


def piecewise_horner(breaks, coeffs, lo: float, hi: float, x: np.ndarray) -> np.ndarray:
    """Every row of ``_Program.polynomial``'s ``(breaks, coeffs)`` at ``x``, by Horner's rule.

    A point takes t = (x - lo) / (hi - lo) and the piece whose interval
    holds t, the right-hand one at a breakpoint.  Returns (rows, len(x)).
    """
    t = (np.asarray(x, dtype=float) - lo) / (hi - lo)
    piece = np.searchsorted(breaks, t, side="right")
    out = np.empty((coeffs.shape[0], len(t)))
    for r in range(coeffs.shape[0]):
        c = coeffs[r][piece]
        value = np.zeros(len(t))
        for j in range(c.shape[1] - 1, -1, -1):
            value = value * t + c[:, j]
        out[r] = value
    return out


def mesh_min_slack(mp, dual, points_per_box: int) -> float:
    """The least Σ y φ + Σ z ψ - h over an even mesh of every box's closure.

    Each function is valued on its own by ``evaluate_many``, not by the
    box programs the oracle runs.
    """
    yz = np.concatenate([dual.y, dual.z])
    fns = [fn for fn, _ in mp.inequalities + mp.equalities]
    worst = math.inf
    for i, box in enumerate(mp.domain.boxes):
        x = np.linspace(box.lower[0], box.upper[0], points_per_box)[:, None]
        slack = -evaluate_many(mp.objective.pieces[i], x)
        for weight, fn in zip(yz, fns):
            slack = slack + weight * evaluate_many(fn.pieces[i], x)
        worst = min(worst, float(slack.min()))
    return worst


# ---------------------------------------------------------------------------
# a dual point's slack at one point


def dual_slack_at(mp, dual, x, box_index) -> float:
    """Σ y φ(x) + Σ z ψ(x) - h(x) of ``dual`` at ``x``, with box ``box_index``'s pieces.

    The point is valued as one ``moment._box_table`` column, as the
    separation oracle values its points, so the oracle's slack equals it.
    """
    table = moment._box_table(mp, box_index, np.array([x], dtype=float))
    return float(moment._slack(np.concatenate([dual.y, dual.z]), table)[0])


def per_box_scan(mp, dual):
    """The separation oracle's scan, without its zoom, one box at a time.

    Each box's grid is valued as one ``moment._box_table`` and scanned on
    its own, and a box replaces the best point so far only with a strictly
    smaller slack, so of equal slacks the lower box wins.
    """
    yz = np.concatenate([dual.y, dual.z])
    res = moment._scan_axes(mp.domain.dim)
    best = None
    for i, box in enumerate(mp.domain.boxes):
        points = grid_array(box, res)
        table = moment._box_table(mp, i, points)
        slack = moment._slack(yz, table)
        g = int(np.argmin(slack))
        if best is None or slack[g] < best.slack:
            point = tuple(points[g].tolist())
            best = moment.SeparationResult(i, point, float(slack[g]), table[:, g])
    return best


# ---------------------------------------------------------------------------
# partition coverage by brute force over the breakpoint cells


def cell_coverage(partition, hull) -> dict:
    """How many boxes hold each cell of the breakpoint grid, one point at a time.

    The cells are cut at every box and hull bound on each axis.  Each is
    represented by its midpoint, computed exactly as a ``Fraction`` (so it
    lies inside even a one-ulp cell), and tested with ``Box.contains``.
    Returns ``disjoint`` (no cell in two boxes), ``covered`` (every hull cell
    in exactly one box), ``outside`` (boxes holding a cell outside the hull)
    and ``miscovered`` (the hull cells' box counts other than 1, in order).
    """
    axes = [
        sorted({v for b in partition.boxes for v in (b.lower[j], b.upper[j])}
               | {hull.lower[j], hull.upper[j]})
        for j in range(hull.dim)
    ]
    disjoint, outside, miscovered = True, set(), []
    for cell in itertools.product(*(zip(a[:-1], a[1:]) for a in axes)):
        mid = tuple((Fraction(lo) + Fraction(up)) / 2 for lo, up in cell)
        hits = [i for i, b in enumerate(partition.boxes) if b.contains(mid)]
        disjoint = disjoint and len(hits) <= 1
        if hull.contains(mid):
            if len(hits) != 1:
                miscovered.append(len(hits))
        else:
            outside.update(hits)
    return {
        "disjoint": disjoint,
        "covered": not miscovered,
        "outside": sorted(outside),
        "miscovered": miscovered,
    }


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
