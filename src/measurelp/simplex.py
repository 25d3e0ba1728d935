"""Dense two-phase primal simplex for the small LPs this package generates.

Everything is kept deliberately simple: dense tableau, Dantzig pricing with
lowest-index tie-breaks, Bland's rule engaged after a run of degenerate
pivots, duals read off the final basis.  The simplex starts from the slack
basis: ``standardize`` records each inequality and upper-bound row's slack
column, a row whose slack has the sign of its rhs starts with that slack
basic, the rows whose slack has the wrong sign share one auxiliary column
x0 that a single pivot makes feasible for all of them (Chvátal, *Linear
Programming*, ch. 8), and only equality rows get artificials of their own.
Phase 1 runs only when x0 or an artificial is basic, so an LP with ``<=``
rows and nonnegative right-hand sides goes straight to phase 2.

Most LPs here are short, with a row per moment constraint.  A grid primal
has a column per grid point, ~66k at 257^2, and is solved, like every LP
of the reports and the command line, on the generation loop ``_generate``,
which checks the certificate (duals, a Farkas vector or a ray) of the LP
restricted to the rows and columns taken in so far on the rest: the grid
primal and an exchange master price the grid in and solve on tens of
columns.  The restricted LP is one ``_Master``, a tableau kept live while
the LP grows (Chvátal, ch. 10): a column joins as B^-1 a and primal simplex
goes on, a row joins with its slack basic and dual simplex goes on, and a
join that would leave the tableau neither primal nor dual feasible, or a
certificate that drifts past ``FEAS_TOL`` on the LP's own rows, rebuilds it
cold.  Callers whose LP grows from call to call keep their master, so an
exchange loop builds one master, not an LP per iteration.  Only the primal
Slater margin LP starts with every row and a column per point of its grid
(16,641 at the default 129^2).  The tableau's size is the cost that
matters, so ``standardize`` builds it with array operations.

Dual convention: ``duals[i]`` is the derivative of the optimal value with
respect to ``rhs[i]`` for the problem's own sense.  So for a ``max`` problem
with ``<=`` rows the duals are nonnegative, and at optimality
``value == duals . rhs + (bound terms)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
ACTIVE_TOL = 1e-7  # kkt_residuals: a variable this close to a bound is active at it

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
        if A.size == 0 and A.ndim < 2:  # no rows given; an (m, 0) block keeps its m rows
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
    """A status and its certificate, in the LP's own rows and variables.

    Optimal: ``value``, ``x`` and ``duals`` (the module's dual convention).
    Infeasible: ``duals`` is a Farkas vector y, whatever the sense: y <= 0 on
    ``<=`` rows, y >= 0 on ``>=`` rows, and y . rhs exceeds the largest
    (y . rows) . x within the bounds.  Unbounded: ``x`` is feasible, and the
    ``ray`` d keeps every row and bound (rows . d <= 0, = 0 or >= 0 by sense)
    while objective . d > 0 for ``max`` (< 0 for ``min``).
    """

    status: LPStatus
    value: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    ray: np.ndarray | None = None


# variable kinds in ``StandardizedLP.columns``
SHIFT, MIRROR, SPLIT = 0, 1, 2
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0}


@dataclass
class StandardizedLP:
    """Computational standard form: min objective . x, rows x = rhs, x >= 0.

    ``columns`` is ``(kind, first, base)``, three arrays over the original
    variables that undo the substitution.  ``kind[j]`` is SHIFT (x = base +
    x'_first), MIRROR (x = base - x'_first) or SPLIT (x = x'_first -
    x'_(first+1), base 0); ``first[j]`` is the variable's first structural
    column, in variable order, one column per kind except two for SPLIT.
    Finite upper bounds of SHIFT variables become extra rows appended after
    the original ones; slack columns follow the structural ones, first one
    per inequality row, then one per upper-bound row.  ``slack[i]`` is row
    ``i``'s slack column (its only nonzero, ±1, is in row ``i``), or -1 for
    an equality row.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    constant: float
    negate: bool
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    m_original: int
    n_original: int
    slack: np.ndarray

    def as_lp(self) -> FiniteLP:
        m = self.rows.shape[0]
        return make_lp("min", self.objective, self.rows, ("=",) * m, self.rhs)

    def recover_x(self, x_std: np.ndarray, base=None) -> np.ndarray:
        """The original variables; ``base=0.0`` maps a ray, which has no offset."""
        kind, first, shift = self.columns
        base = shift if base is None else base
        lead = x_std[first]
        x = np.where(kind == MIRROR, base - lead, base + lead)
        split = kind == SPLIT
        x[split] = lead[split] - x_std[first[split] + 1]
        return x

    def recover_value(self, value_std: float) -> float:
        v = -value_std if self.negate else value_std
        return self.constant + v

    def recover_duals(self, y_std: np.ndarray) -> np.ndarray:
        y = np.asarray(y_std[: self.m_original], dtype=float)
        return -y if self.negate else y


def standardize(p: FiniteLP) -> StandardizedLP:
    """Rewrite as min c'.x', A'x' = b', x' >= 0 with a recorded inverse map."""
    return _standard(p.sense, p.objective, p.rows, p.row_senses, p.rhs, p.lower, p.upper)


def _standard(sense, c, A, row_senses, rhs, lower, upper) -> StandardizedLP:
    """``standardize`` on a FiniteLP's fields, given as validated arrays."""
    m, n = A.shape
    has_lower = np.isfinite(lower)
    has_upper = np.isfinite(upper)
    kind = np.full(n, SPLIT)
    kind[has_upper] = MIRROR
    kind[has_lower] = SHIFT
    base = np.where(has_lower, lower, upper)
    sign = np.where(kind == MIRROR, -1.0, 1.0)
    split = np.flatnonzero(kind == SPLIT)
    first = np.arange(n)
    first += np.searchsorted(split, first)  # a split variable before j owns two columns
    n_struct = n + len(split)
    boxed = has_lower & has_upper
    bounded = first[boxed]  # shifted columns with a finite upper bound
    ineq = [i for i, s in enumerate(row_senses) if s != "="]
    slack = n_struct + np.arange(len(ineq) + len(bounded))

    S = np.zeros((m + len(bounded), n_struct + len(slack)))
    obj = np.zeros(n_struct + len(slack))
    S[:m, first] = A * sign
    obj[first] = c * sign
    if len(split):
        S[:m, first[split] + 1] = -A[:, split]
        obj[first[split] + 1] = -c[split]
        base[split] = 0.0
    S[ineq, slack[: len(ineq)]] = [_SLACK_SIGN[row_senses[i]] for i in ineq]
    b = rhs - A @ base
    if len(bounded):
        upper_rows = np.arange(m, m + len(bounded))
        S[upper_rows, bounded] = 1.0
        S[upper_rows, slack[len(ineq):]] = 1.0
        b = np.concatenate([b, (upper - lower)[boxed]])
    row_slack = np.full(m + len(bounded), -1)
    row_slack[ineq] = slack[: len(ineq)]
    row_slack[m:] = slack[len(ineq):]
    negate = sense == "max"
    if negate:
        obj = -obj
    return StandardizedLP(
        objective=obj,
        rows=S,
        rhs=b,
        constant=float(c @ base),
        negate=negate,
        columns=(kind, first, base),
        m_original=m,
        n_original=n,
        slack=row_slack,
    )


def _pivot(T: np.ndarray, basis: list[int], r: int, e: int) -> None:
    T[r] /= T[r, e]
    col = T[:, e].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = e


def _pivot_loop(T, basis, cost, enterable) -> str | int:
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
        cand = np.flatnonzero(enterable & (z < -PIVOT_TOL))
        if cand.size == 0:
            return "optimal"
        if bland:
            e = int(cand[0])
        else:
            e = int(cand[np.argmin(z[cand])])
        col = T[:, e]
        pos = np.flatnonzero(col > PIVOT_TOL)
        if pos.size == 0:
            return e  # the ray's entering column
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


def _dual_pivot_loop(T, basis, cost, enterable, tol) -> bool:
    """Dual simplex: pivot until every basic value is >= -tol, reduced costs kept.

    The leaving row holds the most negative basic value; the entering column
    is the enterable one with ``T[r, e] < -PIVOT_TOL`` of least ratio
    ``z_e / -T[r, e]``, lowest index first.  False when a leaving row has no
    such column (the LP is infeasible) or the pivots run out.
    """
    m, n_total = T.shape[0], T.shape[1] - 1
    for _ in range(5 * (m + n_total)):
        r = int(np.argmin(T[:, -1]))
        if T[r, -1] >= -tol:
            return True
        cand = np.flatnonzero(enterable & (T[r, :-1] < -PIVOT_TOL))
        if cand.size == 0:
            return False
        z = cost[cand] - cost[basis] @ T[:, cand]
        _pivot(T, basis, r, int(cand[np.argmin(np.maximum(z, 0.0) / -T[r, cand])]))
    return False


class _Master:
    """A simplex tableau kept live while its LP grows by rows and columns.

    The LP is the ``StandardizedLP`` ``std``, kept in step with every join;
    the constructor solves it cold, and ``result`` reads the outcome in the
    LP's own rows and variables.  ``add_columns`` appends variables >= 0:
    each new tableau column is B^-1 a, read from the columns that held the
    identity at the start, and primal simplex goes on, in phase 1 if the LP
    was still infeasible, else in phase 2.  ``add_rows`` appends rows: each
    ``<=`` row is eliminated against the basic columns with its slack basic,
    and dual simplex runs until the basic values are >= 0, then phase 2
    cleans up.  Rows go in before the upper-bound rows, so the LP's own rows
    stay first, and new columns go in before the artificials.

    A join rebuilds cold from ``std``, through the constructor, when the
    tableau would be neither primal nor dual feasible (an ``=`` row joins,
    or rows join an LP that is not optimal), when phase 1 dropped a
    redundant row, when a warm pivot fails, or when the outcome's
    certificate, recomputed on ``std``'s rows, misses by more than
    ``FEAS_TOL * (1 + |value|)``.  So a warm outcome is as sound as a cold
    one, and a rebuild raises nothing but ``NumericalFailure``.  A warm
    optimum is read with one step of iterative refinement (``_reread``).

    ``rows`` and ``cols`` are ``_generate``'s R and C, the ids of the LP's
    rows and of its columns >= 0 in join order; the ``_Fixed`` columns
    follow those of ``cols`` among the variables.
    """

    def __init__(self, std: StandardizedLP, rows=None, cols=None):
        """Two-phase simplex on min c.x, Ax = b, x >= 0, started from the slack basis.

        ``std.slack[i]`` names a column that is ±1 in row ``i`` and zero
        elsewhere, or is -1 where row ``i`` has none.  Each row is flipped so
        that its slack, or else its rhs, is positive.  A row whose slack then
        has a nonnegative rhs starts with the slack basic; an equality row
        gets its own artificial; the rows whose flipped rhs is negative share
        one artificial x0 with entry -1, which is pivoted in on the most
        negative row so that every such row becomes feasible at once.  Phase
        1 runs only if an artificial is basic.  The starting basis is the
        identity, so the columns it was made of hold B^-1 throughout, and the
        duals are read from them.

        Phase 1 finds the LP infeasible when any artificial ends basic above
        its own tolerance ``art_tol``: ``FEAS_TOL * (1 + |b_i|)`` for the row
        ``i`` it was made for, and for x0 the largest ``|b_i|`` of the rows
        that share it.  So one row's large rhs (a ``t <= SLATER_CAP`` row,
        say) never excuses a residual on another row.

        ``outcome`` is in standard form.  Optimal: one dual per row, 0 for a
        row dropped as redundant in phase 1.  Infeasible: phase 1's row
        duals, unflipped, a Farkas vector (y . a <= 0 on every column a, y .
        b > 0).  Unbounded: the last basic point and a ray, 1 on the entering
        column e and -T[i, e] on each basic column (with no rows, 1 on the
        most negative cost).
        """
        self.std, self.rows, self.cols, self.T = std, rows, cols, None
        A, b, c, slack = std.rows, std.rhs, std.objective, std.slack
        m, n = A.shape
        if m == 0:
            if np.any(c < -PIVOT_TOL):
                self.outcome = LPOutcome(
                    LPStatus.UNBOUNDED, x=np.zeros(n), ray=np.eye(n)[np.argmin(c)]
                )
            else:
                self.outcome = LPOutcome(LPStatus.OPTIMAL, 0.0, np.zeros(n), np.zeros(0))
            return
        has = slack >= 0
        sign = np.where(b < 0.0, -1.0, 1.0)
        sign[has] = A[has, slack[has]]
        rhs = b * sign
        opposed = has & (rhs < 0.0)
        equality = np.flatnonzero(~has)
        n_art = len(equality) + bool(opposed.any())
        x0 = n + n_art - 1
        T = np.zeros((m, n + n_art + 1))
        T[:, :n] = A * sign[:, None]
        inverse = slack.copy()  # the identity's columns, which hold B^-1
        inverse[equality] = n + np.arange(len(equality))
        T[equality, inverse[equality]] = 1.0
        scale = np.abs(rhs[equality])  # per artificial, then x0's
        T[:, -1] = rhs
        basis = inverse.tolist()
        if opposed.any():
            T[opposed, x0] = -1.0
            _pivot(T, basis, int(np.argmin(rhs)), x0)
            scale = np.append(scale, np.max(np.abs(rhs[opposed])))
        self.T, self.basis, self.sign, self.inverse = T, basis, sign, inverse
        self.art_tol = FEAS_TOL * (1.0 + scale)
        self.n_art, self.row_ids = n_art, list(range(m))  # row_ids: the rows phase 1 keeps
        self._finish()

    def _finish(self, warm: bool = False) -> None:
        """Phase 1 while an artificial is basic, then phase 2; sets ``outcome``.

        A ``warm`` optimum on every row is read by ``_reread``.
        """
        T, basis, sign, inverse = self.T, self.basis, self.sign, self.inverse
        b, c, n_art = self.std.rhs, self.std.objective, self.n_art
        m, n = len(sign), len(c)
        enterable = np.zeros(n + n_art, dtype=bool)
        enterable[:n] = True
        scale = 1.0 + float(np.max(np.abs(b)))
        if max(basis) >= n:
            cost1 = np.concatenate([np.zeros(n), np.ones(n_art)])
            if _pivot_loop(T, basis, cost1, enterable) != "optimal":
                raise NumericalFailure("phase 1 claimed an unbounded direction")
            if any(bi >= n and T[i, -1] > self.art_tol[bi - n] for i, bi in enumerate(basis)):
                farkas = cost1[basis] @ T[:, inverse] * sign
                self.outcome = LPOutcome(LPStatus.INFEASIBLE, duals=farkas)
                return

            redundant = []
            for i in range(len(basis)):
                if basis[i] < n:
                    continue
                cand = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
                if cand.size:
                    _pivot(T, basis, i, int(cand[0]))
                else:
                    redundant.append(i)
            for i in reversed(redundant):
                T = np.delete(T, i, axis=0)
                del basis[i]
                del self.row_ids[i]
            self.T = T

        cost2 = np.concatenate([c, np.zeros(n_art)])
        e = _pivot_loop(T, basis, cost2, enterable)
        x = np.zeros(n)
        x[basis] = T[:, -1]  # every basic column is structural by now
        if e != "optimal":
            ray = np.zeros(n)
            ray[basis] = np.maximum(-T[:, e], 0.0)
            ray[e] = 1.0
            self.outcome = LPOutcome(LPStatus.UNBOUNDED, x=np.maximum(x, 0.0), ray=ray)
            return
        if warm and len(T) == m:
            self._reread()
            return
        worst = float(np.min(x)) if n else 0.0
        if worst < -FEAS_TOL * scale:
            raise NumericalFailure(f"basic solution drifted negative ({worst})")
        x = np.maximum(x, 0.0)
        cB = cost2[basis]
        ybar = cB @ T[:, inverse]
        live = np.zeros(m, dtype=bool)
        live[self.row_ids] = True
        duals = np.where(live, ybar * sign, 0.0)
        self.outcome = LPOutcome(LPStatus.OPTIMAL, float(c @ x), x, duals)

    def result(self) -> LPOutcome:
        """The outcome in the LP's own rows and variables (``LPOutcome``)."""
        std, out = self.std, self.outcome
        if out.status == LPStatus.INFEASIBLE:
            return LPOutcome(out.status, duals=out.duals[: std.m_original])
        if out.status == LPStatus.UNBOUNDED:
            return LPOutcome(out.status, x=std.recover_x(out.x), ray=std.recover_x(out.ray, 0.0))
        return LPOutcome(
            out.status, std.recover_value(out.value), std.recover_x(out.x),
            std.recover_duals(out.duals),
        )

    def add_columns(self, A: np.ndarray, cost: np.ndarray, ids: np.ndarray) -> None:
        """Join variables >= 0 of ``cost`` whose columns on the LP's rows are ``A``."""
        std, k = self.std, len(ids)
        m, n = std.rows.shape
        a = np.zeros((m, k))  # 0 on the upper-bound rows
        a[: std.m_original] = A
        at = len(self.cols)
        std.columns = tuple(
            np.concatenate([v[:at], new, v[at:]])
            for v, new in zip(std.columns, (np.full(k, SHIFT), n + np.arange(k), np.zeros(k)))
        )
        std.rows = np.hstack([std.rows, a])
        std.objective = np.append(std.objective, -cost if std.negate else cost)
        std.n_original += k
        self.cols = np.concatenate([self.cols, ids])

        def join():
            self._widen(n, self.T[:, self.inverse] @ (a * self.sign[:, None]))
            self._finish(warm=True)
            return True

        self._warm(join)

    def add_rows(
        self, A: np.ndarray, b: np.ndarray, equality: np.ndarray, ids: np.ndarray
    ) -> None:
        """Join rows ``A`` over the LP's variables: ``=`` ``b`` where ``equality``, else ``<=``."""
        std, k = self.std, len(ids)
        m, n = std.rows.shape
        kind, first, base = std.columns
        ineq = np.flatnonzero(~equality)
        slack = n + np.arange(len(ineq))
        S = np.zeros((k, n + len(ineq)))
        S[:, first] = A * np.where(kind == MIRROR, -1.0, 1.0)
        split = kind == SPLIT
        S[:, first[split] + 1] = -A[:, split]
        S[ineq, slack] = 1.0
        rhs = b - A @ base
        row_slack = np.full(k, -1)
        row_slack[ineq] = slack
        at = std.m_original
        wide = np.hstack([std.rows, np.zeros((m, len(ineq)))])
        std.rows = np.concatenate([wide[:at], S, wide[at:]])
        std.objective = np.append(std.objective, np.zeros(len(ineq)))
        std.rhs = np.concatenate([std.rhs[:at], rhs, std.rhs[at:]])
        std.slack = np.concatenate([std.slack[:at], row_slack, std.slack[at:]])
        std.m_original += k
        self.rows = np.concatenate([self.rows, ids])

        def join():
            if equality.any() or self.outcome.status != LPStatus.OPTIMAL:
                return False
            self._widen(n, np.zeros((len(self.sign), k)))
            new = np.zeros((k, self.T.shape[1]))
            new[:, : n + k] = S
            new[:, -1] = rhs
            new -= new[:, self.basis] @ self.T  # each new slack is basic in its row
            self.T = np.concatenate([self.T[:at], new, self.T[at:]])
            self.basis[at:at] = slack.tolist()
            self.sign = np.concatenate([self.sign[:at], np.ones(k), self.sign[at:]])
            self.inverse = np.concatenate([self.inverse[:at], slack, self.inverse[at:]])
            self.row_ids = list(range(len(self.sign)))
            c = std.objective
            cost = np.concatenate([c, np.zeros(self.n_art)])
            enterable = np.arange(cost.size) < len(c)
            if not _dual_pivot_loop(self.T, self.basis, cost, enterable, PIVOT_TOL):
                return False
            self._finish(warm=True)
            return True

        self._warm(join)

    def _widen(self, n: int, columns: np.ndarray) -> None:
        """Put ``columns`` in the tableau after its first ``n``, before the artificials."""
        k = columns.shape[1]
        self.T = np.concatenate([self.T[:, :n], columns, self.T[:, n:]], axis=1)
        self.basis = [j + k if j >= n else j for j in self.basis]
        self.inverse = np.where(self.inverse >= n, self.inverse + k, self.inverse)

    def _warm(self, join) -> None:
        """Run ``join`` on the live tableau, or rebuild cold from ``std`` (see the class)."""
        try:
            ok = self.T is not None and len(self.T) == len(self.sign) and join()
        except NumericalFailure:
            ok = False
        if not (ok and self._holds()):
            self.__init__(self.std, self.rows, self.cols)

    def _reread(self) -> None:
        """An optimal outcome, read with one step of refinement against ``std``.

        A warm tableau carries the roundoff of every pivot since the cold
        start, so x_B and the duals take one step of iterative refinement on
        B = A[:, basis], with the tableau's B^-1.
        """
        A, b, c, basis = self.std.rows, self.std.rhs, self.std.objective, self.basis
        B, inverse = A[:, basis], self.T[:, self.inverse] * self.sign
        x_B, duals = self.T[:, -1], c[basis] @ inverse
        x = np.zeros(len(c))
        x[basis] = np.maximum(x_B + inverse @ (b - B @ x_B), 0.0)
        duals = duals + (c[basis] - duals @ B) @ inverse
        self.outcome = LPOutcome(LPStatus.OPTIMAL, float(c @ x), x, duals)

    def _holds(self) -> bool:
        """Whether the outcome's certificate holds on ``std``'s rows within FEAS_TOL."""
        A, b, out = self.std.rows, self.std.rhs, self.outcome
        if out.status == LPStatus.INFEASIBLE:
            return bool(np.all(out.duals @ A <= FEAS_TOL) and out.duals @ b > FEAS_TOL)
        tol = FEAS_TOL * (1.0 + abs(out.value or 0.0))
        misses = [A @ out.x - b] + ([A @ out.ray] if out.status == LPStatus.UNBOUNDED else [])
        return all(np.max(np.abs(r), initial=0.0) <= tol for r in misses)


def solve_lp(p: FiniteLP) -> LPOutcome:
    """Solve a FiniteLP; statuses are optimal/infeasible/unbounded.

    Tolerance failures raise NumericalFailure instead of mislabeling the
    problem.  All-zero rows need no presolve: the simplex gives a feasible
    one dual 0 and finds an infeasible one in phase 1.
    """
    return _Master(standardize(p)).result()


_BATCH = 4  # most rows, and most columns, that one round of ``_generate`` takes in


class _Fixed(NamedTuple):
    """Columns that stay in every restricted LP of ``_generate``."""

    cost: np.ndarray  # (k,)
    lower: np.ndarray  # (k,)
    upper: np.ndarray  # (k,)
    rows: np.ndarray  # (number of rows, k): the coefficients on every row


def _most(scores: np.ndarray, tol: float) -> np.ndarray:
    """Up to ``_BATCH`` indices of the largest scores above ``tol``, largest first.

    Equal scores go lowest index first.  Only the scores above ``tol`` that
    reach the ``_BATCH``-th largest of them are sorted, so a wide pool costs
    a comparison and a partition, not a sort.
    """
    above = np.flatnonzero(scores > tol)
    if above.size > _BATCH:
        above = above[scores[above] >= np.partition(scores[above], -_BATCH)[-_BATCH]]
    return above[np.argsort(-scores[above], kind="stable")[:_BATCH]]


def _generate(
    table: Callable, cost: np.ndarray, rhs: np.ndarray, equality: np.ndarray, start,
    fixed: _Fixed | None = None, master: _Master | None = None,
):
    """An LP by row-and-column generation: ``(master, outcome, (R, C))``.

    The LP is ``max cost . g + fixed.cost . t`` over columns ``g >= 0`` and
    the ``fixed`` columns ``t`` within their bounds, subject to ``K[j] . g +
    fixed.rows[j] . t`` ``=`` ``rhs[j]`` where ``equality[j]``, else ``<=``,
    on every row ``j``.  ``table(R, C)`` values the block ``K[R, C]`` of the
    index arrays ``R`` and ``C``, where ``C`` may be ``slice(None)`` for every
    column, and only the blocks ``K[R, :]`` and ``K[:, C]`` of the rows and
    columns taken in are ever asked for.

    The loop keeps one ``_Master``: the LP restricted to rows ``R`` and
    columns ``C`` (the other columns held at 0, ``t`` always in), built cold
    from ``start = (R, C)``.  Given the ``master`` of an earlier call on
    this LP, grown since by rows or columns, the loop goes on from it
    instead, with the rows and columns of ``start`` that it lacks joining
    first.  Each round reads the master's certificate (``LPOutcome``),
    checks it on the rest of the LP, and at most ``_BATCH`` of the rows, and
    of the columns, that break it join the master, largest first
    (``_most``), rows before columns.  Optimal: the rows violated, and the
    columns with a positive reduced cost, beyond ``FEAS_TOL * (1 +
    |value|)``.  Infeasible: the columns ``j`` with ``y . K[R, j] >
    FEAS_TOL`` for the Farkas vector ``y``.  Unbounded: the rows that the
    point violates or the ray lifts beyond ``FEAS_TOL`` (in absolute value
    on an ``=`` row).  When none does, the certificate holds for the full LP
    within that tolerance, so the outcome is the full LP's, and it comes
    back with the master and the ``(R, C)`` of its restricted LP.
    """
    m, n = len(rhs), len(cost)
    if fixed is None:
        fixed = _Fixed(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros((m, 0)))
    every_row, wide, none = np.arange(m), slice(None), np.zeros(0, dtype=int)
    breach = lambda v: np.where(equality, np.abs(v), v)
    rows, cols = start if master is None else (master.rows, master.cols)
    row_block, col_block = table(rows, wide), table(every_row, cols)  # K[R, :], K[:, C]
    new_rows, new_cols = none, none
    if master is None:
        master = _Master(_standard(
            "max", np.append(cost[cols], fixed.cost),
            np.column_stack([row_block[:, cols], fixed.rows[rows]]),
            np.where(equality[rows], "=", "<=").tolist(), rhs[rows],
            np.append(np.zeros(len(cols)), fixed.lower),
            np.append(np.full(len(cols), np.inf), fixed.upper),
        ), rows, cols)
    else:  # the rows and columns of start that the master lacks, in start's order
        taken_rows, taken_cols = np.zeros(m, dtype=bool), np.zeros(n, dtype=bool)
        taken_rows[rows], taken_cols[cols] = True, True
        new_rows, new_cols = (s[~taken[s]] for s, taken in zip(start, (taken_rows, taken_cols)))
    while True:
        if new_rows.size:  # a wide block is copied only when it grows
            block = table(new_rows, wide)
            rows, row_block = np.concatenate([rows, new_rows]), np.vstack([row_block, block])
            master.add_rows(
                np.column_stack([block[:, cols], fixed.rows[new_rows]]), rhs[new_rows],
                equality[new_rows], new_rows,
            )
        if new_cols.size:
            block = table(every_row, new_cols)
            cols, col_block = np.concatenate([cols, new_cols]), np.hstack([col_block, block])
            master.add_columns(block[rows], cost[new_cols], new_cols)
        out = master.result()
        if len(rows) == m and len(cols) == n:  # nothing is left to check
            return master, out, (rows, cols)
        if out.status == LPStatus.INFEASIBLE:
            farkas = out.duals @ row_block
            farkas[cols] = -np.inf
            new_rows, new_cols = none, _most(farkas, FEAS_TOL)
        else:
            tol, k = FEAS_TOL * (1.0 + abs(out.value or 0.0)), len(cols)
            excess = breach(col_block @ out.x[:k] + fixed.rows @ out.x[k:] - rhs)
            if out.status == LPStatus.UNBOUNDED:
                lift = col_block @ out.ray[:k] + fixed.rows @ out.ray[k:]
                excess = np.maximum(excess, breach(lift))
            excess[rows] = -np.inf
            new_rows, new_cols = _most(excess, tol), none
            if out.status == LPStatus.OPTIMAL:
                reduced = cost - out.duals @ row_block
                reduced[cols] = -np.inf
                new_cols = _most(reduced, tol)
        if not (new_rows.size or new_cols.size):
            return master, out, (rows, cols)


@dataclass
class KKTReport:
    primal_residual: float
    dual_sign_residual: float
    stationarity_residual: float
    comp_slack_residual: float
    dual_value: float
    gap: float


def kkt_residuals(p: FiniteLP, out: LPOutcome) -> KKTReport:
    """Residuals of the optimality system for an OPTIMAL outcome.

    All residuals are ~0 (below solver tolerances) at a correct optimum;
    ``gap`` is |primal - dual| / (1 + |primal|) with the dual value rebuilt
    from the reported row duals and the reduced costs of the variables
    active (within ``ACTIVE_TOL``) at a bound.
    """
    if out.status != LPStatus.OPTIMAL:
        raise ValueError("kkt_residuals needs an optimal outcome")
    x = out.x
    sigma = 1.0 if p.sense == "min" else -1.0
    senses = np.array(p.row_senses, dtype="U2")
    le, ge = senses == "<=", senses == ">="
    r_rows = p.rows @ x - p.rhs
    row_viol = np.where(le, r_rows, np.where(ge, -r_rows, np.abs(r_rows)))
    with np.errstate(invalid="ignore"):
        primal = max(
            float(np.max(row_viol, initial=0.0)),
            float(np.max(np.maximum(p.lower - x, 0.0), initial=0.0)),
            float(np.max(np.maximum(x - p.upper, 0.0), initial=0.0)),
        )

    lam_t = sigma * out.duals
    sign_res = float(np.max(np.where(le, lam_t, np.where(ge, -lam_t, 0.0)), initial=0.0))

    rt = sigma * p.objective - p.rows.T @ lam_t
    has_l, has_u = np.isfinite(p.lower), np.isfinite(p.upper)
    l = np.where(has_l, p.lower, 0.0)
    u = np.where(has_u, p.upper, 0.0)
    at_l = has_l & (x <= l + ACTIVE_TOL)
    at_u = has_u & (x >= u - ACTIVE_TOL)
    v = np.where(at_l, np.maximum(0.0, -rt), np.where(at_u, np.maximum(0.0, rt), np.abs(rt)))
    stat = float(np.max(np.where(at_l & at_u, 0.0, v), initial=0.0))
    # a bound carries dual weight only where the variable is active at it;
    # elsewhere |rt| is already charged to stationarity, and multiplying
    # roundoff by a far bound would only inflate the residuals
    from_l = at_l & (rt > 0.0)
    from_u = at_u & (rt < 0.0)
    cs = max(
        float(np.max(np.where(from_l, rt * (x - l), 0.0), initial=0.0)),
        float(np.max(np.where(from_u, -rt * (u - x), 0.0), initial=0.0)),
        float(np.max(np.abs(lam_t * r_rows), initial=0.0)),
    )
    dual_t = float(p.rhs @ lam_t) + float(l[from_l] @ rt[from_l]) + float(u[from_u] @ rt[from_u])

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
