"""Dense two-phase simplex: fixed cases, oracles, and optimality residuals."""

from __future__ import annotations

import numpy as np
import pytest

import measurelp.density as density
import measurelp.simplex as simplex
from measurelp import (
    Box, FiniteLP, LPStatus, LpDensityProblem, parse_expression, solve_lp, standardize,
)
from measurelp.simplex import FEAS_TOL, LPOutcome, kkt_residuals, make_lp
from oracles import (
    hand_built_margin_lp, loop_kkt_residuals, loop_standardize, scipy_solve, vertex_enumeration,
)
from problems import random_lp


def assert_optimality_residuals(lp, out):
    rep = kkt_residuals(lp, out)
    rhs_scale = 1.0 + float(np.max(np.abs(lp.rhs), initial=0.0))
    assert rep.primal_residual <= 1e-9 * rhs_scale
    assert rep.dual_sign_residual <= 1e-8
    assert rep.stationarity_residual <= 1e-8 * (1.0 + abs(out.value))
    assert rep.comp_slack_residual <= 1e-8 * (1.0 + abs(out.value))
    assert rep.gap <= 1e-8


def crash_lp(rng: np.random.Generator):
    """Random bounded LP (<= 12 vars, <= 30 rows) whose slacks mostly oppose their rhs.

    ``<=`` rows are drawn to have a negative rhs and ``>=`` rows a positive
    one, around an interior point x0 with slack at least 0.1; about 20 % are
    made robustly infeasible by a pair of contradictory rows.
    """
    n = int(rng.integers(1, 13))
    m = int(rng.integers(1, 31))
    lower = np.where(rng.random(n) < 0.2, -rng.uniform(0.5, 2.0, n), 0.0)
    upper = lower + rng.uniform(0.5, 3.0, n)
    upper[rng.random(n) < 0.2] = np.inf
    x0 = rng.uniform(lower, np.where(np.isfinite(upper), upper, lower + 3.0))
    sense = "max" if rng.random() < 0.5 else "min"
    objective = rng.uniform(-2.0, 2.0, n)
    senses = rng.choice(["<=", ">=", "="], m, p=[0.45, 0.45, 0.1])
    rows = np.where((senses == "<=")[:, None], -1.0, 1.0) * rng.uniform(-0.5, 2.0, (m, n))
    reach = rows @ x0
    margin = rng.uniform(0.1, 1.0, m)
    rhs = np.where(senses == "<=", reach + margin, np.where(senses == ">=", reach - margin, reach))
    if m >= 2 and rng.random() < 0.2:
        rows[1] = rows[0]
        senses[0], rhs[0] = "<=", reach[0]
        senses[1], rhs[1] = ">=", reach[0] + 1.0
    free_above = ~np.isfinite(upper)  # their costs push toward the lower bound
    objective[free_above] = (1.0 if sense == "min" else -1.0) * np.abs(objective[free_above])
    return make_lp(sense, objective, rows, tuple(senses), rhs, lower=lower, upper=upper)


def opposed_slacks(lp) -> tuple[bool, bool]:
    """Whether a ``<=`` row, and a ``>=`` row, has a slack opposing its shifted rhs."""
    std = standardize(lp)
    has = std.slack >= 0
    unit = std.rows[has, std.slack[has]]
    opposed = unit * std.rhs[has] < 0.0
    return bool(np.any(opposed & (unit > 0.0))), bool(np.any(opposed & (unit < 0.0)))


class TestFixedCases:
    def test_bounded_maximum(self):
        lp = make_lp("max", np.array([1.0]), np.array([[1.0]]), ("<=",), np.array([1.0]))
        out = solve_lp(lp)
        assert out.status == LPStatus.OPTIMAL
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_unbounded(self):
        lp = make_lp("max", np.array([1.0]), np.zeros((0, 1)), (), np.zeros(0))
        assert solve_lp(lp).status == LPStatus.UNBOUNDED

    def test_infeasible(self):
        lp = make_lp("min", np.array([0.0]), np.array([[1.0]]), ("<=",), np.array([-1.0]))
        assert solve_lp(lp).status == LPStatus.INFEASIBLE

    def test_equality_and_free_variable(self):
        # min x + y s.t. x + y = 2, x free in [-5, 5], y >= 0
        lp = FiniteLP(
            sense="min",
            objective=np.array([1.0, 1.0]),
            rows=np.array([[1.0, 1.0]]),
            row_senses=("=",),
            rhs=np.array([2.0]),
            lower=np.array([-5.0, 0.0]),
            upper=np.array([5.0, np.inf]),
        )
        out = solve_lp(lp)
        assert out.status == LPStatus.OPTIMAL
        assert out.value == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_vertex_terminates(self):
        # many redundant rows meeting at one vertex: Bland's rule must finish
        rows = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [3.0, 3.0], [1.0, 0.0]])
        rhs = np.array([2.0, 4.0, 2.0, 6.0, 1.0])
        lp = make_lp("max", np.array([1.0, 1.0]), rows, ("<=",) * 5, rhs)
        out = solve_lp(lp)
        assert out.status == LPStatus.OPTIMAL
        assert out.value == pytest.approx(2.0, abs=1e-10)

    def test_all_zero_rows(self):
        # max x + y s.t. x + 2y <= 4, x <= 3: value 3.5 at (3, 0.5)
        rows = np.array([[1.0, 2.0], [1.0, 0.0]])
        base = solve_lp(make_lp("max", np.ones(2), rows, ("<=",) * 2, np.array([4.0, 3.0])))
        padded = make_lp(
            "max",
            np.ones(2),
            np.insert(rows, 1, 0.0, axis=0),
            ("<=",) * 3,
            np.array([4.0, 1.0, 3.0]),
        )
        out = solve_lp(padded)
        assert out.status == LPStatus.OPTIMAL
        assert out.value == base.value == pytest.approx(3.5, abs=1e-12)
        assert np.array_equal(out.x, base.x)
        assert np.array_equal(out.duals, np.insert(base.duals, 1, 0.0))
        infeasible = make_lp(
            "max", np.ones(2), padded.rows, ("<=", ">=", "<="), padded.rhs
        )
        assert solve_lp(infeasible).status == LPStatus.INFEASIBLE
        # 0 x = 0 is dropped as redundant in phase 1, with dual 0
        out = solve_lp(make_lp("max", np.ones(2), padded.rows, ("<=", "=", "<="), [4.0, 0.0, 3.0]))
        assert out.status == LPStatus.OPTIMAL
        assert out.value == pytest.approx(base.value, abs=1e-12)
        assert np.allclose(out.x, base.x, rtol=0.0, atol=1e-12)
        assert out.duals[1] == 0.0
        for sense, rhs in (("=", 1.0), ("<=", -1.0)):
            lp = make_lp("max", np.ones(2), padded.rows, ("<=", sense, "<="), [4.0, rhs, 3.0])
            assert solve_lp(lp).status == LPStatus.INFEASIBLE

    def test_feasible_zero_row_changes_nothing(self):
        rng = np.random.default_rng(163)
        for _ in range(50):
            lp = random_lp(rng)
            at = int(rng.integers(0, lp.n_rows + 1))
            sense, rhs = ("<=", float(rng.uniform(0.0, 2.0))) if rng.random() < 0.5 else ("=", 0.0)
            padded = make_lp(
                lp.sense, lp.objective, np.insert(lp.rows, at, 0.0, axis=0),
                lp.row_senses[:at] + (sense,) + lp.row_senses[at:], np.insert(lp.rhs, at, rhs),
                lower=lp.lower, upper=lp.upper,
            )
            base, out = solve_lp(lp), solve_lp(padded)
            assert out.status == base.status
            if base.status == LPStatus.OPTIMAL:
                close = 1e-12 * (1.0 + abs(base.value))
                assert abs(out.value - base.value) <= close
                assert np.max(np.abs(out.x - base.x)) <= close
                assert out.duals[at] == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            make_lp("max", np.array([np.nan]), np.zeros((0, 1)), (), np.zeros(0))
        with pytest.raises(ValueError):
            make_lp("up", np.array([1.0]), np.zeros((0, 1)), (), np.zeros(0))
        with pytest.raises(ValueError):
            make_lp("max", np.array([1.0]), np.array([[1.0, 2.0]]), ("<=",), np.array([0.0]))


class TestStandardize:
    def test_recovery_matches_direct_solve(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lp = random_lp(rng)
            out = solve_lp(lp)
            std = standardize(lp)
            assert std.as_lp().sense == "min"
            assert all(s == "=" for s in std.as_lp().row_senses)
            sp_status, sp_value = scipy_solve(std.as_lp())
            if out.status == LPStatus.OPTIMAL:
                assert sp_status == LPStatus.OPTIMAL
                recovered = std.recover_value(sp_value)
                assert recovered == pytest.approx(out.value, abs=1e-7, rel=1e-7)

    @staticmethod
    def bounds_lp(rng, m, n, kinds):
        """LP with the given bound kind per variable and random row senses."""
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        for j, kind in enumerate(kinds):
            if kind in ("shift", "boxed"):
                lower[j] = rng.uniform(-2.0, 2.0)
            if kind == "boxed":
                upper[j] = lower[j] + rng.choice([0.0, rng.uniform(0.1, 3.0)])
            if kind == "mirror":
                upper[j] = rng.uniform(-2.0, 2.0)
        # exact zeros (and negative zeros) exercise the signs of copied zeros
        rows = rng.uniform(-2.0, 2.0, (m, n)) * rng.choice([0.0, -0.0, 1.0, 1.0], (m, n))
        objective = rng.uniform(-2.0, 2.0, n) * rng.choice([0.0, -0.0, 1.0, 1.0], n)
        senses = tuple(rng.choice(["<=", "=", ">="], m))
        sense = "max" if rng.random() < 0.5 else "min"
        rhs = rng.uniform(-3.0, 3.0, m)
        return make_lp(sense, objective, rows, senses, rhs, lower=lower, upper=upper)

    def test_matches_column_loop_bit_for_bit(self):
        def same(a, b):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()  # also tells 0.0 from -0.0

        kinds = ("shift", "boxed", "mirror", "split")
        rng = np.random.default_rng(131)
        lps = [
            self.bounds_lp(rng, 0, 3, kinds[:3]),                 # m = 0
            self.bounds_lp(rng, 0, 2, ("split", "split")),
            self.bounds_lp(rng, 3, 4, ("split",) * 4),            # no finite bound
            self.bounds_lp(rng, 2, 4, kinds),
        ]
        for _ in range(200):
            m, n = int(rng.integers(0, 7)), int(rng.integers(1, 9))
            lps.append(self.bounds_lp(rng, m, n, rng.choice(kinds, n)))
        seen_kinds, seen_senses = set(), set()
        for lp in lps:
            std, ref = standardize(lp), loop_standardize(lp)
            seen_kinds.update(kind for kind, _, _ in ref.columns)
            seen_senses.update(lp.row_senses)
            same(std.rows, ref.rows)
            same(std.rhs, ref.rhs)
            same(std.objective, ref.objective)
            assert std.constant == ref.constant
            assert std.negate == ref.negate
            width, m_all = std.rows.shape[1], std.rows.shape[0]
            for _ in range(3):
                x_std = rng.uniform(0.0, 3.0, width) * rng.choice([0.0, 1.0], width)
                same(std.recover_x(x_std), ref.recover_x(x_std))
                y_std = rng.uniform(-2.0, 2.0, m_all)
                same(std.recover_duals(y_std), ref.recover_duals(y_std))
                value = float(rng.uniform(-5.0, 5.0))
                assert std.recover_value(value) == ref.recover_value(value)
        assert seen_kinds == {"shift", "mirror", "split"}
        assert seen_senses == {"<=", "=", ">="}
        assert any(np.isfinite(lp.upper - lp.lower).any() for lp in lps)  # boxed shifts


class TestCrashStart:
    def test_slack_feasible_lp_skips_phase_one(self, monkeypatch):
        calls = []
        real = simplex._pivot_loop

        def counted(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(simplex, "_pivot_loop", counted)
        rng = np.random.default_rng(151)
        rows = rng.uniform(-1.0, 2.0, (12, 7))
        rhs = rng.uniform(0.0, 3.0, 12)
        rhs[3] = 0.0
        lp = make_lp("max", rng.uniform(0.0, 1.0, 7), rows, ("<=",) * 12, rhs, upper=4.0)
        out = solve_lp(lp)
        assert out.status == LPStatus.OPTIMAL
        assert calls == ["optimal"]  # phase 2 only
        sp_status, sp_value = scipy_solve(lp)
        assert sp_status == LPStatus.OPTIMAL
        assert out.value == pytest.approx(sp_value, abs=1e-9, rel=1e-9)
        # one row whose slack opposes its rhs brings phase 1 back
        calls.clear()
        flipped = make_lp("max", lp.objective, rows, ("<=",) * 11 + (">=",), rhs, upper=4.0)
        assert solve_lp(flipped).status == scipy_solve(flipped)[0]
        assert len(calls) == 2

    def test_opposed_slacks_match_scipy(self):
        rng = np.random.default_rng(157)
        statuses = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 0}
        opposed = np.zeros(2, dtype=int)
        for _ in range(300):
            lp = crash_lp(rng)
            opposed += opposed_slacks(lp)
            out = solve_lp(lp)
            sp_status, sp_value = scipy_solve(lp)
            assert out.status == sp_status
            statuses[out.status] += 1
            if out.status == LPStatus.OPTIMAL:
                assert out.value == pytest.approx(sp_value, abs=1e-8, rel=1e-8)
                assert_optimality_residuals(lp, out)
        assert np.all(opposed >= 250)  # both senses take the shared x0 path
        assert 30 <= statuses[LPStatus.INFEASIBLE] <= 90
        assert statuses[LPStatus.OPTIMAL] >= 200


class TestRandomSuite:
    def test_matches_scipy(self):
        rng = np.random.default_rng(101)
        optima = 0
        for _ in range(300):
            lp = random_lp(rng)
            out = solve_lp(lp)
            sp_status, sp_value = scipy_solve(lp)
            assert out.status == sp_status
            if out.status == LPStatus.OPTIMAL:
                optima += 1
                assert out.value == pytest.approx(sp_value, abs=1e-8, rel=1e-8)
        assert optima > 150

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            lp = random_lp(rng)
            out = solve_lp(lp)
            status, value = vertex_enumeration(lp)
            if status == "infeasible":
                assert out.status == LPStatus.INFEASIBLE
            else:
                assert out.status == LPStatus.OPTIMAL
                assert abs(out.value - value) <= 1e-9 * (1.0 + abs(value))

    def test_optimality_residuals(self):
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(200):
            lp = random_lp(rng)
            out = solve_lp(lp)
            if out.status != LPStatus.OPTIMAL:
                continue
            checked += 1
            assert_optimality_residuals(lp, out)
        assert checked > 100

    def test_kkt_residuals_match_loop_form(self):
        rng = np.random.default_rng(163)
        kinds = ("shift", "boxed", "mirror", "split")
        lps = [random_lp(rng) for _ in range(200)] + [crash_lp(rng) for _ in range(100)]
        lps += [
            TestStandardize.bounds_lp(rng, int(rng.integers(0, 7)), n, rng.choice(kinds, n))
            for n in rng.integers(1, 9, 300)
        ]
        checked = 0
        for lp in lps:
            out = solve_lp(lp)
            if out.status != LPStatus.OPTIMAL:
                continue
            checked += 1
            rep, ref = kkt_residuals(lp, out), loop_kkt_residuals(lp, out)
            assert rep.primal_residual == ref.primal_residual
            assert rep.dual_sign_residual == ref.dual_sign_residual
            assert rep.stationarity_residual == ref.stationarity_residual
            assert rep.comp_slack_residual == ref.comp_slack_residual
            assert abs(rep.dual_value - ref.dual_value) <= 1e-12 * (1.0 + abs(ref.dual_value))
            assert abs(rep.gap - ref.gap) <= 1e-12 * (1.0 + abs(ref.gap))
        assert checked > 300

    def test_row_scaling_and_order_invariance(self):
        rng = np.random.default_rng(167)
        optima = 0
        for _ in range(300):
            lp = random_lp(rng)
            base = solve_lp(lp)
            scale = 10.0 ** rng.uniform(-3.0, 3.0, lp.n_rows)
            order = rng.permutation(lp.n_rows)
            moved = solve_lp(make_lp(
                lp.sense,
                lp.objective,
                (lp.rows * scale[:, None])[order],
                tuple(lp.row_senses[i] for i in order),
                (lp.rhs * scale)[order],
                lower=lp.lower,
                upper=lp.upper,
            ))
            assert moved.status == base.status
            if base.status == LPStatus.OPTIMAL:
                optima += 1
                assert abs(moved.value - base.value) <= 1e-9 * (1.0 + abs(base.value))
        assert optima > 150

    def test_status_scale_invariance(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            lp = random_lp(rng)
            base = solve_lp(lp).status
            for factor in (1e6, 1e-6):
                scaled = FiniteLP(
                    sense=lp.sense,
                    objective=lp.objective * factor,
                    rows=lp.rows,
                    row_senses=lp.row_senses,
                    rhs=lp.rhs,
                    lower=lp.lower,
                    upper=lp.upper,
                )
                assert solve_lp(scaled).status == base

    def test_determinism(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            lp = random_lp(rng)
            a = solve_lp(lp)
            b = solve_lp(lp)
            assert a.status == b.status
            if a.status == LPStatus.OPTIMAL:
                assert a.value == b.value
                assert np.array_equal(a.x, b.x)
                assert np.array_equal(a.duals, b.duals)


class TestKKTResiduals:
    def test_far_bound_does_not_amplify_roundoff(self):
        # Gaussian-kernel density problem on the unit square whose Slater
        # margin LP leaves delta basic, far below its cap of 1e6, with a
        # reduced cost of ~6e-14: charged against the cap, that roundoff
        # read as a complementary-slackness residual of 6.1e-8
        unit = Box((0.0, 0.0), (1.0, 1.0))
        pb = LpDensityProblem(
            domain=unit,
            objective=parse_expression(
                "0.6896412493864108 + 0.16628336569478197*x1"
                " + 0.2480687321513595*x2 - 0.16551177545809503*x1*x2", 2
            ),
            p=2.440027805704576,
            kernel_a=parse_expression(
                "exp(-1.5358650040815212*((y1 - x1)^2 + (y2 - x2)^2))", 4, (("y", 2), ("x", 2))
            ),
            bound_a=parse_expression(
                "1.3259788593644717 - 0.0948454125625974*y1 - 0.0905531873777739*y2", 2, (("y", 2),)
            ),
            ineq_domain=unit,
        )
        report = density.check_lp_slater(pb, x_resolution=16)
        assert report.feasible and not report.capped
        lp = hand_built_margin_lp(pb, 16)  # the dense margin LP the check used to solve
        out = solve_lp(lp)
        delta = lp.n_vars - 1
        assert lp.upper[delta] == 1e6 and out.x[delta] < 1.0
        rep = kkt_residuals(lp, out)
        assert rep.comp_slack_residual <= 1e-8
        assert rep.gap <= 1e-8
        assert_optimality_residuals(lp, out)


def with_margin(lp, cap):
    """``lp`` plus a column t <= ``cap``, free below, on its first ``<=`` row.

    t carries objective 1 for ``max`` (-1 for ``min``), so the LP pushes it
    up against that row; the row's rhs stays where it was.
    """
    first = np.zeros((lp.n_rows, 1))
    first[lp.row_senses.index("<=")] = 1.0
    return make_lp(
        lp.sense, np.append(lp.objective, 1.0 if lp.sense == "max" else -1.0),
        np.hstack([lp.rows, first]), lp.row_senses, lp.rhs,
        np.append(lp.lower, -np.inf), np.append(lp.upper, cap),
    )


def assert_farkas(lp, y):
    """``y`` meets ``LPOutcome``'s Farkas inequalities for ``lp`` within 1e-9."""
    senses = np.array(lp.row_senses)
    assert np.all(y[senses == "<="] <= 1e-9) and np.all(y[senses == ">="] >= -1e-9)
    g = y @ lp.rows
    g[np.abs(g) <= 1e-9] = 0.0  # roundoff, not a direction along an infinite bound
    with np.errstate(invalid="ignore"):
        reach = np.nan_to_num(np.maximum(g * lp.lower, g * lp.upper), nan=0.0)
    assert y @ lp.rhs > float(np.sum(reach)) + 1e-9


# four weights that sum to 1 and must reach a mean r below the smallest of
# theirs, plus a margin t <= U on the <= row: infeasible by about 0.72 g,
# whatever U is.  Against the sum of the artificials at FEAS_TOL * (1 +
# max|b|), the shifted rhs of the t row (~U) passed these as feasible; phase
# 2 then drifted negative or, at U = 1e6 and g = 1e-6, reported an optimum
# of 0.9335
PHI = [-3.2969779644070667, -3.35078847120685, -3.405296309119462, -3.4605072276886846]
MEANS = [1.4005120411983318, 1.3991832509788682, 1.3975646039050538, 1.3956496808137486]


class TestPhaseOneVerdict:
    @staticmethod
    def margin_lp(r, cap):
        rows = np.array([PHI + [1.0], [1.0] * 4 + [0.0], MEANS + [0.0]])
        return make_lp(
            "max", [0.0] * 4 + [1.0], rows, ("<=", "=", "="), [-2.5269941098906936, 1.0, r],
            lower=[0.0] * 4 + [-np.inf], upper=[np.inf] * 4 + [cap],
        )

    @pytest.mark.parametrize("cap", [np.inf, 1e3, 1e6])
    @pytest.mark.parametrize("r", [1.3951238998240438] + [MEANS[-1] - g for g in (1e-4, 1e-5, 1e-6)])
    def test_each_artificial_meets_its_own_row(self, r, cap):
        lp = self.margin_lp(r, cap)
        out = solve_lp(lp)
        assert out.status == LPStatus.INFEASIBLE
        assert_farkas(lp, out.duals)

    def test_a_margin_column_leaves_random_lps_alone(self):
        # criterion 6's LPs: t <= U takes up the first <= row's slack, so
        # neither the status nor the value may depend on U
        rng = np.random.default_rng(4242)
        checked = 0
        for trial in range(500):
            lp = random_lp(rng)
            if "<=" not in lp.row_senses:
                continue
            outs = [solve_lp(with_margin(lp, cap)) for cap in (1e3, 1e6, np.inf)]
            assert len({out.status for out in outs}) == 1, trial
            if outs[0].status == LPStatus.OPTIMAL:
                v = outs[-1].value
                assert all(abs(out.value - v) <= 1e-9 * (1.0 + abs(v)) for out in outs), trial
            checked += 1
        assert checked >= 400


def generation_case(rng: np.random.Generator):
    """A random LP in ``_generate``'s form: ``(cost, K, rhs, equality, fixed or None)``.

    Columns are nonnegative, rows ``<=`` or ``=``.  Most instances are built
    around a point x0 >= 0, so they are feasible; about 15 % are made
    robustly infeasible by a row equal to another one with rhs 1 above it,
    and about 15 % robustly unbounded by a column with positive cost that
    lowers every ``<=`` row and leaves every ``=`` row alone.  Half carry
    one fixed column, with finite or infinite bounds.
    """
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13))
    K = rng.uniform(-0.5, 2.0, (m, n))
    cost = rng.uniform(-1.0, 2.0, n)
    equality = rng.random(m) < 0.3
    x0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
    fixed, t0 = None, np.zeros(0)
    if rng.random() < 0.5:
        lower, upper = [(-np.inf, np.inf), (-np.inf, 3.0), (0.0, np.inf), (-1.0, 2.0)][
            int(rng.integers(4))
        ]
        t0 = np.array([np.clip(rng.uniform(-1.0, 2.0), lower, upper)])
        fixed = simplex._Fixed(
            rng.uniform(-1.0, 1.0, 1), np.array([lower]), np.array([upper]),
            rng.uniform(-1.0, 1.0, (m, 1)),
        )
    reach = K @ x0 + (0.0 if fixed is None else fixed.rows @ t0)
    rhs = np.where(equality, reach, reach + rng.uniform(0.1, 1.0, m))
    kind = rng.random()
    if m >= 2 and kind < 0.15:
        K[1], equality[1], rhs[1] = K[0], True, rhs[0] + 1.0
        if fixed is not None:
            fixed.rows[1] = fixed.rows[0]
    elif kind < 0.3:
        j = int(rng.integers(n))
        K[:, j] = np.where(equality, 0.0, -rng.uniform(0.0, 1.0, m))
        cost[j] = 1.0
    return cost, K, rhs, equality, fixed


def full_generation_lp(cost, K, rhs, equality, fixed) -> FiniteLP:
    """The whole LP that ``_generate`` solves, as one FiniteLP."""
    n = len(cost)
    if fixed is None:
        fixed = simplex._Fixed(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros((len(rhs), 0)))
    return make_lp(
        "max", np.append(cost, fixed.cost), np.column_stack([K, fixed.rows]),
        np.where(equality, "=", "<=").tolist(), rhs,
        lower=np.append(np.zeros(n), fixed.lower),
        upper=np.append(np.full(n, np.inf), fixed.upper),
    )


def count_lps(monkeypatch) -> list[int]:
    """The column count of every LP that a ``simplex._Master`` solves from now on.

    ``_generate`` reads its master's outcome once a round, and ``solve_lp``
    once a call.
    """
    widths = []
    real = simplex._Master.result

    def counted(master):
        widths.append(master.std.n_original)
        return real(master)

    monkeypatch.setattr(simplex._Master, "result", counted)
    return widths


class TestGenerate:
    def test_matches_the_full_lp(self):
        rng = np.random.default_rng(71)
        statuses = []
        for trial in range(320):
            cost, K, rhs, equality, fixed = generation_case(rng)
            m, n = K.shape
            full = full_generation_lp(cost, K, rhs, equality, fixed)
            ref = solve_lp(full)
            statuses.append(ref.status)
            partial = (
                rng.permutation(m)[: int(rng.integers(m + 1))],
                rng.permutation(n)[: int(rng.integers(n + 1))],
            )
            starts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int)), partial]
            starts.append((rng.permutation(m), rng.permutation(n)))
            for start in starts:
                table = lambda R, C: K[R][:, C]
                _, out, last = simplex._generate(table, cost, rhs, equality, start, fixed)
                assert out.status == ref.status, trial
                if out.status != LPStatus.OPTIMAL:
                    continue
                assert abs(out.value - ref.value) <= 1e-9 * (1.0 + abs(ref.value)), trial
                # pad the restricted solution with zeros
                (R, C), x, duals = last, np.zeros(full.n_vars), np.zeros(m)
                x[C], x[n:] = out.x[:len(C)], out.x[len(C):]
                duals[R] = out.duals
                kkt = kkt_residuals(full, LPOutcome(LPStatus.OPTIMAL, out.value, x, duals))
                tol = FEAS_TOL * (1.0 + abs(out.value))
                assert kkt.primal_residual <= tol, trial
                assert kkt.dual_sign_residual <= tol, trial
                assert kkt.stationarity_residual <= tol, trial
                assert kkt.comp_slack_residual <= tol, trial
                assert kkt.gap <= tol, trial
        for status in LPStatus:
            assert statuses.count(status) >= 30, status

    def test_full_start_is_solved_once(self, monkeypatch):
        rng = np.random.default_rng(73)
        seen = set()
        while len(seen) < 3:
            cost, K, rhs, equality, fixed = generation_case(rng)
            m, n = K.shape
            widths = count_lps(monkeypatch)
            _, out, last = simplex._generate(
                lambda R, C: K[R][:, C], cost, rhs, equality,
                (np.arange(m), np.arange(n)), fixed,
            )
            monkeypatch.undo()
            assert widths == [n + (0 if fixed is None else 1)]
            assert [list(last[0]), list(last[1])] == [list(range(m)), list(range(n))]
            seen.add(out.status)

    def test_unbounded_with_every_row_is_final(self, monkeypatch):
        # max g0 + g1 on g0 - g1 + g2 <= 1: on (g0, g1) alone the LP is
        # already unbounded, and g2 cannot bound it
        K = np.array([[1.0, -1.0, 1.0]])
        widths = count_lps(monkeypatch)
        _, out, last = simplex._generate(
            lambda R, C: K[R][:, C], np.array([1.0, 1.0, 0.0]), np.array([1.0]),
            np.array([False]), (np.array([0]), np.array([0, 1])),
        )
        assert out.status == LPStatus.UNBOUNDED
        assert widths == [2]


def rows_lp(cost, K, R, rhs, equality, fixed):
    """``_generate``'s LP on rows ``R`` with every column, as one FiniteLP."""
    if fixed is not None:
        fixed = simplex._Fixed(fixed.cost, fixed.lower, fixed.upper, fixed.rows[R])
    return full_generation_lp(cost, K[R], rhs[R], equality[R], fixed)


class TestCertificates:
    def test_farkas_vector_of_an_infeasible_lp(self):
        rng = np.random.default_rng(71)
        seen = 0
        for trial in range(320):
            cost, K, rhs, equality, _ = generation_case(rng)
            out = solve_lp(full_generation_lp(cost, K, rhs, equality, None))
            if out.status != LPStatus.INFEASIBLE:
                continue
            seen += 1
            y = out.duals  # y <= 0 on <= rows, y . K <= 0 on every column, y . rhs > 0
            assert y.shape == rhs.shape, trial
            assert np.all(y[~equality] <= 1e-9), trial
            assert np.all(y @ K <= 1e-9), trial
            assert y @ rhs > 1e-9, trial
        assert seen >= 30

    def test_ray_of_an_unbounded_lp(self):
        rng = np.random.default_rng(71)
        seen = 0
        for trial in range(320):
            cost, K, rhs, equality, fixed = generation_case(rng)
            lp = full_generation_lp(cost, K, rhs, equality, fixed)
            out = solve_lp(lp)
            if out.status != LPStatus.UNBOUNDED:
                continue
            seen += 1
            x, d = out.x, out.ray
            for v, bound in ((x, rhs), (d, 0.0)):  # x keeps every row, and so does d
                excess = lp.rows @ v - bound
                assert np.all(np.where(equality, np.abs(excess), excess) <= 1e-9), trial
            assert np.all((x >= lp.lower - 1e-9) & (x <= lp.upper + 1e-9)), trial
            assert np.all(d[np.isfinite(lp.lower)] >= 0.0), trial
            assert np.all(d[np.isfinite(lp.upper)] <= 0.0), trial
            assert lp.objective @ d > 0.0, trial
        assert seen >= 30

    def test_generated_certificates_hold_for_the_full_lp(self):
        # an infeasible or unbounded outcome is settled on rows R and columns
        # C, and its certificate, padded with zeros, holds for every row and
        # column within FEAS_TOL
        rng = np.random.default_rng(79)
        seen = set()
        for trial in range(320):
            cost, K, rhs, equality, fixed = generation_case(rng)
            m, n = K.shape
            empty = np.zeros(0, dtype=int)
            _, out, (R, C) = simplex._generate(
                lambda R, C: K[R][:, C], cost, rhs, equality, (empty, empty), fixed
            )
            seen.add(out.status)
            if out.status == LPStatus.INFEASIBLE:
                assert np.all(out.duals @ K[R] <= FEAS_TOL), trial
                assert out.duals @ rhs[R] > FEAS_TOL, trial
                assert solve_lp(rows_lp(cost, K, R, rhs, equality, fixed)).status == (
                    LPStatus.INFEASIBLE
                ), trial
            elif out.status == LPStatus.UNBOUNDED:
                full = full_generation_lp(cost, K, rhs, equality, fixed)
                x, d = np.zeros(full.n_vars), np.zeros(full.n_vars)
                x[C], x[n:] = out.x[:len(C)], out.x[len(C):]
                d[C], d[n:] = out.ray[:len(C)], out.ray[len(C):]
                for v, bound in ((x, rhs), (d, 0.0)):
                    excess = full.rows @ v - bound
                    assert np.all(np.where(equality, np.abs(excess), excess) <= FEAS_TOL), trial
                assert full.objective @ d > 0.0, trial
        assert seen == set(LPStatus)


def restricted_lp(cost, K, R, C, rhs, equality, fixed):
    """``_generate``'s LP on rows ``R`` and columns ``C``, as one FiniteLP."""
    return rows_lp(cost[C], K[:, C], R, rhs, equality, fixed)


def cold_master(cost, K, R, C, rhs, equality, fixed):
    """A ``_Master`` built cold on rows ``R`` and columns ``C``, as ``_generate`` builds it."""
    return simplex._Master(standardize(restricted_lp(cost, K, R, C, rhs, equality, fixed)), R, C)


def count_builds(monkeypatch) -> list[int]:
    """One entry per ``_Master`` built, cold start or rebuild, from now on."""
    built = []
    real = simplex._Master.__init__

    def counted(master, *args, **kwargs):
        built.append(1)
        real(master, *args, **kwargs)

    monkeypatch.setattr(simplex._Master, "__init__", counted)
    return built


def assert_same_outcome(lp, out, ref, trial):
    """``out``, a grown master's outcome, against ``ref``, a cold solve of ``lp``."""
    assert out.status == ref.status, trial
    if out.status == LPStatus.OPTIMAL:
        tol = FEAS_TOL * (1.0 + abs(ref.value))
        assert abs(out.value - ref.value) <= 1e-9 * (1.0 + abs(ref.value)), trial
        kkt = kkt_residuals(lp, out)
        assert kkt.primal_residual <= tol, trial
        assert kkt.dual_sign_residual <= tol, trial
        assert kkt.stationarity_residual <= tol, trial
        assert kkt.comp_slack_residual <= tol, trial
        assert kkt.gap <= tol, trial
    elif out.status == LPStatus.INFEASIBLE:
        y, le = out.duals, np.array(lp.row_senses) == "<="
        assert np.all(y[le] <= FEAS_TOL), trial  # every row here is <= or =
        a = y @ lp.rows  # the largest a . x within the bounds is below y . rhs
        with np.errstate(invalid="ignore"):  # 0 * inf, where the other branch is taken
            top = np.where(a > FEAS_TOL, a * lp.upper, np.where(a < -FEAS_TOL, a * lp.lower, 0.0))
        assert y @ lp.rhs > np.sum(top) + FEAS_TOL, trial
    else:
        x, d = out.x, out.ray
        eq = np.array(lp.row_senses) == "="
        for v, bound in ((x, lp.rhs), (d, 0.0)):
            excess = lp.rows @ v - bound
            assert np.all(np.where(eq, np.abs(excess), excess) <= FEAS_TOL), trial
        assert np.all((x >= lp.lower - FEAS_TOL) & (x <= lp.upper + FEAS_TOL)), trial
        assert np.all(d[np.isfinite(lp.lower)] >= 0.0), trial
        assert np.all(d[np.isfinite(lp.upper)] <= 0.0), trial
        assert lp.objective @ d > 0.0, trial


class TestMaster:
    def test_grown_master_matches_the_cold_solve(self):
        # rows and columns join in random batches, rows first, and after
        # every join the master's outcome is the cold solve's
        rng = np.random.default_rng(83)
        seen = set()
        for trial in range(320):
            cost, K, rhs, equality, fixed = generation_case(rng)
            m, n = K.shape
            fixed_rows = np.zeros((m, 0)) if fixed is None else fixed.rows
            row_order, col_order = rng.permutation(m), rng.permutation(n)
            r, c = int(rng.integers(m + 1)), int(rng.integers(n + 1))
            master = cold_master(cost, K, row_order[:r], col_order[:c], rhs, equality, fixed)
            while r < m or c < n:
                new_r, new_c = int(rng.integers(4)), int(rng.integers(4))
                rows, cols = row_order[r:r + new_r], col_order[c:c + new_c]
                R, C = row_order[:r + len(rows)], col_order[:c + len(cols)]
                if len(rows):
                    block = np.column_stack([K[rows][:, master.cols], fixed_rows[rows]])
                    master.add_rows(block, rhs[rows], equality[rows], rows)
                if len(cols):
                    master.add_columns(K[R][:, cols], cost[cols], cols)
                r, c = len(R), len(C)
                assert list(master.rows) == list(R) and list(master.cols) == list(C)
                lp = restricted_lp(cost, K, R, C, rhs, equality, fixed)
                out = master.result()
                assert_same_outcome(lp, out, solve_lp(lp), trial)
                seen.add(out.status)
        assert seen == set(LPStatus)

    def test_equality_row_restarts_once(self, monkeypatch):
        # an = row leaves the tableau neither primal nor dual feasible, so
        # the master rebuilds cold from its LP, once
        rng = np.random.default_rng(89)
        restarts = 0
        for trial in range(200):
            cost, K, rhs, equality, fixed = generation_case(rng)
            m, n = K.shape
            eq = np.flatnonzero(equality)
            if not eq.size or len(eq) == m:
                continue
            R = np.flatnonzero(~equality)
            C = np.arange(n)
            master = cold_master(cost, K, R, C, rhs, equality, fixed)
            if master.outcome.status != LPStatus.OPTIMAL:
                continue
            built = count_builds(monkeypatch)
            rows = eq[:1]
            fixed_rows = np.zeros((m, 0)) if fixed is None else fixed.rows
            master.add_rows(
                np.column_stack([K[rows], fixed_rows[rows]]), rhs[rows], equality[rows], rows
            )
            monkeypatch.undo()
            assert len(built) == 1, trial
            lp = restricted_lp(cost, K, np.concatenate([R, rows]), C, rhs, equality, fixed)
            assert_same_outcome(lp, master.result(), solve_lp(lp), trial)
            restarts += 1
        assert restarts >= 20

    def test_rounds_build_no_lp(self, monkeypatch):
        # a round updates the master in place: no FiniteLP, no standard form,
        # no solve from the slack basis
        def refused(*args, **kwargs):
            raise AssertionError("a round of the generation loop built an LP")

        for name in ("make_lp", "standardize", "solve_lp"):
            monkeypatch.setattr(simplex, name, refused)
        rng = np.random.default_rng(97)
        empty = np.zeros(0, dtype=int)
        for _ in range(100):
            cost, K, rhs, equality, fixed = generation_case(rng)
            simplex._generate(lambda R, C: K[R][:, C], cost, rhs, equality, (empty, empty), fixed)
