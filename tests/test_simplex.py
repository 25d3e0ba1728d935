"""Dense two-phase simplex: fixed cases, oracles, and optimality residuals."""

from __future__ import annotations

import numpy as np
import pytest

from measurelp import FiniteLP, LPStatus, solve_lp, standardize
from measurelp.simplex import kkt_residuals, make_lp
from oracles import scipy_solve, vertex_enumeration
from problems import random_lp


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
            rep = kkt_residuals(lp, out)
            rhs_scale = 1.0 + float(np.max(np.abs(lp.rhs), initial=0.0))
            assert rep.primal_residual <= 1e-9 * rhs_scale
            assert rep.dual_sign_residual <= 1e-8
            assert rep.stationarity_residual <= 1e-8 * (1.0 + abs(out.value))
            assert rep.comp_slack_residual <= 1e-8 * (1.0 + abs(out.value))
            assert rep.gap <= 1e-8
        assert checked > 100

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
