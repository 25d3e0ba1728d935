"""Model-free option price bounds via the moment machinery."""

from __future__ import annotations

import pytest

from measurelp import ReportStatus, SolverConfig, build_option_bound_problem, solve_option_bound
from oracles import two_atom_bound

FAST = SolverConfig(grid_resolution=513, scan_resolution=257, slater_resolution=65)


class TestProblemConstruction:
    def test_constraint_layout(self):
        mp = build_option_bound_problem((0.0, 4.0), 1.0, [(2.0, 0.25)], "max(x1 - 1, 0)", "sup")
        assert mp.n_ineq == 0
        assert mp.n_eq == 3  # mass, mean, one quote
        assert mp.has_mass_bound()
        assert mp.name == "option-bound-sup"
        # mass and mean bounds land in order
        assert mp.equalities[0][1] == 1.0
        assert mp.equalities[1][1] == 1.0
        assert mp.equalities[2][1] == 0.25

    def test_inf_negates_objective(self):
        sup = build_option_bound_problem((0.0, 4.0), 1.0, (), "max(x1 - 1, 0)", "sup")
        inf = build_option_bound_problem((0.0, 4.0), 1.0, (), "max(x1 - 1, 0)", "inf")
        x = (3.0,)
        assert sup.objective.value_at(x, 0) == 2.0
        assert inf.objective.value_at(x, 0) == -2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_option_bound_problem((4.0, 0.0), 1.0, (), "x1", "sup")
        with pytest.raises(ValueError):
            build_option_bound_problem((0.0, 4.0), -1.0, (), "x1", "sup")
        with pytest.raises(ValueError):
            build_option_bound_problem((0.0, 4.0), 1.0, (), "x1", "both")
        with pytest.raises(ValueError):
            build_option_bound_problem((0.0, 4.0), 1.0, [(5.0, 0.1)], "x1", "sup")
        with pytest.raises(ValueError):
            build_option_bound_problem((0.0, 4.0), 1.0, [(0.0, 0.1)], "x1", "sup")


class TestBounds:
    def test_sup_and_inf_against_two_atom_oracle(self):
        payoff = lambda x: max(x - 1.0, 0.0)
        oracle_sup = two_atom_bound(0.0, 4.0, 1.0, payoff, "sup")
        oracle_inf = two_atom_bound(0.0, 4.0, 1.0, payoff, "inf")
        assert oracle_sup == pytest.approx(0.75, abs=1e-9)
        assert oracle_inf == pytest.approx(0.0, abs=1e-9)

        sup = solve_option_bound((0.0, 4.0), 1.0, (), "max(x1 - 1, 0)", "sup", FAST)
        inf = solve_option_bound((0.0, 4.0), 1.0, (), "max(x1 - 1, 0)", "inf", FAST)
        assert sup.bound == pytest.approx(oracle_sup, abs=1e-3)
        assert inf.bound == pytest.approx(oracle_inf, abs=1e-3)
        assert sup.report.status == ReportStatus.STRONG_DUALITY
        assert inf.report.status == ReportStatus.STRONG_DUALITY
        # the bound comes from the dual side: it must dominate the attained value
        assert sup.bound >= sup.attained - 1e-8
        assert inf.bound <= inf.attained + 1e-8

    def test_zero_payoff(self):
        for direction in ("sup", "inf"):
            out = solve_option_bound((0.0, 4.0), 1.0, (), "0", direction, FAST)
            assert out.bound == pytest.approx(0.0, abs=1e-9)

    def test_quote_pins_the_distribution(self):
        out = solve_option_bound(
            (0.0, 4.0), 1.0, [(1.0, 0.4)], "max(x1 - 2, 0)", "sup", FAST
        )
        assert out.bound == pytest.approx(4.0 / 15.0, abs=1e-3)
        # the optima form a face: 2/15 at 4, and any mass of 13/15 on [0, 1]
        # with first moment 7/15, so only those three numbers are pinned
        atoms = out.report.atoms
        assert atoms is not None
        support = [(x, w) for (x,), w in zip(atoms.points, atoms.weights)]
        at_four = [w for x, w in support if x == pytest.approx(4.0, abs=1e-6)]
        rest = [(x, w) for x, w in support if x != pytest.approx(4.0, abs=1e-6)]
        assert sum(at_four) == pytest.approx(2.0 / 15.0, abs=1e-3)
        assert all(0.0 <= x <= 1.0 for x, _ in rest)
        assert sum(w for _, w in rest) == pytest.approx(13.0 / 15.0, abs=1e-3)
        assert sum(x * w for x, w in rest) == pytest.approx(7.0 / 15.0, abs=1e-3)

    def test_quoted_inf_is_zero(self):
        out = solve_option_bound(
            (0.0, 4.0), 1.0, [(1.0, 0.4)], "max(x1 - 2, 0)", "inf", FAST
        )
        assert out.bound == pytest.approx(0.0, abs=1e-3)

    def test_inconsistent_quotes_surface_as_infeasibility(self):
        # a call at strike 1 cannot cost more than the forward
        out = solve_option_bound(
            (0.0, 4.0), 1.0, [(1.0, 2.0)], "max(x1 - 1, 0)", "sup", FAST
        )
        assert out.report.status in (ReportStatus.PRIMAL_INFEASIBLE,)
        assert out.bound is None
