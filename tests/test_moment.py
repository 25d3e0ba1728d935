"""Moment problems: grid primal, exchange dual, Slater checks, full report."""

from __future__ import annotations

import numpy as np
import pytest

from measurelp import (
    AtomicMeasure,
    Box,
    DualPoint,
    LPStatus,
    MomentProblem,
    Partition,
    PiecewiseFunction,
    ReportStatus,
    SolverConfig,
    apply_unit_normalization,
    check_dual_slater,
    check_primal_slater,
    duality_report,
    exchange_solve,
    parse_expression,
    solve_grid_primal,
)
from measurelp.geometry import grid_array
from measurelp.moment import (
    CutSet,
    ExchangeError,
    assemble_grid_primal,
    initial_cuts,
    make_cut,
    restricted_dual_lp,
    separation_oracle,
)
from measurelp.simplex import solve_lp
from problems import (
    cauchy_schwarz_problem,
    contradictory_problem,
    interval_problem,
    piecewise_problem,
    pw,
    random_moment_problem,
)

FAST = SolverConfig(grid_resolution=257, scan_resolution=257, slater_resolution=65)


def seeded_exchange(mp, resolution, **kwargs):
    """Exchange run whose cut set contains the closed grid at ``resolution``."""
    primal = solve_grid_primal(mp, resolution)
    seeds = tuple(
        (int(i), tuple(p)) for i, p in zip(primal.grid.box_indices, primal.grid.points)
    )
    kwargs.setdefault("scan_resolution", 257)
    return primal, exchange_solve(mp, extra_cuts=seeds, **kwargs)


def cut_prefixes(result):
    """Working cut set at the start of each iteration, reconstructed."""
    appended = result.iterations - (0 if result.status == "not_converged" else 1)
    start = len(result.cuts) - appended
    return [result.cuts[: start + k] for k in range(result.iterations)]


class TestPiecewiseFunction:
    def test_piece_count_and_arity_validation(self):
        part = Partition((Box((0.0,), (1.0,)), Box((1.0,), (2.0,))))
        with pytest.raises(ValueError):
            PiecewiseFunction(part, (parse_expression("x1", 1),))
        with pytest.raises(ValueError):
            PiecewiseFunction(
                part, (parse_expression("x1", 1), parse_expression("x2", 2))
            )

    def test_closure_semantics_at_shared_face(self):
        fn = pw(Partition((Box((0.0,), (1.0,)), Box((1.0,), (2.0,)))), "x1", "2 - x1")
        # x = 1 is owned by box 1 under half-open membership
        assert fn.value_at((1.0,)) == 1.0
        # but each box may evaluate its own piece on its closure
        assert fn.value_at((1.0,), box_index=0) == 1.0
        assert fn.value_at((0.5,), box_index=0) == 0.5
        assert fn.value_at((1.5,)) == 0.5
        with pytest.raises(ValueError):
            fn.value_at((5.0,))

    def test_is_constant_one(self):
        part = Partition((Box((0.0,), (1.0,)),))
        assert pw(part, "1").is_constant_one()
        assert pw(part, "0.5 + 0.5").is_constant_one()
        assert not pw(part, "x1").is_constant_one()
        assert not pw(part, "2").is_constant_one()


class TestProblemTypes:
    def test_moment_problem_validation(self):
        part = Partition((Box((0.0,), (1.0,)),))
        with pytest.raises(ValueError):
            MomentProblem(
                domain=part,
                hull=Box((0.0,), (1.0,)),
                objective=pw(part, "x1"),
                inequalities=(),
                equalities=(),
            )
        with pytest.raises(ValueError):
            MomentProblem(
                domain=part,
                hull=Box((0.0, 0.0), (1.0, 1.0)),
                objective=pw(part, "x1"),
                inequalities=(),
                equalities=((pw(part, "1"), 1.0),),
            )
        with pytest.raises(ValueError):
            interval_problem(0.0, 1.0, "x1", equalities=(("1", float("inf")),))

    def test_atomic_measure(self):
        atoms = AtomicMeasure(
            points=((0.0,), (2.0,)), weights=(0.25, 0.75), box_indices=(0, 0)
        )
        assert atoms.total_mass == 1.0
        part = Partition((Box((0.0,), (2.5,)),))
        assert atoms.integrate(pw(part, "x1 ^ 2")) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            AtomicMeasure(points=((0.0,),), weights=(-0.1,), box_indices=(0,))
        with pytest.raises(ValueError):
            AtomicMeasure(points=((0.0,),), weights=(), box_indices=(0,))

    def test_dual_point(self):
        with pytest.raises(ValueError):
            DualPoint(y=(-1e-3,), z=())
        mp = cauchy_schwarz_problem()
        d = DualPoint(y=(), z=(0.5, 0.5))
        assert d.value(mp) == pytest.approx(1.0)
        # slack is (x - 1)^2 / 2 for the Cauchy-Schwarz certificate
        for x in (-2.0, -0.5, 0.0, 1.0, 1.7, 2.0):
            assert d.slack_at(mp, (x,), 0) == pytest.approx((x - 1.0) ** 2 / 2.0, abs=1e-12)

    def test_has_mass_bound(self):
        assert cauchy_schwarz_problem().has_mass_bound()
        no_mass = interval_problem(1.0, 2.0, "x1", inequalities=(("x1 ^ 2", 1.0),))
        assert not no_mass.has_mass_bound()


class TestGridPrimal:
    def test_zero_objective_unit_mass(self):
        mp = interval_problem(0.0, 1.0, "0", equalities=(("1", 1.0),))
        grid = assemble_grid_primal(mp, 2)
        assert grid.lp.rows.shape == (1, 2)
        ps = solve_grid_primal(mp, 2)
        assert ps.status == LPStatus.OPTIMAL
        assert ps.value == pytest.approx(0.0, abs=1e-12)

    def test_feasible_weights_give_feasible_measure(self):
        mp = cauchy_schwarz_problem()
        ps = solve_grid_primal(mp, 129)
        assert ps.status == LPStatus.OPTIMAL
        for fn, bound in mp.equalities:
            assert ps.measure.integrate(fn) == pytest.approx(bound, abs=1e-9)

    def test_monotone_refinement_nested_grids(self):
        mp = cauchy_schwarz_problem()
        coarse = solve_grid_primal(mp, 33).value
        fine = solve_grid_primal(mp, 65).value  # 65 = 2*33 - 1: nested points
        assert coarse <= fine + 1e-9
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(10):
            mp, _ = random_moment_problem(rng)
            a = solve_grid_primal(mp, 5)
            b = solve_grid_primal(mp, 9)
            if a.status == LPStatus.OPTIMAL and b.status == LPStatus.OPTIMAL:
                compared += 1
                assert a.value <= b.value + 1e-9 * (1.0 + abs(b.value))
        assert compared >= 3

    def test_infeasible_grid(self):
        ps = solve_grid_primal(contradictory_problem(), 17)
        assert ps.status == LPStatus.INFEASIBLE
        assert ps.value is None and ps.measure is None


class TestSeparationOracle:
    def test_constant_slack(self):
        mp = interval_problem(0.0, 1.0, "0.5", inequalities=(("1", 1.0),))
        sep = separation_oracle(mp, DualPoint(y=(1.0,), z=()), scan_resolution=64)
        assert sep.slack == pytest.approx(0.5, abs=1e-12)

    def test_zero_multipliers_find_objective_max(self):
        mp = interval_problem(0.0, 1.0, "x1", inequalities=(("1", 2.0),))
        sep = separation_oracle(mp, DualPoint(y=(0.0,), z=()), scan_resolution=64)
        assert sep.point[0] == pytest.approx(1.0, abs=1e-9)
        assert sep.slack == pytest.approx(-1.0, abs=1e-9)

    def test_certificate_slack_minimum(self):
        mp = cauchy_schwarz_problem()
        sep = separation_oracle(mp, DualPoint(y=(), z=(0.5, 0.5)), scan_resolution=512)
        assert sep.point[0] == pytest.approx(1.0, abs=1e-4)
        assert -1e-12 <= sep.slack <= 1e-6

    @pytest.mark.parametrize("dim", [1, 2])
    def test_refinement_lands_on_kink_off_the_mesh(self, dim):
        # slack 1 + Σ |x_j - c_j| on the unit box: a kink at c, between the
        # points of an 8-point scan on every axis
        c = (0.3141592653589793, 0.7071067811865476)[:dim]
        objective = " - ".join(["0"] + [f"abs(x{j + 1} - {c[j]!r})" for j in range(dim)])
        box = Box((0.0,) * dim, (1.0,) * dim)
        part = Partition((box,))
        mp = MomentProblem(
            domain=part, hull=box, objective=pw(part, objective),
            inequalities=((pw(part, "1"), 1.0),), equalities=(),
        )
        d = DualPoint(y=(1.0,), z=())
        mesh = grid_array(box, 8)
        scan = 1.0 + np.abs(mesh - c).sum(axis=1)
        g = int(np.argmin(scan))
        off = separation_oracle(mp, d, scan_resolution=8, refine_steps=0)
        assert off.point == tuple(mesh[g]) and off.slack == scan[g]
        sep = separation_oracle(mp, d, scan_resolution=8)
        # two scan steps, shrunk as 40 golden-section steps would
        width = 2.0 / 7.0 * ((5.0 ** 0.5 - 1.0) / 2.0) ** 40
        assert np.all(np.abs(np.array(sep.point) - c) <= width)
        assert sep.slack == d.slack_at(mp, sep.point, 0) < off.slack

    def test_refinement_never_worse_than_scan(self):
        mp = piecewise_problem()
        d = DualPoint(y=(), z=(0.9,))
        coarse = separation_oracle(mp, d, scan_resolution=8, refine_steps=0)
        refined = separation_oracle(mp, d, scan_resolution=8, refine_steps=40)
        assert refined.slack <= coarse.slack + 1e-15


class TestExchange:
    def test_zero_objective(self):
        mp = interval_problem(0.0, 1.0, "0", equalities=(("1", 1.0),))
        res = exchange_solve(mp, scan_resolution=64)
        assert res.status == "converged"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.dual.z[0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_master_values(self):
        mp = cauchy_schwarz_problem()
        res = exchange_solve(mp, scan_resolution=257)
        assert res.status == "converged"
        values = [rec.value for rec in res.history]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9 * (1.0 + abs(a))
        assert res.final_slack >= -1e-6

    def test_dual_feasibility_certificate_on_finer_mesh(self):
        mp = cauchy_schwarz_problem()
        res = exchange_solve(mp, tol=1e-6, scan_resolution=257)
        sep = separation_oracle(mp, res.dual, scan_resolution=4 * 257)
        assert sep.slack >= -10.0 * 1e-6

    def test_restricted_dual_equals_master_each_iteration(self):
        mp = cauchy_schwarz_problem()
        primal, res = seeded_exchange(mp, 65, tol=1e-6)
        assert res.status == "converged"
        for prefix, record in zip(cut_prefixes(res), res.history):
            out = solve_lp(restricted_dual_lp(mp, prefix))
            assert out.status == LPStatus.OPTIMAL
            assert abs(out.value - record.value) <= 1e-8 * (1.0 + abs(out.value))

    def test_seeded_weak_duality_random(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            mp, resolution = random_moment_problem(rng)
            primal, res = seeded_exchange(mp, resolution, tol=1e-6)
            assert primal.status == LPStatus.OPTIMAL
            assert res.value is not None
            assert primal.value <= res.value + 1e-8 * (1.0 + abs(res.value))

    def test_recovery_from_infeasible_master(self):
        # with only corner/center cuts the master starts infeasible here, yet
        # the instance is feasible: recovery must keep cutting and converge
        mp = interval_problem(
            0.0, 4.0,
            "max(x1 - 2, 0)",
            equalities=(("1", 1.0), ("x1", 1.0), ("max(x1 - 1, 0)", 0.4)),
        )
        res = exchange_solve(mp, tol=1e-6, scan_resolution=513)
        assert res.status == "converged"
        assert res.value == pytest.approx(4.0 / 15.0, abs=1e-3)

    def test_dual_unbounded_on_contradictory_mass(self):
        res = exchange_solve(contradictory_problem(), scan_resolution=64)
        assert res.status == "dual_unbounded"
        assert res.value is None
        assert res.dual is not None
        assert res.final_slack >= -1e-6

    def test_unbounded_primal_raises(self):
        mp = interval_problem(0.0, 2.0, "x1", inequalities=(("0 - x1", 0.0),))
        with pytest.raises(ExchangeError):
            exchange_solve(mp, scan_resolution=64)
        # the report's grid primal is unbounded on the same columns
        assert solve_grid_primal(mp, FAST.grid_resolution).status == LPStatus.UNBOUNDED
        with pytest.raises(ExchangeError):
            duality_report(mp, FAST)

    def test_max_iters_exhausted(self):
        mp = cauchy_schwarz_problem()
        res = exchange_solve(mp, tol=1e-12, max_iters=2, scan_resolution=257)
        assert res.status == "not_converged"
        assert res.iterations == 2

    def test_extra_cut_outside_box_rejected(self):
        mp = cauchy_schwarz_problem()
        with pytest.raises(ValueError):
            make_cut(mp, 0, (5.0,))
        assert len(initial_cuts(mp)) == 3  # two corners + center
        with pytest.raises(ValueError):
            exchange_solve(mp, extra_cuts=((0, (0.5,)), (0, (5.0,))), max_iters=1)

    def test_seeded_cuts_are_grid_primal_columns(self):
        # a quartic on a non-dyadic interval, whose center is not a grid
        # point, and on one whose center is: math.pow and np.power disagree
        # in the last bit at some of these grid points (on the second, at its
        # upper corner and its center), so every cut must come from the one
        # batch evaluator
        for lo, hi, on_grid in ((-1.3, 2.7, 2), (-1.533, 2.467, 3)):
            mp = interval_problem(
                lo, hi, "x1 ^ 3 - 0.7 * x1",
                inequalities=(("x1 ^ 4 - 0.3 * x1 ^ 2", 4.1),),
                equalities=(("1", 1.0), ("x1", 0.55), ("x1 ^ 2 + 0.1 * x1 ^ 3", 1.2)),
            )
            grid = assemble_grid_primal(mp, 1025)
            pairs = tuple(
                (int(i), tuple(p)) for i, p in zip(grid.box_indices, grid.points)
            )
            res = exchange_solve(mp, extra_cuts=pairs, max_iters=1, scan_resolution=257)
            initial = initial_cuts(mp)
            assert list(res.cuts[:len(initial)]) == initial
            taken = {(c.box_index, c.point) for c in initial}
            expected = [g for g, pair in enumerate(pairs) if pair not in taken]
            seeded = res.cuts[len(initial):len(initial) + len(expected)]
            assert len(seeded) == len(expected) > 1000
            M = mp.n_ineq

            def assert_is_column(cut, g):
                assert (cut.box_index, cut.point) == pairs[g]
                assert cut.phi == tuple(grid.lp.rows[:M, g])
                assert cut.psi == tuple(grid.lp.rows[M:, g])
                assert cut.h == grid.lp.objective[g]

            for g, cut in zip(expected, seeded):
                assert_is_column(cut, g)
            # corner and center cuts that sit on grid points are those columns too
            column_of = {pair: g for g, pair in enumerate(pairs)}
            shared = [c for c in initial if (c.box_index, c.point) in column_of]
            assert len(shared) == on_grid
            for cut in shared:
                assert_is_column(cut, column_of[(cut.box_index, cut.point)])
            # the grid itself, passed whole, seeds the same cuts
            whole = exchange_solve(mp, extra_cuts=grid, max_iters=1, scan_resolution=257)
            assert whole.cuts == res.cuts

    def test_cut_set_reads_as_cut_sequence(self):
        # Cauchy-Schwarz with the second moment as an inequality: phi and psi
        mp = interval_problem(
            -2.0, 2.0, "x1", inequalities=(("x1^2", 1.0),), equalities=(("1", 1.0),)
        )
        seeds = ((0, (0.25,)), (0, (-1.5,)))
        res = exchange_solve(mp, extra_cuts=seeds, scan_resolution=257)
        assert res.status == "converged" and res.iterations >= 3
        cuts = res.cuts
        assert cuts[0].phi and cuts[0].psi
        assert isinstance(cuts, CutSet)
        initial = initial_cuts(mp)
        appended = res.history[:-1]  # the converged iteration adds no cut
        assert len(cuts) == len(initial) + len(seeds) + len(appended)
        for k, cut in enumerate(initial):
            assert cuts[k] == cut
        for k, (box, point) in enumerate(seeds):
            seeded = cuts[len(initial) + k]
            assert (seeded.box_index, seeded.point) == (box, point)
        start = len(initial) + len(seeds)
        for k, rec in enumerate(appended):
            assert cuts[start + k] == make_cut(mp, rec.worst_box, rec.worst_point)

        listed = list(cuts)
        assert listed == [cuts[k] for k in range(len(cuts))]
        assert cuts[-1] == listed[-1]
        with pytest.raises(IndexError):
            cuts[len(cuts)]
        for cut in listed:
            assert type(cut.box_index) is int and type(cut.h) is float
            values = cut.point + cut.phi + cut.psi
            assert all(type(v) is float for v in values)

        head = cuts[: start + 1]
        assert isinstance(head, CutSet) and list(head) == listed[: start + 1]
        assert head == cuts[: start + 1] and head != cuts[: start + 2]
        from_set = restricted_dual_lp(mp, head, cap=10.0)
        from_list = restricted_dual_lp(mp, listed[: start + 1], cap=10.0)
        assert from_set.sense == from_list.sense
        assert from_set.row_senses == from_list.row_senses
        for field in ("objective", "rows", "rhs", "lower", "upper"):
            assert np.array_equal(getattr(from_set, field), getattr(from_list, field))


class TestSlaterChecks:
    def test_dual_margin_caps_with_mass_constraint(self):
        mp = interval_problem(0.0, 1.0, "0", equalities=(("1", 1.0),))
        rep = check_dual_slater(mp, scan_resolution=64)
        assert rep.converged
        assert rep.capped
        assert rep.margin >= 1e6 * (1.0 - 1e-6)
        assert rep.witness is not None

    def test_dual_margin_quadratic_instance(self):
        mp = interval_problem(0.0, 1.0, "x1 ^ 2", equalities=(("1", 1.0),))
        rep = check_dual_slater(mp, scan_resolution=64)
        assert rep.margin > 0.0

    def test_primal_margin_mass_only(self):
        mp = interval_problem(0.0, 1.0, "0", equalities=(("1", 1.0),))
        rep = check_primal_slater(mp, resolution=33)
        assert rep.feasible
        assert rep.capped
        assert rep.equality_rank == 1 and rep.n_equalities == 1
        assert not rep.rank_deficient

    def test_primal_margin_positive(self):
        mp = interval_problem(
            0.0, 4.0, "x1",
            inequalities=(("x1 ^ 2", 2.0),),
            equalities=(("1", 1.0), ("x1", 1.0)),
        )
        rep = check_primal_slater(mp, resolution=65)
        assert rep.feasible
        assert rep.margin > 0.05
        assert rep.equality_rank == 2

    def test_contradictory_is_infeasible_and_rank_deficient(self):
        rep = check_primal_slater(contradictory_problem(), resolution=33)
        assert not rep.feasible
        assert rep.margin == -np.inf
        assert rep.equality_rank == 1 and rep.n_equalities == 2
        assert rep.rank_deficient


class TestUnitNormalization:
    def test_single_unit_box_is_identity(self):
        mp = interval_problem(0.0, 1.0, "x1", equalities=(("1", 1.0),))
        mp2 = apply_unit_normalization(mp)
        assert mp2.domain.boxes[0] == Box((0.0,), (1.0,))
        x = (0.3,)
        assert mp2.objective.value_at(x, 0) == pytest.approx(
            mp.objective.value_at(x, 0), abs=1e-15
        )

    def test_affine_substitution(self):
        mp = interval_problem(2.0, 4.0, "x1", equalities=(("1", 1.0),))
        mp2 = apply_unit_normalization(mp)
        assert mp2.domain.boxes[0] == Box((0.0,), (1.0,))
        assert mp2.objective.value_at((0.5,), 0) == pytest.approx(3.0, abs=1e-12)
        assert mp2.objective.value_at((0.0,), 0) == pytest.approx(2.0, abs=1e-12)

    def test_two_box_relocation(self):
        mp = piecewise_problem()
        mp2 = apply_unit_normalization(mp)
        assert mp2.domain.boxes[0] == Box((0.0,), (1.0,))
        assert mp2.domain.boxes[1] == Box((1.0,), (2.0,))
        assert mp2.objective.value_at((1.25,), 1) == pytest.approx(
            mp.objective.value_at((1.25,), 1), abs=1e-12
        )

    def test_values_agree(self):
        mp = piecewise_problem()
        base = solve_grid_primal(mp, 257).value
        moved = solve_grid_primal(apply_unit_normalization(mp), 257).value
        assert abs(base - moved) <= 1e-6 * (1.0 + abs(base))


class TestDualityReport:
    def test_cauchy_schwarz_strong_duality(self):
        report = duality_report(cauchy_schwarz_problem(), FAST)
        assert report.status == ReportStatus.STRONG_DUALITY
        assert report.primal_value == pytest.approx(1.0, abs=5e-3)
        assert report.dual_value == pytest.approx(1.0, abs=1e-3)
        assert report.gap >= -1e-8 * (1.0 + abs(report.dual_value))
        assert report.max_dual_violation <= 1e-5
        assert report.has_mass_bound
        assert report.atoms is not None and report.dual is not None
        assert report.primal_slater.feasible
        assert report.dual_slater.margin > 0.0

    def test_zero_objective_gap_zero(self):
        mp = interval_problem(0.0, 1.0, "0", equalities=(("1", 1.0),))
        report = duality_report(mp, FAST)
        assert report.primal_value == pytest.approx(0.0, abs=1e-10)
        assert report.dual_value == pytest.approx(0.0, abs=1e-10)
        assert abs(report.gap) <= 1e-10

    def test_coarse_grid_reports_gap(self):
        config = SolverConfig(grid_resolution=3, scan_resolution=257, slater_resolution=33)
        report = duality_report(cauchy_schwarz_problem(), config)
        assert report.status == ReportStatus.GAP_REMAINS
        assert report.gap > 0.1

    def test_contradictory_reports_primal_infeasible(self):
        report = duality_report(contradictory_problem(), FAST)
        assert report.status == ReportStatus.PRIMAL_INFEASIBLE
        assert report.primal_value is None
        assert report.primal_slater.rank_deficient

    def test_iteration_cap_reports_not_converged(self):
        config = SolverConfig(
            grid_resolution=3, tol=1e-12, max_iters=1,
            scan_resolution=257, slater_resolution=33,
        )
        report = duality_report(cauchy_schwarz_problem(), config)
        assert report.status == ReportStatus.NOT_CONVERGED

    def test_missing_mass_bound_is_flagged(self):
        mp = interval_problem(1.0, 2.0, "x1", inequalities=(("x1 ^ 2", 1.0),))
        report = duality_report(mp, FAST)
        assert not report.has_mass_bound
        assert any("total-mass" in note for note in report.notes)
