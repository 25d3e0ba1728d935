"""Moment problems: grid primal, exchange dual, Slater checks, full report."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from pathlib import Path

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
    evaluate_many,
    exchange_solve,
    load_problem,
    parse_expression,
    solve_grid_primal,
)
import measurelp.expressions as expressions
import measurelp.moment as moment
import measurelp.simplex as simplex
from measurelp.expressions import _Program
from measurelp.geometry import grid_array
from measurelp.moment import (
    CutSet,
    ExchangeError,
    _box_table,
    assemble_grid_primal,
    initial_cuts,
    make_cut,
    restricted_dual_lp,
    separation_oracle,
)
from measurelp.simplex import solve_lp
from oracles import (
    dual_slack_at, hand_built_dual_slater, hand_built_primal_slater, mesh_min_slack,
    per_box_scan, random_polynomial_source, whole_table_dual_slater,
)
from problems import (
    cauchy_schwarz_problem,
    contradictory_problem,
    interval_problem,
    jensen_problem,
    piecewise_problem,
    pw,
    random_moment_problem,
)

FAST = SolverConfig(grid_resolution=257, scan_resolution=257, slater_resolution=65)
FIXTURES = Path(__file__).parent / "fixtures"


def two_box_plane(*objective: str) -> MomentProblem:
    """Two boxes of the plane that share the face x1 = 1.25, with the given objective.

    The default objective, and the inequality's pieces, differ across the face.
    """
    partition = Partition((Box((0.0, -0.5), (1.25, 1.0)), Box((1.25, -0.5), (2.0, 1.0))))
    return MomentProblem(
        domain=partition,
        hull=Box((0.0, -0.5), (2.0, 1.0)),
        objective=pw(partition, *(objective or ("x1 * x2 ^ 3", "2 - x1 + exp(x2)"))),
        inequalities=((pw(partition, "x1 ^ 2 + x2", "sqrt(x1) * x2"), 1.5),),
        equalities=((pw(partition, "1", "1"), 1.0), (pw(partition, "x1", "x1"), 0.9)),
    )


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
            assert dual_slack_at(mp, d, (x,), 0) == pytest.approx((x - 1.0) ** 2 / 2.0, abs=1e-12)

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

    def test_certificate_holds_on_the_whole_grid(self):
        # the grid is a pool that the generation loop prices in; the grid LP
        # solved whole is the reference, and the grid-wide outcome's
        # certificate holds on every grid column
        rng = np.random.default_rng(37)
        problems = [
            cauchy_schwarz_problem(), piecewise_problem(), contradictory_problem(),
            interval_problem(0.0, 2.0, "x1", inequalities=(("0 - x1", 0.0),)),  # unbounded
        ] + [random_moment_problem(rng)[0] for _ in range(10)]
        for trial, mp in enumerate(problems):
            for resolution in (9, 65):
                ps = solve_grid_primal(mp, resolution)
                lp, out = ps.grid.lp, ps.outcome
                ref = solve_lp(lp)
                assert ps.status == out.status == ref.status, trial
                equality = np.array(lp.row_senses) == "="
                if out.status == LPStatus.INFEASIBLE:
                    assert np.all(out.duals @ lp.rows <= simplex.FEAS_TOL), trial
                    assert out.duals @ lp.rhs > simplex.FEAS_TOL, trial
                    continue
                assert out.x.shape == (len(ps.grid.points),) and np.all(out.x >= 0.0), trial
                excess = lp.rows @ out.x - lp.rhs
                assert np.all(np.where(equality, np.abs(excess), excess) <= 1e-9), trial
                if out.status == LPStatus.UNBOUNDED:
                    lift = lp.rows @ out.ray
                    assert np.all(np.where(equality, np.abs(lift), lift) <= 1e-9), trial
                    assert np.all(out.ray >= 0.0) and lp.objective @ out.ray > 0.0, trial
                    continue
                close = 1e-9 * (1.0 + abs(ref.value))
                assert abs(ps.value - ref.value) <= close, trial
                assert np.max(lp.objective - out.duals @ lp.rows) <= close, trial


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
        # slack 1 + Σ sqrt|x_j - c_j| on the unit box: a cusp at c, between
        # the points of an 8-point scan on every axis (sqrt keeps the 1-D box
        # on the scan; see test_exact_box_lands_on_kink_with_no_mesh)
        c = (0.3141592653589793, 0.7071067811865476)[:dim]
        objective = " - ".join(["0"] + [f"sqrt(abs(x{j + 1} - {c[j]!r}))" for j in range(dim)])
        box = Box((0.0,) * dim, (1.0,) * dim)
        part = Partition((box,))
        mp = MomentProblem(
            domain=part, hull=box, objective=pw(part, objective),
            inequalities=((pw(part, "1"), 1.0),), equalities=(),
        )
        d = DualPoint(y=(1.0,), z=())
        mesh = grid_array(box, 8)
        scan = 1.0 + np.sqrt(np.abs(mesh - c)).sum(axis=1)
        g = int(np.argmin(scan))
        off = separation_oracle(mp, d, scan_resolution=8, refine_steps=0)
        assert off.point == tuple(mesh[g]) and off.slack == scan[g]
        sep = separation_oracle(mp, d, scan_resolution=8)
        # two scan steps, shrunk as 40 golden-section steps would
        width = 2.0 / 7.0 * ((5.0 ** 0.5 - 1.0) / 2.0) ** 40
        assert np.all(np.abs(np.array(sep.point) - c) <= width)
        assert sep.slack == dual_slack_at(mp, d, sep.point, 0) < off.slack

    def test_exact_box_lands_on_kink_with_no_mesh(self, monkeypatch):
        # slack 1 + |x - c|: the kink is a breakpoint of the polynomial
        # pieces, so the oracle finds it with no scan and no zoom
        c = 0.3141592653589793
        mp = interval_problem(0.0, 1.0, f"0 - abs(x1 - {c!r})", inequalities=(("1", 1.0),))
        calls = grid_calls(monkeypatch)
        sep = separation_oracle(mp, DualPoint(y=(1.0,), z=()), scan_resolution=8, refine_steps=0)
        assert sep.point == (c,) and sep.slack == 1.0 and calls == []

    def test_refinement_never_worse_than_scan(self):
        mp = piecewise_problem()
        d = DualPoint(y=(), z=(0.9,))
        coarse = separation_oracle(mp, d, scan_resolution=8, refine_steps=0)
        refined = separation_oracle(mp, d, scan_resolution=8, refine_steps=40)
        assert refined.slack <= coarse.slack + 1e-15

    @pytest.mark.parametrize("source, scan_resolution", [
        ("piecewise.json", None), ("piecewise.json", 9),
        ("plane", None), ("plane", 9), ("plane", (17, 5)),
    ])
    def test_flat_scan_matches_per_box_scan(self, source, scan_resolution):
        mp = two_box_plane() if source == "plane" else load_problem(FIXTURES / source).problem
        rng = np.random.default_rng(61)
        duals = [DualPoint(y=(0.0,) * mp.n_ineq, z=(0.0,) * mp.n_eq)]
        duals += [
            DualPoint(y=rng.uniform(0.0, 2.0, mp.n_ineq), z=rng.normal(size=mp.n_eq))
            for _ in range(20)
        ]
        for dual in duals:
            sep = separation_oracle(mp, dual, scan_resolution, refine_steps=0)
            ref = per_box_scan(mp, dual, scan_resolution)
            assert sep == ref and type(sep.box_index) is int
            assert sep.column.tobytes() == ref.column.tobytes()

    @pytest.mark.parametrize("source", ["piecewise.json", "plane"])
    def test_flat_scan_tie_on_a_shared_face_goes_to_the_lower_box(self, source):
        # the tent's peak x1 = 1, and the plane's ridge x1 = 1.25, lie on the
        # face the two boxes share, where both boxes' pieces take one value
        if source == "plane":
            mp = two_box_plane("1 - (x1 - 1.25) ^ 2 - x2 ^ 2", "1 - (x1 - 1.25) ^ 2 - x2 ^ 2")
            dual = DualPoint(y=(0.0,), z=(0.25, 0.0))
        else:
            mp = load_problem(FIXTURES / source).problem
            dual = DualPoint(y=(), z=(0.25,))
        face = mp.domain.boxes[0].upper[0]
        sep = separation_oracle(mp, dual, 9, refine_steps=0)
        assert sep.box_index == 0 and sep.point[0] == face
        assert dual_slack_at(mp, dual, sep.point, 1) == sep.slack
        ref = per_box_scan(mp, dual, 9)
        assert sep == ref and sep.column.tobytes() == ref.column.tobytes()

    def test_zoom_axis_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(59)
        for _ in range(20_000):
            lo = float(rng.uniform(-10.0, 10.0))
            hi = lo + 10.0 ** float(rng.uniform(-12.0, 1.0))
            expected = np.linspace(lo, hi, moment._ZOOM_POINTS)
            assert moment._zoom_axis(lo, hi).tobytes() == expected.tobytes()


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

    def test_seeded_cuts_are_grid_primal_columns(self, monkeypatch):
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
            # the grid itself, passed whole, is the cut store: its columns in
            # grid order, bit for bit, held as views of the grid's arrays
            # until the one oracle cut's append copies them
            views = []
            append = CutSet.append

            def spy(cuts, *args):
                views.append(np.shares_memory(cuts.rows, grid.lp.rows))
                append(cuts, *args)

            monkeypatch.setattr(CutSet, "append", spy)
            whole = exchange_solve(mp, extra_cuts=grid, max_iters=1, scan_resolution=257)
            monkeypatch.undo()
            assert views == [True]
            assert not np.shares_memory(whole.cuts.rows, grid.lp.rows)
            G = len(grid.points)
            assert whole.status == "not_converged" and len(whole.cuts) == G + 1
            for a, b in (
                (whole.cuts.box_index[:G], grid.box_indices),
                (whole.cuts.points[:G], grid.points),
                (whole.cuts.rows[:G], grid.lp.rows.T),
                (whole.cuts.h[:G], grid.lp.objective),
            ):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            # its first master starts from no column, as the grid primal does
            assert whole.history[0].value == solve_grid_primal(mp, 1025).value
            # the priced-pool path is exact: a rebuilt grid gives the same run
            again = exchange_solve(
                mp, extra_cuts=assemble_grid_primal(mp, 1025), max_iters=1, scan_resolution=257
            )
            assert again.cuts == whole.cuts
            assert again.history[0].value == whole.history[0].value
            assert again.history[0].dual == whole.history[0].dual
            assert again.final_slack == whole.final_slack

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

    def test_append_keeps_earlier_slices(self):
        # appends grow the arrays by doubling their store; slices taken
        # before an append, and the grown set, equal sets built at once
        mp = interval_problem(
            -2.0, 2.0, "x1", inequalities=(("x1^2", 1.0),), equalities=(("1", 1.0),)
        )
        points = np.linspace(-2.0, 2.0, 11)[:, None]
        table = moment._box_table(mp, 0, points)

        def at_once(k):
            box = np.zeros(k, dtype=int)
            return CutSet(mp.n_ineq, box, points[:k], table[:-1, :k].T, table[-1, :k])

        cuts, slices = at_once(2), []
        for k in range(2, 11):
            slices.append((k, cuts[:k], cuts[np.arange(k)]))
            cuts.append(0, points[k], table[:, k])
        assert len(cuts) == 11 and cuts == at_once(11)
        assert list(cuts) == list(at_once(11))
        for k, head, picked in slices:
            assert head == picked == at_once(k) and len(head) == k


def shared_monomial_problem(objective=("x1^3 - 2*x1^2 + x1", "0.5*x1^2 - 0.1*x1^3")):
    """Two boxes whose pieces share x1, x1^2 and x1^3 within each box."""
    partition = Partition((Box((0.0,), (1.0,)), Box((1.0,), (2.5,))))
    return MomentProblem(
        domain=partition,
        hull=Box((0.0,), (2.5,)),
        objective=pw(partition, *objective),
        inequalities=((pw(partition, "x1^2", "x1^2 + x1^3"), 6.0),),
        equalities=((pw(partition, "1", "1"), 1.0), (pw(partition, "x1", "x1"), 1.2)),
        name="shared-monomials",
    )


def stacked_rows(mp, box_index, points):
    """phi, psi, h rows of one box valued one function at a time."""
    fns = [fn for fn, _ in mp.inequalities + mp.equalities] + [mp.objective]
    return np.vstack([evaluate_many(fn.pieces[box_index], points) for fn in fns])


def mesh_ray_slack(mp, dual, count: int = 10**5) -> float:
    """Least Σ y φ + Σ z ψ of a ray over ``count`` points of every 1-D box, with no h term.

    Each function is valued by ``evaluate_many`` on its own, not through
    ``moment._box_table``.
    """
    worst = np.inf
    for i, box in enumerate(mp.domain.boxes):
        points = np.linspace(box.lower[0], box.upper[0], count)[:, None]
        total = np.zeros(count)
        for weight, (fn, _) in zip(dual.y + dual.z, mp.inequalities + mp.equalities):
            total += weight * evaluate_many(fn.pieces[i], points)
        worst = min(worst, float(total.min()))
    return worst


class TestFarkasRay:
    """An infeasible exchange master hands the oracle its Farkas vector as a dual ray."""

    @pytest.mark.parametrize("make", [
        contradictory_problem, lambda: load_problem(FIXTURES / "barely_infeasible.json").problem,
    ])
    def test_ray_is_a_certificate(self, make):
        mp, tol = make(), SolverConfig.tol
        res = exchange_solve(mp, tol=tol)
        assert res.status == "dual_unbounded" and res.value is None
        ray = res.dual
        assert ray.ray and res.history[-1].value == -np.inf
        assert max(abs(v) for v in ray.y + ray.z) == 1.0
        assert all(v >= 0.0 for v in ray.y)
        assert ray.value(mp) < 0.0
        assert mesh_ray_slack(mp, ray) >= -10.0 * tol

    def test_one_master_through_infeasible_iterations(self, monkeypatch):
        # test_recovery_from_infeasible_master's instance: its first masters
        # are infeasible, and their rays cut until one is feasible
        mp = interval_problem(
            0.0, 4.0,
            "max(x1 - 2, 0)",
            equalities=(("1", 1.0), ("x1", 1.0), ("max(x1 - 1, 0)", 0.4)),
        )
        calls, real = [], moment._generate

        def spy(*args, fixed=None, master=None):
            result = real(*args, fixed=fixed, master=master)
            calls.append((fixed, master, result[0]))
            return result

        monkeypatch.setattr(moment, "_generate", spy)
        res = exchange_solve(mp, tol=1e-6, scan_resolution=513)
        assert res.status == "converged"
        assert any(rec.dual.ray for rec in res.history) and not res.history[-1].dual.ray
        assert len(calls) == res.iterations
        assert all(fixed is None for fixed, _, _ in calls)
        assert calls[0][1] is None
        assert all(now[1] is before[2] for before, now in zip(calls, calls[1:]))


class TestBoxTable:
    """A box's pieces valued by one shared program equal them valued one by one."""

    def test_table_is_the_stacked_rows(self):
        mp = shared_monomial_problem()
        for i, box in enumerate(mp.domain.boxes):
            pts = grid_array(box, 257)
            assert _box_table(mp, i, pts).tobytes() == stacked_rows(mp, i, pts).tobytes()

    def test_exchange_cuts_are_the_stacked_rows(self):
        mp = shared_monomial_problem()
        res = exchange_solve(mp, tol=1e-9)
        assert res.status == "converged" and res.iterations > 1
        cuts = res.cuts
        table = np.empty((mp.n_ineq + mp.n_eq + 1, len(cuts)))
        for i in range(len(mp.domain.boxes)):
            sel = np.flatnonzero(cuts.box_index == i)
            table[:, sel] = stacked_rows(mp, i, cuts.points[sel])
        assert cuts.rows.tobytes() == np.ascontiguousarray(table[:-1].T).tobytes()
        assert cuts.h.tobytes() == table[-1].tobytes()

    def test_overflow_in_a_product_names_the_box(self):
        # no node fails, but 1e308 * x1 is infinite on box 1
        mp = shared_monomial_problem(objective=("x1", "1e308 * x1 - x1^2"))
        assert np.isfinite(_box_table(mp, 0, np.array([[0.5]]))).all()
        with pytest.raises(ValueError, match="non-finite function value in box 1"):
            _box_table(mp, 1, np.array([[1.5], [2.5]]))
        with pytest.raises(ValueError, match="non-finite function value in box 1"):
            exchange_solve(mp)

    def test_box_programs_compiled_once_per_problem(self, monkeypatch):
        compiled = []
        real = _Program.__init__

        def counted(self, exprs):
            compiled.append(tuple(id(e) for e in exprs))
            real(self, exprs)

        monkeypatch.setattr(_Program, "__init__", counted)
        for mp in (shared_monomial_problem(), piecewise_problem(), cauchy_schwarz_problem()):
            compiled.clear()
            duality_report(mp, FAST)
            fns = [fn for fn, _ in mp.inequalities + mp.equalities] + [mp.objective]
            boxes = [tuple(id(fn.pieces[i]) for fn in fns) for i in range(len(mp.domain.boxes))]
            # the other programs are evaluate's, of one expression (has_mass_bound)
            assert sorted(key for key in compiled if len(key) > 1) == sorted(boxes)


def grid_calls(monkeypatch) -> list:
    """The resolution of every ``moment._grid`` call from now on, with the cache emptied."""
    calls, real = [], moment._grid

    def counted(mp, resolution, boxes=None):
        calls.append(resolution)
        return real(mp, resolution, boxes)

    monkeypatch.setattr(moment, "_grid", counted)
    monkeypatch.setattr(expressions, "_PROGRAMS", (None, {}))
    return calls


def cut_arrays(cuts):
    return cuts.box_index, cuts.points, cuts.rows, cuts.h


def loop_cases():
    """(problem, exchange options): ``tests/problems.py``'s instances, then the moment fixtures."""
    rng = np.random.default_rng(11)
    made = [cauchy_schwarz_problem(), piecewise_problem(), contradictory_problem()]
    made += [random_moment_problem(rng)[0] for _ in range(4)]
    cases = [(mp, {"scan_resolution": 257}) for mp in made]
    for name in (
        "cauchy_schwarz.json", "piecewise.json", "contradictory.json",
        "barely_infeasible.json", "coarse_grid_feasible.json", "moment_square_2d.json",
    ):
        loaded = load_problem(FIXTURES / name)
        cases.append((loaded.problem, moment._exchange_options(loaded.config)))
    return cases


class TestSharedScanMesh:
    """Both exchange loops of a problem share one scan mesh and one seed table.

    The instances have an ``exp`` or ``sqrt`` piece, so their boxes stay on
    the scan: a polynomial 1-D box is separated exactly, with no mesh.
    """

    def test_both_loops_build_one_mesh_and_one_seed_table(self, monkeypatch):
        mp = jensen_problem()
        calls = grid_calls(monkeypatch)
        seeds, real = [], moment._seed_arrays
        monkeypatch.setattr(moment, "_seed_arrays", lambda *a: seeds.append(1) or real(*a))
        res = exchange_solve(mp, scan_resolution=257)
        slater = check_dual_slater(mp, scan_resolution=257)
        assert res.iterations > 1 and slater.iterations > 1
        assert calls == [[257]] and len(seeds) == 1

    def test_duality_report_builds_four_grids(self, monkeypatch):
        # grid primal, scan mesh, primal Slater grid and verification mesh:
        # check_dual_slater reads the exchange's scan mesh
        calls = grid_calls(monkeypatch)
        duality_report(jensen_problem(), FAST)
        assert calls == [257, [257], 65, [4 * 257]]

    def test_an_exact_report_builds_only_the_primal_grids(self, monkeypatch):
        # a polynomial 1-D problem: no scan mesh and no verification mesh,
        # only the grid primal's and the primal Slater check's grids
        calls = grid_calls(monkeypatch)
        mp = cauchy_schwarz_problem()
        rep = duality_report(mp, FAST)
        assert calls == [257, 65]
        # the verification reads the exchange's last oracle call
        assert rep.max_dual_violation == max(0.0, -separation_oracle(mp, rep.dual).slack)

    def test_another_problem_empties_the_cache(self, monkeypatch):
        first = jensen_problem()
        other = interval_problem(0.0, 1.0, "sqrt(x1)", equalities=(("1", 1.0), ("x1", 0.25)))
        calls = grid_calls(monkeypatch)
        exchange_solve(first, scan_resolution=257)
        exchange_solve(other, scan_resolution=257)
        check_dual_slater(first, scan_resolution=257)
        assert calls == [[257]] * 3
        check_dual_slater(other, scan_resolution=257)
        assert len(calls) == 4 and expressions._PROGRAMS[0] is other
        gone = weakref.ref(first)
        del first
        gc.collect()
        assert gone() is None

    @pytest.mark.parametrize("case", range(len(loop_cases())))
    def test_cold_runs_equal_warm_runs(self, monkeypatch, case):
        mp, options = loop_cases()[case]

        def cold(fn):
            monkeypatch.setattr(expressions, "_PROGRAMS", (None, {}))
            return fn(mp, **options)

        runs = [(cold(exchange_solve), cold(check_dual_slater))]
        monkeypatch.setattr(expressions, "_PROGRAMS", (None, {}))
        for _ in range(2):  # the first pair fills the cache, the second reads it only
            runs.append((exchange_solve(mp, **options), check_dual_slater(mp, **options)))
        for ex, slater in runs[1:]:
            assert repr(ex) == repr(runs[0][0]) and repr(slater) == repr(runs[0][1])
            for got, want in zip(cut_arrays(ex.cuts), cut_arrays(runs[0][0].cuts)):
                assert np.array_equal(got, want)

    def test_cut_store_of_a_loop_with_no_cut_is_read_only(self):
        mp = interval_problem(0.0, 1.0, "0", equalities=(("1", 1.0),))
        res = exchange_solve(mp, scan_resolution=64)
        assert res.status == "converged" and res.iterations == 1
        for array in cut_arrays(res.cuts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        assert exchange_solve(mp, scan_resolution=64).cuts == res.cuts

    def test_a_loop_that_appends_writes_its_own_copy(self):
        mp = cauchy_schwarz_problem()
        res = exchange_solve(mp, scan_resolution=257)
        assert res.iterations > 1
        res.cuts.rows[0] = 5.0
        again = exchange_solve(mp, scan_resolution=257).cuts
        assert not np.array_equal(again.rows, res.cuts.rows)
        assert np.array_equal(again.rows[1:], res.cuts.rows[1:])


def random_polynomial_problem(rng) -> MomentProblem:
    """One to three boxes of an interval, each function a random piecewise polynomial."""
    n = int(rng.integers(1, 4))
    lo = float(rng.uniform(-1.5, 0.5))
    edges = lo + np.cumsum(np.concatenate([[0.0], rng.uniform(0.3, 0.8, n)]))
    part = Partition(tuple(Box((float(a),), (float(b),)) for a, b in zip(edges[:-1], edges[1:])))

    def fn():
        return pw(part, *(random_polynomial_source(rng, int(rng.integers(1, 7))) for _ in range(n)))

    return MomentProblem(
        domain=part, hull=Box((float(edges[0]),), (float(edges[-1]),)), objective=fn(),
        inequalities=((fn(), 1.0),), equalities=((pw(part, *["1"] * n), 1.0), (fn(), 0.0)),
    )


class TestExactOracle:
    """Polynomial 1-D boxes are separated exactly, from their polynomial pieces."""

    def test_minimum_is_at_or_below_the_mesh_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            mp = random_polynomial_problem(rng)
            assert moment._exact_pieces(mp).exact.all()
            for _ in range(5):
                dual = DualPoint(y=rng.uniform(0.0, 2.0, 1), z=rng.normal(size=2))
                sep = separation_oracle(mp, dual)
                mesh = mesh_min_slack(mp, dual, 100_000 // len(mp.domain.boxes))
                assert sep.slack <= mesh + 1e-12 * (1.0 + abs(mesh))
                # the column is the cut: its slack is the point's, valued alone
                assert sep.slack == dual_slack_at(mp, dual, sep.point, sep.box_index)

    def test_a_mixed_problem_scans_only_its_other_boxes(self, monkeypatch):
        # box 0 is polynomial, box 1 has exp: the mesh is built, and box 0's
        # minimum at x = 0.3, off the 64-point mesh, is found exactly
        part = Partition((Box((0.0,), (1.0,)), Box((1.0,), (2.0,))))
        mp = MomentProblem(
            domain=part, hull=Box((0.0,), (2.0,)),
            objective=pw(part, "0 - 9*(x1 - 0.3)^2", "exp(x1) - 10"),
            inequalities=(), equalities=((pw(part, "1", "1"), 1.0),),
        )
        calls, meshes = grid_calls(monkeypatch), []
        oracle = moment._ScanOracle(
            mp, [64], 40, lambda i: meshes.append(i) or moment._grid(mp, [64], (i,))
        )
        dual = DualPoint(y=(), z=(1.0,))
        assert oracle.scanned(dual).tolist() == [False, True] and calls == []
        sep = oracle.find(dual)
        assert calls == [[64]] and meshes == [1]
        assert sep.box_index == 0 and sep.point[0] == pytest.approx(0.3, abs=1e-12)
        assert sep.slack == dual_slack_at(mp, dual, sep.point, 0)

    def test_spike_is_cut_off(self):
        # the spike is 2e-5 wide; no point of the 1025-point grid or the
        # old 1024-point scan reaches it, so the report claimed strong
        # duality at 0; the true value is 1 at one atom
        loaded = load_problem(FIXTURES / "spike.json")
        rep = duality_report(loaded.problem, loaded.config)
        assert rep.dual_value >= 1.0 - 1e-6
        assert rep.status == ReportStatus.GAP_REMAINS
        assert rep.max_dual_violation <= 1e-6

    def test_a_steep_power_is_scanned_where_its_coefficients_cancel(self):
        # 1 - (1000*(x1 - 0.7))^6 peaks at 1 at 0.7, where its power
        # coefficients (near 1e18) cancel: their rounding bound is about
        # 1e5, so the box is scanned and zoomed at every dual, and the dual
        # reaches 1 (read from the coefficients, it stopped near 0.99994)
        mp = interval_problem(0.0, 1.0, "1 - (1000*(x1 - 0.7))^6", equalities=(("1", 1.0),))
        assert moment._exact_pieces(mp).exact.all()
        rep = duality_report(mp)
        assert rep.dual_value >= 1.0 - 1e-6
        oracle = moment._ScanOracle(mp, [1024], 40, None)
        assert oracle.scanned(rep.dual).all()

    def test_roots_that_may_be_least_are_valued_together(self, monkeypatch):
        # the slack 1 + (x - 0.25)^2 (x - 0.75)^2 has two equal interior
        # minima; both are valued in one _box_table call (the third root,
        # a maximum at 0.5, is ranked out), and the lower point wins the tie
        mp = interval_problem(
            0.0, 1.0, "0 - (x1 - 0.25)^2 * (x1 - 0.75)^2", equalities=(("1", 1.0),)
        )
        batches, real = [], moment._box_table
        monkeypatch.setattr(
            moment, "_box_table", lambda mp, i, pts: batches.append(pts[:, 0]) or real(mp, i, pts)
        )
        sep = separation_oracle(mp, DualPoint(y=(), z=(1.0,)))
        assert batches[-1] == pytest.approx([0.25, 0.75], abs=1e-7)
        assert sep.point[0] == pytest.approx(0.25, abs=1e-7) and sep.slack == pytest.approx(1.0)

    def test_a_nest_past_the_piece_cap_stays_on_the_scan(self):
        # a 33-level tent map would read as 2^33 pieces; it reads None past
        # MAX_POLYNOMIAL_PIECES, and its box is scanned
        source = "x1"
        for _ in range(33):
            source = f"abs(2*{source} - 1)"
        mp = interval_problem(0.0, 1.0, source, equalities=(("1", 1.0),))
        assert not moment._exact_pieces(mp).exact.any()
        rep = duality_report(mp, FAST)
        assert rep.status == ReportStatus.STRONG_DUALITY and rep.dual_value == pytest.approx(1.0)


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

    @pytest.mark.parametrize("excess", [1e-4, 1e-6])
    def test_mean_just_past_the_interval_is_infeasible(self, excess):
        # unit mass on [0, 1] cannot have mean 1 + excess; the t <= SLATER_CAP
        # row's rhs once set the phase-1 tolerance of every row, so this
        # raised at 1e-4 and reported a feasible margin of -0.100002 at 1e-6
        mp = interval_problem(
            0, 1, "x1", inequalities=(("x1^2", 0.9),),
            equalities=(("1", 1.0), ("x1", 1 + excess)),
        )
        rep = check_primal_slater(mp)
        assert not rep.feasible
        assert rep.margin == -np.inf

    @pytest.mark.parametrize("source", [
        "cauchy_schwarz.json", "contradictory.json", "piecewise.json",
        cauchy_schwarz_problem, contradictory_problem,  # criterion 9's instances
    ])
    def test_margins_match_hand_built_lps(self, source):
        if callable(source):
            mp, solver = source(), {}
        else:
            loaded = load_problem(FIXTURES / source)
            mp, solver = loaded.problem, loaded.solver
        config = SolverConfig(**solver)
        options = moment._exchange_options(config)
        dual, expected = check_dual_slater(mp, **options), hand_built_dual_slater(mp, **options)
        for field in ("margin", "converged", "capped"):
            assert getattr(dual, field) == getattr(expected, field), field
        # the kept master may settle on another vertex of a degenerate
        # optimum, so the witness is checked on the scan mesh instead
        worst = per_box_scan(mp, dual.witness, options["scan_resolution"]).slack
        assert worst >= dual.margin - options["tol"]
        for resolution in (config.slater_resolution, 33):
            primal = check_primal_slater(mp, resolution)
            assert repr(primal) == repr(hand_built_primal_slater(mp, resolution))

    @pytest.mark.parametrize("source", [
        "cauchy_schwarz.json", "contradictory.json", "piecewise.json", "moment_square_2d.json",
    ])
    def test_no_slater_lp_leaves_the_generation_loop(self, monkeypatch, source):
        # every Slater margin LP, and every master, runs on simplex._generate
        def refused(lp):
            raise AssertionError(f"moment solved a {lp.n_rows} x {lp.n_vars} LP itself")

        monkeypatch.setattr(simplex, "solve_lp", refused)
        mp = load_problem(FIXTURES / source).problem
        report = duality_report(mp, FAST)
        assert repr(check_primal_slater(mp, FAST.slater_resolution)) == repr(report.primal_slater)
        check_dual_slater(mp)

    @pytest.mark.parametrize("source", [
        "barely_infeasible.json", "cauchy_schwarz.json", "contradictory.json",
        "moment_square_2d.json", "piecewise.json",
    ])
    def test_dual_margin_matches_the_whole_table_master(self, source):
        # the margin LP's table values the asked cuts alone, not the whole K
        # of every cut on every call, and the report is the same bit for bit
        loaded = load_problem(FIXTURES / source)
        for options in (moment._exchange_options(loaded.config), {}):
            report = check_dual_slater(loaded.problem, **options)
            assert repr(report) == repr(whole_table_dual_slater(loaded.problem, **options))


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

    @pytest.mark.parametrize("max_iters, status", [
        (200, ReportStatus.STRONG_DUALITY), (1, ReportStatus.NOT_CONVERGED),
    ])
    def test_infeasible_grid_is_not_an_infeasible_primal(self, max_iters, status):
        # at 2 points per axis the grid is {-2, 2}, where no measure has mean
        # 0 and second moment 1; the exchange's later masters take in x = 1
        loaded = load_problem(FIXTURES / "coarse_grid_feasible.json")
        mp, config = loaded.problem, replace(loaded.config, max_iters=max_iters)
        assert solve_grid_primal(mp, config.grid_resolution).status == LPStatus.INFEASIBLE
        report = duality_report(mp, config)
        assert report.status == status
        assert report.notes[0].startswith("the grid primal is infeasible at grid resolution 2")
        if max_iters == 1:
            assert report.primal_value is None and report.atoms is None
            return
        assert abs(report.primal_value - 1.0) <= 1e-9 and report.gap == 0.0
        assert_feasible_atoms(mp, report.atoms, report.primal_value)

    def test_missing_mass_bound_is_flagged(self):
        mp = interval_problem(1.0, 2.0, "x1", inequalities=(("x1 ^ 2", 1.0),))
        report = duality_report(mp, FAST)
        assert not report.has_mass_bound
        assert any("total-mass" in note for note in report.notes)


def report_cases():
    """(problem, config): seeded random instances at their own grid, then the fixtures."""
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(12):
        mp, resolution = random_moment_problem(rng)
        config = SolverConfig(grid_resolution=resolution, scan_resolution=257, slater_resolution=9)
        cases.append((mp, config))
    for name in ("cauchy_schwarz.json", "piecewise.json"):
        loaded = load_problem(FIXTURES / name)
        cases.append((loaded.problem, SolverConfig(**loaded.solver)))
    return cases


def assert_feasible_atoms(mp, atoms, value):
    """The atoms meet every moment constraint to 1e-8 and integrate h to ``value``."""
    for fn, bound in mp.inequalities:
        assert atoms.integrate(fn) <= bound + 1e-8
    for fn, bound in mp.equalities:
        assert abs(atoms.integrate(fn) - bound) <= 1e-8
    assert abs(atoms.integrate(mp.objective) - value) <= 1e-8 * (1.0 + abs(value))


class TestReportPrimal:
    """The report's primal comes from the first exchange master, not a second grid LP."""

    @pytest.mark.parametrize("resolution", [64, 65])
    def test_matches_grid_primal(self, resolution):
        # at even resolutions the box centers are not grid points, and the
        # report's first master must still be the grid LP, not a wider one
        for mp, config in report_cases():
            report = duality_report(mp, replace(config, grid_resolution=resolution))
            grid = solve_grid_primal(mp, resolution)
            assert grid.status == LPStatus.OPTIMAL
            assert report.primal_value == grid.value
            atoms = lambda m: sorted(zip(m.box_indices, m.points, m.weights))
            assert atoms(report.atoms) == atoms(grid.measure)
            assert_feasible_atoms(mp, report.atoms, report.primal_value)

    @pytest.mark.parametrize("make", [cauchy_schwarz_problem, piecewise_problem])
    def test_no_lp_as_wide_as_the_grid(self, monkeypatch, make):
        mp = make()
        for resolution in (129, FAST.grid_resolution):  # wider than the Slater grid
            config = replace(FAST, grid_resolution=resolution)
            widths = lp_widths(monkeypatch)
            report = duality_report(mp, config)
            monkeypatch.undo()
            assert widths and max(widths) < resolution * len(mp.domain.boxes)
            v = solve_grid_primal(mp, resolution).value
            assert abs(report.primal_value - v) <= 1e-9 * (1.0 + abs(v))


def lp_widths(monkeypatch) -> list[int]:
    """The column count of every LP that ``moment`` solves from now on.

    Its masters run on the generation loop in ``simplex``, which reads its
    ``_Master``'s outcome once a round, as ``solve_lp`` does once a call, so
    every read is counted.
    """
    widths = []
    real = simplex._Master.result

    def counted(master):
        widths.append(master.std.n_original)
        return real(master)

    monkeypatch.setattr(simplex._Master, "result", counted)
    return widths


def master_builds(monkeypatch) -> list[int]:
    """One entry per ``simplex._Master`` built, cold start or rebuild, from now on."""
    built = []
    real = simplex._Master.__init__

    def counted(master, *args, **kwargs):
        built.append(1)
        real(master, *args, **kwargs)

    monkeypatch.setattr(simplex._Master, "__init__", counted)
    return built


class TestPricedPool:
    """A seeded grid is priced into the masters by their duals or Farkas vectors."""

    def test_unmet_equalities_are_priced_in(self, monkeypatch):
        # corners and center cannot meet the equalities, so the first master
        # is infeasible, and its Farkas vector prices in the grid columns
        mp = interval_problem(
            0.0, 4.0,
            "max(x1 - 2, 0)",
            equalities=(("1", 1.0), ("x1", 1.0), ("max(x1 - 1, 0)", 0.4)),
        )
        widths = lp_widths(monkeypatch)
        report = duality_report(mp, FAST)
        assert max(widths) < FAST.grid_resolution
        assert report.status == ReportStatus.STRONG_DUALITY
        for value in (report.primal_value, report.dual_value):
            assert abs(value - 4.0 / 15.0) <= 1e-9  # the value of the grid-free run
        assert report.primal_value == solve_grid_primal(mp, FAST.grid_resolution).value

    def test_contradictory_fixture_is_primal_infeasible(self):
        loaded = load_problem(FIXTURES / "contradictory.json")
        report = duality_report(loaded.problem, loaded.config)
        assert report.status == ReportStatus.PRIMAL_INFEASIBLE
        assert report.primal_value is None and report.atoms is None

    def test_contradictory_fixture_solves_no_grid_wide_lp(self, monkeypatch):
        # every master is infeasible: its Farkas vector prices no grid column in
        loaded = load_problem(FIXTURES / "contradictory.json")
        widths = lp_widths(monkeypatch)
        report = duality_report(loaded.problem, replace(loaded.config, grid_resolution=257))
        assert report.status == ReportStatus.PRIMAL_INFEASIBLE
        assert max(widths) < 257

    def test_ray_priced_in_raises(self, monkeypatch):
        # every seed with h > 0 has phi > 0, so the first restricted master is
        # bounded; grid points near 0.5 have h > 0 and phi < 0, a ray
        mp = interval_problem(
            0.0, 2.0, "x1 * (2 - x1)", inequalities=(("(x1 - 0.5)^2 - 0.01", 0.0),)
        )
        assert solve_grid_primal(mp, FAST.grid_resolution).status == LPStatus.UNBOUNDED
        widths = lp_widths(monkeypatch)
        with pytest.raises(ExchangeError, match="unbounded above"):
            duality_report(mp, FAST)
        assert len(widths) > 1 and max(widths) < FAST.grid_resolution

    def test_most_picks_as_a_full_stable_sort_does(self):
        rng = np.random.default_rng(5)
        for trial in range(2000):
            n = int(rng.integers(0, 40))
            scores = rng.integers(-3, 4, n).astype(float) if trial % 2 else rng.normal(size=n)
            scores[rng.random(n) < 0.1] = -np.inf
            tol = float(rng.choice([-1.0, 0.0, 0.5]))
            top = np.argsort(-scores, kind="stable")[:simplex._BATCH]
            assert np.array_equal(simplex._most(scores, tol), top[scores[top] > tol])

    def test_grid_free_exchange_solves_one_lp_per_iteration(self, monkeypatch):
        # one master, built once; each new cut joins it and is solved once
        mp = cauchy_schwarz_problem()
        built, widths = master_builds(monkeypatch), lp_widths(monkeypatch)
        res = exchange_solve(mp, scan_resolution=257)
        assert res.status == "converged" and res.iterations > 1
        assert len(built) == 1
        assert widths == [len(prefix) for prefix in cut_prefixes(res)]

    def test_exchange_and_dual_slater_keep_one_master_each(self, monkeypatch):
        # the exchange master takes a column per cut, the dual Slater master
        # a row per cut, and neither is rebuilt
        mp = cauchy_schwarz_problem()
        built = master_builds(monkeypatch)
        res = exchange_solve(mp, scan_resolution=257)
        slater = check_dual_slater(mp, scan_resolution=257)
        assert res.iterations > 1 and slater.iterations > 1
        assert len(built) <= 2
