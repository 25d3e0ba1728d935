"""Density problems in L^p: kernel norms, bound checks, collocation LPs."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from measurelp import (
    Box,
    FiniteLP,
    LPStatus,
    LpDensityProblem,
    ReportStatus,
    check_lp_slater,
    collocation_report,
    discretize_lp_density,
    format_expression,
    kernel_norms,
    kernel_rho,
    kernel_tau,
    load_problem,
    operator_bound_check,
    parse_expression,
    problem_from_document,
    solve_lp,
)
import measurelp.density as density
import measurelp.moment as moment
import measurelp.simplex as simplex
from measurelp.density import midpoint_axes, midpoint_grid
from measurelp.expressions import _Program
from measurelp.moment import SLATER_CAP
from measurelp.simplex import FEAS_TOL, LPOutcome, kkt_residuals, make_lp
from oracles import (
    hand_built_lp_slater, hand_built_margin_lp, midpoint_quad, refined_quad, scipy_solve,
)
from problems import (
    bilinear_density_problem,
    concentration_density_problem,
    flat_density_problem,
    gaussian_density_problem,
    random_density_problem,
)

UNIT = Box((0.0,), (1.0,))
FIXTURES = Path(__file__).parent / "fixtures"


def unit_problem(kernel_src, bound_src="1", objective_src="1", p=2.0, gamma=1.0):
    return LpDensityProblem(
        domain=UNIT,
        objective=parse_expression(objective_src, 1),
        p=p,
        kernel_a=parse_expression(kernel_src, 2, (("y", 1), ("x", 1))),
        bound_a=parse_expression(bound_src, 1, ("y",)),
        ineq_domain=Box((0.0,), (float(gamma),)),
    )


def unmet_equalities_problem():
    """Equalities ``∫ (1 + z x) f dx = 1 + 0.3 z`` on [0, 1]: no constant density meets them."""
    return LpDensityProblem(
        domain=UNIT,
        objective=parse_expression("1", 1),
        kernel_b=parse_expression("1 + z1*x1", 2, (("z", 1), ("x", 1))),
        bound_b=parse_expression("1 + 0.3*z1", 1, ("z",)),
        eq_domain=UNIT,
    )


class TestValidation:
    def test_exponent_range(self):
        for bad in (1.0, 0.5, -2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                unit_problem("1", p=bad)

    def test_family_must_be_complete(self):
        with pytest.raises(ValueError):
            LpDensityProblem(
                domain=UNIT,
                objective=parse_expression("1", 1),
                kernel_a=parse_expression("1", 2, (("y", 1), ("x", 1))),
            )

    def test_at_least_one_family(self):
        with pytest.raises(ValueError):
            LpDensityProblem(domain=UNIT, objective=parse_expression("1", 1))

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            LpDensityProblem(
                domain=UNIT,
                objective=parse_expression("x1 + x2", 2),
            )
        with pytest.raises(ValueError):
            LpDensityProblem(
                domain=UNIT,
                objective=parse_expression("1", 1),
                kernel_a=parse_expression("1", 1),
                bound_a=parse_expression("1", 1, ("y",)),
                ineq_domain=UNIT,
            )

    def test_conjugate_exponent(self):
        assert unit_problem("1", p=2.0).q == pytest.approx(2.0)
        assert unit_problem("1", p=3.0).q == pytest.approx(1.5)
        assert unit_problem("1", p=1.5).q == pytest.approx(3.0)


class TestMidpointGrids:
    def test_axes_and_volume(self):
        axes = midpoint_axes(Box((0.0,), (1.0,)), 4)
        assert np.allclose(axes[0], [0.125, 0.375, 0.625, 0.875])
        pts, vol = midpoint_grid(Box((0.0, 0.0), (1.0, 2.0)), 4)
        assert pts.shape == (16, 2)
        assert vol == pytest.approx(2.0 / 16.0)

    def test_midpoint_rule_matches_local_quadrature(self):
        pb = bilinear_density_problem()
        xs, w = midpoint_grid(UNIT, 64)
        direct = float(np.sum(xs[:, 0] ** 2) * w)
        local = midpoint_quad(lambda t: t**2, 0.0, 1.0, 64)
        assert direct == pytest.approx(local, abs=1e-15)
        assert pb.domain == UNIT


class TestKernelNorms:
    def test_bilinear_against_refinement_oracle(self):
        pb = bilinear_density_problem()
        # tau(1) = (int y^2 dy)^(1/2); oracle integrates |y*1|^2 locally
        oracle_sq, delta = refined_quad(lambda y: y**2, 0.0, 1.0, 2048)
        assert delta < 1e-7
        assert kernel_tau(pb, "a", (1.0,)) == pytest.approx(oracle_sq**0.5, abs=1e-4)
        assert kernel_rho(pb, "a", (1.0,)) == pytest.approx(oracle_sq**0.5, abs=1e-4)
        assert kernel_tau(pb, "a", (1.0,)) == pytest.approx(1.0 / 3.0**0.5, abs=1e-4)

    def test_trivial_kernels(self):
        assert kernel_tau(unit_problem("0"), "a", (0.5,)) == 0.0
        assert kernel_rho(unit_problem("0"), "a", (0.5,)) == 0.0
        assert kernel_tau(unit_problem("1", p=3.0), "a", (0.5,)) == pytest.approx(1.0, abs=1e-12)
        assert kernel_rho(unit_problem("1", p=3.0), "a", (0.5,)) == pytest.approx(1.0, abs=1e-12)

    def test_point_outside_domain_rejected(self):
        pb = bilinear_density_problem()
        with pytest.raises(ValueError):
            kernel_tau(pb, "a", (2.0,))
        with pytest.raises(ValueError):
            kernel_rho(pb, "a", (-1.0,))

    def test_summary_norms(self):
        norms = kernel_norms(bilinear_density_problem(), "a")
        # ||tau||_2 with tau(x) = x/sqrt(3): (int x^2/3)^(1/2) = 1/3
        assert norms.tau_norm == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert norms.uniform_bound == pytest.approx(1.0 / 3.0**0.5, abs=1e-2)
        assert norms.uniform_bound >= norms.rho((0.3,)) - 1e-12
        assert norms.tau((1.0,)) == pytest.approx(1.0 / 3.0**0.5, abs=1e-4)

    def test_quadrature_refinement_rate(self):
        pb = bilinear_density_problem()
        for r in (32, 64):
            a = kernel_tau(pb, "a", (0.7,), quad_resolution=r)
            b = kernel_tau(pb, "a", (0.7,), quad_resolution=2 * r)
            assert abs(a - b) <= 1.0 / r


class TestOperatorBoundCheck:
    def test_bilinear_all_pass(self):
        report = operator_bound_check(
            bilinear_density_problem(), trials=30, quad_resolution=64, seed=1
        )
        assert report.all_passed
        assert len(report.trials) == 30
        assert report.eps_quad > 0.0
        assert report.refinement_ratio > 1.2
        assert report.p == 2.0 and report.q == 2.0

    def test_zero_kernel(self):
        report = operator_bound_check(unit_problem("0"), trials=5, quad_resolution=32)
        assert report.all_passed
        for t in report.trials:
            assert t.operator_norm == 0.0
            assert t.lipschitz_lhs == 0.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            operator_bound_check(bilinear_density_problem(), trials=0)

    def test_deterministic_given_seed(self):
        pb = bilinear_density_problem()
        a = operator_bound_check(pb, trials=5, quad_resolution=32, seed=9)
        b = operator_bound_check(pb, trials=5, quad_resolution=32, seed=9)
        assert a.trials == b.trials

    def test_one_kernel_table_per_resolution(self, monkeypatch):
        # the base resolution's table serves both its norms and the trials
        resolutions = []
        real = density._kernel_table

        def counted(kernel, outer, x_pts):
            resolutions.append(x_pts.shape[0])
            return real(kernel, outer, x_pts)

        monkeypatch.setattr(density, "_kernel_table", counted)
        report = operator_bound_check(bilinear_density_problem(), trials=5, quad_resolution=16)
        assert resolutions == [8, 16, 32]
        assert report.all_passed


class TestDiscretization:
    def test_shapes_and_senses(self):
        pb = concentration_density_problem()
        primal, dual = discretize_lp_density(pb, 8, 4, 3)
        assert primal.rows.shape == (3, 8)
        assert primal.row_senses == ("=",) * 3
        assert dual.rows.shape == (8, 3)
        assert dual.row_senses == (">=",) * 8
        assert np.all(np.isneginf(dual.lower))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            discretize_lp_density(flat_density_problem(), 1)

    def test_flat_instance_value_one_at_every_resolution(self):
        pb = flat_density_problem()
        for r in (2, 3, 5, 8, 16, 64):
            primal, dual = discretize_lp_density(pb, r)
            p_out, d_out = solve_lp(primal), solve_lp(dual)
            assert p_out.status == LPStatus.OPTIMAL
            assert d_out.status == LPStatus.OPTIMAL
            assert p_out.value == pytest.approx(1.0, abs=1e-9)
            assert d_out.value == pytest.approx(1.0, abs=1e-9)

    def test_collocation_duality_random(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            pb = random_density_problem(rng)
            for r in (8, 16, 32):
                primal, dual = discretize_lp_density(pb, r)
                p_out, d_out = solve_lp(primal), solve_lp(dual)
                assert p_out.status == LPStatus.OPTIMAL
                assert d_out.status == LPStatus.OPTIMAL
                scale = 1.0 + abs(d_out.value)
                assert abs(p_out.value - d_out.value) <= 1e-8 * scale
                # the report reads its dual off the primal's row duals
                report = collocation_report(pb, r, refine=False)
                assert abs(report.dual_value - d_out.value) <= 1e-8 * scale

    def test_monotone_in_inequality_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            pb = random_density_problem(rng)
            relaxed = LpDensityProblem(
                domain=pb.domain,
                objective=pb.objective,
                p=pb.p,
                kernel_a=pb.kernel_a,
                bound_a=parse_expression(
                    "1 + (" + format_expression(pb.bound_a) + ")",
                    pb.bound_a.arity,
                    ("y",),
                ),
                ineq_domain=pb.ineq_domain,
                kernel_b=pb.kernel_b,
                bound_b=pb.bound_b,
                eq_domain=pb.eq_domain,
            )
            base, _ = discretize_lp_density(pb, 16)
            more, _ = discretize_lp_density(relaxed, 16)
            v0 = solve_lp(base)
            v1 = solve_lp(more)
            assert v0.status == LPStatus.OPTIMAL and v1.status == LPStatus.OPTIMAL
            assert v1.value >= v0.value - 1e-9 * (1.0 + abs(v0.value))


class TestCollocationReport:
    def test_flat_strong_duality(self):
        report = collocation_report(flat_density_problem(), x_resolution=16)
        assert report.status == ReportStatus.STRONG_DUALITY
        assert report.primal_value == pytest.approx(1.0, abs=1e-9)
        assert report.dual_value == pytest.approx(1.0, abs=1e-9)
        assert abs(report.gap) <= 1e-9
        assert report.notes == ()

    def test_mass_concentration_values_and_note(self):
        pb = concentration_density_problem()
        for r in (8, 16, 32):
            report = collocation_report(pb, x_resolution=r)
            assert report.primal_value == pytest.approx(1.0 - 1.0 / (2 * r), abs=1e-9)
            assert report.refined_primal_value == pytest.approx(
                1.0 - 1.0 / (4 * r), abs=1e-9
            )
            assert any("escapes the density class" in n for n in report.notes)

    def test_infeasible_primal(self):
        pb = LpDensityProblem(
            domain=UNIT,
            objective=parse_expression("1", 1),
            kernel_a=parse_expression("1", 2, (("y", 1), ("x", 1))),
            bound_a=parse_expression("0", 1, ("y",)),
            ineq_domain=UNIT,
            kernel_b=parse_expression("1", 2, (("z", 1), ("x", 1))),
            bound_b=parse_expression("1", 1, ("z",)),
            eq_domain=Box((0.0,), (0.5,)),
        )
        report = collocation_report(pb, x_resolution=8)
        assert report.status == ReportStatus.PRIMAL_INFEASIBLE
        assert report.primal_value is None
        assert repr(report) == repr(dense_report(pb, x_resolution=8))

    def test_unbounded_primal(self):
        pb = LpDensityProblem(
            domain=UNIT,
            objective=parse_expression("1", 1),
            kernel_b=parse_expression("x1 - 0.5", 2, (("z", 1), ("x", 1))),
            bound_b=parse_expression("0", 1, ("z",)),
            eq_domain=Box((0.0,), (0.5,)),
        )
        report = collocation_report(pb, x_resolution=8)
        assert report.status == ReportStatus.PRIMAL_UNBOUNDED
        assert report.primal_value is None
        assert repr(report) == repr(dense_report(pb, x_resolution=8))


def dense_generate(pb, rows, resolutions, start=None):
    """The dense primal in place of the generation loop: the reference path."""
    primal, _ = discretize_lp_density(pb, **resolutions)
    return primal, solve_lp(primal), (np.arange(primal.n_rows), np.arange(primal.n_vars))


def dense_report(pb, **kwargs):
    """``collocation_report`` with the dense primal solved in place of the loop."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(density, "_collocated_primal", dense_generate)
        return collocation_report(pb, **kwargs)


class TestGeneration:
    def assert_matches_dense(self, pb, r):
        dense = dense_report(pb, x_resolution=r)
        report = collocation_report(pb, r)
        assert report.status == dense.status and report.notes == dense.notes
        for field in ("primal_value", "dual_value", "refined_primal_value"):
            value, expected = getattr(report, field), getattr(dense, field)
            assert abs(value - expected) <= 1e-9 * (1.0 + abs(expected)), field
        return report

    def test_matches_dense_on_criterion_8_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            pb = random_density_problem(rng)
            for r in (8, 16, 32):
                self.assert_matches_dense(pb, r)

    def test_anchors(self):
        for r in (2, 3, 4, 5, 8, 16, 32, 64):
            report = collocation_report(flat_density_problem(), r)
            for value in (report.primal_value, report.dual_value, report.refined_primal_value):
                assert value == pytest.approx(1.0, abs=1e-9)
        for r in (8, 16, 32):
            report = collocation_report(concentration_density_problem(), r)
            assert report.primal_value == pytest.approx(1.0 - 1.0 / (2 * r), abs=1e-9)
            assert report.dual_value == pytest.approx(1.0 - 1.0 / (2 * r), abs=1e-9)
            assert report.refined_primal_value == pytest.approx(1.0 - 1.0 / (4 * r), abs=1e-9)

    def test_values_few_kernel_pairs_in_2d(self, monkeypatch):
        pb = gaussian_density_problem()
        self.assert_matches_dense(pb, 16)
        pairs = []
        real = density._kernel_table

        def counted(kernel, outer, x_pts):
            pairs.append(outer.shape[0] * x_pts.shape[0])
            return real(kernel, outer, x_pts)

        monkeypatch.setattr(density, "_kernel_table", counted)
        collocation_report(pb, 16, refine=False)
        assert 0 < sum(pairs) < 256 * 256 / 4

    @pytest.mark.parametrize("source", [
        "density_concentration.json", "density_flat.json", "density_gauss_2d.json",
        "density_unbounded.json",
    ])
    def test_refined_solve_builds_no_lp(self, monkeypatch, source):
        # only the first solve's restricted LP is read, by the KKT check; the
        # report is the same bit for bit as when every solve built its LP
        loaded = load_problem(FIXTURES / source)
        options = loaded.config.report_options()
        real = density._collocated_primal

        def every_solve_builds(pb, rows, resolutions, start=None):
            lp, out, (R, C) = real(pb, rows, resolutions, start)
            if lp is None:
                x_pts, dx = midpoint_grid(pb.domain, resolutions["x_resolution"])
                values = density._values(pb, pb.objective, "the objective", x_pts)
                cost = density._scaled(values, dx, "the objective")
                senses = np.where(rows.equality[R], "=", "<=").tolist()
                lp = make_lp("max", cost[C], rows.table(R, x_pts[C], dx), senses, rows.rhs[R])
            return lp, out, (R, C)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(density, "_collocated_primal", every_solve_builds)
            expected = collocation_report(loaded.problem, **options)
        built = []
        real_make_lp = density.make_lp

        def counted(*args, **kwargs):
            built.append(args[1].shape[0])
            return real_make_lp(*args, **kwargs)

        monkeypatch.setattr(density, "make_lp", counted)
        report = collocation_report(loaded.problem, **options)
        assert repr(report) == repr(expected)
        assert len(built) == (report.primal_value is not None)

    def test_subcells_lie_in_their_cell(self):
        box = Box((0.0, -1.0), (1.0, 2.0))
        coarse, _ = midpoint_grid(box, (3, 5))
        fine, _ = midpoint_grid(box, (6, 10))
        cells = np.array([0, 7, 14])
        sub = density._subcells(cells, (3, 5), 2).reshape(len(cells), 4)
        offsets = np.abs(fine[sub] - coarse[cells][:, None, :])
        assert np.allclose(offsets, [1.0 / 12.0, 3.0 / 20.0])
        assert len(np.unique(sub)) == sub.size

    def test_pair_points_order(self):
        left, right = np.arange(6.0).reshape(3, 2), -np.arange(4.0).reshape(4, 1)
        expected = np.concatenate([np.repeat(left, 4, axis=0), np.tile(right, (3, 1))], axis=1)
        assert density._pair_points(left, right).tobytes() == expected.tobytes()


class TestDensitySlater:
    def test_margin_values(self):
        assert check_lp_slater(unit_problem("1", "2")).margin == pytest.approx(1.0, abs=1e-9)
        assert check_lp_slater(unit_problem("1", "1")).margin == pytest.approx(0.5, abs=1e-9)
        assert check_lp_slater(unit_problem("1", "0")).margin == pytest.approx(0.0, abs=1e-9)

    def test_margin_matches_untransformed_lp(self):
        # the margin LP as stated: f free with f_i >= delta, delta <= cap
        rng = np.random.default_rng(47)
        for _ in range(20):
            pb = random_density_problem(rng)
            for r in (8, 16):
                primal, _ = discretize_lp_density(pb, r)
                n = primal.n_vars
                slack = np.array([[1.0 if s == "<=" else 0.0] for s in primal.row_senses])
                stated = FiniteLP(
                    sense="max",
                    objective=np.eye(n + 1)[n],
                    rows=np.block([[primal.rows, slack], [np.eye(n), -np.ones((n, 1))]]),
                    row_senses=primal.row_senses + (">=",) * n,
                    rhs=np.concatenate([primal.rhs, np.zeros(n)]),
                    lower=-np.inf,
                    upper=np.concatenate([np.full(n, np.inf), [SLATER_CAP]]),
                )
                status, margin = scipy_solve(stated)
                rep = check_lp_slater(pb, x_resolution=r)
                assert rep.feasible == (status == LPStatus.OPTIMAL)
                assert abs(rep.margin - margin) <= 1e-8 * (1.0 + abs(margin))

    def test_margin_matches_hand_built_lp(self):
        rng = np.random.default_rng(53)
        cases = [(flat_density_problem(), 16), (concentration_density_problem(), 16)]
        cases += [(bilinear_density_problem(), 8), (unit_problem("1", "0"), 33)]
        cases += [(random_density_problem(rng), r) for _ in range(8) for r in (8, 16)]
        cases += [(unmet_equalities_problem(), 16)]
        for pb, r in cases:
            report, expected = check_lp_slater(pb, x_resolution=r), hand_built_lp_slater(pb, r)
            for field in ("feasible", "capped", "equality_rank", "n_equality_rows", "x_resolution"):
                assert getattr(report, field) == getattr(expected, field), field
            # a restricted solve cannot match the dense tableau's last bits
            m = expected.margin
            assert report.margin == m or abs(report.margin - m) <= 1e-9 * (1.0 + abs(m))
        # no constant density meets these equalities, so the loop's first
        # restricted LP is infeasible and its full round is the dense LP
        pb = unmet_equalities_problem()
        assert repr(check_lp_slater(pb, 16)) == repr(hand_built_lp_slater(pb, 16))

    def test_loop_certificate_holds_on_the_dense_margin_lp(self, monkeypatch):
        # the loop's (g, delta) and row duals, padded with zeros, are an
        # optimal pair for the whole margin LP up to FEAS_TOL * (1 + |delta|)
        found = []
        real = moment._generate

        def kept(*args, **kwargs):
            found.append(real(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(moment, "_generate", kept)
        rng = np.random.default_rng(59)
        cases = [(flat_density_problem(), 16), (concentration_density_problem(), 16)]
        cases += [(bilinear_density_problem(), 8)]
        cases += [(random_density_problem(rng), (8, 16)[k % 2]) for k in range(16)]
        cases += [(gaussian_density_problem(), 16), (gaussian_density_problem(), 32)]
        for pb, r in cases:
            found.clear()
            report = check_lp_slater(pb, x_resolution=r)
            _, out, (active, cells) = found[-1]
            lp = hand_built_margin_lp(pb, r)
            delta = lp.n_vars - 1
            x = np.zeros(lp.n_vars)
            x[cells], x[delta] = out.x[:-1], out.x[-1]
            duals = np.zeros(lp.n_rows)
            duals[active] = out.duals
            kkt = kkt_residuals(lp, LPOutcome(LPStatus.OPTIMAL, float(x[delta]), x, duals))
            tol = FEAS_TOL * (1.0 + abs(x[delta]))
            assert kkt.primal_residual <= tol
            assert kkt.dual_sign_residual <= tol
            assert kkt.stationarity_residual <= tol
            assert report.margin == x[delta] and report.feasible

    def test_default_resolution_in_2d_stays_small(self, monkeypatch):
        # the dense margin LP here has 4,096 rows and took 1.2 GB
        rows = []
        real = simplex._Master.result

        def counted(master):
            rows.append(master.std.m_original)
            return real(master)

        monkeypatch.setattr(simplex._Master, "result", counted)  # every LP of the loop
        tracemalloc.start()
        try:
            report = check_lp_slater(gaussian_density_problem(), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.feasible and 0.0 < report.margin < 1.0 and not report.capped
        assert peak < 150e6
        assert rows and max(rows) <= 300

    def test_rank_table_over_the_byte_limit(self):
        # 10^6 equality rows by 10^6 cells: 8 TB, rejected before any row is
        # valued; the file's own solver block, which load_problem rejects, is dropped
        doc = json.loads((FIXTURES / "oversize_density_rank.json").read_text())
        pb = problem_from_document({k: v for k, v in doc.items() if k != "solver"}).problem
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="needs 8000000000000 bytes"):
                check_lp_slater(pb, x_resolution=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_resolution_below_two_rejected(self):
        for kwargs in (dict(x_resolution=1), dict(x_resolution=8, y_resolution=1)):
            with pytest.raises(ValueError, match="resolution must be >= 2"):
                check_lp_slater(flat_density_problem(), **kwargs)

    def test_kernels_compiled_once_per_problem(self, monkeypatch):
        compiled = []
        real = _Program.__init__

        def counted(self, exprs):
            compiled.extend(id(e) for e in exprs)
            real(self, exprs)

        monkeypatch.setattr(_Program, "__init__", counted)
        rng = np.random.default_rng(61)
        for pb in (
            gaussian_density_problem(), concentration_density_problem(),
            random_density_problem(rng), random_density_problem(rng),
        ):
            compiled.clear()
            collocation_report(pb, 16)
            check_lp_slater(pb, 16)
            parts = (pb.objective, pb.kernel_a, pb.bound_a, pb.kernel_b, pb.bound_b)
            assert sorted(compiled) == sorted(id(e) for e in parts if e is not None)

    def test_negative_margin_when_no_strict_interior(self):
        # unit mass forced while the inequality demands nonpositive mass:
        # the margin LP stays feasible but the certified margin goes negative
        pb = LpDensityProblem(
            domain=UNIT,
            objective=parse_expression("1", 1),
            kernel_a=parse_expression("1", 2, (("y", 1), ("x", 1))),
            bound_a=parse_expression("0", 1, ("y",)),
            ineq_domain=UNIT,
            kernel_b=parse_expression("1", 2, (("z", 1), ("x", 1))),
            bound_b=parse_expression("1", 1, ("z",)),
            eq_domain=Box((0.0,), (0.5,)),
        )
        rep = check_lp_slater(pb)
        assert rep.feasible
        assert rep.margin == pytest.approx(-1.0, abs=1e-9)
        assert repr(rep) == repr(hand_built_lp_slater(pb))

    def test_infeasible_margin(self):
        # identical equality rows demanding different masses: no density at all
        pb = LpDensityProblem(
            domain=UNIT,
            objective=parse_expression("1", 1),
            kernel_b=parse_expression("1", 2, (("z", 1), ("x", 1))),
            bound_b=parse_expression("z1", 1, ("z",)),
            eq_domain=Box((0.5,), (1.5,)),
        )
        rep = check_lp_slater(pb, x_resolution=9, z_resolution=4)
        assert not rep.feasible
        assert rep.margin == -np.inf
        assert rep.rank_deficient
        assert repr(rep) == repr(hand_built_lp_slater(pb, 9, z_resolution=4))

    def test_rank_deficiency_flagged(self):
        # B(z, x) = x has identical collocation rows for every z
        pb = LpDensityProblem(
            domain=UNIT,
            objective=parse_expression("1", 1),
            kernel_b=parse_expression("x1", 2, (("z", 1), ("x", 1))),
            bound_b=parse_expression("0.5", 1, ("z",)),
            eq_domain=UNIT,
        )
        rep = check_lp_slater(pb, x_resolution=9, z_resolution=4)
        assert rep.n_equality_rows == 4
        assert rep.equality_rank == 1
        assert rep.rank_deficient


def equality_problem(kernel_src="1", bound_src="1"):
    return LpDensityProblem(
        domain=UNIT,
        objective=parse_expression("1", 1),
        kernel_b=parse_expression(kernel_src, 2, (("z", 1), ("x", 1))),
        bound_b=parse_expression(bound_src, 1, ("z",)),
        eq_domain=UNIT,
    )


def lp_widths(monkeypatch) -> list[int]:
    """The column count of every LP that the generation loop solves from now on.

    The loop reads its ``simplex._Master``'s outcome once a round.
    """
    widths = []
    real = simplex._Master.result

    def counted(master):
        widths.append(master.std.n_original)
        return real(master)

    monkeypatch.setattr(simplex._Master, "result", counted)
    return widths


def gaussian_with_unmet_equalities() -> LpDensityProblem:
    """The 2-D Gaussian plus ``∫ (1 + z x1) f dx = 1 + 0.3 z``, z in [0, 1]."""
    return replace(
        gaussian_density_problem(),
        kernel_b=parse_expression("1 + z1*x1", 3, (("z", 1), ("x", 2))),
        bound_b=parse_expression("1 + 0.3*z1", 1, ("z",)),
        eq_domain=UNIT,
    )


class TestCertificatesStayNarrow:
    """An LP that is not optimal is settled by a Farkas vector or a ray, not the whole LP."""

    def test_unbounded_primal(self, monkeypatch):
        pb = load_problem(FIXTURES / "density_unbounded.json").problem
        widths = lp_widths(monkeypatch)
        report = collocation_report(pb, x_resolution=64)
        assert report.status == ReportStatus.PRIMAL_UNBOUNDED
        assert max(widths) < 64

    def test_infeasible_primal(self, monkeypatch):
        doc = json.loads((FIXTURES / "density_flat.json").read_text(encoding="utf-8"))
        doc["inequality"]["bound"] = "0 - 1"
        pb = problem_from_document(doc).problem
        widths = lp_widths(monkeypatch)
        report = collocation_report(pb, x_resolution=16)
        assert report.status == ReportStatus.PRIMAL_INFEASIBLE
        assert max(widths) < 16

    def test_unmet_equalities_in_2d(self, monkeypatch):
        # delta alone cannot meet the equalities, so the first margin LP is
        # infeasible, and its Farkas vector prices cells in
        pb = gaussian_with_unmet_equalities()
        widths = lp_widths(monkeypatch)
        report = check_lp_slater(pb, 16)
        assert max(widths) < 16 * 16 + 1
        m = hand_built_lp_slater(pb, 16).margin
        assert report.feasible and abs(report.margin - m) <= 1e-9 * (1.0 + abs(m))

    def test_unmet_equalities_in_2d_stay_small(self):
        # the dense margin LP here has 4,160 rows and 4,097 columns
        tracemalloc.start()
        try:
            report = check_lp_slater(gaussian_with_unmet_equalities(), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.feasible and 0.0 < report.margin < 1.0 and not report.capped
        assert peak < 150e6


class TestNonFiniteValues:
    """A value that is not finite raises ValueError naming its expression."""

    @pytest.mark.parametrize("problem, name", [
        (lambda: unit_problem("1", objective_src="1e300*x1*1e300"), "the objective"),
        # the Slater check gave a capped margin, and the collocation LP named nothing
        (lambda: unit_problem("1", bound_src="1 + 1e300*y1*1e300"), "the inequality bound"),
        (lambda: unit_problem("1e300*x1*1e300"), "the inequality kernel"),
        (lambda: equality_problem(bound_src="1e300*z1*1e300"), "the equality bound"),
        (lambda: equality_problem("1e300*x1*1e300"), "the equality kernel"),
    ])
    def test_every_valuation_names_its_expression(self, problem, name):
        pb = problem()
        message = f"non-finite function value in {name}"
        for solve in (collocation_report, discretize_lp_density, check_lp_slater):
            if solve is check_lp_slater and name == "the objective":
                continue  # the margin LP values no objective
            with pytest.raises(ValueError, match=message):
                solve(pb, 8)

    def test_kernel_norms_reject_a_non_finite_kernel(self):
        # both returned infinite norms
        pb = unit_problem("1e300*x1*1e300")
        for check in (kernel_norms, operator_bound_check):
            with pytest.raises(ValueError, match="value in the inequality kernel"):
                check(pb, "a", quad_resolution=8)

    @pytest.mark.parametrize("field, name", [
        ("objective", "the objective"),
        ("kernel_a", "the inequality kernel"),
        ("bound_a", "the inequality bound"),  # the dual LP's objective, a bound times dy
    ])
    def test_cell_volume_overflow_names_its_expression(self, field, name):
        # every value is 1 or 1e308, finite, but the cells of [0, 4] at 2 per
        # axis are 2 wide, and a product with their volume overflowed unnamed
        sources = {"objective": "1", "kernel_a": "1", "bound_a": "1", field: "1e308"}
        box = Box((0.0,), (4.0,))
        pb = LpDensityProblem(
            domain=box,
            objective=parse_expression(sources["objective"], 1),
            kernel_a=parse_expression(sources["kernel_a"], 2, (("y", 1), ("x", 1))),
            bound_a=parse_expression(sources["bound_a"], 1, ("y",)),
            ineq_domain=box,
        )
        solves = {
            "objective": (discretize_lp_density, collocation_report),
            "kernel_a": (discretize_lp_density, collocation_report, check_lp_slater),
            "bound_a": (discretize_lp_density,),
        }[field]
        message = f"non-finite function value in {name} times the cell volume"
        for solve in solves:
            with pytest.raises(ValueError, match=message):
                solve(pb, 2)

    def test_slater_row_sum_names_its_kernel(self):
        # every kernel value is finite, but four of them sum past the float range
        pb = LpDensityProblem(
            domain=Box((0.0,), (4.0,)),
            objective=parse_expression("1", 1),
            kernel_a=parse_expression("1e308", 2, (("y", 1), ("x", 1))),
            bound_a=parse_expression("1", 1, ("y",)),
            ineq_domain=UNIT,
        )
        with pytest.raises(ValueError, match="non-finite row sum of the inequality kernel"):
            check_lp_slater(pb, 4)
