"""Canonical JSON, problem/report files, and their failure diagnostics."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from measurelp import (
    FORMAT_VERSION,
    ProblemFormatError,
    ReportStatus,
    SolverConfig,
    canonical_json,
    check_lp_slater,
    collocation_report,
    density_report_document,
    duality_report,
    load_problem,
    load_report,
    moment_report_document,
    problem_document,
    problem_from_document,
    write_problem,
    write_report,
)
from measurelp.density import DensityConfig, midpoint_grid
from measurelp.fileio import DENSITY_SOLVER_KEYS, MOMENT_SOLVER_KEYS
from measurelp.geometry import Box, grid_array


def moment_doc(**overrides):
    doc = {
        "format_version": "1",
        "kind": "moment",
        "name": "tiny",
        "dimension": 1,
        "hull": {"lower": [0.0], "upper": [1.0]},
        "boxes": [{"lower": [0.0], "upper": [1.0]}],
        "objective": ["x1"],
        "inequalities": [{"pieces": ["x1^2"], "bound": 1.0}],
        "equalities": [{"pieces": ["1"], "bound": 1.0}],
        "solver": {"grid_resolution": 65, "slater_resolution": 33},
    }
    doc.update(overrides)
    return doc


def density_doc(**overrides):
    doc = {
        "format_version": "1",
        "kind": "lp_density",
        "name": "flat",
        "domain": {"lower": [0.0], "upper": [1.0]},
        "objective": "1",
        "p": 2.0,
        "inequality": {
            "kernel": "1",
            "bound": "1",
            "box": {"lower": [0.0], "upper": [1.0]},
        },
        "solver": {"x_resolution": 8},
    }
    doc.update(overrides)
    return doc


class TestCanonicalJson:
    def test_formatting_rules(self):
        text = canonical_json({"b": 1.0, "a": [0.5, 2], "c": {"y": True, "x": None}})
        assert text == '{"a":[0.5,2],"b":1.0,"c":{"x":null,"y":true}}\n'

    def test_float_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001\n"
        assert canonical_json(1.0) == "1.0\n"
        assert canonical_json(-3.0) == "-3.0\n"
        assert canonical_json(1e20) == "1e+20\n"
        assert canonical_json(2.5e-17) == "2.4999999999999999e-17\n"
        assert canonical_json(1.0 / 3.0) == "0.33333333333333331\n"

    def test_round_trip_exact(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0, 4.0 / 15.0]
        for v in values:
            assert json.loads(canonical_json(v)) == v

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                canonical_json({"v": bad})

    def test_newline_terminated(self):
        assert canonical_json([]).endswith("\n")


class TestProblemFiles:
    def test_moment_round_trip(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(moment_doc()))
        first = load_problem(path)
        out = tmp_path / "rewritten.json"
        write_problem(first, out)
        second = load_problem(out)
        assert problem_document(first) == problem_document(second)
        assert canonical_json(problem_document(first)) == out.read_text()
        # a second rewrite is byte-stable
        again = tmp_path / "again.json"
        write_problem(second, again)
        assert again.read_bytes() == out.read_bytes()

    def test_density_round_trip(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(density_doc()))
        first = load_problem(path)
        out = tmp_path / "rewritten.json"
        write_problem(first, out)
        assert problem_document(first) == problem_document(load_problem(out))
        assert first.kind == "lp_density"
        assert first.problem.p == 2.0

    def test_density_defaults_p(self):
        doc = density_doc()
        del doc["p"]
        loaded = problem_from_document(doc)
        assert loaded.problem.p == 2.0

    def test_int_accepted_for_float_field(self):
        doc = moment_doc()
        doc["equalities"][0]["bound"] = 1
        loaded = problem_from_document(doc)
        assert loaded.problem.equalities[0][1] == 1.0

    def test_config_is_built_from_the_solver_block(self):
        loaded = problem_from_document(moment_doc())
        assert loaded.config == SolverConfig(**loaded.solver)
        assert loaded.config.grid_resolution == 65
        loaded = problem_from_document(density_doc())
        assert loaded.config == DensityConfig(x_resolution=8)

    def test_solver_keys_follow_the_config_fields(self):
        assert MOMENT_SOLVER_KEYS == {
            "grid_resolution": int, "tol": float, "max_iters": int,
            "gap_rtol": float, "slater_resolution": int,
        }
        assert DENSITY_SOLVER_KEYS == {
            "x_resolution": int, "y_resolution": int, "z_resolution": int,
            "gap_rtol": float, "slater_resolution": int,
        }


class TestProblemErrors:
    def err(self, doc):
        with pytest.raises(ProblemFormatError) as info:
            problem_from_document(doc)
        return info.value

    def test_format_version(self):
        e = self.err(moment_doc(format_version="2"))
        assert e.field == "format_version"

    def test_unknown_kind(self):
        e = self.err(moment_doc(kind="momentum"))
        assert e.field == "kind"

    def test_parse_error_reports_offset_and_field(self):
        e = self.err(moment_doc(objective=["x1 +"]))
        assert e.field == "objective[0]"
        assert "byte offset" in str(e)

    def test_arity_error_names_expression(self):
        e = self.err(moment_doc(equalities=[{"pieces": ["x3"], "bound": 1.0}]))
        assert e.field == "equalities[0].pieces[0]"

    def test_overlapping_boxes_diagnosed(self):
        doc = moment_doc(
            hull={"lower": [0.0], "upper": [2.0]},
            boxes=[
                {"lower": [0.0], "upper": [1.5]},
                {"lower": [1.0], "upper": [2.0]},
            ],
            objective=["x1", "x1"],
            inequalities=[],
            equalities=[{"pieces": ["1", "1"], "bound": 1.0}],
        )
        e = self.err(doc)
        assert "boxes 0 and 1 overlap" in str(e)

    def test_volume_deficit_diagnosed(self):
        doc = moment_doc(hull={"lower": [0.0], "upper": [2.0]})
        e = self.err(doc)
        assert "deficit" in str(e)

    def test_unknown_solver_key(self):
        e = self.err(moment_doc(solver={"grid_resolution": 65, "bogus": 1}))
        assert e.field == "solver.bogus"

    def test_bool_rejected_for_float(self):
        e = self.err(moment_doc(equalities=[{"pieces": ["1"], "bound": True}]))
        assert "equalities[0]" in e.field

    def test_wrong_piece_count(self):
        e = self.err(moment_doc(objective=["x1", "x1"]))
        assert e.field.startswith("objective")

    def test_bad_exponent(self):
        e = self.err(density_doc(p=1.0))
        assert e.field == "p"

    @pytest.mark.parametrize("doc, field", [
        (moment_doc(equalities=[{"pieces": ["1"], "bound": 10**400}]), "equalities[0].bound"),
        (moment_doc(hull={"lower": [0.0], "upper": [10**400]}), "hull.upper[0]"),
        (density_doc(p=10**400), "p"),
        (moment_doc(solver={"tol": 10**400}), "solver.tol"),
    ])
    def test_integer_too_large_for_a_float(self, doc, field):
        # float() of this 401-digit integer raised OverflowError
        e = self.err(doc)
        assert e.field == field
        assert "number too large for a float" in str(e)

    @pytest.mark.parametrize("doc, message", [
        (moment_doc(solver={"tol": -1}), "tol must be a finite number >= 0, got -1.0"),
        (density_doc(solver={"gap_rtol": -1}), "gap_rtol must be a finite number >= 0"),
        (density_doc(solver={"x_resolution": 1}), "x_resolution must be >= 2, got 1"),
        (density_doc(solver={"slater_resolution": 0}), "slater_resolution must be >= 2"),
    ])
    def test_out_of_range_setting(self, doc, message):
        assert str(self.err(doc)).startswith(message)

    def test_grid_over_the_point_limit(self):
        # the loader accepted this grid, which every solve then rejected
        message = "grid of 400000000 points exceeds limit 100000000"
        for build in (grid_array, midpoint_grid):
            with pytest.raises(ValueError) as info:
                build(Box((0.0, 0.0), (1.0, 1.0)), 20000)
            assert str(info.value) == message
        square = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        doc = density_doc(inequality={"kernel": "1", "bound": "1", "box": square})
        e = self.err({**doc, "solver": {"y_resolution": 20000}})
        assert (e.field, str(e)) == ("solver.y_resolution", f"solver.y_resolution: {message}")
        # each resolution is checked against its own box: the domain is 1-D
        assert problem_from_document({**doc, "solver": {"x_resolution": 20000}}).config

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            load_problem(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_non_object_document(self):
        with pytest.raises(ProblemFormatError):
            problem_from_document([1, 2, 3])


class TestReportFiles:
    def make_moment_report(self):
        loaded = problem_from_document(moment_doc())
        config = SolverConfig(**loaded.solver)
        report = duality_report(loaded.problem, config)
        return report, loaded, config

    def test_moment_report_document(self, tmp_path):
        report, loaded, config = self.make_moment_report()
        doc = moment_report_document(report, loaded.name, config, {"total_seconds": 0.25})
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["kind"] == "moment"
        assert doc["status"] == ReportStatus.STRONG_DUALITY.value
        # the serialized gap always equals dual - primal of the serialized values
        assert doc["gap"] == doc["dual_value"] - doc["primal_value"]
        assert doc["solver"]["grid_resolution"] == 65
        assert doc["timings"] == {"total_seconds": 0.25}
        assert doc["has_mass_bound"] is True
        assert isinstance(doc["atoms"], list) and doc["atoms"]
        atom = doc["atoms"][0]
        assert set(atom) == {"point", "weight", "box"}

        path = tmp_path / "report.json"
        write_report(doc, path)
        assert load_report(path) == doc
        # identical writes are byte-identical
        path2 = tmp_path / "report2.json"
        write_report(doc, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_solver_block_echoes_every_config_field(self):
        report, loaded, config = self.make_moment_report()
        doc = moment_report_document(report, loaded.name, config, {})
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(doc["solver"]) == set(MOMENT_SOLVER_KEYS) == fields
        assert doc["solver"]["slater_resolution"] == 33

    def test_density_report_document(self, tmp_path):
        loaded = problem_from_document(density_doc())
        rep = collocation_report(loaded.problem, 8)
        slater = check_lp_slater(loaded.problem)
        doc = density_report_document(
            rep, loaded.name, loaded.problem.p, slater=slater, timings={"total_seconds": 0.1}
        )
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["kind"] == "lp_density"
        assert doc["gap"] == doc["dual_value"] - doc["primal_value"]
        assert doc["slater"]["margin"] == pytest.approx(0.5)
        assert (doc["solver"]["gap_rtol"], doc["solver"]["slater_resolution"]) == (1e-3, 33)
        path = tmp_path / "density_report.json"
        write_report(doc, path)
        assert load_report(path) == doc

    def test_infinite_margin_serializes_as_null(self):
        report, loaded, config = self.make_moment_report()
        # dual slater margins can hit the cap; the document stays finite or null
        doc = moment_report_document(report, loaded.name, config, {})
        text = canonical_json(doc)
        assert "Infinity" not in text and "NaN" not in text
