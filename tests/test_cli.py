"""End-to-end checks of the command-line interface against fixture files."""

from __future__ import annotations

import argparse
import inspect
import json
import tracemalloc
from pathlib import Path

import pytest

import measurelp.cli as cli
import measurelp.simplex as simplex
from measurelp import canonical_json, load_report
from measurelp.cli import run_cli
from measurelp.expressions import MAX_DEPTH
from measurelp.moment import WeakDualityError
from measurelp.simplex import NumericalFailure

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


class TestExitCodes:
    def test_solve_converged(self, capsys):
        assert run_cli(["solve", fixture("cauchy_schwarz.json")]) == 0
        out = capsys.readouterr().out
        assert "status: strong_duality_numerically" in out
        assert "gap (dual - primal):" in out

    def test_solve_piecewise(self, capsys):
        assert run_cli(["solve", fixture("piecewise.json")]) == 0
        assert "(moment)" in capsys.readouterr().out

    def test_solve_infeasible(self, capsys):
        assert run_cli(["solve", fixture("contradictory.json")]) == 3
        assert "primal_infeasible" in capsys.readouterr().out

    def test_infeasible_report_carries_the_ray(self, tmp_path, capsys):
        # the dual was capped multipliers, z = (1e8, -99999999); it is now the
        # unit Farkas ray, whose violation on the mesh drops h
        path = tmp_path / "report.json"
        assert run_cli(["solve", fixture("contradictory.json"), "--report", str(path)]) == 3
        doc = load_report(path)
        assert doc["dual"] == {"y": [], "z": [1.0, -1.0]}
        assert doc["max_dual_violation"] == 0.0 and doc["iterations"] == 1
        assert any(note.startswith("the dual is a ray") for note in doc["notes"])
        assert "note: the dual is a ray" in capsys.readouterr().out

    def test_infeasible_grid_with_a_feasible_exchange(self, tmp_path, capsys):
        # the grid primal at 2 points per axis is infeasible, the problem is not
        path = tmp_path / "report.json"
        assert run_cli(["solve", fixture("coarse_grid_feasible.json"), "--report", str(path)]) == 0
        doc = load_report(path)
        assert doc["status"] == "strong_duality_numerically"
        assert abs(doc["primal_value"] - 1.0) <= 1e-9
        assert "note: the grid primal is infeasible" in capsys.readouterr().out
        argv = ["solve", fixture("coarse_grid_feasible.json"), "--max-iters", "1"]
        assert run_cli(argv) == 2
        assert "status: not_converged" in capsys.readouterr().out

    def test_spike_is_a_gap_not_strong_duality(self, tmp_path, capsys):
        # no grid point reaches the 2e-5-wide spike, so the primal is 0; the
        # exact oracle cuts it off, so the dual is 1 and the gap remains
        # (the scan missed it, and this exited 0 at primal = dual = 0)
        path = tmp_path / "report.json"
        assert run_cli(["solve", fixture("spike.json"), "--report", str(path)]) == 2
        doc = load_report(path)
        assert doc["status"] == "gap_remains" and doc["dual_value"] >= 1.0 - 1e-6
        assert "status: gap_remains" in capsys.readouterr().out

    def test_barely_infeasible_exits_3(self, capsys):
        # mean 1 + 1e-4 on [0, 1]: the phase-1 verdict on the Slater margin
        # LP, scaled by its t <= 1e6 row, once stopped both commands with exit 2
        assert run_cli(["solve", fixture("barely_infeasible.json")]) == 3
        assert "status: primal_infeasible" in capsys.readouterr().out
        assert run_cli(["slater", fixture("barely_infeasible.json")]) == 3
        assert "primal margin: -inf (feasible: False)" in capsys.readouterr().out

    def test_solve_density_flat(self, capsys):
        assert run_cli(["solve", fixture("density_flat.json")]) == 0
        out = capsys.readouterr().out
        assert "(lp_density, p=2)" in out
        assert "status: strong_duality_numerically" in out

    def test_solve_density_concentration(self, capsys):
        assert run_cli(["solve", fixture("density_concentration.json")]) == 0
        out = capsys.readouterr().out
        assert "optimizer escapes the density class" in out

    def test_solve_density_2d_at_the_default_resolution(self, capsys):
        assert run_cli(["solve", fixture("density_gauss_2d.json")]) == 0
        out = capsys.readouterr().out
        assert "primal value (collocation 64)" in out
        assert "status: strong_duality_numerically" in out

    def test_solve_moment_square_2d_at_the_default_grid(self, capsys):
        # the square instance of the moment_2d benchmark, on 1025^2 grid points
        assert run_cli(["solve", fixture("moment_square_2d.json")]) == 0
        out = capsys.readouterr().out
        assert "primal value (grid 1025)" in out
        assert "status: strong_duality_numerically" in out

    def test_density_primal_and_dual_agree_with_solve_in_2d(self, capsys):
        # the dense dual LP of this file at 64 per axis took ~1 GB
        path = fixture("density_gauss_2d.json")
        assert run_cli(["solve", path]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        for argv, key in (
            (["primal", path, "--grid", "64"], "primal value (collocation 64)"),
            (["dual", path], "dual value (collocation)"),
        ):
            tracemalloc.start()
            try:
                code = run_cli(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and peak < 150e6
            out = capsys.readouterr().out
            assert f"collocation {argv[0]} (64 per axis): strong_duality_numerically" in out
            assert f"value: {lines[key]}\n" in out

    @pytest.mark.parametrize("argv", [
        ["solve"], ["primal", "--grid", "8"], ["dual"],
    ])
    def test_density_unbounded(self, capsys, argv):
        # solve said not_converged and exited 2, while primal and dual exited 3
        assert run_cli([argv[0], fixture("density_unbounded.json"), *argv[1:]]) == 3
        assert "primal_unbounded" in capsys.readouterr().out

    def test_dual_iteration_limited(self, capsys):
        code = run_cli(
            ["dual", fixture("cauchy_schwarz.json"), "--tol", "1e-12", "--max-iters", "1"]
        )
        assert code == 2
        assert "not_converged" in capsys.readouterr().out

    def test_primal_moment(self, capsys):
        assert run_cli(["primal", fixture("cauchy_schwarz.json"), "--grid", "129"]) == 0
        out = capsys.readouterr().out
        assert "value: 1" in out
        assert "atom: weight 1 at (1.0,)" in out

    def test_primal_moment_holds_no_grid_wide_master(self, monkeypatch, capsys):
        # the grid's 66,049 columns are a pool that the generation loop prices in
        widths = []
        real = simplex._Master.__init__

        def recorded(master, std, *args, **kwargs):
            widths.append(std.n_original)
            real(master, std, *args, **kwargs)

        monkeypatch.setattr(simplex._Master, "__init__", recorded)
        assert run_cli(["primal", fixture("moment_square_2d.json"), "--grid", "257"]) == 0
        assert "value: 0.34583675" in capsys.readouterr().out
        assert widths and max(widths) < 257 ** 2 // 100

    @pytest.mark.parametrize("name", [
        "barely_infeasible.json", "cauchy_schwarz.json", "contradictory.json",
        "moment_square_2d.json", "piecewise.json",
    ])
    def test_primal_prints_the_value_solve_prints(self, capsys, name):
        # both price the same grid in, from every moment fixture's own grid
        run_cli(["solve", fixture(name)])
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        key = next(k for k in lines if k.startswith("primal value (grid "))
        grid, value = key[len("primal value (grid "):-1], lines[key]
        code = run_cli(["primal", fixture(name), "--grid", grid])
        out = capsys.readouterr().out
        if value == "n/a":
            assert code == 3 and "value:" not in out
            assert f"grid primal ({grid} per axis): infeasible" in out
        else:
            assert code == 0 and f"value: {value}\n" in out

    def test_primal_density(self, capsys):
        assert run_cli(["primal", fixture("density_flat.json"), "--grid", "8"]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_dual_moment(self, capsys):
        assert run_cli(["dual", fixture("cauchy_schwarz.json"), "--tol", "1e-6"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_dual_density(self, capsys):
        assert run_cli(["dual", fixture("density_flat.json")]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_slater_moment(self, capsys):
        assert run_cli(["slater", fixture("cauchy_schwarz.json")]) == 0
        out = capsys.readouterr().out
        assert "primal margin:" in out
        assert "dual margin:" in out

    def test_slater_infeasible(self, capsys):
        assert run_cli(["slater", fixture("contradictory.json")]) == 3
        out = capsys.readouterr().out
        assert "feasible: False" in out
        assert "rank deficient" in out

    def test_slater_density(self, capsys):
        assert run_cli(["slater", fixture("density_flat.json")]) == 0
        assert "margin: 0.5" in capsys.readouterr().out

    def test_slater_negative_moment_margin(self, tmp_path, capsys):
        # 0 <= -1 holds for no measure: solve calls it infeasible, and so does slater
        doc = json.loads(Path(fixture("cauchy_schwarz.json")).read_text())
        doc["inequalities"] = [{"pieces": ["0"], "bound": -1.0}]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 3
        capsys.readouterr()
        assert run_cli(["slater", str(path)]) == 3
        out = capsys.readouterr().out
        assert "primal margin: -1 (feasible: True)" in out
        assert "note: no measure on the Slater grid meets the constraints" in out

    def test_slater_negative_density_margin(self, tmp_path, capsys):
        doc = json.loads(Path(fixture("density_flat.json")).read_text())
        doc["inequality"]["bound"] = "0 - 1"
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 3
        capsys.readouterr()
        assert run_cli(["slater", str(path)]) == 3
        out = capsys.readouterr().out
        assert "margin: -0.5 (feasible: True)" in out
        assert "note: no collocated density meets the constraints" in out

    def test_validate_good_files(self, capsys):
        assert run_cli(["validate", fixture("cauchy_schwarz.json")]) == 0
        assert "valid moment problem" in capsys.readouterr().out
        assert run_cli(["validate", fixture("density_flat.json")]) == 0
        assert "valid lp_density problem" in capsys.readouterr().out

    def test_option_bound(self, capsys):
        code = run_cli(
            [
                "option-bound",
                "--domain", "0", "4",
                "--forward", "1",
                "--payoff", "max(x1 - 2, 0)",
                "--direction", "sup",
                "--grid", "257",
                "--tol", "1e-6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certified bound: 0.5" in out


@pytest.mark.parametrize("error", [NumericalFailure, WeakDualityError])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("duality_report", ["solve", fixture("cauchy_schwarz.json")]),
        ("collocation_report", ["solve", fixture("density_flat.json")]),
    ],
)
def test_solver_failure_exits_not_converged(monkeypatch, capsys, error, name, argv):
    def fail(*args, **kwargs):
        raise error("pivoting went astray")

    monkeypatch.setattr(cli, name, fail)
    assert run_cli(argv) == cli.EXIT_NOT_CONVERGED == 2
    err = capsys.readouterr().err
    assert err == "solver stopped: pivoting went astray\n"
    assert "Traceback" not in err


def fixture_with_solver(tmp_path, name: str, **solver) -> str:
    """A copy of a fixture whose solver block is updated with ``solver``."""
    doc = json.loads(Path(fixture(name)).read_text())
    doc.setdefault("solver", {}).update(solver)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def deep_source(shape: str, count: int) -> str:
    """x1 in ``count`` pairs of parentheses, or x1 followed by ``count`` powers or sums.

    Each nests ``count + 1`` levels.
    """
    if shape == "parentheses":
        return "(" * count + "x1" + ")" * count
    return "x1" + ("^1" if shape == "powers" else "+x1") * count


def moment_with_objective(tmp_path, source: str) -> str:
    """A copy of the Cauchy-Schwarz fixture with ``source`` as its objective."""
    doc = json.loads(Path(fixture("cauchy_schwarz.json")).read_text())
    doc["objective"] = [source]
    path = tmp_path / "objective.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def spy(monkeypatch, name: str) -> list[dict]:
    """Record the arguments, by name, of every call the CLI makes to ``name``."""
    calls = []
    real = getattr(cli, name)
    signature = inspect.signature(real)

    def recorded(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return calls


class TestSolverBlock:
    def test_moment_config_applies_file_overrides(self):
        solver = {"grid_resolution": 65, "scan_resolution": 513}
        no_flags = argparse.Namespace(grid=None, tol=None, max_iters=None)
        config = cli._config(cli.SolverConfig(**solver), no_flags)
        assert (config.grid_resolution, config.scan_resolution) == (65, 513)
        assert config.tol == cli.SolverConfig().tol
        flags = argparse.Namespace(grid=33, tol=1e-4, max_iters=None)
        config = cli._config(cli.SolverConfig(**solver), flags)
        assert (config.grid_resolution, config.tol) == (33, 1e-4)

    def test_dual_tol_comes_from_the_file_or_the_default(self, tmp_path, monkeypatch, capsys):
        # --tol was required, so dual alone never read the file's tol
        calls = spy(monkeypatch, "exchange_solve")
        assert run_cli(["dual", fixture("cauchy_schwarz.json")]) == 0
        path = fixture_with_solver(tmp_path, "cauchy_schwarz.json", tol=1e-5)
        assert run_cli(["dual", path]) == 0
        assert [c["tol"] for c in calls] == [cli.SolverConfig().tol, 1e-5]

    def test_dual_honours_file_max_iters(self, tmp_path, capsys):
        path = fixture_with_solver(tmp_path, "cauchy_schwarz.json", max_iters=1)
        assert run_cli(["dual", path, "--tol", "1e-6"]) == 2
        assert "not_converged after 1 iteration(s)" in capsys.readouterr().out

    def test_slater_honours_file_block(self, monkeypatch, capsys):
        primal = spy(monkeypatch, "check_primal_slater")
        dual = spy(monkeypatch, "check_dual_slater")
        assert run_cli(["slater", fixture("cauchy_schwarz.json")]) == 0
        assert primal[0]["resolution"] == 65
        assert dual[0]["scan_resolution"] == 513

    def test_quad_resolution_rejected(self, tmp_path, capsys):
        path = fixture_with_solver(tmp_path, "density_flat.json", quad_resolution=32)
        assert run_cli(["solve", path]) == 4
        assert "solver.quad_resolution" in capsys.readouterr().err

    def test_density_slater_resolution(self, tmp_path, monkeypatch, capsys):
        calls = spy(monkeypatch, "check_lp_slater")
        path = fixture_with_solver(tmp_path, "density_flat.json", slater_resolution=5)
        assert run_cli(["solve", path]) == 0
        assert run_cli(["slater", path]) == 0
        assert [c["x_resolution"] for c in calls] == [5, 5]
        # without the key, both commands use the collocation resolution
        doc = json.loads(Path(path).read_text())
        del doc["solver"]["slater_resolution"]
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", path]) == 0
        assert run_cli(["slater", path]) == 0
        assert [c["x_resolution"] for c in calls[2:]] == [16, 16]

    def test_density_slater_and_solve_report_agree(self, tmp_path, capsys):
        doc = json.loads(Path(fixture("density_concentration.json")).read_text())
        del doc["solver"]["slater_resolution"]
        path, report = tmp_path / "problem.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["solve", str(path), "--report", str(report)]) == 0
        capsys.readouterr()
        assert run_cli(["slater", str(path)]) == 0
        assert "equality rank: 1 of 16" in capsys.readouterr().out
        doc = load_report(report)
        assert (doc["slater"]["equality_rank"], doc["slater"]["n_equality_rows"]) == (1, 16)
        assert (doc["solver"]["slater_resolution"], doc["solver"]["gap_rtol"]) == (16, 1e-3)

    def test_density_primal_honours_file_resolutions(self, tmp_path, monkeypatch, capsys):
        calls = spy(monkeypatch, "collocation_report")
        path = fixture_with_solver(tmp_path, "density_flat.json", y_resolution=5)
        assert run_cli(["primal", path, "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "collocation primal (8 per axis): strong_duality_numerically" in out
        assert (calls[0]["x_resolution"], calls[0]["y_resolution"]) == (8, 5)

    def test_density_dual_x_resolution(self, tmp_path, capsys):
        path = fixture_with_solver(tmp_path, "density_flat.json", x_resolution=8)
        assert run_cli(["dual", path]) == 0
        assert "collocation dual (8 per axis)" in capsys.readouterr().out
        doc = json.loads(Path(path).read_text())
        del doc["solver"]["x_resolution"]
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["dual", path]) == 0
        assert "collocation dual (64 per axis)" in capsys.readouterr().out


MOMENT_BYTES = (
    "grid of 100000000 points needs 3200000000 bytes, over the limit 1073741824; "
    "lower the grid resolution"
)
RANK_BYTES = (
    "the equality rank table at x_resolution 1000000 and z_resolution 1000000 needs "
    "8000000000000 bytes, over the limit 1073741824; lower the resolutions"
)


class TestInvalidSettings:
    """An out-of-range setting exits 4 before any solve, naming the key."""

    def test_tol_flag_nan(self, capsys):
        # this ran 200 iterations and exited 2
        assert run_cli(["solve", fixture("cauchy_schwarz.json"), "--tol", "nan"]) == 4
        assert "input error: tol must be a finite number >= 0, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("tol", -1),
        ("tol", float("inf")),  # written as Infinity; it certified from the first master
        ("gap_rtol", float("nan")),
        ("max_iters", 0),
        ("verification_factor", 0),  # failed only after the solve, without the key
        ("refine_steps", -3),  # quietly meant 0
        ("grid_resolution", 1),  # these three named no key; slater_resolution
        ("scan_resolution", 1),  # failed only after the exchange had run
        ("slater_resolution", 1),
    ])
    def test_moment_solver_key(self, tmp_path, monkeypatch, capsys, key, value):
        calls = spy(monkeypatch, "duality_report")
        path = fixture_with_solver(tmp_path, "cauchy_schwarz.json", **{key: value})
        for command in ("solve", "validate"):  # validate exited 0 on each
            assert run_cli([command, path]) == 4
            assert f"input error: {key} must be" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["solve", "slater", "validate"])
    @pytest.mark.parametrize("key, value", [
        ("slater_resolution", 1),  # the slater command gave a margin and exited 0
        ("slater_resolution", 0),
        ("x_resolution", 1),  # slater and validate exited 0
    ])
    def test_density_solver_key(self, tmp_path, monkeypatch, capsys, command, key, value):
        slater, report = spy(monkeypatch, "check_lp_slater"), spy(monkeypatch, "collocation_report")
        path = fixture_with_solver(tmp_path, "density_flat.json", **{key: value})
        assert run_cli([command, path]) == 4
        assert f"input error: {key} must be" in capsys.readouterr().err
        assert slater == [] and report == []

    @pytest.mark.parametrize("argv, solver", [
        (["solve", fixture("piecewise.json")], "duality_report"),
        (["primal", fixture("piecewise.json")], "solve_grid_primal"),
        (["option-bound", "--domain", "0", "4", "--forward", "1",
          "--payoff", "max(x1 - 2, 0)", "--direction", "sup"], "solve_option_bound"),
    ])
    def test_grid_flag_below_two(self, monkeypatch, capsys, argv, solver):
        calls = spy(monkeypatch, solver)
        assert run_cli(argv + ["--grid", "1"]) == 4
        assert "input error: grid_resolution must be >= 2 per axis" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command, flags", [
        ("solve", []), ("primal", ["--grid", "8"]), ("dual", []), ("slater", []),
        ("validate", []),  # exited 0
    ])
    def test_density_gap_rtol(self, tmp_path, capsys, command, flags):
        path = fixture_with_solver(tmp_path, "density_flat.json", gap_rtol=-1e-3)
        assert run_cli([command, path, *flags]) == 4
        assert "input error: gap_rtol must be a finite number >= 0" in capsys.readouterr().err


    @pytest.mark.parametrize("name, key, points", [
        # validate exited 0 on each, and solve named no key
        ("cauchy_schwarz.json", "grid_resolution", 10**9),
        ("cauchy_schwarz.json", "scan_resolution", 10**9),
        ("cauchy_schwarz.json", "slater_resolution", 10**9),
        ("density_gauss_2d.json", "x_resolution", 20000**2),
        ("density_gauss_2d.json", "slater_resolution", 20000**2),
        ("density_gauss_2d.json", "y_resolution", 20000**2),
        ("density_concentration.json", "z_resolution", 10**9),
    ])
    def test_grid_over_the_point_limit(self, tmp_path, monkeypatch, capsys, name, key, points):
        solvers = [spy(monkeypatch, s) for s in ("duality_report", "collocation_report")]
        value = 20000 if "2d" in name else points
        path = fixture_with_solver(tmp_path, name, **{key: value})
        for command in ("validate", "solve"):
            assert run_cli([command, path]) == 4
            message = f"solver.{key}: grid of {points} points exceeds limit 100000000"
            assert capsys.readouterr().err == f"input error: {message}\n"
        assert solvers == [[], []]

    @pytest.mark.parametrize("argv, message", [
        ([
            "option-bound", "--domain", "0", "4", "--forward", "1",
            "--payoff", "max(x1 - 1, 0)", "--direction", "sup", "--grid", "100000000",
        ], MOMENT_BYTES),
        (["solve", fixture("oversize_moment_grid.json")], MOMENT_BYTES),
        # validate exited 0 on both files; slater and solve on the density
        # file exited 1 with a traceback, allocating a 7.28 TiB rank table
        (["validate", fixture("oversize_moment_grid.json")], MOMENT_BYTES),
        *[([command, fixture("oversize_density_rank.json")], RANK_BYTES)
          for command in ("validate", "slater", "solve")],
    ], ids=[
        "option-bound", "solve-moment", "validate-moment",
        "validate-density", "slater-density", "solve-density",
    ])
    def test_grid_over_the_byte_limit(self, capsys, argv, message):
        # 10^8 points pass the point limit, but their table of two moments
        # and h would take 3.2 GB: the grid is rejected before it is built,
        # as is the density Slater check's 8 TB equality rank table
        tracemalloc.start()
        try:
            code = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4 and peak < 50e6
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_verification_scan_over_the_byte_limit(self, tmp_path, monkeypatch, capsys):
        # 10^7 scan points fit, but not the verification scan's 4 x 10^7;
        # validate exited 0
        calls = spy(monkeypatch, "duality_report")
        path = fixture_with_solver(tmp_path, "cauchy_schwarz.json", scan_resolution=10**7)
        message = (
            "the verification scan's grid of 40000000 points needs 1280000000 bytes, "
            "over the limit 1073741824; lower the grid resolution"
        )
        for command in ("validate", "solve"):
            assert run_cli([command, path]) == 4
            assert capsys.readouterr().err == f"input error: {message}\n"
        assert calls == []

    @pytest.mark.parametrize("name, key, value, grid, points", [
        # validate exited 0, and solve exited 4 after the exchange naming no key
        ("cauchy_schwarz.json", "verification_factor", 300000, "verification scan", 513 * 300000),
        ("cauchy_schwarz.json", "scan_resolution", 3 * 10**7, "verification scan", 12 * 10**7),
        ("density_flat.json", "x_resolution", 6 * 10**7, "refinement", 12 * 10**7),
    ])
    def test_derived_grid_over_the_point_limit(
        self, tmp_path, monkeypatch, capsys, name, key, value, grid, points
    ):
        solvers = [spy(monkeypatch, s) for s in ("duality_report", "collocation_report")]
        path = fixture_with_solver(tmp_path, name, **{key: value})
        for command in ("validate", "solve"):
            assert run_cli([command, path]) == 4
            message = f"solver.{key}: the {grid}'s grid of {points} points exceeds limit 100000000"
            assert capsys.readouterr().err == f"input error: {message}\n"
        assert solvers == [[], []]

    @pytest.mark.parametrize("command", [["solve"], ["primal", "--grid", "8"], ["dual"], ["slater"]])
    @pytest.mark.parametrize("field, source, name", [
        ("objective", "1e300*x1*1e300", "the objective"),
        # slater printed a capped margin and exited 0; solve named nothing
        ("bound", "1 + 1e300*y1*1e300", "the inequality bound"),
        ("kernel", "1e300*x1*1e300", "the inequality kernel"),
    ])
    def test_density_non_finite_value(self, tmp_path, capsys, command, field, source, name):
        doc = json.loads(Path(fixture("density_flat.json")).read_text())
        if field == "objective":
            doc["objective"] = source
        else:
            doc["inequality"][field] = source
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        if command == ["slater"] and field == "objective":  # the margin values no objective
            assert code == 0
        else:
            assert (code, err) == (4, f"input error: non-finite function value in {name}\n")

    @pytest.mark.parametrize("command", ["solve", "dual", "slater"])
    @pytest.mark.parametrize("field, name", [
        ("objective", "the objective"), ("kernel", "the inequality kernel"),
    ])
    def test_density_overflow_times_the_cell_volume(self, tmp_path, capsys, command, field, name):
        # 1e308 is finite, but not once multiplied by a cell width of 2: solve
        # warned of an overflow in multiply and named no expression
        doc = json.loads(Path(fixture("density_flat.json")).read_text())
        doc["domain"] = {"lower": [0.0], "upper": [4.0]}
        doc["solver"] = {"x_resolution": 2}
        if field == "objective":
            doc["objective"] = "1e308"
        else:
            doc["inequality"]["kernel"] = "1e308"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli([command, str(path)])
        err = capsys.readouterr().err
        if command == "slater" and field == "objective":  # the margin values no objective
            assert code == 0
        else:
            message = f"non-finite function value in {name} times the cell volume"
            assert (code, err) == (4, f"input error: {message}\n")

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        # exited 1 with an OverflowError traceback
        path = fixture_with_solver(tmp_path, "cauchy_schwarz.json", tol=10**400)
        assert run_cli(["validate", path]) == 4
        assert "input error: solver.tol: number too large" in capsys.readouterr().err


MOMENT, DENSITY = fixture("cauchy_schwarz.json"), fixture("density_flat.json")
OPTION_BOUND = [
    "option-bound", "--domain", "0", "4", "--forward", "1",
    "--payoff", "max(x1 - 2, 0)", "--direction", "sup",
]


def config_field(name: str):
    return lambda call: getattr(call["config"], name)


class TestFlags:
    """Every flag a subcommand accepts reaches the solver, or exits 4 naming it."""

    @pytest.mark.parametrize("argv, flag, value, solver, read", [
        (["solve", MOMENT], "--grid", 65, "duality_report", config_field("grid_resolution")),
        (["solve", MOMENT], "--tol", 1e-5, "duality_report", config_field("tol")),
        (["solve", MOMENT], "--max-iters", 50, "duality_report", config_field("max_iters")),
        (["primal", MOMENT], "--grid", 65, "solve_grid_primal", lambda c: c["resolution"]),
        (["dual", MOMENT], "--tol", 1e-5, "exchange_solve", lambda c: c["tol"]),
        (["dual", MOMENT], "--max-iters", 50, "exchange_solve", lambda c: c["max_iters"]),
        (OPTION_BOUND, "--grid", 65, "solve_option_bound", config_field("grid_resolution")),
        (OPTION_BOUND, "--tol", 1e-5, "solve_option_bound", config_field("tol")),
        (OPTION_BOUND, "--max-iters", 50, "solve_option_bound", config_field("max_iters")),
        (["solve", DENSITY], "--grid", 8, "collocation_report", lambda c: c["x_resolution"]),
        (["primal", DENSITY], "--grid", 8, "collocation_report", lambda c: c["x_resolution"]),
    ])
    def test_flag_reaches_the_solver(self, monkeypatch, capsys, argv, flag, value, solver, read):
        calls = spy(monkeypatch, solver)
        assert run_cli([*argv, flag, str(value)]) != 4
        assert [read(call) for call in calls] == [value]

    @pytest.mark.parametrize("argv, flag", [
        (["solve", DENSITY, "--tol", "1e-6"], "--tol"),
        (["solve", DENSITY, "--max-iters", "50"], "--max-iters"),
        (["dual", DENSITY, "--tol", "1e-6"], "--tol"),
        (["dual", DENSITY, "--max-iters", "50"], "--max-iters"),
        (["dual", DENSITY, "--tol", "nan", "--max-iters", "0"], "--tol"),  # printed value: 1
    ])
    def test_density_flag_without_a_setting(self, monkeypatch, capsys, argv, flag):
        report, slater = spy(monkeypatch, "collocation_report"), spy(monkeypatch, "check_lp_slater")
        assert run_cli(argv) == 4
        assert f"input error: {flag} has no lp_density setting" in capsys.readouterr().err
        assert report == [] and slater == []


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_PARSER", None)
        builds = spy(monkeypatch, "build_parser")
        assert run_cli(["validate", fixture("cauchy_schwarz.json")]) == 0
        assert run_cli(["validate", fixture("density_flat.json")]) == 0
        assert len(builds) == 1

    def test_quotes_do_not_leak_into_the_next_run(self, monkeypatch, capsys):
        calls = spy(monkeypatch, "solve_option_bound")
        argv = [
            "option-bound", "--domain", "0", "4", "--forward", "1",
            "--payoff", "max(x1 - 2, 0)", "--direction", "sup", "--grid", "65",
        ]
        assert run_cli(argv + ["--quote", "1", "0.4"]) == 0
        run_cli(argv)
        assert [c["vanilla_quotes"] for c in calls] == [[(1.0, 0.4)], []]


class TestValidationDiagnostics:
    def test_overlap_names_the_boxes(self, capsys):
        assert run_cli(["validate", fixture("overlapping.json")]) == 4
        err = capsys.readouterr().err
        assert "boxes 0 and 1 overlap" in err
        assert "lies in 2 boxes" in err

    def test_volume_deficit_reports_volumes(self, capsys):
        assert run_cli(["validate", fixture("volume_deficit.json")]) == 4
        err = capsys.readouterr().err
        assert "volume deficit" in err
        assert "boxes sum to 1.0, hull volume is 2.0" in err
        assert "lies in 0 boxes" in err

    def test_thin_gap_rejected(self, capsys):
        assert run_cli(["validate", fixture("thin_gap.json")]) == 4
        err = capsys.readouterr().err
        assert "volume deficit" in err
        assert "hull point (0.30000000000005, 0.5) lies in 0 boxes" in err

    def test_oversize_grid_rejected(self, capsys):
        assert run_cli(["validate", fixture("oversize_grid.json")]) == 4
        assert "solver.x_resolution: grid of 400000000 points" in capsys.readouterr().err

    def test_non_finite_bound_rejected(self, capsys):
        assert run_cli(["slater", fixture("density_nonfinite.json")]) == 4
        assert "non-finite function value in the inequality bound" in capsys.readouterr().err

    def test_bad_expression_reports_offset(self, capsys):
        assert run_cli(["validate", fixture("bad_expression.json")]) == 4
        err = capsys.readouterr().err
        assert "objective[0]" in err
        assert "byte offset" in err

    @pytest.mark.parametrize("command", [["validate"], ["solve", "--grid", "9"]])
    @pytest.mark.parametrize("shape, count, offset", [
        ("parentheses", 3000, 100), ("powers", 3000, 201), ("sum", 19999, 299),
    ])
    def test_over_deep_expression_rejected(self, tmp_path, capsys, command, shape, count, offset):
        # each exited 1 with a RecursionError, the sum from solve alone
        if shape == "parentheses":
            path = fixture("deep_expression.json")
        else:
            path = moment_with_objective(tmp_path, deep_source(shape, count))
        assert run_cli(command[:1] + [path] + command[1:]) == 4
        message = f"objective[0]: expression nested deeper than {MAX_DEPTH} levels"
        assert capsys.readouterr().err == f"input error: {message} (byte offset {offset})\n"

    @pytest.mark.parametrize("shape, value", [("parentheses", 1.0), ("powers", 1.0), ("sum", 100.0)])
    def test_expression_at_the_depth_limit_solves(self, tmp_path, capsys, shape, value):
        path = moment_with_objective(tmp_path, deep_source(shape, MAX_DEPTH - 1))
        report = tmp_path / "report.json"
        assert run_cli(["solve", path, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["status"] == "strong_duality_numerically"
        assert doc["dual_value"] == pytest.approx(value, rel=1e-4)

    def test_missing_file(self, capsys):
        assert run_cli(["validate", fixture("no_such_file.json")]) == 4
        assert "input error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli(["validate", str(path)]) == 4
        assert "input error" in capsys.readouterr().err

    def test_unknown_solver_key(self, tmp_path, capsys):
        doc = json.loads(Path(fixture("cauchy_schwarz.json")).read_text())
        doc["solver"] = {"bogus": 3}
        path = tmp_path / "bad_solver.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["validate", str(path)]) == 4
        assert "solver.bogus" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 4

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 4

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "solve" in capsys.readouterr().out


class TestReports:
    def strip_timings(self, path: Path) -> tuple[str, dict]:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("timings")
        return canonical_json(doc), doc

    def test_solve_report_is_byte_stable(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = run_cli(["solve", fixture("cauchy_schwarz.json"), "--report", str(path)])
            assert code == 0
        first, doc = self.strip_timings(paths[0])
        second, _ = self.strip_timings(paths[1])
        assert first == second
        assert doc["kind"] == "moment"
        assert doc["format_version"] == "1"
        assert doc["status"] == "strong_duality_numerically"
        assert doc["gap"] == doc["dual_value"] - doc["primal_value"]

    def test_density_report_is_byte_stable(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = run_cli(["solve", fixture("density_flat.json"), "--report", str(path)])
            assert code == 0
        first, doc = self.strip_timings(paths[0])
        second, _ = self.strip_timings(paths[1])
        assert first == second
        assert doc["kind"] == "lp_density"
        assert doc["slater"]["margin"] == pytest.approx(0.5, abs=1e-9)

    def test_report_round_trips_through_loader(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        run_cli(["solve", fixture("piecewise.json"), "--report", str(path)])
        doc = load_report(path)
        assert doc["kind"] == "moment"
        assert doc["primal_value"] == pytest.approx(1.0, abs=1e-6)
        assert "total_seconds" in doc["timings"]

    def test_option_bound_report(self, tmp_path, capsys):
        path = tmp_path / "option.json"
        code = run_cli(
            [
                "option-bound",
                "--domain", "0", "4",
                "--forward", "1",
                "--quote", "1", "0.4",
                "--payoff", "max(x1 - 2, 0)",
                "--direction", "sup",
                "--grid", "513",
                "--tol", "1e-6",
                "--report", str(path),
            ]
        )
        assert code == 0
        doc = load_report(path)
        assert doc["status"] == "strong_duality_numerically"
        assert doc["dual_value"] == pytest.approx(4.0 / 15.0, abs=1e-3)
