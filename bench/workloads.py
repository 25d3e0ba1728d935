"""Seeded workloads: the inputs, the timed call and the output checks.

Each workload turns ``--seed`` into a pool of cases with its own generator
(the test suite's generators are not imported), runs one case per timed
call, and checks the output after the timer has stopped.  Every constructed
moment case is feasible around a known atomic measure, whose value is
computed here with numpy.  That value is a lower bound on the supremum that
the grid primal (when the atoms lie on its grid) and the certified dual must
both respect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import measurelp.cli
from measurelp import (
    Box,
    LpDensityProblem,
    MomentProblem,
    NumericalFailure,
    Partition,
    PiecewiseFunction,
    density,
    moment,
    parse_expression,
)

import checks

CLI_TOL = 1e-6          # SolverConfig's default tol, used by every CLI moment case
EXCHANGE_TOL = 1e-9     # exchange_1d runs the exchange loop this tight
DEFAULT_GRID = 1025     # SolverConfig's default grid, used by the CLI cases
GAP_RTOL = 1e-3         # default gap_rtol of both report kinds


# ---------------------------------------------------------------------------
# functions with an independent numpy evaluator


@dataclass(frozen=True)
class Fn:
    """An expression source plus a numpy evaluator of the same function."""

    src: str
    f: Callable[[np.ndarray], np.ndarray]  # points (k, dim) -> values (k,)


def _poly(rng: np.random.Generator, degree: int) -> Fn:
    """Random polynomial in x1 with coefficients in [-1, 1] and degree <= ``degree``."""
    coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, degree + 1)]
    monomials = ["", "x1"] + [f"x1^{k}" for k in range(2, degree + 1)]
    return Fn(
        _signed(list(zip(coeffs, monomials))),
        lambda pts: np.polynomial.polynomial.polyval(pts[:, 0], coeffs),
    )


def _const(value: float) -> Fn:
    return Fn(repr(float(value)), lambda pts: np.full(len(pts), float(value)))


def _coord(j: int) -> Fn:
    return Fn(f"x{j + 1}", lambda pts: pts[:, j].copy())


def _call(strike: float) -> Fn:
    return Fn(f"max(x1 - {strike!r}, 0)", lambda pts: np.maximum(pts[:, 0] - strike, 0.0))


def _put(strike: float) -> Fn:
    return Fn(f"max({strike!r} - x1, 0)", lambda pts: np.maximum(strike - pts[:, 0], 0.0))


def _spread(k1: float, k2: float) -> Fn:
    return Fn(
        f"min(max(x1 - {k1!r}, 0), {k2 - k1!r})",
        lambda pts: np.minimum(np.maximum(pts[:, 0] - k1, 0.0), k2 - k1),
    )


def _spike(center: float) -> Fn:
    """ROADMAP item 2: a spike of half-width 1e-5, narrower than any mesh step.

    The seed certifies a wrong value for it, and cli_1d keeps it in the
    stream so that the defect shows in failed_frac until it is fixed.
    """
    return Fn(
        f"max(0, 1 - 100000*abs(x1 - {center!r}))",
        lambda pts: np.maximum(0.0, 1.0 - 100000.0 * np.abs(pts[:, 0] - center)),
    )


def _negated(fn: Fn) -> Fn:
    return Fn(f"-({fn.src})", lambda pts: -fn.f(pts))


# ---------------------------------------------------------------------------
# moment cases


@dataclass
class MomentCase:
    """A moment problem with one source per box and a known feasible measure.

    ``known_value`` is ∫h over the known measure (atoms), evaluated with
    numpy.  ``atoms_on_grid`` says whether the atoms lie on the grid primal's
    grid, so that the primal itself must reach that value.
    """

    label: str
    boxes: list[tuple[tuple[float, ...], tuple[float, ...]]]
    objective: list[Fn]
    inequalities: list[tuple[list[Fn], float]]
    equalities: list[tuple[list[Fn], float]]
    known_value: float
    atoms_on_grid: bool

    @property
    def dim(self) -> int:
        return len(self.boxes[0][0])

    @property
    def hull(self) -> tuple[list[float], list[float]]:
        lower = [min(b[0][j] for b in self.boxes) for j in range(self.dim)]
        upper = [max(b[1][j] for b in self.boxes) for j in range(self.dim)]
        return lower, upper

    def document(self) -> dict:
        """The problem-file form read by ``measurelp solve``."""
        lower, upper = self.hull
        return {
            "format_version": "1",
            "kind": "moment",
            "name": self.label,
            "dimension": self.dim,
            "hull": {"lower": lower, "upper": upper},
            "boxes": [{"lower": list(lo), "upper": list(hi)} for lo, hi in self.boxes],
            "objective": [fn.src for fn in self.objective],
            "inequalities": [
                {"pieces": [fn.src for fn in fns], "bound": b} for fns, b in self.inequalities
            ],
            "equalities": [
                {"pieces": [fn.src for fn in fns], "bound": b} for fns, b in self.equalities
            ],
        }

    @functools.cached_property
    def problem(self) -> MomentProblem:
        """The same problem built through the library API (no file, no validation)."""
        partition = Partition(tuple(Box(tuple(lo), tuple(hi)) for lo, hi in self.boxes))

        def pw(fns: list[Fn]) -> PiecewiseFunction:
            return PiecewiseFunction(
                partition, tuple(parse_expression(fn.src, self.dim) for fn in fns)
            )

        lower, upper = self.hull
        return MomentProblem(
            domain=partition,
            hull=Box(tuple(lower), tuple(upper)),
            objective=pw(self.objective),
            inequalities=tuple((pw(fns), b) for fns, b in self.inequalities),
            equalities=tuple((pw(fns), b) for fns, b in self.equalities),
            name=self.label,
        )


def _integrate(fns: list[Fn], atoms) -> float:
    """∫ fn over the atoms [(box, point, weight)], each with its own box's piece."""
    return float(
        sum(w * fns[i].f(np.asarray([pt]))[0] for i, pt, w in atoms)
    )


def _edges(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n boxes on [lo, hi]: even spacing, interior edges jittered by 20 %."""
    edges = np.linspace(lo, hi, n + 1)
    step = (hi - lo) / n
    edges[1:-1] += rng.uniform(-0.2 * step, 0.2 * step, n - 1)
    return edges


def _atoms(rng, boxes, resolution: int, count: int):
    """``count`` atoms on the closed per-box grids, weights summing to 1."""
    atoms = []
    weights = rng.uniform(0.2, 1.0, count)
    weights = weights / weights.sum()
    for w in weights:
        i = int(rng.integers(len(boxes)))
        lo, hi = boxes[i]
        pt = tuple(
            float(np.linspace(l, u, resolution)[rng.integers(resolution)])
            for l, u in zip(lo, hi)
        )
        atoms.append((i, pt, float(w)))
    return atoms


def _interval_case(rng, label: str, resolution: int, slot: int) -> MomentCase:
    """Random 1-D polynomial moment problem, feasible around atoms on the grid.

    ``slot`` fixes the shape and the seed only the numbers, so a pool's cost
    mix is the same for every seed: slots cycle through 1-3 boxes, one or
    two inequalities, and with or without a second equality.  Total mass is
    pinned to 1, so the certified dual converts a dual tolerance into a
    value bound.  Inequality bounds sit 0.1-1.0 above the atoms' moments;
    the second equality pins one more moment exactly.
    """
    n = 1 + slot % 3
    lo, hi = float(rng.uniform(-2.0, 0.0)), float(rng.uniform(1.0, 3.0))
    edges = _edges(rng, lo, hi, n)
    boxes = [((float(a),), (float(b),)) for a, b in zip(edges[:-1], edges[1:])]
    atoms = _atoms(rng, boxes, resolution, int(rng.integers(1, 4)))

    def pieces() -> list[Fn]:
        return [_poly(rng, 4) for _ in range(n)]

    objective = pieces()
    equalities = [([_const(1.0)] * n, 1.0)]
    if slot // 6 % 2:
        fns = pieces()
        equalities.append((fns, _integrate(fns, atoms)))
    inequalities = []
    for _ in range(1 + slot // 3 % 2):
        fns = pieces()
        inequalities.append((fns, _integrate(fns, atoms) + float(rng.uniform(0.1, 1.0))))
    return MomentCase(
        label=label,
        boxes=boxes,
        objective=objective,
        inequalities=inequalities,
        equalities=equalities,
        known_value=_integrate(objective, atoms),
        atoms_on_grid=True,
    )


def _square_case(rng, label: str, resolution: int) -> MomentCase:
    """ROADMAP's 2-D instance on [0, 1]^2, with random coefficients.

    sup ∫ a x1 x2 + b x1 + c x2 subject to unit mass, the mean of x1 pinned
    to the atoms' mean, and x1^2 + x2^2 bounded a little above the atoms'
    second moment.  The fixed shape keeps the cost per problem nearly the
    same from seed to seed.
    """
    boxes = [((0.0, 0.0), (1.0, 1.0))]
    atoms = _atoms(rng, boxes, resolution, int(rng.integers(1, 4)))
    a = float(rng.uniform(0.5, 1.0))
    b, c = (float(v) for v in rng.uniform(-0.2, 0.2, 2))
    objective = Fn(
        _signed([(a, "x1*x2"), (b, "x1"), (c, "x2")]),
        lambda pts: a * pts[:, 0] * pts[:, 1] + b * pts[:, 0] + c * pts[:, 1],
    )
    radius = Fn("x1^2 + x2^2", lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2)
    return MomentCase(
        label=label,
        boxes=boxes,
        objective=[objective],
        inequalities=[([radius], _integrate([radius], atoms) + float(rng.uniform(0.1, 0.5)))],
        equalities=[([_const(1.0)], 1.0), ([_coord(0)], _integrate([_coord(0)], atoms))],
        known_value=_integrate([objective], atoms),
        atoms_on_grid=True,
    )


def _spike_case() -> MomentCase:
    """ROADMAP item 2's reproduction: one atom at the spike gives value 1."""
    return MomentCase(
        label="spike-moment",
        boxes=[((0.0,), (1.0,))],
        objective=[_spike(0.300049)],
        inequalities=[],
        equalities=[([_const(1.0)], 1.0)],
        known_value=1.0,
        atoms_on_grid=False,
    )


def _cauchy_schwarz_case() -> MomentCase:
    """sup E[x] with E[1] = E[x^2] = 1 on [-2, 2]: value 1 (atom at 1)."""
    return MomentCase(
        label="cauchy-schwarz",
        boxes=[((-2.0,), (2.0,))],
        objective=[_coord(0)],
        inequalities=[],
        equalities=[([_const(1.0)], 1.0), ([Fn("x1^2", lambda p: p[:, 0] ** 2)], 1.0)],
        known_value=1.0,
        atoms_on_grid=True,
    )


# ---------------------------------------------------------------------------
# option-bound cases (CLI only)


@dataclass
class OptionCase:
    """``measurelp option-bound`` arguments plus the sup-form moment case."""

    argv: list[str]
    case: MomentCase


def _option_case(rng, label: str) -> OptionCase:
    """Forward and call quotes priced under atoms on the default grid.

    Strikes sit on grid points so the payoff's kinks are on the grid.
    """
    hi = float(rng.choice([3.0, 4.0, 5.0]))
    grid = np.linspace(0.0, hi, DEFAULT_GRID)
    atoms = _atoms(rng, [((0.0,), (hi,))], DEFAULT_GRID, int(rng.integers(2, 4)))
    forward = sum(w * pt[0] for _, pt, w in atoms)
    if forward <= 0.0:  # every atom at 0: move one to the top of the domain
        atoms[0] = (0, (hi,), atoms[0][2])
        forward = sum(w * pt[0] for _, pt, w in atoms)
    strikes = sorted(
        float(grid[k]) for k in rng.choice(np.arange(64, DEFAULT_GRID - 64), 3, replace=False)
    )
    quotes = [(k, _integrate([_call(k)], atoms)) for k in strikes[: int(rng.integers(0, 3))]]
    kind = int(rng.integers(3))
    payoff = (
        _call(strikes[2]) if kind == 0
        else _put(strikes[1]) if kind == 1
        else _spread(strikes[0], strikes[2])
    )
    direction = "sup" if rng.random() < 0.5 else "inf"
    argv = ["option-bound", "--domain", "0", repr(hi), "--forward", repr(forward)]
    for k, price in quotes:
        argv += ["--quote", repr(k), repr(price)]
    argv += ["--payoff", payoff.src, "--direction", direction]
    return OptionCase(argv, _option_moment_case(label, hi, forward, quotes, payoff, direction, atoms))


def _option_moment_case(label, hi, forward, quotes, payoff, direction, atoms, on_grid=True):
    objective = payoff if direction == "sup" else _negated(payoff)
    equalities = [([_const(1.0)], 1.0), ([_coord(0)], forward)]
    equalities += [([_call(k)], price) for k, price in quotes]
    return MomentCase(
        label=label,
        boxes=[((0.0,), (hi,))],
        objective=[objective],
        inequalities=[],
        equalities=equalities,
        known_value=_integrate([objective], atoms),
        atoms_on_grid=on_grid,
    )


def _spike_option_case() -> OptionCase:
    """ROADMAP item 2's option form: ≈ 0.909 is attainable, the seed certifies 0."""
    center, hi, forward = 0.700049, 4.0, 1.0
    w = (hi - forward) / (hi - center)  # atoms at center and hi with mean 1
    atoms = [(0, (center,), w), (0, (hi,), 1.0 - w)]
    payoff = _spike(center)
    argv = [
        "option-bound", "--domain", "0", repr(hi), "--forward", repr(forward),
        "--payoff", payoff.src, "--direction", "sup",
    ]
    return OptionCase(
        argv, _option_moment_case("spike-option", hi, forward, [], payoff, "sup", atoms, False)
    )


# ---------------------------------------------------------------------------
# density cases


@dataclass
class DensityCase:
    """An lp_density problem; ``anchor`` is its analytic collocation value."""

    label: str
    doc: dict
    x_resolution: int
    anchor: float | None = None
    problem: LpDensityProblem = field(init=False, repr=False)

    def __post_init__(self):
        self.problem = _density_problem(self.doc)


def _density_problem(doc: dict) -> LpDensityProblem:
    domain = Box(tuple(doc["domain"]["lower"]), tuple(doc["domain"]["upper"]))
    n = domain.dim
    kwargs = {}
    for key, prefix, names in (
        ("inequality", "y", ("kernel_a", "bound_a", "ineq_domain")),
        ("equality", "z", ("kernel_b", "bound_b", "eq_domain")),
    ):
        if key not in doc:
            continue
        fam = doc[key]
        box = Box(tuple(fam["box"]["lower"]), tuple(fam["box"]["upper"]))
        kwargs[names[0]] = parse_expression(fam["kernel"], box.dim + n, ((prefix, box.dim), ("x", n)))
        kwargs[names[1]] = parse_expression(fam["bound"], box.dim, ((prefix, box.dim),))
        kwargs[names[2]] = box
    return LpDensityProblem(
        domain=domain,
        objective=parse_expression(doc["objective"], n),
        p=doc["p"],
        name=doc["name"],
        **kwargs,
    )


def _signed(terms: list[tuple[float, str]]) -> str:
    """'c0*m0 + c1*m1 - c2*m2 ...' from (coefficient, monomial) pairs; '' is 1."""
    c, mono = terms[0]
    out = repr(c) + ("*" + mono if mono else "")
    for c, mono in terms[1:]:
        out += f" {'-' if c < 0 else '+'} {abs(c)!r}{'*' + mono if mono else ''}"
    return out


def _unit(dim: int) -> dict:
    return {"lower": [0.0] * dim, "upper": [1.0] * dim}


def _density_1d(rng, label: str, x_resolution: int) -> DensityCase:
    """Positive affine kernel and bound on [0, gamma]: feasible and bounded."""
    a = [float(rng.uniform(0.8, 1.2))] + [float(v) for v in rng.uniform(-0.2, 0.2, 3)]
    c = [float(v) for v in rng.uniform(-1.0, 1.0, 3)]
    gamma = float(rng.uniform(0.5, 1.0))
    doc = {
        "format_version": "1",
        "kind": "lp_density",
        "name": label,
        "domain": _unit(1),
        "p": float(rng.uniform(1.5, 3.0)),
        "objective": _signed([(c[0], ""), (c[1], "x1"), (c[2], "x1^2")]),
        "inequality": {
            "box": {"lower": [0.0], "upper": [gamma]},
            "kernel": _signed([(a[0], ""), (a[1], "y1"), (a[2], "x1"), (a[3], "y1*x1")]),
            "bound": _signed([(float(rng.uniform(1.0, 2.0)), ""), (float(rng.uniform(-0.2, 0.2)), "y1")]),
        },
        "solver": {"x_resolution": x_resolution},
    }
    return DensityCase(label, doc, x_resolution)


def _density_2d(rng, label: str, x_resolution: int) -> DensityCase:
    """Gaussian kernel on [0, 1]^2, positive affine bound, objective positive somewhere."""
    g = float(rng.uniform(1.0, 3.0))
    c = [float(rng.uniform(0.5, 1.0))] + [float(v) for v in rng.uniform(-0.5, 0.5, 3)]
    b = [float(rng.uniform(1.0, 2.0))] + [float(v) for v in rng.uniform(-0.2, 0.2, 2)]
    doc = {
        "format_version": "1",
        "kind": "lp_density",
        "name": label,
        "domain": _unit(2),
        "p": float(rng.uniform(1.5, 3.0)),
        "objective": _signed([(c[0], ""), (c[1], "x1"), (c[2], "x2"), (c[3], "x1*x2")]),
        "inequality": {
            "box": _unit(2),
            "kernel": f"exp(-{g!r}*((y1 - x1)^2 + (y2 - x2)^2))",
            "bound": _signed([(b[0], ""), (b[1], "y1"), (b[2], "y2")]),
        },
    }
    return DensityCase(label, doc, x_resolution)


def _flat_case(x_resolution: int) -> DensityCase:
    """max ∫f with ∫f ≤ 1: value 1 at every resolution."""
    doc = {
        "format_version": "1", "kind": "lp_density", "name": "flat-density",
        "domain": _unit(1), "p": 2.0, "objective": "1",
        "inequality": {"box": _unit(1), "kernel": "1", "bound": "1"},
        "solver": {"x_resolution": x_resolution},
    }
    return DensityCase("flat-density", doc, x_resolution, anchor=1.0)


def _concentration_case(x_resolution: int) -> DensityCase:
    """max ∫x f with ∫f = 1: mass piles into the last cell, 1 - 1/(2r)."""
    doc = {
        "format_version": "1", "kind": "lp_density", "name": "concentration",
        "domain": _unit(1), "p": 2.0, "objective": "x1",
        "equality": {"box": {"lower": [0.0], "upper": [0.25]}, "kernel": "1", "bound": "1"},
        "solver": {"x_resolution": x_resolution},
    }
    return DensityCase(
        "concentration", doc, x_resolution, anchor=1.0 - 1.0 / (2 * x_resolution)
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A seeded, fixed set of cases, the timed call for one case, and its check.

    A run holds ``size`` cases (``tiny_size`` for the smoke test); case ``k``
    depends only on the seed and ``k``.  All of them are generated, with
    their problems built, when the workload is made, which is part of set-up
    and outside every timed call.  The set's size does not depend on how
    fast the machine is, so a seed always gives the same cases, the same
    ``attempted`` and, with the same code, the same ``failed``.
    """

    name = ""
    stream = 0  # separates the workloads' random streams
    size = 0
    tiny_size = 0

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "."):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.cases = [
            self.make(np.random.default_rng([seed, self.stream, k]), k)
            for k in range(self.tiny_size if tiny else self.size)
        ]

    def make(self, rng: np.random.Generator, i: int):
        raise NotImplementedError

    @staticmethod
    def raised(error: Exception) -> checks.Failure:
        """NumericalFailure is the solver declining to answer: unmet, not wrong."""
        kind = checks.UNMET if isinstance(error, NumericalFailure) else checks.WRONG
        return checks.Failure(kind, f"raised {type(error).__name__}: {error}")

    def call(self, case):
        raise NotImplementedError

    def check(self, case, out) -> list[checks.Failure]:
        raise NotImplementedError


@dataclass
class CliCase:
    label: str
    argv: list[str]
    report: str
    expect_exit: int | None
    moment: MomentCase | None = None
    density: DensityCase | None = None


# One cycle of the CLI set (a run holds six): twelve moment files (one per
# shape slot), two option-bound commands, one random density file, the
# three analytic anchors and the two spike reproductions, in a fixed
# interleaved order.  Moment files are 70 % of the set, so the median falls
# inside their cluster rather than in the gap between them and the cheap
# commands.
_CLI_KINDS = (
    [("moment", slot) for slot in range(12)]
    + [("option", 0)] * 2
    + [("density", 0)]
    + [("cauchy_schwarz", 0), ("flat", 0), ("concentration", 0)]
    + [("spike_moment", 0), ("spike_option", 0)]
)
_CLI_ORDER = np.random.default_rng(0).permutation(len(_CLI_KINDS))


class Cli1D(Workload):
    """In-process ``run_cli`` on 1-D problem files: what a CLI user waits for."""

    name = "cli_1d"
    stream = 1
    size = 6 * len(_CLI_KINDS)
    tiny_size = len(_CLI_KINDS)

    def make(self, rng, i: int) -> CliCase:
        kind, slot = _CLI_KINDS[_CLI_ORDER[i % len(_CLI_KINDS)]]
        label = f"{i:05d}-{kind}"
        if kind == "moment":
            return self._solve(label, _interval_case(rng, label, DEFAULT_GRID, slot))
        if kind == "cauchy_schwarz":
            return self._solve(label, _cauchy_schwarz_case())
        if kind == "spike_moment":
            return self._solve(label, _spike_case(), expect_exit=None)
        if kind == "option":
            return self._option(label, _option_case(rng, label))
        if kind == "spike_option":
            return self._option(label, _spike_option_case(), expect_exit=None)
        if kind == "density":
            return self._density(label, _density_1d(rng, label, 64))
        if kind == "flat":
            return self._density(label, _flat_case(16))
        return self._density(label, _concentration_case(16))

    def _path(self, label: str, suffix: str) -> str:
        return os.path.join(self.workdir, f"{label}{suffix}")

    def _write(self, label: str, doc: dict) -> str:
        path = self._path(label, ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _solve(self, label: str, case: MomentCase, expect_exit: int | None = 0) -> CliCase:
        path, report = self._write(label, case.document()), self._path(label, ".report.json")
        return CliCase(label, ["solve", path, "--report", report], report, expect_exit, moment=case)

    def _option(self, label: str, opt: OptionCase, expect_exit: int | None = 0) -> CliCase:
        report = self._path(label, ".report.json")
        return CliCase(label, opt.argv + ["--report", report], report, expect_exit, moment=opt.case)

    def _density(self, label: str, case: DensityCase) -> CliCase:
        path, report = self._write(label, case.doc), self._path(label, ".report.json")
        return CliCase(label, ["solve", path, "--report", report], report, 0, density=case)

    def call(self, case: CliCase) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return measurelp.cli.run_cli(case.argv)

    def check(self, case: CliCase, code: int) -> list[checks.Failure]:
        failures = []
        if case.expect_exit is not None and code != case.expect_exit:
            failures.append(checks.unmet(f"exit code {code}, expected {case.expect_exit}"))
        try:
            with open(case.report, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(case.report)  # a repeat of the case must write its own
        except (OSError, ValueError) as e:
            return failures + [checks.wrong(f"no readable report: {e}")]
        if case.density is not None:
            return failures + checks.density_report(
                case.density, doc["primal_value"], doc["dual_value"], doc["status"], GAP_RTOL
            )
        dual = doc["dual"] or {"y": None, "z": None}
        return failures + checks.moment_report(
            case.moment, doc["primal_value"], doc["dual_value"], dual["y"], dual["z"],
            CLI_TOL, doc["status"], mesh=20001,
        )


class Exchange1D(Workload):
    """Library exchange loop from corner cuts only, then the dual Slater loop."""

    name = "exchange_1d"
    stream = 2
    size = 50 * 12  # 50 cycles of the twelve shape slots
    tiny_size = 12

    def make(self, rng, i: int) -> MomentCase:
        case = _interval_case(rng, f"exchange-{i}", 257, i)
        case.problem  # parsed in set-up, not in the first timed call
        return case

    def call(self, case: MomentCase):
        ex = moment.exchange_solve(case.problem, tol=EXCHANGE_TOL)
        return ex, moment.check_dual_slater(case.problem)

    def check(self, case: MomentCase, out) -> list[checks.Failure]:
        ex, slater = out
        failures = []
        if ex.status != "converged":
            failures.append(checks.unmet(f"exchange ended {ex.status}"))
        if not slater.converged:
            failures.append(checks.unmet("dual Slater loop did not converge"))
        elif slater.margin <= 0.0:  # unit mass lifts the slack: the margin is the cap
            failures.append(checks.wrong(f"dual Slater margin {slater.margin}"))
        dual = ex.dual
        return failures + checks.moment_report(
            case, None, ex.value, dual and dual.y, dual and dual.z, EXCHANGE_TOL, None, mesh=20001,
        )


class Moment2D(Workload):
    """Library ``duality_report`` at grid 257^2: bulk cut seeding and wide LPs.

    tol 1e-5 lets the seeded grid certify the dual in one exchange
    iteration, as on ROADMAP's instance, so the run measures the seeding and
    the wide master LP rather than a seed-dependent number of iterations.
    """

    name = "moment_2d"
    stream = 3
    size = 6
    tiny_size = 1

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "."):
        self.grid = 17 if tiny else 257
        self.config = moment.SolverConfig(grid_resolution=self.grid, tol=1e-5)
        super().__init__(seed, tiny, workdir)

    def make(self, rng, i: int) -> MomentCase:
        case = _square_case(rng, f"square-{i}", self.grid)
        case.problem  # parsed in set-up, not in the first timed call
        return case

    def call(self, case: MomentCase):
        return moment.duality_report(case.problem, self.config)

    def check(self, case: MomentCase, rep) -> list[checks.Failure]:
        dual = rep.dual
        return checks.moment_report(
            case, rep.primal_value, rep.dual_value, dual and dual.y, dual and dual.z,
            self.config.tol, rep.status.value, mesh=33 if self.tiny else 401,
        )


class Density2D(Workload):
    """Library ``collocation_report`` plus ``check_lp_slater``: square dense LPs."""

    name = "density_2d"
    stream = 4
    size = 6
    tiny_size = 1

    def make(self, rng, i: int) -> DensityCase:
        return _density_2d(rng, f"gauss-{i}", 4 if self.tiny else 16)

    def call(self, case: DensityCase):
        rep = density.collocation_report(case.problem, x_resolution=case.x_resolution)
        return rep, density.check_lp_slater(case.problem, x_resolution=case.x_resolution)

    def check(self, case: DensityCase, out) -> list[checks.Failure]:
        rep, slater = out
        failures = checks.density_report(
            case, rep.primal_value, rep.dual_value, rep.status.value, GAP_RTOL
        )
        if rep.refined_primal_value is None:
            failures.append(checks.unmet("refinement produced no value"))
        if not (slater.feasible and slater.margin > 0.0):
            failures.append(checks.wrong(f"density Slater margin {slater.margin}"))
        return failures


WORKLOADS = {w.name: w for w in (Cli1D, Exchange1D, Moment2D, Density2D)}
