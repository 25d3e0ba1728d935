"""Shared instance builders and seeded random generators for the tests."""

from __future__ import annotations

import numpy as np

from measurelp import (
    AtomicMeasure,
    Box,
    LpDensityProblem,
    MomentProblem,
    Partition,
    PiecewiseFunction,
    grid_points,
    parse_expression,
)
from measurelp.simplex import make_lp


def pw(partition: Partition, *sources: str) -> PiecewiseFunction:
    """Piecewise function from one expression string per box."""
    pieces = tuple(parse_expression(s, partition.dim) for s in sources)
    return PiecewiseFunction(partition, pieces)


def interval_problem(lo, hi, objective, inequalities=(), equalities=(), name=""):
    """One-box, one-dimensional moment problem from expression strings."""
    hull = Box((float(lo),), (float(hi),))
    partition = Partition((hull,))
    return MomentProblem(
        domain=partition,
        hull=hull,
        objective=pw(partition, objective),
        inequalities=tuple((pw(partition, s), float(b)) for s, b in inequalities),
        equalities=tuple((pw(partition, s), float(b)) for s, b in equalities),
        name=name,
    )


def cauchy_schwarz_problem() -> MomentProblem:
    """max E[x] with unit mass and unit second moment on [-2, 2]."""
    return interval_problem(
        -2.0, 2.0, "x1",
        equalities=(("1", 1.0), ("x1^2", 1.0)),
        name="cauchy-schwarz",
    )


def jensen_problem(function: str = "exp(x1)", bound: float = 1.5) -> MomentProblem:
    """max E[x] with unit mass and E[f(x)] pinned on [-2, 2], for a non-polynomial f.

    Its box stays on the separation oracle's scan.  For the default f = exp,
    Jensen's inequality makes the value log(1.5), at one atom.
    """
    return interval_problem(
        -2.0, 2.0, "x1", equalities=(("1", 1.0), (function, bound)), name="jensen",
    )


def piecewise_problem() -> MomentProblem:
    """Tent objective over a two-box partition of [0, 2), unit mass."""
    hull = Box((0.0,), (2.0,))
    partition = Partition((Box((0.0,), (1.0,)), Box((1.0,), (2.0,))))
    return MomentProblem(
        domain=partition,
        hull=hull,
        objective=pw(partition, "x1", "2 - x1"),
        inequalities=(),
        equalities=((pw(partition, "1", "1"), 1.0),),
        name="tent",
    )


def contradictory_problem() -> MomentProblem:
    """Total mass required to be both 1 and 2."""
    return interval_problem(
        0.0, 1.0, "x1",
        equalities=(("1", 1.0), ("1", 2.0)),
        name="contradictory-mass",
    )


def flat_density_problem(p: float = 2.0) -> LpDensityProblem:
    """max ∫f with ∫f ≤ 1 on the unit interval: value 1 at every resolution."""
    unit = Box((0.0,), (1.0,))
    return LpDensityProblem(
        domain=unit,
        objective=parse_expression("1", 1),
        p=p,
        kernel_a=parse_expression("1", 2, (("y", 1), ("x", 1))),
        bound_a=parse_expression("1", 1, ("y",)),
        ineq_domain=unit,
        name="flat",
    )


def bilinear_density_problem(p: float = 2.0) -> LpDensityProblem:
    """The A(y, x) = y*x kernel on the unit square used by the norm checks."""
    unit = Box((0.0,), (1.0,))
    return LpDensityProblem(
        domain=unit,
        objective=parse_expression("1", 1),
        p=p,
        kernel_a=parse_expression("y1 * x1", 2, (("y", 1), ("x", 1))),
        bound_a=parse_expression("1", 1, ("y",)),
        ineq_domain=unit,
        name="bilinear",
    )


def concentration_density_problem() -> LpDensityProblem:
    """max ∫x f with ∫f = 1: discrete value 1 - 1/(2r), no L^p optimizer."""
    unit = Box((0.0,), (1.0,))
    return LpDensityProblem(
        domain=unit,
        objective=parse_expression("x1", 1),
        p=2.0,
        kernel_b=parse_expression("1", 2, (("z", 1), ("x", 1))),
        bound_b=parse_expression("1", 1, ("z",)),
        eq_domain=Box((0.0,), (0.25,)),
        name="concentration",
    )


def gaussian_density_problem() -> LpDensityProblem:
    """Gaussian kernel on [0, 1]^2 with an affine bound: the density bench's shape."""
    unit = Box((0.0, 0.0), (1.0, 1.0))
    return LpDensityProblem(
        domain=unit,
        objective=parse_expression("0.75 + 0.2*x1 - 0.3*x2 + 0.1*x1*x2", 2),
        p=2.0,
        kernel_a=parse_expression(
            "exp(-2*((y1 - x1)^2 + (y2 - x2)^2))", 4, (("y", 2), ("x", 2))
        ),
        bound_a=parse_expression("1.5 + 0.1*y1 - 0.1*y2", 2, (("y", 2),)),
        ineq_domain=unit,
        name="gaussian",
    )


# ---------------------------------------------------------------------------
# seeded random generators


def random_polynomial(rng: np.random.Generator, max_degree: int = 4) -> str:
    """Random polynomial in x1 with coefficients in [-1, 1], degree <= 4."""
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, degree + 1)]
    parts = [repr(coeffs[0])]
    for k in range(1, degree + 1):
        op = "+" if coeffs[k] >= 0.0 else "-"
        parts.append(f" {op} {abs(coeffs[k])!r}*x1^{k}")
    return "".join(parts)


def random_moment_problem(rng: np.random.Generator):
    """(problem, grid resolution): feasible by construction on that grid.

    Constraint bounds are derived from reference atoms placed on the closed
    grid of the returned resolution, so the grid primal is feasible and the
    exchange master seeded with that grid is feasible from the first
    iteration.  M + N <= 4 and a total-mass equality is always present.
    """
    lo = float(rng.uniform(-2.0, 0.0))
    hi = float(rng.uniform(1.0, 3.0))
    if rng.random() < 0.5:
        boxes = (Box((lo,), (hi,)),)
    else:
        mid = float(rng.uniform(lo + 0.3, hi - 0.3))
        boxes = (Box((lo,), (mid,)), Box((mid,), (hi,)))
    partition = Partition(boxes)
    resolution = 9

    def poly_fn() -> PiecewiseFunction:
        pieces = tuple(
            parse_expression(random_polynomial(rng), 1) for _ in boxes
        )
        return PiecewiseFunction(partition, pieces)

    candidates = [
        (i, tuple(float(v) for v in pt))
        for i, box in enumerate(boxes)
        for pt in grid_points(box, resolution)
    ]
    n_atoms = int(rng.integers(1, 4))
    chosen = rng.choice(len(candidates), size=n_atoms, replace=False)
    weights = rng.uniform(0.2, 1.0, n_atoms)
    weights = weights / weights.sum()
    atoms = AtomicMeasure(
        points=tuple(candidates[j][1] for j in chosen),
        weights=tuple(float(w) for w in weights),
        box_indices=tuple(candidates[j][0] for j in chosen),
    )

    mass = PiecewiseFunction(
        partition, tuple(parse_expression("1", 1) for _ in boxes)
    )
    equalities = [(mass, 1.0)]
    if rng.random() < 0.5:
        fn = poly_fn()
        equalities.append((fn, atoms.integrate(fn)))
    inequalities = []
    for _ in range(int(rng.integers(1, 3))):
        fn = poly_fn()
        inequalities.append((fn, atoms.integrate(fn) + float(rng.uniform(0.1, 1.0))))

    mp = MomentProblem(
        domain=partition,
        hull=Box((lo,), (hi,)),
        objective=poly_fn(),
        inequalities=tuple(inequalities),
        equalities=tuple(equalities),
        name="random-moment",
    )
    return mp, resolution


def random_density_problem(rng: np.random.Generator) -> LpDensityProblem:
    """Feasible, bounded random instance: positive kernel, positive bound.

    The kernel stays above 0.2 on its box, the inequality bound above 0.8;
    an optional equality family pins the total mass to a small constant so
    that the inequality rows stay slack for the flat density.
    """
    domain = Box((0.0,), (1.0,))
    gamma = float(rng.uniform(0.5, 1.0))
    a0 = float(rng.uniform(0.8, 1.2))
    a1, a2, a3 = (float(v) for v in rng.uniform(-0.2, 0.2, 3))
    kernel_src = (
        f"{a0!r} {'+' if a1 >= 0 else '-'} {abs(a1)!r}*y1 "
        f"{'+' if a2 >= 0 else '-'} {abs(a2)!r}*x1 "
        f"{'+' if a3 >= 0 else '-'} {abs(a3)!r}*y1*x1"
    )
    b0 = float(rng.uniform(1.0, 2.0))
    b1 = float(rng.uniform(-0.2, 0.2))
    bound_src = f"{b0!r} {'+' if b1 >= 0 else '-'} {abs(b1)!r}*y1"
    c_coeffs = [float(v) for v in rng.uniform(-1.0, 1.0, 3)]
    objective_src = (
        f"{c_coeffs[0]!r} {'+' if c_coeffs[1] >= 0 else '-'} {abs(c_coeffs[1])!r}*x1 "
        f"{'+' if c_coeffs[2] >= 0 else '-'} {abs(c_coeffs[2])!r}*x1^2"
    )
    kwargs = {}
    if rng.random() < 0.4:
        mass = float(rng.uniform(0.1, 0.3))
        kwargs = dict(
            kernel_b=parse_expression("1", 2, (("z", 1), ("x", 1))),
            bound_b=parse_expression(repr(mass), 1, ("z",)),
            eq_domain=Box((0.0,), (0.25,)),
        )
    return LpDensityProblem(
        domain=domain,
        objective=parse_expression(objective_src, 1),
        p=float(rng.uniform(1.5, 3.0)),
        kernel_a=parse_expression(kernel_src, 2, (("y", 1), ("x", 1))),
        bound_a=parse_expression(bound_src, 1, ("y",)),
        ineq_domain=Box((0.0,), (gamma,)),
        name="random-density",
        **kwargs,
    )


def random_lp(rng: np.random.Generator):
    """Random bounded LP (<= 6 vars, <= 8 rows), 20% robustly infeasible.

    Feasible instances are built around an interior point x0 with slack at
    least 0.1, so the feasibility status is stable under solver tolerances;
    every variable carries finite bounds, so the LP is always bounded.
    """
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 9))
    rows = rng.uniform(-2.0, 2.0, (m, n))
    sense = "max" if rng.random() < 0.5 else "min"
    objective = rng.uniform(-2.0, 2.0, n)
    lower = np.where(rng.random(n) < 0.3, -rng.uniform(0.5, 2.0, n), 0.0)
    upper = lower + rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(lower, upper)
    reach = rows @ x0
    senses = []
    rhs = np.empty(m)
    for i in range(m):
        u = rng.random()
        if u < 0.55:
            senses.append("<=")
            rhs[i] = reach[i] + rng.uniform(0.1, 1.0)
        elif u < 0.85:
            senses.append(">=")
            rhs[i] = reach[i] - rng.uniform(0.1, 1.0)
        else:
            senses.append("=")
            rhs[i] = reach[i]
    if m >= 2 and rng.random() < 0.2:
        rows[1] = rows[0]
        senses[0], rhs[0] = "<=", reach[0]
        senses[1], rhs[1] = ">=", reach[0] + 1.0
    return make_lp(sense, objective, rows, senses, rhs, lower=lower, upper=upper)
