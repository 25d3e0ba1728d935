"""Output checks, run after the timer stops.

Each check returns a list of failures; an empty list is a pass.  A failure
counts toward ``failed_frac`` instead of raising, so one wrong answer does
not end the run.

Failures come in three kinds, and all of them count as failed problems:

- ``UNSOUND``: the defect ROADMAP item 2 names.  A "certified" dual holds
  only on the solver's scan mesh, so the bound falls below a value a known
  measure attains, or the certificate is violated between mesh points.
- ``UNMET``: an honest status other than the one the case expects, such as
  an exchange loop that stops at its iteration limit.
- ``WRONG``: an output that contradicts a fact it claims or that the case
  fixes: weak duality, a primal below a feasible grid measure, a missed
  analytic anchor, a collocation gap beyond gap_rtol, a call that raises.

Only ``WRONG`` makes a run incorrect: the seed has the other two.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

WEAK_DUALITY_RTOL = 1e-8
ANCHOR_RTOL = 1e-8
CERTIFICATE_FACTOR = 10.0
STRONG = "strong_duality_numerically"
UNSOUND = "unsound"
UNMET = "unmet"
WRONG = "wrong"


class Failure(NamedTuple):
    kind: str  # UNSOUND, UNMET or WRONG
    message: str


def wrong(message: str) -> Failure:
    return Failure(WRONG, message)


def unmet(message: str) -> Failure:
    return Failure(UNMET, message)


def closed_mesh(lower, upper, per_axis: int) -> np.ndarray:
    """Tensor mesh over the closed box, ``per_axis`` points per axis."""
    axes = [np.linspace(l, u, per_axis) for l, u in zip(lower, upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def certificate_violation(case, y, z, per_axis: int) -> float:
    """Largest violation of Σ y φ + Σ z ψ >= h on a fine mesh of every box.

    The functions are evaluated with the case's own numpy evaluators, not
    with the package's expression evaluator.
    """
    worst = 0.0
    for i, (lower, upper) in enumerate(case.boxes):
        pts = closed_mesh(lower, upper, per_axis)
        slack = -case.objective[i].f(pts)
        for yi, (fns, _) in zip(y, case.inequalities):
            slack += yi * fns[i].f(pts)
        for zi, (fns, _) in zip(z, case.equalities):
            slack += zi * fns[i].f(pts)
        worst = max(worst, -float(slack.min()))
    return worst


def moment_report(case, primal, dual, y, z, tol, status, mesh: int) -> list[Failure]:
    """Checks one moment result against its case's known measure.

    ``primal`` is None where no grid primal was solved; ``status`` is None
    where the call returns no report status.
    """
    failures = []
    if status is not None and status != STRONG:
        failures.append(unmet(f"status {status}"))
    if dual is None or y is None:
        return failures + [unmet("no dual certificate")]
    known = case.known_value
    if primal is not None:
        if primal > dual + WEAK_DUALITY_RTOL * (1.0 + abs(dual)):
            failures.append(wrong(f"weak duality: primal {primal!r} > dual {dual!r}"))
        if case.atoms_on_grid and primal < known - tol:
            failures.append(wrong(f"primal {primal!r} below the known measure's {known!r}"))
    if dual < known - tol:
        failures.append(
            Failure(UNSOUND, f"certified bound {dual!r} below the known value {known!r}")
        )
    violation = certificate_violation(case, y, z, mesh)
    if violation > CERTIFICATE_FACTOR * tol:
        failures.append(
            Failure(UNSOUND, f"dual certificate violated by {violation:.3g} on the fine mesh")
        )
    return failures


def density_report(case, primal, dual, status, gap_rtol: float) -> list[Failure]:
    """Collocation pair within ``gap_rtol``, and the analytic anchor if any."""
    if primal is None or dual is None:
        return [unmet(f"status {status}: primal {primal}, dual {dual}")]
    failures = []
    if status != STRONG:
        failures.append(unmet(f"status {status}"))
    if abs(dual - primal) > gap_rtol * (1.0 + abs(dual)):
        failures.append(wrong(f"collocation gap {dual - primal!r} beyond gap_rtol"))
    if case.anchor is not None:
        for label, value in (("primal", primal), ("dual", dual)):
            if abs(value - case.anchor) > ANCHOR_RTOL * (1.0 + abs(case.anchor)):
                failures.append(
                    wrong(f"{label} {value!r} differs from the anchor {case.anchor!r}")
                )
    return failures
