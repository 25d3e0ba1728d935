"""Problem and report files: canonical JSON, loaders, and document builders.

Problem files carry one of two kinds: ``"moment"`` (piecewise data over a box
partition) or ``"lp_density"`` (kernel-constrained density problems), plus
optional solver overrides.  Report files echo every solve result field, the
solver configuration, and wall-clock timings.

The writer is canonical so identical results produce identical bytes: keys
sorted, floats printed with ``%.17g`` (with ``.0`` appended when the result
has no ``.`` or exponent, so floats stay visibly floats), a single trailing
newline, and non-finite numbers rejected -- absent values are ``null``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .density import (
    CollocationReport,
    DensityConfig,
    DensitySlaterReport,
    LpDensityProblem,
    _check_rank_bytes,
)
from .expressions import Expression, format_expression, parse_expression
from .geometry import Box, Partition, _axis_counts, validate_partition
from .moment import (
    DualityReport,
    DualPoint,
    DualSlaterReport,
    MomentProblem,
    PiecewiseFunction,
    PrimalSlaterReport,
    SolverConfig,
    _check_grid_bytes,
)

FORMAT_VERSION = "1"

PROBLEM_KINDS = ("moment", "lp_density")

_CONFIGS = {"moment": SolverConfig, "lp_density": DensityConfig}


def _solver_keys(config: type) -> dict[str, type]:
    """A config class's ``solver`` keys: float for a float default, int for any other."""
    return {f.name: float if isinstance(f.default, float) else int for f in fields(config)}


MOMENT_SOLVER_KEYS = _solver_keys(SolverConfig)
DENSITY_SOLVER_KEYS = _solver_keys(DensityConfig)


class ProblemFormatError(ValueError):
    """A problem document failed validation; ``field`` names the offender."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(
            "non-finite numbers are not representable in report files; use null"
        )
    text = "%.17g" % value
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _serialize(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _serialize(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _serialize(item, out)
        out.append("]")
    else:
        raise ValueError(f"cannot serialize {type(value).__name__} canonically")


def canonical_json(doc: Any) -> str:
    """Deterministic JSON text for ``doc``, newline-terminated."""
    out: list[str] = []
    _serialize(doc, out)
    out.append("\n")
    return "".join(out)


def write_json(doc: Any, path: str | Path) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


# ---------------------------------------------------------------------------
# document field access


def _get(doc: Mapping, key: str, kind: type | tuple, path: str, required=True):
    if key not in doc:
        if required:
            raise ProblemFormatError("missing required field", f"{path}{key}")
        return None
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = _to_float(value, f"{path}{key}")
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        want = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ProblemFormatError(
            f"expected {want}, got {type(value).__name__}", f"{path}{key}"
        )
    return value


def _float_list(doc: Mapping, key: str, path: str) -> list[float]:
    raw = _get(doc, key, list, path)
    values = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProblemFormatError(
                f"expected number, got {type(v).__name__}", f"{path}{key}[{i}]"
            )
        values.append(_to_float(v, f"{path}{key}[{i}]"))
    return values


def _to_float(value: int | float, field: str) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ProblemFormatError("number too large for a float", field) from None


def _box_from(doc: Any, path: str) -> Box:
    if not isinstance(doc, Mapping):
        raise ProblemFormatError("expected an object with lower/upper", path)
    lower = _float_list(doc, "lower", f"{path}.")
    upper = _float_list(doc, "upper", f"{path}.")
    try:
        return Box(tuple(lower), tuple(upper))
    except ValueError as e:
        raise ProblemFormatError(str(e), path) from e


def _box_doc(box: Box) -> dict:
    return {"lower": list(box.lower), "upper": list(box.upper)}


def _expression_from(source: Any, arity: int, prefixes, path: str) -> Expression:
    if not isinstance(source, str):
        raise ProblemFormatError(
            f"expected expression text, got {type(source).__name__}", path
        )
    try:
        return parse_expression(source, arity, prefixes)
    except ValueError as e:  # ParseError messages already carry the byte offset
        raise ProblemFormatError(str(e), path) from e


def _solver_block(doc: Mapping, kind: str, problem) -> tuple[dict, SolverConfig | DensityConfig]:
    """The ``solver`` block's overrides, and the kind's config built from them.

    A resolution written there is checked against the box it sizes, and so
    is the grid the solve derives from it: the density refinement at twice
    ``x_resolution``.  No setting sizes the separation oracle's meshes, so
    the solve checks them.  Then the grids of a moment solve
    and a density Slater check's equality rank table that those keys imply
    are held to the solves' byte limit (``moment._check_grid_bytes`` and
    ``density._check_rank_bytes``), with the solve's own message.  A
    default is left to the solve, where a flag may override it.
    """
    config = _CONFIGS[kind]
    allowed = _solver_keys(config)
    raw = _get(doc, "solver", dict, "", required=False) or {}
    overrides = {}
    for key in sorted(raw):
        if key not in allowed:
            raise ProblemFormatError(
                f"unknown solver option (allowed: {', '.join(sorted(allowed))})",
                f"solver.{key}",
            )
        overrides[key] = _get(raw, key, allowed[key], "solver.")
    try:
        built = config(**overrides)
    except ValueError as e:  # the message names the key
        raise ProblemFormatError(str(e)) from e

    def check(key, box, resolution, derived=""):
        try:
            if box is not None:
                _axis_counts(box.dim, resolution)
        except ValueError as e:
            raise ProblemFormatError(derived + str(e), f"solver.{key}") from e

    def fits(limit, resolution):
        try:
            limit(problem, resolution)
        except ValueError as e:  # the solve's own message, which sizes the grid
            raise ProblemFormatError(str(e)) from e

    sizes = {"y_resolution": "ineq_domain", "z_resolution": "eq_domain"}  # else the domain
    keys = [key for key in overrides if key.endswith("_resolution")]
    for key in keys:
        check(key, getattr(problem, sizes.get(key, "domain")), overrides[key])
    if "x_resolution" in overrides:
        check("x_resolution", problem.domain, 2 * built.x_resolution, "the refinement's ")
    # the byte limits of the tables the solve holds whole
    if kind == "moment":
        for key in keys:
            fits(_check_grid_bytes, overrides[key])
    elif {"x_resolution", "z_resolution", "slater_resolution"} & set(keys):
        fits(_check_rank_bytes, DensityConfig(**built.slater_options()).grids())
    return overrides, built


# ---------------------------------------------------------------------------
# problem loading


@dataclass(frozen=True)
class LoadedProblem:
    """A parsed problem file: the problem object, its solver overrides, and its config."""

    kind: str
    name: str
    problem: MomentProblem | LpDensityProblem
    solver: dict
    config: SolverConfig | DensityConfig


def _load_moment(doc: Mapping) -> MomentProblem:
    dimension = _get(doc, "dimension", int, "")
    hull = _box_from(_get(doc, "hull", dict, ""), "hull")
    raw_boxes = _get(doc, "boxes", list, "")
    if not raw_boxes:
        raise ProblemFormatError("need at least one box", "boxes")
    boxes = [_box_from(b, f"boxes[{i}]") for i, b in enumerate(raw_boxes)]
    for i, box in enumerate(boxes):
        if box.dim != dimension:
            raise ProblemFormatError(
                f"box dimension {box.dim} does not match dimension {dimension}",
                f"boxes[{i}]",
            )
    if hull.dim != dimension:
        raise ProblemFormatError(
            f"hull dimension {hull.dim} does not match dimension {dimension}", "hull"
        )
    partition = Partition(tuple(boxes))
    report = validate_partition(partition, hull)
    if not report.ok:
        raise ProblemFormatError(
            "boxes do not partition the hull: " + "; ".join(report.problems), "boxes"
        )

    def pieces_from(raw: Any, path: str) -> PiecewiseFunction:
        if not isinstance(raw, list):
            raise ProblemFormatError(
                f"expected one expression per box, got {type(raw).__name__}", path
            )
        if len(raw) != len(boxes):
            raise ProblemFormatError(
                f"expected {len(boxes)} piece(s), got {len(raw)}", path
            )
        exprs = tuple(
            _expression_from(src, dimension, ("x",), f"{path}[{i}]")
            for i, src in enumerate(raw)
        )
        return PiecewiseFunction(partition, exprs)

    def constraints_from(key: str):
        raw = _get(doc, key, list, "", required=False) or []
        out = []
        for i, entry in enumerate(raw):
            path = f"{key}[{i}]"
            if not isinstance(entry, Mapping):
                raise ProblemFormatError("expected an object with pieces/bound", path)
            fn = pieces_from(_get(entry, "pieces", list, f"{path}."), f"{path}.pieces")
            bound = _get(entry, "bound", float, f"{path}.")
            out.append((fn, float(bound)))
        return tuple(out)

    objective = pieces_from(_get(doc, "objective", list, ""), "objective")
    inequalities = constraints_from("inequalities")
    equalities = constraints_from("equalities")
    try:
        return MomentProblem(
            domain=partition,
            hull=hull,
            objective=objective,
            inequalities=inequalities,
            equalities=equalities,
            name=_get(doc, "name", str, "", required=False) or "",
        )
    except ValueError as e:
        raise ProblemFormatError(str(e)) from e


def _load_density(doc: Mapping) -> LpDensityProblem:
    domain = _box_from(_get(doc, "domain", dict, ""), "domain")
    n = domain.dim
    p = _get(doc, "p", float, "", required=False)
    if p is not None and not (1.0 < float(p) < math.inf):
        raise ProblemFormatError(f"exponent p must satisfy 1 < p < inf, got {p}", "p")
    objective = _expression_from(_get(doc, "objective", str, ""), n, ("x",), "objective")

    def family(key: str, prefix: str):
        raw = _get(doc, key, dict, "", required=False)
        if raw is None:
            return None, None, None
        path = f"{key}."
        box = _box_from(_get(raw, "box", dict, path), f"{key}.box")
        kernel = _expression_from(
            _get(raw, "kernel", str, path),
            box.dim + n,
            ((prefix, box.dim), ("x", n)),
            f"{key}.kernel",
        )
        bound = _expression_from(
            _get(raw, "bound", str, path), box.dim, ((prefix, box.dim),), f"{key}.bound"
        )
        return kernel, bound, box

    kernel_a, bound_a, ineq_domain = family("inequality", "y")
    kernel_b, bound_b, eq_domain = family("equality", "z")
    try:
        return LpDensityProblem(
            domain=domain,
            objective=objective,
            p=2.0 if p is None else float(p),
            kernel_a=kernel_a,
            bound_a=bound_a,
            ineq_domain=ineq_domain,
            kernel_b=kernel_b,
            bound_b=bound_b,
            eq_domain=eq_domain,
            name=_get(doc, "name", str, "", required=False) or "lp-density",
        )
    except ValueError as e:
        raise ProblemFormatError(str(e)) from e


def problem_from_document(doc: Any) -> LoadedProblem:
    """Validate a decoded problem document and build the problem object."""
    if not isinstance(doc, Mapping):
        raise ProblemFormatError("problem document must be a JSON object")
    version = _get(doc, "format_version", str, "")
    if version != FORMAT_VERSION:
        raise ProblemFormatError(
            f"unsupported format_version {version!r} (supported: {FORMAT_VERSION!r})",
            "format_version",
        )
    kind = _get(doc, "kind", str, "")
    if kind not in PROBLEM_KINDS:
        raise ProblemFormatError(
            f"kind must be one of {PROBLEM_KINDS}, got {kind!r}", "kind"
        )
    problem = _load_moment(doc) if kind == "moment" else _load_density(doc)
    return LoadedProblem(kind, problem.name, problem, *_solver_block(doc, kind, problem))


def load_problem(path: str | Path) -> LoadedProblem:
    """Read, decode, and validate a problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ProblemFormatError(f"cannot read problem file: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"invalid JSON: {e}") from e
    return problem_from_document(doc)


def problem_document(loaded: LoadedProblem) -> dict:
    """Serialize a loaded problem back to its document form."""
    pb = loaded.problem
    doc = {"format_version": FORMAT_VERSION, "kind": loaded.kind, "name": pb.name}
    if loaded.kind == "moment":
        doc.update(
            dimension=pb.domain.dim,
            hull=_box_doc(pb.hull),
            boxes=[_box_doc(b) for b in pb.domain.boxes],
            objective=[format_expression(e) for e in pb.objective.pieces],
        )
        for key, constraints in (("inequalities", pb.inequalities), ("equalities", pb.equalities)):
            doc[key] = [
                {"pieces": [format_expression(e) for e in fn.pieces], "bound": bound}
                for fn, bound in constraints
            ]
    else:
        doc.update(domain=_box_doc(pb.domain), objective=format_expression(pb.objective), p=pb.p)
        for key, kernel, bound, box in (
            ("inequality", pb.kernel_a, pb.bound_a, pb.ineq_domain),
            ("equality", pb.kernel_b, pb.bound_b, pb.eq_domain),
        ):
            if kernel is not None:
                doc[key] = {
                    "kernel": format_expression(kernel),
                    "bound": format_expression(bound),
                    "box": _box_doc(box),
                }
    if loaded.solver:
        doc["solver"] = dict(loaded.solver)
    return doc


def write_problem(loaded: LoadedProblem, path: str | Path) -> None:
    write_json(problem_document(loaded), path)


# ---------------------------------------------------------------------------
# report documents


def _dual_doc(dual: DualPoint | None) -> dict | None:
    if dual is None:
        return None
    return {"y": [float(v) for v in dual.y], "z": [float(v) for v in dual.z]}


def _primal_slater_doc(rep: PrimalSlaterReport) -> dict:
    return {**asdict(rep), "margin": _finite_or_none(rep.margin)}


def _dual_slater_doc(rep: DualSlaterReport) -> dict:
    witness = _dual_doc(rep.witness)
    return {**asdict(rep), "margin": _finite_or_none(rep.margin), "witness": witness}


def _report_document(kind: str, name: str, report, timings, **fields) -> dict:
    """The fields every report has, then ``fields``; the gap is dual - primal as written."""
    primal = _finite_or_none(report.primal_value)
    dual = _finite_or_none(report.dual_value)
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "name": name,
        "status": report.status.value,
        "primal_value": primal,
        "dual_value": dual,
        "gap": None if primal is None or dual is None else dual - primal,
        "notes": list(report.notes),
        "timings": dict(timings or {}),
        **fields,
    }


def moment_report_document(
    report: DualityReport,
    name: str,
    config: SolverConfig,
    timings: Mapping[str, float] | None = None,
) -> dict:
    """Full report document for a moment-problem solve."""
    atoms = None
    if report.atoms is not None:
        atoms = [
            {"point": [float(v) for v in p], "weight": float(w), "box": int(i)}
            for p, w, i in zip(
                report.atoms.points, report.atoms.weights, report.atoms.box_indices
            )
        ]
    return _report_document(
        "moment", name, report, timings,
        max_dual_violation=_finite_or_none(report.max_dual_violation),
        iterations=report.iterations,
        atoms=atoms,
        dual=_dual_doc(report.dual),
        primal_slater=_primal_slater_doc(report.primal_slater),
        dual_slater=_dual_slater_doc(report.dual_slater),
        has_mass_bound=report.has_mass_bound,
        solver=asdict(config),
    )


def density_report_document(
    report: CollocationReport,
    name: str,
    p: float,
    slater: DensitySlaterReport | None = None,
    timings: Mapping[str, float] | None = None,
) -> dict:
    """Full report document for a density-problem solve."""
    slater_doc = None
    if slater is not None:
        slater_doc = {
            "margin": _finite_or_none(slater.margin),
            "feasible": slater.feasible,
            "capped": slater.capped,
            "equality_rank": slater.equality_rank,
            "n_equality_rows": slater.n_equality_rows,
        }
    return _report_document(
        "lp_density", name, report, timings,
        refined_primal_value=_finite_or_none(report.refined_primal_value),
        slater=slater_doc,
        solver={
            "p": p,
            "x_resolution": report.x_resolution,
            "y_resolution": report.y_resolution,
            "z_resolution": report.z_resolution,
            "gap_rtol": report.gap_rtol,
            "slater_resolution": None if slater is None else slater.x_resolution,
        },
    )


def write_report(doc: Mapping, path: str | Path) -> None:
    write_json(doc, path)


def load_report(path: str | Path) -> dict:
    """Read a report file back into a plain dict."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("report file must hold a JSON object")
    return doc
