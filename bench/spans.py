"""Outside-in layer trace: spans around measurelp's public functions.

``install`` wraps every public function of the eight modules, and the scan
oracle's ``find``, and patches each wrapper into every measurelp module that
holds the function, so ``measurelp.moment.solve_lp`` and
``measurelp.density.solve_lp`` both record.  The package source is not
touched.  A span records its name, parent, start and end; the tracer keeps
spans in memory and ``save`` writes them out when the run ends.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("simplex", "expressions", "geometry", "moment", "density", "options", "fileio", "cli")
ORACLE_FIND = "moment.oracle_find"


def layer_functions(package) -> dict[str, object]:
    """Span name -> original function, for every public function traced."""
    import measurelp.cli  # noqa: F401  (the package does not import its CLI)

    found = {}
    for mod_name in MODULES:
        mod = getattr(package, mod_name)
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and attr[0] != "_":
                found[f"{mod_name}.{attr}"] = obj
    found[ORACLE_FIND] = package.moment._ScanOracle.find
    return found


class Tracer:
    """Spans and counters for the calls made while ``recording`` is active."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._covered: list[float] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.hidden_s = 0.0  # time spent in counter hooks, kept out of every span
        self.active = False

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def wrap(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._open.append(sid)
            self._covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                covered = self._covered.pop()
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                self.self_s[name] += (t1 - t0) - covered
                self.calls[name] += 1
                if self._covered:
                    self._covered[-1] += t1 - t0
            if after is not None:
                after(self, args, kwargs, result)
                hidden = clock() - t1
                self.hidden_s += hidden
                if self._covered:
                    self._covered[-1] += hidden
            return result

        return traced

    def save(self, path: str) -> None:
        """Write every span (name, parent, start, end) as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )


# ---------------------------------------------------------------------------
# counters computed from a call's arguments and result, outside every span


def _exchange_stats(fn):
    signature = inspect.signature(fn)

    def after(tr: Tracer, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tr.counters["moment.exchange_solve.iterations"] += result.iterations
        tr.counters["moment.exchange_solve.cuts"] += len(result.cuts)
        if result.dual is None or not result.cuts:
            return
        yz = np.concatenate([result.dual.y, result.dual.z])
        rows = np.array([c.phi + c.psi for c in result.cuts]).reshape(len(result.cuts), -1)
        slack = rows @ yz - np.array([c.h for c in result.cuts])
        tr.counters["moment.exchange_solve.active_cuts"] += int(
            np.count_nonzero(slack <= bound.arguments["tol"])
        )

    return after


def _slater_iterations(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["moment.check_dual_slater.iterations"] += result.iterations


def _evaluate_many_points(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["expressions.evaluate_many.points"] += len(result)


def _lp_shape(tr: Tracer, args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["p"]
    tr.maxima["simplex.solve_lp.rows_max"] = max(tr.maxima["simplex.solve_lp.rows_max"], lp.n_rows)
    tr.maxima["simplex.solve_lp.cols_max"] = max(tr.maxima["simplex.solve_lp.cols_max"], lp.n_vars)


def _tableau_size(tr: Tracer, args, kwargs, result) -> None:
    # computed, not measured: _solve_standard's tableau is m x (n + m + 1) floats
    m, n = result.rows.shape
    mb = m * (n + m + 1) * 8 / 1e6
    tr.maxima["simplex.standardize.tableau_mb_max"] = max(
        tr.maxima["simplex.standardize.tableau_mb_max"], mb
    )


def _report_bytes(tr: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counters["fileio.report_bytes"] += os.path.getsize(path)


def _hooks(originals) -> dict:
    return {
        "moment.exchange_solve": _exchange_stats(originals["moment.exchange_solve"]),
        "moment.check_dual_slater": _slater_iterations,
        "expressions.evaluate_many": _evaluate_many_points,
        "simplex.solve_lp": _lp_shape,
        "simplex.standardize": _tableau_size,
        "fileio.write_report": _report_bytes,
    }


def install(tracer: Tracer, package) -> None:
    """Patch a traced wrapper over every binding of every layer function."""
    originals = layer_functions(package)
    hooks = _hooks(originals)
    wrappers = {
        id(fn): (fn, tracer.wrap(name, fn, hooks.get(name)))
        for name, fn in originals.items()
    }
    prefix = package.__name__
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    oracle = package.moment._ScanOracle
    oracle.find = wrappers[id(originals[ORACLE_FIND])][1]
