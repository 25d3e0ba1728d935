"""measurelp benchmark: one closed-loop client, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cli_1d --seed 1 --seconds 20 --trace 0

One client sends the next problem only when the previous one has returned,
in a single process.  The run passes over the workload's fixed set of
seeded cases, once in full and then again until the timed calls add up to
``--seconds``, checks every output after its timer stops, prints every
metric by name with its unit, and ends with one JSON line.  ``--trace 0``
reports the end-to-end metrics, with every time adjusted for the host's
load by a gauge (see ``gauge``); ``--trace 1`` runs the set once untraced,
replays it with every layer wrapped (see spans.py), and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
GAUGE_LOOP = 10_000  # iterations of the host-speed gauge
GAUGE_REPEATS = 3
GAUGE_EVERY_S = 0.2  # gauge period inside a timed call
# the gauge's time on an idle core of the machine in baseline.json; times
# are reported at the host speed where the gauge takes this long
GAUGE_REF_S = 0.6e-3
# per-problem means of these call counts are reported next to every self time
COUNTED_CALLS = (
    "moment.make_cut", "expressions.evaluate", "moment.oracle_find", "simplex.solve_lp",
)


def _import_package():
    """Import measurelp from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "measurelp", "__init__.py")):
        sys.exit(f"error: no src/measurelp under {ROOT}; run from the repository root")
    sys.path.insert(0, SRC)
    import measurelp

    if not os.path.abspath(measurelp.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: measurelp imported from {measurelp.__file__}, not {SRC}")
    return measurelp


def _git_commit() -> str | None:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in threads},
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def gauge() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    On a shared host, other tenants' load can slow every instruction here
    by up to ~1.7x, for seconds or minutes at a time.  Timed next to every
    call, this loop measures by how much.
    """
    times = []
    for _ in range(GAUGE_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(GAUGE_LOOP):
            s += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Takes the gauge every GAUGE_EVERY_S of a timed call, from a timer signal.

    A 2 s call can span several swings of the host's load, which a gauge
    taken only before and after it would miss.  The time the samples take
    is counted in ``hidden_s`` and taken out of the call's latency.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.hidden_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(gauge())
        self.hidden_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def recording(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def closed_loop(wl, budget_s: float, passes: int | None = None, tracer=None):
    """Run the workload's cases in order, one pass after another.

    Runs one pass, then more until the timed calls reach ``budget_s``; or
    exactly ``passes`` passes when given.  Returns, per case, its calls as
    (latency, gauge) pairs, and the failures of all its calls.  The gauge
    is the mean of the host-speed gauges taken before, during and after the
    call; under a tracer no gauge is taken and it is 0.  A case that raises
    is a failed problem, not a failed run.  Time the tracer spends in its
    counter hooks, and the sampler in its gauges, is taken out of the
    latency.
    """
    calls = [[] for _ in wl.cases]
    failures = [[] for _ in wl.cases]
    done, busy = 0, 0.0
    target = len(wl.cases) * (passes or 1)
    sampler = None if tracer else Sampler()
    before = 0.0 if tracer else gauge()
    while done < target or (passes is None and busy < budget_s):
        k = done % len(wl.cases)
        case = wl.cases[k]
        watch = tracer or sampler
        hidden = watch.hidden_s
        if sampler:
            sampler.samples = []
        error = None
        t0 = time.perf_counter()
        try:
            with watch.recording():
                out = wl.call(case)
        except Exception as e:  # noqa: BLE001  (counted as a failed problem)
            error = e
        latency = time.perf_counter() - t0 - (watch.hidden_s - hidden)
        after = 0.0 if tracer else gauge()
        busy += latency
        speed = statistics.fmean([before, *sampler.samples, after]) if sampler else 0.0
        calls[k].append((latency, speed))
        before = after
        found = [wl.raised(error)] if error is not None else wl.check(case, out)
        for f in found:
            f = f._replace(message=f"{case.label}: {f.message}")
            if f not in failures[k]:
                failures[k].append(f)
        done += 1
    return calls, failures


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """Process start to first timed call, in SETUP_PROBES fresh processes.

    Returns (time, gauge) pairs, the gauge taken around each probe.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        before = gauge()
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        took = (int(proc.stdout.split()[-1]) - t0) / 1e9
        probes.append((took, (before + gauge()) / 2))
    return probes


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def adjusted(calls: list[list[tuple[float, float]]]) -> list[float]:
    """Each problem's time at the host speed where the gauge takes GAUGE_REF_S.

    A call's wall time is scaled by GAUGE_REF_S over the gauge around it,
    and a problem that ran more than once takes the mean of its calls.  Raw
    wall times swing with the load of the shared host; the adjusted ones
    follow the code.
    """
    return [statistics.fmean(t * GAUGE_REF_S / g for t, g in case) for case in calls]


def end_to_end(calls, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, every time adjusted by the gauge."""
    import numpy as np

    lat = adjusted(calls)
    return {
        "setup_s": _metric(statistics.median(adjusted([[p] for p in setup])), "s"),
        "problems_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_p90_s": _metric(np.percentile(lat, 90), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, layers, traced, untraced, failed_frac: float) -> dict:
    """Per-problem self time of every layer, plus counts and sizes."""
    n = len(traced)
    traced = [lat for case in traced for lat, _ in case]
    untraced = [lat for case in untraced for lat, _ in case]
    wall = sum(traced)
    out = {f"{name}.self_s": _metric(tracer.self_s[name] / n, "s") for name in sorted(layers)}
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = _metric(tracer.calls[name] / n, "count")
    c = tracer.counters
    for name, unit in (
        ("moment.exchange_solve.iterations", "count"),
        ("moment.exchange_solve.cuts", "count"),
        ("moment.check_dual_slater.iterations", "count"),
        ("expressions.evaluate_many.points", "count"),
        ("fileio.report_bytes", "B"),
    ):
        out[name] = _metric(c[name] / n, unit)
    cuts = c["moment.exchange_solve.cuts"]
    active = c["moment.exchange_solve.active_cuts"] / cuts if cuts else 0.0
    out["moment.exchange_solve.active_cut_frac"] = _metric(active, "1")
    for name, unit in (
        ("simplex.solve_lp.rows_max", "count"),
        ("simplex.solve_lp.cols_max", "count"),
        ("simplex.standardize.tableau_mb_max", "MB"),
    ):
        out[name] = _metric(tracer.maxima[name], unit)
    out["unattributed.self_s"] = _metric((wall - sum(tracer.self_s.values())) / n, "s")
    out["trace.problem_wall_s"] = _metric(wall / n, "s")
    out["trace.overhead_frac"] = _metric(wall / sum(untraced) - 1.0, "1")
    out["checks.failed_frac"] = _metric(failed_frac, "1")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``attempted`` is the number of cases in the workload's set and
    ``failed`` the number with a failure in any of their calls, so both
    depend only on the seed and the code.  ``--trace 1`` runs the set once
    untraced and once traced, whatever ``seconds`` is.  ``tiny`` shrinks
    the sets and the 2-D problems for the smoke test.
    """
    package = _import_package()
    from workloads import WORKLOADS

    setup = None if trace else setup_times(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        wl = WORKLOADS[workload](seed, tiny=tiny, workdir=workdir)
        if not trace:
            calls, failures = closed_loop(wl, seconds)
        else:
            import spans

            untraced, failures = closed_loop(wl, 0.0, passes=1)
            tracer = spans.Tracer()
            spans.install(tracer, package)
            traced, again = closed_loop(wl, 0.0, passes=1, tracer=tracer)
            failures = [a + [f for f in b if f not in a] for a, b in zip(failures, again)]
            tracer.save(os.path.join(OUT, f"trace_{workload}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for found in failures if found)
    if trace:
        layers = spans.layer_functions(package)
        metrics = per_layer(tracer, layers, traced, untraced, failed / len(failures))
    else:
        metrics = end_to_end(calls, setup)
    flat = [f for found in failures for f in found]
    notes = []
    if not trace:
        raw = [lat for case in calls for lat, _ in case]
        gauges = [g for case in calls for _, g in case]
        notes = [
            f"calls: {len(raw)}, raw wall latency median {statistics.median(raw):.6g} s",
            f"host slowdown (median gauge / GAUGE_REF_S): "
            f"{statistics.median(gauges) / GAUGE_REF_S:.4g}",
        ]
    return {
        "correct": all(f.kind != checks.WRONG for f in flat),
        "attempted": len(failures),
        "failed": failed,
        "metrics": metrics,
        "failures": sorted({f"{f.kind}: {f.message}" for f in flat}),
        "notes": notes,
    }


def _probe(workload: str, seed: int) -> None:
    """Set up as a run would, then print the monotonic clock where its first call starts."""
    _import_package()
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        WORKLOADS[workload](seed, workdir=workdir)
        print(time.monotonic_ns(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_1d", "exchange_1d", "moment_2d", "density_2d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _probe(args.workload, args.seed)
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in result.pop("failures"):
        print(f"failure: {message}", file=sys.stderr)
    for line in result.pop("notes"):
        print(line)
    print(f"environment: {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"problems: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
