"""Benchmark of hoeg's three entry points: recipes, certification and the flow.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs whole passes of its operations in a
closed loop from one process and one thread, with BLAS pinned to one thread,
until another pass would overrun ``--seconds``; every operation's output is
checked.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it first checks the tracing harness (``selfcheck.py``), makes
one untraced pass, then traced passes, and reports per-layer metrics per
traced pass.  Traced runs also write their spans and per-name statistics to
``.perfbench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120


def prepare_environment() -> None:
    """Pin BLAS to one thread and import hoeg from this checkout's ``src``; call before importing numpy."""
    if not os.path.isfile(os.path.join(SRC, "hoeg", "__init__.py")):
        raise SystemExit(f"error: no hoeg package under {SRC}; run from the root of a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(1, BENCH_DIR)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR] + [p for p in
                                               os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def machine(np) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(workload: str, seed: int, gauge) -> float:
    """Median time, at the reference speed, of a fresh interpreter importing hoeg and building the workload."""
    code = (f"import hoeg, workloads; "
            f"workloads.build({workload!r}, hoeg, {seed}, {OUT_DIR!r}).close()")
    times = []
    for _ in range(SETUP_REPEATS):
        with gauge.bracketed() as unit:
            subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(unit.seconds)
    return statistics.median(times)


def run_passes(workload, seconds: float, new_operation, gauge) -> list:
    """Closed loop of whole passes: at least one, and none that would end, in wall time, after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(new_operation, gauge))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def rate(outcomes, orders=(1, 2)) -> float:
    """Work units per second, at the reference speed, of the operations of the given orders."""
    timed = [o for o in outcomes if o.order in orders and o.seconds > 0]
    seconds = sum(o.seconds for o in timed)
    return sum(o.work for o in timed) / seconds if seconds > 0 else 0.0


def end_to_end(passes, setup_s: float) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "rate": (rate(outcomes), "1/s"),
        "ok_frac": (sum(o.ok for o in outcomes) / len(outcomes), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, passes, base) -> dict:
    """Per-layer metrics, each per traced pass, plus the order split of the untraced ``base`` pass."""
    n = len(passes)
    extras = {}
    for p in passes:
        for key, value in p.extras.items():
            extras[key] = extras.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    def names(prefix):
        return [name for name in tracer.stats if name.startswith(prefix)]

    def total(attr, *names_):
        return sum(tracer.field(name, attr) for name in names_)

    halfstep = names("halfstep.")
    hs_calls = tracer.count("halfstep.solve_half_step_p2")
    hs_solves = total("solves_inside", *halfstep)
    scan = "certify.estimate_q_rho" if "certify._rho_scan" in tracer.absent else "certify._rho_scan"
    resolvent = "dynamics.resolvent_solve"
    traced_pass_s = statistics.median(p.wall for p in passes)
    metrics = {
        "rate.p1": (rate(base.outcomes, (1,)), "1/s"),
        "rate.p2": (rate(base.outcomes, (2,)), "1/s"),
        "halfstep.calls": (hs_calls / n, "count"),
        "halfstep.solves": (hs_solves / n, "count"),
        "halfstep.solves_per_call": (ratio(hs_solves, hs_calls), "solves/call"),
        "halfstep.self_s": (tracer.layer_self_s("halfstep") / n, "s"),
        "halfstep.failures": (total("failures", *halfstep) / n, "count"),
        "problems.F_evals": (tracer.count("problem.grad_x") / n, "count"),
        "problems.jac_evals": (tracer.count("problem.operator_jacobian") / n, "count"),
        "problems.self_s": (tracer.layer_self_s("problems") / n, "s"),
        "competitive.falpha_evals": (tracer.count("problem.mixed_hessian") / n, "count"),
        "competitive.self_s": (tracer.layer_self_s("competitive") / n, "s"),
        "certify.rho_scans_per_call": (ratio(tracer.count(scan), tracer.count("certify.certify_problem")),
                                       "scans/call"),
        "certify.samples_used_frac": (ratio(extras.get("samples_used", 0), extras.get("samples_requested", 0)),
                                      "frac"),
        "certify.rho_scan_s": (tracer.field(scan, "incl_s") / n, "s"),
        "certify.smoothness_s": (tracer.field("certify.estimate_smoothness", "incl_s") / n, "s"),
        "certify.comono_s": (tracer.field("certify.estimate_comonotonicity", "incl_s") / n, "s"),
        "certify.sampling_s": (total("incl_s", "certify.sample_points", "certify.sample_pairs") / n, "s"),
        "taylor.models": (tracer.count("taylor.taylor_model") / n, "count"),
        "taylor.self_s": (tracer.layer_self_s("taylor") / n, "s"),
        "dynamics.resolvent_calls": (tracer.count(resolvent) / n, "count"),
        "dynamics.resolvent_F_evals_per_call": (ratio(tracer.field(resolvent, "f_inside"),
                                                      tracer.count(resolvent)), "evals/call"),
        "dynamics.resolvent_s": (tracer.field(resolvent, "incl_s") / n, "s"),
        "dynamics.resolvent_failures": (tracer.field(resolvent, "failures") / n, "count"),
        "dynamics.self_s": (tracer.layer_self_s("dynamics") / n, "s"),
        "solver.iters": (extras.get("records", 0) / n, "count"),
        "solver.self_s": (tracer.layer_self_s("solver") / n, "s"),
        "solver.iters_to_tol": (extras.get("iters_to_tol", 0) / n, "count"),
        "solver.useful_iter_frac": (ratio(extras.get("out_used", 0), extras.get("records", 0)), "frac"),
        "recipes.self_s": (tracer.layer_self_s("recipes") / n, "s"),
        "svgplot.svg_s": (total("incl_s", *names("svgplot.")) / n, "s"),
        "svgplot.bytes": (tracer.svg_bytes / n, "B"),
        "linalg.solves": (tracer.count("linalg.solve") / n, "count"),
        "linalg.self_s": (tracer.layer_self_s("linalg") / n, "s"),
        "trace.pass_s": (traced_pass_s, "s"),
        "trace.overhead_frac": (traced_pass_s / base.wall - 1.0, "frac"),
    }
    return metrics


def write_trace(tracer, workload: str, seed: int, info: dict) -> str:
    stem = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}")
    tracer.write_spans(stem + ".spans.tsv")
    stats = {name: {"layer": st.layer, "calls": st.calls, "failures": st.failures,
                    "self_s": st.self_s, "incl_s": st.incl_s, "F_evals_inside": st.f_inside,
                    "solves_inside": st.solves_inside}
             for name, st in sorted(tracer.stats.items())}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**info, "absent": tracer.absent, "solves_by_layer": tracer.solves_by_layer,
                   "spans": tracer.span_count(), "by_name": stats}, handle, indent=1)
    return stem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "certify", "flow"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    import hoeg
    import numpy as np

    if not os.path.abspath(hoeg.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"error: imported hoeg from {hoeg.__file__}, not from {SRC}")
    import spans
    import workloads
    from selfcheck import run_selfcheck
    from speed import REF_SLICE_S, Gauge

    os.makedirs(OUT_DIR, exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(np)}
    gauge = Gauge()
    setup_s = measure_setup(args.workload, args.seed, gauge)
    workload = workloads.build(args.workload, hoeg, args.seed, OUT_DIR)
    problems = []
    try:
        workload.warm()
        if not args.trace:
            passes = run_passes(workload, args.seconds, lambda: None, gauge)
            metrics = end_to_end(passes, setup_s)
        else:
            problems.extend(f"selfcheck: {msg}" for msg in run_selfcheck(hoeg, np))
            start = time.perf_counter()
            base = workload.run_pass(lambda: None, gauge)
            remaining = max(args.seconds - (time.perf_counter() - start), 0.0)
            tracer = spans.Tracer(hoeg, np)
            tracer.install()
            try:
                workload.instrument(tracer)
                tracer.reset()
                passes = run_passes(workload, remaining, tracer.new_operation, Gauge(sample=False))
            finally:
                tracer.uninstall()
            passes.insert(0, base)
            metrics = per_layer(tracer, passes[1:], base)
            stem = write_trace(tracer, args.workload, args.seed, info)
            print(f"spans and per-name statistics: {os.path.relpath(stem, ROOT)}.*")
            if tracer.absent:
                print(f"absent in this tree (not measured): {', '.join(tracer.absent)}")
    finally:
        workload.close()

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.correct for o in outcomes)
    for o in outcomes:
        print(f"op {o.label}: order {o.order}, {o.work} work units in {o.seconds:.4f} s "
              f"at reference speed ({o.wall:.4f} s wall)")
        if not o.ok:
            state = "; ".join(o.mismatches) or "ended with a failure; its output matches the reference"
            print(f"not ok: {o.label}: {state}")
    problems.extend(m for o in outcomes for m in o.mismatches)
    print(f"machine: {json.dumps(info['machine'])}")
    print(f"host speed: {len(gauge.slices)} calibration slices, median {statistics.median(gauge.slices):.5f} s "
          f"(min {min(gauge.slices):.5f}, max {max(gauge.slices):.5f}); reference {REF_SLICE_S} s")
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), {len(outcomes)} operations, "
          f"{failed} failed, {sum(o.ok for o in outcomes)} ok; work unit: {workload.work_unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
