"""Run one rctv benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload wideband --seed 1 --seconds 30 --trace 0

The program is imported from ./src.  BLAS is pinned to one thread before
numpy loads, and the count in effect is read back from OpenBLAS; the run is
refused unless it is 1.  Each workload has inputs_per_run inputs, built
from --seed; repetitions cycle through them, each one setting its input up
afresh, running the timed section and checking the outputs, until --seconds
have passed and every input has run.  Timings are medians over repetitions;
quality and iteration counts are means over inputs, which is what keeps
them steady from seed to seed.  setup_s is the median start-up of a fresh
interpreter importing rctv plus the median time to build one input.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
with no wrapper installed.  With --trace 1 they are its per_layer list:
repetitions alternate untraced and traced, and the traced ones record spans
of every rctv function (see tracing.py), which are written to
.perfbench_out/ when the run ends.  The line before the result is the
environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

OUT_DIR = ".perfbench_out"
STARTUP_REPEATS = 3
# Self times of a traced repetition must add up to its wall time within this
# share; the rest is benchmark glue between rctv calls.
TRACE_COVERAGE_TOL = 0.02


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def program_startup_s(src: str) -> float:
    """Median time for a fresh interpreter to start and import every rctv module."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rctv.cli"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rep(workload, inputs, tracer):
    """One timed section; returns its Rep (error set on any failure)."""
    from workloads import Rep

    ctx = tracer if tracer is not None else contextlib.nullcontext()
    result = error = None
    with ctx:
        t0 = time.perf_counter()
        try:
            result = workload.timed(inputs)
        except Exception:
            error = traceback.format_exc()
        wall_s = time.perf_counter() - t0
    if error is not None:
        return Rep(wall_s=wall_s, error=error)
    try:
        rep = workload.check(inputs, result, wall_s)
    except Exception:
        return Rep(wall_s=wall_s, error=traceback.format_exc())
    if tracer is not None and rep.error is None:
        coverage = tracer.total_self_s() / wall_s
        if abs(coverage - 1.0) > TRACE_COVERAGE_TOL:
            rep.error = f"trace self times cover {coverage:.4f} of the traced wall time"
    return rep


def end_to_end(ok, reps, setup_s) -> dict:
    values = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / len(reps),
    }
    if ok:
        values["wall_s"] = statistics.median(r.wall_s for r in ok)
        values["iter_ms"] = statistics.median(1e3 * r.solve_s / r.iterations for r in ok)
        # Outputs are deterministic per input: average one value per input.
        per_input = list({r.input_index: r for r in ok}.values())
        values["iterations"] = statistics.fmean(r.iterations for r in per_input)
        for key in per_input[0].quality:
            values[key] = statistics.fmean(r.quality[key] for r in per_input)
    return values


def per_layer(traced, untraced_walls) -> dict:
    stats = [tracer.stats() for tracer, _ in traced]
    keys = set().union(*stats)
    values = {k: statistics.median(s.get(k, 0.0) for s in stats) for k in keys}
    walls = [rep.wall_s for _, rep in traced]
    values["trace.coverage_frac"] = statistics.median(
        tracer.total_self_s() / rep.wall_s for tracer, rep in traced
    )
    if untraced_walls:
        values["trace.overhead_frac"] = statistics.median(walls) / statistics.median(untraced_walls) - 1.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads: OpenBLAS sizes its thread pool at load time.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rctv", "__init__.py")):
        return fail(f"no program source under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fp:
            spec = json.load(fp)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, src)

    import rctv

    if os.path.dirname(os.path.abspath(rctv.__file__)) != os.path.join(src, "rctv"):
        return fail(f"imported rctv from {rctv.__file__}, not from {src}")

    import envinfo
    import tracing
    import workloads

    try:
        threads, blas_config = envinfo.require_one_thread()
    except envinfo.BlasCheckError as exc:
        return fail(str(exc), code=3)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = envinfo.environment(
        root, src, threads, blas_config,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
    )
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = os.path.join(root, OUT_DIR, f"work-{tag}")
    try:
        startup_s = program_startup_s(src)
        reps, traced, untraced_walls, setup_times = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            index = len(reps) % wl.inputs_per_run
            inputs = None  # release the previous inputs before building new ones
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed * wl.inputs_per_run + index, workdir)
            setup_times.append(time.perf_counter() - t0)
            tracer = None
            if args.trace and len(reps) % 2 == 1:
                tracer = tracing.Tracer(f"{tag}-rep{len(reps)}", mn_rows=wl.shape[0] * wl.shape[1])
            rep = run_rep(wl, inputs, tracer)
            rep.input_index = index
            reps.append(rep)
            if rep.error is not None:
                print(f"perfbench: repetition {len(reps)} failed: {rep.error}", file=sys.stderr)
            elif tracer is not None:
                traced.append((tracer, rep))
            else:
                untraced_walls.append(rep.wall_s)
            if time.perf_counter() >= deadline and len(reps) >= max(wl.inputs_per_run, 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [r for r in reps if r.error is None]
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(traced, untraced_walls) if traced else {}
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        tracing.write_spans(
            os.path.join(root, OUT_DIR, f"spans-{tag}.jsonl"), env, [t for t, _ in traced]
        )
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(ok, reps, startup_s + statistics.median(setup_times))
    failed = len(reps) - len(ok)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0 if args.trace else None), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0 and (not args.trace or bool(traced)),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
