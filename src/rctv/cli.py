"""Command-line frontend: simulate, denoise, metrics, rankest, bench.

main runs every subcommand: it exits at once if the file name of --output
is empty ("" or out/), if the directory of --output is missing or if
--output itself names a directory (except for metrics, whose --output is a
base name and may name a directory other than "." or ".."), caps BLAS
threads, times the command and writes a JSON manifest next to its primary
output (none if the command fails), so results can be reproduced:
simulate replays bit-exactly from (input, case, profile, seed); denoise is
deterministic for fixed inputs on one platform.  Every manifest holds
command, args (the parsed flags; a denoise override flag that was not
given is null), code_version, numpy_version, python_version and wall_ms,
then the command's own keys:

- simulate: windows_rescaled;
- denoise: config, iterations, stop_reason ("converged" or "max_iter"),
  s_first_iter (the first iteration in which the sparse term S left zero,
  null if it never did), solve_ms, input_sha256 (the SHA-256 of the input
  file), peak_rss_mib (the process's peak resident memory), signal_dims
  and rank_bound (as for rankest; null unless --rank auto, which
  args.rank records), threads_applied;
- metrics: none;
- rankest: rank, the one --rank auto uses, signal_dims (HySime's count
  before the clamp) and rank_bound ("low" or "high" when that end of the
  clamp set the rank, null when HySime did);
- bench: threads_applied.

The BLAS thread cap covers the whole command.  denoise takes it from
--threads (default: none, so machine parallelism); bench always caps to
one thread; the others run uncapped.  A cap must be an integer >= 1;
denoise rejects any other value before it reads the input.
args.threads records the cap asked for (null when none was) and
threads_applied the cap in force.  Caps go through threadpoolctl: without
it no cap applies, a warning goes to stderr, and threads_applied is null.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

import rctv
from rctv.cube import HsiCube, fold_casorati, read_cube, unfold_casorati, write_cube
from rctv.linalg import RankEstimate, estimate_rank
from rctv.metrics import CSV_COLUMNS, compute_report
from rctv.noisesim import CASES, PROFILES, apply_case
from rctv.solver import (
    PRESETS,
    DenoiseConfig,
    check_solvable,
    denoise,
    diagnostics_to_jsonl,
    solve,
)

# The DenoiseConfig fields that denoise flags override, as (flag, args
# dest, field, type, help).  Each flag defaults to None, which keeps the
# value of --preset's config.
OVERRIDES = (
    ("--tau", "tau", "tau", float, "TV weight"),
    ("--beta", "beta", "beta", float, "Gaussian-noise weight"),
    ("--lambda", "lam", "lam", float, "sparse-noise weight"),
    ("--mu0", "mu0", "mu0", float, "initial ADMM penalty"),
    ("--rho", "rho", "rho", float, "penalty growth factor"),
    ("--eps", "eps", "epsilon", float, "convergence tolerance"),
    ("--max-iter", "max_iter", "max_iter", int, "iteration cap"),
)

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # declared dep; without it _thread_cap warns
    threadpool_limits = None


@contextmanager
def _thread_cap(threads: int | None):
    """Cap BLAS threads inside the block; yields the cap applied, or None.

    A requested cap that cannot be applied is reported on stderr, not
    dropped silently.
    """
    if threads is None:
        yield None
    elif threadpool_limits is None:
        print(
            f"warning: BLAS thread cap {threads} not applied: "
            "threadpoolctl is not installed",
            file=sys.stderr,
        )
        yield None
    else:
        with threadpool_limits(limits=threads):
            yield threads


def _positive_int(text: str) -> int:
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _sha256(path) -> str:
    """SHA-256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        while chunk := fp.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, indent=2)
        fp.write("\n")


def _write_manifest(path, args, wall_ms: float, extra: dict) -> None:
    _write_json(path, {
        "command": args.subcommand,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "code_version": rctv.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "wall_ms": wall_ms,
        **extra,
    })


def cmd_simulate(args) -> tuple[str, dict]:
    # The clean cube is not kept, so that the write's float32 payload is not
    # a third M*N x B array beside it and the noisy one.
    noisy, record = apply_case(read_cube(args.input), args.case, args.profile, args.seed)
    write_cube(noisy, args.output)
    _write_json(str(args.output) + ".noise.json", record.to_json_obj())
    print(f"wrote {args.output} (case {args.case}, profile {args.profile}, seed {args.seed})")
    return str(args.output) + ".manifest.json", {"windows_rescaled": record.windows_rescaled}


def _rank_keys(est: RankEstimate | None) -> dict:
    """The rank decision's manifest keys; null when no estimate was made."""
    return {
        "signal_dims": None if est is None else est.signal_dims,
        "rank_bound": None if est is None else est.bound,
    }


def _parse_rank(text: str):
    return "auto" if text == "auto" else _positive_int(text)


def cmd_denoise(args) -> tuple[str, dict]:
    given = {field: getattr(args, dest) for _, dest, field, _, _ in OVERRIDES}
    overrides = {field: value for field, value in given.items() if value is not None}
    # A bad flag fails here, before the input is read.
    cfg = DenoiseConfig.preset(args.preset, rank=args.rank, **overrides)
    # The path, not a read cube: on CPython 3.10 an argument stays
    # referenced for the whole call, so the raw cube would outlive its use
    # and add an M*N x B array to the solve's peak.  denoise() also checks
    # the plane and the rank on the header, before the payload is read.
    result = denoise(args.input, cfg)
    # Hashed after the checks but before the write, as --output may name
    # the input.
    input_sha256 = _sha256(args.input)
    cfg, diags = result.config, result.diagnostics
    write_cube(result.cube, args.output)
    diagnostics_to_jsonl(diags, str(args.output) + ".diag.jsonl")
    print(
        f"wrote {args.output} (preset {args.preset}, rank {cfg.rank}, "
        f"{len(diags)} iterations)"
    )
    return str(args.output) + ".manifest.json", {
        # The manifest spells lam as the --lambda flag does.
        "config": {
            "lambda" if k == "lam" else k: v for k, v in dataclasses.asdict(cfg).items()
        },
        **_rank_keys(result.rank_estimate),
        "iterations": len(diags),
        "stop_reason": "converged" if diags[-1].converged(cfg.epsilon) else "max_iter",
        "s_first_iter": next((d.iteration for d in diags if d.s_active), None),
        "s_nnz_frac": diags[-1].s_nnz_frac,
        "solve_ms": result.solve_ms,
        "input_sha256": input_sha256,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def cmd_metrics(args) -> tuple[str, dict]:
    ref = read_cube(args.reference)
    test = read_cube(args.input)
    report = compute_report(ref, test)
    base = str(args.output)
    _write_json(base + ".json", report.to_json_obj())
    with open(base + ".csv", "w", encoding="utf-8") as fp:
        fp.write(",".join(CSV_COLUMNS) + "\n")
        fp.write(report.to_csv_row() + "\n")
    print(
        f"mpsnr={report.mpsnr:.4f} mssim={report.mssim:.6f} "
        f"ergas={report.ergas:.4f} msam={report.msam:.6f}"
    )
    return base + ".manifest.json", {}


def cmd_rankest(args) -> tuple[str, dict]:
    est = estimate_rank(unfold_casorati(read_cube(args.input)))
    print(est.rank)
    path = args.output or (str(args.input) + ".rankest.manifest.json")
    return path, {"rank": est.rank, **_rank_keys(est)}


def _parse_sizes(text: str) -> list[tuple[int, int, int]]:
    sizes = []
    for part in text.split(","):
        dims = part.lower().split("x")
        if len(dims) != 3 or not all(d.strip().isdecimal() for d in dims):
            raise argparse.ArgumentTypeError(f"bad size {part!r}, expected MxNxB")
        sizes.append(tuple(int(d) for d in dims))
    return sizes


def _parse_ranks(text: str) -> list[int]:
    return [_positive_int(r) for r in text.split(",")]


def bench_cube(height: int, width: int, bands: int, seed: int) -> HsiCube:
    """Synthetic low-rank-plus-noise cube in [0, 1] for timing runs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rank = max(2, bands // 8)
    u = rng.random((height * width, rank))
    v = rng.random((bands, rank))
    x = u @ v.T
    x += 0.05 * rng.standard_normal(x.shape)
    x -= x.min()
    x /= x.max()
    return fold_casorati(x, height, width)


def run_bench(
    sizes: list[tuple[int, int, int]], ranks: list[int], reps: int, max_iter: int, seed: int
) -> list[tuple[int, int, int, int, int, float]]:
    """Time full solves over a size/rank grid.

    Returns (M, N, B, R, rep, wall_ms) rows.  epsilon is set tiny so every
    run executes exactly max_iter iterations.  Runs under the caller's BLAS
    thread setting; the bench subcommand caps it to one thread.  Every
    (size, rank) pair is checked before the first cube is built.  Each
    repetition runs the whole grid once, so host load spreads over all cells.
    """
    for m, n, b in sizes:
        for rank in ranks:
            try:
                check_solvable(m, n, b, rank)
            except ValueError as exc:
                raise ValueError(f"size {m}x{n}x{b}, rank {rank}: {exc}") from None
    cubes = [bench_cube(m, n, b, seed) for m, n, b in sizes]
    rows = []
    for rep in range(reps):
        for (m, n, b), cube in zip(sizes, cubes):
            for rank in ranks:
                cfg = DenoiseConfig.preset("mixed", rank=rank, max_iter=max_iter, epsilon=1e-30)
                t0 = time.perf_counter()
                solve(cube, cfg)
                rows.append((m, n, b, rank, rep, (time.perf_counter() - t0) * 1e3))
    return rows


def cmd_bench(args) -> tuple[str, dict]:
    rows = run_bench(args.sizes, args.ranks, args.reps, args.max_iter, args.seed)
    with open(args.output, "w", encoding="utf-8") as fp:
        fp.write("M,N,B,R,rep,wall_ms\n")
        for m, n, b, r, rep, ms in rows:
            fp.write(f"{m},{n},{b},{r},{rep},{ms:.3f}\n")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return str(args.output) + ".manifest.json", {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rctv",
        description="Mixed-noise removal for hyperspectral cubes via a "
        "low-rank factorization with total variation on the coefficient slices.",
    )
    parser.add_argument("--version", action="version", version=rctv.__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="corrupt a clean cube with one of the noise cases")
    p.add_argument("--input", required=True, help="clean .hsic cube")
    p.add_argument("--output", required=True, help="corrupted .hsic cube to write")
    p.add_argument("--case", required=True, choices=CASES, help="noise case")
    p.add_argument(
        "--profile",
        default="msi31",
        choices=PROFILES,
        help="band-window profile (windows rescale for other band counts)",
    )
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("denoise", help="restore a noisy cube")
    p.add_argument("--input", required=True, help="noisy .hsic cube")
    p.add_argument("--output", required=True, help="restored .hsic cube to write")
    p.add_argument(
        "--preset",
        default="mixed",
        choices=PRESETS,
        help="; ".join(
            f"{name}: beta={params['beta']:g}, lambda={params['lam']:g}"
            for name, params in PRESETS.items()
        ),
    )
    p.add_argument(
        "--rank",
        type=_parse_rank,
        default="auto",
        help="subspace dimension R, or 'auto' for the estimate rankest prints",
    )
    for flag, dest, field, kind, what in OVERRIDES:
        preset = any(field in params for params in PRESETS.values())
        default = "from --preset" if preset else f"{getattr(DenoiseConfig, field):g}"
        p.add_argument(flag, dest=dest, type=kind, default=None, help=f"{what} (default {default})")
    p.add_argument("--threads", type=_positive_int, default=None, help="BLAS thread cap")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("metrics", help="score a restored cube against a reference")
    p.add_argument("--reference", required=True, help="clean reference .hsic cube")
    p.add_argument("--input", required=True, help="cube to score")
    p.add_argument(
        "--output",
        required=True,
        help="output base path; writes <base>.json and <base>.csv "
        f"(CSV columns: {','.join(CSV_COLUMNS)})",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("rankest", help="estimate the subspace dimension of a cube")
    p.add_argument("--input", required=True, help=".hsic cube")
    p.add_argument("--output", default=None, help="manifest path override")
    p.set_defaults(func=cmd_rankest)

    p = sub.add_parser("bench", help="time solves over a size/rank grid (1 thread)")
    p.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=[(128, 128, 32)],
        help="comma-separated MxNxB grid sizes",
    )
    p.add_argument(
        "--ranks", type=_parse_ranks, default=[2, 4, 8, 16], help="comma-separated ranks"
    )
    p.add_argument("--reps", type=_positive_int, default=1, help="repetitions per cell")
    p.add_argument(
        "--max-iter", type=_positive_int, default=20, help="iterations per solve"
    )
    p.add_argument("--seed", type=int, default=0, help="synthetic cube seed")
    p.add_argument("--output", required=True, help="CSV path")
    # No --threads flag: bench always times one BLAS thread.
    p.set_defaults(func=cmd_bench, threads=1)

    return parser


def main(argv=None) -> int:
    """Run one subcommand under its thread cap, time it, write its manifest.

    Each cmd_* returns its manifest path and its own manifest keys.
    """
    args = build_parser().parse_args(argv)
    try:
        # Every subcommand has --output (optional only for rankest, whose
        # default is None); its file name may not be empty ("" or a path
        # ending in a separator names no file).  Its directory is taken as
        # written, so "missing/." is missing.  For metrics it is a base
        # name, so only there may it name a directory, and then not as "."
        # or "..", whose <base>.json would be a hidden "..json" or "...json".
        if args.output is not None and not os.path.basename(args.output):
            raise ValueError(f"--output {args.output!r}: file name is empty")
        if args.output and not os.path.isdir(os.path.dirname(args.output) or os.curdir):
            raise ValueError(f"--output {args.output}: directory does not exist")
        if args.output and os.path.isdir(args.output) and (
            args.subcommand != "metrics" or os.path.basename(args.output) in (".", "..")
        ):
            raise ValueError(f"--output {args.output}: is a directory")
        # Only denoise (--threads) and bench (always 1) have a threads value.
        threads = getattr(args, "threads", None)
        t0 = time.perf_counter()
        with _thread_cap(threads) as threads_applied:
            path, extra = args.func(args)
        wall_ms = (time.perf_counter() - t0) * 1e3
        if "threads" in args:
            extra["threads_applied"] = threads_applied
        _write_manifest(path, args, wall_ms, extra)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
