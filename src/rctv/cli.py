"""Command-line frontend: simulate, denoise, metrics, rankest, bench.

Every run writes a JSON manifest next to its primary output recording the
command, config, paths, seed, code version, and wall time, so results can
be reproduced: simulate replays bit-exactly from (input, case, profile,
seed); denoise is deterministic for fixed inputs on one platform.

BLAS thread count is capped by --threads or the RCTV_THREADS environment
variable (default: machine parallelism); the benchmark subcommand caps it
to one thread.  The denoise and bench manifests record the cap asked for
as threads_requested (null when none was) and the cap in force as
threads_applied.  Caps go through threadpoolctl: without it no cap
applies, a warning goes to stderr, and threads_applied is null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

import rctv
from rctv.cube import (
    HsiCube,
    denormalize_bands,
    fold_casorati,
    normalize_bands,
    read_cube,
    unfold_casorati,
    write_cube,
)
from rctv.linalg import gram_eigh
from rctv.metrics import CSV_COLUMNS, compute_report
from rctv.noisesim import CASES, apply_case
from rctv.solver import DenoiseConfig, diagnostics_to_jsonl, solve

DEFAULT_ENERGY_FRACTION = 0.995

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # declared dep; without it _thread_cap warns
    threadpool_limits = None


def estimate_rank(
    y: np.ndarray,
    energy_fraction: float = DEFAULT_ENERGY_FRACTION,
    bounds: tuple[int, int] | None = None,
) -> int:
    """Smallest R whose leading singular values carry the energy fraction.

    Energy is cumulative squared singular values over their total; the
    squared singular values are the eigenvalues of the B x B Gram matrix
    Y^T Y.  The result is clamped to bounds, which default to
    (2, ceil(0.15 * B)): the typical subspace dimension of a B-band cube is
    a small fraction of B.  It never exceeds B, so a 1-band cube gets
    rank 1.
    """
    if not 0 < energy_fraction <= 1:
        raise ValueError("energy_fraction must lie in (0, 1]")
    energy, _ = gram_eigh(y)
    total = float(np.sum(energy))
    if total == 0.0:
        raise ValueError("cannot estimate rank of an all-zero matrix")
    if bounds is None:
        bounds = (2, math.ceil(0.15 * energy.size))
    lo, hi = bounds
    hi = max(hi, lo)
    cum = np.cumsum(energy) / total
    r = int(np.searchsorted(cum, energy_fraction) + 1)
    return min(max(r, lo), hi, energy.size)


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


def _resolve_threads(args) -> int | None:
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get("RCTV_THREADS")
    return int(env) if env else None


def _write_manifest(path, command: str, args_snapshot: dict, wall_ms: float, extra=None):
    manifest = {
        "command": command,
        "args": args_snapshot,
        "code_version": rctv.__version__,
        "wall_ms": wall_ms,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2)
        fp.write("\n")


def _args_snapshot(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cube = read_cube(args.input)
    noisy, record = apply_case(cube, args.case, args.profile, args.seed)
    write_cube(noisy, args.output)
    with open(str(args.output) + ".noise.json", "w", encoding="utf-8") as fp:
        json.dump(record.to_json_obj(), fp, indent=2)
        fp.write("\n")
    _write_manifest(
        str(args.output) + ".manifest.json",
        "simulate",
        _args_snapshot(args),
        (time.perf_counter() - t0) * 1e3,
        extra={"windows_rescaled": record.windows_rescaled},
    )
    print(f"wrote {args.output} (case {args.case}, profile {args.profile}, seed {args.seed})")
    return 0


def _parse_rank(text: str):
    if text == "auto":
        return "auto"
    r = int(text)
    if r < 1:
        raise argparse.ArgumentTypeError("rank must be >= 1 or 'auto'")
    return r


def cmd_denoise(args) -> int:
    t0 = time.perf_counter()
    cube = read_cube(args.input)
    y = unfold_casorati(cube)

    if args.rank == "auto":
        rank = estimate_rank(y)
    else:
        rank = args.rank
    overrides = {}
    for name, flag in (
        ("beta", args.beta),
        ("lam", args.lam),
        ("mu0", args.mu0),
        ("rho", args.rho),
        ("epsilon", args.eps),
        ("max_iter", args.max_iter),
    ):
        if flag is not None:
            overrides[name] = flag
    cfg = DenoiseConfig.preset(args.preset, rank=rank, tau=args.tau, **overrides)

    normalized, rec = normalize_bands(cube)
    threads_requested = _resolve_threads(args)
    with _thread_cap(threads_requested) as threads_applied:
        t_solve = time.perf_counter()
        restored, diags = solve(normalized, cfg)
        solve_ms = (time.perf_counter() - t_solve) * 1e3
    out_cube = denormalize_bands(restored, rec)
    write_cube(out_cube, args.output)
    diagnostics_to_jsonl(diags, str(args.output) + ".diag.jsonl")
    _write_manifest(
        str(args.output) + ".manifest.json",
        "denoise",
        _args_snapshot(args),
        (time.perf_counter() - t0) * 1e3,
        extra={
            # The manifest spells lam as the --lambda flag does.
            "config": {
                "lambda" if k == "lam" else k: v
                for k, v in dataclasses.asdict(cfg).items()
            },
            "rank_source": "auto" if args.rank == "auto" else "flag",
            "iterations": len(diags),
            "solve_ms": solve_ms,
            "threads_requested": threads_requested,
            "threads_applied": threads_applied,
        },
    )
    print(
        f"wrote {args.output} (preset {args.preset}, rank {cfg.rank}, "
        f"{len(diags)} iterations)"
    )
    return 0


def cmd_metrics(args) -> int:
    t0 = time.perf_counter()
    ref = read_cube(args.reference)
    test = read_cube(args.input)
    report = compute_report(ref, test)
    base = str(args.output)
    with open(base + ".json", "w", encoding="utf-8") as fp:
        json.dump(report.to_json_obj(), fp, indent=2)
        fp.write("\n")
    with open(base + ".csv", "w", encoding="utf-8") as fp:
        fp.write(",".join(CSV_COLUMNS) + "\n")
        fp.write(report.to_csv_row() + "\n")
    _write_manifest(
        base + ".manifest.json",
        "metrics",
        _args_snapshot(args),
        (time.perf_counter() - t0) * 1e3,
    )
    print(
        f"mpsnr={report.mpsnr:.4f} mssim={report.mssim:.6f} "
        f"ergas={report.ergas:.4f} msam={report.msam:.6f}"
    )
    return 0


def cmd_rankest(args) -> int:
    t0 = time.perf_counter()
    cube = read_cube(args.input)
    rank = estimate_rank(unfold_casorati(cube), energy_fraction=args.energy_fraction)
    manifest_path = args.output or (str(args.input) + ".rankest.manifest.json")
    _write_manifest(
        manifest_path,
        "rankest",
        _args_snapshot(args),
        (time.perf_counter() - t0) * 1e3,
        extra={"rank": rank},
    )
    print(rank)
    return 0


def _parse_sizes(text: str) -> list[tuple[int, int, int]]:
    sizes = []
    for part in text.split(","):
        dims = part.lower().split("x")
        if len(dims) != 3:
            raise argparse.ArgumentTypeError(f"bad size {part!r}, expected MxNxB")
        m, n, b = (int(d) for d in dims)
        if m < 2 or n < 2 or b < 1:
            raise argparse.ArgumentTypeError(f"bad size {part!r}")
        sizes.append((m, n, b))
    return sizes


def _parse_ranks(text: str) -> list[int]:
    ranks = [int(r) for r in text.split(",")]
    if any(r < 1 for r in ranks):
        raise argparse.ArgumentTypeError("ranks must be >= 1")
    return ranks


def bench_cube(height: int, width: int, bands: int, seed: int = 0) -> HsiCube:
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
    sizes: list[tuple[int, int, int]],
    ranks: list[int],
    reps: int,
    max_iter: int = 20,
    seed: int = 0,
) -> list[tuple[int, int, int, int, int, float]]:
    """Time full solves over a size/rank grid.

    Returns (M, N, B, R, rep, wall_ms) rows.  epsilon is set tiny so every
    run executes exactly max_iter iterations.  Runs under the caller's BLAS
    thread setting; the bench subcommand caps it to one thread.
    """
    rows = []
    for m, n, b in sizes:
        cube = bench_cube(m, n, b, seed)
        for rank in ranks:
            if rank > b:
                raise ValueError(f"rank {rank} exceeds bands {b}")
            cfg = DenoiseConfig.preset(
                "mixed", rank=rank, max_iter=max_iter, epsilon=1e-30
            )
            for rep in range(reps):
                t0 = time.perf_counter()
                solve(cube, cfg)
                rows.append((m, n, b, rank, rep, (time.perf_counter() - t0) * 1e3))
    return rows


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    threads_requested = 1
    with _thread_cap(threads_requested) as threads_applied:
        rows = run_bench(args.sizes, args.ranks, args.reps, args.max_iter, args.seed)
    with open(args.output, "w", encoding="utf-8") as fp:
        fp.write("M,N,B,R,rep,wall_ms\n")
        for m, n, b, r, rep, ms in rows:
            fp.write(f"{m},{n},{b},{r},{rep},{ms:.3f}\n")
    _write_manifest(
        str(args.output) + ".manifest.json",
        "bench",
        {
            "sizes": [list(s) for s in args.sizes],
            "ranks": args.ranks,
            "reps": args.reps,
            "max_iter": args.max_iter,
            "seed": args.seed,
            "output": str(args.output),
        },
        (time.perf_counter() - t0) * 1e3,
        extra={
            "threads_requested": threads_requested,
            "threads_applied": threads_applied,
        },
    )
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


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
        choices=("msi31", "hsi160"),
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
        choices=("gaussian", "mixed"),
        help="gaussian: beta=1, lambda=100; mixed: lambda=1, beta=50",
    )
    p.add_argument("--tau", type=float, default=0.01, help="TV weight")
    p.add_argument(
        "--rank",
        type=_parse_rank,
        default="auto",
        help="subspace dimension R, or 'auto' for the energy-threshold estimate",
    )
    p.add_argument("--beta", type=float, default=None, help="override preset beta")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="override preset lambda",
    )
    p.add_argument("--mu0", type=float, default=None, help="initial ADMM penalty")
    p.add_argument("--rho", type=float, default=None, help="penalty growth factor")
    p.add_argument("--eps", type=float, default=None, help="convergence tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    p.add_argument("--threads", type=int, default=None, help="BLAS thread cap")
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
    p.add_argument(
        "--energy-fraction",
        type=float,
        default=DEFAULT_ENERGY_FRACTION,
        help="cumulative squared-singular-value energy threshold",
    )
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
    p.add_argument("--reps", type=int, default=1, help="repetitions per cell")
    p.add_argument("--max-iter", type=int, default=20, help="iterations per solve")
    p.add_argument("--seed", type=int, default=0, help="synthetic cube seed")
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
