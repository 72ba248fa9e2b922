import contextlib
import dataclasses
import hashlib
import json
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import gapped_random_cube, nan_u_solve, random_cube, smooth_rank_cube
import rctv
import rctv.cli
import rctv.solver
from rctv.cli import bench_cube, build_parser, main, run_bench
from rctv.cube import (
    denormalize_bands,
    normalize_bands,
    read_cube,
    unfold_casorati,
    write_cube,
)
from rctv.linalg import RankEstimate, estimate_rank
from rctv.metrics import mpsnr
from rctv.noisesim import PROFILES, NoiseRecord, apply_case, replay
from rctv.solver import PRESETS, DenoiseConfig, denoise, solve
from test_solver import reference_solve


@pytest.fixture
def clean_path(tmp_path):
    cube = smooth_rank_cube(16, 16, 8, 3, seed=6)
    path = tmp_path / "clean.hsic"
    write_cube(cube, path)
    return path


class TestEstimateRank:
    def test_exact_rank(self, rng):
        # Noiseless rank 3: the floored inverse and the ridge leave the
        # three signal directions and nothing else.
        y = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 31))
        assert estimate_rank(y) == RankEstimate(rank=3, signal_dims=3)

    def test_bench_cube_planted_rank(self):
        # 32 bands, rank 4, 5% noise: HySime finds the planted rank, below
        # the clamp ceil(0.15 * 32) = 5.
        est = estimate_rank(unfold_casorati(bench_cube(32, 32, 32, seed=0)))
        assert est == RankEstimate(rank=4, signal_dims=4)
        assert est.bound is None

    def test_uncorrelated_bands_give_lower_clamp(self):
        # Each band is explained by none of the others, so all of its
        # energy counts as noise and no direction is signal.
        est = estimate_rank(np.diag(np.r_[np.ones(4), np.full(36, 1e-3)]))
        assert est == RankEstimate(rank=2, signal_dims=0)
        assert est.bound == "low"

    def test_pure_noise_gives_lower_clamp(self, rng):
        est = estimate_rank(rng.standard_normal((2000, 31)))
        assert est.rank == 2 and est.signal_dims < 2 and est.bound == "low"

    def test_upper_clamp(self, rng):
        y = rng.standard_normal((400, 10)) @ rng.standard_normal((10, 31))
        y += 0.01 * rng.standard_normal(y.shape)
        est = estimate_rank(y)
        assert est == RankEstimate(rank=5, signal_dims=10)  # ceil(0.15*31)
        assert est.bound == "high"

    def test_lower_clamp(self, rng):
        y = np.outer(rng.standard_normal(40), rng.standard_normal(31))
        assert estimate_rank(y) == RankEstimate(rank=2, signal_dims=1)  # clamped up

    @pytest.mark.parametrize("weak, dims", [(1e-2, 5), (1e-3, 3)])
    def test_ridge_drops_directions_below_it(self, rng, weak, dims):
        # Noiseless rank 3 plus rank 2 at a relative amplitude of weak: the
        # ridge trace(R_x) / (B 1e5) is noise power that a power of 1e-6
        # relative to the strong directions does not beat, and 1e-4 does.
        strong = rng.standard_normal((400, 3)) @ rng.standard_normal((3, 31))
        y = strong + weak * rng.standard_normal((400, 2)) @ rng.standard_normal((2, 31))
        assert estimate_rank(y).signal_dims == dims

    @pytest.mark.parametrize("kind", ["zero", "constant", "duplicate", "few-pixels"])
    def test_singular_gram_gives_finite_rank(self, rng, kind):
        y = rng.random((5, 31)) if kind == "few-pixels" else rng.random((100, 31))
        if kind == "zero":
            y[:, 3] = 0.0
        elif kind == "constant":
            y[:, 3] = 0.7
        elif kind == "duplicate":
            y[:, 3] = y[:, 5]
        est = estimate_rank(y)
        assert 0 <= est.signal_dims <= 31
        assert 2 <= est.rank <= 5

    def test_scale_invariant(self, rng):
        # With a duplicate band the Gram is singular, so its inverse rests on
        # the eigenvalue floor, which must not underflow at small scales.
        y = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 31))
        y += 0.05 * rng.standard_normal(y.shape)
        y[:, 3] = y[:, 5]
        est = estimate_rank(y)
        assert estimate_rank(1e-150 * y) == est == estimate_rank(1e150 * y)
        assert est.signal_dims >= 4

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            estimate_rank(np.zeros((5, 5)))

    def test_single_band_clamped_to_band_count(self, rng):
        # The default lower bound of 2 must not exceed B = 1.
        assert estimate_rank(rng.random((30, 1))) == RankEstimate(rank=1, signal_dims=0)

    def test_non_finite_rejected(self):
        y = np.eye(4)
        y[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_rank(y)

    def test_allocates_nothing_pixel_sized(self, rng):
        # Only the B x B Gram and its O(B^2) companions: nothing near the
        # size of Y.
        y = rng.random((200 * 200, 32))
        tracemalloc.start()
        try:
            estimate_rank(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * y.nbytes

    @pytest.mark.parametrize("case", ["a", "c", "e", "f"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_auto_rank_restores_no_worse_than_the_clamp(self, case, seed):
        # The estimate on the raw noisy cube, solved as denoise solves it,
        # scores at least the MPSNR of the old rule's rank ceil(0.15 * B).
        clean = smooth_rank_cube(48, 48, 31, 3, seed=seed)
        noisy, _ = apply_case(clean, case, "msi31", seed)

        def score(rank):
            cfg = DenoiseConfig.preset("mixed", rank=rank, tau=0.3)
            normalized, record = normalize_bands(noisy)
            restored, diags = solve(normalized, cfg)
            assert diags[-1].converged(cfg.epsilon)
            return mpsnr(clean, denormalize_bands(restored, record))

        assert score(estimate_rank(unfold_casorati(noisy)).rank) >= score(5)


class TestSimulate:
    def test_end_to_end_and_replay(self, tmp_path, clean_path):
        out1 = tmp_path / "noisy1.hsic"
        out2 = tmp_path / "noisy2.hsic"
        args = ["simulate", "--input", str(clean_path), "--case", "c",
                "--profile", "msi31", "--seed", "9"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        record = json.loads((tmp_path / "noisy1.hsic.noise.json").read_text())
        assert record["case"] == "c"
        assert record["gaussian_sigma"] == [0.075] * 8
        assert "spec" not in record
        # The record alone reruns the corruption the .hsic file holds.
        again = replay(NoiseRecord.from_json_obj(record), read_cube(clean_path))
        np.testing.assert_array_equal(
            again.data.astype(np.float32), read_cube(out1).data
        )
        manifest = json.loads((tmp_path / "noisy1.hsic.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["args"]["seed"] == 9

    @pytest.mark.parametrize("case", ["b", "f"])
    def test_peak_allocation_is_apply_cases_own(self, tmp_path, case):
        # apply_case needs the clean and the noisy cube; simulate drops the
        # clean one before the write, whose float32 payload is half a cube.
        # A warm-up run takes the first call's one-time allocations.
        m, n, b = 48, 48, 160
        clean_path = tmp_path / "clean.hsic"
        write_cube(random_cube(m, n, b, seed=5), clean_path)
        argv = ["simulate", "--input", str(clean_path), "--output", str(tmp_path / "n.hsic"),
                "--case", case, "--profile", "hsi160", "--seed", "2"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * m * n * b * 8, peak / (m * n * b * 8)

    def test_invalid_case_fails_before_writing(self, tmp_path, clean_path):
        out = tmp_path / "never.hsic"
        with pytest.raises(SystemExit):
            main(["simulate", "--input", str(clean_path), "--output", str(out),
                  "--case", "z"])
        assert not out.exists()

    def test_missing_input_fails_cleanly(self, tmp_path):
        out = tmp_path / "never.hsic"
        code = main(["simulate", "--input", str(tmp_path / "nope.hsic"),
                     "--output", str(out), "--case", "a"])
        assert code == 2
        assert not out.exists()


class TestDenoise:
    def test_end_to_end(self, tmp_path, clean_path):
        noisy_path = tmp_path / "noisy.hsic"
        main(["simulate", "--input", str(clean_path), "--output", str(noisy_path),
              "--case", "c", "--seed", "3"])
        out = tmp_path / "restored.hsic"
        code = main(["denoise", "--input", str(noisy_path), "--output", str(out),
                     "--preset", "mixed", "--tau", "0.3", "--rank", "3"])
        assert code == 0
        restored = read_cube(out)
        assert restored.shape == (16, 16, 8)
        manifest = json.loads((tmp_path / "restored.hsic.manifest.json").read_text())
        assert manifest["config"]["beta"] == 50.0
        assert manifest["config"]["lambda"] == 1.0
        assert manifest["config"]["rank"] == 3
        assert manifest["args"]["rank"] == 3
        lines = (tmp_path / "restored.hsic.diag.jsonl").read_text().strip().split("\n")
        assert len(lines) == manifest["iterations"]
        first = json.loads(lines[0])
        assert first["iter"] == 1
        last = json.loads(lines[-1])
        assert manifest["iterations"] < manifest["config"]["max_iter"]
        assert all(last[k] <= manifest["config"]["epsilon"]
                   for k in ("fit_res", "split_res1", "split_res2"))
        assert manifest["stop_reason"] == "converged"

    def test_manifest_records_sparse_onset_and_peak_rss(self, tmp_path, clean_path):
        noisy_path = tmp_path / "noisy.hsic"
        main(["simulate", "--input", str(clean_path), "--output", str(noisy_path),
              "--case", "c", "--seed", "3"])
        out = tmp_path / "restored.hsic"
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        main(["denoise", "--input", str(noisy_path), "--output", str(out),
              "--tau", "0.3", "--rank", "3"])
        rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        manifest = json.loads((tmp_path / "restored.hsic.manifest.json").read_text())
        assert rss_before <= manifest["peak_rss_mib"] <= rss_after
        # The first iteration where the dense reference loop's S is nonzero.
        normalized, _ = normalize_bands(read_cube(noisy_path))
        cfg = DenoiseConfig.preset("mixed", rank=3, tau=0.3)
        _, _, _, ref_s_active = reference_solve(normalized, cfg, manifest["iterations"])
        assert manifest["s_first_iter"] == ref_s_active.index(True) + 1
        assert manifest["s_first_iter"] > 1
        lines = (tmp_path / "restored.hsic.diag.jsonl").read_text().strip().split("\n")
        assert [json.loads(line)["s_active"] for line in lines] == ref_s_active

    def test_peak_allocation_is_the_solves_own(self, tmp_path):
        # denoise normalizes, copies into the C-ordered matrix the solve
        # streams and drops each input once it is used, so it holds no
        # MN x B array beyond what solve() holds itself, its copy of Y
        # included.  S turns on mid-run, so both peaks include it.
        m, n, b = 48, 48, 96
        clean = smooth_rank_cube(m, n, b, 3, seed=3)
        noisy, _ = apply_case(clean, "e", "msi31", seed=2)
        noisy_path = tmp_path / "noisy.hsic"
        write_cube(noisy, noisy_path)
        out = tmp_path / "restored.hsic"
        tracemalloc.start()
        try:
            assert main(["denoise", "--input", str(noisy_path), "--output", str(out),
                         "--tau", "0.3", "--rank", "auto"]) == 0
            _, cli_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        manifest = json.loads((tmp_path / "restored.hsic.manifest.json").read_text())
        assert manifest["s_first_iter"] is not None
        normalized, _ = normalize_bands(read_cube(noisy_path))
        cfg = DenoiseConfig.preset("mixed", rank=manifest["config"]["rank"], tau=0.3)
        tracemalloc.start()
        try:
            solve(normalized, cfg)
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cli_peak - solve_peak <= 0.25 * m * n * b * 8, (cli_peak, solve_peak)

    def test_divergence_exits_before_writing(self, tmp_path, clean_path, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(rctv.solver, "solve_u_system", nan_u_solve(solves))
        out = tmp_path / "never.hsic"
        code = main(["denoise", "--input", str(clean_path), "--output", str(out),
                     "--rank", "2", "--max-iter", "10"])
        assert code == 2
        assert len(solves) == 3
        assert "iteration 3" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_preset_values(self, tmp_path, clean_path):
        out = tmp_path / "out.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--preset", "gaussian", "--rank", "2", "--max-iter", "3"])
        manifest = json.loads((tmp_path / "out.hsic.manifest.json").read_text())
        assert manifest["config"]["beta"] == 1.0
        assert manifest["config"]["lambda"] == 100.0
        # lam = 100 keeps S at zero, and 3 iterations do not converge.
        assert manifest["s_first_iter"] is None
        assert manifest["stop_reason"] == "max_iter"

    def test_auto_rank_logged(self, tmp_path, clean_path):
        out = tmp_path / "auto.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--rank", "auto", "--max-iter", "2"])
        manifest = json.loads((tmp_path / "auto.hsic.manifest.json").read_text())
        assert manifest["args"]["rank"] == "auto"
        # The clean 8-band cube has rank 3, above the clamp ceil(0.15 * 8) = 2.
        assert manifest["signal_dims"] == 3 and manifest["rank_bound"] == "high"
        assert manifest["config"]["rank"] == 2

    def test_auto_rank_single_band(self, tmp_path):
        path = tmp_path / "one.hsic"
        write_cube(smooth_rank_cube(12, 12, 1, 1, seed=4), path)
        out = tmp_path / "one_out.hsic"
        code = main(["denoise", "--input", str(path), "--output", str(out),
                     "--rank", "auto", "--max-iter", "3"])
        assert code == 0
        restored = read_cube(out)
        assert restored.shape == (12, 12, 1)
        assert np.all(np.isfinite(restored.data))
        manifest = json.loads((tmp_path / "one_out.hsic.manifest.json").read_text())
        assert manifest["config"]["rank"] == 1
        assert manifest["signal_dims"] == 0 and manifest["rank_bound"] == "low"

    def test_manifest_records_input_sha256(self, tmp_path, clean_path):
        out = tmp_path / "o.hsic"
        assert main(["denoise", "--input", str(clean_path), "--output", str(out),
                     "--rank", "2", "--max-iter", "1"]) == 0
        manifest = json.loads((tmp_path / "o.hsic.manifest.json").read_text())
        assert manifest["input_sha256"] == hashlib.sha256(clean_path.read_bytes()).hexdigest()
        # --rank 2 makes no estimate, so there is no decision to record.
        assert manifest["signal_dims"] is None and manifest["rank_bound"] is None

    @pytest.mark.parametrize("max_iter", [5, None], ids=["max_iter5", "converged"])
    def test_output_is_the_library_quick_start(self, tmp_path, clean_path, max_iter):
        # The CLI's denoise() copies normalize_bands' output with
        # casorati_rows and calls solve_casorati; the library path hands
        # normalize_bands' output to solve().  The written bytes must agree,
        # also through a converged run in which S goes live mid-run.
        noisy_path = tmp_path / "noisy.hsic"
        main(["simulate", "--input", str(clean_path), "--output", str(noisy_path),
              "--case", "e", "--seed", "1"])
        out = tmp_path / "cli.hsic"
        cap = [] if max_iter is None else ["--max-iter", str(max_iter)]
        assert main(["denoise", "--input", str(noisy_path), "--output", str(out),
                     "--rank", "auto"] + cap) == 0
        manifest = json.loads((tmp_path / "cli.hsic.manifest.json").read_text())
        if max_iter is None:
            assert manifest["stop_reason"] == "converged"
            assert manifest["s_first_iter"] is not None
        cfg = DenoiseConfig(rank=manifest["config"]["rank"])
        if max_iter is not None:
            cfg = dataclasses.replace(cfg, max_iter=max_iter)
        normalized, rec = normalize_bands(read_cube(noisy_path))
        restored, _ = solve(normalized, cfg)
        write_cube(denormalize_bands(restored, rec), tmp_path / "lib.hsic")
        assert out.read_bytes() == (tmp_path / "lib.hsic").read_bytes()

    @pytest.mark.parametrize("rank", ["auto", "2"])
    def test_library_denoise_is_the_command(self, tmp_path, clean_path, rank):
        # denoise() on the path and on the read cube writes the command's
        # bytes and returns its config, rank decision and diagnostics,
        # through a converged run in which S goes live mid-run.
        noisy_path = tmp_path / "noisy.hsic"
        main(["simulate", "--input", str(clean_path), "--output", str(noisy_path),
              "--case", "e", "--seed", "1"])
        out = tmp_path / "cli.hsic"
        assert main(["denoise", "--input", str(noisy_path), "--output", str(out),
                     "--rank", rank]) == 0
        manifest = json.loads((tmp_path / "cli.hsic.manifest.json").read_text())
        assert manifest["stop_reason"] == "converged"
        assert manifest["s_first_iter"] is not None
        diag_rows = [
            {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
            for line in (tmp_path / "cli.hsic.diag.jsonl").read_text().splitlines()
        ]
        cfg = DenoiseConfig(rank=rank if rank == "auto" else int(rank))
        noisy = read_cube(noisy_path)
        estimate = estimate_rank(unfold_casorati(noisy)) if rank == "auto" else None
        for source in (noisy_path, noisy):
            result = denoise(source, cfg)
            write_cube(result.cube, tmp_path / "lib.hsic")
            assert (tmp_path / "lib.hsic").read_bytes() == out.read_bytes()
            assert result.config == DenoiseConfig(rank=manifest["config"]["rank"])
            assert result.rank_estimate == estimate
            assert [
                {k: v for k, v in d.to_json_obj().items() if k != "wall_ms"}
                for d in result.diagnostics
            ] == diag_rows
            assert result.solve_ms > 0

    @pytest.mark.parametrize("source", ["path", "inline-cube"])
    def test_library_peak_allocation_is_the_solves_own(self, tmp_path, source):
        # As test_peak_allocation_is_the_solves_own, for denoise() given the
        # path or a cube no caller holds: it holds no MN x B array beyond
        # what solve() holds itself.
        if source == "inline-cube" and sys.version_info < (3, 11):
            pytest.skip("CPython 3.10 holds a call's arguments until it returns")
        m, n, b = 48, 48, 96
        noisy, _ = apply_case(smooth_rank_cube(m, n, b, 3, seed=3), "e", "msi31", seed=2)
        noisy_path = tmp_path / "noisy.hsic"
        write_cube(noisy, noisy_path)
        cfg = DenoiseConfig.preset("mixed", rank="auto", tau=0.3)
        read = read_cube if source == "inline-cube" else lambda path: path
        tracemalloc.start()
        try:
            result = denoise(read(noisy_path), cfg)
            _, lib_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(d.s_active for d in result.diagnostics)
        normalized, _ = normalize_bands(read_cube(noisy_path))
        tracemalloc.start()
        try:
            solve(normalized, result.config)
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lib_peak - solve_peak <= 0.25 * m * n * b * 8, (lib_peak, solve_peak)

    def test_replay_matches(self, tmp_path, clean_path):
        out1 = tmp_path / "r1.hsic"
        out2 = tmp_path / "r2.hsic"
        base = ["denoise", "--input", str(clean_path), "--rank", "3",
                "--max-iter", "5"]
        main(base + ["--output", str(out1)])
        main(base + ["--output", str(out2)])
        a = read_cube(out1)
        b = read_cube(out2)
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-15)

    def test_env_thread_cap(self, tmp_path, clean_path, monkeypatch, capsys):
        # --threads is the only way to ask for a cap: RCTV_THREADS, valid or
        # not, is not read and caps nothing.
        applied = []

        def fake_limits(limits):
            applied.append(limits)
            return contextlib.nullcontext()

        monkeypatch.setattr(rctv.cli, "threadpool_limits", fake_limits)
        for value in ("1", "abc"):
            monkeypatch.setenv("RCTV_THREADS", value)
            out = tmp_path / f"t{value}.hsic"
            code = main(["denoise", "--input", str(clean_path), "--output", str(out),
                         "--rank", "2", "--max-iter", "2"])
            assert code == 0
            assert out.exists()
            manifest = json.loads((tmp_path / f"t{value}.hsic.manifest.json").read_text())
            assert manifest["args"]["threads"] is None
            assert manifest["threads_applied"] is None
        assert applied == []
        assert capsys.readouterr().err == ""

    def test_thread_cap_unavailable(self, tmp_path, clean_path, monkeypatch, capsys):
        # Without threadpoolctl the cap cannot apply: warn and record null.
        monkeypatch.setattr(rctv.cli, "threadpool_limits", None)
        out = tmp_path / "t.hsic"
        code = main(["denoise", "--input", str(clean_path), "--output", str(out),
                     "--rank", "2", "--max-iter", "2", "--threads", "1"])
        assert code == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert err.count("warning: BLAS thread cap 1 not applied") == 1
        manifest = json.loads((tmp_path / "t.hsic.manifest.json").read_text())
        assert manifest["args"]["threads"] == 1
        assert manifest["threads_applied"] is None

    def test_thread_cap_applied(self, tmp_path, clean_path, monkeypatch, capsys):
        caps = []

        def fake_limits(limits):
            caps.append(limits)
            return contextlib.nullcontext()

        monkeypatch.setattr(rctv.cli, "threadpool_limits", fake_limits)
        out = tmp_path / "t.hsic"
        code = main(["denoise", "--input", str(clean_path), "--output", str(out),
                     "--rank", "2", "--max-iter", "2", "--threads", "3"])
        assert code == 0
        assert caps == [3]
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((tmp_path / "t.hsic.manifest.json").read_text())
        assert manifest["args"]["threads"] == 3
        assert manifest["threads_applied"] == 3

    def test_no_thread_cap_requested(self, tmp_path, clean_path, monkeypatch, capsys):
        monkeypatch.setattr(rctv.cli, "threadpool_limits", None)
        out = tmp_path / "t.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--rank", "2", "--max-iter", "2"])
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((tmp_path / "t.hsic.manifest.json").read_text())
        assert manifest["args"]["threads"] is None
        assert manifest["threads_applied"] is None

    @pytest.mark.parametrize("value", ["0", "-2", "abc"])
    def test_bad_thread_flag_rejected(self, tmp_path, clean_path, value, capsys):
        out = tmp_path / "t.hsic"
        with pytest.raises(SystemExit) as exc:
            main(["denoise", "--input", str(clean_path), "--output", str(out),
                  "--rank", "2", "--max-iter", "2", "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.hsic"]

    @pytest.mark.parametrize("rank", ["2", "auto"])
    def test_bad_flag_rejected_before_reading_input(self, tmp_path, rank, monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(rctv.cli, "_sha256", lambda *a: reads.append(a))
        monkeypatch.setattr(rctv.solver, "read_cube", lambda *a: reads.append(a))
        code = main(["denoise", "--input", str(tmp_path / "missing.hsic"),
                     "--output", str(tmp_path / "o.hsic"), "--rank", rank, "--rho", "1.0"])
        assert code == 2
        assert "rho" in capsys.readouterr().err
        assert reads == []
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_beta_rejected_before_reading_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.hsic"
        code = main(["denoise", "--input", str(missing), "--output", str(tmp_path / "o.hsic"),
                     "--rank", "2", "--beta", "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert "beta" in err
        assert str(missing) not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value", [("--beta", "0"), ("--beta", "1e-305"), ("--mu0", "1e7")]
    )
    def test_unsolvable_beta_or_mu0_rejected_before_reading_input(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        reads = []
        monkeypatch.setattr(rctv.cli, "_sha256", lambda *a: reads.append(a))
        monkeypatch.setattr(rctv.solver, "read_cube", lambda *a: reads.append(a))
        code = main(["denoise", "--input", str(tmp_path / "missing.hsic"),
                     "--output", str(tmp_path / "o.hsic"), "--rank", "2", flag, value])
        assert code == 2
        assert flag[2:] in capsys.readouterr().err
        assert reads == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "shape, rank, message",
        [((1, 64, 8), "auto", "plane dims must be >= 2, got 1x64"),
         ((64, 1, 8), "2", "plane dims must be >= 2, got 64x1"),
         ((16, 16, 8), "9", "rank 9 exceeds band count 8")],
        ids=["height-1", "width-1", "rank-over-bands"],
    )
    def test_bad_plane_or_rank_rejected_before_heavy_work(
        self, tmp_path, monkeypatch, capsys, shape, rank, message
    ):
        path = tmp_path / "in.hsic"
        write_cube(random_cube(*shape, seed=0), path)
        calls = []
        for name in ("estimate_rank", "normalize_bands", "casorati_rows", "solve_casorati"):
            monkeypatch.setattr(rctv.solver, name, lambda *a, name=name, **k: calls.append(name))
        out = tmp_path / "o.hsic"
        code = main(["denoise", "--input", str(path), "--output", str(out), "--rank", rank])
        assert code == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.hsic"]

    def test_missing_output_dir_rejected_before_reading_input(
        self, tmp_path, clean_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(rctv.cli, "_sha256", lambda *a: calls.append("_sha256"))
        for name in ("read_cube", "solve_casorati"):
            monkeypatch.setattr(rctv.solver, name, lambda *a, name=name, **k: calls.append(name))
        out = tmp_path / "nope" / "o.hsic"
        code = main(["denoise", "--input", str(clean_path), "--output", str(out), "--rank", "2"])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.hsic"]

    def test_flag_overrides(self, tmp_path, clean_path):
        out = tmp_path / "o.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--rank", "2", "--beta", "7.5", "--lambda", "2.5",
              "--mu0", "0.05", "--rho", "1.5", "--eps", "1e-8",
              "--max-iter", "4", "--threads", "1"])
        manifest = json.loads((tmp_path / "o.hsic.manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["beta"] == 7.5 and cfg["lambda"] == 2.5
        assert cfg["mu0"] == 0.05 and cfg["rho"] == 1.5
        assert cfg["epsilon"] == 1e-8 and cfg["max_iter"] == 4
        fields = {f.name for f in dataclasses.fields(DenoiseConfig)}
        assert set(cfg) == (fields - {"lam"}) | {"lambda"}

    @pytest.mark.parametrize(
        "flag", ["--tau", "--beta", "--lambda", "--mu0", "--rho", "--eps", "--max-iter"]
    )
    def test_help_states_the_config_default(self, capsys, monkeypatch, flag):
        field = {"--eps": "epsilon", "--max-iter": "max_iter"}.get(flag, flag[2:])
        # beta and lambda come from the preset; the others from DenoiseConfig.
        if field in ("beta", "lambda"):
            default = "from --preset"
        else:
            default = f"{getattr(DenoiseConfig, field):g}"
        # Wide enough that argparse puts each flag's help on one line.
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["denoise", "--help"])
        line = next(x for x in capsys.readouterr().out.splitlines() if x.lstrip().startswith(flag))
        assert line.endswith(f"(default {default})")

    def test_preset_and_profile_choices_come_from_the_tables(self, capsys):
        parser = build_parser()
        for name in PRESETS:
            args = parser.parse_args(["denoise", "--input", "i", "--output", "o", "--preset", name])
            assert args.preset == name
        for name in PROFILES:
            args = parser.parse_args(["simulate", "--input", "i", "--output", "o",
                                      "--case", "a", "--profile", name])
            assert args.profile == name
        with pytest.raises(SystemExit):
            main(["denoise", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for name, params in PRESETS.items():
            assert f"{name}: beta={params['beta']:g}, lambda={params['lam']:g}" in help_text


class TestMetricsCommand:
    def test_identity_sentinels(self, tmp_path, clean_path):
        base = tmp_path / "report"
        code = main(["metrics", "--reference", str(clean_path),
                     "--input", str(clean_path), "--output", str(base)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mpsnr"] == "inf"
        assert report["mssim"] == pytest.approx(1.0)
        assert report["ergas"] == 0.0
        assert report["msam"] == pytest.approx(0.0, abs=1e-7)
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "mpsnr,mssim,ergas,msam,wall_ms"
        assert csv_lines[1].startswith("inf,")

    def test_scores_noisy_cube(self, tmp_path, clean_path):
        noisy_path = tmp_path / "noisy.hsic"
        main(["simulate", "--input", str(clean_path), "--output", str(noisy_path),
              "--case", "a", "--seed", "1"])
        base = tmp_path / "rep"
        main(["metrics", "--reference", str(clean_path), "--input", str(noisy_path),
              "--output", str(base)])
        report = json.loads((tmp_path / "rep.json").read_text())
        assert 5.0 < report["mpsnr"] < 30.0
        assert len(report["per_band_psnr"]) == 8

    def test_base_may_name_a_directory(self, tmp_path, clean_path):
        # --output is a base name: a directory "rep" gets rep.json beside it.
        base = tmp_path / "rep"
        base.mkdir()
        code = main(["metrics", "--reference", str(clean_path),
                     "--input", str(clean_path), "--output", str(base)])
        assert code == 0
        assert (tmp_path / "rep.json").exists() and (tmp_path / "rep.csv").exists()

    @pytest.mark.parametrize("output", [".", "..", "sub/.", "sub/.."])
    def test_dot_base_rejected_before_reading(
        self, tmp_path, clean_path, monkeypatch, capsys, output
    ):
        # A base of "." or ".." would write hidden ..json, ..csv and
        # ..manifest.json files inside that directory.
        reads = []
        monkeypatch.setattr(rctv.cli, "read_cube", lambda *a: reads.append(a))
        work = tmp_path / "work"
        (work / "sub").mkdir(parents=True)
        monkeypatch.chdir(work)
        code = main(["metrics", "--reference", str(clean_path),
                     "--input", str(clean_path), "--output", output])
        assert code == 2
        assert f"--output {output}: is a directory" in capsys.readouterr().err
        assert reads == []
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "clean.hsic", "work", "work/sub",
        ]

    def test_base_in_missing_dir_rejected(self, tmp_path, clean_path, monkeypatch, capsys):
        # The directory is taken as written: "missing/." does not exist.
        monkeypatch.chdir(tmp_path)
        code = main(["metrics", "--reference", str(clean_path),
                     "--input", str(clean_path), "--output", "missing/."])
        assert code == 2
        assert "directory does not exist" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.hsic"]


class TestRankest:
    def test_prints_rank_and_writes_manifest(self, tmp_path, clean_path, capsys):
        manifest_path = tmp_path / "rank.manifest.json"
        code = main(["rankest", "--input", str(clean_path),
                     "--output", str(manifest_path)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        manifest = json.loads(manifest_path.read_text())
        assert int(printed) == manifest["rank"] == 2
        assert manifest["signal_dims"] == 3 and manifest["rank_bound"] == "high"

    def test_prints_the_rank_denoise_auto_uses(self, tmp_path, capsys):
        # This 40-band cube is rank 4 plus a +0.5 offset, a fifth correlation
        # direction: HySime counts 5, inside the clamp [2, ceil(0.15 * 40)]
        # = [2, 6].
        path = tmp_path / "in.hsic"
        write_cube(gapped_random_cube(16, 16, 40, 4, seed=2), path)
        assert main(["rankest", "--input", str(path)]) == 0
        printed = int(capsys.readouterr().out)
        assert printed == 5
        out = tmp_path / "auto.hsic"
        assert main(["denoise", "--input", str(path), "--output", str(out),
                     "--rank", "auto", "--max-iter", "1"]) == 0
        manifest = json.loads((tmp_path / "auto.hsic.manifest.json").read_text())
        assert manifest["config"]["rank"] == printed
        assert manifest["signal_dims"] == 5 and manifest["rank_bound"] is None

    @pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
    def test_bad_fraction_rejected_before_reading_input(
        self, tmp_path, fraction, monkeypatch, capsys
    ):
        # rankest has one rule, --rank auto's, and takes no fraction.
        reads = []
        monkeypatch.setattr(rctv.cli, "read_cube", lambda *a: reads.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["rankest", "--input", str(tmp_path / "missing.hsic"),
                  "--energy-fraction", fraction])
        assert exc.value.code == 2
        assert "unrecognized arguments: --energy-fraction" in capsys.readouterr().err
        assert reads == []


    def test_non_integer_header_dimension_exits_cleanly(self, tmp_path, capsys):
        # 1e400 parses as a float infinity, which int() cannot convert.
        path = tmp_path / "big.hsic"
        path.write_bytes(
            b'{"magic": "HSIC1", "height": 1e400, "width": 2, "bands": 1, '
            b'"dtype": "f32le", "layout": "bsq-colmajor"}\n'
        )
        code = main(["rankest", "--input", str(path)])
        assert code == 2
        assert "error: bad dimension field height" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.hsic"]


@pytest.mark.parametrize(
    "argv, flag",
    [(["bench", "--ranks", "2,x"], "--ranks"),
     (["bench", "--ranks", "2,0"], "--ranks"),
     (["bench", "--sizes", "8x8xq"], "--sizes"),
     (["bench", "--sizes", "8x8x-4"], "--sizes"),
     (["denoise", "--input", "in.hsic", "--rank", "abc"], "--rank"),
     (["denoise", "--input", "in.hsic", "--rank", "0"], "--rank")],
    ids=["ranks-x", "ranks-0", "sizes-q", "sizes-negative", "rank-abc", "rank-0"],
)
def test_bad_rank_or_size_flag_names_the_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "_parse" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["denoise", "--input", "clean.hsic", "--rank", "2"],
     ["bench", "--sizes", "16x16x8", "--ranks", "2,4", "--max-iter", "1"]],
    ids=["denoise", "bench"],
)
def test_output_directory_rejected_before_heavy_work(
    tmp_path, clean_path, monkeypatch, capsys, argv
):
    calls = []
    steps = [(rctv.cli, "_sha256"), (rctv.cli, "solve"), (rctv.cli, "bench_cube"),
             (rctv.solver, "read_cube"), (rctv.solver, "solve_casorati")]
    for module, name in steps:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    out = tmp_path / "outdir"
    out.mkdir()
    argv = [str(tmp_path / a) if a == "clean.hsic" else a for a in argv]
    code = main(argv + ["--output", str(out)])
    assert code == 2
    assert f"--output {out}: is a directory" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.hsic", "outdir"]
    assert list(out.iterdir()) == []


class TestBench:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "8x8x4", "--ranks", "2,3",
                     "--reps", "2", "--max-iter", "2", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "M,N,B,R,rep,wall_ms"
        assert len(lines) == 1 + 1 * 2 * 2
        assert (tmp_path / "bench.csv.manifest.json").exists()

    def test_each_repetition_runs_the_whole_grid(self, monkeypatch):
        # Each cube is built once; the rows come one whole grid per rep.
        built = []

        def counting_cube(*args):
            built.append(args)
            return bench_cube(*args)

        monkeypatch.setattr(rctv.cli, "bench_cube", counting_cube)
        rows = run_bench([(8, 8, 4), (6, 9, 5)], [2, 3], reps=2, max_iter=1, seed=0)
        assert built == [(8, 8, 4, 0), (6, 9, 5, 0)]
        grid = [(m, n, b, r) for m, n, b in [(8, 8, 4), (6, 9, 5)] for r in [2, 3]]
        expected = [cell + (rep,) for rep in range(2) for cell in grid]
        assert [row[:5] for row in rows] == expected

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_bad_reps_rejected(self, tmp_path, reps, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "8x8x4", "--ranks", "2", "--reps", reps,
                  "--max-iter", "1", "--output", str(tmp_path / "bench.csv")])
        assert exc.value.code == 2
        assert "--reps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_max_iter_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "8x8x4", "--ranks", "2", "--max-iter", "0",
                  "--output", str(tmp_path / "bench.csv")])
        assert exc.value.code == 2
        assert "--max-iter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_thread_cap_unavailable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(rctv.cli, "threadpool_limits", None)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "8x8x4", "--ranks", "2",
                     "--max-iter", "1", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err.count("warning: BLAS thread cap 1") == 1
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["args"]["threads"] == 1
        assert manifest["threads_applied"] is None

    def test_run_bench_rank_guard(self):
        with pytest.raises(ValueError, match="rank"):
            run_bench([(8, 8, 4)], [5], reps=1, max_iter=1, seed=0)

    def test_bad_grid_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys):
        # The first size is valid for every rank; only the second is not.
        solves, builds = [], []
        monkeypatch.setattr(rctv.cli, "solve", lambda *a, **k: solves.append(a))
        monkeypatch.setattr(rctv.cli, "bench_cube", lambda *a: builds.append(a))
        code = main(["bench", "--sizes", "16x16x8,8x8x4", "--ranks", "2,8",
                     "--max-iter", "1", "--output", str(tmp_path / "bench.csv")])
        assert code == 2
        assert solves == [] and builds == []
        assert "size 8x8x4, rank 8: rank 8 exceeds band count 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_flat_plane_rejected_before_any_solve(self, monkeypatch):
        # run_bench is the only plane check the bench subcommand has: it must
        # reject a plane dim below 2 before it builds or solves the valid
        # first size.
        solves, builds = [], []
        monkeypatch.setattr(rctv.cli, "solve", lambda *a, **k: solves.append(a))
        monkeypatch.setattr(rctv.cli, "bench_cube", lambda *a: builds.append(a))
        with pytest.raises(ValueError, match="size 1x8x4, rank 2: plane dims must be >= 2"):
            run_bench([(16, 16, 8), (1, 8, 4)], [2], reps=1, max_iter=1, seed=0)
        assert solves == [] and builds == []

    @pytest.mark.parametrize(
        "size, message",
        [("1x4x4", "size 1x4x4, rank 1: plane dims must be >= 2, got 1x4"),
         ("4x4x0", "size 4x4x0, rank 1: rank 1 exceeds band count 0")],
        ids=["flat-plane", "no-bands"],
    )
    def test_unsolvable_size_exits_2(self, tmp_path, monkeypatch, capsys, size, message):
        # The size parser checks only the MxNxB format; run_bench refuses
        # the size, naming it and the rule, before it builds any cube.
        def no_cube(*args):
            raise AssertionError("bench_cube called")

        monkeypatch.setattr(rctv.cli, "bench_cube", no_cube)
        code = main(["bench", "--sizes", size, "--ranks", "1", "--max-iter", "1",
                     "--output", str(tmp_path / "bench.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_dir_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys):
        solves, builds = [], []
        monkeypatch.setattr(rctv.cli, "solve", lambda *a, **k: solves.append(a))
        monkeypatch.setattr(rctv.cli, "bench_cube", lambda *a: builds.append(a))
        out = tmp_path / "nope" / "b.csv"
        code = main(["bench", "--sizes", "16x16x8", "--ranks", "2,4",
                     "--max-iter", "1", "--output", str(out)])
        assert code == 2
        assert solves == [] and builds == []
        assert str(out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_time_grows_with_spatial_size(self):
        # The minimum over 5 repetitions keeps one slow run on a busy host
        # from deciding the ratio, and run_bench runs both sizes in every
        # repetition, so a load change does not land on one size only.  At
        # 64x64 and up the work that scales with the pixel count outweighs
        # the fixed per-call overhead.
        best = {}
        for m, n, b, r, rep, ms in run_bench(
            [(64, 64, 8), (128, 128, 8)], [3], reps=5, max_iter=5, seed=0
        ):
            best[(m, n)] = min(best.get((m, n), float("inf")), ms)
        # 4x the pixels; generous margin against timing noise.
        assert best[(128, 128)] >= 1.5 * best[(64, 64)]

    def test_bench_cube_in_unit_range(self):
        cube = bench_cube(8, 8, 4, seed=1)
        assert cube.data.min() >= 0.0 and cube.data.max() <= 1.0


THREAD_KEYS = {"threads_applied"}
MANIFEST_KEYS = {"command", "args", "code_version", "numpy_version", "python_version", "wall_ms"}


def command_flags(command, clean, out):
    """Short-running flags for each subcommand; outputs go to the out base."""
    return {
        "simulate": ["--input", clean, "--output", out, "--case", "c", "--seed", "3"],
        "denoise": ["--input", clean, "--output", out, "--rank", "2", "--max-iter", "2"],
        "metrics": ["--reference", clean, "--input", clean, "--output", out],
        "rankest": ["--input", clean],
        "bench": ["--sizes", "8x8x4", "--ranks", "2", "--max-iter", "1", "--output", out],
    }[command]


@pytest.mark.parametrize(
    "command, own_keys",
    [
        ("simulate", {"windows_rescaled"}),
        ("denoise", {"config", "signal_dims", "rank_bound", "iterations", "stop_reason",
                     "s_first_iter", "solve_ms", "input_sha256", "peak_rss_mib"} | THREAD_KEYS),
        ("metrics", set()),
        ("rankest", {"rank", "signal_dims", "rank_bound"}),
        ("bench", THREAD_KEYS),
    ],
)
def test_manifest_schema(tmp_path, clean_path, command, own_keys):
    clean, out = str(clean_path), str(tmp_path / "out")
    flags = command_flags(command, clean, out)
    assert main([command] + flags) == 0
    # rankest's manifest sits next to its input unless --output moves it.
    path = clean + ".rankest.manifest.json" if command == "rankest" else out + ".manifest.json"
    with open(path, encoding="utf-8") as fp:
        manifest = json.load(fp)
    assert set(manifest) == MANIFEST_KEYS | own_keys
    assert manifest["command"] == command
    parsed = {k: v for k, v in vars(build_parser().parse_args([command] + flags)).items()
              if k != "func"}
    assert parsed["subcommand"] == command
    # Through JSON, as the manifest went: tuples come back as lists.
    assert manifest["args"] == json.loads(json.dumps(parsed))
    if command == "denoise":
        # An override flag not given records null; config has the value used.
        assert manifest["args"]["tau"] is None and manifest["config"]["tau"] == 0.01
    assert manifest["code_version"] == rctv.__version__
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()
    assert manifest["wall_ms"] >= 0


@pytest.mark.parametrize(
    "command, caps", [("simulate", []), ("metrics", []), ("rankest", []), ("bench", [1])]
)
def test_only_denoise_reads_the_thread_env(tmp_path, clean_path, monkeypatch, command, caps):
    applied = []

    def fake_limits(limits):
        applied.append(limits)
        return contextlib.nullcontext()

    monkeypatch.setattr(rctv.cli, "threadpool_limits", fake_limits)
    monkeypatch.setenv("RCTV_THREADS", "abc")
    assert main([command] + command_flags(command, str(clean_path), str(tmp_path / "out"))) == 0
    assert applied == caps


@pytest.mark.parametrize(
    "command, heavy",
    [("simulate", "apply_case"), ("denoise", "solve_casorati"), ("metrics", "compute_report"),
     ("rankest", "estimate_rank"), ("bench", "run_bench")],
)
def test_empty_output_rejected_before_heavy_work(
    tmp_path, clean_path, monkeypatch, capsys, command, heavy
):
    # An --output whose file name is empty is no path: it must not pass for
    # rankest's None default, nor reach the write after the work is done,
    # nor (for metrics) name hidden files inside an existing directory.
    # denoise's steps run in rctv.solver; the others' in rctv.cli.
    module = rctv.solver if command == "denoise" else rctv.cli
    calls = []
    for name in ("read_cube", heavy):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for output in ("", "sub/", "missing/"):
        flags = command_flags(command, str(clean_path), output)
        if command == "rankest":
            flags = flags + ["--output", output]
        code = main([command] + flags)
        assert code == 2, output
        assert "--output" in capsys.readouterr().err
        assert calls == []
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "clean.hsic", "sub",
        ]


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "rctv.cli", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0.1.0"
