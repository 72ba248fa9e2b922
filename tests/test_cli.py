import contextlib
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_cube, smooth_rank_cube
import rctv.cli
from rctv.cli import bench_cube, estimate_rank, main, run_bench
from rctv.cube import read_cube, write_cube
from rctv.solver import DenoiseConfig


@pytest.fixture
def clean_path(tmp_path):
    cube = smooth_rank_cube(16, 16, 8, 3, seed=6)
    path = tmp_path / "clean.hsic"
    write_cube(cube, path)
    return path


class TestEstimateRank:
    def test_exact_rank(self, rng):
        y = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 31))
        assert estimate_rank(y) == 3

    def test_equal_energy_identity(self):
        # Identity: each singular value carries 1/10 of the energy.
        assert estimate_rank(np.eye(10), energy_fraction=0.35, bounds=(2, 10)) == 4

    def test_upper_clamp(self, rng):
        y = rng.standard_normal((60, 31))  # effectively full rank
        assert estimate_rank(y, energy_fraction=0.9999) == 5  # ceil(0.15*31)

    def test_lower_clamp(self, rng):
        y = np.outer(rng.standard_normal(40), rng.standard_normal(31))
        assert estimate_rank(y) == 2  # rank-1 signal clamped up

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            estimate_rank(np.zeros((5, 5)))

    def test_single_band_clamped_to_band_count(self, rng):
        # The default lower bound of 2 must not exceed B = 1.
        assert estimate_rank(rng.random((30, 1))) == 1

    def test_bad_fraction_rejected(self, rng):
        with pytest.raises(ValueError, match="fraction"):
            estimate_rank(np.eye(4), energy_fraction=0.0)

    def test_non_finite_rejected(self):
        y = np.eye(4)
        y[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_rank(y)


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
        manifest = json.loads((tmp_path / "noisy1.hsic.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["args"]["seed"] == 9

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
        assert manifest["rank_source"] == "flag"
        lines = (tmp_path / "restored.hsic.diag.jsonl").read_text().strip().split("\n")
        assert len(lines) == manifest["iterations"]
        first = json.loads(lines[0])
        assert first["iter"] == 1

    def test_gaussian_preset_values(self, tmp_path, clean_path):
        out = tmp_path / "out.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--preset", "gaussian", "--rank", "2", "--max-iter", "3"])
        manifest = json.loads((tmp_path / "out.hsic.manifest.json").read_text())
        assert manifest["config"]["beta"] == 1.0
        assert manifest["config"]["lambda"] == 100.0

    def test_auto_rank_logged(self, tmp_path, clean_path):
        out = tmp_path / "auto.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--rank", "auto", "--max-iter", "2"])
        manifest = json.loads((tmp_path / "auto.hsic.manifest.json").read_text())
        assert manifest["rank_source"] == "auto"
        assert manifest["config"]["rank"] >= 2

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
        # Without threadpoolctl the cap cannot apply: warn and record null.
        monkeypatch.setattr(rctv.cli, "threadpool_limits", None)
        monkeypatch.setenv("RCTV_THREADS", "1")
        out = tmp_path / "t.hsic"
        code = main(["denoise", "--input", str(clean_path), "--output", str(out),
                     "--rank", "2", "--max-iter", "2"])
        assert code == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert err.count("warning: BLAS thread cap 1 not applied") == 1
        manifest = json.loads((tmp_path / "t.hsic.manifest.json").read_text())
        assert manifest["threads_requested"] == 1
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
        assert manifest["threads_requested"] == 3
        assert manifest["threads_applied"] == 3

    def test_no_thread_cap_requested(self, tmp_path, clean_path, monkeypatch, capsys):
        monkeypatch.setattr(rctv.cli, "threadpool_limits", None)
        monkeypatch.delenv("RCTV_THREADS", raising=False)
        out = tmp_path / "t.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--rank", "2", "--max-iter", "2"])
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((tmp_path / "t.hsic.manifest.json").read_text())
        assert manifest["threads_requested"] is None
        assert manifest["threads_applied"] is None

    def test_flag_overrides(self, tmp_path, clean_path):
        out = tmp_path / "o.hsic"
        main(["denoise", "--input", str(clean_path), "--output", str(out),
              "--rank", "2", "--beta", "7.5", "--lambda", "2.5",
              "--mu0", "0.01", "--rho", "1.5", "--eps", "1e-8",
              "--max-iter", "4", "--threads", "1"])
        manifest = json.loads((tmp_path / "o.hsic.manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["beta"] == 7.5 and cfg["lambda"] == 2.5
        assert cfg["mu0"] == 0.01 and cfg["rho"] == 1.5
        assert cfg["epsilon"] == 1e-8 and cfg["max_iter"] == 4
        fields = {f.name for f in dataclasses.fields(DenoiseConfig)}
        assert set(cfg) == (fields - {"lam"}) | {"lambda"}


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


class TestRankest:
    def test_prints_rank_and_writes_manifest(self, tmp_path, clean_path, capsys):
        manifest_path = tmp_path / "rank.manifest.json"
        code = main(["rankest", "--input", str(clean_path),
                     "--output", str(manifest_path)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        manifest = json.loads(manifest_path.read_text())
        assert int(printed) == manifest["rank"]
        assert 2 <= manifest["rank"] <= 8


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

    def test_thread_cap_unavailable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(rctv.cli, "threadpool_limits", None)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "8x8x4", "--ranks", "2",
                     "--max-iter", "1", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err.count("warning: BLAS thread cap 1") == 1
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["threads_requested"] == 1
        assert manifest["threads_applied"] is None

    def test_run_bench_rank_guard(self):
        with pytest.raises(ValueError, match="rank"):
            run_bench([(8, 8, 4)], [5], reps=1, max_iter=1)

    def test_time_grows_with_spatial_size(self):
        # The minimum over 5 repetitions keeps one slow run on a busy host
        # from deciding the ratio.
        rows = run_bench([(24, 24, 8), (48, 48, 8)], [3], reps=5, max_iter=5)
        best = {}
        for m, n, b, r, rep, ms in rows:
            key = (m, n)
            best[key] = min(best.get(key, float("inf")), ms)
        # 4x the pixels; generous margin against timing noise.
        assert best[(48, 48)] >= 1.5 * best[(24, 24)]

    def test_bench_cube_in_unit_range(self):
        cube = bench_cube(8, 8, 4, seed=1)
        assert cube.data.min() >= 0.0 and cube.data.max() <= 1.0


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "rctv.cli", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "0.1.0"
