import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_cube
import rctv.noisesim
from rctv.cube import HsiCube, fold_casorati
from rctv.noisesim import (
    _CASE_STAGES,
    CASES,
    NoiseRecord,
    _free_starts,
    _strike_stripes,
    _zero_deadlines,
    add_gaussian,
    add_impulse,
    apply_case,
    replay,
    stage_rng,
)


def edit_planes(cube, stage, *args):
    """Run a structural stage on a copy of the cube's (B, N, M) band planes.

    Returns the edited cube and the stage's placements.
    """
    data = cube.data.copy()
    planes = data.reshape(cube.bands, cube.width, cube.height)
    placements = stage(planes, *args)
    return HsiCube(cube.height, cube.width, cube.bands, data), placements


class TestGaussian:
    def test_zero_sigma_identity(self, rng):
        cube = random_cube(6, 5, 3, seed=1)
        out, sigmas = add_gaussian(cube, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, cube.data)
        np.testing.assert_array_equal(sigmas, [0.0, 0.0, 0.0])

    def test_empirical_sigma(self):
        cube = fold_casorati(np.full((256 * 256, 1), 0.5), 256, 256)
        out, _ = add_gaussian(cube, 0.1, np.random.default_rng(11))
        sd = np.std(out.data - cube.data)
        assert 0.098 <= sd <= 0.102

    def test_determinism(self):
        cube = random_cube(8, 8, 4, seed=2)
        a, _ = add_gaussian(cube, 0.2, np.random.default_rng(5))
        b, _ = add_gaussian(cube, 0.2, np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_range_mode_draws_per_band(self):
        cube = random_cube(8, 8, 6, seed=2)
        _, sigmas = add_gaussian(cube, (0.05, 0.15), np.random.default_rng(5))
        assert np.all((sigmas >= 0.05) & (sigmas <= 0.15))
        assert len(set(sigmas.tolist())) > 1

    def test_bands_draw_one_stream(self):
        # Drawn band by band into the output, the noise is the stream of
        # one draw of the whole cube, scaled per band and added to it.
        cube = random_cube(7, 5, 6, seed=3)
        out, sigmas = add_gaussian(cube, (0.05, 0.15), np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want_sigmas = rng.uniform(0.05, 0.15, 6)
        noise = rng.standard_normal(7 * 5 * 6).reshape(6, -1)
        want = noise * want_sigmas[:, None] + cube.data.reshape(6, -1)
        assert sigmas.tobytes() == want_sigmas.tobytes()
        assert out.data.tobytes() == want.tobytes()

    def test_negative_sigma_rejected(self):
        cube = random_cube(4, 4, 2, seed=0)
        with pytest.raises(ValueError, match=">= 0"):
            add_gaussian(cube, -0.1, np.random.default_rng(0))


class TestImpulse:
    def test_zero_ratio_identity(self):
        cube = random_cube(6, 6, 2, seed=3)
        out, _, counts = add_impulse(cube, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out.data, cube.data)
        assert counts.tolist() == [0, 0]

    def test_full_ratio_saturates(self):
        cube = random_cube(5, 5, 2, seed=4)
        cube = HsiCube(5, 5, 2, cube.data * 0.5 + 0.25)  # keep off {0,1}
        out, _, _ = add_impulse(cube, 1.0, np.random.default_rng(1))
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_exact_count(self):
        cube = random_cube(100, 100, 1, seed=5)
        out, _, counts = add_impulse(cube, 0.1, np.random.default_rng(2))
        assert counts.tolist() == [1000]
        changed = np.count_nonzero(out.data != cube.data)
        # A corrupted entry can coincide with its original value; never more.
        assert changed <= 1000

    def test_untouched_entries_bit_identical(self):
        cube = random_cube(20, 20, 2, seed=6)
        out, _, _ = add_impulse(cube, 0.05, np.random.default_rng(3))
        same = out.data == cube.data
        assert same.sum() >= out.data.size - 2 * int(0.05 * 400)

    def test_ratio_out_of_range(self):
        cube = random_cube(4, 4, 1, seed=0)
        with pytest.raises(ValueError, match="ratio"):
            add_impulse(cube, 1.5, np.random.default_rng(0))


class TestDeadlines:
    def zero(self, cube, rng, count_range=(1, 1), width_range=(2, 2)):
        return edit_planes(cube, _zero_deadlines, range(1), count_range, width_range, rng)

    def test_zero_count_identity(self):
        cube = random_cube(6, 10, 2, seed=7)
        out, placements = self.zero(cube, np.random.default_rng(1), count_range=(0, 0))
        np.testing.assert_array_equal(out.data, cube.data)
        assert placements == {0: []}

    def test_columns_zeroed(self):
        cube = random_cube(10, 7, 1, seed=8)
        out, placements = self.zero(cube, np.random.default_rng(4))
        [(start, width)] = placements[0]
        assert width == 2
        band = out.band(0)
        np.testing.assert_array_equal(band[:, start : start + width], 0.0)
        mask = np.ones(7, dtype=bool)
        mask[start : start + width] = False
        np.testing.assert_array_equal(band[:, mask], cube.band(0)[:, mask])

    def test_non_overlapping(self):
        cube = random_cube(4, 12, 1, seed=9)
        _, placements = self.zero(
            cube, np.random.default_rng(5), count_range=(4, 4), width_range=(1, 3)
        )
        covered = np.zeros(12, dtype=int)
        for start, width in placements[0]:
            covered[start : start + width] += 1
        assert covered.max() <= 1

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_free_starts_match_window_scan(self, n):
        # Against a scan of every window, on random occupancy masks and
        # every width up to n.
        rng = np.random.default_rng(n)
        for _ in range(20):
            occupied = rng.random(n) < rng.random()
            for width in range(1, n + 1):
                expected = np.flatnonzero(
                    [not occupied[p : p + width].any() for p in range(n - width + 1)]
                )
                np.testing.assert_array_equal(_free_starts(occupied, width), expected)

    def test_width_exceeding_image_rejected(self):
        # msi31 deadlines run up to 5 columns wide; cases a and c draw none.
        cube = random_cube(6, 4, 31, seed=0)
        for case in ("b", "d", "e", "f"):
            with pytest.raises(ValueError, match="deadline width up to 5 exceeds width 4"):
                apply_case(cube, case, "msi31", seed=0)
        for case in ("a", "c"):
            assert apply_case(cube, case, "msi31", seed=0)[0].shape == (6, 4, 31)


class TestStripes:
    def stripe(self, cube, rng, count_range=(1, 1)):
        return edit_planes(cube, _strike_stripes, range(1), count_range, rng)

    def test_zero_count_identity(self):
        cube = random_cube(6, 8, 2, seed=10)
        out, _ = self.stripe(cube, np.random.default_rng(1), count_range=(0, 0))
        np.testing.assert_array_equal(out.data, cube.data)

    def test_column_mean_shift_exact(self):
        n = 8
        cube = random_cube(5, n, 1, seed=11)
        out, placements = self.stripe(cube, np.random.default_rng(2))
        [(col, off)] = placements[0]
        assert -0.25 <= off <= 0.25 and off != 0.0
        before = cube.band(0).mean()
        after = out.band(0).mean()
        assert after - before == pytest.approx(off / n, abs=1e-12)

    def test_profile_deviates_only_at_stripes(self):
        cube = random_cube(6, 10, 1, seed=12)
        out, placements = self.stripe(cube, np.random.default_rng(3), count_range=(3, 3))
        struck = {col for col, _ in placements[0]}
        diff = out.band(0).mean(axis=0) - cube.band(0).mean(axis=0)
        for j in range(10):
            if j in struck:
                assert abs(diff[j]) > 0
            else:
                assert diff[j] == 0.0


class TestApplyCase:
    def test_case_a_records_sigma(self):
        cube = random_cube(8, 8, 31, seed=13)
        _, record = apply_case(cube, "a", "msi31", seed=3)
        assert record.gaussian_sigma == [0.1] * 31
        assert record.impulse_ratio is None
        assert record.deadlines is None
        assert not record.windows_rescaled

    def test_case_c_records(self):
        cube = random_cube(8, 8, 31, seed=14)
        _, record = apply_case(cube, "c", "msi31", seed=3)
        assert record.gaussian_sigma == [0.075] * 31
        assert record.impulse_ratio == [0.1] * 31
        assert record.impulse_count == [int(0.1 * 64)] * 31

    def test_case_d_composes_c_plus_deadlines(self):
        cube = random_cube(8, 9, 31, seed=15)
        seed = 21
        d_cube, d_rec = apply_case(cube, "d", "msi31", seed=seed)
        c_cube, c_rec = apply_case(cube, "c", "msi31", seed=seed)
        assert d_rec.deadlines is not None
        # Deadline window: bands 11..20 1-based -> 10..19 0-based.
        assert sorted(d_rec.deadlines) == list(range(10, 20))
        manual, _ = edit_planes(
            c_cube, _zero_deadlines, range(10, 20), (5, 55), (1, 5), stage_rng(seed, "deadline")
        )
        np.testing.assert_array_equal(d_cube.data, manual.data)

    def test_case_e_ranges(self):
        cube = random_cube(8, 8, 31, seed=16)
        _, record = apply_case(cube, "e", "msi31", seed=4)
        sig = np.array(record.gaussian_sigma)
        rat = np.array(record.impulse_ratio)
        assert np.all((sig >= 0.05) & (sig <= 0.15))
        assert np.all((rat >= 0.05) & (rat <= 0.15))
        assert record.deadlines is not None and record.stripes is None

    def test_case_f_adds_stripes(self):
        cube = random_cube(8, 8, 31, seed=17)
        _, record = apply_case(cube, "f", "msi31", seed=4)
        assert record.stripes is not None
        assert sorted(record.stripes) == list(range(20, 30))

    def test_window_rescaling_flagged(self):
        cube = random_cube(8, 8, 10, seed=18)
        _, record = apply_case(cube, "b", "msi31", seed=5)
        assert record.windows_rescaled
        # 11..20 of 31 bands maps to 4..6 1-based -> 3..5 0-based.
        assert sorted(record.deadlines) == [3, 4, 5]

    def test_narrow_cube_rejected_before_any_noise(self, monkeypatch):
        # Every stage draws from a stage_rng, so a stage that was not
        # asked for its generator drew nothing.
        stages = []
        real = rctv.noisesim.stage_rng
        monkeypatch.setattr(
            rctv.noisesim, "stage_rng", lambda seed, stage: stages.append(stage) or real(seed, stage)
        )
        with pytest.raises(ValueError, match="deadline width up to 5 exceeds width 4"):
            apply_case(random_cube(40, 4, 31, seed=0), "b", "msi31", seed=1)
        assert stages == []
        apply_case(random_cube(40, 5, 31, seed=0), "b", "msi31", seed=1)
        assert stages == ["gaussian", "deadline"]

    @pytest.mark.parametrize("case", CASES)
    def test_allocates_one_buffer(self, case):
        # Every stage edits the buffer that becomes the noisy cube.
        m, n, b = 48, 48, 160
        cube = random_cube(m, n, b, seed=26)
        tracemalloc.start()
        try:
            apply_case(cube, case, "hsi160", seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m * n * b * 8

    def test_invalid_case_rejected(self):
        cube = random_cube(4, 4, 4, seed=0)
        with pytest.raises(ValueError, match="case"):
            apply_case(cube, "g", "msi31", seed=0)

    # 9x13 and 13x9 planes, so an exchange of height and width shows; 31
    # and 160 bands are native to msi31 and hsi160, 12 rescales both.
    @pytest.mark.parametrize("dims", [(9, 13), (13, 9)])
    @pytest.mark.parametrize("bands", [12, 31, 160])
    @pytest.mark.parametrize("profile", ["msi31", "hsi160"])
    @pytest.mark.parametrize("case", CASES)
    def test_record_reproduces_structural_stages(self, case, profile, bands, dims):
        # add_gaussian then add_impulse, from the same stage_rngs, and then
        # the record's deadlines and stripes give the noisy cube bit for bit.
        m, n = dims
        cube = random_cube(m, n, bands, seed=25)
        seed = 82
        noisy, record = apply_case(cube, case, profile, seed)
        sigma, ratio, _, _ = _CASE_STAGES[case]
        before, sigmas = add_gaussian(cube, sigma, stage_rng(seed, "gaussian"))
        assert record.gaussian_sigma == sigmas.tolist()
        if ratio is not None:
            before, ratios, counts = add_impulse(before, ratio, stage_rng(seed, "impulse"))
            assert record.impulse_ratio == ratios.tolist()
            assert record.impulse_count == counts.tolist()
        # Apply the record alone to the (M, N) band planes.
        planes = np.stack([before.band(b) for b in range(bands)], axis=2)
        assert bool(record.deadlines) == (case not in ("a", "c"))
        for b, runs in (record.deadlines or {}).items():
            for start, width in runs:
                planes[:, start : start + width, b] = 0.0
        assert (record.stripes is not None) == (case == "f")
        for b, stripes in (record.stripes or {}).items():
            for col, offset in stripes:
                planes[:, col, b] += offset
        assert noisy.data.tobytes() == HsiCube.from_array(planes).data.tobytes()

    def test_hsi160_windows(self):
        cube = random_cube(4, 4, 160, seed=19)
        _, record = apply_case(cube, "f", "hsi160", seed=6)
        assert not record.windows_rescaled
        assert min(record.deadlines) == 90 and max(record.deadlines) == 129
        assert min(record.stripes) == 140 and max(record.stripes) == 159


class TestReplay:
    def test_same_seed_bit_exact(self):
        cube = random_cube(10, 10, 31, seed=20)
        a, _ = apply_case(cube, "f", "msi31", seed=77)
        b, _ = apply_case(cube, "f", "msi31", seed=77)
        np.testing.assert_array_equal(a.data, b.data)

    def test_record_replay_bit_exact(self):
        cube = random_cube(10, 10, 31, seed=21)
        noisy, record = apply_case(cube, "e", "msi31", seed=78)
        again = replay(record, cube)
        np.testing.assert_array_equal(noisy.data, again.data)

    def test_record_json_roundtrip(self):
        cube = random_cube(6, 6, 31, seed=22)
        noisy, record = apply_case(cube, "f", "msi31", seed=79)
        obj = record.to_json_obj()
        # The JSON object is a copy: its str keys leave the record's int keys.
        assert all(type(b) is int for b in (*record.deadlines, *record.stripes))
        back = NoiseRecord.from_json_obj(json.loads(json.dumps(obj)))
        again = replay(back, cube)
        np.testing.assert_array_equal(noisy.data, again.data)

    def test_record_with_stage_entropy_replays(self):
        # Records written before the spec, stage_entropy and the stripe
        # clamp were dropped still carry all three.
        cube = random_cube(6, 6, 31, seed=23)
        noisy, record = apply_case(cube, "f", "msi31", seed=80)
        obj = record.to_json_obj()
        obj["spec"] = {
            "gaussian_sigma": [0.05, 0.15],
            "impulse_ratio": [0.05, 0.15],
            "deadline": {"band_lo": 10, "band_hi": 19, "count_range": [5, 55],
                         "width_range": [1, 5]},
            "stripes": {"band_lo": 20, "band_hi": 29, "count_range": [50, 100],
                        "offset_range": [-0.25, 0.25], "clamp": None},
            "seed": 80,
        }
        obj["stage_entropy"] = {
            stage: [80, code]
            for stage, code in (("gaussian", 1), ("impulse", 2), ("deadline", 3), ("stripe", 4))
        }
        back = NoiseRecord.from_json_obj(json.loads(json.dumps(obj)))
        assert back.to_json_obj().keys() == record.to_json_obj().keys()
        np.testing.assert_array_equal(replay(back, cube).data, noisy.data)
        # The dropped field held the entropy stage_rng rebuilds from the seed.
        for stage, entropy in obj["stage_entropy"].items():
            old = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            np.testing.assert_array_equal(old.random(4), stage_rng(80, stage).random(4))

    def test_record_without_case_rejected(self):
        # Only the removed general spec runner wrote records with no case.
        cube = random_cube(6, 6, 31, seed=24)
        _, record = apply_case(cube, "a", "msi31", seed=81)
        obj = dict(record.to_json_obj(), case=None, profile=None)
        with pytest.raises(ValueError, match="case"):
            replay(NoiseRecord.from_json_obj(obj), cube)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="well-ordered"):
            add_gaussian(random_cube(4, 4, 2, seed=0), (0.2, 0.1), np.random.default_rng(0))
