"""Seeded mixed-noise generators for benchmark corruption protocols.

Six composite cases (a)-(f) combine per-band Gaussian noise, salt-and-pepper
impulses, zeroed full-height "deadline" columns, and constant-offset stripe
columns.  A case table names every stage a case runs, with its Gaussian
and impulse levels; a profile table sets the band windows, counts and
widths of the structural stages, deadlines then stripes.  apply_case runs
every stage in place on one buffer, which becomes the noisy cube.
Everything is driven by numpy's PCG64 generator: streams are identical
across platforms for a fixed numpy version, each corruption stage derives
its own sub-seed from the master seed, and a NoiseRecord carries the
seed, case, profile, window rescaling and the realized per-band values
and placements, from which replay() reruns the case bit-exactly.

Column and band indices in records are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from rctv.cube import HsiCube

SigmaLike = Union[float, tuple[float, float]]

_U64_MASK = (1 << 64) - 1

# Stage tags double as sub-seed entropy, so replaying one stage in isolation
# is possible from the record's seed: stage_rng(record.seed, stage).
_STAGE_CODES = {"gaussian": 1, "impulse": 2, "deadline": 3, "stripe": 4}

# Every stage of each case, in the order apply_case runs them: the Gaussian
# sigma and impulse ratio (a scalar for every band, a (lo, hi) range with
# one value drawn per band, or None to skip the stage), then whether the
# deadline and stripe stages run.
_CASE_STAGES = {
    "a": (0.1, None, False, False),
    "b": (0.1, None, True, False),
    "c": (0.075, 0.1, False, False),
    "d": (0.075, 0.1, True, False),
    "e": ((0.05, 0.15), (0.05, 0.15), True, False),
    "f": ((0.05, 0.15), (0.05, 0.15), True, True),
}

CASES = tuple(_CASE_STAGES)

# The structural stages: 1-based inclusive band windows at the profile's
# native band count, and inclusive (lo, hi) count and width ranges.
PROFILES = {
    "msi31": {
        "bands": 31,
        "deadline_window": (11, 20),
        "deadline_count": (5, 55),
        "deadline_width": (1, 5),
        "stripe_window": (21, 30),
        "stripe_count": (50, 100),
    },
    "hsi160": {
        "bands": 160,
        "deadline_window": (91, 130),
        "deadline_count": (3, 10),
        "deadline_width": (1, 3),
        "stripe_window": (141, 160),
        "stripe_count": (20, 40),
    },
}

_STRIPE_OFFSETS = (-0.25, 0.25)


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    """Deterministic per-stage generator derived from the master seed."""
    entropy = [int(seed) & _U64_MASK, _STAGE_CODES[stage]]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass
class NoiseRecord:
    """Realized corruption parameters plus the (case, profile, seed) to replay."""

    seed: int
    case: Optional[str]
    profile: Optional[str]
    windows_rescaled: bool
    gaussian_sigma: Optional[list[float]]
    impulse_ratio: Optional[list[float]]
    impulse_count: Optional[list[int]]
    deadlines: Optional[dict[int, list[tuple[int, int]]]]
    stripes: Optional[dict[int, list[tuple[int, float]]]]

    def to_json_obj(self) -> dict:
        # A shallow copy: json.dump only reads the per-band lists.
        obj = dict(vars(self))
        # JSON object keys must be strings.
        for key in ("deadlines", "stripes"):
            if obj[key] is not None:
                obj[key] = {str(b): v for b, v in obj[key].items()}
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NoiseRecord":
        """Load a record; the spec and stage_entropy keys of older records are ignored."""
        deadlines = obj.get("deadlines")
        if deadlines is not None:
            deadlines = {
                int(b): [(int(c), int(w)) for c, w in v] for b, v in deadlines.items()
            }
        stripes = obj.get("stripes")
        if stripes is not None:
            stripes = {
                int(b): [(int(c), float(o)) for c, o in v] for b, v in stripes.items()
            }
        return cls(
            seed=obj["seed"],
            case=obj.get("case"),
            profile=obj.get("profile"),
            windows_rescaled=obj.get("windows_rescaled", False),
            gaussian_sigma=obj.get("gaussian_sigma"),
            impulse_ratio=obj.get("impulse_ratio"),
            impulse_count=obj.get("impulse_count"),
            deadlines=deadlines,
            stripes=stripes,
        )


def _per_band_values(param: SigmaLike, bands: int, rng: np.random.Generator):
    """Resolve a scalar or a range to one value per band.

    A tuple or list is a (lo, hi) range: one value per band is drawn up
    front with a single uniform call, so the downstream noise stream does
    not depend on how the values were specified.
    """
    if isinstance(param, (tuple, list)):
        lo, hi = param
        if hi < lo:
            raise ValueError(f"range not well-ordered: {param}")
        return rng.uniform(lo, hi, bands)
    return np.full(bands, float(param))


def _gaussian(
    planes: np.ndarray, clean: np.ndarray, sigma: SigmaLike, rng: np.random.Generator
) -> np.ndarray:
    """Write clean plus Gaussian noise into planes; return the per-band sigmas.

    planes and clean are (B, M*N), planes C-ordered and writable.  Each
    band's draws go straight into its plane and are scaled and summed there
    while the plane is in cache.  Drawn band by band, the stream is the one
    a single draw of the whole cube gives, and n*s + x is the same bits as
    x + n*s.
    """
    sigmas = _per_band_values(sigma, planes.shape[0], rng)
    if np.any(sigmas < 0):
        raise ValueError("gaussian sigma must be >= 0")
    for plane, s, x in zip(planes, sigmas, clean):
        rng.standard_normal(out=plane)
        plane *= s
        plane += x
    return sigmas


def _impulse(
    planes: np.ndarray, ratio: SigmaLike, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Salt-and-pepper corruption of the (B, M*N) planes, in place.

    Returns the per-band ratios and corrupted counts; see add_impulse.
    """
    ratios = _per_band_values(ratio, planes.shape[0], rng)
    if np.any((ratios < 0) | (ratios > 1)):
        raise ValueError("impulse ratio must lie in [0, 1]")
    mn = planes.shape[1]
    counts = np.floor(ratios * mn).astype(np.int64)
    for plane, count in zip(planes, counts.tolist()):
        if count == 0:
            continue
        idx = rng.choice(mn, size=count, replace=False)
        plane[idx] = rng.integers(0, 2, size=count).astype(np.float64)
    return ratios, counts


def add_gaussian(
    cube: HsiCube, sigma: SigmaLike, rng: np.random.Generator
) -> tuple[HsiCube, np.ndarray]:
    """Add zero-mean Gaussian noise with one standard deviation per band.

    Returns the corrupted cube and the realized per-band sigmas.
    """
    planes = np.empty((cube.bands, cube.height * cube.width))
    sigmas = _gaussian(planes, cube.data.reshape(cube.bands, -1), sigma, rng)
    return HsiCube(cube.height, cube.width, cube.bands, planes.ravel()), sigmas


def add_impulse(
    cube: HsiCube, ratio: SigmaLike, rng: np.random.Generator
) -> tuple[HsiCube, np.ndarray, np.ndarray]:
    """Salt-and-pepper corruption of exactly floor(ratio * M * N) entries per band.

    Corrupted entries are chosen uniformly without replacement and set to 0
    or 1 with equal probability; everything else is untouched bit-for-bit.
    Returns (cube, per-band ratios, per-band corrupted counts).
    """
    data = cube.data.copy()
    ratios, counts = _impulse(data.reshape(cube.bands, -1), ratio, rng)
    return HsiCube(cube.height, cube.width, cube.bands, data), ratios, counts


def _free_starts(occupied: np.ndarray, width: int) -> np.ndarray:
    """Starts p, ascending, where no column in [p, p + width) is occupied."""
    taken = np.concatenate(([0], np.cumsum(occupied)))
    return np.flatnonzero(taken[width:] == taken[:-width])


def _zero_deadlines(
    planes: np.ndarray, bands: range, count_range: tuple[int, int],
    width_range: tuple[int, int], rng: np.random.Generator,
) -> dict[int, list[tuple[int, int]]]:
    """Zero random non-overlapping column runs of the given bands, in place.

    planes is a writable (B, N, M) view of the cube, planes[b, j] being
    column j of band b.  Per band, a run count is drawn from count_range,
    then each run gets a width from width_range and a uniformly random
    starting column among the positions that keep runs disjoint; placement
    stops early if nothing fits.  Returns {band: [(start_col, width), ...]}.
    width_range[1] must not exceed N; apply_case checks it up front.
    """
    n = planes.shape[1]
    placements: dict[int, list[tuple[int, int]]] = {}
    for b in bands:
        count = int(rng.integers(count_range[0], count_range[1], endpoint=True))
        occupied = np.zeros(n, dtype=bool)
        placed: list[tuple[int, int]] = []
        for _ in range(count):
            width = int(rng.integers(width_range[0], width_range[1], endpoint=True))
            free = _free_starts(occupied, width)
            if free.size == 0:
                break
            start = int(free[rng.integers(free.size)])
            occupied[start : start + width] = True
            planes[b, start : start + width] = 0.0
            placed.append((start, width))
        placements[b] = placed
    return placements


def _strike_stripes(
    planes: np.ndarray, bands: range, count_range: tuple[int, int], rng: np.random.Generator
) -> dict[int, list[tuple[int, float]]]:
    """Add a constant offset to random columns of the given bands, in place.

    planes is as for _zero_deadlines.  Per band, a stripe count is drawn
    from count_range (capped at the image width), distinct columns are
    sampled without replacement, and each gets an offset drawn uniformly
    from _STRIPE_OFFSETS.  Struck values are not clipped, so they may leave
    [0, 1].  Returns {band: [(col, offset), ...]}.
    """
    n = planes.shape[1]
    placements: dict[int, list[tuple[int, float]]] = {}
    for b in bands:
        count = min(int(rng.integers(count_range[0], count_range[1], endpoint=True)), n)
        cols = rng.choice(n, size=count, replace=False)
        offsets = rng.uniform(*_STRIPE_OFFSETS, size=count)
        # The columns are distinct, so one fancy-indexed add is exact.
        planes[b, cols] += offsets[:, None]
        placements[b] = [(int(c), float(o)) for c, o in zip(cols, offsets)]
    return placements


def apply_case(
    cube: HsiCube, case_id: str, profile: str, seed: int
) -> tuple[HsiCube, NoiseRecord]:
    """Corrupt a cube per one of the named cases (a)-(f).

    Stages run Gaussian, then impulse, then deadlines, then stripes, a
    case running those its _CASE_STAGES row names, each from its own
    stage_rng, so dropping or adding a later stage never perturbs the
    earlier ones.  Every stage edits one buffer in place: the Gaussian
    stage writes the clean cube plus its draws into it, and the later
    stages overwrite or add to its entries, so the noisy cube is the only
    M*N x B array allocated.  The NoiseRecord is built once, after the
    last stage.  Profile band windows assume the profile's native band
    count; other counts get proportionally rescaled windows and the fact
    is flagged.
    """
    if case_id not in CASES:
        raise ValueError(f"unknown case {case_id!r}; choose from {CASES}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    prof = PROFILES[profile]
    rescaled = cube.bands != prof["bands"]

    def window(key):
        """0-based band indices of a 1-based window, mapped proportionally."""
        lo, hi = prof[key]
        if rescaled:
            lo = max(1, round(lo * cube.bands / prof["bands"]))
            hi = max(min(cube.bands, round(hi * cube.bands / prof["bands"])), lo)
        return range(lo - 1, hi)

    sigma, ratio, has_deadlines, has_stripes = _CASE_STAGES[case_id]
    # Fail before any noise is drawn, not after the first two stages.
    if has_deadlines and prof["deadline_width"][1] > cube.width:
        raise ValueError(
            f"deadline width up to {prof['deadline_width'][1]} exceeds width {cube.width}"
        )
    # Every stage edits this one buffer; the cube built from it at the end
    # is the only finite check.
    planes = np.empty((cube.bands, cube.height * cube.width))
    sigmas = _gaussian(
        planes, cube.data.reshape(cube.bands, -1), sigma, stage_rng(seed, "gaussian")
    )
    ratios = counts = deadlines = stripes = None
    if ratio is not None:
        ratios, counts = _impulse(planes, ratio, stage_rng(seed, "impulse"))
    # Column-major planes: one C-ordered (B, N, M) view, [b, j] a column.
    columns = planes.reshape(cube.bands, cube.width, cube.height)
    if has_deadlines:
        deadlines = _zero_deadlines(
            columns, window("deadline_window"), prof["deadline_count"],
            prof["deadline_width"], stage_rng(seed, "deadline"),
        )
    if has_stripes:
        stripes = _strike_stripes(
            columns, window("stripe_window"), prof["stripe_count"], stage_rng(seed, "stripe")
        )
    record = NoiseRecord(
        seed=seed,
        case=case_id,
        profile=profile,
        windows_rescaled=rescaled,
        gaussian_sigma=sigmas.tolist(),
        impulse_ratio=None if ratios is None else ratios.tolist(),
        impulse_count=None if counts is None else counts.tolist(),
        deadlines=deadlines,
        stripes=stripes,
    )
    return HsiCube(cube.height, cube.width, cube.bands, planes.reshape(-1)), record


def replay(record: NoiseRecord, clean: HsiCube) -> HsiCube:
    """Re-run the case a record names from (case, profile, seed); bit-exact."""
    return apply_case(clean, record.case, record.profile, record.seed)[0]
