"""Hyperspectral cube data model and I/O.

A cube is an M x N x B volume stored band-sequentially: band b occupies one
contiguous M x N plane, column-major inside the plane, so that the Casorati
row index of pixel (i, j) is k = (j - 1) * M + i in 1-based terms
(k = j * M + i zero-based).  Column b of the Casorati matrix is the
vectorized band b; row k is the spectrum of one pixel.

All in-memory arithmetic is float64.  The native ".hsic" file format stores
a one-line JSON header followed by the raw payload as little-endian float32
in the same band-sequential, column-major order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HSIC_MAGIC = "HSIC1"
HSIC_DTYPE = "f32le"
HSIC_LAYOUT = "bsq-colmajor"

# Guard against absurd headers before allocating the payload buffer.
MAX_ELEMENTS = 2**31
# The longest header line read_header looks through for its terminator.
MAX_HEADER_BYTES = 64 * 1024
# Bytes in one block of whole image columns that _band_sequential copies at
# a time; the solver takes the same size, as _TILE_BYTES, for its tiles.
_BLOCK_BYTES = 256 * 1024


class CubeFormatError(ValueError):
    """Raised when an .hsic stream has a bad header or payload."""


@dataclass(frozen=True, eq=False)
class HsiCube:
    """M x N x B cube with band-sequential float64 storage.

    The fields cannot be reassigned and data is a read-only array, but the
    cube makes no copy when its input already is contiguous float64 in
    band-sequential order: a C-contiguous array passed as data, or a
    Fortran-ordered one given to fold_casorati or from_array.  The caller
    must not write to that array afterwards, or the cube changes with it.
    """

    height: int
    width: int
    bands: int
    data: np.ndarray

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.bands < 1:
            raise ValueError(
                f"cube dims must be positive, got "
                f"{self.height}x{self.width}x{self.bands}"
            )
        n = self.height * self.width * self.bands
        data = np.asarray(self.data, dtype=np.float64).reshape(-1)
        if data.size != n:
            raise ValueError(f"data length {data.size} != M*N*B = {n}")
        # min and max propagate NaN and reach any infinity, and unlike an
        # isfinite mask they allocate nothing the size of the cube.
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError("cube contains non-finite values")
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.bands)

    def band(self, b: int) -> np.ndarray:
        """Band b (0-based) as a read-only (M, N) plane view."""
        if not 0 <= b < self.bands:
            raise IndexError(f"band {b} out of range [0, {self.bands})")
        mn = self.height * self.width
        plane = self.data[b * mn : (b + 1) * mn]
        return plane.reshape((self.height, self.width), order="F")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "HsiCube":
        """Build from an (M, N, B) array indexed [i, j, b].

        A C-ordered array keeps each pixel's spectrum contiguous, so it is
        copied in blocks of whole image columns, for the reason
        fold_casorati gives.
        """
        arr = np.asarray(arr)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-d array, got ndim={arr.ndim}")
        m, n, b = arr.shape
        return cls(m, n, b, _band_sequential(arr.transpose(1, 0, 2)))


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-band (min, max) pairs captured by normalize_bands.

    A band with max == min is constant: it normalizes to zero and
    denormalizes back to the recorded min.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins/maxs must be 1-d arrays of equal length")
        if np.any(maxs < mins):
            raise ValueError("band max < band min")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def span(self) -> np.ndarray:
        """The divisor that maps each band onto [0, 1].

        A constant band's zero span is replaced by 1: there x - min is
        already exactly zero, so it normalizes to zeros rather than raising
        (real cubes contain dead bands and the solver must not abort on them).
        """
        return np.where(self.maxs == self.mins, 1.0, self.maxs - self.mins)


def _band_sequential(pixels: np.ndarray) -> np.ndarray:
    """Band-sequential float64 storage of an (N, M, B) array indexed [j, i, b].

    Returns pixels.transpose(2, 0, 1) raveled: a view when that already is
    contiguous float64, else a new array, the only M*N x B one allocated,
    written one block of whole image columns (about _BLOCK_BYTES, at least
    one column) at a time, so that each block is written while it is still
    in cache.
    """
    planes = pixels.transpose(2, 0, 1)
    if planes.dtype == np.float64 and planes.flags.c_contiguous:
        return planes.reshape(-1)
    n, m, b = pixels.shape
    out = np.empty(planes.shape)
    step = max(1, _BLOCK_BYTES // max(1, 8 * m * b))
    for j in range(0, n, step):
        out[:, j : j + step] = planes[:, j : j + step]
    return out.reshape(-1)


def unfold_casorati(cube: HsiCube) -> np.ndarray:
    """Unfold to the (M*N, B) Casorati matrix as a read-only view.

    Column b is the vectorized band b; row k = j*M + i (0-based) is the
    spectrum of pixel (i, j).  The view shares the cube's band-sequential
    storage, so it is column-major (Fortran-ordered) and costs no copy;
    a caller that streams over rows makes its own C-ordered copy.
    """
    mn = cube.height * cube.width
    return cube.data.reshape(cube.bands, mn).T


def casorati_rows(cube: HsiCube) -> np.ndarray:
    """The (M*N, B) Casorati matrix as a new C-ordered, writable array.

    Row k is the spectrum of pixel k, contiguous, which is the layout a
    pass over row tiles streams.  The output is the only M*N x B array
    allocated; to solve on normalized data, copy normalize_bands' output.
    """
    return unfold_casorati(cube).copy(order="C")


def fold_casorati(mat: np.ndarray, height: int, width: int) -> HsiCube:
    """Inverse of unfold_casorati for an (M*N, B) matrix.

    A Fortran-ordered float64 matrix becomes the cube's storage as it is.
    Any other is copied one block of whole image columns at a time: a
    C-ordered matrix's rows are spectra, and a transposing copy of the
    whole matrix would miss cache on every read.  casorati_rows copies the
    other way in one pass, since there each read follows a band's
    contiguous plane.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={mat.ndim}")
    if mat.shape[0] != height * width:
        raise ValueError(
            f"row count {mat.shape[0]} != M*N = {height * width}"
        )
    data = _band_sequential(mat.reshape(width, height, mat.shape[1]))
    return HsiCube(height, width, mat.shape[1], data)


def normalize_bands(cube: HsiCube) -> tuple[HsiCube, NormalizationRecord]:
    """Min-max rescale each band to [0, 1]; constant bands map to all-zeros.

    Each band becomes (x - min) / span, the one place this rule is
    computed.  The result keeps the band-sequential layout and is the only
    M*N x B array allocated; casorati_rows copies it into the C-ordered
    matrix solve_casorati takes.
    """
    x = cube.data.reshape(cube.bands, -1)
    rec = NormalizationRecord(mins=x.min(axis=1), maxs=x.max(axis=1))
    out = np.subtract(x, rec.mins[:, None])
    out /= rec.span[:, None]
    return HsiCube(cube.height, cube.width, cube.bands, out.reshape(-1)), rec


def denormalize_bands(cube: HsiCube, rec: NormalizationRecord) -> HsiCube:
    """Invert normalize_bands; a constant band's zero span restores its min."""
    if rec.mins.size != cube.bands:
        raise ValueError(
            f"record has {rec.mins.size} bands, cube has {cube.bands}"
        )
    # On the band-sequential (B, M*N) storage, scaled in place in the
    # output, which is the only M*N x B array allocated.
    x = cube.data.reshape(cube.bands, -1)
    out = np.multiply(x, (rec.maxs - rec.mins)[:, None])
    out += rec.mins[:, None]
    return HsiCube(cube.height, cube.width, cube.bands, out.reshape(-1))


def write_cube(cube: HsiCube, path) -> None:
    """Write the native .hsic format (JSON header line + f32le payload).

    The float32 payload is the only M*N x B array allocated.  A value beyond
    the float32 range raises ValueError before the file is opened.
    """
    with np.errstate(over="ignore"):
        payload = cube.data.astype("<f4")
    # The cube's values are finite, so a non-finite one here overflowed;
    # min and max reach any infinity without a cube-sized mask.
    if not (np.isfinite(payload.min()) and np.isfinite(payload.max())):
        raise ValueError("cube values exceed the float32 range of .hsic")
    header = {
        "magic": HSIC_MAGIC,
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": HSIC_DTYPE,
        "layout": HSIC_LAYOUT,
    }
    with open(path, "wb") as fp:
        fp.write(json.dumps(header).encode("utf-8"))
        fp.write(b"\n")
        fp.write(payload)


def read_header(fp) -> tuple[int, int, int]:
    """Parse and check the header line of an open binary .hsic stream.

    Returns (height, width, bands) and leaves fp at the first payload byte.
    """
    header_line = fp.readline(MAX_HEADER_BYTES)
    if not header_line.endswith(b"\n"):
        if len(header_line) == MAX_HEADER_BYTES:
            raise CubeFormatError("header line too long")
        raise CubeFormatError("missing header line terminator")
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CubeFormatError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise CubeFormatError("header is not a JSON object")
    if header.get("magic") != HSIC_MAGIC:
        raise CubeFormatError(f"bad magic {header.get('magic')!r}")
    if header.get("dtype") != HSIC_DTYPE:
        raise CubeFormatError(f"unsupported dtype {header.get('dtype')!r}")
    if header.get("layout") != HSIC_LAYOUT:
        raise CubeFormatError(f"unsupported layout {header.get('layout')!r}")
    for key in ("height", "width", "bands"):
        # JSON numbers such as 2.9 or 1e400 and true are not dimensions.
        if type(header.get(key)) is not int:
            raise CubeFormatError(f"bad dimension field {key}: {header.get(key)!r}")
    m, n, b = header["height"], header["width"], header["bands"]
    if m < 1 or n < 1 or b < 1:
        raise CubeFormatError(f"invalid dimensions {m}x{n}x{b}")
    if m * n * b > MAX_ELEMENTS:
        raise CubeFormatError(f"dimension overflow: {m}x{n}x{b}")
    return m, n, b


def read_cube(path) -> HsiCube:
    """Read the native .hsic format written by write_cube."""
    with open(path, "rb") as fp:
        m, n, b = read_header(fp)
        count = m * n * b
        payload = fp.read(4 * count)
        if len(payload) < 4 * count:
            raise CubeFormatError(
                f"truncated payload: expected {4 * count} bytes, "
                f"got {len(payload)}"
            )
        if fp.read(1):
            raise CubeFormatError("trailing bytes after payload")
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return HsiCube(m, n, b, data)
