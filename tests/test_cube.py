import json
import os
import tempfile
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rctv.cube
from rctv.cube import (
    MAX_HEADER_BYTES,
    CubeFormatError,
    HsiCube,
    NormalizationRecord,
    casorati_rows,
    denormalize_bands,
    fold_casorati,
    normalize_bands,
    read_cube,
    unfold_casorati,
    write_cube,
)


def test_unfold_single_pixel():
    cube = HsiCube(1, 1, 3, np.array([2.0, 5.0, 7.0]))
    mat = unfold_casorati(cube)
    assert mat.shape == (1, 3)
    np.testing.assert_array_equal(mat, [[2.0, 5.0, 7.0]])


def test_unfold_hand_enumeration():
    # Band plane [[1,3],[2,4]] (rows i, cols j): k = j*M + i gives 1,2,3,4.
    cube = HsiCube.from_array(np.array([[1.0, 3.0], [2.0, 4.0]])[:, :, None])
    mat = unfold_casorati(cube)
    np.testing.assert_array_equal(mat.ravel(), [1.0, 2.0, 3.0, 4.0])


def test_fold_hand_enumeration():
    cube = fold_casorati(np.array([[1.0], [2.0], [3.0], [4.0]]), 2, 2)
    np.testing.assert_array_equal(cube.band(0), [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (1, 7, 3), (3, 4, 2), (5, 4, 6)])
def test_fold_unfold_roundtrip(dims, rng):
    m, n, b = dims
    cube = HsiCube(m, n, b, rng.random(m * n * b))
    back = fold_casorati(unfold_casorati(cube), m, n)
    np.testing.assert_array_equal(back.data, cube.data)


@st.composite
def float32_exact_cubes(draw):
    """Cubes of 1..6 per dimension whose values are all float32-exact."""
    m, n, b = (draw(st.integers(1, 6)) for _ in range(3))
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    values = draw(hnp.arrays(np.float32, m * n * b, elements=finite))
    return HsiCube(m, n, b, values.astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(cube=float32_exact_cubes())
def test_fold_unfold_roundtrip_on_random_shapes(cube):
    mat = unfold_casorati(cube)
    back = fold_casorati(mat, cube.height, cube.width)
    assert back.shape == cube.shape
    assert back.data.tobytes() == cube.data.tobytes()
    np.testing.assert_array_equal(unfold_casorati(back), mat)


@settings(max_examples=60, deadline=None)
@given(cube=float32_exact_cubes())
def test_file_roundtrip_on_random_shapes(cube):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.hsic")
        write_cube(cube, path)
        back = read_cube(path)
    assert back.shape == cube.shape
    assert back.data.tobytes() == cube.data.tobytes()


def test_unfold_is_read_only_view(rng):
    cube = HsiCube(3, 4, 2, rng.random(24))
    mat = unfold_casorati(cube)
    assert np.shares_memory(mat, cube.data)
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError, match="row count"):
        fold_casorati(np.zeros((5, 1)), 2, 2)


def test_empty_axis_reaches_the_dimension_check():
    # A zero-length plane or band axis copies nothing and fails as a cube.
    for mat, m, n in ((np.zeros((0, 3)), 0, 4), (np.zeros((4, 0)), 2, 2)):
        with pytest.raises(ValueError, match="positive"):
            fold_casorati(mat, m, n)
    with pytest.raises(ValueError, match="positive"):
        HsiCube.from_array(np.zeros((2, 3, 0)))


def test_band_view_matches_casorati_rows(rng):
    cube = HsiCube(3, 4, 2, rng.random(24))
    mat = unfold_casorati(cube)
    for i in range(3):
        for j in range(4):
            np.testing.assert_array_equal(mat[j * 3 + i], [cube.band(0)[i, j], cube.band(1)[i, j]])


def test_cube_validation():
    with pytest.raises(ValueError, match="positive"):
        HsiCube(0, 1, 1, np.zeros(0))
    with pytest.raises(ValueError, match="length"):
        HsiCube(2, 2, 1, np.zeros(5))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            HsiCube(1, 1, 3, np.array([1.0, bad, 2.0]))


def test_band_out_of_range(rng):
    cube = HsiCube(2, 2, 2, rng.random(8))
    with pytest.raises(IndexError):
        cube.band(2)


def test_cube_immutable(rng):
    cube = HsiCube(2, 2, 1, rng.random(4))
    with pytest.raises(ValueError):
        cube.data[0] = 3.0


def test_cube_views_a_contiguous_float64_input(rng):
    # No copy is made: the caller's array stays writable and a write to it
    # shows in the cube, which is why the caller must not write to it.
    a = rng.random(12)
    cube = HsiCube(2, 3, 2, a)
    x = np.asfortranarray(rng.random((6, 2)))
    folded = fold_casorati(x, 2, 3)
    arr = np.asfortranarray(rng.random((2, 3, 2)))
    built = HsiCube.from_array(arr)
    for source, view in ((a, cube), (x, folded), (arr, built)):
        assert np.shares_memory(view.data, source)
        source.flat[0] = 7.0
        assert view.data[0] == 7.0
    # A strided input is copied into an array of the cube's own.
    strided = rng.random(24)[::2]
    assert not np.shares_memory(HsiCube(2, 3, 2, strided).data, strided)


def pixels(rng, shape, kind):
    """A random array of the given shape: float64, float32, or a strided view."""
    if kind == "strided":
        # Every other row of a taller array, last row first.
        return rng.random((2 * shape[0], *shape[1:]))[::-2]
    x = rng.random(shape)
    return x.astype(np.float32) if kind == "float32" else x


@pytest.mark.parametrize("kind", ["float64", "float32", "strided"])
@pytest.mark.parametrize(
    "dims, cols",
    [((5, 7, 3), 2), ((5, 7, 3), None), ((1, 9, 4), 2), ((6, 1, 4), 1), ((6, 5, 1), 2)],
    ids=["ragged", "one-block", "M=1", "N=1", "B=1"],
)
def test_column_blocks_equal_one_transposing_copy(monkeypatch, rng, dims, cols, kind):
    # A block of `cols` image columns, as force_tile_rows shrinks solve()'s
    # tiles; where it does not divide N the last block is ragged.  None
    # keeps the default, under which each of these cubes is one block.
    m, n, b = dims
    if cols is not None:
        monkeypatch.setattr(rctv.cube, "_BLOCK_BYTES", cols * 8 * m * b)
    mat = pixels(rng, (m * n, b), kind)
    folded = fold_casorati(mat, m, n)
    assert folded.data.tobytes() == np.ascontiguousarray(mat.T, dtype=np.float64).tobytes()
    arr = pixels(rng, (m, n, b), kind)
    built = HsiCube.from_array(arr)
    want = np.ascontiguousarray(arr.transpose(2, 1, 0), dtype=np.float64)
    assert built.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["float64", "float32", "strided"])
@pytest.mark.parametrize(
    "shape, build",
    [((48 * 48, 96), lambda x: fold_casorati(x, 48, 48)), ((48, 48, 96), HsiCube.from_array)],
    ids=["fold_casorati", "from_array"],
)
def test_column_blocks_allocate_only_the_output(rng, shape, build, kind):
    x = pixels(rng, shape, kind)
    tracemalloc.start()
    try:
        build(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * x.size * 8


def test_normalize_affine():
    cube = HsiCube(3, 1, 1, np.array([0.0, 5.0, 10.0]))
    out, rec = normalize_bands(cube)
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])
    assert rec.mins[0] == 0.0 and rec.maxs[0] == 10.0
    assert rec.maxs[0] != rec.mins[0]


def test_normalize_constant_band_flagged():
    cube = HsiCube(3, 1, 1, np.array([3.0, 3.0, 3.0]))
    out, rec = normalize_bands(cube)
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0])
    assert rec.maxs[0] == rec.mins[0]
    back = denormalize_bands(out, rec)
    np.testing.assert_array_equal(back.data, cube.data)


def test_normalize_roundtrip(rng):
    cube = HsiCube(4, 5, 3, 10.0 * rng.random(60) - 4.0)
    out, rec = normalize_bands(cube)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    back = denormalize_bands(out, rec)
    np.testing.assert_allclose(back.data, cube.data, rtol=1e-12, atol=1e-12)


def test_denormalize_allocates_only_its_output(rng):
    m, n, b = 48, 48, 96
    cube = HsiCube(m, n, b, rng.random(m * n * b))
    rec = NormalizationRecord(mins=rng.random(b) - 0.5, maxs=rng.random(b) + 1.0)
    tracemalloc.start()
    try:
        back = denormalize_bands(cube, rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * m * n * b * 8
    x = unfold_casorati(cube)
    want = fold_casorati(x * (rec.maxs - rec.mins) + rec.mins, m, n)
    np.testing.assert_allclose(back.data, want.data, rtol=1e-12, atol=0)


def test_normalize_is_the_elementwise_formula(rng):
    # Band 3 is constant, so its span is replaced by 1.
    arr = 10.0 * rng.random((6, 7, 5)) - 3.0
    arr[:, :, 3] = -2.25
    cube = HsiCube.from_array(arr)
    normalized, rec = normalize_bands(cube)
    want = (unfold_casorati(cube) - rec.mins) / rec.span
    assert np.array_equal(unfold_casorati(normalized), want)
    assert np.array_equal(want[:, 3], np.zeros(42))


@pytest.mark.parametrize(
    "op, bound",
    [
        (lambda cube, path: normalize_bands(cube), 1.1),
        (lambda cube, path: casorati_rows(cube), 1.1),
        (lambda cube, path: write_cube(cube, path), 0.55),
    ],
    ids=["normalize_bands", "casorati_rows", "write_cube"],
)
def test_allocates_only_its_output(tmp_path, rng, op, bound):
    # Each builds one M*N x B output (write_cube's is the float32 payload)
    # and no cube-sized temporary beside it.
    m, n, b = 48, 48, 96
    cube = HsiCube(m, n, b, rng.random(m * n * b))
    tracemalloc.start()
    try:
        op(cube, tmp_path / "c.hsic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * m * n * b * 8


@pytest.mark.parametrize(
    "shape", [(1, 35), (7, 5), (35, 1)], ids=["row", "ragged", "one-tile"]
)
def test_casorati_rows_is_the_c_ordered_normalize_bands(rng, shape):
    # 35 pixels as one image row, a non-square plane and one image column,
    # so the k = j*M + i order is checked at both degenerate extents.
    # Band 2 is constant.
    arr = 10.0 * rng.random((*shape, 4)) - 3.0
    arr[:, :, 2] = 1.5
    cube = HsiCube.from_array(arr)
    normalized, _ = normalize_bands(cube)
    rows = casorati_rows(normalized)
    assert rows.flags.c_contiguous and rows.flags.writeable and rows.dtype == np.float64
    assert np.array_equal(rows, np.ascontiguousarray(unfold_casorati(normalized)))
    assert np.array_equal(rows[:, 2], np.zeros(35))
    raw = casorati_rows(cube)
    assert raw.flags.c_contiguous and not np.shares_memory(raw, cube.data)
    assert np.array_equal(raw, unfold_casorati(cube))


def test_denormalize_band_count_mismatch(rng):
    cube = HsiCube(2, 2, 2, rng.random(8))
    _, rec = normalize_bands(cube)
    other = HsiCube(2, 2, 3, rng.random(12))
    with pytest.raises(ValueError, match="bands"):
        denormalize_bands(other, rec)


def test_file_roundtrip_bit_exact(tmp_path, rng):
    cube = HsiCube(3, 3, 2, rng.random(18))
    p1 = tmp_path / "a.hsic"
    p2 = tmp_path / "b.hsic"
    write_cube(cube, p1)
    back = read_cube(p1)
    # The payload is f32; the reread cube matches the f32 rounding exactly.
    np.testing.assert_array_equal(
        back.data, cube.data.astype("<f4").astype(np.float64)
    )
    write_cube(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_truncated_payload(tmp_path):
    header = {"magic": "HSIC1", "height": 2, "width": 2, "bands": 2,
              "dtype": "f32le", "layout": "bsq-colmajor"}
    p = tmp_path / "t.hsic"
    p.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(7, "<f4").tobytes())
    with pytest.raises(CubeFormatError, match="truncated"):
        read_cube(p)


def test_file_zero_bands(tmp_path):
    header = {"magic": "HSIC1", "height": 2, "width": 2, "bands": 0,
              "dtype": "f32le", "layout": "bsq-colmajor"}
    p = tmp_path / "z.hsic"
    p.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(CubeFormatError, match="invalid dimensions"):
        read_cube(p)


@pytest.mark.parametrize("value", ["1e400", "2.9", "true", '"12"', "null"])
def test_file_dimension_must_be_a_json_integer(tmp_path, value):
    header = ('{"magic": "HSIC1", "height": %s, "width": 2, "bands": 1, '
              '"dtype": "f32le", "layout": "bsq-colmajor"}' % value)
    p = tmp_path / "d.hsic"
    p.write_bytes(header.encode() + b"\n" + np.zeros(2, "<f4").tobytes())
    with pytest.raises(CubeFormatError, match="bad dimension field height"):
        read_cube(p)


def test_file_dimension_overflow(tmp_path):
    header = {"magic": "HSIC1", "height": 1 << 20, "width": 1 << 20, "bands": 64,
              "dtype": "f32le", "layout": "bsq-colmajor"}
    p = tmp_path / "o.hsic"
    p.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(CubeFormatError, match="overflow"):
        read_cube(p)


def test_file_malformed_header(tmp_path):
    p = tmp_path / "m.hsic"
    p.write_bytes(b"not json at all\n")
    with pytest.raises(CubeFormatError, match="malformed"):
        read_cube(p)
    p.write_bytes(json.dumps({"magic": "NOPE"}).encode() + b"\n")
    with pytest.raises(CubeFormatError, match="magic"):
        read_cube(p)


def test_file_trailing_bytes(tmp_path, rng):
    cube = HsiCube(2, 2, 1, rng.random(4))
    p = tmp_path / "x.hsic"
    write_cube(cube, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(CubeFormatError, match="trailing"):
        read_cube(p)


def test_file_header_search_is_bounded(tmp_path):
    # A newline-free file longer than the bound fails on the bound, without
    # reading the rest; a short one still fails on the terminator.
    p = tmp_path / "h.hsic"
    p.write_bytes(b"{" * (3 * MAX_HEADER_BYTES))
    with pytest.raises(CubeFormatError, match="header line too long"):
        read_cube(p)
    p.write_bytes(b"{" * (MAX_HEADER_BYTES - 1))
    with pytest.raises(CubeFormatError, match="missing header line terminator"):
        read_cube(p)


def test_write_rejects_values_beyond_float32(tmp_path):
    p = tmp_path / "big.hsic"
    with pytest.raises(ValueError, match="float32 range"):
        write_cube(HsiCube(2, 2, 1, [1.0, 2.0, 3.0, 4e38]), p)
    assert not p.exists()
    # The float32 extremes themselves are written and read back exactly.
    edge = float(np.finfo(np.float32).max)
    write_cube(HsiCube(2, 2, 1, [edge, -edge, 0.0, 1.0]), p)
    np.testing.assert_array_equal(read_cube(p).data, [edge, -edge, 0.0, 1.0])
