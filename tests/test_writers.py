"""Mesh writers against the per-value formatting they replaced.

Every float of every mesh file is spelled one way: format(v, ".17g"), with
".0" after an integer.  The reference writers below format every number on
its own: an f-string per OBJ/PLY line, and json.dumps(indent=1) over nested
Python lists for mesh JSON, each float token spelled again by that rule.
The batch writers must produce the same bytes, also with blocks of 5 and of
1 point that split grid rows.  Both format the same mesh, so nothing here
pins ulps across numpy versions.  The numpy float table, cli._float_table,
is checked against the rule value by value.
"""
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import grtsurf
from grtsurf import cli, surface
from grtsurf.surface import MeshDiagnostics, SurfaceMesh, SurfaceSpec


def _fmt(v):
    text = format(float(v), ".17g")
    return text + ".0" if re.fullmatch(r"-?[0-9]+", text) else text


# a number token of json.dumps; a float has a fraction or an exponent
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?")


def _respell(match):
    return _fmt(float(match[0])) if match[1] or match[2] else match[0]


def reference_obj(mesh):
    verts, normals = mesh.compact_vertices()
    lines = ["# generated by grtsurf"]
    for x, y, z in verts:
        lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for x, y, z in normals:
        lines.append(f"vn {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for a, b, c, d in mesh.faces:
        lines.append(f"f {a+1}//{a+1} {b+1}//{b+1} {c+1}//{c+1}")
        lines.append(f"f {a+1}//{a+1} {c+1}//{c+1} {d+1}//{d+1}")
    return "\n".join(lines) + "\n"


def reference_ply(mesh):
    verts, normals = mesh.compact_vertices()
    tris = []
    for a, b, c, d in mesh.faces:
        tris.append((a, b, c))
        tris.append((a, c, d))
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(verts)}",
        "property float x", "property float y", "property float z",
        "property float nx", "property float ny", "property float nz",
        f"element face {len(tris)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for (x, y, z), (nx, ny, nz) in zip(verts, normals):
        lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(nx)} {_fmt(ny)} {_fmt(nz)}")
    for a, b, c in tris:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"


def reference_mesh_json(mesh):
    def num(v):  # every float that is not finite is null
        return float(v) if math.isfinite(v) else None

    def grid(arr):
        return [[None if not mesh.valid[i, j] else list(map(num, arr[i, j]))
                 for j in range(arr.shape[1])] for i in range(arr.shape[0])]

    diag = mesh.diagnostics

    def scalar(arr):
        return [[num(arr[i, j]) for j in range(arr.shape[1])]
                for i in range(arr.shape[0])]

    doc = {
        "u1": [num(v) for v in mesh.u1],
        "u2": [num(v) for v in mesh.u2],
        "vertices": grid(mesh.vertices),
        "normals": grid(mesh.normals),
        "faces": mesh.faces.tolist(),
        "diagnostics": {
            "psi": scalar(diag.psi),
            "lam": scalar(diag.lam),
            "mean_curvature": scalar(diag.mean),
            "gauss_curvature": scalar(diag.gauss),
            "c": scalar(diag.c),
            "det_v": scalar(diag.det_v),
            "support_residual": scalar(diag.support_residual),
            "distance_residual": scalar(diag.distance_residual),
            "weingarten_residual": scalar(diag.weingarten_residual),
            "pde_residual": scalar(diag.pde_residual),
            "regular": [[bool(v) for v in row] for row in mesh.valid],
        },
    }
    return _NUMBER.sub(_respell, json.dumps(doc, indent=1, allow_nan=False)) + "\n"


DEFAULT_BLOCK_POINTS = surface.BLOCK_POINTS

WRITERS = (
    (cli.write_obj, reference_obj),
    (cli.write_ply, reference_ply),
    (cli.write_mesh_json, reference_mesh_json),
)


def assert_writers_match(mesh, tmp_path):
    for write, reference in WRITERS:
        path = tmp_path / f"mesh.{write.__name__}"
        write(mesh, str(path))
        assert path.read_bytes() == reference(mesh).encode("utf-8"), write.__name__


def _spec_mesh(f, g, ell, method="closed_form", n=24):
    spec = SurfaceSpec.from_strings(f, g, ell, u1_range=(-1.0, 1.0),
                                    u2_range=(-math.pi, math.pi),
                                    nu1=n, nu2=n + 3, method=method)
    return surface.sample_mesh(spec)


@pytest.mark.parametrize("method", ["closed_form", "direct"])
def test_fig1_matches_reference(tmp_path, method):
    assert_writers_match(_spec_mesh("z", "z", "t^2+t+1", method), tmp_path)


def test_masked_mesh_matches_reference(tmp_path):
    mesh = _spec_mesh("z", "z", "log(t+0.5)")
    assert not mesh.valid.all() and mesh.valid.any()
    assert np.isnan(mesh.diagnostics.psi).any()
    assert_writers_match(mesh, tmp_path)


def _hand_built_mesh(faces):
    nu1, nu2 = 2, 3
    rng = np.random.default_rng(7)
    specials = np.array([math.inf, -math.inf, -0.0, math.nan, 0.0, 1e-300])

    def field():
        scale = 10.0 ** rng.integers(-20, 20, (nu1, nu2))
        values = rng.standard_normal((nu1, nu2)) * scale
        values.flat[:len(specials)] = rng.permutation(specials)
        return values

    valid = np.array([[True, False, True], [True, True, True]])
    vertices = rng.standard_normal((nu1, nu2, 3))
    vertices[0, 0] = (-0.0, math.inf, 1e-7)
    vertices[1, 2] = (math.nan, -math.inf, 123456789.0)
    # each side of each bound of the fixed-notation range of '%.17g'
    vertices[0, 2] = (1e-4, 9.99e-5, 1e16)
    vertices[1, 0] = (1e17, 1e300, 5e-324)
    vertices[~valid] = math.nan
    diag = MeshDiagnostics(*(field() for _ in range(10)))
    return SurfaceMesh(u1=np.array([-0.0, 1.0]), u2=np.array([0.1, 0.2, 1e22]),
                       vertices=vertices, normals=-vertices, valid=valid,
                       faces=faces, diagnostics=diag)


def test_non_finite_values_match_reference(tmp_path):
    assert_writers_match(_hand_built_mesh([(0, 2, 4, 3)]), tmp_path)


def test_mesh_without_faces_matches_reference(tmp_path):
    mesh = _hand_built_mesh([])
    assert_writers_match(mesh, tmp_path)
    cli.write_ply(mesh, str(tmp_path / "empty.ply"))
    assert "element face 0\n" in (tmp_path / "empty.ply").read_text()
    cli.write_mesh_json(mesh, str(tmp_path / "empty.json"))
    assert '"faces": [],' in (tmp_path / "empty.json").read_text()


@pytest.mark.parametrize("shape", [(0, 0), (2, 0)], ids=["no-rows", "empty-rows"])
def test_empty_grid_matches_reference(tmp_path, shape):
    empty = np.zeros(shape)
    diag = MeshDiagnostics(*(empty for _ in range(10)))
    mesh = SurfaceMesh(u1=np.zeros(shape[0]), u2=np.zeros(shape[1]),
                       vertices=np.zeros(shape + (3,)), normals=np.zeros(shape + (3,)),
                       valid=empty.astype(bool), faces=[], diagnostics=diag)
    assert_writers_match(mesh, tmp_path)


def _masked_mesh(valid, seed=0, vertices=None, diagnostics=None):
    """A mesh over the grid of ``valid`` with ``vertices`` and the ten float
    grids of ``diagnostics``, else random finite values, whose faces are
    listed quad by quad as the grid sampler defines them."""
    rng = np.random.default_rng(seed)
    nu1, nu2 = valid.shape
    if vertices is None:
        vertices = rng.standard_normal((nu1, nu2, 3))
    vertices = np.where(valid[..., None], vertices, np.nan)
    index = np.where(valid, np.cumsum(valid).reshape(valid.shape) - 1, -1)
    faces = [tuple(int(index[c]) for c in corners)
             for i in range(nu1 - 1) for j in range(nu2 - 1)
             for corners in [((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))]
             if all(valid[c] for c in corners)]
    if diagnostics is None:
        diagnostics = rng.standard_normal((10,) + valid.shape)
    diag = MeshDiagnostics(*diagnostics)
    return SurfaceMesh(u1=np.linspace(-1.0, 1.0, nu1), u2=np.linspace(0.0, 1.0, nu2),
                       vertices=vertices, normals=-vertices, valid=valid,
                       faces=faces, diagnostics=diag)


# 0-based (PLY, JSON) and 1-based (OBJ) indices on either side of each power
# of 10, and BLOCK_POINTS - 1, BLOCK_POINTS and BLOCK_POINTS + 1 quads: faces
# go in blocks of BLOCK_POINTS quads, and mesh JSON opens its list in the first
@pytest.mark.parametrize("shape", [(2, 5), (2, 6), (2, 50), (2, 51), (2, 500),
                                   (2, 501), (2, 5000), (2, 5001),
                                   (2, surface.BLOCK_POINTS), (2, surface.BLOCK_POINTS + 1),
                                   (2, surface.BLOCK_POINTS + 2)])
def test_face_indices_across_digit_counts(tmp_path, shape):
    mesh = _masked_mesh(np.ones(shape, dtype=bool))
    assert mesh.vertex_count == shape[0] * shape[1]
    assert_writers_match(mesh, tmp_path)


def test_ply_writes_index_zero(tmp_path):
    mesh = _masked_mesh(np.ones((2, 2), dtype=bool))
    assert mesh.faces.tolist() == [[0, 2, 3, 1]]
    assert_writers_match(mesh, tmp_path)
    cli.write_ply(mesh, str(tmp_path / "quad.ply"))
    faces = (tmp_path / "quad.ply").read_text().splitlines()[-2:]
    assert faces == ["3 0 2 3", "3 0 3 1"]


@pytest.mark.parametrize("valid", [
    [[True, False, True], [False, True, False], [True, False, True]],
    [[True, True, True, True], [False, False, False, False]],
    [[True], [True], [True]],
], ids=["checkerboard", "one-row", "one-column"])
def test_vertices_without_quads_match_reference(tmp_path, valid):
    mesh = _masked_mesh(np.array(valid))
    assert mesh.vertex_count > 0 and mesh.face_count == 0
    assert_writers_match(mesh, tmp_path)


@pytest.mark.parametrize("count", [surface.BLOCK_POINTS - 1, surface.BLOCK_POINTS,
                                   surface.BLOCK_POINTS + 1])
def test_float_blocks_match_reference(tmp_path, count):
    valid = np.ones((2, surface.BLOCK_POINTS // 2 + 1), dtype=bool)
    valid[1, count - valid.size:] = False
    mesh = _masked_mesh(valid)
    assert mesh.vertex_count == count
    assert_writers_match(mesh, tmp_path)


# mesh JSON formats blocks of at most 3 * BLOCK_POINTS numbers: u2 is a
# width-1 list of one block less one cell, one block, and one block and a
# cell, and the diagnostics' block edge falls inside row 1, on its first
# cell, and on the last cell of row 0
@pytest.mark.parametrize("count", [3 * surface.BLOCK_POINTS - 1, 3 * surface.BLOCK_POINTS,
                                   3 * surface.BLOCK_POINTS + 1])
def test_width_one_blocks_match_reference(tmp_path, count):
    valid = np.ones((2, count), dtype=bool)
    valid[:, ::7] = False
    diagnostics = np.random.default_rng(count).standard_normal((10, 2, count))
    diagnostics[:, :, ::5] = np.nan
    mesh = _masked_mesh(valid, diagnostics=diagnostics)
    assert mesh.u2.size == count
    assert_writers_match(mesh, tmp_path)


# mesh JSON takes 0.0 and -0.0 from a table and spells a run of bit-equal
# printed neighbours once.  The grid is wide enough that a block edge of the
# diagnostics (every 3 * BLOCK_POINTS cells) falls in row 1, so a row-constant
# run crosses it; vertices and normals are one constant run, which crosses
# every vertex block edge.
@pytest.mark.parametrize("block_points", [DEFAULT_BLOCK_POINTS, 5, 1])
def test_runs_and_zeros_match_reference(tmp_path, monkeypatch, block_points):
    monkeypatch.setattr(surface, "BLOCK_POINTS", block_points)
    nu2 = 3 * block_points // 2 + 7
    valid = np.ones((2, nu2), dtype=bool)
    valid[:, 3::11] = False
    column = np.arange(nu2)
    rows = np.random.default_rng(block_points).standard_normal((10, 2, 1))
    diagnostics = np.broadcast_to(rows, (10, 2, nu2)).copy()  # constant along rows
    diagnostics[1] = np.where(column % 2, -0.0, 0.0)  # zeros alternating
    diagnostics[2] = np.where(column // 4 % 2, -0.0, 0.0)  # and in runs of 4
    diagnostics[3, :, 5::9] = math.nan  # row runs broken by NaN
    diagnostics[4, 0], diagnostics[4, 1] = 0.0, -0.0
    diagnostics[5, 1] = diagnostics[5, 0]  # one run over both rows
    mesh = _masked_mesh(valid, diagnostics=diagnostics)
    # constant runs, broken by the values of the invalid vertices, which are
    # not printed
    mesh.vertices = np.where(valid[..., None], np.array([1.5, 1.5, -0.0]), 7.0)
    mesh.normals = np.where(valid[..., None], np.array([-0.0, 0.0, 0.0]), -7.0)
    path = tmp_path / "runs.json"
    cli.write_mesh_json(mesh, str(path))
    assert path.read_bytes() == reference_mesh_json(mesh).encode()


def test_mesh_json_formats_each_run_once(tmp_path, monkeypatch):
    spec = SurfaceSpec.from_strings("z", "z", "log(t+0.5)", u1_range=(-1.0, 1.0),
                                    u2_range=(-math.pi, math.pi), nu1=32, nu2=32)
    mesh = surface.sample_mesh(spec)
    diagnostics = [getattr(mesh.diagnostics, f.name) for f in fields(MeshDiagnostics)]
    assert not mesh.valid.all() and np.isnan(diagnostics).any()
    received, float_table = [], cli._float_table

    def spy(values):
        received.append(np.ravel(values).copy())
        return float_table(values)

    monkeypatch.setattr(cli, "_float_table", spy)
    cli.write_mesh_json(mesh, str(tmp_path / "masked.json"))
    # a run of bit-equal neighbours is formatted once, so no call sees two
    # bit-equal neighbours, and fewer values are formatted than printed
    for values in received:
        bits = values.view(np.int64)
        assert (bits[1:] != bits[:-1]).all()
    at_valid = np.concatenate([mesh.vertices[mesh.valid], mesh.normals[mesh.valid]])
    printed = (np.isfinite(at_valid).sum() + np.isfinite(diagnostics).sum()
               + mesh.u1.size + mesh.u2.size)
    assert sum(values.size for values in received) < printed


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), nu1=st.integers(1, 12), nu2=st.integers(1, 12),
       finite=st.booleans())
def test_random_masks_match_reference(tmp_path, monkeypatch, data, nu1, nu2, finite):
    cells = data.draw(st.lists(st.booleans(), min_size=nu1 * nu2,
                               max_size=nu1 * nu2))

    def floats(*shape):  # any doubles, NaN and ±inf included
        return np.reshape(data.draw(st.lists(
            st.floats(), min_size=math.prod(shape), max_size=math.prod(shape))), shape)

    mesh = _masked_mesh(np.reshape(cells, (nu1, nu2)),
                        vertices=None if finite else floats(nu1, nu2, 3),
                        diagnostics=None if finite else floats(10, nu1, nu2))
    # blocks of 5 and 1 points split grid rows, so block edges fall in a row;
    # at 1, width-1 lists split every 3 cells and vertices every cell
    for block_points in (DEFAULT_BLOCK_POINTS, 5, 1):
        monkeypatch.setattr(surface, "BLOCK_POINTS", block_points)
        assert_writers_match(mesh, tmp_path)


# ---------------------------------------------------------------------------
# The float table: '%.17g', with '.0' after an integer
# ---------------------------------------------------------------------------

def assert_tables_exact(values):
    values = np.asarray(values, dtype=float)
    rows = cli._float_table(values)
    assert rows.shape == (values.size, 24)
    # NULs only after the text
    got = [row.tobytes().rstrip(b"\0").decode("ascii") for row in rows]
    assert got == [_fmt(v) for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_g17_table_matches_percent_format(values):
    # every double: +-0, NaN, +-inf and subnormals included
    assert_tables_exact(values)


def test_g17_table_powers_of_ten():
    powers = 10.0 ** np.arange(-6, 19)
    around = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    assert_tables_exact(np.concatenate(around + [-v for v in around]))


def test_g17_table_trailing_zeros():
    # each exponent of fixed notation with 17 - zeros significant digits
    digits = "73205080756887719"
    values = [float(f"{sign}{digits[0]}.{digits[1:17 - zeros]}{'0' * zeros}e{e}")
              for sign in "+-" for e in range(-4, 17) for zeros in range(17)]
    assert_tables_exact(values)


def test_g17_table_ties_round_half_even():
    # k * 2^-j whose exact decimal has 18 significant digits, the last a 5:
    # halfway between two 17-digit values, to be rounded to the even one
    ties = []
    for j in range(2, 22):
        k = int(1.2345e17 * 0.2 ** j) | 1
        for x in (float(k + 2 * i) * 2.0 ** -j for i in range(12)):
            exact = Decimal(x).as_tuple()
            if len(exact.digits) == 18 and exact.digits[-1] == 5:
                ties.append((x, exact.digits[-2] % 2))
    assert {parity for _, parity in ties} == {0, 1}
    assert_tables_exact([x for x, _ in ties])


def test_g17_table_rounding_up_to_a_power_of_ten():
    assert_tables_exact([99999999999999999.0, np.nextafter(1e-4, 0.0), 1e-4,
                         9999999999999998.0, 0.099999999999999992])


def test_g17_table_integers_end_in_point_zero():
    values = [0.0, -0.0, 1.0, -3.0, 123456789.0, 9007199254740993.0, 1e16, -1e16,
              1e17, 2.0**60, 5e-324, -5e-324, math.nan, -math.nan, math.inf, -math.inf]
    assert [row.tobytes().rstrip(b"\0").decode() for row in cli._float_table(values)] == [
        "0.0", "-0.0", "1.0", "-3.0", "123456789.0", "9007199254740992.0",
        "10000000000000000.0", "-10000000000000000.0", "1e+17",
        "1.152921504606847e+18", "4.9406564584124654e-324",
        "-4.9406564584124654e-324", "nan", "nan", "inf", "-inf"]


def test_float_table_boundaries():
    # every power of ten and its neighbours, where E is one too high if
    # D17 = 10^16 is taken at face value (9.9999999999999995e-07), every
    # power of two, the edges of fixed notation and of the fast range,
    # ±0 (and the least subnormal beside it), NaN, ±inf and small integers
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = 2.0 ** np.arange(-1074, 1024)
    edges = np.array([5e-324, 1e-280, 1e280, 1e-4, 1e16, 1e17, 0.0, math.nan,
                      math.inf])
    values = np.concatenate([tens, twos, edges, np.arange(1.0, 1001.0)])
    values = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, np.inf)])
    assert 9.9999999999999995e-07 in values
    assert_tables_exact(np.concatenate([values, -values]))


def test_import_grtsurf_leaves_the_writers_unloaded():
    # the writers and their tables cost set-up time only when cli is used
    code = ("import sys, grtsurf; print('grtsurf.cli' in sys.modules); "
            "from grtsurf import cli; print(cli._lookup.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(grtsurf.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout == "False\n0\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_mesh_json_is_strict_json(tmp_path, capsys):
    # det_v overflows to inf at every vertex and lam at most of them
    out = tmp_path / "m.json"
    code = cli.main(["generate", "--f", "z^3", "--g", "z", "--ell", "1e154*t",
                     "--n", "6", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert data["diagnostics"]["det_v"] == [[None] * 6] * 6
    assert "Infinity" not in out.read_text()


def _loaded_numbers(value):
    """The numbers of a json.load result in document order, null as None."""
    if isinstance(value, dict):
        return [x for item in value.values() for x in _loaded_numbers(item)]
    if isinstance(value, list):
        return [x for item in value for x in _loaded_numbers(item)]
    return [] if isinstance(value, (bool, str)) else [value]


def _bits(values):
    """Each value as (type, exact hex), None where the value is not finite."""
    return [None if v is None or isinstance(v, float) and not math.isfinite(v)
            else (type(v), v.hex() if isinstance(v, float) else v) for v in values]


@pytest.mark.parametrize("f, g, ell", [
    ("z", "z", "t^2+t+1"),
    ("z", "z", "log(t+0.5)"),
    ("exp(z)*sin(z)+z^3", "cosh(z)/(z^2+3)", "exp(t)*cos(t)+2"),
], ids=["fig1", "masked", "mixed"])
def test_mesh_json_numbers_are_the_mesh_floats(tmp_path, f, g, ell):
    # 48² points: two vertex blocks.  json.load reads each number back as a
    # float bit-equal to the mesh's, -0.0 included; faces stay integers.
    spec = SurfaceSpec.from_strings(f, g, ell, u1_range=(-1.0, 1.0),
                                    u2_range=(-math.pi, math.pi), nu1=48, nu2=48)
    mesh = surface.sample_mesh(spec)
    assert mesh.valid.size > surface.BLOCK_POINTS
    path = tmp_path / "mesh.json"
    cli.write_mesh_json(mesh, str(path))
    data = json.loads(path.read_text(), parse_constant=_reject_constant)
    faces = data.pop("faces")
    assert _bits(_loaded_numbers(faces)) == _bits(mesh.faces.ravel().tolist())
    regular = data["diagnostics"].pop("regular")
    assert regular == mesh.valid.tolist()
    expected = [*mesh.u1.tolist(), *mesh.u2.tolist()]
    for grid in (mesh.vertices, mesh.normals):
        expected += [x for ok, cell in zip(mesh.valid.ravel(), grid.reshape(-1, 3).tolist())
                     for x in (cell if ok else [None])]
    for field in fields(MeshDiagnostics):
        expected += getattr(mesh.diagnostics, field.name).ravel().tolist()
    got = _loaded_numbers(data)
    assert all(type(x) is float for x in got if x is not None)
    assert _bits(got) == _bits(expected)
