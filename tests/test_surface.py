"""Surface module: parameterizations, rotation family, mesh sampling."""
import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import direct_at, frame_at, rotation_at
from grtsurf import geometry, surface
from grtsurf.expr import EvalError, eval_jet2, eval_jet2_array, parse_expr
from grtsurf.geometry import PSI_EPS, inner
from grtsurf.surface import (EmptyMeshError, MeshDiagnostics, SurfaceMesh,
                             SurfaceSpec, jets_at, rotation_spec, sample_mesh,
                             sample_rotation_mesh)

TRIPLES = [
    ("z", "z", "t^2+t+1"),
    ("z", "z", "cos(t)"),
    ("z^2", "exp(z)", "t^2+1"),
    ("exp(z)", "z^2+z", "sinh(t)"),
]


def spec_for(f, g, l, **kw):
    kw.setdefault("u1_range", (-1.0, 1.0))
    kw.setdefault("u2_range", (-1.0, 1.0))
    kw.setdefault("nu1", 16)
    kw.setdefault("nu2", 16)
    return SurfaceSpec.from_strings(f, g, l, **kw)


def point_closed_form(spec, z):
    """The closed-form surface point at z."""
    return frame_at(*jets_at(spec, z)).x


def point_direct(spec, z):
    """The surface point at z as gradient-plus-support combination of the
    normal jets."""
    return direct_at(jets_at(spec, z))


def normal_at(spec, z):
    """The unit normal at z."""
    return frame_at(*jets_at(spec, z)).normal


def random_points(seed, n=20):
    rng = random.Random(seed)
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Closed-form point
# ---------------------------------------------------------------------------

def test_closed_form_frozen_example():
    spec = spec_for("z", "z", "t^2+t+1")
    x = point_closed_form(spec, 0j)
    assert np.allclose(x, [0.5, 0.0, 1.0], atol=1e-15)
    # support identity at the same point: <X, N> = ell(0) = 1 with N = e3
    assert abs(x[2] - 1.0) < 1e-15


def test_constant_profile_gives_sphere():
    spec = spec_for("z", "z", "2.5")
    for z in random_points(7):
        x = point_closed_form(spec, z)
        n = normal_at(spec, z)
        assert np.allclose(x, 2.5 * n, atol=1e-14)
        assert abs(np.dot(x, x) - 2.5 ** 2) <= 1e-12


def test_first_term_third_coordinate():
    # third coordinate of the gradient term is -ell' <g', g f'> / |g'|^2
    spec = spec_for("exp(z)", "z^2+z", "sinh(t)")
    for z in random_points(11):
        f_jet = eval_jet2(spec.f, z)
        g_jet = eval_jet2(spec.g, z)
        mu = f_jet.value.real
        ell_jet = eval_jet2(spec.ell, mu, variable="t")
        x = point_closed_form(spec, z)
        t = 1 + inner(g_jet.value, g_jet.value)
        gp2 = inner(g_jet.d1, g_jet.d1)
        first_third = x[2] - ell_jet.value * (2 - t) / t
        expected = -ell_jet.d1 * inner(g_jet.d1, g_jet.value * f_jet.d1) / gp2
        assert abs(first_third - expected) <= 1e-12 * (1 + abs(expected))


def test_closed_form_singular_point():
    spec = spec_for("z", "z^2", "t^2+t+1")
    assert not frame_at(*jets_at(spec, 0j)).exists


# ---------------------------------------------------------------------------
# Direct parameterization
# ---------------------------------------------------------------------------

def test_direct_frozen_example():
    spec = spec_for("z", "z", "t^2+t+1")
    assert np.allclose(point_direct(spec, 0j), [0.5, 0.0, 1.0], atol=1e-15)


def test_direct_equals_closed_form():
    for (f, g, l) in TRIPLES:
        spec = spec_for(f, g, l)
        for z in random_points(hash((f, g, l)) & 0xFFFF):
            if not frame_at(*jets_at(spec, z)).exists:
                continue
            xc = point_closed_form(spec, z)
            xd = point_direct(spec, z)
            assert np.linalg.norm(xd - xc) <= 1e-9 * (1 + np.linalg.norm(xc))


def test_direct_constant_profile_is_support_times_normal():
    spec = spec_for("z", "z", "42")
    for z in random_points(3):
        x = point_direct(spec, z)
        n = normal_at(spec, z)
        assert np.allclose(x, 42.0 * n, atol=1e-12)


def test_constant_f_gives_sphere_of_radius_ell_mu0():
    # f constant freezes mu, so X = ell(mu0) * N
    spec = SurfaceSpec(f=parse_expr("0.5", "z"), g=parse_expr("z", "z"),
                       ell=parse_expr("t^2+t+1", "t", real=True),
                       u1_range=(-1, 1), u2_range=(-1, 1), nu1=8, nu2=8)
    r = 0.25 + 0.5 + 1  # ell(0.5)
    for z in random_points(5):
        x = point_direct(spec, z)
        assert abs(np.dot(x, x) - r * r) <= 1e-12


# ---------------------------------------------------------------------------
# Rotation family
# ---------------------------------------------------------------------------

def test_rotation_frozen_example():
    ell = parse_expr("t^2+t+1", "t", real=True)
    x = rotation_at(0.0, 1.0, ell, 0.0, 0.0)
    assert np.allclose(x, [3.0, 0.0, 0.0], atol=1e-14)


def test_rotation_a_zero_lies_on_sphere():
    # M^2 + N^2 = ell(b)^2 for every u1
    ell = parse_expr("t^2+t+1", "t", real=True)
    for u1 in np.linspace(-2, 2, 41):
        x = rotation_at(0.0, 1.0, ell, float(u1), 0.7)
        assert abs(np.dot(x, x) - 9.0) <= 1e-12


def test_rotation_matches_closed_form():
    for lsrc in ("t^2+t+1", "cos(t)", "sinh(t)"):
        ell = parse_expr(lsrc, "t", real=True)
        for (a, b) in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0)):
            spec = rotation_spec(a, b, ell, u1_range=(-1, 1),
                                 u2_range=(-math.pi, math.pi), nu1=8, nu2=8)
            for u1 in np.linspace(-1, 1, 9):
                for u2 in np.linspace(-math.pi, math.pi, 9):
                    xr = rotation_at(a, b, ell, float(u1), float(u2))
                    xc = point_closed_form(spec, complex(u1, u2))
                    assert np.linalg.norm(xr - xc) <= 1e-9 * (1 + np.linalg.norm(xc))


def test_rotation_symmetry_across_u2():
    # radius and height depend on u1 only
    ell = parse_expr("cos(t)", "t", real=True)
    for u1 in (-0.8, -0.1, 0.4, 1.1):
        base = rotation_at(1.0, 0.0, ell, u1, 0.0)
        r0 = math.hypot(base[0], base[1])
        for u2 in np.linspace(-math.pi, math.pi, 17):
            x = rotation_at(1.0, 0.0, ell, u1, float(u2))
            assert abs(math.hypot(x[0], x[1]) - r0) <= 1e-12
            assert abs(x[2] - base[2]) <= 1e-12


def test_rotation_profile_error_propagates():
    ell = parse_expr("log(t)", "t", real=True)
    from grtsurf.expr import EvalError
    with pytest.raises(EvalError):
        rotation_at(1.0, -2.0, ell, 0.0, 0.0)  # mu = -2 outside log domain


# ---------------------------------------------------------------------------
# Scale behavior
# ---------------------------------------------------------------------------

def test_profile_scaling():
    # ell -> lambda*ell leaves C unchanged and scales X and psi by lambda
    lam = 2.5
    spec1 = spec_for("z", "z", "t^2+t+1")
    spec2 = spec_for("z", "z", "2.5*(t^2+t+1)")
    for z in random_points(23):
        x1 = point_closed_form(spec1, z)
        x2 = point_closed_form(spec2, z)
        assert np.linalg.norm(x2 - lam * x1) <= 1e-12 * (1 + np.linalg.norm(x2))
        mu = eval_jet2(spec1.f, z).value.real
        j1 = eval_jet2(spec1.ell, mu, variable="t")
        j2 = eval_jet2(spec2.ell, mu, variable="t")
        c1 = j1.value * j1.d2 / (j1.d1 * j1.d1)
        c2 = j2.value * j2.d2 / (j2.d1 * j2.d1)
        assert abs(c2 - c1) <= 1e-12 * (1 + abs(c1))
        assert abs(j2.value - lam * j1.value) <= 1e-12 * (1 + abs(j2.value))


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------

def test_mesh_full_grid_regular():
    spec = spec_for("z", "z", "t^2+t+1", nu1=32, nu2=32)
    mesh = sample_mesh(spec)
    assert mesh.vertex_count == 32 * 32
    assert mesh.face_count == 31 * 31
    assert mesh.regular_fraction() == 1.0


def test_mesh_isolated_singular_vertex_excluded():
    # g = z^2 has g'(0) = 0; a 5x5 grid over [-1,1]^2 hits 0 exactly
    spec = spec_for("z", "z^2", "t^2+t+1", nu1=5, nu2=5)
    mesh = sample_mesh(spec)
    assert not mesh.valid[2, 2]
    assert mesh.vertex_count == 24
    # faces never reference the invalid vertex
    for quad in mesh.faces:
        assert all(idx >= 0 for idx in quad)
    assert mesh.face_count == 4 * 4 - 4  # the four quads touching the center


def test_nan_marks_the_points_where_a_jet_fails():
    # log(z) fails at the 17 points of the 33x33 grid with u2 = 0, u1 <= 0:
    # the jets of f and ell are NaN exactly there, ell's although ell is a
    # constant, and so is every diagnostic that needs f; g = z evaluates
    spec = spec_for("log(z)", "z", "1", nu1=33, nu2=33)
    z = surface.grid_points(spec.grid_u1(), spec.grid_u2())
    fails = (z.imag == 0.0) & (z.real <= 0.0)
    assert fails.sum() == 17
    f_jet, g_jet, ell_jet = surface.jets_array(spec, z)
    for jet, nan in ((f_jet, fails), (g_jet, False), (ell_jet, fails)):
        for component in (jet.value, jet.d1, jet.d2):
            assert (np.isnan(component) == nan).all()
    mesh = sample_mesh(spec)
    for key in ("psi", "lam", "c", "det_v"):
        assert np.isnan(getattr(mesh.diagnostics, key)[fails]).all(), key
    assert not mesh.valid[fails].any() and mesh.valid[~fails].all()
    # a constant is NaN at a point that is not finite
    jet = eval_jet2_array(parse_expr("1", "t", real=True),
                          np.array([math.nan, math.inf, 0.5]), "t")
    assert np.isnan(jet.value[:2]).all() and jet.value[2] == 1.0


def test_mesh_minimal_grid():
    spec = spec_for("z", "z", "t^2+t+1", nu1=2, nu2=2)
    mesh = sample_mesh(spec)
    assert mesh.vertex_count == 4
    assert mesh.face_count <= 1


def test_mesh_faces_are_an_int_array():
    mesh = sample_mesh(spec_for("z", "z", "t^2+t+1", nu1=4, nu2=6))
    # on [0,1]^2 at 2x2, g = z^2 has g'(0) = 0 at a corner of the one quad
    lone = sample_mesh(spec_for("z", "z^2", "t^2+t+1", nu1=2, nu2=2,
                                u1_range=(0.0, 1.0), u2_range=(0.0, 1.0)))
    assert lone.vertex_count == 3
    for m, quads in ((mesh, 3 * 5), (lone, 0)):
        assert isinstance(m.faces, np.ndarray)
        assert np.issubdtype(m.faces.dtype, np.integer)
        assert m.faces.shape == (quads, 4)


def test_mesh_requires_faces_and_diagnostics():
    # the writers and min_abs_det_v read both; closed_form stays optional
    grid = dict(u1=np.zeros(2), u2=np.zeros(2), vertices=np.zeros((2, 2, 3)),
                normals=np.zeros((2, 2, 3)), valid=np.ones((2, 2), bool))
    with pytest.raises(TypeError):
        SurfaceMesh(**grid)
    with pytest.raises(TypeError):
        SurfaceMesh(**grid, faces=np.zeros((1, 4), int))


def test_mesh_empty_when_g_constant():
    spec = spec_for("z", "1", "t^2+t+1", nu1=4, nu2=4)
    profile = parse_expr("log(t+0.5)", "t", real=True)  # fails where mu <= -0.5
    for diagnostics in (True, False):
        with pytest.raises(EmptyMeshError):
            sample_mesh(spec, diagnostics=diagnostics)
        with pytest.raises(EmptyMeshError):
            sample_rotation_mesh(1.0, -5.0, profile, nu1=5, nu2=5,
                                 diagnostics=diagnostics)


def test_mesh_normals_match_gauss_map():
    spec = spec_for("z^2", "exp(z)", "t^2+1", nu1=8, nu2=8)
    mesh = sample_mesh(spec)
    for i in range(8):
        for j in range(8):
            if not mesh.valid[i, j]:
                continue
            z = complex(mesh.u1[i], mesh.u2[j])
            n = normal_at(spec, z)
            assert np.array_equal(mesh.normals[i, j], n)


def test_mesh_identities_at_vertices():
    # support and quadratic-distance identities hold at every regular vertex
    for (f, g, l) in TRIPLES:
        spec = spec_for(f, g, l, nu1=12, nu2=12)
        mesh = sample_mesh(spec)
        d = mesh.diagnostics
        assert np.nanmax(d.support_residual) <= 1e-9
        assert np.nanmax(d.distance_residual) <= 1e-9


def test_mesh_constant_profile_sphere_everywhere():
    spec = spec_for("exp(z)", "z^2+z", "3", nu1=10, nu2=10,
                    u1_range=(0.1, 1.0), u2_range=(0.1, 1.0))
    mesh = sample_mesh(spec)
    pts = mesh.vertices[mesh.valid]
    assert np.max(np.abs((pts ** 2).sum(axis=1) - 9.0)) <= 1e-12


def test_mesh_deterministic():
    spec = spec_for("z^2", "exp(z)", "t^2+1", nu1=9, nu2=9)
    m1 = sample_mesh(spec)
    m2 = sample_mesh(spec)
    assert np.array_equal(m1.vertices, m2.vertices, equal_nan=True)
    assert np.array_equal(m1.normals, m2.normals, equal_nan=True)
    assert np.array_equal(m1.faces, m2.faces)


def test_mesh_direct_method_agrees():
    spec_c = spec_for("z", "z", "cos(t)", nu1=6, nu2=6)
    spec_d = spec_for("z", "z", "cos(t)", nu1=6, nu2=6, method="direct")
    mc = sample_mesh(spec_c)
    md = sample_mesh(spec_d)
    assert np.nanmax(np.abs(mc.vertices - md.vertices)) <= 1e-9


def test_rotation_mesh_sphere_note_values():
    ell = parse_expr("t^2+t+1", "t", real=True)
    mesh = sample_rotation_mesh(0.0, 1.0, ell, nu1=8, nu2=8)
    pts = mesh.vertices[mesh.valid]
    assert np.max(np.abs((pts ** 2).sum(axis=1) - 9.0)) <= 1e-12


def test_rotation_mesh_matches_equivalent_spec():
    ell = parse_expr("cos(t)", "t", real=True)
    mesh = sample_rotation_mesh(1.0, 0.0, ell, nu1=8, nu2=8)
    spec = rotation_spec(1.0, 0.0, ell, u1_range=(-1, 1),
                         u2_range=(-math.pi, math.pi), nu1=8, nu2=8)
    direct = sample_mesh(spec)
    assert np.nanmax(np.abs(mesh.vertices - direct.vertices)) <= 1e-9
    assert np.array_equal(mesh.normals, direct.normals, equal_nan=True)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for("z", "z", "t", u1_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        spec_for("z", "z", "t", nu1=1)
    with pytest.raises(ValueError):
        spec_for("z", "z", "t", method="spline")
    for kw in ({"u1_range": (math.nan, 1.0)}, {"u2_range": (-1.0, math.inf)},
               {"u1_range": (-1e308, 1e308)}, {"regularity_eps": -1.0},
               {"regularity_eps": math.nan}):
        with pytest.raises(ValueError):
            spec_for("z", "z", "t", **kw)
    spec_for("z", "z", "t", regularity_eps=0.0)
    # nu1 * nu2 up to MAX_GRID_POINTS, in any shape
    spec_for("z", "z", "t", nu1=2, nu2=surface.MAX_GRID_POINTS // 2)
    with pytest.raises(ValueError, match="exceeds the limit"):
        spec_for("z", "z", "t", nu1=2, nu2=surface.MAX_GRID_POINTS // 2 + 1)


# ---------------------------------------------------------------------------
# Array sampling against a mesh built point by point
# ---------------------------------------------------------------------------

DIAGNOSTICS = ("psi", "lam", "mean", "gauss", "c", "det_v",
               "support_residual", "distance_residual",
               "weingarten_residual", "pde_residual")


def reference_mesh(spec, rotation=None):
    """Mask, vertices, normals, diagnostics and faces of ``spec``, computed
    one grid point at a time from the scalar evaluator's jets."""
    shape = (spec.nu1, spec.nu2)
    valid = np.zeros(shape, dtype=bool)
    vertices = np.full(shape + (3,), np.nan)
    normals = np.full(shape + (3,), np.nan)
    diag = {name: np.full(shape, np.nan) for name in DIAGNOSTICS}
    for i, u1 in enumerate(spec.grid_u1()):
        for j, u2 in enumerate(spec.grid_u2()):
            try:
                jets = jets_at(spec, complex(u1, u2))
            except EvalError:
                continue
            frame = frame_at(*jets, spec.regularity_eps)
            if not frame.exists:
                continue
            x = frame.x if spec.method == "closed_form" else direct_at(jets)
            diag["psi"][i, j] = frame.psi
            diag["lam"][i, j] = frame.lam
            diag["det_v"][i, j] = frame.det_v
            if not np.isnan(frame.c):
                diag["c"][i, j] = frame.c
            if not frame.regular:
                continue
            valid[i, j] = True
            diag["mean"][i, j] = frame.mean
            diag["gauss"][i, j] = frame.gauss
            psi, lam = frame.psi, frame.lam
            diag["support_residual"][i, j] = (abs(np.dot(x, frame.normal) - psi)
                                              / (1 + abs(psi)))
            diag["distance_residual"][i, j] = abs(np.dot(x, x) - lam) / (1 + abs(lam))
            if not np.isnan(frame.c):
                lap = psi * (frame.trace_v - 2 * psi)
                diag["pde_residual"][i, j] = (abs(lap - frame.c * frame.grad_sq)
                                              / (1 + abs(lap)))
                if abs(psi) > PSI_EPS:
                    rhs = frame.c * (-lam / (2 * psi) + psi / 2) - psi
                    diag["weingarten_residual"][i, j] = (
                        abs(frame.h_over_k - rhs) / (1 + abs(frame.h_over_k)))
            if rotation is not None:
                x = rotation_at(*rotation, spec.ell, float(u1), float(u2))
            vertices[i, j] = x
            normals[i, j] = frame.normal
    index = np.cumsum(valid).reshape(shape) - 1
    faces = []
    for i in range(spec.nu1 - 1):
        for j in range(spec.nu2 - 1):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            if all(valid[c] for c in corners):
                faces.append(tuple(int(index[c]) for c in corners))
    return valid, vertices, normals, diag, faces


def assert_matches_reference(mesh, reference):
    valid, vertices, normals, diag, faces = reference
    assert np.array_equal(mesh.valid, valid)
    assert np.array_equal(mesh.faces, np.array(faces, dtype=int).reshape(-1, 4))
    pairs = [("vertices", mesh.vertices, vertices), ("normals", mesh.normals, normals)]
    pairs += [(name, getattr(mesh.diagnostics, name), diag[name]) for name in DIAGNOSTICS]
    for name, got, want in pairs:
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        known = ~np.isnan(want)
        got, want = got[known], want[known]
        tol = 1e-10 * (1 + np.abs(want))
        if name in ("mean", "gauss"):
            # both are 1/det V: roundoff grows like 1/|det V| near det V = 0
            tol *= 1 + 1 / np.abs(diag["det_v"][known])
        assert np.all(np.abs(got - want) <= tol), name


WINDOW = {"u1_range": (-1.0, 1.0), "u2_range": (-math.pi, math.pi)}
REFERENCE_CASES = [
    ("z", "z", "t^2+t+1", {}),
    ("z", "z", "t^2+t+1", {"method": "direct"}),
    ("z", "z^2", "t^2+t+1", {}),                # g'(0) = 0 on the grid
    ("z", "z", "log(t+0.5)", {}),               # ell fails for u1 <= -0.5
    ("z", "z", "cos(t)", {}),                   # ell'(0) = 0: C undefined
    ("z", "z", "t", {"method": "direct"}),      # psi = 0 at u1 = 0
    ("1/z", "z", "t^2+1", {"u2_range": (-1.0, 1.0)}),   # a pole of f
    ("exp(z)*sin(z)+z^3", "cosh(z)/(z^2+3)", "exp(t)*cos(t)+2", WINDOW),
    ("z", "exp(400*z)", "t^2+1", WINDOW),       # T^2 overflows
]


@pytest.mark.parametrize("shape", [(2, 5000), (5000, 2), (9, 9)])
def test_sample_blocks_chunks_any_shape(monkeypatch, shape):
    # a row of 5000 points is cut like any other run of points
    monkeypatch.setattr(surface, "BLOCK_POINTS", 20)
    spec = spec_for("z", "z", "t", nu1=shape[0], nu2=shape[1])
    sizes = []

    def kernel(z):
        sizes.append(z.size)
        return {"z": 2.0 * z, "parts": np.stack((z.real, abs(z)), axis=-1),
                "right": z.real > 0.0}

    grid = surface.sample_blocks(spec, kernel)
    assert max(sizes) <= 20 and sum(sizes) == shape[0] * shape[1]
    whole = kernel(surface.grid_points(spec.grid_u1(), spec.grid_u2()))
    assert grid.keys() == whole.keys()
    for key, values in whole.items():
        assert grid[key].dtype == values.dtype
        assert np.array_equal(grid[key], values), key


# 7 splits the rows of 9 points
@pytest.mark.parametrize("block_points", [surface.BLOCK_POINTS, 20, 7])
@pytest.mark.parametrize("f,g,ell,kw", REFERENCE_CASES)
def test_sample_mesh_matches_pointwise_reference(monkeypatch, block_points,
                                                 f, g, ell, kw):
    monkeypatch.setattr(surface, "BLOCK_POINTS", block_points)
    spec = spec_for(f, g, ell, **dict({"nu1": 9, "nu2": 9}, **kw))
    assert_matches_reference(sample_mesh(spec), reference_mesh(spec))


@pytest.mark.parametrize("a,b,ell", [(1.0, 0.0, "t^2+t+1"), (0.0, 1.0, "t^2+t+1"),
                                     (1.0, 0.0, "sinh(t)"), (2.0, -1.0, "log(t+2)")])
def test_sample_rotation_mesh_matches_pointwise_reference(a, b, ell):
    node = parse_expr(ell, "t", real=True)
    spec = rotation_spec(a, b, node, nu1=17, nu2=12, **WINDOW)
    mesh = sample_rotation_mesh(a, b, node, nu1=17, nu2=12, **WINDOW)
    assert_matches_reference(mesh, reference_mesh(spec, rotation=(a, b)))


# The MeshDiagnostics fields that only mesh JSON writes: a mesh sampled
# without diagnostics leaves them None, and every other array bit-identical.
SKIPPED_DIAGNOSTICS = ("lam", "mean", "gauss", "c", "support_residual",
                       "distance_residual", "weingarten_residual", "pde_residual")
# 48^2 points fill more than one block
LEAN_CASES = {
    "fig1": ("z", "z", "t^2+t+1", {}),
    "fig2": ("z", "z", "cos(t)", {}),
    "masked": ("z", "z", "log(t+0.5)", {}),
    "mixed": ("exp(z)*sin(z)+z^3", "cosh(z)/(z^2+3)", "exp(t)*cos(t)+2", {}),
    "direct": ("z", "z", "cos(t)", {"method": "direct"}),
    "fig3": (1.0, 0.0, "t^2+t+1", None),
    "fig4": (0.0, 1.0, "t^2+t+1", None),
    "fig5": (1.0, 0.0, "sinh(t)", None),
}


def lean_case_mesh(case, diagnostics):
    first, second, ell, kw = case
    if kw is None:
        return sample_rotation_mesh(first, second, parse_expr(ell, "t", real=True),
                                    nu1=48, nu2=48, diagnostics=diagnostics)
    return sample_mesh(spec_for(first, second, ell, nu1=48, nu2=48,
                                **dict(WINDOW, **kw)), diagnostics=diagnostics)


@pytest.mark.parametrize("case", LEAN_CASES.values(), ids=LEAN_CASES.keys())
def test_mesh_without_diagnostics_keeps_every_written_array(case):
    full, lean = (lean_case_mesh(case, diagnostics) for diagnostics in (True, False))

    def bits(a):
        return None if a is None else (a.dtype, a.shape, a.tobytes())

    for name in ("vertices", "normals", "valid", "faces", "closed_form"):
        assert bits(getattr(lean, name)) == bits(getattr(full, name)), name
    for name in ("psi", "det_v"):
        assert bits(getattr(lean.diagnostics, name)) == bits(
            getattr(full.diagnostics, name)), name
    assert {f.name for f in dataclasses.fields(MeshDiagnostics)} == {
        "psi", "det_v", *SKIPPED_DIAGNOSTICS}
    for name in SKIPPED_DIAGNOSTICS:
        assert getattr(lean.diagnostics, name) is None, name
        assert getattr(full.diagnostics, name).shape == full.valid.shape, name


@pytest.mark.parametrize("diagnostics", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("case", [case for name, case in LEAN_CASES.items()
                                  if name != "direct"],
                         ids=[name for name in LEAN_CASES if name != "direct"])
def test_closed_form_block_computes_the_sphere_once(monkeypatch, case, diagnostics):
    # the block's frame carries its closed-form points, from the same
    # |g'|^2 and T as the frame itself
    calls = []
    sphere = geometry._sphere
    monkeypatch.setattr(geometry, "_sphere",
                        lambda g_jet: calls.append(1) or sphere(g_jet))
    lean_case_mesh(case, diagnostics)
    assert len(calls) == -(-48 * 48 // surface.BLOCK_POINTS) == 2
