"""Surface points and meshes.

Two equivalent parameterizations are provided: the closed form

    X = ell'(mu)/(2|g'|^2) * (T g' conj(f') - 2 g <g', g f'>, -2 <g', g f'>)
        + ell(mu) * (2g, 2-T)/T

and the direct sum X = sum_j (h_,j / L_jj) N_,j + h N obtained by pushing the
jets of g through the normal map.  Their pointwise agreement is one of the
verification targets.  The rotation family X_ab realizes the surfaces of
revolution obtained for f = a z + b, g = exp(z).

Meshes sample a uniform parameter grid, flag irregular vertices (g' = 0 or
det V numerically zero) and emit quad faces only over regular corners.  The
grid is evaluated as numpy arrays by a per-point kernel, in flat chunks of
at most BLOCK_POINTS points, whatever the grid's shape.  IDENTITIES holds
the four identities every surface point meets, once for the mesh
diagnostics and verify's checks alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .expr import (Add, Const, ExprNode, Fn, Jet2, Mul, Var, eval_jet2,
                   eval_jet2_array, parse_expr, unparse)
from .geometry import inner

# Grid points evaluated together: sample_blocks hands its kernel at most this
# many consecutive points of the flattened grid, so the temporaries of the
# array evaluation stay small and their size does not depend on the grid's
# shape; a whole 128x128 grid at once raises peak memory.
BLOCK_POINTS = 2048
# The most grid points, nu1 * nu2, that a SurfaceSpec accepts, so that a run
# stays under 2 GiB.  Peak RSS grows linearly in the points and, with blocks
# cut from the flattened grid, barely with its shape.  At 2^22 points, 2048^2
# and 2 x 2^21, the worst peak of generate, rotate --cross-check, verify and
# info was 1128 MiB: 282 bytes a point, in rotate --cross-check on 2048^2
# (x86-64 Linux, numpy 2.4.6).  Mesh JSON, written in blocks of at most
# 3 * BLOCK_POINTS numbers, peaks at 907 and 792 MiB.  2^23 points would take
# about 2.2 GiB.
MAX_GRID_POINTS = 2 ** 22


class EmptyMeshError(Exception):
    """No vertex of the sampled grid was regular."""


def check_range(name: str, lo: float, hi: float) -> None:
    """Raise ValueError unless lo < hi with a finite width (no NaN, no inf)."""
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"{name} range must be finite with lo < hi, "
                         f"got {lo!r}:{hi!r}")


@dataclass(frozen=True)
class SurfaceSpec:
    """Input of surface synthesis: expressions, window, resolution, method."""

    f: ExprNode
    g: ExprNode
    ell: ExprNode
    u1_range: tuple[float, float] = (-1.0, 1.0)
    u2_range: tuple[float, float] = (-1.0, 1.0)
    nu1: int = 64
    nu2: int = 64
    regularity_eps: float = geometry.REGULARITY_EPS
    method: str = "closed_form"

    def __post_init__(self):
        check_range("u1", *self.u1_range)
        check_range("u2", *self.u2_range)
        if self.nu1 < 2 or self.nu2 < 2:
            raise ValueError("resolution must be at least 2 in each direction")
        if self.nu1 * self.nu2 > MAX_GRID_POINTS:
            raise ValueError(f"grid of {self.nu1} x {self.nu2} points exceeds "
                             f"the limit of {MAX_GRID_POINTS} points")
        if not (0.0 <= self.regularity_eps < math.inf):
            raise ValueError(f"regularity eps must be finite and >= 0, "
                             f"got {self.regularity_eps!r}")
        if self.method not in ("closed_form", "direct"):
            raise ValueError(f"unknown method {self.method!r}")

    @classmethod
    def from_strings(cls, f: str, g: str, ell: str, **kwargs) -> "SurfaceSpec":
        return cls(f=parse_expr(f, "z"), g=parse_expr(g, "z"),
                   ell=parse_expr(ell, "t", real=True), **kwargs)

    def grid_u1(self) -> np.ndarray:
        return np.linspace(self.u1_range[0], self.u1_range[1], self.nu1)

    def grid_u2(self) -> np.ndarray:
        return np.linspace(self.u2_range[0], self.u2_range[1], self.nu2)

    def summary(self) -> dict:
        return {
            "f": unparse(self.f, "z"),
            "g": unparse(self.g, "z"),
            "ell": unparse(self.ell, "t"),
            "u1": list(self.u1_range),
            "u2": list(self.u2_range),
            "nu1": self.nu1,
            "nu2": self.nu2,
            "regularity_eps": self.regularity_eps,
        }


def grid_points(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The complex points u1[i] + u2[j] i, shaped (len(u1), len(u2))."""
    z = np.empty((len(u1), len(u2)), dtype=complex)
    z.real, z.imag = u1[:, None], u2
    return z


def jets_at(spec: SurfaceSpec, z: complex) -> tuple[Jet2, Jet2, Jet2]:
    """Jets of f and g at z and of ell at mu = Re f(z)."""
    f_jet = eval_jet2(spec.f, z)
    g_jet = eval_jet2(spec.g, z)
    ell_jet = eval_jet2(spec.ell, f_jet.value.real, variable="t")
    return f_jet, g_jet, ell_jet


def jets_array(spec: SurfaceSpec, z: np.ndarray) -> tuple:
    """jets_at over the array z: the jets, the mask of the points where f, g
    and ell all evaluate, and the mask where f alone does (the Laplacian of
    Re f needs only f)."""
    f_jet, f_ok = eval_jet2_array(spec.f, z)
    g_jet, g_ok = eval_jet2_array(spec.g, z)
    ell_jet, ell_ok = eval_jet2_array(spec.ell, f_jet.value.real, variable="t")
    return (f_jet, g_jet, ell_jet), f_ok & g_ok & ell_ok, f_ok


# The point formulas return the three coordinates of X elementwise over jet
# arrays; both take the (|g'|^2, T, L11) of geometry._sphere.

def _closed_form_xyz(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
                     gp2, t, l11) -> tuple:
    g, g1 = g_jet.value, g_jet.d1
    s = inner(g1, g * f_jet.d1)
    w = t * g1 * f_jet.d1.conjugate() - 2.0 * g * s
    l, l1 = ell_jet.value, ell_jet.d1
    a = l1 / (2.0 * gp2)
    return (a * w.real + l * 2.0 * g.real / t,
            a * w.imag + l * 2.0 * g.imag / t,
            a * (-2.0 * s) + l * (2.0 - t) / t)


def _direct_xyz(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2, gp2, t, l11) -> tuple:
    g, g1 = g_jet.value, g_jet.d1
    k = 2.0 / (t * t)
    q1 = inner(g, g1)
    q2 = inner(g, 1j * g1)
    w1 = t * g1 - 2.0 * g * q1
    w2 = t * (1j * g1) - 2.0 * g * q2
    h1, h2, _, _ = geometry._gradient(f_jet, ell_jet, l11)
    l = ell_jet.value
    # X = (h_,1 N_,1 + h_,2 N_,2) / L11 + h N, one coordinate at a time
    return tuple((h1 * (k * n1) + h2 * (k * n2)) / l11 + l * n
                 for n1, n2, n in zip((w1.real, w1.imag, -2.0 * q1),
                                      (w2.real, w2.imag, -2.0 * q2),
                                      geometry._unit_normal(g, t)))


def xyz_array(point_xyz, jets: tuple) -> np.ndarray:
    """The points of ``point_xyz`` (_closed_form_xyz or _direct_xyz) over
    jet arrays, with x, y, z along a last axis."""
    return np.stack(point_xyz(*jets, *geometry._sphere(jets[1])), axis=-1)


def _rotation_xyz(a: float, jet: Jet2, u1, u2) -> tuple:
    """X_ab at the arrays (u1, u2) from the jet of ell at mu = a*u1 + b.

    Equals the closed-form parameterization with f = a z + b, g = exp(z)."""
    e1 = np.exp(u1)
    e2 = e1 * e1
    denom = 1.0 + e2
    m = (a * jet.d1 * (np.exp(-u1) - e2 * e1) + 4.0 * jet.value * e1) / (2.0 * denom)
    nz = (jet.value * (1.0 - e2) - a * jet.d1 * denom) / denom
    return m * np.cos(u2), m * np.sin(u2), nz


def rotation_spec(a: float, b: float, ell: ExprNode, **kwargs) -> SurfaceSpec:
    """SurfaceSpec equivalent to the rotation family: f = a*z + b, g = exp(z)."""
    f = Add(Mul(Const(complex(a)), Var()), Const(complex(b)))
    return SurfaceSpec(f=f, g=Fn("exp", Var()), ell=ell, **kwargs)


@dataclass
class MeshDiagnostics:
    """Per-vertex frame summary and closed-form identity residuals.

    The residual fields are named by the diagnostic keys of IDENTITIES.
    Residuals are relative with denominator 1 + |reference|; entries are NaN
    where a quantity is undefined (irregular vertex, degenerate profile).
    """

    psi: np.ndarray
    lam: np.ndarray
    mean: np.ndarray
    gauss: np.ndarray
    c: np.ndarray
    det_v: np.ndarray
    support_residual: np.ndarray
    distance_residual: np.ndarray
    weingarten_residual: np.ndarray
    pde_residual: np.ndarray


@dataclass
class SurfaceMesh:
    u1: np.ndarray
    u2: np.ndarray
    vertices: np.ndarray            # (nu1, nu2, 3), NaN at invalid vertices
    normals: np.ndarray             # (nu1, nu2, 3)
    valid: np.ndarray               # (nu1, nu2) bool
    faces: np.ndarray               # (n_quads, 4) int compact indices of quad corners
    diagnostics: MeshDiagnostics
    closed_form: np.ndarray | None = None  # (nu1, nu2, 3) closed form of a rotation mesh

    def __post_init__(self):
        self.faces = np.asarray(self.faces, dtype=int).reshape(-1, 4)

    @property
    def vertex_count(self) -> int:
        return int(self.valid.sum())

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def regular_fraction(self) -> float:
        return float(self.valid.mean())

    def min_abs_det_v(self) -> float:
        det = self.diagnostics.det_v[self.valid]
        return float(np.nanmin(np.abs(det))) if det.size else math.nan

    def compact_vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """Valid vertices and normals in grid (row-major) order."""
        mask = self.valid
        return self.vertices[mask], self.normals[mask]


# The identities that every surface point X meets, one row each: the name of
# its verify check, the key of its mesh diagnostic, and a kernel(frame, x)
# that maps a GridFrame and the points x on it to the absolute error, the
# relative error (denominator 1 + |reference|) and where the identity is left
# unchecked.  C is NaN where the profile ratio is undefined.

def _residual(value, reference, unchecked=False) -> tuple:
    err = abs(value - reference)
    return err, err / (1.0 + abs(reference)), unchecked


IDENTITIES = (
    # <X, N> = psi
    ("support_identity", "support_residual",
     lambda frame, x: _residual(np.vecdot(x, frame.normal), frame.psi)),
    # <X, X> = lam = |grad_L h|^2 + h^2
    ("quadratic_distance", "distance_residual",
     lambda frame, x: _residual(np.vecdot(x, x), frame.lam)),
    # H/K = C (-lam/(2 psi) + psi/2) - psi where C is defined and |psi| > PSI_EPS
    ("weingarten_relation", "weingarten_residual", lambda frame, x: _residual(
        frame.c * (-frame.lam / (2.0 * frame.psi) + frame.psi / 2.0) - frame.psi,
        frame.h_over_k, np.isnan(frame.c) | (abs(frame.psi) <= geometry.PSI_EPS))),
    # psi Lap_L h = C |grad_L h|^2 where C is defined
    ("pde_lapla1", "pde_residual", lambda frame, x: _residual(
        frame.c * frame.grad_sq, frame.psi * (frame.trace_v - 2.0 * frame.psi),
        np.isnan(frame.c))),
)


def sample_blocks(spec: SurfaceSpec, kernel) -> dict:
    """The arrays of the per-point ``kernel(z)`` over the spec grid, shaped
    (nu1, nu2, ...).  The row-major grid is flattened and z takes it in
    consecutive chunks of at most BLOCK_POINTS points, whatever its shape."""
    z = grid_points(spec.grid_u1(), spec.grid_u2()).ravel()
    flat = {}
    for i in range(0, z.size, BLOCK_POINTS):
        for key, values in kernel(z[i:i + BLOCK_POINTS]).items():
            if key not in flat:
                flat[key] = np.empty(z.shape + values.shape[1:], values.dtype)
            flat[key][i:i + BLOCK_POINTS] = values
    return {key: values.reshape((spec.nu1, spec.nu2) + values.shape[1:])
            for key, values in flat.items()}


def _sample_points(spec: SurfaceSpec, z: np.ndarray, rotation_a: float | None) -> dict:
    """The per-point kernel of the mesh: every per-vertex array at the points
    ``z``, elementwise, with z's shape first.

    A vertex is computed where f, g and ell evaluate and a frame exists, and
    valid where its frame is also regular; diagnostics are NaN elsewhere.
    With ``rotation_a`` the vertices come from the rotation formula, and the
    closed-form ones are kept as ``closed_form``.
    """
    jets, ok, _ = jets_array(spec, z)
    frame = geometry.grid_frame(*jets, spec.regularity_eps)
    computed = ok & frame.exists
    valid = computed & frame.regular
    point_xyz = _closed_form_xyz if spec.method == "closed_form" else _direct_xyz
    with np.errstate(all="ignore"):
        x = xyz_array(point_xyz, jets)
        residuals = {}
        for _, key, kernel in IDENTITIES:  # NaN where left unchecked
            _, rel, unchecked = kernel(frame, x)
            residuals[key] = np.where(unchecked, np.nan, rel)
        vertices = {"vertices": x}
        if rotation_a is not None:
            vertices = {"closed_form": x, "vertices": np.stack(
                _rotation_xyz(rotation_a, jets[2], z.real, z.imag), axis=-1)}

    def where(mask, value):
        mask = mask.reshape(mask.shape + (1,) * (value.ndim - mask.ndim))
        return np.where(mask, value, np.nan)

    points = {key: where(valid, value) for key, value in dict(
        residuals, mean=frame.mean, gauss=frame.gauss, normals=frame.normal,
        **vertices).items()}
    points.update({key: where(computed, getattr(frame, key))
                   for key in ("psi", "lam", "c", "det_v")})
    points["valid"] = valid
    return points


def _sample_grid(spec: SurfaceSpec, rotation_a: float | None = None) -> SurfaceMesh:
    grid = sample_blocks(spec, lambda z: _sample_points(spec, z, rotation_a))
    valid = grid.pop("valid")
    if not valid.any():
        raise EmptyMeshError("no regular vertex in the sampled window")

    vertex_index = np.full(valid.shape, -1, dtype=int)
    vertex_index[valid] = np.arange(int(valid.sum()))
    corners = np.stack((vertex_index[:-1, :-1], vertex_index[1:, :-1],
                        vertex_index[1:, 1:], vertex_index[:-1, 1:]), axis=-1)
    quads = corners[(corners >= 0).all(axis=-1)]
    return SurfaceMesh(u1=spec.grid_u1(), u2=spec.grid_u2(),
                       vertices=grid.pop("vertices"),
                       normals=grid.pop("normals"), valid=valid,
                       faces=quads, closed_form=grid.pop("closed_form", None),
                       diagnostics=MeshDiagnostics(**grid))


def sample_mesh(spec: SurfaceSpec) -> SurfaceMesh:
    """Evaluate the spec on its uniform grid and assemble a quad mesh.

    Irregular vertices (g' = 0, det V below threshold, or evaluation errors)
    are flagged invalid and excluded from faces; the mesh is deterministic
    for a given spec.
    """
    return _sample_grid(spec)


def sample_rotation_mesh(a: float, b: float, ell: ExprNode,
                         u1_range=(-1.0, 1.0), u2_range=(-math.pi, math.pi),
                         nu1: int = 128, nu2: int = 128,
                         regularity_eps: float = geometry.REGULARITY_EPS) -> SurfaceMesh:
    """Mesh of the rotation family, with diagnostics from f = a*z + b, g = e^z.

    Vertices are evaluated by the rotation formula itself; normals and frame
    data come from the equivalent holomorphic pair, whose profile jets at
    mu = Re f = a*u1 + b the rotation formula reuses.  The pair's closed-form
    vertices are kept as ``closed_form``, for verify.rotation_match.
    """
    spec = rotation_spec(a, b, ell, u1_range=u1_range, u2_range=u2_range,
                         nu1=nu1, nu2=nu2, regularity_eps=regularity_eps)
    return _sample_grid(spec, rotation_a=a)
