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
grid is evaluated as numpy arrays, a block of whole rows at a time, by the
same formulas that the pointwise functions apply to one point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .expr import (Add, Const, ExprNode, Fn, Jet2, Mul, Var, eval_jet2,
                   eval_jet2_array, parse_expr, unparse)
from .geometry import GridFrame, inner

# Grid points evaluated together: sample_mesh takes whole rows, about this
# many points at a time.  The bound keeps the temporaries of the array
# evaluation small; a whole 128x128 grid at once raises peak memory.
BLOCK_POINTS = 2048


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
            "method": self.method,
        }


def jets_at(spec: SurfaceSpec, z: complex) -> tuple[Jet2, Jet2, Jet2]:
    """Jets of f and g at z and of ell at mu = Re f(z)."""
    f_jet = eval_jet2(spec.f, z)
    g_jet = eval_jet2(spec.g, z)
    ell_jet = eval_jet2(spec.ell, f_jet.value.real, variable="t")
    return f_jet, g_jet, ell_jet


# The point formulas return the three coordinates of X, at one point or
# over arrays; both take the (|g'|^2, T, L11) of geometry._sphere.

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


def _point_closed_form(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
                       eps: float) -> np.ndarray:
    sphere = geometry._checked_sphere(g_jet, eps)
    return np.array(_closed_form_xyz(f_jet, g_jet, ell_jet, *sphere))


def point_closed_form(spec: SurfaceSpec, z: complex) -> np.ndarray:
    """Surface point from the closed-form parameterization."""
    f_jet, g_jet, ell_jet = jets_at(spec, z)
    return _point_closed_form(f_jet, g_jet, ell_jet, spec.regularity_eps)


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


def _point_direct(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
                  eps: float) -> np.ndarray:
    sphere = geometry._checked_sphere(g_jet, eps)
    return np.array(_direct_xyz(f_jet, g_jet, ell_jet, *sphere))


def point_direct(spec: SurfaceSpec, z: complex) -> np.ndarray:
    """Surface point as gradient-plus-support combination of the normal jets."""
    f_jet, g_jet, ell_jet = jets_at(spec, z)
    return _point_direct(f_jet, g_jet, ell_jet, spec.regularity_eps)


def _rotation_xyz(a: float, jet: Jet2, u1, u2) -> tuple:
    """X_ab at (u1, u2) from the jet of ell at mu = a*u1 + b."""
    xp = np if isinstance(u1, np.ndarray) else math
    e1 = xp.exp(u1)
    e2 = e1 * e1
    denom = 1.0 + e2
    m = (a * jet.d1 * (xp.exp(-u1) - e2 * e1) + 4.0 * jet.value * e1) / (2.0 * denom)
    nz = (jet.value * (1.0 - e2) - a * jet.d1 * denom) / denom
    return m * xp.cos(u2), m * xp.sin(u2), nz


def rotation_point(a: float, b: float, ell: ExprNode,
                   u1: float, u2: float) -> np.ndarray:
    """Point of the rotation family X_ab at (u1, u2), with mu = a*u1 + b.

    Equals the closed-form parameterization with f = a z + b, g = exp(z).
    """
    jet = eval_jet2(ell, a * u1 + b, variable="t")
    return np.array(_rotation_xyz(a, jet, u1, u2))


def rotation_spec(a: float, b: float, ell: ExprNode, **kwargs) -> SurfaceSpec:
    """SurfaceSpec equivalent to the rotation family: f = a*z + b, g = exp(z)."""
    f = Add(Mul(Const(complex(a)), Var()), Const(complex(b)))
    return SurfaceSpec(f=f, g=Fn("exp", Var()), ell=ell, **kwargs)


@dataclass
class MeshDiagnostics:
    """Per-vertex frame summary and closed-form identity residuals.

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
    regular: np.ndarray


@dataclass
class SurfaceMesh:
    u1: np.ndarray
    u2: np.ndarray
    vertices: np.ndarray            # (nu1, nu2, 3), NaN at invalid vertices
    normals: np.ndarray             # (nu1, nu2, 3)
    valid: np.ndarray               # (nu1, nu2) bool
    vertex_index: np.ndarray        # (nu1, nu2) compact index or -1
    faces: list[tuple[int, int, int, int]] = field(default_factory=list)
    diagnostics: MeshDiagnostics | None = None

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


def _residuals(frame: GridFrame, x: np.ndarray) -> dict:
    """Support, distance, Weingarten and PDE residuals of the points ``x``.

    Relative with denominator 1 + |reference|; the last two are NaN where
    C is undefined, the Weingarten one also where |psi| <= PSI_EPS.
    """
    psi, lam, c, h_over_k = frame.psi, frame.lam, frame.c, frame.h_over_k
    lap_term = psi * (frame.trace_v - 2.0 * psi)
    rhs = c * (-lam / (2.0 * psi) + psi / 2.0) - psi
    weingarten = abs(h_over_k - rhs) / (1.0 + abs(h_over_k))
    return {
        "support_residual": abs(np.vecdot(x, frame.normal) - psi) / (1.0 + abs(psi)),
        "distance_residual": abs(np.vecdot(x, x) - lam) / (1.0 + abs(lam)),
        "weingarten_residual": np.where(abs(psi) > geometry.PSI_EPS, weingarten, np.nan),
        "pde_residual": abs(lap_term - c * frame.grad_sq) / (1.0 + abs(lap_term)),
    }


def _sample_rows(spec: SurfaceSpec, u1: np.ndarray, u2: np.ndarray,
                 rotation_a: float | None) -> dict:
    """Every per-vertex array of the mesh over the grid rows ``u1``.

    A vertex is computed where f, g and ell evaluate and a frame exists, and
    valid where its frame is also regular; diagnostics are NaN elsewhere.
    """
    z = np.empty((len(u1), len(u2)), dtype=complex)
    z.real = u1[:, None]
    z.imag = u2
    f_jet, f_ok = eval_jet2_array(spec.f, z)
    g_jet, g_ok = eval_jet2_array(spec.g, z)
    ell_jet, ell_ok = eval_jet2_array(spec.ell, f_jet.value.real, variable="t")
    frame = geometry.grid_frame(f_jet, g_jet, ell_jet, spec.regularity_eps)
    computed = f_ok & g_ok & ell_ok & frame.exists
    valid = computed & frame.regular
    point_xyz = _closed_form_xyz if spec.method == "closed_form" else _direct_xyz
    with np.errstate(all="ignore"):
        sphere = geometry._sphere(g_jet)
        x = np.stack(point_xyz(f_jet, g_jet, ell_jet, *sphere), axis=-1)
        residuals = _residuals(frame, x)
        if rotation_a is not None:
            x = np.stack(_rotation_xyz(rotation_a, ell_jet, z.real, z.imag), axis=-1)

    def where(mask, value):
        mask = mask.reshape(mask.shape + (1,) * (value.ndim - mask.ndim))
        return np.where(mask, value, np.nan)

    rows = {key: where(valid, value) for key, value in dict(
        residuals, mean=frame.mean, gauss=frame.gauss, vertices=x,
        normals=frame.normal).items()}
    rows.update({key: where(computed, getattr(frame, key))
                 for key in ("psi", "lam", "c", "det_v")})
    rows.update(valid=valid, regular=valid.copy())
    return rows


def _sample_grid(spec: SurfaceSpec, rotation_a: float | None = None) -> SurfaceMesh:
    u1 = spec.grid_u1()
    u2 = spec.grid_u2()
    step = max(1, BLOCK_POINTS // spec.nu2)
    grid = {}
    for i in range(0, spec.nu1, step):
        for key, rows in _sample_rows(spec, u1[i:i + step], u2, rotation_a).items():
            if key not in grid:
                grid[key] = np.empty((spec.nu1,) + rows.shape[1:], rows.dtype)
            grid[key][i:i + step] = rows
    valid = grid.pop("valid")
    if not valid.any():
        raise EmptyMeshError("no regular vertex in the sampled window")

    vertex_index = np.full(valid.shape, -1, dtype=int)
    vertex_index[valid] = np.arange(int(valid.sum()))
    corners = np.stack((vertex_index[:-1, :-1], vertex_index[1:, :-1],
                        vertex_index[1:, 1:], vertex_index[:-1, 1:]), axis=-1)
    quads = corners[(corners >= 0).all(axis=-1)]
    return SurfaceMesh(u1=u1, u2=u2, vertices=grid.pop("vertices"),
                       normals=grid.pop("normals"), valid=valid,
                       vertex_index=vertex_index,
                       faces=list(map(tuple, quads.tolist())),
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
    mu = Re f = a*u1 + b the rotation formula reuses.
    """
    spec = rotation_spec(a, b, ell, u1_range=u1_range, u2_range=u2_range,
                         nu1=nu1, nu2=nu2, regularity_eps=regularity_eps)
    return _sample_grid(spec, rotation_a=a)
