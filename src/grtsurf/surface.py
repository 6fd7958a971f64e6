"""Surface points and meshes.

The points come from geometry: the closed form as GridFrame.x, which the
frame of every block carries, and the direct sum as geometry.direct_xyz,
which a spec with ``method="direct"`` samples.  The rotation family X_ab
realizes the surfaces of revolution obtained for f = a z + b, g = exp(z):
their mesh is that pair's, with geometry.rotation_profile turned about e3.

Meshes sample a uniform parameter grid, flag irregular vertices (g' = 0 or
det V numerically zero) and emit quad faces only over regular corners.  The
grid is evaluated as numpy arrays by a per-point kernel, in flat chunks of
at most BLOCK_POINTS points, whatever the grid's shape.  IDENTITIES holds
the four identities every surface point meets, once for the mesh
diagnostics and verify's checks alike.  Vertices, normals, psi and det V
are sampled for every output format; the residuals of IDENTITIES and the
mean, gauss, lam and C grids only with ``diagnostics`` (the default), which
the CLI asks for only when it writes mesh JSON.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import geometry
from .expr import (Add, Const, ExprNode, Fn, InputError, Jet2, Mul, Var,
                   eval_jet2, eval_jet2_array, parse_expr, unparse)

# Grid points evaluated together: sample_blocks hands its kernel at most this
# many consecutive points of the flattened grid, so the temporaries of the
# array evaluation stay small and their size does not depend on the grid's
# shape; a whole 128x128 grid at once raises peak memory.
BLOCK_POINTS = 2048
# The most grid points, nu1 * nu2, that a SurfaceSpec accepts, so that a run
# stays under 2 GiB.  Peak RSS grows linearly in the points and, with blocks
# cut from the flattened grid, barely with its shape.  At 2^22 points, 2048^2
# and 2 x 2^21, the worst peak of generate, rotate --cross-check and verify
# was 1029 MiB: 257 bytes a point, in rotate --cross-check to mesh JSON on
# 2048^2 (x86-64 Linux, numpy 2.4.6).  To OBJ it peaks at 964 MiB; generate
# peaks at 868 (OBJ), 741 (PLY) and 906 MiB (mesh JSON; 760 on two rows),
# verify at 876 MiB.  2^23 points would take about 2.1 GiB.
MAX_GRID_POINTS = 2 ** 22


class EmptyMeshError(Exception):
    """No vertex of the sampled grid was regular."""


class Rule(NamedTuple):
    """A rule that a numeric input meets: its predicate and the text that
    names it.  The library's checks and the CLI flags' argparse types both
    read it, so they reject the same values in the same words."""

    text: str
    holds: Callable

    def check(self, value, name: str = ""):
        """``value``, or InputError '[name ]must be <text>, got <value>'."""
        if not self.holds(value):
            message = f"must be {self.text}, got {value!r}"
            raise InputError(f"{name} {message}" if name else message)
        return value


FINITE = Rule("finite", math.isfinite)
NON_NEGATIVE = Rule("finite and >= 0", lambda x: 0.0 <= x < math.inf)


def check_range(name: str, lo: float, hi: float) -> None:
    """Raise InputError unless lo < hi with a finite width (no NaN, no inf)."""
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InputError(f"{name} range must be finite with lo < hi, "
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
            raise InputError("resolution must be at least 2 in each direction")
        if self.nu1 * self.nu2 > MAX_GRID_POINTS:
            raise InputError(f"grid of {self.nu1} x {self.nu2} points exceeds "
                             f"the limit of {MAX_GRID_POINTS} points")
        NON_NEGATIVE.check(self.regularity_eps, "regularity eps")
        if self.method not in ("closed_form", "direct"):
            raise InputError(f"unknown method {self.method!r}")

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


def jets_array(spec: SurfaceSpec, z: np.ndarray) -> tuple[Jet2, Jet2, Jet2]:
    """jets_at over the array z; each of the three jets is NaN where it does
    not evaluate, and the jet of ell also where f does not."""
    f_jet = eval_jet2_array(spec.f, z)
    g_jet = eval_jet2_array(spec.g, z)
    return f_jet, g_jet, eval_jet2_array(spec.ell, f_jet.value.real, variable="t")


def rotation_spec(a: float, b: float, ell: ExprNode, **kwargs) -> SurfaceSpec:
    """SurfaceSpec equivalent to the rotation family: f = a*z + b, g = exp(z),
    for finite a and b."""
    FINITE.check(a, "a")
    FINITE.check(b, "b")
    f = Add(Mul(Const(complex(a)), Var()), Const(complex(b)))
    return SurfaceSpec(f=f, g=Fn("exp", Var()), ell=ell, **kwargs)


@dataclass
class MeshDiagnostics:
    """Per-vertex frame summary and closed-form identity residuals.

    The residual fields are named by the diagnostic keys of IDENTITIES.
    Residuals are relative with denominator 1 + |reference|; entries are NaN
    where a quantity is undefined (irregular vertex, degenerate profile).
    Only mesh JSON writes them.  psi and det_v are always sampled (the CLI's
    min|detV| and rotate's sphere radius read them); the other eight are
    None on a mesh sampled with ``diagnostics=False``, as the CLI samples
    for OBJ and PLY.
    """

    psi: np.ndarray
    lam: np.ndarray | None
    mean: np.ndarray | None
    gauss: np.ndarray | None
    c: np.ndarray | None
    det_v: np.ndarray
    support_residual: np.ndarray | None
    distance_residual: np.ndarray | None
    weingarten_residual: np.ndarray | None
    pde_residual: np.ndarray | None


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
    return err, geometry.relative_error(err, reference), unchecked


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


def _sample_points(spec: SurfaceSpec, z: np.ndarray, diagnostics: bool = True) -> dict:
    """The per-point kernel of the mesh: every per-vertex array at the points
    ``z``, elementwise, with z's shape first.

    A vertex is valid where its frame is regular (so f, g and ell evaluate);
    diagnostics are NaN elsewhere, but psi, lam, C and det V are kept where
    a frame exists, and so are NaN there only where f or ell fails or C is
    undefined.  Without ``diagnostics`` only what OBJ, PLY and rotate read
    is sampled: vertices, normals, valid, psi and det V; the frame stops at
    det V, and the IDENTITIES kernels and the mean, gauss, lam and C grids,
    which only mesh JSON writes, are skipped.
    """
    jets = jets_array(spec, z)
    frame = geometry.grid_frame(*jets, spec.regularity_eps, diagnostics)
    x = frame.x if spec.method == "closed_form" else geometry.direct_xyz(*jets)
    regular = {"normals": frame.normal, "vertices": x}
    if diagnostics:
        with np.errstate(all="ignore"):
            for _, key, kernel in IDENTITIES:  # NaN where left unchecked
                _, rel, unchecked = kernel(frame, x)
                regular[key] = np.where(unchecked, np.nan, rel)
        regular.update(mean=frame.mean, gauss=frame.gauss)

    def where(mask, value):
        mask = mask.reshape(mask.shape + (1,) * (value.ndim - mask.ndim))
        return np.where(mask, value, np.nan)

    points = {key: where(frame.regular, value) for key, value in regular.items()}
    points.update({key: where(frame.exists, getattr(frame, key)) for key in
                   (("psi", "lam", "c", "det_v") if diagnostics else ("psi", "det_v"))})
    points["valid"] = frame.regular
    return points


def sample_mesh(spec: SurfaceSpec, diagnostics: bool = True) -> SurfaceMesh:
    """Evaluate the spec on its uniform grid and assemble a quad mesh.

    Irregular vertices (g' = 0, det V below threshold, or evaluation errors)
    are flagged invalid and excluded from faces; the mesh is deterministic
    for a given spec.  Without ``diagnostics`` the MeshDiagnostics fields
    other than psi and det_v are None and are not computed; everything else
    is bit-identical.
    """
    grid = sample_blocks(spec, lambda z: _sample_points(spec, z, diagnostics))
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
                       normals=grid.pop("normals"), valid=valid, faces=quads,
                       diagnostics=MeshDiagnostics(
                           **{f.name: grid.get(f.name) for f in fields(MeshDiagnostics)}))


def sample_rotation_mesh(a: float, b: float, ell: ExprNode,
                         u1_range=(-1.0, 1.0), u2_range=(-math.pi, math.pi),
                         nu1: int = 128, nu2: int = 128,
                         regularity_eps: float = geometry.REGULARITY_EPS,
                         diagnostics: bool = True) -> SurfaceMesh:
    """Mesh of the rotation family, with diagnostics from f = a*z + b, g = e^z.

    sample_mesh samples that pair, whose vertices are kept as ``closed_form``
    for verify.rotation_match.  The vertices are (m cos u2, m sin u2, n), NaN
    where invalid, from one geometry.rotation_profile per u1 at mu = a*u1 + b
    (bit for bit the pair's Re f).  ``diagnostics`` is that of sample_mesh.
    """
    spec = rotation_spec(a, b, ell, u1_range=u1_range, u2_range=u2_range,
                         nu1=nu1, nu2=nu2, regularity_eps=regularity_eps)
    mesh = sample_mesh(spec, diagnostics)
    m, n = geometry.rotation_profile(
        a, eval_jet2_array(ell, a * mesh.u1 + b, variable="t"), mesh.u1)
    vertices = np.empty_like(mesh.vertices)
    with np.errstate(all="ignore"):
        np.multiply(m[:, None], np.cos(mesh.u2), out=vertices[..., 0])
        np.multiply(m[:, None], np.sin(mesh.u2), out=vertices[..., 1])
    vertices[..., 2] = n[:, None]
    vertices[~mesh.valid] = np.nan
    mesh.closed_form, mesh.vertices = mesh.vertices, vertices
    return mesh
