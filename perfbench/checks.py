"""Output checks that rely on nothing the program computes.

Each surface is recomputed here in numpy from the closed form in the
repository README,

    X = ell'(mu)/(2|g'|^2) (T g' conj(f') - 2 g <g', g f'>, -2 <g', g f'>)
        + ell(mu) (2g, 2-T)/T,       T = 1 + |g|^2,  mu = Re f,
    N = (2 Re g, 2 Im g, 1 - |g|^2) / T,

with f', g', ell and ell' written out by hand for every fixed spec, and the
mesh files are read back with readers of our own.  The module never imports
grtsurf.  Every check returns a list of failures, each starting with the
check's name, so a negative case can show which check caught it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

REGULARITY_EPS = 1e-10       # |g'| threshold of the program's vertices
VERTEX_RTOL = 1e-9           # |X - X_ref| <= VERTEX_RTOL * (1 + |X_ref|)
NORMAL_ATOL = 1e-12
ROW_RTOL = 1e-12             # rotation rows: shared z and radius
SPHERE_RADIUS_FIG4 = 3.0     # |ell(b)| = |1 + 1 + 1| for fig4


@dataclass(frozen=True)
class Spec:
    """f, g and ell with the derivatives the closed form needs, by hand."""

    f: Callable
    fp: Callable
    g: Callable
    gp: Callable
    ell: Callable
    ellp: Callable
    domain: Callable = lambda t: np.ones(np.shape(t), dtype=bool)


def _identity(z):
    return z


def _one(z):
    return np.ones_like(z)


def _rotation(a: float, b: float, ell, ellp) -> Spec:
    # f = a z + b, g = exp(z): the holomorphic pair of the rotation family.
    return Spec(f=lambda z: a * z + b, fp=lambda z: np.full_like(z, a),
                g=np.exp, gp=np.exp, ell=ell, ellp=ellp)


def _quadratic(t):
    return t * t + t + 1.0


def _quadratic_p(t):
    return 2.0 * t + 1.0


def _mixed_g(z):
    return np.cosh(z) / (z * z + 3.0)


def _mixed_gp(z):
    d = z * z + 3.0
    return np.sinh(z) / d - 2.0 * z * np.cosh(z) / (d * d)


_FIG1 = Spec(_identity, _one, _identity, _one, _quadratic, _quadratic_p)

SPECS = {
    "fig1": _FIG1,
    "fig1-direct": _FIG1,
    "fig2": Spec(_identity, _one, _identity, _one, np.cos,
                 lambda t: -np.sin(t)),
    "mixed": Spec(f=lambda z: np.exp(z) * np.sin(z) + z ** 3,
                  fp=lambda z: np.exp(z) * (np.sin(z) + np.cos(z)) + 3.0 * z * z,
                  g=_mixed_g, gp=_mixed_gp,
                  ell=lambda t: np.exp(t) * np.cos(t) + 2.0,
                  ellp=lambda t: np.exp(t) * (np.cos(t) - np.sin(t))),
    "masked": Spec(_identity, _one, _identity, _one,
                   lambda t: np.log(t + 0.5), lambda t: 1.0 / (t + 0.5),
                   domain=lambda t: t + 0.5 > 0.0),
    "fig3": _rotation(1.0, 0.0, _quadratic, _quadratic_p),
    "fig4": _rotation(0.0, 1.0, _quadratic, _quadratic_p),
    "fig5": _rotation(1.0, 0.0, np.sinh, np.cosh),
}

# The residual checks a verify report must hold (README, "Checks").
VERIFY_CHECKS = ("param_equivalence", "support_identity", "quadratic_distance",
                 "weingarten_relation", "pde_lapla1", "forms_vs_fd",
                 "curvature_vs_fd", "harmonicity_mu", "wv_identity")
# Checks whose central-difference stencil must stay inside the window.
STENCIL_CHECKS = ("forms_vs_fd", "curvature_vs_fd")


def _inner(a, b):
    return a.real * b.real + a.imag * b.imag


def closed_form(spec: Spec, u1: np.ndarray, u2: np.ndarray):
    """Reference vertices and normals on the grid, and where they exist."""
    z = u1[:, None] + 1j * u2[None, :]
    with np.errstate(all="ignore"):
        fp, g, gp = spec.fp(z), spec.g(z), spec.gp(z)
        mu = spec.f(z).real
        gp2 = _inner(gp, gp)
        valid = spec.domain(mu) & (gp2 > REGULARITY_EPS ** 2)
        ell, ellp = spec.ell(mu), spec.ellp(mu)
        t = 1.0 + _inner(g, g)
        s = _inner(gp, g * fp)
        w = t * gp * np.conj(fp) - 2.0 * g * s
        a = ellp / (2.0 * gp2)
        x = np.stack([a * w.real + ell * 2.0 * g.real / t,
                      a * w.imag + ell * 2.0 * g.imag / t,
                      -2.0 * a * s + ell * (2.0 - t) / t], axis=-1)
        n = np.stack([2.0 * g.real, 2.0 * g.imag, 2.0 - t], axis=-1) / t[..., None]
    return x, n, valid


def expected_triangles(valid: np.ndarray) -> np.ndarray:
    """Two triangles per grid cell whose four corners are vertices, in the
    order the mesh writers emit them, as 0-based compact indices."""
    index = np.full(valid.shape, -1)
    index[valid] = np.arange(int(valid.sum()))
    cell = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    a, b = index[:-1, :-1][cell], index[1:, :-1][cell]
    c, d = index[1:, 1:][cell], index[:-1, 1:][cell]
    return np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)],
                    axis=1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

@dataclass
class MeshFile:
    vertices: np.ndarray          # (k, 3), compact row-major order
    normals: np.ndarray           # (k', 3)
    triangles: np.ndarray         # (m, 3), 0-based
    valid: np.ndarray | None      # grid mask, for formats that keep the grid


def _floats(lines: list[str], start: int) -> np.ndarray:
    if not lines:
        return np.zeros((0, 3))
    return np.array([line.split()[start:] for line in lines], dtype=float)


def read_obj(text: str) -> MeshFile:
    verts, normals, tris = [], [], []
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append(line)
        elif line.startswith("vn "):
            normals.append(line)
        elif line.startswith("f "):
            corners = [c.split("//") for c in line.split()[1:]]
            if len(corners) != 3 or any(len(c) != 2 or c[0] != c[1] for c in corners):
                raise ValueError(f"bad face line {line!r}")
            tris.append([int(c[0]) - 1 for c in corners])
    return MeshFile(_floats(verts, 1), _floats(normals, 1),
                    np.array(tris, dtype=int).reshape(-1, 3), None)


def read_ply(text: str) -> MeshFile:
    lines = text.splitlines()
    end = lines.index("end_header")
    counts = {}
    for line in lines[:end]:
        if line.startswith("element "):
            _, kind, count = line.split()
            counts[kind] = int(count)
    body = lines[end + 1:]
    n_vert, n_face = counts["vertex"], counts["face"]
    if len(body) != n_vert + n_face:
        raise ValueError(f"{len(body)} body lines for {n_vert} vertices "
                         f"and {n_face} faces")
    rows = _floats(body[:n_vert], 0).reshape(-1, 6)
    faces = np.array([line.split() for line in body[n_vert:]], dtype=int).reshape(-1, 4)
    if (faces[:, 0] != 3).any():
        raise ValueError("PLY face that is not a triangle")
    return MeshFile(rows[:, :3], rows[:, 3:], faces[:, 1:], None)


def read_mesh_json(text: str) -> MeshFile:
    data = json.loads(text)

    def grid(rows):
        return np.array([[v if v is not None else [np.nan] * 3 for v in row]
                         for row in rows], dtype=float)

    verts, normals = grid(data["vertices"]), grid(data["normals"])
    valid = ~np.isnan(verts).any(axis=-1)
    quads = np.array(data["faces"], dtype=int).reshape(-1, 4)
    tris = np.stack([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]], axis=1).reshape(-1, 3)
    return MeshFile(verts[valid], normals[~np.isnan(normals).any(axis=-1)],
                    tris, valid)


READERS = {"obj": read_obj, "ply": read_ply, "json": read_mesh_json}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _grid(job):
    return np.linspace(*job.u1, job.n), np.linspace(*job.u2, job.n)


def _parse(job, text: str) -> tuple[MeshFile | None, list[str]]:
    try:
        return READERS[job.fmt](text), []
    except (ValueError, KeyError, IndexError) as exc:
        return None, [f"mesh.readback: {job.out} does not parse: {exc}"]


def check_mesh(job, text: str) -> list[str]:
    """Read-back counts, vertex placement, vertices and normals of a mesh."""
    mesh, failures = _parse(job, text)
    return failures if mesh is None else _mesh_failures(job, mesh)


def _mesh_failures(job, mesh: MeshFile) -> list[str]:
    u1, u2 = _grid(job)
    x_ref, n_ref, valid = closed_form(SPECS[job.case], u1, u2)
    failures = []
    count = int(valid.sum())
    if mesh.valid is not None and not np.array_equal(mesh.valid, valid):
        failures.append(f"mesh.placement: {job.out} has vertices at "
                        f"{int((mesh.valid != valid).sum())} wrong grid points")
    if len(mesh.vertices) != count or len(mesh.normals) != count:
        failures.append(f"mesh.readback: {job.out} holds {len(mesh.vertices)} "
                        f"vertices and {len(mesh.normals)} normals, "
                        f"expected {count}")
        return failures
    tris = expected_triangles(valid)
    if mesh.triangles.shape != tris.shape or not np.array_equal(mesh.triangles, tris):
        failures.append(f"mesh.readback: {job.out} holds {len(mesh.triangles)} "
                        f"triangles, expected 2 x {len(tris) // 2} quads "
                        f"in grid order")
    x_ref, n_ref = x_ref[valid], n_ref[valid]
    err = np.linalg.norm(mesh.vertices - x_ref, axis=-1)
    bad = err > VERTEX_RTOL * (1.0 + np.linalg.norm(x_ref, axis=-1))
    if bad.any():
        failures.append(f"mesh.vertices: {int(bad.sum())} vertices of {job.out} "
                        f"are off the closed form (max error {err.max():.3g})")
    length = np.linalg.norm(mesh.normals, axis=-1)
    if np.abs(length - 1.0).max() > NORMAL_ATOL:
        failures.append(f"mesh.normals: a normal of {job.out} has length "
                        f"{length[np.abs(length - 1.0).argmax()]!r}")
    gap = np.abs(mesh.normals - n_ref).max()
    if gap > NORMAL_ATOL:
        failures.append(f"mesh.normals: {job.out} normals are off the inverse "
                        f"stereographic image of g by {gap:.3g}")
    return failures


def check_rotation(job, text: str, stdouts: list[str]) -> list[str]:
    """Surface of revolution: rows share z and radius; fig4 is a sphere.

    Every grid point of a rotation window is a vertex (g = exp(z) has no
    critical point), so a full mesh reshapes into rows of constant u1."""
    mesh, failures = _parse(job, text)
    if mesh is not None:
        failures = _mesh_failures(job, mesh)
    if mesh is not None and len(mesh.vertices) == job.n * job.n:
        verts = mesh.vertices.reshape(job.n, job.n, 3)
        radius = np.hypot(verts[..., 0], verts[..., 1])
        for name, values in (("z", verts[..., 2]), ("radius", radius)):
            spread = values.max(axis=1) - values.min(axis=1)
            scale = 1.0 + np.abs(values).max(axis=1)
            if (spread > ROW_RTOL * scale).any():
                failures.append(f"rotate.rows: {name} varies along a u1 row "
                                f"of {job.out} by {spread.max():.3g}")
        if job.case == "fig4":
            off = np.abs(np.linalg.norm(verts, axis=-1) - SPHERE_RADIUS_FIG4).max()
            if off > ROW_RTOL * SPHERE_RADIUS_FIG4:
                failures.append(f"rotate.sphere: {job.out} leaves the sphere "
                                f"of radius 3 by {off:.3g}")
    missing = sum("cross-check rotation vs closed form: ok" not in out
                  for out in stdouts)
    if missing or not stdouts:
        failures.append(f"rotate.cross_check: {missing} of {len(stdouts)} "
                        f"{job.case} jobs did not report ok")
    return failures


def check_report(job, text: str) -> list[str]:
    """A verify report passes, covers the grid and excludes the boundary."""
    try:
        report = json.loads(text)
        checks = {c["name"]: c for c in report["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify.pass: {job.out} does not parse: {exc}"]
    failures = []
    if report.get("pass") is not True or any(c.get("pass") is not True
                                             for c in checks.values()):
        failures.append(f"verify.pass: {job.out} does not pass")
    if set(checks) != set(VERIFY_CHECKS):
        failures.append(f"verify.coverage: {job.out} holds checks {sorted(checks)}")
    grid = job.n * job.n
    for name, check in sorted(checks.items()):
        if check["count"] + check["excluded"] != grid:
            failures.append(f"verify.coverage: {name} covers "
                            f"{check['count']} + {check['excluded']} != {grid}")
    boundary = 4 * (job.n - 1)
    for name in STENCIL_CHECKS:
        if name in checks and checks[name]["excluded"] != boundary:
            failures.append(f"verify.boundary: {name} excludes "
                            f"{checks[name]['excluded']}, expected {boundary}")
    return failures


def check_job(workload: str, job, text: str, stdouts: list[str]) -> list[str]:
    """All checks of one job's output; ``stdouts`` of every run of the job."""
    if workload == "verify":
        return check_report(job, text)
    if workload == "rotate":
        return check_rotation(job, text, stdouts)
    return check_mesh(job, text)


def check_repeats(records: list[dict]) -> list[str]:
    """Every job of a case wrote the same bytes, round after round."""
    digests: dict[str, set] = {}
    counts: dict[str, int] = {}
    for rec in records:
        digests.setdefault(rec["case"], set()).add(rec["sha256"])
        counts[rec["case"]] = counts.get(rec["case"], 0) + 1
    failures = [f"bytes.repeat: {case} ran once, so nothing was repeated"
                for case, count in sorted(counts.items()) if count < 2]
    return failures + [f"bytes.repeat: {case} wrote {len(found)} different outputs"
                       for case, found in sorted(digests.items()) if len(found) != 1]
