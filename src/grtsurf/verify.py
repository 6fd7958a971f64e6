"""Independent finite-difference oracle and aggregated residual checks.

The oracle, fd_oracle, recomputes fundamental forms and curvatures from
sampled surface points and normals alone (central differences in parameter
space) in four shifted array passes, each a geometry.grid_frame without
diagnostics whose points x and normals it reads, and returns them as arrays
with a mask; it has no one-point form.  run_checks compares them with the closed form at
the grid centres, a surface.sample_blocks block at a time: each row of
CHECKS maps a block to arrays.  Only the centres' jets are evaluated point
by point, about 7.4 us a centre on a 2-core x86-64 host (30 ms of a 64^2 job
that array jets would finish in 13-15 ms), until perfbench can time a job
shorter than its 50 ms sampling period (ROADMAP, item A).  convergence_order
compares the oracle with the closed-form frame of one array pass.  CHECKS
lists every check: algebraic identities hold to near machine precision,
finite-difference comparisons carry an O(step^2) floor and a looser
tolerance.  Its rows 2-5 are the rows of surface.IDENTITIES, whose kernels
also give the mesh diagnostics.  run_checks writes the whole report, the
spec's profile class (geometry.profile_class of C at a 9x9 sample of the
window) included, so it is the report that `grtsurf verify` prints.

Relative residuals use the denominator 1 + |reference| so they stay stable
near zeros of the reference quantity.  Points excluded from a check (small
|psi|, ell' = 0, irregular, stencil out of window) are counted; a check
whose exclusions exceed half of the grid fails with an "insufficient
coverage" status rather than passing vacuously.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, surface
from .expr import EvalError, InputError, Jet2
from .geometry import GridFrame, inner
from .surface import SurfaceMesh, SurfaceSpec

DEFAULT_FD_STEP = 1e-4
MAX_EXCLUDED_FRACTION = 0.5
# The FD steps that convergence_order sweeps, and its centres per axis.
CONVERGENCE_STEPS = (1e-3, 5e-4, 2.5e-4)
CONVERGENCE_SAMPLES = 5


@dataclass
class CheckResult:
    name: str
    tolerance: float
    count: int = 0
    excluded: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0
    sum_rel: float = 0.0
    worst_point: tuple[float, float] | None = None

    @classmethod
    def reduce(cls, name: str, tolerance: float, points: np.ndarray,
               abs_err: np.ndarray, rel_err: np.ndarray,
               counted: np.ndarray) -> "CheckResult":
        """The errors at the complex ``points`` where ``counted``, in grid
        order, reduced as a running pass leaves them: NaN wins in max_abs and
        max_rel (NaN fails the check), the worst point is the last largest
        or last NaN relative error, and sum_rel is a running sum (np.cumsum;
        np.sum adds pairwise).  The other points are excluded."""
        rel = rel_err[counted]
        result = cls(name, tolerance, count=rel.size, excluded=counted.size - rel.size,
                     max_abs=float(np.max(abs_err[counted], initial=0.0)),  # NaN wins
                     max_rel=float(np.max(rel, initial=0.0)))
        if rel.size:
            result.sum_rel = float(np.cumsum(rel)[-1])
            worst = np.isnan(rel) if math.isnan(result.max_rel) else rel == result.max_rel
            point = points[counted][worst][-1]
            result.worst_point = (float(point.real), float(point.imag))
        return result

    @property
    def mean_rel(self) -> float:
        return self.sum_rel / self.count if self.count else math.nan

    @property
    def insufficient_coverage(self) -> bool:
        total = self.count + self.excluded
        return total == 0 or self.excluded > MAX_EXCLUDED_FRACTION * total

    @property
    def passed(self) -> bool:
        return not self.insufficient_coverage and bool(self.max_rel <= self.tolerance)

    @property
    def status(self) -> str:
        if self.insufficient_coverage:
            return "insufficient_coverage"
        return "ok" if self.passed else "fail"

    def to_dict(self) -> dict:
        """The result as JSON values; a float that is not finite is None,
        and the status carries the failure."""
        return {
            "name": self.name,
            "count": self.count,
            "excluded": self.excluded,
            "max_abs": _finite_or_none(self.max_abs),
            "max_rel": _finite_or_none(self.max_rel) if self.count else None,
            "mean_rel": _finite_or_none(self.mean_rel) if self.count else None,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "pass": self.passed,
            "status": self.status,
            "tolerance": self.tolerance,
        }


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass
class ResidualReport:
    spec_summary: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_summary,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def _rel(err, ref):
    return abs(err) / (1.0 + abs(ref))


def _centre_jets(spec: SurfaceSpec, z: np.ndarray) -> tuple[Jet2, Jet2, Jet2]:
    """surface.jets_at at each point of the array z, stacked into Jet2
    arrays shaped like z; all three jets are NaN where one does not
    evaluate."""
    table = np.full((z.size, 9), math.nan, dtype=complex)
    for k, w in enumerate(map(complex, z.flat)):
        try:
            f, g, ell = surface.jets_at(spec, w)
            table[k] = (f.value, f.d1, f.d2, g.value, g.d1, g.d2, ell.value, ell.d1, ell.d2)
        except EvalError:
            pass
    table = np.moveaxis(table.reshape(z.shape + (3, 3)), -1, 0)
    return Jet2(*table[..., 0]), Jet2(*table[..., 1]), Jet2(*table[..., 2].real)


def fd_oracle(spec: SurfaceSpec, z: np.ndarray,
              step: float = DEFAULT_FD_STEP) -> dict:
    """The FD oracle at every point of the array z, by four passes at
    z + step, z - step, z + i*step and z - i*step.  Returns arrays shaped
    like z: ``forms``, E, F, G, e, f, g, H_fd and K_fd along a last axis, and
    ``ok``, False exactly where the stencil leaves the window, a stencil
    point is irregular (a point where a jet fails is), or E G - F^2 = 0;
    ``f_values``, Re f at the four points along a last axis, NaN where f
    fails there, and ``f_ok``, False where one of them is NaN.
    H follows the closed-form sign (H = -trace(V)/(2 det V))."""
    (lo1, hi1), (lo2, hi2) = spec.u1_range, spec.u2_range
    ok = ((lo1 <= z.real - step) & (z.real + step <= hi1)
          & (lo2 <= z.imag - step) & (z.imag + step <= hi2))
    xs, ns, f_values = [], [], []
    with np.errstate(all="ignore"):
        for w in (z + off for off in (step, -step, 1j * step, -1j * step)):
            jets = surface.jets_array(spec, w)
            frame = geometry.grid_frame(*jets, spec.regularity_eps, diagnostics=False)
            ok &= frame.regular
            xs.append(frame.x)
            ns.append(frame.normal)
            f_values.append(jets[0].value.real)
        x_u1, x_u2 = ((xs[i] - xs[i + 1]) * (0.5 / step) for i in (0, 2))
        n_u1, n_u2 = ((ns[i] - ns[i + 1]) * (0.5 / step) for i in (0, 2))
        E, F, G = np.vecdot(x_u1, x_u1), np.vecdot(x_u1, x_u2), np.vecdot(x_u2, x_u2)
        e, f, g = np.vecdot(x_u1, n_u1), np.vecdot(x_u1, n_u2), np.vecdot(x_u2, n_u2)
        det_i = E * G - F * F
        ok &= det_i != 0.0  # else the step is below the resolution of the window
        k_fd = (e * g - f * f) / det_i
        h_fd = -(e * G - 2.0 * f * F + g * E) / (2.0 * det_i)
    f_values = np.stack(f_values, axis=-1)
    return {"forms": np.stack((E, F, G, e, f, g, h_fd, k_fd), axis=-1), "ok": ok,
            "f_values": f_values, "f_ok": np.isfinite(f_values).all(axis=-1)}


def _laplacian(f_values, mu, step: float):
    """Flat 5-point Laplacian of mu = Re f from the four f values of
    fd_oracle and mu at the centre; it vanishes for holomorphic f."""
    return (f_values[0] + f_values[1] + f_values[2] + f_values[3]
            - 4.0 * mu) / (step * step)


# ---------------------------------------------------------------------------
# The check table.  A kernel maps a block of grid centres to arrays of the
# absolute error, the relative error and whether a point is excluded from
# the check, at each centre; run_checks also excludes the centres without a
# regular frame.
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    """A block of grid centres as the kernels read it."""

    jets: tuple             # Jet2 arrays of f, g and ell
    frame: GridFrame
    oracle: dict            # fd_oracle's arrays
    step: float


def _distance(x: np.ndarray, y: np.ndarray) -> tuple:
    """|y - x| and |y - x| / (1 + |x|) along the last axis.  The norm is
    sqrt(<d, d>), which rounds as a one-vector np.linalg.norm does."""
    d = y - x
    err = np.sqrt(np.vecdot(d, d))
    return err, err / (1.0 + np.sqrt(np.vecdot(x, x))), False


def _vs_fd(b: _Block, closed: np.ndarray, columns: slice) -> tuple:
    """Errors of the ``columns`` of the FD oracle's ``forms`` against the
    closed form, at the column with the largest relative error or the first
    whose relative error is NaN; excluded where the oracle is not ``ok``."""
    err = b.oracle["forms"][..., columns] - closed
    worst = np.argmax(_rel(err, closed), axis=-1)[..., None]
    err, closed = (np.take_along_axis(a, worst, axis=-1)[..., 0] for a in (err, closed))
    return abs(err), _rel(err, closed), ~b.oracle["ok"]


def _harmonicity_mu(b: _Block) -> tuple:
    mu = inner(1.0, b.jets[0].value)
    lap_mu = _laplacian(np.moveaxis(b.oracle["f_values"], -1, 0), mu, b.step)
    return abs(lap_mu), _rel(lap_mu, mu), ~b.oracle["f_ok"]


def _wv_identity(b: _Block) -> tuple:
    v11, v12, v22 = np.moveaxis(b.frame.v, -1, 0)
    v = np.stack((v11, v12, v12, v22), axis=-1).reshape(v11.shape + (2, 2))
    w = np.stack((v22, -v12, -v12, v11), axis=-1).reshape(v.shape) / b.frame.det_v[..., None, None]
    resid = np.abs(w @ v - np.eye(2))
    return (np.max(resid, axis=(-2, -1)),
            np.max(resid / (1.0 + np.eye(2)), axis=(-2, -1)), False)


class Check(NamedTuple):
    """A row of the check table."""

    name: str
    tolerance_class: str
    kernel: Callable[[_Block], tuple]


# The tolerance classes and their defaults: identities exact up to rounding,
# and comparisons against finite differences, which carry an O(step^2) floor.
ALGEBRAIC, FD = "algebraic", "fd"
CLASS_TOLERANCES = {ALGEBRAIC: 1e-9, FD: 1e-4}

CHECKS = (
    Check("param_equivalence", ALGEBRAIC, lambda b: _distance(
        b.frame.x, geometry.direct_xyz(*b.jets))),
    *(Check(name, ALGEBRAIC, lambda b, kernel=kernel: kernel(b.frame, b.frame.x))
      for name, _, kernel in surface.IDENTITIES),
    Check("forms_vs_fd", FD, lambda b: _vs_fd(b, b.frame.forms, slice(0, 6))),
    Check("curvature_vs_fd", FD, lambda b: _vs_fd(
        b, np.stack((b.frame.mean, b.frame.gauss), axis=-1), slice(6, 8))),
    Check("harmonicity_mu", FD, _harmonicity_mu),
    Check("wv_identity", ALGEBRAIC, _wv_identity),
)
ALL_CHECKS = tuple(c.name for c in CHECKS)
ALGEBRAIC_CHECKS, FD_CHECKS = (tuple(c.name for c in CHECKS if c.tolerance_class == cls)
                               for cls in (ALGEBRAIC, FD))


def _check_block(spec: SurfaceSpec, z: np.ndarray, step: float) -> dict:
    """Every row of CHECKS over the grid centres z, along a last axis: the
    ``abs`` and ``rel`` errors, and ``counted``, True where the frame is
    regular (so the jets evaluate) and the row does not exclude the centre."""
    jets = _centre_jets(spec, z)
    frame = geometry.grid_frame(*jets, spec.regularity_eps)
    block = _Block(jets, frame, fd_oracle(spec, z, step), step)
    abs_err, rel_err, excluded = zip(*(row.kernel(block) for row in CHECKS))
    return {"abs": np.stack(abs_err, axis=-1), "rel": np.stack(rel_err, axis=-1),
            "counted": np.stack([frame.regular & ~np.asarray(e) for e in excluded],
                                axis=-1)}


@np.errstate(all="ignore")  # overflow makes a residual inf, not a warning
def run_checks(spec: SurfaceSpec, step: float = DEFAULT_FD_STEP,
               tolerances: dict | None = None) -> ResidualReport:
    """Evaluate every check over the spec grid, a block of points at a time,
    an evaluation error at a point as an exclusion.  ``tolerances`` maps a
    tolerance class to its value; a class left out keeps its default."""
    tol = {**CLASS_TOLERANCES, **(tolerances or {})}
    grid = surface.sample_blocks(spec, lambda z: _check_block(spec, z, step))
    points = surface.grid_points(spec.grid_u1(), spec.grid_u2())
    results = [CheckResult.reduce(row.name, tol[row.tolerance_class], points,
                                  abs_err, rel_err, counted)
               for row, abs_err, rel_err, counted in zip(CHECKS, *(
                   np.moveaxis(grid[key], -1, 0) for key in ("abs", "rel", "counted")))]
    # the class of C over the window's mu values, sampled on a 9x9 grid
    z = surface.grid_points(*(np.linspace(*r, 9) for r in (spec.u1_range, spec.u2_range)))
    c = geometry.profile_ratio(surface.jets_array(spec, z)[2])
    constant, value, label = geometry.profile_class(c[~np.isnan(c)].tolist())
    return ResidualReport({**spec.summary(), "fd_step": step,
                           "profile_c_constant": constant, "profile_c": value,
                           "profile_label": label}, results)


@np.errstate(all="ignore")  # an overflowed vertex gives inf or NaN
def rotation_match(mesh: SurfaceMesh) -> CheckResult:
    """The vertices of a surface.sample_rotation_mesh mesh, by the rotation
    formula, against the closed form with f = a*z + b, g = exp(z) that the
    same sampling kept.  Their distance, relative to 1 + |closed form|, is
    counted in grid order at the valid vertices; the others are excluded.
    """
    errs, rels, _ = _distance(mesh.closed_form, mesh.vertices)
    return CheckResult.reduce("rotation_match", CLASS_TOLERANCES[ALGEBRAIC],
                              surface.grid_points(mesh.u1, mesh.u2), errs, rels,
                              mesh.valid)


@np.errstate(all="ignore")  # a masked or overflowed centre gives inf or NaN
def convergence_order(spec: SurfaceSpec) -> tuple[float, list[float]]:
    """Measured order of the FD truncation error over CONVERGENCE_STEPS.

    Averages the relative form/curvature residual over an interior subgrid
    of CONVERGENCE_SAMPLES^2 centres, whose closed-form frame comes from one
    array pass, and fits the slope of log(residual) against log(step); a
    second-order stencil should land near 2.
    """
    margin = max(CONVERGENCE_STEPS) * 2.0
    z = surface.grid_points(*(
        np.linspace(lo + margin + 0.05 * (hi - lo), hi - margin - 0.05 * (hi - lo),
                    CONVERGENCE_SAMPLES) for lo, hi in (spec.u1_range, spec.u2_range)))
    frame = geometry.grid_frame(*surface.jets_array(spec, z), spec.regularity_eps)
    closed = np.concatenate((frame.forms, np.stack((frame.mean, frame.gauss), axis=-1)),
                            axis=-1)
    residuals = []
    for step in CONVERGENCE_STEPS:
        oracle = fd_oracle(spec, z, step)
        counted = frame.regular & oracle["ok"]
        if not counted.any():
            raise InputError("no regular sample point for convergence study")
        residuals.append(float(np.mean(_rel(oracle["forms"] - closed, closed)[counted])))
    slope = np.polyfit(np.log(CONVERGENCE_STEPS), np.log(residuals), 1)[0]
    return float(slope), residuals
