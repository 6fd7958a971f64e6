"""Independent finite-difference oracle and aggregated residual checks.

The oracle, fd_oracle, recomputes fundamental forms and curvatures from
sampled surface points and normals alone (central differences in parameter
space) in four shifted array passes, and returns them as arrays with a mask;
it has no one-point form.  run_checks compares them against the closed-form
path, which it evaluates point by point at the grid centres, and
convergence_order against the closed-form frame of the same array pass that
samples mesh rows.  CHECKS lists every check: algebraic identities hold to
near machine precision, finite-difference comparisons carry an O(step^2)
floor and a looser tolerance.

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
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, surface
from .expr import EvalError
from .geometry import PointFrame, SingularPointError
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


def _rel(err: float, ref: float) -> float:
    return abs(err) / (1.0 + abs(ref))


def _frame_at(spec: SurfaceSpec, z: complex) -> tuple[tuple, PointFrame] | None:
    """The jets of f, g and ell at z and their frame; None without a regular frame."""
    try:
        jets = surface.jets_at(spec, z)
        frame = geometry.point_frame(*jets, spec.regularity_eps)
    except (EvalError, SingularPointError):
        return None
    return (jets, frame) if frame.regular else None


def fd_oracle(spec: SurfaceSpec, z: np.ndarray,
              step: float = DEFAULT_FD_STEP) -> dict:
    """The FD oracle at every point of the array z, by four passes at
    z + step, z - step, z + i*step and z - i*step.  Returns arrays shaped
    like z: ``forms``, E, F, G, e, f, g, H_fd and K_fd along a last axis, and
    ``ok``, False exactly where the stencil leaves the window, a stencil
    point fails or is irregular, or E G - F^2 = 0; ``f_values``, Re f at the
    four points along a last axis, and ``f_ok``, False where f fails there.
    H follows the closed-form sign (H = -trace(V)/(2 det V))."""
    (lo1, hi1), (lo2, hi2) = spec.u1_range, spec.u2_range
    ok = ((lo1 <= z.real - step) & (z.real + step <= hi1)
          & (lo2 <= z.imag - step) & (z.imag + step <= hi2))
    f_ok = np.ones(z.shape, dtype=bool)
    xs, ns, f_values = [], [], []
    with np.errstate(all="ignore"):
        for w in (z + off for off in (step, -step, 1j * step, -1j * step)):
            jets, jets_ok, f_ok_w = surface.jets_array(spec, w)
            frame = geometry.grid_frame(*jets, spec.regularity_eps)
            ok &= jets_ok & frame.regular
            f_ok &= f_ok_w
            xs.append(np.stack(surface._closed_form_xyz(
                *jets, *geometry._sphere(jets[1])), axis=-1))
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
    return {"forms": np.stack((E, F, G, e, f, g, h_fd, k_fd), axis=-1), "ok": ok,
            "f_values": np.stack(f_values, axis=-1), "f_ok": f_ok}


def _laplacian(f_values, mu: float, step: float) -> float:
    """Flat 5-point Laplacian of mu = Re f from fd_oracle's ``f_values`` and
    mu at the centre; it vanishes for holomorphic f."""
    return (f_values[0] + f_values[1] + f_values[2] + f_values[3]
            - 4.0 * mu) / (step * step)


# ---------------------------------------------------------------------------
# The check table.  A kernel maps a regular grid point to (absolute error,
# relative error, whether the point is excluded from the check).
# ---------------------------------------------------------------------------

@dataclass
class _Point:
    """A regular grid point as the kernels read it, with its fd_oracle
    ``forms`` and ``f_values`` as lists (None where masked).  The closed-form
    point is computed on first use."""

    spec: SurfaceSpec
    z: complex
    jets: tuple
    frame: PointFrame
    step: float
    fd: list | None
    f_values: list | None

    @cached_property
    def x(self) -> np.ndarray:
        return surface._point_closed_form(*self.jets, self.spec.regularity_eps)

    @property
    def c(self) -> float:
        """C, NaN where it is undefined, as the residuals of surface take it."""
        return math.nan if self.frame.c is None else self.frame.c


_EXCLUDED = (math.nan, math.nan, True)


def _distance_to(p: _Point, y: np.ndarray) -> tuple:
    err = float(np.linalg.norm(y - p.x))
    return err, err / (1.0 + float(np.linalg.norm(p.x))), False


def _form_pairs(frame: PointFrame, fd: list) -> tuple:
    return tuple(zip(frame.forms, fd[:6]))


def _curvature_pairs(frame: PointFrame, fd: list) -> tuple:
    return (frame.mean, fd[6]), (frame.gauss, fd[7])


def _vs_fd(p: _Point, pairs) -> tuple:
    """Errors of the (closed form, FD oracle) pair with the largest relative
    error, or of one whose relative error is NaN."""
    if p.fd is None:
        return _EXCLUDED
    errs = [(abs(got - ref), _rel(got - ref, ref)) for ref, got in pairs(p.frame, p.fd)]
    return (*max(errs, key=lambda e: (math.isnan(e[1]), e[1])), False)


def _harmonicity_mu(p: _Point) -> tuple:
    if p.f_values is None:
        return _EXCLUDED
    lap_mu = _laplacian(p.f_values, p.frame.mu, p.step)
    return abs(lap_mu), _rel(lap_mu, p.frame.mu), False


def _wv_identity(p: _Point) -> tuple:
    resid = np.abs(p.frame.w @ p.frame.v - np.eye(2))
    return float(np.max(resid)), float(np.max(resid / (1.0 + np.eye(2)))), False


class Check(NamedTuple):
    """A row of the check table."""

    name: str
    tolerance_class: str
    kernel: Callable[[_Point], tuple]


# The tolerance classes and their defaults: identities exact up to rounding,
# and comparisons against finite differences, which carry an O(step^2) floor.
ALGEBRAIC, FD = "algebraic", "fd"
CLASS_TOLERANCES = {ALGEBRAIC: 1e-9, FD: 1e-4}

CHECKS = (
    Check("param_equivalence", ALGEBRAIC, lambda p: _distance_to(
        p, surface._point_direct(*p.jets, p.spec.regularity_eps))),
    Check("support_identity", ALGEBRAIC, lambda p: surface.support_residual(
        p.x, p.frame.normal, p.frame.psi)),
    Check("quadratic_distance", ALGEBRAIC, lambda p: surface.distance_residual(
        p.x, p.frame.lam)),
    Check("weingarten_relation", ALGEBRAIC, lambda p: surface.weingarten_residual(
        p.frame.psi, p.frame.lam, p.c, p.frame.h_over_k)),
    Check("pde_lapla1", ALGEBRAIC, lambda p: surface.pde_residual(
        p.frame.psi, p.frame.trace_v, p.c, p.frame.grad_sq)),
    Check("forms_vs_fd", FD, lambda p: _vs_fd(p, _form_pairs)),
    Check("curvature_vs_fd", FD, lambda p: _vs_fd(p, _curvature_pairs)),
    Check("harmonicity_mu", FD, _harmonicity_mu),
    Check("wv_identity", ALGEBRAIC, _wv_identity),
)
ALL_CHECKS = tuple(c.name for c in CHECKS)
ALGEBRAIC_CHECKS, FD_CHECKS = (tuple(c.name for c in CHECKS if c.tolerance_class == cls)
                               for cls in (ALGEBRAIC, FD))


@np.errstate(all="ignore")  # overflow makes a residual inf, not a warning
def run_checks(spec: SurfaceSpec, step: float = DEFAULT_FD_STEP,
               tolerances: dict | None = None) -> ResidualReport:
    """Evaluate every check over the spec grid, an evaluation error at a
    point as an exclusion.  ``tolerances`` maps a tolerance class to its
    value; a class left out keeps its default."""
    tol = {**CLASS_TOLERANCES, **(tolerances or {})}
    oracle = surface.sample_blocks(spec, lambda z: fd_oracle(spec, z, step))
    points = surface.grid_points(spec.grid_u1(), spec.grid_u2()).ravel()
    forms, f_values = (oracle[key].reshape(points.size, -1).tolist()
                       for key in ("forms", "f_values"))
    ok, f_ok = (oracle[key].ravel().tolist() for key in ("ok", "f_ok"))
    # (absolute error, relative error, excluded) of each row at each point
    errors = np.full((len(CHECKS), points.size, 3), (math.nan, math.nan, 1.0))
    for k, z in enumerate(points.tolist()):
        jets_frame = _frame_at(spec, z)
        if jets_frame is not None:
            point = _Point(spec, z, *jets_frame, step, forms[k] if ok[k] else None,
                           f_values[k] if f_ok[k] else None)
            errors[:, k] = [row.kernel(point) for row in CHECKS]
    results = [CheckResult.reduce(row.name, tol[row.tolerance_class], points,
                                  abs_err, rel_err, excluded == 0.0)
               for row, abs_err, rel_err, excluded
               in zip(CHECKS, *np.moveaxis(errors, -1, 0))]

    summary = spec.summary()
    summary["fd_step"] = step
    return ResidualReport(spec_summary=summary, checks=results)


def rotation_match(mesh: SurfaceMesh) -> CheckResult:
    """The vertices of a surface.sample_rotation_mesh mesh, by the rotation
    formula, against the closed form with f = a*z + b, g = exp(z) that the
    same sampling kept.  Their distance, relative to 1 + |closed form|, is
    counted in grid order at the valid vertices; the others are excluded.
    """
    x = mesh.closed_form
    with np.errstate(all="ignore"):  # an overflowed vertex gives inf or NaN
        errs = np.linalg.norm(mesh.vertices - x, axis=-1)
        rels = errs / (1.0 + np.linalg.norm(x, axis=-1))
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
    lo1, hi1 = spec.u1_range
    lo2, hi2 = spec.u2_range
    us = np.linspace(lo1 + margin + 0.05 * (hi1 - lo1),
                     hi1 - margin - 0.05 * (hi1 - lo1), CONVERGENCE_SAMPLES)
    vs = np.linspace(lo2 + margin + 0.05 * (hi2 - lo2),
                     hi2 - margin - 0.05 * (hi2 - lo2), CONVERGENCE_SAMPLES)
    z = us[:, None] + 1j * vs
    jets, ok, _ = surface.jets_array(spec, z)
    frame = geometry.grid_frame(*jets, spec.regularity_eps)
    closed = np.concatenate((frame.forms, np.stack((frame.mean, frame.gauss), axis=-1)),
                            axis=-1)
    residuals = []
    for step in CONVERGENCE_STEPS:
        oracle = fd_oracle(spec, z, step)
        counted = ok & frame.regular & oracle["ok"]
        if not counted.any():
            raise ValueError("no regular sample point for convergence study")
        residuals.append(float(np.mean(_rel(oracle["forms"] - closed, closed)[counted])))
    slope = np.polyfit(np.log(CONVERGENCE_STEPS), np.log(residuals), 1)[0]
    return float(slope), residuals
