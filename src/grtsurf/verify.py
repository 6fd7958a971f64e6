"""Independent finite-difference oracle and aggregated residual checks.

The oracle recomputes fundamental forms and curvatures from sampled surface
points and normals alone (central differences in parameter space) and
compares them against the closed-form path.  Algebraic identities --
parameterization equivalence, support and quadratic-distance identities, the
Weingarten relation, the profile PDE, W*V = I -- are checked at near machine
precision; finite-difference comparisons carry an O(step^2) truncation floor
and get the looser default tolerance.

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

import numpy as np

from . import geometry, surface
from .expr import EvalError, eval_jet2
from .geometry import PointFrame, SingularPointError
from .surface import SurfaceSpec

ALL_CHECKS = (
    "param_equivalence",
    "support_identity",
    "quadratic_distance",
    "weingarten_relation",
    "pde_lapla1",
    "forms_vs_fd",
    "curvature_vs_fd",
    "harmonicity_mu",
    "wv_identity",
    "rotation_match",
)
# The two tolerance classes: identities exact up to rounding, and
# comparisons against finite differences.
ALGEBRAIC_CHECKS = ("param_equivalence", "support_identity",
                    "quadratic_distance", "weingarten_relation", "pde_lapla1",
                    "wv_identity", "rotation_match")
FD_CHECKS = ("forms_vs_fd", "curvature_vs_fd", "harmonicity_mu")

DEFAULT_TOLERANCES = {name: 1e-9 if name in ALGEBRAIC_CHECKS else 1e-4
                      for name in ALL_CHECKS}

DEFAULT_FD_STEP = 1e-4
MAX_EXCLUDED_FRACTION = 0.5


@dataclass(frozen=True)
class FdOracleResult:
    """Fundamental forms and curvatures from central differences of X and N."""

    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    H_fd: float
    K_fd: float
    psi_fd: float
    step: float


class StencilError(Exception):
    """FD stencil leaves the sampled window or touches an irregular point."""


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

    def add(self, abs_err: float, rel_err: float, point: complex) -> None:
        abs_err = float(abs_err)
        rel_err = float(rel_err)
        self.count += 1
        self.sum_rel += rel_err
        self.max_abs = max(self.max_abs, abs_err)
        if rel_err >= self.max_rel:
            self.max_rel = rel_err
            self.worst_point = (float(point.real), float(point.imag))

    def add_worst(self, pairs, point: complex) -> None:
        """Add the (reference, value) pair with the largest relative error."""
        ref, got = max(pairs, key=lambda p: _rel(p[1] - p[0], p[0]))
        self.add(abs(got - ref), _rel(got - ref, ref), point)

    def exclude(self) -> None:
        self.excluded += 1

    @property
    def mean_rel(self) -> float:
        return self.sum_rel / self.count if self.count else math.nan

    @property
    def insufficient_coverage(self) -> bool:
        total = self.count + self.excluded
        return total == 0 or self.excluded > MAX_EXCLUDED_FRACTION * total

    @property
    def passed(self) -> bool:
        if self.insufficient_coverage:
            return False
        return bool(self.max_rel <= self.tolerance)

    @property
    def status(self) -> str:
        if self.insufficient_coverage:
            return "insufficient_coverage"
        return "ok" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "excluded": self.excluded,
            "max_abs": self.max_abs,
            "max_rel": self.max_rel if self.count else None,
            "mean_rel": self.mean_rel if self.count else None,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "pass": self.passed,
            "status": self.status,
            "tolerance": self.tolerance,
        }


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
        return json.dumps(self.to_dict(), indent=2)


def _rel(err: float, ref: float) -> float:
    return abs(err) / (1.0 + abs(ref))


def _frame_at(spec: SurfaceSpec, z: complex) -> PointFrame:
    f_jet, g_jet, ell_jet = surface.jets_at(spec, z)
    return geometry.point_frame(f_jet, g_jet, ell_jet, spec.regularity_eps)


def _stencil_ok(spec: SurfaceSpec, z: complex, step: float) -> bool:
    lo1, hi1 = spec.u1_range
    lo2, hi2 = spec.u2_range
    return (lo1 <= z.real - step and z.real + step <= hi1
            and lo2 <= z.imag - step and z.imag + step <= hi2)


def fd_fundamental_forms(spec: SurfaceSpec, z: complex,
                         step: float = DEFAULT_FD_STEP) -> FdOracleResult:
    """Fundamental forms at z by central differences of X and N.

    Requires the four stencil points z +- step, z +- i*step to lie inside
    the spec window and to be regular.  The mean curvature sign follows the
    closed-form convention (H = -trace(V)/(2 det V)).
    """
    if not _stencil_ok(spec, z, step):
        raise StencilError(f"stencil of size {step:g} leaves the window at {z!r}")
    offsets = (step, -step, 1j * step, -1j * step)
    xs = []
    ns = []
    try:
        for off in offsets:
            zz = z + off
            f_jet, g_jet, ell_jet = surface.jets_at(spec, zz)
            frame = geometry.point_frame(f_jet, g_jet, ell_jet,
                                         spec.regularity_eps)
            if not frame.regular:
                raise StencilError(f"irregular stencil point {zz!r}")
            xs.append(surface._point_closed_form(f_jet, g_jet, ell_jet,
                                                 spec.regularity_eps))
            ns.append(frame.normal)
        f_jet, g_jet, ell_jet = surface.jets_at(spec, z)
        frame0 = geometry.point_frame(f_jet, g_jet, ell_jet, spec.regularity_eps)
        x0 = surface._point_closed_form(f_jet, g_jet, ell_jet,
                                        spec.regularity_eps)
    except (EvalError, SingularPointError) as exc:
        raise StencilError(str(exc)) from exc
    inv = 0.5 / step
    x_u1 = (xs[0] - xs[1]) * inv
    x_u2 = (xs[2] - xs[3]) * inv
    n_u1 = (ns[0] - ns[1]) * inv
    n_u2 = (ns[2] - ns[3]) * inv
    E = float(np.dot(x_u1, x_u1))
    F = float(np.dot(x_u1, x_u2))
    G = float(np.dot(x_u2, x_u2))
    e = float(np.dot(x_u1, n_u1))
    f = float(np.dot(x_u1, n_u2))
    g = float(np.dot(x_u2, n_u2))
    det_i = E * G - F * F
    if det_i == 0.0:  # the step is below the resolution of the window
        raise StencilError(f"stencil of size {step:g} has no area at {z!r}")
    k_fd = (e * g - f * f) / det_i
    h_fd = -(e * G - 2.0 * f * F + g * E) / (2.0 * det_i)
    psi_fd = float(np.dot(x0, frame0.normal))
    return FdOracleResult(E=E, F=F, G=G, e=e, f=f, g=g,
                          H_fd=h_fd, K_fd=k_fd, psi_fd=psi_fd, step=step)


def laplacian_mu_fd(spec: SurfaceSpec, z: complex,
                    step: float = DEFAULT_FD_STEP) -> float:
    """Flat 5-point Laplacian of mu = Re f; vanishes for holomorphic f."""
    vals = []
    for off in (step, -step, 1j * step, -1j * step, 0.0):
        vals.append(eval_jet2(spec.f, z + off).value.real)
    return (vals[0] + vals[1] + vals[2] + vals[3] - 4.0 * vals[4]) / (step * step)


@np.errstate(all="ignore")  # overflow makes a residual inf, not a warning
def run_checks(spec: SurfaceSpec, checks=None, step: float = DEFAULT_FD_STEP,
               tolerances: dict | None = None,
               rotation: tuple[float, float] | None = None,
               psi_min: float = geometry.PSI_EPS) -> ResidualReport:
    """Evaluate the enabled residual checks over the spec grid.

    ``rotation=(a, b)`` enables the rotation_match check, comparing the
    explicit surface-of-revolution formula against the closed form; the spec
    must then describe f = a*z + b, g = exp(z).  Evaluation errors at
    individual points are recorded as exclusions, not raised.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    if checks is None:
        names = [c for c in ALL_CHECKS
                 if c != "rotation_match" or rotation is not None]
    else:
        unknown = set(checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        names = [c for c in ALL_CHECKS if c in set(checks)]
    acc = {name: CheckResult(name=name, tolerance=tol[name]) for name in names}

    algebraic = [n for n in names if n in ALGEBRAIC_CHECKS]
    fd_checks = [n for n in names if n in ("forms_vs_fd", "curvature_vs_fd")]

    for u1 in spec.grid_u1():
        for u2 in spec.grid_u2():
            z = complex(u1, u2)
            try:
                f_jet, g_jet, ell_jet = surface.jets_at(spec, z)
                frame = geometry.point_frame(f_jet, g_jet, ell_jet,
                                             spec.regularity_eps)
            except (EvalError, SingularPointError):
                frame = None
            if frame is None or not frame.regular:
                for name in names:
                    acc[name].exclude()
                continue

            if algebraic:
                x = surface._point_closed_form(f_jet, g_jet, ell_jet,
                                               spec.regularity_eps)
            if "param_equivalence" in acc:
                x_direct = surface._point_direct(f_jet, g_jet, ell_jet,
                                                 spec.regularity_eps)
                err = float(np.linalg.norm(x_direct - x))
                acc["param_equivalence"].add(err, err / (1.0 + float(np.linalg.norm(x))), z)
            if "support_identity" in acc:
                err = abs(float(np.dot(x, frame.normal)) - frame.psi)
                acc["support_identity"].add(err, _rel(err, frame.psi), z)
            if "quadratic_distance" in acc:
                err = abs(float(np.dot(x, x)) - frame.lam)
                acc["quadratic_distance"].add(err, _rel(err, frame.lam), z)
            if "weingarten_relation" in acc:
                if frame.degenerate_profile or abs(frame.psi) <= psi_min:
                    acc["weingarten_relation"].exclude()
                else:
                    rhs = frame.c * (-frame.lam / (2.0 * frame.psi)
                                     + frame.psi / 2.0) - frame.psi
                    err = abs(frame.h_over_k - rhs)
                    acc["weingarten_relation"].add(err, _rel(err, frame.h_over_k), z)
            if "pde_lapla1" in acc:
                if frame.degenerate_profile:
                    acc["pde_lapla1"].exclude()
                else:
                    lap = frame.trace_v - 2.0 * frame.psi
                    lhs = frame.psi * lap
                    err = abs(lhs - frame.c * frame.grad_sq)
                    acc["pde_lapla1"].add(err, _rel(err, lhs), z)
            if "wv_identity" in acc:
                resid = frame.w @ frame.v - np.eye(2)
                abs_err = float(np.max(np.abs(resid)))
                rel_err = float(np.max(np.abs(resid) / (1.0 + np.eye(2))))
                acc["wv_identity"].add(abs_err, rel_err, z)
            if "rotation_match" in acc:
                a, b = rotation
                x_rot = surface.rotation_point(a, b, spec.ell, u1, u2)
                err = float(np.linalg.norm(x_rot - x))
                acc["rotation_match"].add(err, err / (1.0 + float(np.linalg.norm(x))), z)

            if fd_checks:
                try:
                    fd = fd_fundamental_forms(spec, z, step)
                except StencilError:
                    for name in fd_checks:
                        acc[name].exclude()
                else:
                    if "forms_vs_fd" in acc:
                        acc["forms_vs_fd"].add_worst(
                            zip(frame.forms, (fd.E, fd.F, fd.G, fd.e, fd.f, fd.g)), z)
                    if "curvature_vs_fd" in acc:
                        acc["curvature_vs_fd"].add_worst(
                            ((frame.mean, fd.H_fd), (frame.gauss, fd.K_fd)), z)
            if "harmonicity_mu" in acc:
                try:
                    lap_mu = laplacian_mu_fd(spec, z, step)
                except EvalError:
                    acc["harmonicity_mu"].exclude()
                else:
                    acc["harmonicity_mu"].add(abs(lap_mu), _rel(lap_mu, frame.mu), z)

    summary = spec.summary()
    summary["fd_step"] = step
    if rotation is not None:
        summary["rotation"] = list(rotation)
    return ResidualReport(spec_summary=summary,
                          checks=[acc[n] for n in names])


def convergence_order(spec: SurfaceSpec,
                      steps: tuple[float, ...] = (1e-3, 5e-4, 2.5e-4),
                      n_sample: int = 5) -> tuple[float, list[float]]:
    """Measured order of the FD truncation error over a step sweep.

    Averages the relative form/curvature residual over an interior subgrid
    and fits the slope of log(residual) against log(step); a second-order
    stencil should land near 2.
    """
    margin = max(steps) * 2.0
    lo1, hi1 = spec.u1_range
    lo2, hi2 = spec.u2_range
    us = np.linspace(lo1 + margin + 0.05 * (hi1 - lo1),
                     hi1 - margin - 0.05 * (hi1 - lo1), n_sample)
    vs = np.linspace(lo2 + margin + 0.05 * (hi2 - lo2),
                     hi2 - margin - 0.05 * (hi2 - lo2), n_sample)
    residuals = []
    for step in steps:
        rels = []
        for u in us:
            for v in vs:
                z = complex(u, v)
                try:
                    frame = _frame_at(spec, z)
                    if not frame.regular:
                        continue
                    fd = fd_fundamental_forms(spec, z, step)
                except (EvalError, SingularPointError, StencilError):
                    continue
                forms = frame.forms
                for ref, got in zip(forms, (fd.E, fd.F, fd.G, fd.e, fd.f, fd.g)):
                    rels.append(_rel(got - ref, ref))
                rels.append(_rel(fd.H_fd - frame.mean, frame.mean))
                rels.append(_rel(fd.K_fd - frame.gauss, frame.gauss))
        if not rels:
            raise ValueError("no regular sample point for convergence study")
        residuals.append(float(np.mean(rels)))
    slope = np.polyfit(np.log(steps), np.log(residuals), 1)[0]
    return float(slope), residuals
