"""Independent finite-difference oracle and aggregated residual checks.

The oracle, fd_oracle, recomputes fundamental forms and curvatures from
sampled surface points and normals alone (central differences in parameter
space) in four shifted array passes, each a geometry.grid_frame without
diagnostics whose points x and normals it reads, and returns them as arrays
with a mask; it has no one-point form.  run_checks compares them with the closed form at
the grid centres, a surface.sample_blocks block at a time: each row of
CHECKS maps a block to arrays.  Only the centres' jets are evaluated point
by point, about 7 us a centre on a 2-core x86-64 host (28 ms of a 64^2 job
that array jets would finish in 10-16 ms), until perfbench can time a job
shorter than its 50 ms sampling period (ROADMAP, item A).  convergence_order
reads the order of each FD row from run_checks at several steps.  CHECKS
lists every check: algebraic identities hold to near machine precision,
finite-difference comparisons carry an O(step^2) floor and a looser
tolerance.  Its rows 2-5 are the rows of surface.IDENTITIES, whose kernels
also give the mesh diagnostics.  run_checks writes the whole report, the
spec's profile class (geometry.profile_class of C at a 9x9 sample of the
window) included, so it is the report that `grtsurf verify` prints.

Relative residuals are geometry.relative_error.  Points excluded from a
check (small |psi|, ell' = 0, irregular, stencil out of window) are
counted; a check whose exclusions exceed half of the grid fails with an
"insufficient coverage" status rather than passing vacuously.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, surface
from .expr import EvalError, InputError, Jet2
from .geometry import GridFrame, inner, relative_error
from .surface import SurfaceMesh, SurfaceSpec

DEFAULT_FD_STEP = 1e-4
# A step h of the FD oracle: its stencil divides by h^2.
FD_STEP = surface.Rule("finite and > 0, with a square neither 0 nor inf",
                       lambda h: 0.0 < h < math.inf and 0.0 < h * h < math.inf)
MAX_EXCLUDED_FRACTION = 0.5
# convergence_order runs the checks at each FD step on the window resampled
# at CONVERGENCE_SAMPLES + 2 points per axis; the stencil of the outer ring
# leaves the window, so CONVERGENCE_SAMPLES^2 centres are counted.  Where mu
# is affine, harmonicity_mu is rounding alone and has no order.
CONVERGENCE_STEPS = (1e-3, 5e-4, 2.5e-4)
CONVERGENCE_SAMPLES = 5
CONVERGENCE_ROWS = ("forms_vs_fd", "curvature_vs_fd")


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
    H follows the closed-form sign (H = -trace(V)/(2 det V)).  A step
    that FD_STEP rejects raises InputError."""
    FD_STEP.check(step, "fd step")
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
    return err, relative_error(err, np.sqrt(np.vecdot(x, x))), False


def _vs_fd(b: _Block, closed: np.ndarray, columns: slice) -> tuple:
    """Errors of the ``columns`` of the FD oracle's ``forms`` against the
    closed form, at the column with the largest relative error or the first
    whose relative error is NaN; excluded where the oracle is not ``ok``."""
    err = b.oracle["forms"][..., columns] - closed
    worst = np.argmax(relative_error(err, closed), axis=-1)[..., None]
    err, closed = (np.take_along_axis(a, worst, axis=-1)[..., 0] for a in (err, closed))
    return abs(err), relative_error(err, closed), ~b.oracle["ok"]


def _harmonicity_mu(b: _Block) -> tuple:
    mu = inner(1.0, b.jets[0].value)
    lap_mu = _laplacian(np.moveaxis(b.oracle["f_values"], -1, 0), mu, b.step)
    return abs(lap_mu), relative_error(lap_mu, mu), ~b.oracle["f_ok"]


def _wv_identity(b: _Block) -> tuple:
    v11, v12, v22 = np.moveaxis(b.frame.v, -1, 0)
    v = np.stack((v11, v12, v12, v22), axis=-1).reshape(v11.shape + (2, 2))
    w = np.stack((v22, -v12, -v12, v11), axis=-1).reshape(v.shape) / b.frame.det_v[..., None, None]
    resid = np.abs(w @ v - np.eye(2))
    return (np.max(resid, axis=(-2, -1)),
            np.max(relative_error(resid, np.eye(2)), axis=(-2, -1)), False)


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
    tolerance class to its value; a class left out keeps its default.  A
    step that FD_STEP rejects, an unknown class or a tolerance that is not
    finite and >= 0 raises InputError before any evaluation."""
    FD_STEP.check(step, "fd step")
    tol = {**CLASS_TOLERANCES, **(tolerances or {})}
    for cls, value in tol.items():
        if cls not in CLASS_TOLERANCES:
            raise InputError(f"unknown tolerance class {cls!r}; the classes are "
                             f"{', '.join(CLASS_TOLERANCES)}")
        surface.NON_NEGATIVE.check(value, f"{cls} tolerance")
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


def convergence_order(spec: SurfaceSpec) -> dict[str, tuple[float, list[float]]]:
    """The measured order of the FD truncation error of each row of
    CONVERGENCE_ROWS: {row: (order, mean_rels)}, the mean_rel of the row in
    run_checks at each of CONVERGENCE_STEPS and the slope of log(mean_rel)
    against log(step).  A second-order stencil lands near 2."""
    n = CONVERGENCE_SAMPLES + 2
    reports = [run_checks(replace(spec, nu1=n, nu2=n), step) for step in CONVERGENCE_STEPS]
    orders = {}
    for name in CONVERGENCE_ROWS:
        checks = [report.check(name) for report in reports]
        if not all(c.count for c in checks):
            raise InputError("no regular sample point for convergence study")
        mean_rels = [c.mean_rel for c in checks]
        slope = np.polyfit(np.log(CONVERGENCE_STEPS), np.log(mean_rels), 1)[0]
        orders[name] = (float(slope), mean_rels)
    return orders
