"""Verify module: FD oracle soundness, residual checks, report output."""
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import direct_at, frame_at, gen_source, rotation_at
from grtsurf import geometry, surface, verify
from grtsurf.expr import EvalError, ExprError, InputError, eval_jet2, parse_expr
from grtsurf.cli import main
from grtsurf.surface import (SurfaceSpec, rotation_spec, sample_mesh,
                             sample_rotation_mesh)
from grtsurf.verify import (ALGEBRAIC_CHECKS, ALL_CHECKS, CLASS_TOLERANCES,
                            FD_CHECKS, CheckResult, convergence_order,
                            fd_oracle, rotation_match, run_checks)


def spec_for(f, g, l, n=16, **kw):
    kw.setdefault("u1_range", (-1.0, 1.0))
    kw.setdefault("u2_range", (-1.0, 1.0))
    return SurfaceSpec.from_strings(f, g, l, nu1=n, nu2=n, **kw)


# ---------------------------------------------------------------------------
# FD oracle
# ---------------------------------------------------------------------------

def fd_at(spec, z, step=1e-4):
    """fd_oracle at the one point z: its values, each key indexed at z."""
    return {key: value[0] for key, value in fd_oracle(spec, np.array([z]), step).items()}


def fd_forms_at(spec, z, step=1e-4):
    """(E, F, G, e, f, g, H_fd, K_fd) at z; the stencil must be in the
    window, regular and of nonzero area."""
    oracle = fd_at(spec, z, step)
    assert oracle["ok"]
    return oracle["forms"].tolist()


def test_fd_forms_frozen_example():
    spec = spec_for("z", "z", "t^2+t+1")
    forms = fd_forms_at(spec, 0j, step=1e-4)
    for got, want in zip(forms[:6], (9.0, 0.0, 4.0, 6.0, 0.0, 4.0)):
        assert abs(got - want) <= 1e-4 * (1 + abs(want))


def test_fd_oracle_sphere_soundness():
    # ell constant 1: unit sphere for any f; E = G, F = 0, K = 1, H = -1
    spec = spec_for("z^2", "z", "1")
    for z in (0.2 + 0.1j, -0.4 + 0.3j, 0.5 - 0.5j):
        E, F, G, _, _, _, H_fd, K_fd = fd_forms_at(spec, z, step=1e-4)
        assert abs(E - G) <= 1e-5 * (1 + abs(E))
        assert abs(F) <= 1e-5 * (1 + abs(E))
        assert abs(K_fd - 1.0) <= 1e-5
        assert abs(H_fd + 1.0) <= 1e-5


def test_fd_residual_shrinks_quadratically():
    # halving the step shrinks the truncation error by about 4x
    spec = spec_for("z", "z", "t^2+t+1")
    z = 0.31 + 0.22j
    frame = frame_at(*surface.jets_at(spec, z))

    def resid(step):
        return abs(fd_forms_at(spec, z, step=step)[0] - frame.forms[0])

    r1, r2 = resid(2e-4), resid(1e-4)
    assert 3.0 <= r1 / r2 <= 5.0


def test_fd_stencil_out_of_window():
    spec = spec_for("z", "z", "t^2+t+1")
    assert not fd_at(spec, complex(-1.0, 0.5), step=1e-4)["ok"]


def test_fd_stencil_hits_singular_point():
    spec = spec_for("z", "z^2", "t^2+t+1")
    assert not fd_at(spec, complex(1e-4, 0.0), step=1e-4)["ok"]


def test_laplacian_mu_fd_vanishes():
    spec = spec_for("exp(z)", "z", "t")
    mu = math.exp(0.3) * math.cos(0.4)  # Re exp(z) at z = 0.3 + 0.4i
    oracle = fd_at(spec, 0.3 + 0.4j)
    assert oracle["f_ok"]
    assert abs(verify._laplacian(oracle["f_values"].tolist(), mu, 1e-4)) <= 1e-6


# The one-point oracle API that fd_oracle's arrays replaced, the scalar
# frame and surface-point layer that grid_frame replaced, xyz_array, whose
# points GridFrame.x and geometry.direct_xyz took over, and the residual
# functions that surface.IDENTITIES replaced
REMOVED_NAMES = ("fd_fundamental_forms", "FdOracleResult", "StencilError",
                 "laplacian_mu_fd", "_per_point",
                 "SingularPointError", "GaussFrame", "FundamentalForms",
                 "PointFrame", "_profile_ratio", "_checked_sphere", "gauss_map",
                 "xi", "v_matrix", "fundamental_forms", "point_frame",
                 "_point_closed_form", "point_closed_form", "_point_direct",
                 "point_direct", "rotation_point", "support_residual",
                 "distance_residual", "weingarten_residual", "pde_residual",
                 "xyz_array", "_sample_grid", "_rotation_xyz", "_rel")


def test_package_exports_resolve():
    import grtsurf
    for name in grtsurf.__all__:
        assert hasattr(grtsurf, name), name
    for name in REMOVED_NAMES:
        assert name not in grtsurf.__all__
        for module in (grtsurf, verify, geometry, surface):
            assert not hasattr(module, name), (module.__name__, name)


def test_no_module_reads_another_modules_private_names():
    # each module reaches the others through their public names only
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(verify.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\b(expr|geometry|surface|verify|cli)\._[A-Za-z]", line)]
    assert hits == []


def array_point(spec, w):
    """The jets of f, g and ell, whether they all evaluate, the frame, the
    closed-form point and the normal at the point w by the array path."""
    jets = surface.jets_array(spec, np.array([w]))
    frame = geometry.grid_frame(*jets, spec.regularity_eps)
    ok = all(np.isfinite(jet.value[0]) for jet in jets)
    return jets, ok, frame, frame.x[0], frame.normal[0]


# A regularity decision is clear where its value lies beyond its threshold by
# this relative margin, far above rounding, on the same side on both paths.
# The side matters where the value is itself rounding noise: g' of
# -pi/z + pi/z in the second pinned example below.
DECISION_MARGIN = 1e-6


def side(value, threshold):
    """1 or -1 where ``value`` clears ``threshold`` upward or downward by
    DECISION_MARGIN, else 0 (also for NaN)."""
    if value > threshold * (1.0 + DECISION_MARGIN):
        return 1
    return -1 if value < threshold * (1.0 - DECISION_MARGIN) else 0


def regularity_clear(jets, frame, array_jets, array_frame, eps):
    """Whether the two regularity decisions at a stencil point, |g'|^2
    against eps^2 and |det V| against eps (1 + tr^2), are clear on the
    scalar evaluator's path (``jets`` and their ``frame``) and on the array
    path alike; the second only where both have a frame."""
    gp2 = side(geometry._sphere(jets[1])[0], eps * eps)
    if gp2 == 0 or gp2 != side(geometry._sphere(array_jets[1])[0][0], eps * eps):
        return False
    if not frame.exists or not array_frame.exists[0]:
        return True
    det = side(abs(frame.det_v), eps * (1.0 + frame.trace_v * frame.trace_v))
    return det != 0 and det == side(abs(array_frame.det_v[0]), eps * (
        1.0 + array_frame.trace_v[0] * array_frame.trace_v[0]))


def reference_oracle(spec, step):
    """The FD oracle point by point over the grid, from the jets of the
    scalar evaluator (surface.jets_at) and the frames and points at them.

    Returns per grid point, in row-major order: the stencil mask, the forms
    (E, F, G, e, f, g, H_fd, K_fd), the mask and values of Re f at the four
    stencil points, whether both regularity decisions are clear
    (regularity_clear) at all four stencil points where both paths evaluate
    f, g and ell, whether the array path gives the same jets, points and
    normals at all four stencil points, and the bound on the forms E .. g
    that a difference of delta between the two paths' stencil points and
    normals allows: (|X_u| + |N_u| + 1) delta/step + (delta/step)^2, the
    first- and second-order change of the central-difference dot products
    (largest components, delta in any coordinate).
    """
    (lo1, hi1), (lo2, hi2) = spec.u1_range, spec.u2_range
    ok, forms, f_ok, f_values, clear, same_points, slack = ([] for _ in range(7))
    for u1 in spec.grid_u1():
        for u2 in spec.grid_u2():
            z = complex(u1, u2)
            xs, ns, fs, same, delta = [], [], [], True, 0.0
            clear.append(True)
            for w in (z + off for off in (step, -step, 1j * step, -1j * step)):
                try:
                    fs.append(eval_jet2(spec.f, w).value.real)
                    jets = surface.jets_at(spec, w)
                except EvalError:
                    same = False
                    continue
                array_jets, array_ok, array_frame, x, normal = array_point(spec, w)
                frame = frame_at(*jets, spec.regularity_eps)
                clear[-1] &= not array_ok or regularity_clear(
                    jets, frame, array_jets, array_frame, spec.regularity_eps)
                if not frame.exists:
                    same = False
                elif frame.regular:
                    xs.append(frame.x)
                    ns.append(frame.normal)
                    same = (same and np.array_equal(x, xs[-1])
                            and np.array_equal(normal, ns[-1])
                            and all((a.value[0], a.d1[0], a.d2[0]) == (b.value, b.d1, b.d2)
                                    for a, b in zip(array_jets, jets)))
                    delta = max(delta, *np.abs(x - xs[-1]), *np.abs(normal - ns[-1]))
            f_ok.append(len(fs) == 4)
            f_values.append(fs if len(fs) == 4 else [math.nan] * 4)
            same_points.append(same)
            slack.append(math.nan)
            inside = (lo1 <= z.real - step and z.real + step <= hi1
                      and lo2 <= z.imag - step and z.imag + step <= hi2)
            forms.append([math.nan] * 8)
            ok.append(inside and len(xs) == 4)
            if not ok[-1]:
                continue
            x_u1, x_u2 = (xs[0] - xs[1]) * (0.5 / step), (xs[2] - xs[3]) * (0.5 / step)
            n_u1, n_u2 = (ns[0] - ns[1]) * (0.5 / step), (ns[2] - ns[3]) * (0.5 / step)
            E, F, G = (float(np.dot(a, b)) for a, b in
                       ((x_u1, x_u1), (x_u1, x_u2), (x_u2, x_u2)))
            e, f, g = (float(np.dot(a, b)) for a, b in
                       ((x_u1, n_u1), (x_u1, n_u2), (x_u2, n_u2)))
            det = E * G - F * F
            ok[-1] = det != 0.0
            if ok[-1]:
                forms[-1] = [E, F, G, e, f, g,
                             -(e * G - 2.0 * f * F + g * E) / (2.0 * det),
                             (e * g - f * f) / det]
                moved = delta / step
                slack[-1] = (np.abs([x_u1, x_u2]).max() + np.abs([n_u1, n_u2]).max()
                             + 1.0) * moved + moved * moved
    return (np.array(ok), np.array(forms), np.array(f_ok), np.array(f_values),
            np.array(clear), np.array(same_points), np.array(slack))


def test_fd_oracle_frames_skip_the_diagnostics(monkeypatch):
    # the oracle reads only regular, x and normal of its four frames, all
    # of which a frame without diagnostics holds
    calls = []
    for name in ("_gradient", "profile_ratio", "_forms"):
        monkeypatch.setattr(geometry, name, lambda *args, name=name, original=getattr(
            geometry, name): calls.append(name) or original(*args))
    spec = spec_for("z", "z", "t^2+t+1", n=9)
    assert verify.fd_oracle(spec, surface.grid_points(spec.grid_u1(),
                                                      spec.grid_u2()))["ok"].any()
    assert calls == []


def assert_close(got, ref, slack=0.0):
    """Within 1e-9 (1 + |ref|) + slack, or equal, or both NaN."""
    with np.errstate(invalid="ignore"):  # inf - inf
        close = np.abs(got - ref) <= 1e-9 * (1.0 + np.abs(ref)) + slack
    assert (close | (got == ref) | (np.isnan(got) & np.isnan(ref))).all()


def compare_with_reference(spec, step, monkeypatch):
    """The array oracle, assembled one point per block as run_checks
    assembles it, and the pointwise reference, both flattened."""
    monkeypatch.setattr(surface, "BLOCK_POINTS", 1)
    oracle = surface.sample_blocks(spec, lambda z: verify.fd_oracle(spec, z, step))
    n = spec.nu1 * spec.nu2
    got = (oracle["ok"].ravel(), oracle["forms"].reshape(n, 8),
           oracle["f_ok"].ravel(), oracle["f_values"].reshape(n, 4))
    with np.errstate(all="ignore"):  # forms of huge stencil points overflow
        return got, reference_oracle(spec, step)


@pytest.mark.parametrize("f, g, ell, window, n, step", [
    ("z", "z", "t^2+t+1", {}, 9, 1e-4),
    ("z^2", "exp(z)", "t^2+1", {}, 9, 1e-4),
    # the step is the grid spacing: stencils next to z = 0 hit g' = 0
    ("z", "z^2", "t^2+t+1", {}, 9, 0.25),
    # the step is the grid spacing: stencils next to z = 0 hit its frame,
    # which exists but is irregular (psi = sinh(0) = 0 makes det V 0)
    ("z", "z", "sinh(t)", {}, 9, 0.25),
    # mu + 0.5 <= 0 for u1 <= -0.5: ell fails across the log cut
    ("z", "z", "log(t+0.5)", {}, 9, 1e-4),
    # the step is the grid spacing: stencils end on the window's edge, and
    # rounding keeps some (0.2 - 0.1 >= 0.1) and drops others (-0.2 - 0.1)
    ("z", "z", "cos(t)", {"u1_range": (0.1, 0.7), "u2_range": (-0.3, 0.3)},
     7, 0.1),
    # u1 +- 1e-17 == u1: E G - F^2 = 0
    ("z", "z", "t^2+t+1", {"u1_range": (1.0, 2.0), "u2_range": (1.0, 2.0)},
     6, 1e-17),
    # exp(400 z) overflows T^2 and, for u1 > 1.77, g itself
    ("z", "exp(400*z)", "t^2+1", {"u1_range": (-1.0, 2.0)}, 9, 1e-4),
], ids=["fig1", "exp", "g-prime-zero", "irregular", "log-cut", "window-edge",
        "no-area", "overflow"])
def test_fd_oracle_matches_pointwise_reference(f, g, ell, window, n, step,
                                               monkeypatch):
    spec = spec_for(f, g, ell, n=n, **window)
    (ok, forms, f_ok, f_values), ref = compare_with_reference(spec, step, monkeypatch)
    ref_ok, ref_forms, ref_f_ok, ref_f_values, *_ = ref
    assert ok.tolist() == ref_ok.tolist() and not ok.all()
    assert f_ok.tolist() == ref_f_ok.tolist()
    assert_close(forms[ok], ref_forms[ok])
    assert_close(f_values[f_ok], ref_f_values[f_ok])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**48), n=st.integers(2, 8),
       step=st.sampled_from([1e-4, 1e-2, 0.25]))
# f = ((z)^2-(z*z))+sinh(z+z), g = (e)^4*(i-z), ell = t*0.5: equal jets, but
# the points differ in the last bit at three stencil points, and F ~ 0.58
# cancels terms near 5e4, so F_fd differs by 1.6e-8 relative to 1 + |F|
@example(seed=40932901866505, n=6, step=1e-4)
# f = ((1.5/0.5)*sinh(z))*((i-z))^3, g = ((-z)*(pi/z))^3, ell = (0.25*0.25)+sinh(t):
# g' is the rounding noise of -pi/z + pi/z, about 1e-10 at z = 1e-4, and the
# two complex divisions decide the regularity of the frame at z = 0 apart
@example(seed=89049437480299, n=5, step=1e-4)
# f = (z*z), g = (z+pi), ell = (-(t*t)): g' = 1, but psi = -mu^2 = -1e-16 at
# the four stencil points of z = 0, where det V is about -4.2e-12: each frame
# exists and is irregular, so that stencil is not ok
@example(seed=8, n=3, step=1e-4)
def test_fd_oracle_matches_pointwise_reference_generated(seed, n, step,
                                                         monkeypatch):
    rng = random.Random(seed)
    try:
        spec = spec_for(gen_source(rng, rng.randint(1, 3)),
                        gen_source(rng, rng.randint(1, 3)),
                        gen_source(rng, rng.randint(1, 3), real=True), n=n)
    except ExprError:
        return
    (ok, forms, f_ok, f_values), ref = compare_with_reference(spec, step, monkeypatch)
    ref_ok, ref_forms, ref_f_ok, ref_f_values, clear, same_points, slack = ref
    assert f_ok.tolist() == ref_f_ok.tolist()
    assert_close(f_values[f_ok], ref_f_values[f_ok])
    # ell is evaluated at Re f: where numpy's f differs from cmath's in the
    # last bit, an ell that fails at exactly one of the two points (t/t at
    # t = 0, say) fails on one side only; where a regularity decision is not
    # clear, a g' or det V near its threshold is regular on one side only
    compared = (f_values == ref_f_values).all(axis=1) & clear
    assert ok[compared].tolist() == ref_ok[compared].tolist()
    # where the jets, points or normals differ in the last bits, the central
    # differences divide that difference by the step: the forms E .. g are
    # held to 16 times the bound it implies (the worst ratio over a scan of
    # 3,000 generated examples was 1.56), H_fd and K_fd, whose division by
    # E G - F^2 no such bound covered, to the same points only
    both = ok & ref_ok
    assert_close(forms[both, :6], ref_forms[both, :6], 16.0 * slack[both, None])
    same = ok & same_points
    assert_close(forms[same], ref_forms[same])


# ---------------------------------------------------------------------------
# run_checks
# ---------------------------------------------------------------------------

def test_tolerance_classes_partition_the_checks():
    assert set(ALGEBRAIC_CHECKS).isdisjoint(FD_CHECKS)
    assert set(ALGEBRAIC_CHECKS) | set(FD_CHECKS) == set(ALL_CHECKS)
    assert CLASS_TOLERANCES == {"algebraic": 1e-9, "fd": 1e-4}


def test_primary_run_passes_all_defaults():
    report = run_checks(spec_for("z", "z", "t^2+t+1", n=24))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == list(ALL_CHECKS)
    for check in report.checks:
        assert check.count > 0
        assert check.status == "ok"
        assert check.worst_point is not None
        lo1, hi1 = (-1.0, 1.0)
        assert lo1 <= check.worst_point[0] <= hi1
        assert lo1 <= check.worst_point[1] <= hi1


def test_tr_profile_reduces_relation():
    # ell = exp(t): C = 1 and H/K = -lam/(2 psi) - psi/2
    spec = spec_for("z", "z", "exp(t)", n=24)
    report = run_checks(spec)
    assert report.check("weingarten_relation").max_rel <= 1e-9
    for z in (0.3 + 0.4j, -0.6 - 0.2j, 0.9 + 0.9j):
        frame = frame_at(*surface.jets_at(spec, z))
        assert frame.c == 1.0
        reduced = -frame.lam / (2 * frame.psi) - frame.psi / 2
        assert abs(frame.h_over_k - reduced) <= 1e-9 * (1 + abs(frame.h_over_k))


def test_appell_profile():
    # ell = t: C = 0 branch, H + psi K = 0
    spec = spec_for("z", "z", "t", n=24)
    report = run_checks(spec)
    assert report.passed
    for z in (0.3 + 0.4j, -0.6 - 0.2j, 0.7 - 0.8j):
        frame = frame_at(*surface.jets_at(spec, z))
        assert frame.c == 0.0
        if frame.regular:
            resid = abs(frame.mean + frame.psi * frame.gauss)
            assert resid <= 1e-9 * (1 + abs(frame.psi * frame.gauss))


def test_insufficient_coverage_status():
    # constant profile: ell' = 0 everywhere, C-based checks cannot run
    report = run_checks(spec_for("z", "z", "1", n=8))
    wein = report.check("weingarten_relation")
    pde = report.check("pde_lapla1")
    assert wein.status == "insufficient_coverage"
    assert pde.status == "insufficient_coverage"
    assert wein.count == 0 and wein.excluded == 64
    assert not report.passed
    # the identities that do not involve C still hold
    assert report.check("support_identity").status == "ok"
    assert report.check("quadratic_distance").status == "ok"


def test_exclusions_counted_on_degenerate_diagonals():
    # mu = u1^2 - u2^2 vanishes exactly on the grid diagonals for ell = t^2+1
    spec = spec_for("z^2", "exp(z)", "t^2+1", n=16)
    report = run_checks(spec)
    wein = report.check("weingarten_relation")
    assert wein.excluded >= 16  # at least the main diagonal
    assert wein.excluded == report.check("pde_lapla1").excluded
    assert report.passed


def test_psi_small_points_excluded():
    # ell = sinh(t) vanishes at mu = 0; put a grid line exactly on mu = 0
    spec = spec_for("z", "z", "sinh(t)", n=9)
    report = run_checks(spec)
    assert report.check("weingarten_relation").excluded >= 9
    assert report.passed


def test_rotation_match_check():
    # nu1 = 8 keeps u1 = 0 off the grid; det V vanishes exactly there for
    # ell = cos and the whole row would be excluded as irregular
    ell = parse_expr("cos(t)", "t", real=True)
    check = rotation_match(sample_rotation_mesh(1.0, 0.0, ell, u1_range=(-1, 1),
                                                u2_range=(-math.pi, math.pi),
                                                nu1=8, nu2=9))
    assert check.count == 72
    assert check.excluded == 0
    assert check.max_rel <= 1e-9
    assert check.status == "ok"


@pytest.mark.parametrize("a, b, ell, u1_range", [
    (1.0, 0.0, "sinh(t)", (-1.0, 1.0)),        # u1 = 0 is irregular
    (0.5, 0.3, "log(t+0.5)", (-2.0, 1.0)),     # log cut at u1 < -1.6
    (1.0, 0.0, "cos(t)", (-1.0, 1.0)),
])
def test_rotation_match_against_pointwise_reference(a, b, ell, u1_range):
    # the distance of the rotation point to the closed-form one, point by point
    ell = parse_expr(ell, "t", real=True)
    window = dict(u1_range=u1_range, u2_range=(-2.0, 3.0), nu1=11, nu2=7)
    spec = rotation_spec(a, b, ell, **window)
    rels, excluded = [], 0
    for u1 in spec.grid_u1():
        for u2 in spec.grid_u2():
            z = complex(u1, u2)
            try:
                jets = surface.jets_at(spec, z)
            except EvalError:
                excluded += 1
                continue
            frame = frame_at(*jets)
            if not frame.regular:
                excluded += 1
                continue
            x = frame.x
            y = rotation_at(a, b, ell, u1, u2)
            rels.append(np.linalg.norm(y - x) / (1.0 + np.linalg.norm(x)))
    check = rotation_match(sample_rotation_mesh(a, b, ell, **window))
    assert (check.count, check.excluded) == (len(rels), excluded)
    assert abs(check.max_rel - max(rels)) <= 1e-15
    assert abs(check.mean_rel - np.mean(rels)) <= 1e-15
    assert check.passed


def test_rotation_match_samples_once(monkeypatch, tmp_path, capsys):
    # rotate --cross-check checks the mesh it has just sampled
    calls = []
    sample = surface.sample_mesh

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(surface, "sample_mesh", counted)
    assert main(["rotate", "--preset", "fig3", "--n", "9", "--cross-check",
                 "--out", str(tmp_path / "fig3.obj")]) == 0
    assert "cross-check rotation vs closed form: ok" in capsys.readouterr().out
    assert len(calls) == 1


def test_non_finite_residual_fails_its_check():
    # <X, X> and lam overflow to inf at the outer points: inf - inf = NaN
    spec = SurfaceSpec.from_strings("z^3", "z", "1e154*t", u1_range=(-1, 1),
                                    u2_range=(-1, 1), nu1=6, nu2=6)
    report = run_checks(spec)
    for check in map(report.check, ("quadratic_distance", "weingarten_relation")):
        assert check.count > 0
        assert math.isnan(check.max_rel)
        assert math.isnan(check.max_abs)  # not the largest finite error
        assert check.status == "fail"
    assert not report.passed


# (abs errors, rel errors) in grid order at the points 0, 1, 2, ... -> the
# (max_abs, max_rel, worst point) that adding them one at a time leaves
REDUCTIONS = [
    (([1.0, math.nan, 2.0], [0.0, 0.0, 0.0]), (math.nan, 0.0, 2)),  # NaN max_abs
    # NaN max_rel: the worst point is the last NaN, not the largest value
    (([1.0, 1.0, 1.0, 1.0], [0.5, math.nan, 3.0, math.nan]), (1.0, math.nan, 3)),
    (([1.0, 3.0, 3.0, 2.0], [0.5, 0.7, 0.7, 0.1]), (3.0, 0.7, 2)),  # ties: the last
    (([], []), (0.0, 0.0, None)),  # no points
]


def test_nan_abs_error_wins():
    for (abs_err, rel_err), (max_abs, max_rel, worst) in REDUCTIONS:
        # one more point, excluded, whose errors would win
        points = np.arange(len(rel_err) + 1) + 0.5j
        counted = np.arange(len(rel_err) + 1) < len(rel_err)
        check = CheckResult.reduce("c", 1e-9, points, np.array(abs_err + [math.nan]),
                                   np.array(rel_err + [math.nan]), counted)
        assert (check.count, check.excluded) == (len(rel_err), 1)
        for got, want in ((check.max_abs, max_abs), (check.max_rel, max_rel)):
            assert got == want or math.isnan(got) and math.isnan(want)
        assert check.worst_point == (None if worst is None else (worst, 0.5))
    # 1e16 + 1 rounds to 1e16, so the running sum of 1e16 and nine 1s is
    # 1e16; np.sum adds the 1s in partial sums first and gets 1e16 + 8
    rel_err = np.array([1e16] + [1.0] * 9)
    check = CheckResult.reduce("c", 1e-9, np.zeros(10), rel_err, rel_err,
                               np.ones(10, dtype=bool))
    assert check.sum_rel == 1e16 != float(np.sum(rel_err))


def test_eval_jet2_calls(monkeypatch):
    # 8x8 grid: f, g and ell at each of the 64 points; the FD stencils and
    # the Laplacian go through the array oracle
    calls = []
    eval_jet2 = surface.eval_jet2

    def counted(*args, **kwargs):
        calls.append(args)
        return eval_jet2(*args, **kwargs)

    monkeypatch.setattr(surface, "eval_jet2", counted)
    run_checks(spec_for("z", "z", "t^2+t+1", n=8))
    assert len(calls) == 3 * 8 * 8


# the checks that the mesh diagnostics repeat, with their diagnostic
MESH_RESIDUALS = {"support_identity": "support_residual",
                  "quadratic_distance": "distance_residual",
                  "weingarten_relation": "weingarten_residual",
                  "pde_lapla1": "pde_residual"}


@pytest.mark.parametrize("ell", ["t^2+t+1", "log(t+0.5)", "cos(t)"])
def test_checks_agree_with_mesh_diagnostics(ell):
    spec = spec_for("z", "z", ell, n=9)
    report = run_checks(spec)
    diagnostics = sample_mesh(spec).diagnostics
    for name, key in MESH_RESIDUALS.items():
        check, residual = report.check(name), getattr(diagnostics, key)
        assert math.isclose(check.max_rel, np.nanmax(residual), rel_tol=1e-12)
        assert check.excluded == np.isnan(residual).sum()


MIXED = ("exp(z)*sin(z)+z^3", "cosh(z)/(z^2+3)", "exp(t)*cos(t)+2")

# (f, g, ell, n) -> the rows whose (count, excluded, status) differ from full
# coverage and "ok"; every other row counts all n^2 points and passes.
PINNED_OUTCOMES = [
    (("z", "z", "t^2+t+1", 64), {"forms_vs_fd": (3844, 252, "ok"),
                                 "curvature_vs_fd": (3844, 252, "ok")}),
    (("z", "z", "cos(t)", 64), {"forms_vs_fd": (3844, 252, "ok"),
                                "curvature_vs_fd": (3844, 252, "ok")}),
    (("z^2", "exp(z)", "t^2+1", 64), {"weingarten_relation": (3968, 128, "ok"),
                                      "pde_lapla1": (3968, 128, "ok"),
                                      "forms_vs_fd": (3844, 252, "ok"),
                                      "curvature_vs_fd": (3844, 252, "ok")}),
    ((*MIXED, 32), {"forms_vs_fd": (900, 124, "fail"),
                    "curvature_vs_fd": (900, 124, "ok")}),
    (("z", "z", "1", 33), {
        "weingarten_relation": (0, 1089, "insufficient_coverage"),
        "pde_lapla1": (0, 1089, "insufficient_coverage"),
        "forms_vs_fd": (961, 128, "ok"), "curvature_vs_fd": (961, 128, "ok")}),
    # z = 0 is irregular; mu = 0 on the whole row u1 = 0
    (("z", "z", "sinh(t)", 33), {
        **{name: (1088, 1, "ok") for name in ALL_CHECKS},
        "weingarten_relation": (1056, 33, "ok"),
        "forms_vs_fd": (960, 129, "ok"), "curvature_vs_fd": (960, 129, "ok")}),
    # the exp sweep at 128², where curvature_vs_fd fails (max_rel 5.47e-4)
    (("z^2", "exp(z)", "t^2+1", 128), {"weingarten_relation": (16120, 264, "ok"),
                                       "pde_lapla1": (16120, 264, "ok"),
                                       "forms_vs_fd": (15876, 508, "ok"),
                                       "curvature_vs_fd": (15876, 508, "fail")}),
    # fig3-fig5 as rotation_spec(a, b, ell)
    ((1.0, 0.0, "t^2+t+1", 33), {
        "weingarten_relation": (1056, 33, "ok"), "pde_lapla1": (1056, 33, "ok"),
        "forms_vs_fd": (961, 128, "ok"), "curvature_vs_fd": (961, 128, "ok")}),
    ((0.0, 1.0, "t^2+t+1", 33), {"forms_vs_fd": (961, 128, "ok"),
                                 "curvature_vs_fd": (961, 128, "ok")}),
    ((1.0, 0.0, "sinh(t)", 33), {
        **{name: (1056, 33, "ok") for name in ALL_CHECKS},
        "forms_vs_fd": (930, 159, "ok"), "curvature_vs_fd": (930, 159, "ok")}),
]
PINNED_IDS = ["fig1", "fig2", "exp", "mixed", "ell-1", "sinh", "exp-128",
              "fig3", "fig4", "fig5"]


def pinned_spec(fgl, n):
    """The spec of a PINNED_OUTCOMES case on [-1, 1]² at n²: (f, g, ell), or
    (a, b, ell) of the rotation family."""
    if isinstance(fgl[0], float):
        a, b, ell = fgl
        return rotation_spec(a, b, parse_expr(ell, "t", real=True), u1_range=(-1.0, 1.0),
                             u2_range=(-1.0, 1.0), nu1=n, nu2=n)
    return spec_for(*fgl, n=n)


@pytest.mark.parametrize("case, rows", PINNED_OUTCOMES, ids=PINNED_IDS)
def test_pinned_outcomes(case, rows):
    *fgl, n = case
    report = run_checks(pinned_spec(fgl, n))
    got = {c.name: (c.count, c.excluded, c.status) for c in report.checks}
    assert got == {name: rows.get(name, (n * n, 0, "ok")) for name in ALL_CHECKS}
    for check in report.checks:
        assert check.passed == (check.status == "ok")


def error_of(err, ref, excluded=False):
    """(abs error, rel error, 1 + |ref|, excluded) of the error err of ref."""
    return abs(err), abs(err) / (1.0 + abs(ref)), 1.0 + abs(ref), excluded


def reference_rows(spec, step=verify.DEFAULT_FD_STEP):
    """Every row of CHECKS at every grid centre, one point at a time: the
    jets of jets_at, the frame, closed-form and direct points at them, and
    fd_oracle at the one point.  Returns {row: (CheckResult, the largest
    1 + |ref| over its counted points)}."""
    points = surface.grid_points(spec.grid_u1(), spec.grid_u2()).ravel()
    errors = {name: np.full((points.size, 3), math.nan) for name in ALL_CHECKS}
    counted = {name: np.zeros(points.size, dtype=bool) for name in ALL_CHECKS}
    for k, z in enumerate(points.tolist()):
        try:
            jets = surface.jets_at(spec, z)
        except EvalError:
            continue
        frame = frame_at(*jets, spec.regularity_eps)
        if not frame.regular:
            continue
        x = frame.x
        direct = direct_at(jets)
        oracle = fd_at(spec, z, step)
        psi, lam, c = frame.psi, frame.lam, frame.c
        v11, v12, v22 = frame.v
        v = np.array([[v11, v12], [v12, v22]])
        w = np.array([[v22, -v12], [-v12, v11]]) / frame.det_v

        def vs_fd(pairs):  # the pair with the largest relative error, or a NaN one
            errs = [error_of(fd - ref, ref, not oracle["ok"]) for ref, fd in pairs]
            return max(errs, key=lambda e: (math.isnan(e[1]), e[1]))

        lhs = psi * (frame.trace_v - 2.0 * psi)
        resid = np.abs(w @ v - np.eye(2))
        rows = {
            "param_equivalence": error_of(float(np.linalg.norm(direct - x)),
                                          float(np.linalg.norm(x))),
            "support_identity": error_of(float(np.dot(x, frame.normal)) - psi, psi),
            "quadratic_distance": error_of(float(np.dot(x, x)) - lam, lam),
            "weingarten_relation": (error_of(
                frame.h_over_k - (c * (-lam / (2.0 * psi) + psi / 2.0) - psi),
                frame.h_over_k) if not np.isnan(c) and abs(psi) > geometry.PSI_EPS
                else (math.nan, math.nan, 1.0, True)),
            "pde_lapla1": (error_of(lhs - c * frame.grad_sq, lhs) if not np.isnan(c)
                           else (math.nan, math.nan, 1.0, True)),
            "forms_vs_fd": vs_fd(zip(frame.forms, oracle["forms"][:6].tolist())),
            "curvature_vs_fd": vs_fd(zip((frame.mean, frame.gauss),
                                         oracle["forms"][6:].tolist())),
            "harmonicity_mu": error_of(
                (sum(oracle["f_values"].tolist()) - 4.0 * jets[0].value.real)
                / (step * step), jets[0].value.real, not oracle["f_ok"]),
            "wv_identity": (resid.max(), (resid / (1.0 + np.eye(2))).max(), 2.0, False),
        }
        for name, (abs_err, rel_err, scale, excluded) in rows.items():
            errors[name][k] = abs_err, rel_err, scale
            counted[name][k] = not excluded
    return {name: (CheckResult.reduce(name, 0.0, points, *errors[name][:, :2].T,
                                      counted[name]),
                   np.max(errors[name][counted[name], 2], initial=1.0))
            for name in ALL_CHECKS}


@pytest.mark.parametrize("case", [case for case, _ in PINNED_OUTCOMES], ids=PINNED_IDS)
def test_checks_match_pointwise_reference(monkeypatch, case):
    # the pinned specs on a coarser grid of the same parity: the odd grids
    # keep z = 0 and the row u1 = 0; blocks of 7 points split the rows
    *fgl, n = case
    spec = pinned_spec(fgl, 16 if n % 2 == 0 else 15)
    reference = reference_rows(spec)
    # Both paths apply the same formulas to the same jets.  They round apart
    # only where numpy's complex arithmetic rounds differently from Python's
    # (a complex g), by some ulps of the values a residual is computed from:
    # a multiple of 1.1e-16 (1 + |ref|) in its absolute error and of 1.1e-16
    # in its relative one.  The largest multiple here is about 120 (1.35e-14,
    # forms_vs_fd of the mixed case, next to the zero of g').  The bound,
    # 1e-12 with 1 + |ref| at its largest over the row, leaves 70 times that
    # and stays 1000 times below the algebraic tolerance.
    for block_points in (surface.BLOCK_POINTS, 7):
        monkeypatch.setattr(surface, "BLOCK_POINTS", block_points)
        report = run_checks(spec)
        for name in ALL_CHECKS:
            got, (ref, scale) = report.check(name), reference[name]
            assert (got.count, got.excluded) == (ref.count, ref.excluded), name
            for a, b, bound in ((got.max_abs, ref.max_abs, 1e-12 * scale),
                                (got.max_rel, ref.max_rel, 1e-12)):
                assert abs(a - b) <= bound or a == b, name


def test_tolerance_override_fails_report():
    report = run_checks(spec_for("z", "z", "t^2+t+1", n=8),
                        tolerances={"algebraic": 1e-18})
    assert not report.passed
    assert report.check("support_identity").status == "fail"


# ---------------------------------------------------------------------------
# Convergence order
# ---------------------------------------------------------------------------

def test_convergence_order_second_order():
    # convergence_order resamples the window, so the spec's n does not matter
    orders = convergence_order(spec_for("z", "z", "t^2+t+1", n=32))
    assert orders == convergence_order(spec_for("z", "z", "t^2+t+1", n=8))
    assert set(orders) == set(verify.CONVERGENCE_ROWS)
    for order, residuals in orders.values():
        assert 1.8 <= order <= 2.2
        assert residuals[0] > residuals[-1]


@pytest.mark.parametrize("fgl", [("z", "z", "t^2+t+1"), ("z", "z", "cos(t)"),
                                 ("z^2", "exp(z)", "t^2+1"), MIXED],
                         ids=["fig1", "fig2", "exp", "mixed"])
def test_convergence_order_per_row(fgl):
    n = verify.CONVERGENCE_SAMPLES + 2
    reports = [run_checks(spec_for(*fgl, n=n), step) for step in verify.CONVERGENCE_STEPS]
    for name, (order, mean_rels) in convergence_order(spec_for(*fgl, n=32)).items():
        assert 1.9 <= order <= 2.1, name
        assert mean_rels[0] > mean_rels[1] > mean_rels[2], name
        # every mean_rel is the one run_checks reports at that step
        assert mean_rels == [report.check(name).mean_rel for report in reports], name


def test_mixed_forms_failure_is_an_h2_floor():
    # forms_vs_fd of the mixed case fails at 32² next to g'(0) = 0, and its
    # error there falls as step^2: the closed form is right
    spec = spec_for(*MIXED, n=32)
    worst = [run_checks(spec, step).check("forms_vs_fd") for step in (1e-4, 5e-5)]
    assert [c.status for c in worst] == ["fail", "fail"]
    assert worst[0].worst_point == worst[1].worst_point
    assert worst[0].max_rel / worst[1].max_rel == pytest.approx(4.0, rel=1e-3)
    assert round(convergence_order(spec)["forms_vs_fd"][0], 4) == 2.0


def test_convergence_order_without_frame_raises():
    # g = 1 has g' = 0 everywhere, so no centre has a frame
    with pytest.raises(InputError, match="no regular sample point"):
        convergence_order(spec_for("z", "1", "t^2+t+1", n=8))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def test_report_json_schema():
    report = run_checks(spec_for("z", "z", "t^2+t+1", n=8))
    data = json.loads(report.to_json())
    assert set(data) == {"spec", "checks", "pass"}
    # no "method": run_checks checks both parameterizations
    assert set(data["spec"]) == {"f", "g", "ell", "u1", "u2", "nu1", "nu2",
                                 "regularity_eps", "fd_step", "profile_c_constant",
                                 "profile_c", "profile_label"}
    assert data["pass"] is True
    assert data["spec"]["f"] == "z"
    assert data["spec"]["ell"] == "t^2+t+1"
    for check in data["checks"]:
        for key in ("name", "count", "excluded", "max_abs", "max_rel",
                    "mean_rel", "worst_point", "pass"):
            assert key in check
        assert isinstance(check["pass"], bool)
        assert isinstance(check["count"], int)
        u1, u2 = check["worst_point"]
        assert -1 <= u1 <= 1 and -1 <= u2 <= 1


def test_report_deterministic():
    a = run_checks(spec_for("z", "z", "cos(t)", n=8)).to_json()
    b = run_checks(spec_for("z", "z", "cos(t)", n=8)).to_json()
    assert a == b
