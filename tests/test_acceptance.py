"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; tolerances are pinned here and not adjusted anywhere else.
"""
import math
import random

import numpy as np
import pytest

from conftest import central_d1, draw_sample, frame_at, rotation_at
from grtsurf import geometry, surface, verify
from grtsurf.cli import main
from grtsurf.expr import differentiate, eval_jet2, evaluate, parse_expr
from grtsurf.geometry import inner
from grtsurf.surface import SurfaceSpec, sample_rotation_mesh
from grtsurf.verify import convergence_order, run_checks

SWEEPS = [
    ("z", "z", "t^2+t+1"),
    ("z", "z", "cos(t)"),
    ("z^2", "exp(z)", "t^2+1"),
]


def sweep_spec(f, g, l, n=64):
    return SurfaceSpec.from_strings(f, g, l, u1_range=(-1.0, 1.0),
                                    u2_range=(-1.0, 1.0), nu1=n, nu2=n)


@pytest.fixture(scope="module")
def sweep_reports():
    return {triple: run_checks(sweep_spec(*triple), step=1e-4) for triple in SWEEPS}


def report_line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def grid_frames(spec):
    for u1 in spec.grid_u1():
        for u2 in spec.grid_u2():
            z = complex(u1, u2)
            f_jet, g_jet, ell_jet = surface.jets_at(spec, z)
            yield z, f_jet, g_jet, ell_jet, frame_at(f_jet, g_jet, ell_jet)


def test_criterion_1_parameterization_equivalence(sweep_reports):
    worst = 0.0
    for triple in SWEEPS:
        check = sweep_reports[triple].check("param_equivalence")
        assert check.count == 64 * 64
        worst = max(worst, check.max_rel)
    report_line("criterion 1 (parameterization equivalence)",
                worst <= 1e-9, f"max_rel={worst:.3e} <= 1e-9 on 3 sweeps")


def test_criterion_2_central_identity(sweep_reports):
    worst_w = worst_p = 0.0
    for triple in SWEEPS:
        rep = sweep_reports[triple]
        worst_w = max(worst_w, rep.check("weingarten_relation").max_rel)
        worst_p = max(worst_p, rep.check("pde_lapla1").max_rel)
        assert rep.check("weingarten_relation").count > 0.9 * 64 * 64
    report_line("criterion 2 (Weingarten relation + profile PDE)",
                worst_w <= 1e-9 and worst_p <= 1e-9,
                f"weingarten max_rel={worst_w:.3e}, pde max_rel={worst_p:.3e}")


def test_criterion_3_special_cases():
    # Appell branch: ell = t gives C = 0 and H + psi*K = 0
    spec = sweep_spec("z", "z", "t")
    worst_appell = 0.0
    for z, *_jets, frame in grid_frames(spec):
        if not frame.regular:
            continue
        assert frame.c == 0.0
        resid = abs(frame.mean + frame.psi * frame.gauss)
        worst_appell = max(worst_appell,
                           resid / (1 + abs(frame.psi * frame.gauss)))
    # harmonic-type branch: ell = exp(t) gives C = 1 and
    # H/K = -lam/(2 psi) - psi/2
    spec = sweep_spec("z", "z", "exp(t)")
    worst_c = 0.0
    worst_tr = 0.0
    for z, *_jets, frame in grid_frames(spec):
        if not frame.regular:
            continue
        worst_c = max(worst_c, abs(frame.c - 1.0))
        resid = abs(frame.h_over_k + frame.lam / (2 * frame.psi)
                    + frame.psi / 2)
        worst_tr = max(worst_tr, resid / (1 + abs(frame.h_over_k)))
    ok = worst_appell <= 1e-9 and worst_c <= 1e-12 and worst_tr <= 1e-9
    report_line("criterion 3 (Appell and TR special cases)", ok,
                f"|H+psiK|={worst_appell:.3e}, |C-1|={worst_c:.3e}, "
                f"TR residual={worst_tr:.3e}")


def test_criterion_4_fd_oracle(sweep_reports):
    worst_forms = worst_curv = 0.0
    for triple in SWEEPS:
        rep = sweep_reports[triple]
        worst_forms = max(worst_forms, rep.check("forms_vs_fd").max_rel)
        worst_curv = max(worst_curv, rep.check("curvature_vs_fd").max_rel)
        assert rep.check("forms_vs_fd").count > 0.8 * 64 * 64
    orders = convergence_order(sweep_spec(*SWEEPS[0], n=32))
    ok = (worst_forms <= 1e-4 and worst_curv <= 1e-4
          and all(1.8 <= order <= 2.2 and rels[0] > rels[-1]
                  for order, rels in orders.values()))
    order_text = ", ".join(f"{name}={order:.3f}" for name, (order, _) in orders.items())
    report_line("criterion 4 (finite-difference oracle agreement)", ok,
                f"forms max_rel={worst_forms:.3e}, curvature "
                f"max_rel={worst_curv:.3e}, orders {order_text} in [1.8, 2.2]")


def test_criterion_5_support_and_distance(sweep_reports):
    worst_s = worst_q = 0.0
    for triple in SWEEPS:
        rep = sweep_reports[triple]
        worst_s = max(worst_s, rep.check("support_identity").max_rel)
        worst_q = max(worst_q, rep.check("quadratic_distance").max_rel)
    ok = worst_s <= 1e-9 and worst_q <= 1e-9
    report_line("criterion 5 (support and quadratic-distance identities)", ok,
                f"support max_rel={worst_s:.3e}, distance max_rel={worst_q:.3e}")


def test_criterion_6_rotation_theorem():
    worst = 0.0
    for lsrc in ("t^2+t+1", "cos(t)", "sinh(t)"):
        ell = parse_expr(lsrc, "t", real=True)
        for (a, b) in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0)):
            spec = surface.rotation_spec(
                a, b, ell, u1_range=(-1, 1), u2_range=(-math.pi, math.pi),
                nu1=33, nu2=33)
            for u1 in spec.grid_u1():
                for u2 in spec.grid_u2():
                    xr = rotation_at(a, b, ell, float(u1), float(u2))
                    xc = frame_at(*surface.jets_at(spec, complex(u1, u2))).x
                    gap = float(np.linalg.norm(xr - xc))
                    worst = max(worst, gap / (1 + float(np.linalg.norm(xc))))
    worst_sphere = 0.0
    for lsrc in ("t^2+t+1", "cos(t)", "sinh(t)"):
        ell = parse_expr(lsrc, "t", real=True)
        radius_sq = eval_jet2(ell, 1.0, variable="t").value ** 2
        mesh = sample_rotation_mesh(0.0, 1.0, ell, nu1=33, nu2=33)
        pts = mesh.vertices[mesh.valid]
        worst_sphere = max(worst_sphere,
                           float(np.max(np.abs((pts ** 2).sum(axis=1)
                                               - radius_sq))))
    ok = worst <= 1e-9 and worst_sphere <= 1e-12
    report_line("criterion 6 (rotation family)", ok,
                f"rotation-vs-closed max_rel={worst:.3e}, a=0 sphere "
                f"deviation={worst_sphere:.3e}")


def test_criterion_7_figure_presets(tmp_path, capsys):
    presets = {
        "fig1": ("generate",), "fig2": ("generate",),
        "fig3": ("rotate",), "fig4": ("rotate",), "fig5": ("rotate",),
    }
    stable = True
    regular_ok = True
    details = []
    for preset, (cmd,) in presets.items():
        paths = [tmp_path / f"{preset}_{k}.obj" for k in (1, 2)]
        for path in paths:
            code = main([cmd, "--preset", preset, "--out", str(path)])
            capsys.readouterr()
            assert code == 0, preset
        data = paths[0].read_bytes()
        if data != paths[1].read_bytes():
            stable = False
        n_vertices = data.count(b"\nv ") + data.startswith(b"v ")
        fraction = n_vertices / (128 * 128)
        if fraction < 0.95:
            regular_ok = False
        details.append(f"{preset}:{100 * fraction:.1f}%")
    report_line("criterion 7 (figure presets)", stable and regular_ok,
                f"byte-stable={stable}, regular fractions " + " ".join(details))


def test_criterion_8_matrix_contracts(sweep_reports):
    worst_wv = 0.0
    for triple in SWEEPS:
        worst_wv = max(worst_wv,
                       sweep_reports[triple].check("wv_identity").max_rel)
    worst_trace = 0.0
    symmetric = True
    for triple in (SWEEPS[0], SWEEPS[2]):
        spec = sweep_spec(*triple)
        for z, f_jet, g_jet, ell_jet, frame in grid_frames(spec):
            # V as (V11, V12, V22): one off-diagonal entry, V21 = V12 exactly
            if frame.v.shape != (3,):
                symmetric = False
            if not frame.regular:
                continue
            t = 1 + inner(g_jet.value, g_jet.value)
            gp2 = inner(g_jet.d1, g_jet.d1)
            closed = (ell_jet.d2 * inner(f_jet.d1, f_jet.d1) * t * t
                      / (4 * gp2) + 2 * ell_jet.value)
            worst_trace = max(worst_trace, abs(frame.trace_v - closed)
                              / (1 + abs(closed)))
    ok = symmetric and worst_wv <= 1e-9 and worst_trace <= 1e-12
    report_line("criterion 8 (matrix contracts)", ok,
                f"V12==V21 exact={symmetric}, W*V-I max={worst_wv:.3e}, "
                f"trace gap={worst_trace:.3e}")


def test_criterion_9_expression_engine():
    rng = random.Random(0x5EED)
    h = 1e-5
    worst_d1 = worst_d2 = worst_cr = 0.0
    complex_samples = 0
    for k in range(1000):
        real = k % 2 == 1
        src, node, point = draw_sample(rng, real=real)
        var = "t" if real else "z"
        jet = eval_jet2(node, point, variable=var)
        d1_node = differentiate(node)
        fd1 = central_d1(node, point, var, h=h)
        worst_d1 = max(worst_d1, abs(jet.d1 - fd1) / (1 + abs(jet.d1)))
        # second derivative through the symbolic first derivative
        d1_jet = eval_jet2(d1_node, point, variable=var)
        fd2 = central_d1(d1_node, point, var, h=h)
        worst_d2 = max(worst_d2, abs(d1_jet.d1 - fd2) / (1 + abs(d1_jet.d1)))
        assert abs(jet.d2 - d1_jet.d1) <= 1e-9 * (1 + abs(jet.d2))
        if not real:
            complex_samples += 1
            du1 = (evaluate(node, point + h) - evaluate(node, point - h)) / (2 * h)
            du2 = (evaluate(node, point + 1j * h)
                   - evaluate(node, point - 1j * h)) / (2 * h)
            worst_cr = max(worst_cr, abs(du2 - 1j * du1) / (1 + abs(du1)))
    ok = worst_d1 <= 1e-6 and worst_d2 <= 1e-6 and worst_cr <= 1e-8
    report_line("criterion 9 (expression engine vs finite differences)", ok,
                f"1000 samples ({complex_samples} complex): d1 gap={worst_d1:.3e}, "
                f"d2 gap={worst_d2:.3e}, Cauchy-Riemann gap={worst_cr:.3e}")
