"""Geometry module: frame, V matrix, scalar fields, fundamental forms.

Each test reaches one point through conftest.frame_at, grid_frame at one
point.  The independent oracle for the V matrix rebuilds it from finite
differences of the support function h = ell(Re f) and the closed-form
Christoffel symbols, i.e. through the defining formula rather than through
the jet expressions under test.
"""
import math
import random

import numpy as np
import pytest

from conftest import frame_at
from grtsurf.expr import Jet2, eval_jet2, parse_expr
from grtsurf.geometry import _forms, _sphere, _xi, inner

UNIT_JET = Jet2(0j, 1 + 0j, 0j)
# A profile jet with ell, ell', ell'' nonzero, for frames that need only g
PROFILE_JET = Jet2(1.0, 1.0, 2.0)


def jets_for(f_src, g_src, ell_src, z):
    f = parse_expr(f_src, "z")
    g = parse_expr(g_src, "z")
    ell = parse_expr(ell_src, "t", real=True)
    f_jet = eval_jet2(f, z)
    g_jet = eval_jet2(g, z)
    ell_jet = eval_jet2(ell, f_jet.value.real, variable="t")
    return f_jet, g_jet, ell_jet


SAMPLE_TRIPLES = [
    ("z", "z", "t^2+t+1"),
    ("z", "z", "cos(t)"),
    ("z^2", "exp(z)", "t^2+1"),
    ("exp(z)", "z^2+z", "sinh(t)"),
]
SAMPLE_POINTS = [0.31 + 0.17j, -0.42 + 0.55j, 0.73 - 0.64j, 0.11 + 0.93j]


def v_matrix(ell_jet, f_jet, g_jet):
    """V as a 2x2 matrix, and its trace, from the frame at the jets."""
    frame = frame_at(f_jet, g_jet, ell_jet)
    v11, v12, v22 = frame.v
    return np.array([[v11, v12], [v12, v22]]), frame.trace_v


def christoffel(g_jet):
    """(G^1_11, G^2_22, G^2_11, G^1_22) of the sphere metric pulled back by
    g; the remaining nonzero symbols are G^1_12 = G^1_21 = G^2_22 and
    G^2_12 = G^2_21 = G^1_11."""
    gp2, t, _ = _sphere(g_jet)
    g, g1, g2 = g_jet.value, g_jet.d1, g_jet.d2
    c111 = (t * inner(g1, g2) - 2.0 * gp2 * inner(g, g1)) / (t * gp2)
    c222 = (t * inner(g1, 1j * g2) - 2.0 * gp2 * inner(g, 1j * g1)) / (t * gp2)
    return c111, c222, -c222, -c111


# ---------------------------------------------------------------------------
# Gauss frame
# ---------------------------------------------------------------------------

def normal_of(g_jet):
    """The unit normal of the frame at g_jet."""
    return frame_at(UNIT_JET, g_jet, PROFILE_JET).normal


def test_gauss_map_at_origin():
    _, t, l11 = _sphere(UNIT_JET)
    assert np.allclose(normal_of(UNIT_JET), [0, 0, 1], atol=1e-15)
    assert l11 == 4.0
    assert t == 1.0
    assert christoffel(UNIT_JET) == (0.0, 0.0, 0.0, 0.0)


def test_gauss_map_at_one_plus_i():
    g_jet = Jet2(1 + 1j, 1 + 0j, 0j)
    _, t, l11 = _sphere(g_jet)
    assert np.allclose(normal_of(g_jet), [2 / 3, 2 / 3, -1 / 3], atol=1e-15)
    assert t == 3.0
    assert abs(l11 - 4 / 9) < 1e-15


def test_gauss_map_unit_modulus_kills_third_component():
    assert np.allclose(normal_of(Jet2(1 + 0j, 1 + 0j, 0j)), [1, 0, 0], atol=1e-15)


def test_gauss_map_singular_when_g_prime_vanishes():
    assert not frame_at(UNIT_JET, Jet2(0j, 0j, 2 + 0j), PROFILE_JET).exists


def test_normal_is_unit_everywhere():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            normal = frame_at(*jets_for(f, g, l, z)).normal
            assert abs(np.dot(normal, normal) - 1.0) <= 1e-12


def test_conformality_by_finite_differences():
    # <N_,i, N_,j> must reproduce l11 * delta_ij
    step = 1e-4
    g = parse_expr("z^2+z", "z")
    for z in SAMPLE_POINTS:
        l11 = _sphere(eval_jet2(g, z))[2]

        def normal(w):
            return normal_of(eval_jet2(g, w))

        n1 = (normal(z + step) - normal(z - step)) / (2 * step)
        n2 = (normal(z + 1j * step) - normal(z - 1j * step)) / (2 * step)
        assert abs(np.dot(n1, n1) - l11) <= 1e-5 * (1 + l11)
        assert abs(np.dot(n2, n2) - l11) <= 1e-5 * (1 + l11)
        assert abs(np.dot(n1, n2)) <= 1e-5 * (1 + l11)


def test_christoffel_symbols_match_metric_derivatives():
    # for a conformal metric: G^1_11 = d_1(log l11)/2, G^2_22 = d_2(log l11)/2
    step = 1e-5
    g = parse_expr("exp(z)", "z")
    for z in SAMPLE_POINTS:
        def log_l11(w):
            return math.log(_sphere(eval_jet2(g, w))[2])

        d1 = (log_l11(z + step) - log_l11(z - step)) / (2 * step)
        d2 = (log_l11(z + 1j * step) - log_l11(z - 1j * step)) / (2 * step)
        c111, c222, c211, c122 = christoffel(eval_jet2(g, z))
        assert abs(c111 - d1 / 2) <= 1e-6 * (1 + abs(c111))
        assert abs(c222 - d2 / 2) <= 1e-6 * (1 + abs(c222))
        assert c211 == -c222
        assert c122 == -c111


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------

def test_xi_zero_for_identity_pair_at_origin():
    assert _xi(UNIT_JET, UNIT_JET, 1.0) == 0j


def test_xi_identity_pair_at_one():
    value = _xi(Jet2(1 + 0j, 1 + 0j, 0j), Jet2(1 + 0j, 1 + 0j, 0j), 2.0)
    assert abs(value - (-1 + 0j)) < 1e-15


def test_xi_reduces_to_second_derivative_term():
    # f' = 0 leaves only -f''
    f_jet = Jet2(0j, 0j, 3 - 2j)
    g_jet = Jet2(0.5 + 0.5j, 1 + 1j, 0.3j)
    t = 1 + inner(g_jet.value, g_jet.value)
    assert _xi(f_jet, g_jet, t) == -(3 - 2j)


# ---------------------------------------------------------------------------
# V matrix
# ---------------------------------------------------------------------------

def test_v_matrix_frozen_example():
    v, trace = v_matrix(PROFILE_JET, UNIT_JET, UNIT_JET)
    assert np.allclose(v, [[1.5, 0.0], [0.0, 1.0]], atol=1e-15)
    assert trace == 2.5


def test_v_matrix_constant_profile_is_scalar():
    ell_jet = Jet2(3.5, 0.0, 0.0)
    for z in SAMPLE_POINTS:
        f_jet, g_jet, _ = jets_for("exp(z)", "z^2+z", "t", z)
        v, trace = v_matrix(ell_jet, f_jet, g_jet)
        assert np.allclose(v, 3.5 * np.eye(2), atol=1e-14)
        assert abs(trace - 7.0) < 1e-14


def test_v_matrix_constant_f_is_scalar():
    f_jet = Jet2(0.3 + 0.2j, 0j, 0j)
    for z in SAMPLE_POINTS:
        _, g_jet, _ = jets_for("z", "z^2+z", "t", z)
        ell_jet = eval_jet2(parse_expr("t^2+t+1", "t"), 0.3, variable="t")
        v, _ = v_matrix(ell_jet, f_jet, g_jet)
        assert np.allclose(v, ell_jet.value * np.eye(2), atol=1e-14)


def test_v_matrix_symmetry_is_exact():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f, g, l, z)
            v, _ = v_matrix(ell_jet, f_jet, g_jet)
            assert v[0, 1] == v[1, 0]


def test_trace_matches_closed_form():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f, g, l, z)
            _, trace = v_matrix(ell_jet, f_jet, g_jet)
            t = 1 + inner(g_jet.value, g_jet.value)
            gp2 = inner(g_jet.d1, g_jet.d1)
            closed = (ell_jet.d2 * inner(f_jet.d1, f_jet.d1) * t * t / (4 * gp2)
                      + 2 * ell_jet.value)
            assert abs(trace - closed) <= 1e-12 * (1 + abs(closed))


def _fd_v_matrix(f, g, ell, z, step=1e-3):
    """Independent oracle: V_ij = (h_,ij - sum_k h_,k G^k_ij + h l11 d_ij)/l11
    with h-derivatives by finite differences of h = ell(Re f)."""
    def h(w):
        f_val = eval_jet2(f, w).value
        return eval_jet2(ell, f_val.real, variable="t").value

    s = step
    h0 = h(z)
    h1 = (h(z + s) - h(z - s)) / (2 * s)
    h2 = (h(z + 1j * s) - h(z - 1j * s)) / (2 * s)
    h11 = (h(z + s) - 2 * h0 + h(z - s)) / (s * s)
    h22 = (h(z + 1j * s) - 2 * h0 + h(z - 1j * s)) / (s * s)
    h12 = (h(z + s + 1j * s) + h(z - s - 1j * s)
           - h(z + s - 1j * s) - h(z - s + 1j * s)) / (4 * s * s)
    g_jet = eval_jet2(g, z)
    c111, c222, c211, c122 = christoffel(g_jet)
    # remaining symbols for the conformal metric
    c112 = c222  # G^1_12 = G^1_21
    c212 = c111  # G^2_12 = G^2_21
    l11 = _sphere(g_jet)[2]
    v11 = (h11 - (h1 * c111 + h2 * c211) + h0 * l11) / l11
    v22 = (h22 - (h1 * c122 + h2 * c222) + h0 * l11) / l11
    v12 = (h12 - (h1 * c112 + h2 * c212)) / l11
    return np.array([[v11, v12], [v12, v22]])


def test_v_matrix_against_fd_oracle():
    for (f_src, g_src, ell_src) in SAMPLE_TRIPLES:
        f = parse_expr(f_src, "z")
        g = parse_expr(g_src, "z")
        ell = parse_expr(ell_src, "t", real=True)
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f_src, g_src, ell_src, z)
            v, _ = v_matrix(ell_jet, f_jet, g_jet)
            v_fd = _fd_v_matrix(f, g, ell, z)
            assert np.all(np.abs(v - v_fd) <= 1e-4 * (1 + np.abs(v))), \
                (f_src, g_src, ell_src, z, v, v_fd)


def test_point_frame_singular_when_t_squared_overflows():
    # |g| = 1e200: T^2 overflows and the metric factor would be 0
    g_jet = Jet2(1e200 + 0j, 1 + 0j, 0j)
    assert _sphere(g_jet)[2] == 0.0  # the metric factor
    assert not frame_at(UNIT_JET, g_jet, PROFILE_JET).exists


def test_v_matrix_singular_when_g_prime_vanishes():
    assert not frame_at(UNIT_JET, Jet2(0j, 0j, 2 + 0j), PROFILE_JET).exists


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

def test_scalar_fields_frozen_example():
    s = frame_at(UNIT_JET, UNIT_JET, PROFILE_JET)
    assert s.psi == 1.0
    assert abs(s.grad_sq - 0.25) < 1e-15
    assert abs(s.lam - 1.25) < 1e-15
    assert s.c == 2.0
    assert s.h_over_k == -1.25
    assert abs(s.mean - (-1.25 / 1.5)) < 1e-15
    assert abs(s.gauss - (1 / 1.5)) < 1e-15


def test_linear_profile_gives_appell_relation():
    # C = 0, so H/K = -psi, i.e. H + psi*K = 0
    for (f_src, g_src) in [("z", "z"), ("z^2", "exp(z)")]:
        for z in SAMPLE_POINTS:
            s = frame_at(*jets_for(f_src, g_src, "t", z))
            assert s.regular and s.c == 0.0
            resid = abs(s.mean + s.psi * s.gauss) / (1 + abs(s.psi * s.gauss))
            assert resid <= 1e-9


def test_power_profile_constant_c():
    # ell = t^p on t > 0 has C = (p-1)/p for every mu
    for p in (2, 3, 5):
        ell = parse_expr(f"t^{p}", "t", real=True)
        for mu in np.linspace(0.3, 2.2, 9):
            jet = eval_jet2(ell, float(mu), variable="t")
            c = jet.value * jet.d2 / (jet.d1 * jet.d1)
            assert abs(c - (p - 1) / p) <= 1e-12


def test_degenerate_profile_raises():
    frame = frame_at(UNIT_JET, UNIT_JET, Jet2(1.0, 0.0, 2.0))  # ell' = 0
    assert np.isnan(frame.c)


def test_singular_det_v_raises():
    # V = 0 matrix: profile ell = 0 with all derivatives vanishing except
    # a combination producing det V = 0
    ell_jet = Jet2(0.0, 1.0, 0.0)
    f_jet = Jet2(0j, 0j, 0j)  # f constant -> V = ell * I = 0
    frame = frame_at(f_jet, UNIT_JET, ell_jet)
    assert frame.exists and not frame.regular
    assert not np.isfinite(frame.mean) and not np.isfinite(frame.gauss)


# ---------------------------------------------------------------------------
# Fundamental forms
# ---------------------------------------------------------------------------

def test_fundamental_forms_frozen_example():
    forms = _forms(1.5, 0.0, 1.0, 4.0)
    assert forms == (9.0, 0.0, 4.0, 6.0, 0.0, 4.0)
    assert frame_at(UNIT_JET, UNIT_JET, PROFILE_JET).forms.tolist() == list(forms)


def test_fundamental_forms_umbilic():
    c, l11 = 2.5, 0.3
    E, F, G, e, f, g = _forms(c, 0.0, c, l11)
    assert E == G == pytest.approx(c * c * l11, rel=1e-15)
    assert F == 0.0
    assert e == g == pytest.approx(c * l11, rel=1e-15)
    assert f == 0.0


def test_det_identity():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f, g, l, z)
            l11 = _sphere(g_jet)[2]
            v, _ = v_matrix(ell_jet, f_jet, g_jet)
            E, F, G, *_ = frame_at(f_jet, g_jet, ell_jet).forms
            det_v = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
            lhs = E * G - F * F
            rhs = det_v * det_v * l11 * l11
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_fundamental_forms_match_expanded_expressions():
    # fully expanded coefficient formulas agree with the V*l11 products
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f, g, l, z)
            forms = frame_at(f_jet, g_jet, ell_jet).forms

            _, t, _ = _sphere(g_jet)
            gp2 = inner(g_jet.d1, g_jet.d1)
            k = t * t / (4 * gp2)
            x = _xi(f_jet, g_jet, t)
            f1 = f_jet.d1
            l0, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
            a1 = inner(1.0, f1)            # <1, f'>
            a2 = inner(1.0, 1j * f1)       # <1, i f'>
            b = inner(1.0, 0.5j * f1 * f1)  # <1, i f'^2 / 2>
            x1 = inner(1.0, x)
            x2 = inner(1j, x)
            xsq = inner(x, x)
            inv_k = 4 * gp2 / (t * t)

            E = (k * (l2 * l2 * (a1 ** 4 + b * b)
                      - 2 * l2 * l1 * (a1 * a1 * x1 - b * x2)
                      + l1 * l1 * xsq)
                 + 2 * l0 * (l2 * a1 * a1 - l1 * x1) + l0 * l0 * inv_k)
            F = ((l2 * inner(f1, f1) * k + 2 * l0) * (l2 * b + l1 * x2))
            G = (k * (l2 * l2 * (a2 ** 4 + b * b)
                      + 2 * l2 * l1 * (a2 * a2 * x1 + b * x2)
                      + l1 * l1 * xsq)
                 + 2 * l0 * (l2 * a2 * a2 + l1 * x1) + l0 * l0 * inv_k)
            e = l2 * a1 * a1 - l1 * x1 + l0 * inv_k
            f_ = l2 * b + l1 * x2
            g_ = l2 * a2 * a2 + l1 * x1 + l0 * inv_k

            for got, want in zip(forms, (E, F, G, e, f_, g_)):
                assert abs(got - want) <= 1e-10 * (1 + abs(want))


# ---------------------------------------------------------------------------
# Central identities at random regular points
# ---------------------------------------------------------------------------

def test_weingarten_relation_at_random_points():
    rng = random.Random(20240814)
    for (f, g, l) in SAMPLE_TRIPLES:
        hits = 0
        while hits < 25:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            frame = frame_at(*jets_for(f, g, l, z))
            if not frame.exists:
                continue
            if (not frame.regular or np.isnan(frame.c)
                    or abs(frame.psi) <= 1e-6):
                continue
            hits += 1
            rhs = (frame.c * (-frame.lam / (2 * frame.psi) + frame.psi / 2)
                   - frame.psi)
            assert abs(frame.h_over_k - rhs) <= 1e-9 * (1 + abs(frame.h_over_k))


def test_pde_characterization_at_random_points():
    rng = random.Random(20240815)
    for (f, g, l) in SAMPLE_TRIPLES:
        hits = 0
        while hits < 25:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            frame = frame_at(*jets_for(f, g, l, z))
            if not frame.exists:
                continue
            if not frame.regular or np.isnan(frame.c):
                continue
            hits += 1
            lap = frame.trace_v - 2 * frame.psi
            resid = frame.psi * lap - frame.c * frame.grad_sq
            assert abs(resid) <= 1e-9 * (1 + abs(frame.psi * lap))


def test_mu_harmonic():
    # flat 5-point Laplacian of mu = Re f vanishes for holomorphic f
    step = 1e-4
    for f_src in ("z", "z^2", "exp(z)"):
        f = parse_expr(f_src, "z")
        for z in SAMPLE_POINTS:
            def mu(w):
                return eval_jet2(f, w).value.real

            lap = (mu(z + step) + mu(z - step) + mu(z + 1j * step)
                   + mu(z - 1j * step) - 4 * mu(z)) / (step * step)
            assert abs(lap) <= 1e-6


def test_lambda_dominates_psi_squared():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            frame = frame_at(*jets_for(f, g, l, z))
            assert frame.lam >= frame.psi ** 2 - 1e-12


def test_point_frame_w_inverts_v():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            frame = frame_at(*jets_for(f, g, l, z))
            if frame.regular:
                v11, v12, v22 = frame.v
                v = np.array([[v11, v12], [v12, v22]])
                w = np.array([[v22, -v12], [-v12, v11]]) / frame.det_v
                assert np.max(np.abs(w @ v - np.eye(2))) <= 1e-9
