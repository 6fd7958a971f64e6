"""Geometry module: frame, V matrix, scalar fields, fundamental forms.

The independent oracle for the V matrix rebuilds it from finite differences
of the support function h = ell(Re f) and the closed-form Christoffel
symbols, i.e. through the defining formula rather than through the jet
expressions under test.
"""
import math
import random

import numpy as np
import pytest

from grtsurf.expr import Jet2, eval_jet2, parse_expr
from grtsurf.geometry import (DegenerateProfileError, SingularPointError,
                              fundamental_forms, gauss_map, inner,
                              point_frame, scalar_fields, v_matrix, xi)

UNIT_JET = Jet2(0j, 1 + 0j, 0j)


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


# ---------------------------------------------------------------------------
# Gauss frame
# ---------------------------------------------------------------------------

def test_gauss_map_at_origin():
    frame = gauss_map(UNIT_JET)
    assert np.allclose(frame.normal, [0, 0, 1], atol=1e-15)
    assert frame.l11 == 4.0
    assert frame.t == 1.0
    assert frame.christoffel == (0.0, 0.0, 0.0, 0.0)


def test_gauss_map_at_one_plus_i():
    frame = gauss_map(Jet2(1 + 1j, 1 + 0j, 0j))
    assert np.allclose(frame.normal, [2 / 3, 2 / 3, -1 / 3], atol=1e-15)
    assert frame.t == 3.0
    assert abs(frame.l11 - 4 / 9) < 1e-15


def test_gauss_map_unit_modulus_kills_third_component():
    frame = gauss_map(Jet2(1 + 0j, 1 + 0j, 0j))
    assert np.allclose(frame.normal, [1, 0, 0], atol=1e-15)


def test_gauss_map_singular_when_g_prime_vanishes():
    with pytest.raises(SingularPointError):
        gauss_map(Jet2(0j, 0j, 2 + 0j))


def test_normal_is_unit_everywhere():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            _, g_jet, _ = jets_for(f, g, l, z)
            frame = gauss_map(g_jet)
            assert abs(np.dot(frame.normal, frame.normal) - 1.0) <= 1e-12


def test_conformality_by_finite_differences():
    # <N_,i, N_,j> must reproduce l11 * delta_ij
    step = 1e-4
    g = parse_expr("z^2+z", "z")
    for z in SAMPLE_POINTS:
        frame = gauss_map(eval_jet2(g, z))

        def normal(w):
            return gauss_map(eval_jet2(g, w)).normal

        n1 = (normal(z + step) - normal(z - step)) / (2 * step)
        n2 = (normal(z + 1j * step) - normal(z - 1j * step)) / (2 * step)
        assert abs(np.dot(n1, n1) - frame.l11) <= 1e-5 * (1 + frame.l11)
        assert abs(np.dot(n2, n2) - frame.l11) <= 1e-5 * (1 + frame.l11)
        assert abs(np.dot(n1, n2)) <= 1e-5 * (1 + frame.l11)


def test_christoffel_symbols_match_metric_derivatives():
    # for a conformal metric: G^1_11 = d_1(log l11)/2, G^2_22 = d_2(log l11)/2
    step = 1e-5
    g = parse_expr("exp(z)", "z")
    for z in SAMPLE_POINTS:
        frame = gauss_map(eval_jet2(g, z))

        def log_l11(w):
            return math.log(gauss_map(eval_jet2(g, w)).l11)

        d1 = (log_l11(z + step) - log_l11(z - step)) / (2 * step)
        d2 = (log_l11(z + 1j * step) - log_l11(z - 1j * step)) / (2 * step)
        c111, c222, c211, c122 = frame.christoffel
        assert abs(c111 - d1 / 2) <= 1e-6 * (1 + abs(c111))
        assert abs(c222 - d2 / 2) <= 1e-6 * (1 + abs(c222))
        assert c211 == -c222
        assert c122 == -c111


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------

def test_xi_zero_for_identity_pair_at_origin():
    assert xi(UNIT_JET, UNIT_JET, 1.0) == 0j


def test_xi_identity_pair_at_one():
    value = xi(Jet2(1 + 0j, 1 + 0j, 0j), Jet2(1 + 0j, 1 + 0j, 0j), 2.0)
    assert abs(value - (-1 + 0j)) < 1e-15


def test_xi_reduces_to_second_derivative_term():
    # f' = 0 leaves only -f''
    f_jet = Jet2(0j, 0j, 3 - 2j)
    g_jet = Jet2(0.5 + 0.5j, 1 + 1j, 0.3j)
    t = 1 + inner(g_jet.value, g_jet.value)
    assert xi(f_jet, g_jet, t) == -(3 - 2j)


# ---------------------------------------------------------------------------
# V matrix
# ---------------------------------------------------------------------------

def test_v_matrix_frozen_example():
    v, trace = v_matrix(Jet2(1.0, 1.0, 2.0), UNIT_JET, UNIT_JET)
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
    frame = gauss_map(eval_jet2(g, z))
    c111, c222, c211, c122 = frame.christoffel
    # remaining symbols for the conformal metric
    c112 = c222  # G^1_12 = G^1_21
    c212 = c111  # G^2_12 = G^2_21
    l11 = frame.l11
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
    with pytest.raises(SingularPointError, match="metric factor"):
        point_frame(UNIT_JET, g_jet, Jet2(1.0, 1.0, 2.0))
    with pytest.raises(SingularPointError):
        gauss_map(g_jet)


def test_v_matrix_singular_when_g_prime_vanishes():
    with pytest.raises(SingularPointError):
        v_matrix(Jet2(1.0, 1.0, 2.0), UNIT_JET, Jet2(0j, 0j, 2 + 0j))


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

def test_scalar_fields_frozen_example():
    ell_jet = Jet2(1.0, 1.0, 2.0)
    v, _ = v_matrix(ell_jet, UNIT_JET, UNIT_JET)
    s = scalar_fields(ell_jet, UNIT_JET, UNIT_JET, v)
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
            f_jet, g_jet, ell_jet = jets_for(f_src, g_src, "t", z)
            v, _ = v_matrix(ell_jet, f_jet, g_jet)
            s = scalar_fields(ell_jet, f_jet, g_jet, v)
            assert s.c == 0.0
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
    ell_jet = Jet2(1.0, 0.0, 2.0)  # ell' = 0
    v, _ = v_matrix(ell_jet, UNIT_JET, UNIT_JET)
    with pytest.raises(DegenerateProfileError):
        scalar_fields(ell_jet, UNIT_JET, UNIT_JET, v)


def test_singular_det_v_raises():
    # V = 0 matrix: profile ell = 0 with all derivatives vanishing except
    # a combination producing det V = 0
    ell_jet = Jet2(0.0, 1.0, 0.0)
    f_jet = Jet2(0j, 0j, 0j)  # f constant -> V = ell * I = 0
    with pytest.raises(SingularPointError):
        v, _ = v_matrix(ell_jet, f_jet, UNIT_JET)
        scalar_fields(ell_jet, f_jet, UNIT_JET, v)


# ---------------------------------------------------------------------------
# Fundamental forms
# ---------------------------------------------------------------------------

def test_fundamental_forms_frozen_example():
    forms = fundamental_forms(np.array([[1.5, 0.0], [0.0, 1.0]]), 4.0)
    assert forms == (9.0, 0.0, 4.0, 6.0, 0.0, 4.0)


def test_fundamental_forms_umbilic():
    c, l11 = 2.5, 0.3
    forms = fundamental_forms(c * np.eye(2), l11)
    assert forms.E == forms.G == pytest.approx(c * c * l11, rel=1e-15)
    assert forms.F == 0.0
    assert forms.e == forms.g == pytest.approx(c * l11, rel=1e-15)
    assert forms.f == 0.0


def test_det_identity():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f, g, l, z)
            frame = gauss_map(g_jet)
            v, _ = v_matrix(ell_jet, f_jet, g_jet)
            forms = fundamental_forms(v, frame.l11)
            det_v = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
            lhs = forms.E * forms.G - forms.F * forms.F
            rhs = det_v * det_v * frame.l11 * frame.l11
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_fundamental_forms_match_expanded_expressions():
    # fully expanded coefficient formulas agree with the V*l11 products
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            f_jet, g_jet, ell_jet = jets_for(f, g, l, z)
            frame = gauss_map(g_jet)
            v, _ = v_matrix(ell_jet, f_jet, g_jet)
            forms = fundamental_forms(v, frame.l11)

            t = frame.t
            gp2 = inner(g_jet.d1, g_jet.d1)
            k = t * t / (4 * gp2)
            x = xi(f_jet, g_jet, t)
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
            try:
                frame = point_frame(*jets_for(f, g, l, z))
            except SingularPointError:
                continue
            if (not frame.regular or frame.degenerate_profile
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
            try:
                frame = point_frame(*jets_for(f, g, l, z))
            except SingularPointError:
                continue
            if not frame.regular or frame.degenerate_profile:
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
            frame = point_frame(*jets_for(f, g, l, z))
            assert frame.lam >= frame.psi ** 2 - 1e-12


def test_point_frame_w_inverts_v():
    for (f, g, l) in SAMPLE_TRIPLES:
        for z in SAMPLE_POINTS:
            frame = point_frame(*jets_for(f, g, l, z))
            if frame.regular:
                assert np.max(np.abs(frame.w @ frame.v - np.eye(2))) <= 1e-9
