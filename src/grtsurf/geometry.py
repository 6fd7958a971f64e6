"""Pointwise surface quantities from the jets of f, g and the profile.

Everything here is a pure function of 2-jets at a single parameter value
z = u1 + i*u2.  The unit normal comes from a holomorphic g through inverse
stereographic projection; the sphere metric it induces is conformal with
factor L11 = 4|g'|^2 / (1+|g|^2)^2.  The support function is h = ell(mu)
with mu = Re f, and the matrix V (inverse of the Weingarten matrix W)
encodes the shape operator, curvatures and fundamental forms.

All inner products of complex numbers use <a,b> = Re(a)Re(b) + Im(a)Im(b),
implemented once in :func:`inner`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .expr import Jet2

# A point is regular when |g'| exceeds this and |det V| exceeds
# REGULARITY_EPS * (1 + trace(V)^2); scale-aware so the filter stays
# meaningful across magnitudes.
REGULARITY_EPS = 1e-10
# Points with |psi| below this are skipped by checks that divide by psi.
PSI_EPS = 1e-6
# C = ell*ell''/ell'^2 counts as undefined beyond this: double precision
# cannot resolve the Weingarten relation once roundoff is amplified by C.
PROFILE_RATIO_MAX = 1e6


class SingularPointError(Exception):
    """g' vanishes (or det V is numerically zero) at the requested point."""


class DegenerateProfileError(Exception):
    """The profile ratio C = ell*ell''/ell'^2 is undefined: ell'(mu) = 0,
    or |C| would exceed PROFILE_RATIO_MAX."""


def inner(a, b) -> float:
    """Euclidean inner product of complex numbers viewed as plane vectors."""
    return a.real * b.real + a.imag * b.imag


@dataclass(frozen=True)
class GaussFrame:
    """Unit normal, conformal metric factor and Christoffel symbols at a point.

    ``christoffel`` holds (G^1_11, G^2_22, G^2_11, G^1_22); the remaining
    nonzero symbols are G^1_12 = G^1_21 = G^2_22 and G^2_12 = G^2_21 = G^1_11.
    """

    normal: np.ndarray
    l11: float
    t: float
    christoffel: tuple[float, float, float, float]


class FundamentalForms(NamedTuple):
    E: float
    F: float
    G: float
    e: float
    f: float
    g: float


@dataclass(frozen=True)
class ScalarFields:
    psi: float
    grad_sq: float
    lam: float
    c: float
    h_over_k: float
    mean: float
    gauss: float


@dataclass(frozen=True)
class PointFrame:
    """Every pointwise quantity derivable from the three jets, with flags.

    ``c``, ``w``, ``mean`` and ``gauss`` are None at degenerate-profile or
    irregular points; ``regular`` reflects the scale-aware det V threshold.
    """

    mu: float
    t: float
    l11: float
    normal: np.ndarray
    christoffel: tuple[float, float, float, float]
    xi: complex
    v: np.ndarray
    trace_v: float
    det_v: float
    w: Optional[np.ndarray]
    psi: float
    h1: float
    h2: float
    grad_sq: float
    lam: float
    c: Optional[float]
    h_over_k: float
    mean: Optional[float]
    gauss: Optional[float]
    forms: FundamentalForms
    regular: bool
    degenerate_profile: bool


class GridFrame(NamedTuple):
    """The frame quantities a mesh needs, over an array of points.

    Masks replace the exceptions and None fields of :class:`PointFrame`:
    ``exists`` is False where point_frame raises SingularPointError,
    ``regular`` adds the det V threshold, ``c`` is NaN where the profile
    ratio is undefined.  Other values are unspecified where ``exists`` is
    False, and ``mean`` and ``gauss`` where ``regular`` is False.
    """

    exists: np.ndarray
    regular: np.ndarray
    normal: np.ndarray          # (..., 3)
    psi: np.ndarray
    grad_sq: np.ndarray
    lam: np.ndarray
    c: np.ndarray
    trace_v: np.ndarray
    det_v: np.ndarray
    h_over_k: np.ndarray
    mean: np.ndarray
    gauss: np.ndarray


# ---------------------------------------------------------------------------
# Pointwise arithmetic.  Every formula below takes floats and complex numbers
# or numpy arrays of them alike.  The scalar entry points further down
# (gauss_map, v_matrix, point_frame, ...) add the raising guards; grid_frame,
# the array entry point, turns the same conditions into masks.
# ---------------------------------------------------------------------------

def _sphere(g_jet) -> tuple:
    """|g'|^2, T = 1 + |g|^2 and the metric factor L11 = 4|g'|^2/T^2."""
    gp2 = inner(g_jet.d1, g_jet.d1)
    t = 1.0 + inner(g_jet.value, g_jet.value)
    return gp2, t, 4.0 * gp2 / (t * t)


def _frame_exists(gp2, l11, eps):
    """|g'| above ``eps`` and L11 positive and finite (T^2 did not overflow)."""
    return (gp2 > eps * eps) & (l11 > 0.0) & (l11 < math.inf)


def _unit_normal(g, t) -> tuple:
    return 2.0 * g.real / t, 2.0 * g.imag / t, (2.0 - t) / t


def _xi(f_jet, g_jet, t):
    g1 = g_jet.d1
    return f_jet.d1 * (g_jet.d2 / g1 - (2.0 / t) * g1 * g_jet.value.conjugate()) - f_jet.d2


def _v_entries(ell_jet, f_jet, g_jet, gp2, t) -> tuple:
    """xi and the entries V11, V12 = V21, V22."""
    k = t * t / (4.0 * gp2)
    x = _xi(f_jet, g_jet, t)
    f1 = f_jet.d1
    l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
    re_f1 = inner(1.0, f1)
    re_if1 = inner(1.0, 1j * f1)
    v11 = k * (l2 * re_f1 * re_f1 - l1 * inner(1.0, x)) + l
    v12 = k * (l2 * inner(1.0, 0.5j * f1 * f1) + l1 * inner(1j, x))
    v22 = k * (l2 * re_if1 * re_if1 + l1 * inner(1.0, x)) + l
    return x, v11, v12, v22


def _trace_det(v11, v12, v21, v22) -> tuple:
    return v11 + v22, v11 * v22 - v12 * v21


def _curvatures(h_over_k, det_v) -> tuple:
    """Mean and Gauss curvature: H = (H/K) / det V and K = 1 / det V."""
    return h_over_k / det_v, 1.0 / det_v


def _gradient(f_jet, ell_jet, l11) -> tuple:
    """h_,1 and h_,2 of h = ell(Re f), |grad_L h|^2 and lam = |grad_L h|^2 + h^2."""
    l, l1 = ell_jet.value, ell_jet.d1
    h1 = l1 * inner(1.0, f_jet.d1)
    h2 = l1 * inner(1.0, 1j * f_jet.d1)
    grad_sq = (h1 * h1 + h2 * h2) / l11
    return h1, h2, grad_sq, grad_sq + l * l


def _profile_ratio_defined(l, l1, l2):
    """ell' != 0 and |C| within PROFILE_RATIO_MAX."""
    return (l1 * l1 != 0.0) & (abs(l * l2) <= PROFILE_RATIO_MAX * l1 * l1)


def _profile_ratio_value(l, l1, l2):
    return l * l2 / (l1 * l1)


def _profile_ratio(l: float, l1: float, l2: float) -> Optional[float]:
    """C = l*l2/l1^2, or None where it is undefined or unresolvable."""
    if not _profile_ratio_defined(l, l1, l2):
        return None
    c = _profile_ratio_value(l, l1, l2)
    return c if math.isfinite(c) else None


def _checked_sphere(g_jet: Jet2, eps: float) -> tuple[float, float, float]:
    gp2, t, l11 = _sphere(g_jet)
    if not _frame_exists(gp2, l11, eps):
        if gp2 <= eps * eps:
            raise SingularPointError(
                f"g' = {g_jet.d1!r} is below the regularity threshold {eps:g}")
        raise SingularPointError(
            f"metric factor L11 = {l11!r} is not positive and finite (T = {t!r})")
    return gp2, t, l11


def _gauss_frame(g_jet: Jet2, gp2: float, t: float, l11: float) -> GaussFrame:
    g, g1, g2 = g_jet.value, g_jet.d1, g_jet.d2
    c111 = (t * inner(g1, g2) - 2.0 * gp2 * inner(g, g1)) / (t * gp2)
    c222 = (t * inner(g1, 1j * g2) - 2.0 * gp2 * inner(g, 1j * g1)) / (t * gp2)
    return GaussFrame(normal=np.array(_unit_normal(g, t)), l11=l11, t=t,
                      christoffel=(c111, c222, -c222, -c111))


def gauss_map(g_jet: Jet2, eps: float = REGULARITY_EPS) -> GaussFrame:
    """Unit normal N = (2g, 1-|g|^2)/(1+|g|^2) with metric and symbols.

    Requires g' != 0 and a finite T^2.  The metric factor is
    l11 = 4|g'|^2/T^2 with T = 1+|g|^2; the metric is conformal (L12 = 0,
    L22 = L11).
    """
    return _gauss_frame(g_jet, *_checked_sphere(g_jet, eps))


def xi(f_jet: Jet2, g_jet: Jet2, t: float, eps: float = REGULARITY_EPS) -> complex:
    """The combination f'(g''/g' - (2/T) g' conj(g)) - f''."""
    _checked_sphere(g_jet, eps)
    return _xi(f_jet, g_jet, t)


def v_matrix(ell_jet: Jet2, f_jet: Jet2, g_jet: Jet2,
             eps: float = REGULARITY_EPS) -> tuple[np.ndarray, float]:
    """Symmetric 2x2 matrix V built from the three jets, plus its trace.

    The returned trace equals the closed form ell''|f'|^2 T^2/(4|g'|^2) + 2*ell
    up to roundoff; V12 = V21 exactly by construction.
    """
    gp2, t, _ = _checked_sphere(g_jet, eps)
    _, v11, v12, v22 = _v_entries(ell_jet, f_jet, g_jet, gp2, t)
    return np.array([[v11, v12], [v12, v22]]), v11 + v22


def is_regular(det_v, trace_v, eps: float = REGULARITY_EPS):
    return abs(det_v) > eps * (1.0 + trace_v * trace_v)


def scalar_fields(ell_jet: Jet2, f_jet: Jet2, g_jet: Jet2, v: np.ndarray,
                  eps: float = REGULARITY_EPS) -> ScalarFields:
    """Support function, squared distance, profile ratio C and curvatures.

    psi = ell(mu); lam = |grad_L h|^2 + psi^2; C = ell*ell''/ell'^2;
    H/K = -trace(V)/2; K = 1/det V and H = -trace(V)/(2 det V), signs fixed
    so that the sphere-map Laplacian relation holds as stated.
    """
    _, _, l11 = _checked_sphere(g_jet, eps)
    l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
    _, _, grad_sq, lam = _gradient(f_jet, ell_jet, l11)
    trace, det = _trace_det(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
    c = _profile_ratio(l, l1, l2)
    if c is None:
        raise DegenerateProfileError(
            f"ell' = {l1!r}: C undefined or beyond {PROFILE_RATIO_MAX:g}")
    if not is_regular(det, trace, eps):
        raise SingularPointError(f"det V = {det:g} below regularity threshold")
    h_over_k = -0.5 * trace
    mean, gauss = _curvatures(h_over_k, det)
    return ScalarFields(psi=l, grad_sq=grad_sq, lam=lam, c=c,
                        h_over_k=h_over_k, mean=mean, gauss=gauss)


def fundamental_forms(v: np.ndarray, l11: float) -> FundamentalForms:
    """First and second fundamental form coefficients from V and the metric.

    E = (V11^2+V12^2) l11, F = (V11+V22) V12 l11, G = (V22^2+V12^2) l11,
    (e, f, g) = (V11, V12, V22) l11.  Consequently EG - F^2 = (det V)^2 l11^2.
    """
    v11, v12, v22 = v[0, 0], v[0, 1], v[1, 1]
    return FundamentalForms(
        E=(v11 * v11 + v12 * v12) * l11,
        F=(v11 + v22) * v12 * l11,
        G=(v22 * v22 + v12 * v12) * l11,
        e=v11 * l11,
        f=v12 * l11,
        g=v22 * l11,
    )


def point_frame(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
                eps: float = REGULARITY_EPS) -> PointFrame:
    """Assemble every pointwise quantity, tolerating degenerate spots.

    Raises :class:`SingularPointError` only when no frame exists at all:
    g' is below ``eps``, or T^2 overflowed so that the metric factor is not
    positive and finite.  Small det V and ell' = 0 are reported via flags
    and None fields instead.
    """
    gp2, t, l11 = _checked_sphere(g_jet, eps)
    frame = _gauss_frame(g_jet, gp2, t, l11)
    x, v11, v12, v22 = _v_entries(ell_jet, f_jet, g_jet, gp2, t)
    v = np.array([[v11, v12], [v12, v22]])
    trace, det = _trace_det(v11, v12, v12, v22)
    l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
    h1, h2, grad_sq, lam = _gradient(f_jet, ell_jet, l11)
    c = _profile_ratio(l, l1, l2)
    regular = is_regular(det, trace, eps)
    h_over_k = -0.5 * trace
    w = mean = gauss = None
    if regular:
        w = np.array([[v22, -v12], [-v12, v11]]) / det
        mean, gauss = _curvatures(h_over_k, det)
    return PointFrame(
        mu=inner(1.0, f_jet.value), t=t, l11=l11,
        normal=frame.normal, christoffel=frame.christoffel, xi=x,
        v=v, trace_v=trace, det_v=det, w=w,
        psi=l, h1=h1, h2=h2, grad_sq=grad_sq, lam=lam, c=c,
        h_over_k=h_over_k, mean=mean, gauss=gauss,
        forms=fundamental_forms(v, l11),
        regular=regular, degenerate_profile=c is None,
    )


def grid_frame(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
               eps: float = REGULARITY_EPS) -> GridFrame:
    """The quantities of :func:`point_frame` that a mesh needs, elementwise
    over jets whose components are arrays of one shape."""
    with np.errstate(all="ignore"):
        gp2, t, l11 = _sphere(g_jet)
        exists = _frame_exists(gp2, l11, eps)
        _, v11, v12, v22 = _v_entries(ell_jet, f_jet, g_jet, gp2, t)
        trace, det = _trace_det(v11, v12, v12, v22)
        l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
        _, _, grad_sq, lam = _gradient(f_jet, ell_jet, l11)
        c = _profile_ratio_value(l, l1, l2)
        c[~(_profile_ratio_defined(l, l1, l2) & np.isfinite(c))] = np.nan
        h_over_k = -0.5 * trace
        mean, gauss = _curvatures(h_over_k, det)
        return GridFrame(
            exists=exists, regular=exists & is_regular(det, trace, eps),
            normal=np.stack(_unit_normal(g_jet.value, t), axis=-1),
            psi=l, grad_sq=grad_sq, lam=lam, c=c, trace_v=trace, det_v=det,
            h_over_k=h_over_k, mean=mean, gauss=gauss,
        )
