"""Pointwise surface quantities from the jets of f, g and the profile.

Everything here is a pure function of the 2-jets at parameter values
z = u1 + i*u2, elementwise over arrays of them, and each formula in the
jets of f, g and ell is written here once.  The unit normal comes from a
holomorphic g through inverse stereographic projection; the sphere metric
it induces is conformal with factor L11 = 4|g'|^2 / T^2, T = 1 + |g|^2.  The
support function is h = ell(mu) with mu = Re f, and the matrix V (inverse
of the Weingarten matrix W) encodes the shape operator, curvatures and
fundamental forms.  The surface point X has two equivalent
parameterizations: the closed form

    X = ell'(mu)/(2|g'|^2) * (T g' conj(f') - 2 g <g', g f'>, -2 <g', g f'>)
        + ell(mu) * (2g, 2-T)/T,

which grid_frame returns as GridFrame.x, and the direct sum
X = sum_j (h_,j / L_jj) N_,j + h N obtained by pushing the jets of g
through the normal map, :func:`direct_xyz`.  Their pointwise agreement is
one of the verification targets.  The paper's profile ratio
C = ell*ell''/ell'^2 is written once, in :func:`profile_ratio`, and
:func:`profile_class` names its special cases (Appell for C = 0,
TR-surface for C = 1).

All inner products of complex numbers use <a,b> = Re(a)Re(b) + Im(a)Im(b),
implemented once in :func:`inner`.
"""
from __future__ import annotations

import math
from typing import NamedTuple

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


def inner(a, b) -> float:
    """Euclidean inner product of complex numbers viewed as plane vectors."""
    return a.real * b.real + a.imag * b.imag


class GridFrame(NamedTuple):
    """The frame quantities a mesh and verify need, over an array of points.

    ``exists`` is False where no frame exists (|g'| at most eps, T^2
    overflowed so that the metric factor is not positive and finite, or a
    NaN jet of g), ``regular`` adds the det V threshold (which a NaN jet of
    f or ell fails), ``x`` is the closed-form point X, ``c`` is NaN where
    the profile ratio is undefined.
    Other values are unspecified where ``exists`` is False, and ``mean``
    and ``gauss`` where ``regular`` is False.  The fields after ``det_v``
    are None in a frame built without diagnostics: a mesh written to OBJ or
    PLY and the FD oracle read none of them.
    """

    exists: np.ndarray
    regular: np.ndarray
    normal: np.ndarray          # (..., 3)
    x: np.ndarray               # (..., 3)
    psi: np.ndarray
    trace_v: np.ndarray
    det_v: np.ndarray
    grad_sq: np.ndarray | None = None
    lam: np.ndarray | None = None
    c: np.ndarray | None = None
    v: np.ndarray | None = None           # (..., 3): V11, V12 = V21, V22
    h_over_k: np.ndarray | None = None
    mean: np.ndarray | None = None
    gauss: np.ndarray | None = None
    forms: np.ndarray | None = None       # (..., 6): E, F, G, e, f, g


# ---------------------------------------------------------------------------
# Pointwise arithmetic.  The private helpers take floats and complex
# numbers or numpy arrays of them alike, for the tests; grid_frame and
# direct_xyz apply them over arrays, and grid_frame turns the conditions
# under which they are undefined into masks.
# ---------------------------------------------------------------------------

def _sphere(g_jet) -> tuple:
    """|g'|^2, T = 1 + |g|^2 and the metric factor L11 = 4|g'|^2/T^2."""
    gp2 = inner(g_jet.d1, g_jet.d1)
    t = 1.0 + inner(g_jet.value, g_jet.value)
    return gp2, t, 4.0 * gp2 / (t * t)


def _unit_normal(g, t) -> tuple:
    return 2.0 * g.real / t, 2.0 * g.imag / t, (2.0 - t) / t


def _xi(f_jet, g_jet, t):
    g1 = g_jet.d1
    return f_jet.d1 * (g_jet.d2 / g1 - (2.0 / t) * g1 * g_jet.value.conjugate()) - f_jet.d2


def _v_entries(ell_jet, f_jet, g_jet, gp2, t) -> tuple:
    """The entries V11, V12 = V21, V22."""
    k = t * t / (4.0 * gp2)
    x = _xi(f_jet, g_jet, t)
    f1 = f_jet.d1
    l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
    re_f1 = inner(1.0, f1)
    re_if1 = inner(1.0, 1j * f1)
    v11 = k * (l2 * re_f1 * re_f1 - l1 * inner(1.0, x)) + l
    v12 = k * (l2 * inner(1.0, 0.5j * f1 * f1) + l1 * inner(1j, x))
    v22 = k * (l2 * re_if1 * re_if1 + l1 * inner(1.0, x)) + l
    return v11, v12, v22


def _closed_form_xyz(f_jet, g_jet, ell_jet, gp2, t) -> tuple:
    """The three coordinates of the closed-form X."""
    g, g1 = g_jet.value, g_jet.d1
    s = inner(g1, g * f_jet.d1)
    w = t * g1 * f_jet.d1.conjugate() - 2.0 * g * s
    l, l1 = ell_jet.value, ell_jet.d1
    a = l1 / (2.0 * gp2)
    return (a * w.real + l * 2.0 * g.real / t,
            a * w.imag + l * 2.0 * g.imag / t,
            a * (-2.0 * s) + l * (2.0 - t) / t)


def _gradient(f_jet, ell_jet, l11) -> tuple:
    """h_,1 and h_,2 of h = ell(Re f), |grad_L h|^2 and lam = |grad_L h|^2 + h^2."""
    l, l1 = ell_jet.value, ell_jet.d1
    h1 = l1 * inner(1.0, f_jet.d1)
    h2 = l1 * inner(1.0, 1j * f_jet.d1)
    grad_sq = (h1 * h1 + h2 * h2) / l11
    return h1, h2, grad_sq, grad_sq + l * l


def _forms(v11, v12, v22, l11) -> tuple:
    """E, F, G, e, f, g from the entries of V and the metric factor."""
    return ((v11 * v11 + v12 * v12) * l11, (v11 + v22) * v12 * l11,
            (v22 * v22 + v12 * v12) * l11, v11 * l11, v12 * l11, v22 * l11)


def direct_xyz(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2) -> np.ndarray:
    """The direct sum X = (h_,1 N_,1 + h_,2 N_,2) / L11 + h N elementwise
    over jet arrays, with x, y, z along a last axis; GridFrame.x is the
    closed form of the same point."""
    with np.errstate(all="ignore"):
        _, t, l11 = _sphere(g_jet)
        g, g1 = g_jet.value, g_jet.d1
        k = 2.0 / (t * t)
        q1 = inner(g, g1)
        q2 = inner(g, 1j * g1)
        w1 = t * g1 - 2.0 * g * q1
        w2 = t * (1j * g1) - 2.0 * g * q2
        h1, h2, _, _ = _gradient(f_jet, ell_jet, l11)
        l = ell_jet.value
        return np.stack([(h1 * (k * n1) + h2 * (k * n2)) / l11 + l * n
                         for n1, n2, n in zip((w1.real, w1.imag, -2.0 * q1),
                                              (w2.real, w2.imag, -2.0 * q2),
                                              _unit_normal(g, t))], axis=-1)


def profile_ratio(ell_jet: Jet2) -> np.ndarray:
    """The paper's C = ell*ell''/ell'^2 elementwise over a jet of arrays,
    NaN where ell fails, ell'^2 is 0 (also by underflow) or C is not finite."""
    with np.errstate(all="ignore"):
        d1_sq = ell_jet.d1 * ell_jet.d1
        c = ell_jet.value * ell_jet.d2 / d1_sq
    c[(d1_sq == 0.0) | ~np.isfinite(c)] = np.nan
    return c


def profile_class(cs: list[float]) -> tuple[bool, float | None, str | None]:
    """Whether the defined values ``cs`` of C are constant (within 1e-9),
    the constant, and its class: Appell for C = 0, TR-surface for C = 1."""
    if not cs or max(cs) - min(cs) >= 1e-9:
        return False, None, None
    value = cs[0] + 0.0  # folds away -0.0
    for label, target in (("Appell", 0.0), ("TR-surface", 1.0)):
        if abs(value - target) <= 1e-9:
            return True, value, label
    return True, value, None


def grid_frame(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
               eps: float = REGULARITY_EPS, diagnostics: bool = True) -> GridFrame:
    """Every frame quantity that a mesh and verify need, elementwise over
    jets whose components are arrays of one shape; without ``diagnostics``
    only the fields up to det_v, and the others are not computed."""
    with np.errstate(all="ignore"):
        gp2, t, l11 = _sphere(g_jet)
        # |g'| above eps and L11 positive and finite (T^2 did not overflow)
        exists = (gp2 > eps * eps) & (l11 > 0.0) & (l11 < math.inf)
        v11, v12, v22 = _v_entries(ell_jet, f_jet, g_jet, gp2, t)
        trace, det = v11 + v22, v11 * v22 - v12 * v12
        frame = GridFrame(
            exists=exists, regular=exists & (abs(det) > eps * (1.0 + trace * trace)),
            normal=np.stack(_unit_normal(g_jet.value, t), axis=-1),
            x=np.stack(_closed_form_xyz(f_jet, g_jet, ell_jet, gp2, t), axis=-1),
            psi=ell_jet.value, trace_v=trace, det_v=det)
        if not diagnostics:
            return frame
        l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
        _, _, grad_sq, lam = _gradient(f_jet, ell_jet, l11)
        # the checks' policy: C is also undefined where |C| > PROFILE_RATIO_MAX
        c = profile_ratio(ell_jet)
        c[~(abs(l * l2) <= PROFILE_RATIO_MAX * l1 * l1)] = np.nan
        h_over_k = -0.5 * trace
        return frame._replace(
            grad_sq=grad_sq, lam=lam, c=c, v=np.stack((v11, v12, v22), axis=-1),
            h_over_k=h_over_k, mean=h_over_k / det, gauss=1.0 / det,
            forms=np.stack(_forms(v11, v12, v22, l11), axis=-1))
