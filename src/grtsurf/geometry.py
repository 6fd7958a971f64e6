"""Pointwise surface quantities from the jets of f, g and the profile.

Everything here is a pure function of the 2-jets at parameter values
z = u1 + i*u2, elementwise over arrays of them.  The unit normal comes from
a holomorphic g through inverse stereographic projection; the sphere metric
it induces is conformal with factor L11 = 4|g'|^2 / (1+|g|^2)^2.  The
support function is h = ell(mu) with mu = Re f, and the matrix V (inverse
of the Weingarten matrix W) encodes the shape operator, curvatures and
fundamental forms.

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

    ``exists`` is False where no frame exists (|g'| at most eps, or T^2
    overflowed so that the metric factor is not positive and finite),
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
    v: np.ndarray               # (..., 3): V11, V12 = V21, V22
    trace_v: np.ndarray
    det_v: np.ndarray
    h_over_k: np.ndarray
    mean: np.ndarray
    gauss: np.ndarray
    forms: np.ndarray           # (..., 6): E, F, G, e, f, g


# ---------------------------------------------------------------------------
# Pointwise arithmetic.  The helpers before grid_frame take floats and
# complex numbers or numpy arrays of them alike, for surface and the tests;
# grid_frame applies them over arrays and turns the conditions under which
# they are undefined into masks.
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


def grid_frame(f_jet: Jet2, g_jet: Jet2, ell_jet: Jet2,
               eps: float = REGULARITY_EPS) -> GridFrame:
    """Every frame quantity that a mesh and verify need, elementwise over
    jets whose components are arrays of one shape."""
    with np.errstate(all="ignore"):
        gp2, t, l11 = _sphere(g_jet)
        # |g'| above eps and L11 positive and finite (T^2 did not overflow)
        exists = (gp2 > eps * eps) & (l11 > 0.0) & (l11 < math.inf)
        v11, v12, v22 = _v_entries(ell_jet, f_jet, g_jet, gp2, t)
        trace, det = v11 + v22, v11 * v22 - v12 * v12
        l, l1, l2 = ell_jet.value, ell_jet.d1, ell_jet.d2
        _, _, grad_sq, lam = _gradient(f_jet, ell_jet, l11)
        # C = ell ell''/ell'^2, undefined where ell' = 0 or |C| > PROFILE_RATIO_MAX
        c = l * l2 / (l1 * l1)
        c[~((l1 * l1 != 0.0) & (abs(l * l2) <= PROFILE_RATIO_MAX * l1 * l1)
            & np.isfinite(c))] = np.nan
        h_over_k = -0.5 * trace
        return GridFrame(
            exists=exists, regular=exists & (abs(det) > eps * (1.0 + trace * trace)),
            normal=np.stack(_unit_normal(g_jet.value, t), axis=-1),
            psi=l, grad_sq=grad_sq, lam=lam, c=c,
            v=np.stack((v11, v12, v22), axis=-1), trace_v=trace, det_v=det,
            h_over_k=h_over_k, mean=h_over_k / det, gauss=1.0 / det,
            forms=np.stack(_forms(v11, v12, v22, l11), axis=-1),
        )
