"""Shared test helpers: the array path at one point, and a grammar-driven
random expression sampler.

The package evaluates frames and surface points over arrays only.  A test
reaches one point by wrapping each part of its scalar jets in a one-element
array (``point_arrays``) and taking the one value of ``geometry.grid_frame``
(``frame_at``; its ``x`` is the closed-form point), ``geometry.direct_xyz``
(``direct_at``) or the profile of ``geometry.rotation_profile`` turned by u2
(``rotation_at``).

Samples are (source, ast, point) triples accepted only when the expression
and its first two symbolic derivatives evaluate cleanly at the point, every
finite-difference stencil offset evaluates, and all jet magnitudes through
the fourth derivative stay below a cap.  The cap keeps central-difference
roundoff and truncation well inside the comparison tolerances; rejection
keeps points out of singular neighborhoods (division poles, the log cut).
"""
from __future__ import annotations

import random

import numpy as np

from grtsurf import expr as E
from grtsurf import geometry

FD_STEP_D1 = 1e-5
FD_STEP_D2 = 3e-4
MAG_CAP = 50.0


def point_arrays(*jets):
    """The scalar jets, each part wrapped in a one-element array."""
    return tuple(E.Jet2(np.array([jet.value]), np.array([jet.d1]), np.array([jet.d2]))
                 for jet in jets)


def frame_at(f_jet, g_jet, ell_jet, eps=geometry.REGULARITY_EPS):
    """geometry.grid_frame at the one point of the scalar jets, each field
    taken at that point: ``exists`` is False where no frame exists."""
    frame = geometry.grid_frame(*point_arrays(f_jet, g_jet, ell_jet), eps)
    return geometry.GridFrame(*(field[0] for field in frame))


def direct_at(jets):
    """geometry.direct_xyz at the one point of the scalar jets."""
    return geometry.direct_xyz(*point_arrays(*jets))[0]


def rotation_at(a, b, ell, u1, u2):
    """The rotation family X_ab at the one point (u1, u2), with mu = a*u1 + b;
    EvalError where ell fails at mu."""
    jet = E.eval_jet2(ell, a * u1 + b, variable="t")
    m, n = geometry.rotation_profile(a, *point_arrays(jet), np.array([u1]))
    u2 = np.array([u2])
    return np.stack((m * np.cos(u2), m * np.sin(u2), n), axis=-1)[0]


_NUMBERS = ("1", "2", "3", "0.5", "1.5", "0.25", "2.5", "4")
_COMPLEX_CONSTS = ("pi", "e", "i")
_REAL_CONSTS = ("pi", "e")


def gen_source(rng: random.Random, depth: int, real: bool = False,
               var: str | None = None) -> str:
    """Random source string generated from the expression grammar."""
    var = var or ("t" if real else "z")
    if depth <= 0:
        r = rng.random()
        if r < 0.55:
            return var
        if r < 0.9:
            return rng.choice(_NUMBERS)
        return rng.choice(_REAL_CONSTS if real else _COMPLEX_CONSTS)

    def sub() -> str:
        return gen_source(rng, depth - 1, real, var)

    r = rng.random()
    if r < 0.16:
        return f"({sub()}+{sub()})"
    if r < 0.32:
        return f"({sub()}-{sub()})"
    if r < 0.50:
        return f"({sub()}*{sub()})"
    if r < 0.60:
        return f"({sub()}/{sub()})"
    if r < 0.68:
        return f"(-{sub()})"
    if r < 0.78:
        return f"({sub()})^{rng.randint(2, 4)}"
    fn = rng.choice(E.FUNCTIONS)
    return f"{fn}({sub()})"


def draw_sample(rng: random.Random, real: bool = False):
    """One accepted (source, ast, point) sample; resamples until clean."""
    var = "t" if real else "z"
    while True:
        src = gen_source(rng, depth=rng.randint(1, 3), real=real)
        if real:
            point = rng.uniform(-0.8, 0.8)
        else:
            point = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        # keep FD stencils away from the log branch cut and the origin
        if not real and "log" in src and abs(point.imag) < 1e-3 and point.real < 1e-3:
            continue
        try:
            node = E.parse_expr(src, var, real=real)
            d1 = E.differentiate(node)
            d2 = E.differentiate(d1)
            jets = [E.eval_jet2(n, point, variable=var) for n in (node, d1, d2)]
            if real:
                offsets = [FD_STEP_D1, -FD_STEP_D1, FD_STEP_D2, -FD_STEP_D2]
            else:
                offsets = [FD_STEP_D1, -FD_STEP_D1, 1j * FD_STEP_D1,
                           -1j * FD_STEP_D1, FD_STEP_D2, -FD_STEP_D2]
            for n in (node, d1):
                for off in offsets:
                    E.eval_jet2(n, point + off, variable=var)
        except E.EvalError:
            continue
        mags = [abs(c) for j in jets for c in (j.value, j.d1, j.d2)]
        if max(mags) > MAG_CAP:
            continue
        return src, node, point


def central_d1(node, point, var, h=FD_STEP_D1):
    return (E.eval_jet2(node, point + h, variable=var).value
            - E.eval_jet2(node, point - h, variable=var).value) / (2 * h)


def central_d2(node, point, var, h=FD_STEP_D2):
    return (E.eval_jet2(node, point + h, variable=var).value
            - 2 * E.eval_jet2(node, point, variable=var).value
            + E.eval_jet2(node, point - h, variable=var).value) / (h * h)
