"""The jobs of each workload, made from the seed.

A job is the argv of one ``grtsurf`` command, exactly as a user would type
it, plus what the output checks need to know about it.  The seed fixes the
shift of each job's window (``mesh`` and ``rotate``) and the order of the
jobs in every round; it never changes which jobs a round holds, so every
seed does the same amount of work up to the shifted windows.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("mesh", "verify", "rotate")

MESH_N = 128
VERIFY_N = 64
# rotate --cross-check re-checks the surface on min(n, 33) points per axis.
CROSS_CHECK_N = 33
# Windows move by whole grid cells, at most this many either way, so the
# lattice of sample points never lands on a singularity (u1 = -0.5 in the
# masked case, u1 = 0 for fig5, z = 0 for the mixed case).
MAX_SHIFT_CELLS = 3


@dataclass(frozen=True)
class Job:
    """One grtsurf command of a workload."""

    case: str               # key into checks.SPECS
    argv: tuple[str, ...]
    out: str                # output path, relative to the checkout root
    u1: tuple[float, float]
    u2: tuple[float, float]
    n: int
    points: int             # grid points the command samples or checks

    @property
    def fmt(self) -> str:
        return self.out.rsplit(".", 1)[1]


# (case, generate flags, output format); formats take turns obj, ply, json.
_MESH_CASES = (
    ("fig1", ("--preset", "fig1"), "obj"),
    ("fig2", ("--preset", "fig2"), "ply"),
    ("masked", ("--f", "z", "--g", "z", "--ell", "log(t+0.5)"), "json"),
    ("mixed", ("--f", "exp(z)*sin(z)+z^3", "--g", "cosh(z)/(z^2+3)",
               "--ell", "exp(t)*cos(t)+2"), "obj"),
    ("fig1-direct", ("--preset", "fig1", "--method", "direct"), "ply"),
)

# The acceptance sweeps; the window stays fixed (see README, "verify").
VERIFY_CASES = (
    ("verify-fig1", ("--f", "z", "--g", "z", "--ell", "t^2+t+1")),
    ("verify-fig2", ("--f", "z", "--g", "z", "--ell", "cos(t)")),
    ("verify-exp", ("--f", "z^2", "--g", "exp(z)", "--ell", "t^2+1")),
)

_ROTATE_CASES = ("fig3", "fig4", "fig5")

# Every expression a workload parses; set-up time parses these.
EXPRESSIONS = {
    "mesh": (("z", "z"), ("t^2+t+1", "t"), ("cos(t)", "t"),
             ("exp(z)*sin(z)+z^3", "z"), ("cosh(z)/(z^2+3)", "z"),
             ("exp(t)*cos(t)+2", "t"), ("log(t+0.5)", "t")),
    "verify": (("z", "z"), ("t^2+t+1", "t"), ("cos(t)", "t"), ("z^2", "z"),
               ("exp(z)", "z"), ("t^2+1", "t")),
    "rotate": (("t^2+t+1", "t"), ("sinh(t)", "t")),
}


def _window(rng: random.Random, lo: float, hi: float, n: int) -> tuple[float, float]:
    shift = rng.randint(-MAX_SHIFT_CELLS, MAX_SHIFT_CELLS) * (hi - lo) / (n - 1)
    return lo + shift, hi + shift


def _range_arg(window: tuple[float, float]) -> str:
    return f"{window[0]!r}:{window[1]!r}"


def make(workload: str, seed: int, out_dir: str) -> list[Job]:
    """The jobs of one round, in a fixed order; rounds shuffle them."""
    rng = random.Random(seed)
    jobs = []
    if workload == "mesh":
        for case, flags, fmt in _MESH_CASES:
            u1 = _window(rng, -1.0, 1.0, MESH_N)
            u2 = _window(rng, -math.pi, math.pi, MESH_N)
            out = f"{out_dir}/{case}.{fmt}"
            argv = ("generate", *flags, "--u1", _range_arg(u1),
                    "--u2", _range_arg(u2), "--n", str(MESH_N), "--out", out)
            jobs.append(Job(case, argv, out, u1, u2, MESH_N, MESH_N * MESH_N))
    elif workload == "verify":
        for case, flags in VERIFY_CASES:
            out = f"{out_dir}/{case}.json"
            argv = ("verify", *flags, "--u1", "-1:1", "--u2", "-1:1",
                    "--n", str(VERIFY_N), "--out", out)
            jobs.append(Job(case, argv, out, (-1.0, 1.0), (-1.0, 1.0),
                            VERIFY_N, VERIFY_N * VERIFY_N))
    elif workload == "rotate":
        for case in _ROTATE_CASES:
            u1 = _window(rng, -1.0, 1.0, MESH_N)
            u2 = _window(rng, -math.pi, math.pi, MESH_N)
            out = f"{out_dir}/{case}.obj"
            argv = ("rotate", "--preset", case, "--cross-check",
                    "--u1", _range_arg(u1), "--u2", _range_arg(u2),
                    "--n", str(MESH_N), "--out", out)
            jobs.append(Job(case, argv, out, u1, u2, MESH_N,
                            MESH_N * MESH_N + CROSS_CHECK_N * CROSS_CHECK_N))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def round_order(jobs: list[Job], rng: random.Random) -> list[Job]:
    """One round: every job once, in an order drawn from ``rng``."""
    order = list(jobs)
    rng.shuffle(order)
    return order
