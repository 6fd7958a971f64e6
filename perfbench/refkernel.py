"""Fixed reference kernel: a yardstick for the speed of the host.

While a job runs, a timer interrupts it every 50 ms and runs this kernel
once, about 2 ms of work, in the same process (``workload.Sampler``).  The
job's time, less the kernel's, is scaled by ``R0 / mean(kernel time during
that job)``.  A host that runs the interpreter 10% slower for a while runs
both the kernel and the job slower, so the ratio cancels most of the drift
that a busy 2-core machine adds to raw times (README.md,
"Reference-normalised times").

The mix imitates what grtsurf spends its time on, without importing it:

* a recursive 2-jet walk over a small complex expression tree built from
  frozen dataclasses (the per-point evaluator), with per-point assembly of
  small numpy arrays and 2x2 products (the point frame): about 67% of a run
  when the caches are warm;
* 17-digit float formatting and string joins (the mesh writers): 11%;
* a few whole-grid numpy operations, so the yardstick still tracks the
  program once its hot path moves into arrays: 12%;
* one pass over a 4 MB buffer: 10%.

The mix and ``R0`` are fixed: changing either changes every normalised
figure the benchmark has ever reported.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

# Kernel time in seconds that normalised times refer to: about its mean
# inside jobs on the reference host (Python 3.11.7, numpy 2.4.6, 2 cores),
# which varied by a quarter from one hour to the next.
R0 = 0.003


@dataclass(frozen=True)
class _Var:
    pass


@dataclass(frozen=True)
class _Const:
    value: complex


@dataclass(frozen=True)
class _Add:
    left: object
    right: object


@dataclass(frozen=True)
class _Mul:
    left: object
    right: object


@dataclass(frozen=True)
class _Fn:
    name: str
    arg: object


@dataclass(frozen=True)
class _Jet:
    value: complex
    d1: complex
    d2: complex


# exp(z)*sin(z) + 0.5*z*z*z
_TREE = _Add(
    _Mul(_Fn("exp", _Var()), _Fn("sin", _Var())),
    _Mul(_Const(0.5 + 0j), _Mul(_Var(), _Mul(_Var(), _Var()))),
)


def _jet(node, z: complex):
    if isinstance(node, _Var):
        return (z, 1 + 0j, 0j)
    if isinstance(node, _Const):
        return (node.value, 0j, 0j)
    if isinstance(node, _Add):
        a = _jet(node.left, z)
        b = _jet(node.right, z)
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    if isinstance(node, _Mul):
        a = _jet(node.left, z)
        b = _jet(node.right, z)
        return (a[0] * b[0], a[1] * b[0] + a[0] * b[1],
                a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2])
    u = _jet(node.arg, z)
    if node.name == "exp":
        v = cmath.exp(u[0])
        d, dd = v, v
    else:
        v = cmath.sin(u[0])
        d, dd = cmath.cos(u[0]), -v
    return (v, d * u[1], dd * u[1] * u[1] + d * u[2])


def _interpreted(points: int) -> float:
    acc = 0.0
    for k in range(points):
        z = complex(-1.0 + 2.0 * k / points, 0.5 - k / points)
        jet = _Jet(*_jet(_TREE, z))
        g = jet.value
        t = 1.0 + g.real * g.real + g.imag * g.imag
        normal = np.array([2.0 * g.real / t, 2.0 * g.imag / t, (2.0 - t) / t])
        v = np.array([[jet.d1.real, jet.d2.imag], [jet.d2.imag, jet.d1.imag + t]])
        det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
        acc += float(np.dot(normal, normal)) + math.copysign(1.0, det)
    return acc


def _formatting(count: int) -> int:
    lines = []
    for k in range(count):
        x = math.sin(k * 0.37) * 1e3
        lines.append(f"v {format(x, '.17g')} {format(x / 7.0, '.17g')} {format(-x, '.17g')}")
    return len("\n".join(lines))


def _arrays(n: int) -> float:
    u1 = np.linspace(-1.0, 1.0, n)
    u2 = np.linspace(-math.pi, math.pi, n)
    z = u1[:, None] + 1j * u2[None, :]
    g = np.exp(z) * np.sin(z) + 0.5 * z ** 3
    t = 1.0 + np.abs(g) ** 2
    x = np.stack([2.0 * g.real / t, 2.0 * g.imag / t, (2.0 - t) / t], axis=-1)
    return float(np.einsum("ijk,ijk->", x, x))


# Four megabytes, more than a core's private caches: the jobs' meshes and
# object graphs live at this scale too, so the kernel feels a neighbour
# that thrashes the shared cache as the jobs do.
_BUFFER = np.linspace(0.0, 1.0, 1 << 19)


def _memory() -> float:
    return float(_BUFFER[::8].sum())  # one load per 64-byte cache line


def run() -> float:
    """Run the fixed mix once and return its wall time in seconds."""
    t0 = time.perf_counter()
    _interpreted(100)
    _formatting(80)
    _arrays(40)
    _memory()
    return time.perf_counter() - t0


if __name__ == "__main__":
    times = [run() for _ in range(1000)]
    print(f"mean {sum(times) / len(times):.6f} s, min {min(times):.6f} s, "
          f"max {max(times):.6f} s")
