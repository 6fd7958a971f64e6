"""Command-line front end: generate, verify, rotate, info.

Exit codes: 0 ok, 2 expression/usage parse error or invalid numeric input
(RunConfig.validate, SurfaceSpec), 3 empty mesh, 4 I/O failure, 5
verification failure or insufficient coverage.  Mesh and report outputs
are byte-identical for identical configs; mesh files carry numbers
with 17 significant digits so golden files round-trip exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import geometry, surface, verify
from .expr import (EvalError, ParseError, differentiate, eval_jet2,
                   parse_expr, unparse)
from .surface import EmptyMeshError, SurfaceMesh, SurfaceSpec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_IO = 4
EXIT_VERIFY = 5

# Figure-reproduction presets: the captioned parameter sets on the default
# window [-1,1] x [-pi,pi] at 128x128 (a reproduction convention; the source
# figures state no domains).
GENERATE_PRESETS = {
    "fig1": {"f": "z", "g": "z", "ell": "t^2+t+1"},
    "fig2": {"f": "z", "g": "z", "ell": "cos(t)"},
}
ROTATE_PRESETS = {
    "fig3": {"a": 1.0, "b": 0.0, "ell": "t^2+t+1"},
    "fig4": {"a": 0.0, "b": 1.0, "ell": "t^2+t+1"},
    "fig5": {"a": 1.0, "b": 0.0, "ell": "sinh(t)"},
}
DEFAULT_U2 = (-math.pi, math.pi)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


@dataclass
class RunConfig:
    """Validated invocation: subcommand plus everything it needs."""

    subcommand: str
    f: str | None = None
    g: str | None = None
    ell: str | None = None
    u1: tuple[float, float] = (-1.0, 1.0)
    u2: tuple[float, float] = DEFAULT_U2
    nu1: int = 128
    nu2: int = 128
    a: float | None = None
    b: float | None = None
    out: str | None = None
    format: str = "obj"
    method: str = "closed_form"
    fd_step: float = verify.DEFAULT_FD_STEP
    tolerances: dict = field(default_factory=dict)
    regularity_eps: float = geometry.REGULARITY_EPS
    cross_check: bool = False
    mu_range: tuple[float, float] = (-1.0, 1.0)
    mu_samples: int = 101
    as_json: bool = False

    def validate(self) -> None:
        """Reject values the numerics would only trip over later.  The mesh
        window, resolution and eps are checked by SurfaceSpec."""
        if not (0.0 < self.fd_step < math.inf):
            raise ValueError(f"--fd-step must be finite and > 0, got {self.fd_step!r}")
        for name, tol in self.tolerances.items():
            if not (0.0 <= tol < math.inf):
                raise ValueError(f"tolerance of {name} must be finite and >= 0, "
                                 f"got {tol!r}")
        for name, value in (("--a", self.a), ("--b", self.b)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        surface.check_range("mu", *self.mu_range)
        if self.mu_samples < 1:
            raise ValueError(f"--samples must be >= 1, got {self.mu_samples}")


# ---------------------------------------------------------------------------
# Mesh writers (single writer, after computation completes)
# ---------------------------------------------------------------------------

def write_obj(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    lines = ["# generated by grtsurf"]
    for x, y, z in verts:
        lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for x, y, z in normals:
        lines.append(f"vn {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for a, b, c, d in mesh.faces:
        lines.append(f"f {a+1}//{a+1} {b+1}//{b+1} {c+1}//{c+1}")
        lines.append(f"f {a+1}//{a+1} {c+1}//{c+1} {d+1}//{d+1}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ply(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    tris = []
    for a, b, c, d in mesh.faces:
        tris.append((a, b, c))
        tris.append((a, c, d))
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(verts)}",
        "property float x", "property float y", "property float z",
        "property float nx", "property float ny", "property float nz",
        f"element face {len(tris)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for (x, y, z), (nx, ny, nz) in zip(verts, normals):
        lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(nx)} {_fmt(ny)} {_fmt(nz)}")
    for a, b, c in tris:
        lines.append(f"3 {a} {b} {c}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _mesh_json_dict(mesh: SurfaceMesh) -> dict:
    def grid(arr):
        return [[None if not mesh.valid[i, j] else list(map(float, arr[i, j]))
                 for j in range(arr.shape[1])] for i in range(arr.shape[0])]

    diag = mesh.diagnostics

    def scalar(arr):
        return [[None if math.isnan(arr[i, j]) else float(arr[i, j])
                 for j in range(arr.shape[1])] for i in range(arr.shape[0])]

    return {
        "u1": [float(v) for v in mesh.u1],
        "u2": [float(v) for v in mesh.u2],
        "vertices": grid(mesh.vertices),
        "normals": grid(mesh.normals),
        "faces": [list(f) for f in mesh.faces],
        "diagnostics": {
            "psi": scalar(diag.psi),
            "lam": scalar(diag.lam),
            "mean_curvature": scalar(diag.mean),
            "gauss_curvature": scalar(diag.gauss),
            "c": scalar(diag.c),
            "det_v": scalar(diag.det_v),
            "support_residual": scalar(diag.support_residual),
            "distance_residual": scalar(diag.distance_residual),
            "weingarten_residual": scalar(diag.weingarten_residual),
            "pde_residual": scalar(diag.pde_residual),
            "regular": [[bool(v) for v in row] for row in diag.regular],
        },
    }


def write_mesh_json(mesh: SurfaceMesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_mesh_json_dict(mesh), fh, indent=1)
        fh.write("\n")


_WRITERS = {"obj": write_obj, "ply": write_ply, "json": write_mesh_json}


def _write_mesh(mesh: SurfaceMesh, config: RunConfig) -> None:
    _WRITERS[config.format](mesh, config.out)


def _mesh_summary(mesh: SurfaceMesh, out: str) -> str:
    return (f"wrote {out}: {mesh.vertex_count} vertices, "
            f"{2 * mesh.face_count} triangles "
            f"({mesh.face_count} quads), "
            f"regular {100.0 * mesh.regular_fraction():.2f}%, "
            f"min|detV| {mesh.min_abs_det_v():.6g}")


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

_RANGE_FLAGS = ("--u1", "--u2", "--mu-range")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--u1 -1:1' into '--u1=-1:1' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RANGE_FLAGS and i + 1 < len(argv) and ":" in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


class _StrictParser(argparse.ArgumentParser):
    """Subcommand parser without prefix abbreviation (--f must not hit --format)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grtsurf",
        description="Construct and verify generalized Ribaucour-type surfaces "
                    "from two holomorphic functions and a real profile.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_StrictParser)

    def add_domain(p, default_n=128):
        p.add_argument("--u1", type=_parse_range, default=(-1.0, 1.0),
                       help="u1 range as lo:hi (default -1:1)")
        p.add_argument("--u2", type=_parse_range, default=DEFAULT_U2,
                       help="u2 range as lo:hi (default -pi:pi)")
        p.add_argument("--n", type=int, default=default_n,
                       help=f"grid resolution per axis (default {default_n})")
        p.add_argument("--nu1", type=int, default=None, help="override u1 resolution")
        p.add_argument("--nu2", type=int, default=None, help="override u2 resolution")
        p.add_argument("--eps", type=float, default=geometry.REGULARITY_EPS,
                       help="regularity threshold")

    def add_output(p):
        p.add_argument("--out", default=None, help="output file")
        p.add_argument("--format", choices=("obj", "ply", "json"), default=None,
                       help="output format (default from extension, else obj)")

    gen = sub.add_parser("generate", help="sample a surface mesh and export it")
    gen.add_argument("--f", dest="f_src", default=None, help="holomorphic f(z)")
    gen.add_argument("--g", dest="g_src", default=None, help="holomorphic g(z)")
    gen.add_argument("--ell", default=None, help="real profile ell(t)")
    gen.add_argument("--method", choices=("closed_form", "direct"),
                     default="closed_form")
    gen.add_argument("--preset", choices=sorted(GENERATE_PRESETS), default=None,
                     help="figure-reproduction parameter set")
    add_domain(gen)
    add_output(gen)

    ver = sub.add_parser("verify", help="run residual checks and write a JSON report")
    ver.add_argument("--f", dest="f_src", default="z")
    ver.add_argument("--g", dest="g_src", default="z")
    ver.add_argument("--ell", default="t^2+t+1")
    ver.add_argument("--method", choices=("closed_form", "direct"),
                     default="closed_form")
    ver.add_argument("--fd-step", type=float, default=verify.DEFAULT_FD_STEP)
    ver.add_argument("--tol-algebraic", type=float, default=None,
                     help="tolerance for exact identities (default 1e-9)")
    ver.add_argument("--tol-fd", type=float, default=None,
                     help="tolerance for finite-difference checks (default 1e-4)")
    ver.add_argument("--out", default=None,
                     help="report path (default: JSON to stdout)")
    add_domain(ver, default_n=64)
    ver.set_defaults(u2=(-1.0, 1.0))

    rot = sub.add_parser("rotate", help="mesh the rotation family X_ab")
    rot.add_argument("--a", type=float, default=None)
    rot.add_argument("--b", type=float, default=None)
    rot.add_argument("--ell", default=None)
    rot.add_argument("--preset", choices=sorted(ROTATE_PRESETS), default=None)
    rot.add_argument("--cross-check", action="store_true",
                     help="verify agreement with the closed form (f=a*z+b, g=exp(z))")
    add_domain(rot)
    add_output(rot)

    info = sub.add_parser("info", help="profile derivatives and C classification")
    info.add_argument("--ell", required=True)
    info.add_argument("--mu-range", type=_parse_range, default=(-1.0, 1.0),
                      help="sampled mu range (default -1:1)")
    info.add_argument("--samples", type=int, default=101)
    info.add_argument("--json", dest="as_json", action="store_true")
    return parser


def _resolution(args) -> tuple[int, int]:
    return (args.nu1 or args.n, args.nu2 or args.n)


def _pick_format(out: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    for ext, fmt in ((".obj", "obj"), (".ply", "ply"), (".json", "json")):
        if out.endswith(ext):
            return fmt
    return "obj"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _generate_spec(config: RunConfig) -> SurfaceSpec:
    return SurfaceSpec.from_strings(
        config.f, config.g, config.ell,
        u1_range=config.u1, u2_range=config.u2,
        nu1=config.nu1, nu2=config.nu2,
        regularity_eps=config.regularity_eps, method=config.method,
    )


def _cmd_generate(config: RunConfig) -> int:
    spec = _generate_spec(config)
    mesh = surface.sample_mesh(spec)
    _write_mesh(mesh, config)
    print(_mesh_summary(mesh, config.out))
    return EXIT_OK


def _classify_profile(spec: SurfaceSpec) -> dict:
    """C(mu) sampled over the window's mu values, with the special-case label."""
    cs = []
    for u1 in np.linspace(*spec.u1_range, 9):
        for u2 in np.linspace(*spec.u2_range, 9):
            try:
                f_val = eval_jet2(spec.f, complex(u1, u2)).value
                jet = eval_jet2(spec.ell, f_val.real, variable="t")
            except EvalError:
                continue
            if jet.d1 == 0.0:
                continue
            c = jet.value * jet.d2 / (jet.d1 * jet.d1)
            if math.isfinite(c):
                cs.append(c)
    if not cs:
        return {"profile_c_constant": False, "profile_c": None,
                "profile_label": None}
    constant = max(cs) - min(cs) < 1e-9
    value = cs[0] + 0.0 if constant else None
    label = None
    if constant and abs(value) <= 1e-9:
        label = "Appell"
    elif constant and abs(value - 1.0) <= 1e-9:
        label = "TR-surface"
    return {"profile_c_constant": constant, "profile_c": value,
            "profile_label": label}


def _cmd_verify(config: RunConfig) -> int:
    spec = _generate_spec(config)
    report = verify.run_checks(spec, step=config.fd_step,
                               tolerances=config.tolerances)
    report.spec_summary.update(_classify_profile(spec))
    text = report.to_json() + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        for check in report.checks:
            print(f"{check.name}: {check.status} "
                  f"(count={check.count}, excluded={check.excluded}, "
                  f"max_rel={check.max_rel:.3e})")
        print(f"report written to {config.out}: "
              f"{'PASS' if report.passed else 'FAIL'}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_rotate(config: RunConfig) -> int:
    ell = parse_expr(config.ell, "t", real=True)
    mesh = surface.sample_rotation_mesh(
        config.a, config.b, ell,
        u1_range=config.u1, u2_range=config.u2,
        nu1=config.nu1, nu2=config.nu2,
        regularity_eps=config.regularity_eps,
    )
    _write_mesh(mesh, config)
    print(_mesh_summary(mesh, config.out))
    if config.a == 0.0:
        radius = abs(eval_jet2(ell, float(config.b), variable="t").value)
        print(f"note: a = 0 degenerates to the sphere of radius {radius:.12g} "
              f"(|ell(b)| with b = {config.b:g})")
    if config.cross_check:
        spec = surface.rotation_spec(
            config.a, config.b, ell,
            u1_range=config.u1, u2_range=config.u2,
            nu1=min(config.nu1, 33), nu2=min(config.nu2, 33),
            regularity_eps=config.regularity_eps,
        )
        report = verify.run_checks(spec, checks=("rotation_match",),
                                   rotation=(config.a, config.b))
        check = report.check("rotation_match")
        print(f"cross-check rotation vs closed form: {check.status} "
              f"(max_rel={check.max_rel:.3e})")
        if not report.passed:
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_info(config: RunConfig) -> int:
    ell = parse_expr(config.ell, "t", real=True)
    d1 = differentiate(ell)
    d2 = differentiate(d1)
    mus = np.linspace(config.mu_range[0], config.mu_range[1], config.mu_samples)
    cs = []
    degenerate = 0
    errors = 0
    for mu in mus:
        try:
            jet = eval_jet2(ell, float(mu), variable="t")
        except EvalError:
            errors += 1
            continue
        if jet.d1 == 0.0 or not math.isfinite(jet.value * jet.d2 / (jet.d1 * jet.d1)):
            degenerate += 1
            continue
        cs.append(jet.value * jet.d2 / (jet.d1 * jet.d1))
    result = {
        "ell": unparse(ell, "t"),
        "ell_prime": unparse(d1, "t"),
        "ell_second": unparse(d2, "t"),
        "mu_range": list(config.mu_range),
        "samples": int(config.mu_samples),
        "degenerate_points": degenerate,
        "evaluation_errors": errors,
    }
    if cs:
        spread = max(cs) - min(cs)
        constant = spread < 1e-9
        c_value = cs[0] + 0.0 if constant else None  # +0.0 folds away -0.0
        result.update({
            "c_min": min(cs), "c_max": max(cs),
            "c_constant": constant,
            "c_value": c_value,
        })
        label = None
        if constant and abs(c_value) <= 1e-9:
            label = "Appell"
        elif constant and abs(c_value - 1.0) <= 1e-9:
            label = "TR-surface"
        result["label"] = label
    else:
        result.update({"c_constant": False, "c_value": None, "label": None,
                       "note": "C undefined on the sampled range (ell' = 0 "
                               "or evaluation failed everywhere)"})
    if config.as_json:
        print(json.dumps(result, indent=2))
        return EXIT_OK
    print(f"ell(t)   = {result['ell']}")
    print(f"ell'(t)  = {result['ell_prime']}")
    print(f"ell''(t) = {result['ell_second']}")
    if cs:
        if result["c_constant"]:
            print(f"C(mu) = ell*ell''/ell'^2 is constant {result['c_value']:.12g} "
                  f"on mu in [{mus[0]:g}, {mus[-1]:g}]")
        else:
            print(f"C(mu) varies in [{result['c_min']:.12g}, {result['c_max']:.12g}] "
                  f"on mu in [{mus[0]:g}, {mus[-1]:g}]")
        if result.get("label"):
            print(f"classification: {result['label']}"
                  + (" (C = 0)" if result["label"] == "Appell" else " (C = 1)"))
    else:
        print(result["note"])
    if degenerate:
        print(f"degenerate points skipped (ell' = 0): {degenerate}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _config_from_args(args) -> RunConfig:
    config = RunConfig(subcommand=args.subcommand)
    if args.subcommand in ("generate", "verify"):
        f_src = getattr(args, "f_src", None)
        g_src = getattr(args, "g_src", None)
        ell = args.ell
        if args.subcommand == "generate" and args.preset:
            preset = GENERATE_PRESETS[args.preset]
            f_src = f_src or preset["f"]
            g_src = g_src or preset["g"]
            ell = ell or preset["ell"]
        missing = [name for name, val in
                   (("--f", f_src), ("--g", g_src), ("--ell", ell)) if not val]
        if missing:
            raise _UsageError(f"{args.subcommand} requires {', '.join(missing)}")
        config.f, config.g, config.ell = f_src, g_src, ell
        config.method = args.method
    if args.subcommand == "rotate":
        a, b, ell = args.a, args.b, args.ell
        if args.preset:
            preset = ROTATE_PRESETS[args.preset]
            a = a if a is not None else preset["a"]
            b = b if b is not None else preset["b"]
            ell = ell or preset["ell"]
        missing = [name for name, val in
                   (("--a", a), ("--b", b), ("--ell", ell)) if val is None]
        if missing:
            raise _UsageError(f"rotate requires {', '.join(missing)}")
        config.a, config.b, config.ell = float(a), float(b), ell
        config.cross_check = args.cross_check
    if args.subcommand == "info":
        config.ell = args.ell
        config.mu_range = args.mu_range
        config.mu_samples = args.samples
        config.as_json = args.as_json
        config.validate()
        return config
    config.u1 = args.u1
    config.u2 = args.u2
    config.nu1, config.nu2 = _resolution(args)
    config.regularity_eps = args.eps
    if args.subcommand == "verify":
        config.fd_step = args.fd_step
        if args.tol_algebraic is not None:
            for name in ("param_equivalence", "support_identity",
                         "quadratic_distance", "weingarten_relation",
                         "pde_lapla1", "wv_identity", "rotation_match"):
                config.tolerances[name] = args.tol_algebraic
        if args.tol_fd is not None:
            for name in ("forms_vs_fd", "curvature_vs_fd", "harmonicity_mu"):
                config.tolerances[name] = args.tol_fd
        config.out = args.out
    else:
        out = args.out
        if out is None and getattr(args, "preset", None):
            out = f"{args.preset}.obj"
        if out is None:
            raise _UsageError(f"{args.subcommand} requires --out")
        config.out = out
        config.format = _pick_format(out, args.format)
    config.validate()
    return config


class _UsageError(Exception):
    pass


_DISPATCH = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "rotate": _cmd_rotate,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        return _DISPATCH[args.subcommand](config)
    except (_UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EmptyMeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
