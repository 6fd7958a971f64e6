"""Command-line front end: generate, verify, rotate, info.

Exit codes: 0 ok, 2 expression/usage parse error or invalid numeric input
(RunConfig.validate, SurfaceSpec), 3 empty mesh, 4 I/O failure, 5
verification failure or insufficient coverage.  Mesh and report outputs
are byte-identical for identical configs; OBJ and PLY numbers carry 17
significant digits and mesh JSON floats are shortest repr, so all round-trip.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry, surface, verify
from .expr import (ParseError, differentiate, eval_jet2, eval_jet2_array,
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
        if not 0.0 < self.fd_step * self.fd_step < math.inf:
            raise ValueError(f"--fd-step {self.fd_step!r} squares to 0 or inf")
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
# Mesh writers (single writer, after computation completes).  One ``%`` fills
# each section, or each grid row of mesh JSON, which is written at once.
# '%.17g' % x is format(x, '.17g'); '%r' % x is json's float.__repr__(x).
# ---------------------------------------------------------------------------

def _fill(template: str, values) -> str:
    """``template`` filled in with ``values`` in row-major order."""
    return template % tuple(np.ravel(values).tolist())


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    # triangles (a, b, c) and (a, c, d) of each quad, each index twice: i//i
    tris = np.repeat(np.reshape(mesh.faces, (-1, 4))[:, [0, 1, 2, 0, 2, 3]] + 1,
                     2, axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated by grtsurf\n")
        fh.write(_fill("v %.17g %.17g %.17g\n" * len(verts), verts))
        fh.write(_fill("vn %.17g %.17g %.17g\n" * len(normals), normals))
        fh.write(_fill("f %d//%d %d//%d %d//%d\n" * (2 * len(tris)), tris))


def write_ply(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    tris = np.reshape(mesh.faces, (-1, 4))[:, [0, 1, 2, 0, 2, 3]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n"
                 f"element vertex {len(verts)}\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float nx\nproperty float ny\nproperty float nz\n"
                 f"element face {2 * len(tris)}\n"
                 "property list uchar int vertex_indices\nend_header\n")
        fh.write(_fill("%.17g %.17g %.17g %.17g %.17g %.17g\n" * len(verts),
                       np.hstack([verts, normals])))
        fh.write(_fill("3 %d %d %d\n" * (2 * len(tris)), tris))


def _json_pieces(items, level: int):
    """Formatted items as json.dump(indent=1) lays out a list at ``level``."""
    pad = "\n" + " " * (level + 1)
    sep = "[" + pad
    for item in items:
        yield sep + item
        sep = "," + pad
    yield "[]" if sep[0] == "[" else "\n" + " " * level + "]"


def _json_list(items: list[str], level: int) -> str:
    return "".join(_json_pieces(items, level))


def _json_floats(template: str, values) -> str:
    """``template`` filled in with floats, null where not finite (no other text
    holds 'nan' or 'inf')."""
    text = _fill(template, values)
    return text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")


# JSON keys of the MeshDiagnostics fields that are not named as in the file
_JSON_KEYS = {"mean": "mean_curvature", "gauss": "gauss_curvature"}


def write_mesh_json(mesh: SurfaceMesh, path: str) -> None:
    """Mesh JSON as json.dump(..., indent=1) writes it, null if not finite."""
    cell = _json_list(["%r"] * 3, 3)
    quads = np.reshape(mesh.faces, (-1, 4))

    def vector_rows(grid):  # null at invalid vertices
        for row, ok in zip(grid, mesh.valid):
            template = _json_list([cell if v else "null" for v in ok.tolist()], 2)
            yield _json_floats(template, row[ok])

    def diagnostic_rows(grid):
        if grid.dtype == bool:
            return (_json_list(np.where(row, "true", "false").tolist(), 3)
                    for row in grid)
        template = _json_list(["%r"] * grid.shape[1], 3)
        return (_json_floats(template, row) for row in grid)

    with open(path, "w", encoding="utf-8") as fh:
        for key, u in (('{\n "u1": ', mesh.u1), (',\n "u2": ', mesh.u2)):
            fh.write(key + _json_floats(_json_list(["%r"] * len(u), 1), u))
        for key, grid in (("vertices", mesh.vertices), ("normals", mesh.normals)):
            fh.write(f',\n "{key}": ')
            fh.writelines(_json_pieces(vector_rows(grid), 1))
        fh.write(',\n "faces": ' + _fill(
            _json_list([_json_list(["%d"] * 4, 2)] * len(quads), 1), quads))
        sep = ',\n "diagnostics": {'
        for name in (f.name for f in fields(mesh.diagnostics)):
            fh.write(f'{sep}\n  "{_JSON_KEYS.get(name, name)}": ')
            fh.writelines(_json_pieces(
                diagnostic_rows(getattr(mesh.diagnostics, name)), 2))
            sep = ","
        fh.write("\n }\n}\n")


_WRITERS = {"obj": write_obj, "ply": write_ply, "json": write_mesh_json}


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


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--u1 -1:1' into '--u1=-1:1' and '--eps -1e-5' into '--eps=-1e-5':
    argparse takes a token starting with '-' as a value only when it is a
    plain negative decimal."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok.startswith("-") and prev.startswith("--") and "=" not in prev
                and (prev in _RANGE_FLAGS and ":" in tok or _is_number(tok))):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


class _StrictParser(argparse.ArgumentParser):
    """Parser without prefix abbreviation (--f must not hit --format) whose
    errors print one line and exit 2."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message: str):
        self.exit(EXIT_PARSE, f"error: {message}\n")


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _StrictParser(
        prog="grtsurf",
        description="Construct and verify generalized Ribaucour-type surfaces "
                    "from two holomorphic functions and a real profile.",
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
        p.add_argument("--format", choices=tuple(_WRITERS), default=None,
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
    ver.add_argument("--fd-step", type=float, default=verify.DEFAULT_FD_STEP)
    for cls, tol in verify.CLASS_TOLERANCES.items():
        ver.add_argument(f"--tol-{cls}", type=float, default=None,
                         help=f"tolerance of the {cls} checks (default {tol:g})")
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
    _WRITERS[config.format](mesh, config.out)
    print(_mesh_summary(mesh, config.out))
    return EXIT_OK


def _profile_c(ell, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C = ell*ell''/ell'^2 at each of ``mus``, and where ell evaluates.  C
    is NaN where ell fails, ell'^2 is 0 (also by underflow) or C is not
    finite."""
    jet, ok = eval_jet2_array(ell, mus, variable="t")
    with np.errstate(all="ignore"):
        d1_sq = jet.d1 * jet.d1
        c = jet.value * jet.d2 / d1_sq
    c[~ok | (d1_sq == 0.0) | ~np.isfinite(c)] = np.nan
    return c, ok


def _label_c(cs: list[float]) -> tuple[bool, float | None, str | None]:
    """Whether sampled C values are constant, the constant, and its label:
    Appell for C = 0, TR-surface for C = 1."""
    if not cs or max(cs) - min(cs) >= 1e-9:
        return False, None, None
    value = cs[0] + 0.0  # folds away -0.0
    for label, target in (("Appell", 0.0), ("TR-surface", 1.0)):
        if abs(value - target) <= 1e-9:
            return True, value, label
    return True, value, None


def _classify_profile(spec: SurfaceSpec) -> dict:
    """C(mu) sampled over the window's mu values on a 9x9 grid, where f and
    ell evaluate, with the special-case label."""
    z = np.empty((9, 9), dtype=complex)
    z.real = np.linspace(*spec.u1_range, 9)[:, None]
    z.imag = np.linspace(*spec.u2_range, 9)
    f_jet, f_ok = eval_jet2_array(spec.f, z)
    c, _ = _profile_c(spec.ell, f_jet.value.real)
    constant, value, label = _label_c(c[f_ok & ~np.isnan(c)].tolist())
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
    _WRITERS[config.format](mesh, config.out)
    print(_mesh_summary(mesh, config.out))
    if config.a == 0.0:
        radius = abs(eval_jet2(ell, float(config.b), variable="t").value)
        print(f"note: a = 0 degenerates to the sphere of radius {radius:.12g} "
              f"(|ell(b)| with b = {config.b:g})")
    if config.cross_check:
        check = verify.rotation_match(
            config.a, config.b, ell,
            u1_range=config.u1, u2_range=config.u2,
            nu1=min(config.nu1, 33), nu2=min(config.nu2, 33),
            regularity_eps=config.regularity_eps,
        )
        print(f"cross-check rotation vs closed form: {check.status} "
              f"(max_rel={check.max_rel:.3e})")
        if not check.passed:
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_info(config: RunConfig) -> int:
    ell = parse_expr(config.ell, "t", real=True)
    d1 = differentiate(ell)
    d2 = differentiate(d1)
    mus = np.linspace(config.mu_range[0], config.mu_range[1], config.mu_samples)
    c, ok = _profile_c(ell, mus)
    cs = c[~np.isnan(c)].tolist()
    degenerate = int(ok.sum()) - len(cs)
    errors = int(ok.size - ok.sum())
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
        result.update({"c_min": min(cs), "c_max": max(cs)})
    constant, c_value, label = _label_c(cs)
    result.update({"c_constant": constant, "c_value": c_value, "label": label})
    if not cs:
        result["note"] = ("C undefined on the sampled range (ell' = 0 "
                          "or evaluation failed everywhere)")
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
            raise ValueError(f"{args.subcommand} requires {', '.join(missing)}")
        config.f, config.g, config.ell = f_src, g_src, ell
        config.method = getattr(args, "method", config.method)
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
            raise ValueError(f"rotate requires {', '.join(missing)}")
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
    config.nu1, config.nu2 = args.nu1 or args.n, args.nu2 or args.n
    config.regularity_eps = args.eps
    if args.subcommand == "verify":
        config.fd_step = args.fd_step
        for cls, names in verify.CLASS_CHECKS.items():
            tol = getattr(args, f"tol_{cls}")
            if tol is not None:
                config.tolerances.update(dict.fromkeys(names, tol))
        config.out = args.out
    else:
        out = args.out
        if out is None and getattr(args, "preset", None):
            out = f"{args.preset}.obj"
        if out is None:
            raise ValueError(f"{args.subcommand} requires --out")
        config.out = out
        config.format = args.format or next(  # else from the extension
            (fmt for fmt in _WRITERS if out.endswith("." + fmt)), "obj")
    config.validate()
    return config


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
    except (ParseError, ValueError) as exc:
        error, code = exc, EXIT_PARSE
    except EmptyMeshError as exc:
        error, code = exc, EXIT_EMPTY
    except OSError as exc:
        error, code = exc, EXIT_IO
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
