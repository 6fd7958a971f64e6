"""Command-line front end: generate, verify, rotate, info.

Each subcommand reads the parsed flags.  Each numeric check sits in the
argparse type of its flag, so a bad value exits 2 before any evaluation with
'error: argument --flag: ...'; a value may start with '-' (--ell -t).
Exit codes: 0 ok, 2 expression/usage parse error, invalid or missing input,
3 empty mesh, 4 I/O failure, 5 verification failure or insufficient
coverage.  Mesh and report outputs are byte-identical for identical inputs;
OBJ and PLY numbers carry 17 significant digits and mesh JSON floats are
shortest repr, so all round-trip.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields

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


# ---------------------------------------------------------------------------
# Mesh writers (single writer, after computation completes).  One ``%`` fills
# each float section, or each grid row of mesh JSON, which is written at once.
# '%.17g' % x is format(x, '.17g'); '%r' % x is json's float.__repr__(x).
# ---------------------------------------------------------------------------

def _fill(template: str, values) -> str:
    """``template`` filled in with ``values`` in row-major order."""
    return template % tuple(np.ravel(values).tolist())


def _index_text(template: str, indices: np.ndarray) -> str:
    """``template`` once per row of ``indices``, each '{k}' as the digits of
    column k, gathered from a table whose row i holds i in right-aligned ASCII,
    NUL-padded on the left; the NULs are dropped from the result."""
    n = int(indices.max(initial=0)) + 1
    powers, values = 10 ** np.arange(len(str(n - 1)))[::-1], np.arange(n)[:, None]
    digits = np.where((values >= powers) | (powers == 1),
                      values // powers % 10 + ord("0"), 0).astype(np.uint8)[indices]
    pieces = re.split(r"\{(\d)\}", template)
    text = np.concatenate(
        [digits[:, int(piece)] if i % 2 else np.broadcast_to(
            np.frombuffer(piece.encode(), np.uint8), (len(indices), len(piece)))
         for i, piece in enumerate(pieces) if piece], axis=1)
    return text.tobytes().replace(b"\0", b"").decode("ascii")


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated by grtsurf\n")
        fh.write(_fill("v %.17g %.17g %.17g\n" * len(verts), verts))
        fh.write(_fill("vn %.17g %.17g %.17g\n" * len(normals), normals))
        # triangles (a, b, c) and (a, c, d) of each quad, 1-based, as i//i
        fh.write(_index_text("f {0}//{0} {1}//{1} {2}//{2}\n"
                             "f {0}//{0} {2}//{2} {3}//{3}\n", mesh.faces + 1))


def write_ply(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n"
                 f"element vertex {len(verts)}\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float nx\nproperty float ny\nproperty float nz\n"
                 f"element face {2 * mesh.face_count}\n"
                 "property list uchar int vertex_indices\nend_header\n")
        fh.write(_fill("%.17g %.17g %.17g %.17g %.17g %.17g\n" * len(verts),
                       np.hstack([verts, normals])))
        fh.write(_index_text("3 {0} {1} {2}\n3 {0} {2} {3}\n", mesh.faces))


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
    quad = ",\n  " + _json_list(["{0}", "{1}", "{2}", "{3}"], 2)  # first ',' -> '['

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
        faces = _index_text(quad, mesh.faces)
        fh.write(',\n "faces": ' + ("[" + faces[1:] + "\n ]" if faces else "[]"))
        sep = ',\n "diagnostics": {'
        for name in (f.name for f in fields(mesh.diagnostics)):
            fh.write(f'{sep}\n  "{_JSON_KEYS.get(name, name)}": ')
            fh.writelines(_json_pieces(
                diagnostic_rows(getattr(mesh.diagnostics, name)), 2))
            sep = ","
        fh.write("\n }\n}\n")


_WRITERS = {"obj": write_obj, "ply": write_ply, "json": write_mesh_json}


# ---------------------------------------------------------------------------
# Argument handling: each numeric check sits in the type of its flag
# ---------------------------------------------------------------------------

_SWITCHES = ("--help", "--cross-check", "--json")  # long flags without a value


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--f -z' into '--f=-z': after a flag that takes a value, a token
    that starts with a single '-' is that value.  argparse on its own takes
    such a token as a value only when it is a plain negative decimal."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and prev not in _SWITCHES
                and tok.startswith("-") and not tok.startswith("--")):
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


def _checked(convert, rule: str, holds):
    """An argparse type: the text through ``convert``, rejected unless
    ``holds`` of the value; the exit-2 message names the flag and ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value
    return parse


_finite = _checked(float, "finite", math.isfinite)
_non_negative = _checked(float, "finite and >= 0", lambda x: 0.0 <= x < math.inf)
_fd_step = _checked(float, "finite and > 0, with a square neither 0 nor inf",
                    lambda h: 0.0 < h < math.inf and 0.0 < h * h < math.inf)
_resolution = _checked(int, ">= 2", lambda n: n >= 2)
_samples = _checked(int, ">= 1", lambda n: n >= 1)


def _parse_range(text: str) -> tuple[float, float]:
    """'lo:hi' as two floats that pass surface.check_range."""
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError(f"expected lo:hi, got {text!r}")
        bounds = float(lo), float(hi)
        surface.check_range("lo:hi", *bounds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return bounds


def _build_parser() -> argparse.ArgumentParser:
    parser = _StrictParser(
        prog="grtsurf",
        description="Construct and verify generalized Ribaucour-type surfaces "
                    "from two holomorphic functions and a real profile.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_StrictParser)

    def add_domain(p, default_n=128, default_u2=DEFAULT_U2):
        u2_text = "-pi:pi" if default_u2 == DEFAULT_U2 else "%g:%g" % default_u2
        p.add_argument("--u1", type=_parse_range, default=(-1.0, 1.0),
                       help="u1 range as lo:hi (default -1:1)")
        p.add_argument("--u2", type=_parse_range, default=default_u2,
                       help=f"u2 range as lo:hi (default {u2_text})")
        p.add_argument("--n", type=_resolution, default=default_n,
                       help=f"grid resolution per axis (default {default_n})")
        p.add_argument("--nu1", type=_resolution, help="override u1 resolution")
        p.add_argument("--nu2", type=_resolution, help="override u2 resolution")
        p.add_argument("--eps", type=_non_negative, default=geometry.REGULARITY_EPS,
                       help="regularity threshold")

    def add_output(p):
        p.add_argument("--out", help="output file")
        p.add_argument("--format", choices=tuple(_WRITERS),
                       help="output format (default from extension, else obj)")

    gen = sub.add_parser("generate", help="sample a surface mesh and export it")
    gen.add_argument("--f", help="holomorphic f(z)")
    gen.add_argument("--g", help="holomorphic g(z)")
    gen.add_argument("--ell", help="real profile ell(t)")
    gen.add_argument("--method", choices=("closed_form", "direct"),
                     default="closed_form")
    gen.add_argument("--preset", choices=sorted(GENERATE_PRESETS),
                     help="figure-reproduction parameter set")
    add_domain(gen)
    add_output(gen)

    ver = sub.add_parser("verify", help="run residual checks and write a JSON report")
    ver.add_argument("--f", default="z")
    ver.add_argument("--g", default="z")
    ver.add_argument("--ell", default="t^2+t+1")
    ver.add_argument("--fd-step", type=_fd_step, default=verify.DEFAULT_FD_STEP)
    for cls, tol in verify.CLASS_TOLERANCES.items():
        ver.add_argument(f"--tol-{cls}", type=_non_negative,
                         help=f"tolerance of the {cls} checks (default {tol:g})")
    ver.add_argument("--out", help="report path (default: JSON to stdout)")
    add_domain(ver, default_n=64, default_u2=(-1.0, 1.0))

    rot = sub.add_parser("rotate", help="mesh the rotation family X_ab")
    rot.add_argument("--a", type=_finite)
    rot.add_argument("--b", type=_finite)
    rot.add_argument("--ell")
    rot.add_argument("--preset", choices=sorted(ROTATE_PRESETS))
    rot.add_argument("--cross-check", action="store_true",
                     help="verify agreement with the closed form (f=a*z+b, g=exp(z))")
    add_domain(rot)
    add_output(rot)

    info = sub.add_parser("info", help="profile derivatives and C classification")
    info.add_argument("--ell", required=True)
    info.add_argument("--mu-range", type=_parse_range, default=(-1.0, 1.0),
                      help="sampled mu range (default -1:1)")
    info.add_argument("--samples", type=_samples, default=101)
    info.add_argument("--json", dest="as_json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fill_inputs(args, presets: dict, names: tuple[str, ...]) -> None:
    """Fill each flag of ``names`` left unset (None, or an empty expression)
    from --preset, and --out with '<preset>.obj'; raise ValueError naming
    every input still missing."""
    if args.preset:
        for name in names:
            if getattr(args, name) in (None, ""):
                setattr(args, name, presets[args.preset][name])
        if args.out is None:
            args.out = f"{args.preset}.obj"
    missing = [f"--{name}" for name in (*names, "out") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.subcommand} requires {', '.join(missing)}")


def _window(args) -> dict:
    """Window, resolution and eps of the sampled grid, as SurfaceSpec names them."""
    return dict(u1_range=args.u1, u2_range=args.u2, nu1=args.nu1 or args.n,
                nu2=args.nu2 or args.n, regularity_eps=args.eps)


def _write_mesh(mesh: SurfaceMesh, args) -> None:
    """Write in --format, else in the format of the --out extension, else OBJ."""
    fmt = args.format or next(
        (fmt for fmt in _WRITERS if args.out.endswith("." + fmt)), "obj")
    _WRITERS[fmt](mesh, args.out)
    print(f"wrote {args.out}: {mesh.vertex_count} vertices, "
          f"{2 * mesh.face_count} triangles "
          f"({mesh.face_count} quads), "
          f"regular {100.0 * mesh.regular_fraction():.2f}%, "
          f"min|detV| {mesh.min_abs_det_v():.6g}")


def _cmd_generate(args) -> int:
    _fill_inputs(args, GENERATE_PRESETS, ("f", "g", "ell"))
    spec = SurfaceSpec.from_strings(args.f, args.g, args.ell, method=args.method,
                                    **_window(args))
    _write_mesh(surface.sample_mesh(spec), args)
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


def _cmd_verify(args) -> int:
    spec = SurfaceSpec.from_strings(args.f, args.g, args.ell, **_window(args))
    tolerances = {name: getattr(args, f"tol_{cls}")
                  for cls, names in verify.CLASS_CHECKS.items() for name in names
                  if getattr(args, f"tol_{cls}") is not None}
    report = verify.run_checks(spec, step=args.fd_step, tolerances=tolerances)
    report.spec_summary.update(_classify_profile(spec))
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        for check in report.checks:
            print(f"{check.name}: {check.status} "
                  f"(count={check.count}, excluded={check.excluded}, "
                  f"max_rel={check.max_rel:.3e})")
        print(f"report written to {args.out}: "
              f"{'PASS' if report.passed else 'FAIL'}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_rotate(args) -> int:
    _fill_inputs(args, ROTATE_PRESETS, ("a", "b", "ell"))
    ell = parse_expr(args.ell, "t", real=True)
    window = _window(args)
    _write_mesh(surface.sample_rotation_mesh(args.a, args.b, ell, **window), args)
    if args.a == 0.0:
        radius = abs(eval_jet2(ell, args.b, variable="t").value)
        print(f"note: a = 0 degenerates to the sphere of radius {radius:.12g} "
              f"(|ell(b)| with b = {args.b:g})")
    if args.cross_check:
        window.update(nu1=min(window["nu1"], 33), nu2=min(window["nu2"], 33))
        check = verify.rotation_match(args.a, args.b, ell, **window)
        print(f"cross-check rotation vs closed form: {check.status} "
              f"(max_rel={check.max_rel:.3e})")
        if not check.passed:
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_info(args) -> int:
    ell = parse_expr(args.ell, "t", real=True)
    d1 = differentiate(ell)
    d2 = differentiate(d1)
    mus = np.linspace(args.mu_range[0], args.mu_range[1], args.samples)
    c, ok = _profile_c(ell, mus)
    cs = c[~np.isnan(c)].tolist()
    degenerate = int(ok.sum()) - len(cs)
    errors = int(ok.size - ok.sum())
    result = {
        "ell": unparse(ell, "t"),
        "ell_prime": unparse(d1, "t"),
        "ell_second": unparse(d2, "t"),
        "mu_range": list(args.mu_range),
        "samples": int(args.samples),
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
    if args.as_json:
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
        return _DISPATCH[args.subcommand](args)
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
