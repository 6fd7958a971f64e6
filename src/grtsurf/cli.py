"""Command-line front end: generate, verify, rotate, info.

Each subcommand reads the parsed flags, calls the library and prints; the
pointwise maths, C and its class included, lives in geometry, surface and
verify.  Each numeric check sits in the argparse type of its flag, so a bad
value exits 2 before any evaluation with 'error: argument --flag: ...'; a
value may start with '-' (--ell -t).
Exit codes: 0 ok, 2 expression/usage parse error, invalid or missing input,
or a grid too large for memory, 3 empty mesh, 4 I/O failure, 5 verification
failure or insufficient coverage, 6 an internal error (any other exception,
one stderr line 'internal error: <type>: <message>').  Input checks raise
InputError.  Mesh and report outputs are byte-identical for identical
inputs.  Every float of OBJ, PLY and mesh JSON is spelled one way, '%.17g'
with '.0' after an integer (1.0, -0.0), so it round-trips and mesh JSON
reads it as a float; one numpy formatter (_float_table) spells them all,
non-finite values included (null in mesh JSON).  Mesh files are
written as bytes and the verify report with newline='\\n', so both end
lines in '\\n' on every platform.  generate and rotate sample the mesh
diagnostics only for mesh JSON, the one format that writes them.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import types
from dataclasses import fields

import numpy as np

from . import geometry, surface, verify
from .expr import (InputError, ParseError, differentiate, eval_jet2_array,
                   parse_expr, unparse)
from .surface import EmptyMeshError, SurfaceMesh, SurfaceSpec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_IO = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6

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
# Mesh writers (single writer, after computation completes).  Numbers come
# from NUL-padded ASCII tables built with numpy: face indices (_index_table)
# and floats (_float_table, from the tables of _lookup), in '%.17g' with '.0'
# after an integer.  _join lays rows of such tables out
# between the literal bytes of a template: OBJ and PLY lines (_write_blocks)
# and mesh JSON cells (_write_json_cells).  Files are opened in binary mode
# and get these bytes with the NULs dropped.
# ---------------------------------------------------------------------------

def _index_table(n: int) -> np.ndarray:
    """Row i holds i in right-aligned ASCII, NUL-padded on the left, i < n."""
    powers, values = 10 ** np.arange(len(str(n - 1)))[::-1], np.arange(n)
    table = np.empty((n, len(powers)), dtype=np.uint8)
    for column, power in enumerate(powers.tolist()):  # one column at a time
        table[:, column] = np.where((values >= power) | (power == 1),
                                    values // power % 10 + ord("0"), 0)
    return table


def _join(template: str, slots) -> np.ndarray:
    """``template`` once per row of the 2-d uint8 arrays ``slots``, each '{k}'
    as that row of slots[k], in one uint8 row per line."""
    return np.concatenate(
        [slots[int(piece)] if i % 2 else np.broadcast_to(
            np.frombuffer(piece.encode(), np.uint8), (len(slots[0]), len(piece)))
         for i, piece in enumerate(re.split(r"\{(\d)\}", template)) if piece], axis=1)


def _text_rows(texts: list[str], width: int = 24) -> np.ndarray:
    """Each of ``texts``, ASCII of at most ``width`` bytes, as a NUL-padded row."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


# 10^q is tabled for |q| <= _POWERS
_POWERS = 300


@functools.cache
def _lookup() -> types.SimpleNamespace:
    """The tables of _float_table, built on first use: powers, 10^q for
    |q| <= _POWERS as hi + lo, hi the nearest double and lo the nearest to
    10^q - hi (0 for q in 0..22); digits4 and zeros4, 0..9999 as 4-byte digit
    words and their trailing zeros (4 for 0); suffixes, 'e+XX' per E + 400 in
    8 bytes; specials, the rows of 0.0, -0.0, inf, -inf, nan and nan;
    layouts, per (sign, slot, kept digits - 1) the columns of _spell's source
    row that spell '%.17g' with '.0' after an integer, slot E + 4 in fixed
    notation, E from -4 to 16, or 21 for d.ddd and the suffix."""
    powers = np.empty((2, 2 * _POWERS + 1))
    for q in range(-_POWERS, _POWERS + 1):
        a, b = 10 ** max(q, 0), 10 ** max(-q, 0)
        hi = a / b  # int / int is correctly rounded
        num, den = hi.as_integer_ratio()
        powers[:, _POWERS + q] = hi, (a * den - num * b) / (b * den)
    layouts = np.zeros((2, 22, 17, 24), dtype=np.uint8)
    digits = list(range(7, 24))
    for neg, slot, k in np.ndindex(2, 22, 17):
        e, k = slot - 4, k + 1
        if slot == 21:  # d.ddd, then the suffix
            columns = digits[:1] + [3] * (k > 1) + digits[1:k] + list(range(24, 29))
        elif e < 0:
            columns = [2, 3] + [4] * (-e - 1) + digits[:k]
        else:  # an integer ends in '.0'
            columns = digits[:e + 1] + [3] + (digits[e + 1:k] or [2])
        layouts[neg, slot, k - 1, :neg + len(columns)] = [1] * neg + columns
    suffixes = np.array([b"e%+03d" % e for e in range(-400, 401)], "S8").view(np.uint64)
    return types.SimpleNamespace(
        powers=powers, layouts=layouts, suffixes=suffixes,
        digits4=np.maximum(_index_table(10**4), ord("0")).view(np.uint32).ravel(),
        zeros4=sum((np.arange(10**4) % 10**k == 0).astype(np.uint8) for k in range(1, 5)),
        specials=_text_rows(["0.0", "-0.0", "inf", "-inf", "nan", "nan"]))


def _rint_product(x: np.ndarray, c: np.ndarray,
                  c_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = x*(c + c_lo) rounded half to even, and the residual x*(c + c_lo) - N.
    Dekker's product x*c = p + err is exact, and p is an even integer where
    x*c >= 2**53, so N and the residual are exact there when c_lo is 0;
    x*c_lo joins err with one rounding."""
    p = x * c
    # Veltkamp's split into halves of at most 26 significant bits
    xh, ch = (v * 134217729.0 - (v * 134217729.0 - v) for v in (x, c))
    xl, cl = x - xh, c - ch
    err = (((xh * ch - p) + xh * cl + xl * ch) + xl * cl) + x * c_lo
    rounded = np.rint(err)
    return p.astype(np.int64) + rounded.astype(np.int64), err - rounded


def _round17(size: np.ndarray, powers: np.ndarray):
    """D17 = size*10^q rounded half to even, with q = 16 - E so that D17 has 17
    digits, its residual size*10^q - D17, and E, floor(log10(size)) moved by
    one where D17 falls outside [10^16, 10^17).  E can still be one too high,
    with D17 = 10^16 and a negative residual, for a double just below a power
    of ten; _digits catches that case."""
    e = np.floor(np.log10(size)).astype(np.intp)
    n, r = _rint_product(size, *np.take(powers, _POWERS + 16 - e, axis=1))
    redo = (n < 10**16) | (n >= 10**17)
    if redo.any():
        e[redo] += np.where(n[redo] < 10**16, -1, 1)
        n[redo], r[redo] = _rint_product(
            size[redo], *np.take(powers, _POWERS + 16 - e[redo], axis=1))
    return n, r, e


def _spell(n: np.ndarray, neg: np.ndarray, slot: np.ndarray,
           suffix: np.ndarray) -> np.ndarray:
    """Rows of 24 ASCII bytes, NUL-padded: _lookup's layouts[neg, slot,
    kept digits - 1] gathered from the source row b'\\0-0.000', the 17 digits
    of n (10^16 <= n < 10^17, trailing zeros not kept), then 8 bytes of suffix."""
    lookup = _lookup()
    source = np.empty((len(n), 32), dtype=np.uint8)
    words = source.view(np.uint32)
    words[:, 0] = np.frombuffer(b"\0-0.", np.uint32)
    groups = []  # the 4-digit groups of n, last first
    for _ in range(4):
        top = n // 10**4
        groups.append(n - top * 10**4)
        n = top
    words[:, 1] = lookup.digits4[n]
    zeros = 0
    for column, group in enumerate(groups[::-1], 2):
        words[:, column] = lookup.digits4[group]
        zeros = lookup.zeros4[group] + (group == 0) * zeros
    source.view(np.uint64)[:, 3] = suffix
    key = (neg * 22 + slot) * 17 + 16 - zeros
    layouts = lookup.layouts.reshape(-1, 24)
    text = np.empty((len(key), 24), dtype=np.uint8)
    for start in range(0, len(key), 1024):  # the gather's index array stays small
        columns = np.take(layouts, key[start:start + 1024], axis=0)
        text[start:start + 1024] = source.ravel()[
            columns + np.arange(32 * start, 32 * (start + len(columns)), 32)[:, None]]
    return text


# The double-double decisions of _digits are off by less than 1e-13 in units
# of D17's last digit; one closer than this to its threshold is left to _g17.
_MARGIN = 1e-9


def _digits(size: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits of '%.17g' for each of ``size`` (|x|, finite, not 0): D17
    from _round17 with 10^q as a double-double, E, and the values to leave
    to _g17: where the rounding came within _MARGIN of half a unit, and
    where D17 = 10^16 with a negative residual puts E one too high
    (9.9999999999999995e-07 would read 1e-06)."""
    powers = _lookup().powers
    n, r, e = _round17(size, powers)
    inexact = powers[1, _POWERS + 16 - e] != 0
    return n, e, inexact & (abs(r) > 0.5 - _MARGIN) | (n == 10**16) & (r < 0)


def _g17(x: float) -> str:
    """'%.17g' of ``x`` with '.0' after an integer: 1.0, -0.0, 1e16 as
    10000000000000000.0."""
    text = "%.17g" % x
    return text + ".0" if text.lstrip("-").isdigit() else text


def _float_table(values: np.ndarray) -> np.ndarray:
    """Each of ``values`` as _g17 spells it, a NUL-padded row of 24 ASCII bytes
    from _digits's digits: fixed notation for E from -4 to 16, else
    d.ddde+XX.  _g17 itself spells |x| outside [1e-280, 1e280] and _digits's
    unsure values; ±0, ±inf, NaN come from a table."""
    lookup = _lookup()
    x = np.ravel(values)
    size = abs(x)
    fast = (size >= 1e-280) & (size <= 1e280)
    size[~fast] = 1.5  # a stand-in, its row replaced below
    n, e, unsure = _digits(size)
    slot = np.where((e >= -4) & (e <= 16), e + 4, 21)
    table = _spell(n, np.signbit(x), slot, lookup.suffixes[e + 400])
    special = ~np.isfinite(x) | (x == 0)
    if special.any():
        v = x[special]
        table[special] = lookup.specials[2 * np.isinf(v) + np.signbit(v) + 4 * np.isnan(v)]
    others = (~fast | unsure) & ~special
    if others.any():
        table[others] = _text_rows([_g17(v) for v in x[others].tolist()])
    return table


def _write_blocks(fh, template: str, *columns: np.ndarray) -> None:
    """_join of ``template`` over the rows of ``columns`` side by side, by
    surface.BLOCK_POINTS rows, '{k}' as the k-th number of a row: a face
    index (integer columns, from _index_table) or a float (_float_table)."""
    indices = columns[0].dtype.kind == "i"
    table = _index_table(int(columns[0].max(initial=0)) + 1) if indices else None
    for start in range(0, len(columns[0]), surface.BLOCK_POINTS):
        block = np.hstack([c[start:start + surface.BLOCK_POINTS] for c in columns])
        slots = ([table.take(column, axis=0) for column in block.T] if indices
                 else _float_table(block).reshape(*block.shape, 24).swapaxes(0, 1))
        fh.write(_join(template, slots).tobytes().translate(None, b"\0"))


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    with open(path, "wb") as fh:
        fh.write(b"# generated by grtsurf\n")
        _write_blocks(fh, "v {0} {1} {2}\n", verts)
        _write_blocks(fh, "vn {0} {1} {2}\n", normals)
        # triangles (a, b, c) and (a, c, d) of each quad, 1-based, as i//i
        _write_blocks(fh, "f {0}//{0} {1}//{1} {2}//{2}\n"
                      "f {0}//{0} {2}//{2} {3}//{3}\n", mesh.faces + 1)


def write_ply(mesh: SurfaceMesh, path: str) -> None:
    verts, normals = mesh.compact_vertices()
    with open(path, "wb") as fh:
        fh.write("ply\nformat ascii 1.0\n"
                 f"element vertex {len(verts)}\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float nx\nproperty float ny\nproperty float nz\n"
                 f"element face {2 * mesh.face_count}\n"
                 "property list uchar int vertex_indices\nend_header\n".encode())
        _write_blocks(fh, "{0} {1} {2} {3} {4} {5}\n", verts, normals)
        _write_blocks(fh, "3 {0} {1} {2}\n3 {0} {2} {3}\n", mesh.faces)


def _json_list(items: list[str], level: int) -> str:
    """Formatted items as json.dump(indent=1) lays out a list at ``level``."""
    pad = "\n" + " " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]" if items else "[]"


def _write_json_cells(fh, values: np.ndarray, rows: int, level: int,
                      cell: str = "{0}{1}", valid=None, other: str = "null") -> None:
    """The cells of ``values`` (one per row) as json.dump(indent=1) lays out,
    at ``level``, a list of ``rows`` lists (a flat list where ``rows`` is 0).
    A cell is ``cell``, '{0}' as the separator and indentation set by its grid
    position and '{k}' as _float_table spells its k-th value (null if not
    finite), or
    the separator and ``other`` where ``valid`` is False.  Each block of at
    most 3 * surface.BLOCK_POINTS values (or cells, where a cell has none) is
    one _join.  A run of bit-equal neighbours is formatted once; null then
    replaces each value that is not finite."""
    count, width = values.shape
    if not count:
        fh.write(_json_list(["[]"] * rows, level).encode())
        return
    pad = "\n" + " " * (level + 1)  # before a row, or a flat list's cell
    inner = pad + " " * (rows > 0)  # before a cell
    # before the first cell, the first of a later row, any other cell
    prefixes = ["[" + pad + "[" + inner if rows else "[" + inner,
                pad + "]," + pad + "[" + inner, "," + inner]
    prefixes = _text_rows(prefixes, max(map(len, prefixes)))
    other = np.frombuffer(other.encode(), np.uint8)
    valid = np.ones(count, bool) if valid is None else np.ravel(valid)
    null = _text_rows(["null"])[0]
    cols = count // max(rows, 1)
    step = max(3 * surface.BLOCK_POINTS // max(width, 1), 1)
    for start in range(0, count, step):
        block = values[start:start + step]
        cells = np.arange(start, start + len(block))
        ok = valid[start:start + len(block)]
        bits = np.ravel(block).view(np.int64)
        heads = np.ones(len(bits), bool)  # the first value of each run
        heads[1:] = bits[1:] != bits[:-1]
        text = _float_table(bits[heads].view(float)).take(np.cumsum(heads) - 1, axis=0)
        text[~np.isfinite(bits.view(float))] = null
        text = text.reshape(block.shape + (24,)).swapaxes(0, 1)
        seps = prefixes.take(np.where(cells % cols > 0, 2, np.where(cells > 0, 1, 0)), axis=0)
        if ok.all():
            body = _join(cell, [seps, *text])
        else:  # with room for ``other``
            body = _join(cell + "\0" * len(other), [seps, *text])
            body[~ok, prefixes.shape[1]:] = 0  # an invalid cell: its separator, ``other``
            body[~ok, prefixes.shape[1]:prefixes.shape[1] + len(other)] = other
        fh.write(body.tobytes().translate(None, b"\0"))
    fh.write(((pad + "]" if rows else "") + pad[:-1] + "]").encode())


# JSON keys of the MeshDiagnostics fields that are not named as in the file
_JSON_KEYS = {"mean": "mean_curvature", "gauss": "gauss_curvature"}


def write_mesh_json(mesh: SurfaceMesh, path: str) -> None:
    """Mesh JSON in the layout of json.dump(..., indent=1), each float as
    _float_table spells it, so a JSON float, and null if not finite.  The mesh must carry all its diagnostics (sampled with the default
    ``diagnostics=True``)."""
    rows = len(mesh.valid)
    quad = ",\n  " + _json_list(["{0}", "{1}", "{2}", "{3}"], 2)
    with open(path, "wb") as fh:
        for key, u in ((b'{\n "u1": ', mesh.u1), (b',\n "u2": ', mesh.u2)):
            fh.write(key)
            _write_json_cells(fh, u.reshape(-1, 1), 0, 1)
        for key, grid in (("vertices", mesh.vertices), ("normals", mesh.normals)):
            fh.write(f',\n "{key}": '.encode())  # null at invalid vertices
            _write_json_cells(fh, grid.reshape(-1, 3), rows, 1,
                              "{0}[\n    {1},\n    {2},\n    {3}\n   ]", mesh.valid)
        fh.write(b',\n "faces": ' + (b"[" if mesh.face_count else b"[]"))
        _write_blocks(fh, quad[1:], mesh.faces[:1])  # its ',' is the '[' above
        _write_blocks(fh, quad, mesh.faces[1:])
        fh.write(b"\n ]" if mesh.face_count else b"")
        sep = ',\n "diagnostics": {'
        for name in (f.name for f in fields(mesh.diagnostics)):
            fh.write(f'{sep}\n  "{_JSON_KEYS.get(name, name)}": '.encode())
            _write_json_cells(fh, getattr(mesh.diagnostics, name).reshape(-1, 1), rows, 2)
            sep = ","
        fh.write(b',\n  "regular": ')  # cells without values: true, else false
        _write_json_cells(fh, np.empty((mesh.valid.size, 0)), rows, 2, "{0}true",
                          mesh.valid, "false")
        fh.write(b"\n }\n}\n")


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


def _checked(convert, rule: surface.Rule):
    """An argparse type: the text through ``convert``, rejected unless the
    value meets ``rule``; the exit-2 message names the flag and the rule."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        try:
            return rule.check(value)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_finite = _checked(float, surface.FINITE)
_non_negative = _checked(float, surface.NON_NEGATIVE)
_fd_step = _checked(float, verify.FD_STEP)
_resolution = _checked(int, surface.Rule(">= 2", lambda n: n >= 2))
_samples = _checked(int, surface.Rule(f"between 1 and {surface.MAX_GRID_POINTS}",
                                      lambda n: 1 <= n <= surface.MAX_GRID_POINTS))


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
        ver.add_argument(f"--tol-{cls}", type=_non_negative, default=tol,
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


# One parser per process, which parse_args leaves unchanged, built at import:
# built by a first call it lands amid that call's arrays (peak RSS +1-3 MB).
_PARSER = _build_parser()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fill_inputs(args, presets: dict, names: tuple[str, ...]) -> None:
    """Fill each flag of ``names`` left unset (None, or an empty expression)
    from --preset, and --out with '<preset>.<format>' (OBJ without
    --format); raise InputError naming every input still missing.  Then
    fill --format, if unset, from the --out extension (any case), else 'obj'."""
    if args.preset:
        for name in names:
            if getattr(args, name) in (None, ""):
                setattr(args, name, presets[args.preset][name])
        if args.out is None:
            args.out = f"{args.preset}.{args.format or 'obj'}"
    missing = [f"--{name}" for name in (*names, "out") if getattr(args, name) is None]
    if missing:
        raise InputError(f"{args.subcommand} requires {', '.join(missing)}")
    args.format = args.format or next(
        (fmt for fmt in _WRITERS if args.out.lower().endswith("." + fmt)), "obj")


def _window(args) -> dict:
    """Window, resolution and eps of the sampled grid, as SurfaceSpec names them."""
    return dict(u1_range=args.u1, u2_range=args.u2, nu1=args.nu1 or args.n,
                nu2=args.nu2 or args.n, regularity_eps=args.eps)


def _write_mesh(mesh: SurfaceMesh, args) -> None:
    """Write --out in --format, then print the mesh's summary line."""
    _WRITERS[args.format](mesh, args.out)
    print(f"wrote {args.out}: {mesh.vertex_count} vertices, "
          f"{2 * mesh.face_count} triangles "
          f"({mesh.face_count} quads), "
          f"regular {100.0 * mesh.regular_fraction():.2f}%, "
          f"min|detV| {mesh.min_abs_det_v():.6g}")


def _cmd_generate(args) -> int:
    _fill_inputs(args, GENERATE_PRESETS, ("f", "g", "ell"))
    spec = SurfaceSpec.from_strings(args.f, args.g, args.ell, method=args.method,
                                    **_window(args))
    # only mesh JSON writes the diagnostics beyond psi and det V
    _write_mesh(surface.sample_mesh(spec, diagnostics=args.format == "json"), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = SurfaceSpec.from_strings(args.f, args.g, args.ell, **_window(args))
    tolerances = {cls: getattr(args, f"tol_{cls}") for cls in verify.CLASS_TOLERANCES}
    report = verify.run_checks(spec, step=args.fd_step, tolerances=tolerances)
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
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
    mesh = surface.sample_rotation_mesh(args.a, args.b, ell, **_window(args),
                                        diagnostics=args.format == "json")
    _write_mesh(mesh, args)
    if args.a == 0.0:
        # psi = ell(Re f) = ell(b) at every vertex
        radius = abs(mesh.diagnostics.psi[mesh.valid][0])
        print(f"note: a = 0 degenerates to the sphere of radius {radius:.12g} "
              f"(|ell(b)| with b = {args.b:g})")
    if args.cross_check:
        check = verify.rotation_match(mesh)
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
    jet = eval_jet2_array(ell, mus, variable="t")
    c = geometry.profile_ratio(jet)
    cs = c[~np.isnan(c)].tolist()
    errors = int(np.isnan(jet.value).sum())
    degenerate = mus.size - errors - len(cs)
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
    constant, c_value, label = geometry.profile_class(cs)
    result.update({"c_constant": constant, "c_value": c_value, "label": label})
    if not cs:
        result["note"] = ("C undefined on the sampled range (ell'^2 = 0, "
                          "C not finite or evaluation failed everywhere)")
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
        print(f"degenerate points skipped (ell'^2 = 0 or C not finite): {degenerate}")
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
    try:
        args = _PARSER.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.subcommand](args)
    except (ParseError, InputError) as exc:
        message, code = f"error: {exc}", EXIT_PARSE
    except MemoryError as exc:  # the grid does not fit: an input too large
        message, code = f"error: out of memory: {exc}", EXIT_PARSE
    except EmptyMeshError as exc:
        message, code = f"error: {exc}", EXIT_EMPTY
    except OSError as exc:
        message, code = f"error: {exc}", EXIT_IO
    except Exception as exc:  # a fault of the program, not of its input
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
