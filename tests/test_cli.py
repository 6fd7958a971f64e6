"""CLI: subcommands, exit codes, file outputs, determinism."""
import argparse
import errno
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import gen_source
from grtsurf import cli, surface
from grtsurf.cli import main
from grtsurf.expr import MAX_DEPTH, InputError, parse_expr
from grtsurf.surface import MAX_GRID_POINTS, SurfaceSpec, rotation_spec
from grtsurf.verify import FD_CHECKS, run_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_obj(tmp_path, capsys):
    out = tmp_path / "surf.obj"
    code, stdout, _ = run(capsys, "generate", "--f", "z", "--g", "z",
                          "--ell", "t^2+t+1", "--u1", "-1:1", "--u2", "-1:1",
                          "--n", "16", "--out", str(out))
    assert code == 0
    assert "256 vertices" in stdout and "regular 100.00%" in stdout
    text = out.read_text()
    assert text.startswith("# generated by grtsurf")
    assert text.count("\nv ") == 256
    assert text.count("\nvn ") == 256
    assert text.count("\nf ") == 2 * 15 * 15


def test_generate_ply_and_json(tmp_path, capsys):
    for fmt in ("ply", "json"):
        out = tmp_path / f"surf.{fmt}"
        code, _, _ = run(capsys, "generate", "--f", "z", "--g", "z",
                         "--ell", "cos(t)", "--u1", "-1:1", "--u2", "-1:1",
                         "--n", "8", "--out", str(out))
        assert code == 0
        if fmt == "ply":
            head = out.read_text().splitlines()
            assert head[0] == "ply"
            assert "element vertex 64" in head[2]
        else:
            data = json.loads(out.read_text())
            assert len(data["vertices"]) == 8
            assert "diagnostics" in data


def test_generate_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = ("generate", "--f", "z^2", "--g", "exp(z)", "--ell", "t^2+1",
            "--u1", "-1:1", "--u2", "-1:1", "--n", "12")
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of `generate --preset fig1 --n 32` as written before the face
# indices came from a digit table; the JSON digests were recorded again when
# mesh JSON floats went from shortest repr to '%.17g' with '.0' after an
# integer (the old files with each float token spelled so hash the same).
# fig1 calls no transcendental function, so its digits do not depend on the
# platform's libm.
FIG1_N32_SHA256 = {
    ("closed_form", "obj"): "a59b98324e3c5123468ddfcabe4323605e29bf57d1a808d272f08326342af6fa",
    ("closed_form", "ply"): "8ad9d189aeb4f4b6596e83122138279fc384687964798b6348fedc19a2cf39c0",
    ("closed_form", "json"): "4f5bb24fe22ba22150fb2044b89c860170358a3b92bb3fd627ddf556104f1fdb",
    ("direct", "obj"): "c51abeb612d3896957f9e6b4148f96584e45c97d25eab9aefd24e65bf2c428b5",
    ("direct", "ply"): "9238f3409eeb40f47e2688923deeef369b0716eea76f1c1ca40b83b63850a510",
    ("direct", "json"): "a6ef4d9f449f61f3a922718dbd98c0c01aa11bd84552c9dbd94667e3f30bcad2",
}


@pytest.mark.parametrize("method, fmt", sorted(FIG1_N32_SHA256))
def test_fig1_outputs_match_recorded_digests(tmp_path, capsys, method, fmt):
    out = tmp_path / f"fig1.{fmt}"
    assert run(capsys, "generate", "--preset", "fig1", "--n", "32",
               "--method", method, "--out", str(out))[0] == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FIG1_N32_SHA256[method, fmt]


# sha256 of the masked mesh JSON at 33², recorded again when its floats went
# from shortest repr to '%.17g' with '.0' after an integer: null cells,
# 1,291 zero diagnostics (33 of them -0.0), and psi and C constant along
# each row.  ell calls log, so, as for the exp sweep below, the digest holds
# for the numpy 2.4 build on x86-64 Linux it was recorded with.
MASKED_N33_SHA256 = "a00aa2a33b951a5cbef60a51f827fba7b18f9664dadde0c0538fee2843ea290c"


def test_masked_mesh_json_matches_recorded_digest(tmp_path, capsys):
    out = tmp_path / "masked.json"
    assert run(capsys, "generate", "--f", "z", "--g", "z", "--ell", "log(t+0.5)",
               "--n", "33", "--format", "json", "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MASKED_N33_SHA256


# sha256 of the `verify --n 64 --out` reports of the three acceptance sweeps,
# keyed by test id, and of `rotate --preset fig5 --n 32 --cross-check` with
# its stdout, as written while the cross-check sampled its own window.  The
# exp report was recorded again when the checks moved from one point at a
# time to blocks of points: its float fields moved by rounding, as numpy's
# complex arithmetic rounds differently from Python's, and every count,
# exclusion and status stayed.  exp and fig5 call exp and sinh, so these
# digests hold for the numpy 2.4 build on x86-64 Linux they were recorded
# with.
SWEEP_N64_SHA256 = {
    "fig1": (("z", "z", "t^2+t+1"),
             "8b336c558aa23bc3b0d91b8ca741a5762beca39c66a2e0bc03d67f73082bc3f0"),
    "fig2": (("z", "z", "cos(t)"),
             "108a4bd0048251a0aa955a093f33ac0770394a4fd395fd0ee0dd906e2bf04fc2"),
    "exp": (("z^2", "exp(z)", "t^2+1"),
            "50ebec93825b515f85c6dad6cfe49cf4377652fcd96311124da8d1becc90ad11"),
}


@pytest.mark.parametrize("sweep", sorted(SWEEP_N64_SHA256))
def test_sweep_reports_match_recorded_digests(tmp_path, capsys, sweep):
    (f, g, ell), digest = SWEEP_N64_SHA256[sweep]
    out = tmp_path / "report.json"
    assert run(capsys, "verify", "--f", f, "--g", g, "--ell", ell,
               "--n", "64", "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_rotate_cross_check_matches_recorded_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "rotate", "--preset", "fig5", "--n", "32",
                          "--cross-check", "--out", "fig5.obj")
    assert code == 0
    assert stdout == ("wrote fig5.obj: 1024 vertices, 1922 triangles (961 quads), "
                      "regular 100.00%, min|detV| 3.25295e-06\n"
                      "cross-check rotation vs closed form: ok (max_rel=3.252e-16)\n")
    assert hashlib.sha256((tmp_path / "fig5.obj").read_bytes()).hexdigest() == (
        "c6ffdc36ecc47cf3ecd8a871247c0770cd1aa0b95b3c7dcd1be900d9b304a910")


def test_generate_isolated_singular_vertex(tmp_path, capsys):
    out = tmp_path / "s.obj"
    code, stdout, _ = run(capsys, "generate", "--f", "z", "--g", "z^2",
                          "--ell", "t^2+t+1", "--u1", "-1:1", "--u2", "-1:1",
                          "--n", "5", "--out", str(out))
    assert code == 0
    assert "24 vertices" in stdout


def test_generate_parse_error_exit_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "generate", "--f", "2*+z", "--g", "z",
                          "--ell", "t", "--out", str(tmp_path / "x.obj"))
    assert code == 2
    assert "offset 2" in stderr
    assert not (tmp_path / "x.obj").exists()


def test_generate_empty_mesh_exit_3(tmp_path, capsys):
    # rotate: mu = u1 - 5 < -0.5 puts every vertex past the log cut, so the
    # mesh is empty before the cross-check runs
    for argv in (("generate", "--f", "z", "--g", "1", "--ell", "t", "--n", "4"),
                 ("rotate", "--a", "1", "--b", "-5", "--ell", "log(t+0.5)",
                  "--u2", "0:1", "--n", "5", "--cross-check")):
        code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "x.obj"))
        assert code == 3
        assert "no regular vertex" in stderr


def test_generate_io_error_exit_4(tmp_path, capsys):
    code, _, stderr = run(capsys, "generate", "--f", "z", "--g", "z",
                          "--ell", "t", "--n", "4",
                          "--out", str(tmp_path / "missing" / "x.obj"))
    assert code == 4


def check_interrupted_write(tmp_path, capsys, monkeypatch, fmt, error):
    """Run generate with cli._join raising ``error`` after the writer's
    first block; return the exit code and stderr."""
    join, calls = cli._join, []

    def faulty_join(template, slots):
        calls.append(template)
        if len(calls) > 1:
            raise error
        return join(template, slots)

    monkeypatch.setattr(cli, "_join", faulty_join)
    code, stdout, stderr = run(capsys, "generate", "--preset", "fig1", "--n", "8",
                               "--format", fmt, "--out", str(tmp_path / "x"))
    assert len(calls) == 2 and stdout == ""
    return code, stderr


@pytest.mark.parametrize("fmt", ["obj", "ply", "json"])
def test_writer_fault_exits_6(tmp_path, capsys, monkeypatch, fmt):
    # a ValueError of the program's own, here after the writer's first
    # block, is not a bad input: exit 6, with one line that names its type
    assert check_interrupted_write(tmp_path, capsys, monkeypatch, fmt,
                                   ValueError("shape mismatch")) == (
        6, "internal error: ValueError: shape mismatch\n")


@pytest.mark.parametrize("fmt", ["obj", "ply", "json"])
def test_writer_io_error_exits_4(tmp_path, capsys, monkeypatch, fmt):
    # an OSError in mid-write, such as a full disk, is an I/O failure
    assert check_interrupted_write(tmp_path, capsys, monkeypatch, fmt,
                                   OSError(errno.ENOSPC, "No space left on device")) == (
        4, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, called", [
    (("generate", "--preset", "fig1", "--format", "obj"), False),
    (("generate", "--preset", "fig1", "--format", "ply"), False),
    (("rotate", "--preset", "fig3", "--cross-check"), False),
    (("generate", "--preset", "fig1", "--format", "json"), True),
    (("rotate", "--preset", "fig3", "--format", "json"), True),
], ids=["generate-obj", "generate-ply", "rotate-cross-check", "generate-json",
        "rotate-json"])
def test_identity_kernels_run_only_for_mesh_json(tmp_path, capsys, monkeypatch,
                                                 argv, called):
    # OBJ and PLY hold vertices and normals alone, and the cross-check reads
    # the closed-form vertices: only mesh JSON writes the identity residuals
    calls = []

    def spy(name, kernel):
        def counted(frame, x):
            calls.append(name)
            return kernel(frame, x)
        return counted

    monkeypatch.setattr(surface, "IDENTITIES", tuple(
        (name, key, spy(name, kernel)) for name, key, kernel in surface.IDENTITIES))
    assert run(capsys, *argv, "--n", "8", "--out", str(tmp_path / "out"))[0] == 0
    names = {name for name, _, _ in surface.IDENTITIES}
    assert set(calls) == (names if called else set())


def test_grid_too_large_for_memory_exit_2(tmp_path):
    # the largest square grid the limit accepts, 2048^2, peaks at 1 GiB of
    # RSS, against 140 MiB of address space for a small grid; the child's
    # address space is capped at 512 MiB, so an allocation fails instead of
    # growing.
    # One BLAS thread keeps the address space after import off the core count.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "grtsurf.cli", "generate", "--preset", "fig1",
         "--n", str(math.isqrt(MAX_GRID_POINTS)), "--out", str(tmp_path / "x.obj")],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("generate", "--preset", "fig1", "--n", "20000"),
    ("rotate", "--preset", "fig3", "--nu1", "2", "--nu2", str(MAX_GRID_POINTS // 2 + 1)),
    ("verify", "--n", "20000"),
], ids=["generate", "rotate", "verify"])
def test_oversize_grid_exits_2_up_front(tmp_path, capsys, argv):
    # rejected before any array is allocated: no address-space cap needed
    out = tmp_path / "out.obj"
    extra = ("--out", str(out)) if argv[0] != "verify" else ()
    code, stdout, stderr = run(capsys, *argv, *extra)
    assert code == 2
    assert stderr.startswith("error: grid of ") and stderr.count("\n") == 1
    assert f"limit of {MAX_GRID_POINTS} points" in stderr
    assert not out.exists() and stdout == ""


def test_generate_presets(tmp_path, capsys):
    for preset in ("fig1", "fig2"):
        out = tmp_path / f"{preset}.obj"
        code, stdout, _ = run(capsys, "generate", "--preset", preset,
                              "--n", "16", "--out", str(out))
        assert code == 0
        assert out.exists()


def test_flag_overrides_preset(tmp_path, capsys):
    over, fig2 = tmp_path / "over.obj", tmp_path / "fig2.obj"
    assert run(capsys, "generate", "--preset", "fig1", "--ell", "cos(t)",
               "--n", "8", "--out", str(over))[0] == 0
    assert run(capsys, "generate", "--preset", "fig2",
               "--n", "8", "--out", str(fig2))[0] == 0
    assert over.read_bytes() == fig2.read_bytes()
    code, stdout, _ = run(capsys, "rotate", "--preset", "fig4", "--b", "2",
                          "--n", "8", "--out", str(tmp_path / "rot.obj"))
    assert code == 0
    assert "sphere of radius 7 " in stdout  # |ell(2)| for ell = t^2+t+1


def test_preset_without_out_writes_preset_obj(tmp_path, capsys, monkeypatch):
    """The default --out is '<preset>.<format>', '<preset>.obj' without
    --format."""
    monkeypatch.chdir(tmp_path)
    for subcommand, preset, fmt, head in (("generate", "fig1", None, "# generated"),
                                          ("rotate", "fig3", None, "# generated"),
                                          ("generate", "fig1", "ply", "ply\n"),
                                          ("rotate", "fig3", "json", "{")):
        code, stdout, _ = run(capsys, subcommand, "--preset", preset, "--n", "6",
                              *(("--format", fmt) if fmt else ()))
        name = f"{preset}.{fmt or 'obj'}"
        assert code == 0
        assert stdout.startswith(f"wrote {name}: 36 vertices")
        assert (tmp_path / name).read_text().startswith(head)


def test_format_flag_beats_extension(tmp_path, capsys):
    out = tmp_path / "surf.obj"
    code, _, _ = run(capsys, "generate", "--preset", "fig1", "--n", "6",
                     "--format", "ply", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("ply\n")


@pytest.mark.parametrize("name, head", [("m.JSON", "{"), ("m.PLY", "ply")])
def test_extension_picks_format_in_any_case(tmp_path, capsys, name, head):
    out = tmp_path / name
    code, _, _ = run(capsys, "generate", "--preset", "fig1", "--n", "6",
                     "--out", str(out))
    assert code == 0
    assert out.read_text().split("\n")[0] == head


# Consecutive calls whose flags differ: a value, default or format of one
# call must not reach the next through the parser they share.
SUCCESSIVE_ARGV = (
    ("generate", "--preset", "fig1", "--n", "6", "--eps", "1e-3", "--u1", "-0.5:0.5",
     "--format", "ply", "--out", "a.json"),
    ("generate", "--preset", "fig1", "--n", "6", "--out", "b.json"),
    ("verify", "--ell", "cos(t)", "--n", "8", "--tol-fd", "1e-9", "--out", "c.json"),
    ("verify", "--n", "8", "--out", "d.json"),
    ("rotate", "--preset", "fig5", "--cross-check", "--n", "6", "--format", "json"),
    ("rotate", "--preset", "fig5", "--n", "6"),
    ("generate", "--f", "z", "--n", "1"),
    ("info", "--ell", "t^2", "--json"),
    ("info", "--ell", "t^2"),
)


def test_successive_calls_match_calls_with_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # main parses with one parser per process; a fresh parser is what each
    # call built before
    results = []
    for fresh in (False, True):
        cwd = tmp_path / ("fresh" if fresh else "shared")
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        calls = []
        for argv in SUCCESSIVE_ARGV:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
            calls.append(run(capsys, *argv))
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        results.append((calls, files))
    assert [code for code, _, _ in results[0][0]] == [0, 0, 5, 0, 0, 0, 2, 0, 0]
    assert sorted(results[0][1]) == ["a.json", "b.json", "c.json", "d.json", "fig5.json",
                                     "fig5.obj"]
    assert results[0] == results[1]


def test_values_may_start_with_minus(tmp_path, capsys):
    code, _, stderr = run(capsys, "generate", "--f", "-z", "--g", "z",
                          "--ell", "-t^2+2", "--n", "4",
                          "--out", str(tmp_path / "x.obj"))
    assert (code, stderr) == (0, "")
    code, stdout, _ = run(capsys, "info", "--ell", "-t")
    assert code == 0
    assert "Appell" in stdout


def test_switches_are_the_long_flags_without_a_value():
    # _normalize_argv joins '--flag -x' into '--flag=-x' unless --flag is a
    # switch, so a switch missing from _SWITCHES would swallow the next token
    parsers = [cli._PARSER] + [sub for action in cli._PARSER._actions
                               if isinstance(action, argparse._SubParsersAction)
                               for sub in action.choices.values()]
    switches = {flag for parser in parsers for action in parser._actions
                if action.nargs == 0 for flag in action.option_strings
                if flag.startswith("--")}
    assert sorted(cli._SWITCHES) == sorted(switches)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_defaults_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", "--n", "16", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["spec"]["f"] == "z"
    assert report["spec"]["ell"] == "t^2+t+1"
    names = {c["name"] for c in report["checks"]}
    assert "weingarten_relation" in names and "forms_vs_fd" in names
    assert "PASS" in stdout


def test_verify_help_shows_its_u2_default(capsys):
    code, stdout, _ = run(capsys, "verify", "--help")
    assert code == 0
    (line,) = [line for line in stdout.splitlines() if "--u2 U2 " in line]
    assert line.endswith("(default -1:1)")
    assert "[--f F] [--g G]" in stdout and "F_SRC" not in stdout


def test_verify_stdout_json_when_no_out(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "8")
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True


def test_verify_report_is_strict_json(tmp_path, capsys):
    # <X, X> overflows at the outer points: NaN residuals are written as null
    out = tmp_path / "r.json"
    code, stdout, _ = run(capsys, "verify", "--f", "z^3", "--g", "z",
                          "--ell", "1e154*t", "--n", "6", "--out", str(out))
    assert code == 5 and "max_rel=nan" in stdout

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["pass"] is False
    assert any(c["count"] and c["max_rel"] is None for c in report["checks"])


def test_verify_appell_branch_noted(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--ell", "t", "--n", "12",
                     "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    wein = next(c for c in report["checks"] if c["name"] == "weingarten_relation")
    assert wein["pass"] is True
    assert report["spec"]["profile_c"] == 0.0
    assert report["spec"]["profile_label"] == "Appell"


def test_verify_tr_branch_noted(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--ell", "exp(t)", "--n", "12",
                     "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["spec"]["profile_label"] == "TR-surface"
    assert report["pass"] is True


def test_verify_malformed_expression_exit_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, stderr = run(capsys, "verify", "--f", "2*+z", "--out", str(out))
    assert code == 2
    assert "offset 2" in stderr
    assert not out.exists()


def test_verify_failure_exit_5(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "8",
                          "--tol-algebraic", "1e-18")
    assert code == 5


def test_verify_insufficient_coverage_exit_5(capsys):
    code, stdout, _ = run(capsys, "verify", "--ell", "1", "--n", "8")
    assert code == 5
    report = json.loads(stdout)
    wein = next(c for c in report["checks"] if c["name"] == "weingarten_relation")
    assert wein["status"] == "insufficient_coverage"


def test_tolerance_flags_follow_check_classes(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "8",
                          "--tol-algebraic", "1e-3", "--tol-fd", "0.5")
    assert code == 0
    for check in json.loads(stdout)["checks"]:
        expected = 0.5 if check["name"] in FD_CHECKS else 1e-3
        assert check["tolerance"] == expected, check["name"]


def test_underflowed_ell_prime_leaves_c_undefined(capsys):
    # ell' = 1e-200 squares to 0, so C = ell*ell''/ell'^2 is undefined
    code, stdout, _ = run(capsys, "info", "--ell", "1e-200*t", "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["degenerate_points"] == 101 and data["label"] is None
    code, stdout, _ = run(capsys, "verify", "--ell", "1e-200*t", "--n", "4")
    assert code in (0, 5)
    assert json.loads(stdout)["spec"]["profile_c"] is None


@pytest.mark.parametrize("argv", [
    # u1 +- 1e-17 == u1: the FD stencil has no area
    ("--u1", "1:2", "--u2", "1:2", "--fd-step", "1e-17"),
    # V overflows next to g' = 0, which eps = 0 lets through
    ("--g", "z*z", "--u1", "-1e-89:1", "--u2", "0:1", "--eps", "0"),
], ids=["stencil-below-resolution", "overflowed-v"])
def test_verify_degenerate_numerics_exit_5(capsys, argv):
    code, _, stderr = run(capsys, "verify", *argv, "--n", "4")
    assert code == 5 and stderr == ""


def test_verify_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--n", "8", "--out", str(a))
    run(capsys, "verify", "--n", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("f, g, ell", [
    ("z", "z", "t^2+t+1"), ("z", "z", "cos(t)"), ("z^2", "exp(z)", "t^2+1"),
    ("z", "z", "t"), ("z", "z", "exp(t)"),
])
def test_library_report_is_the_cli_report(capsys, f, g, ell):
    # the profile class included: run_checks writes the whole report
    spec = SurfaceSpec.from_strings(f, g, ell, u1_range=(-1.0, 1.0),
                                    u2_range=(-1.0, 1.0), nu1=16, nu2=16)
    _, stdout, _ = run(capsys, "verify", "--f", f, "--g", g, "--ell", ell, "--n", "16")
    assert stdout == run_checks(spec).to_json() + "\n"


def test_profile_ratio_cap_belongs_to_the_checks(tmp_path, capsys):
    # C = -cot(mu)^2 is about -1e8 at mu = 1e-4: info prints it, while the
    # mesh, like the checks, leaves C undefined beyond PROFILE_RATIO_MAX
    code, stdout, _ = run(capsys, "info", "--ell", "cos(t)", "--mu-range", "1e-4:2e-4",
                          "--samples", "3", "--json")
    data = json.loads(stdout)
    assert code == 0 and data["degenerate_points"] == 0
    assert round(data["c_min"], 2) == -99999999.33
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "generate", "--f", "z", "--g", "z", "--ell", "cos(t)",
                     "--u1", "1e-4:2e-4", "--u2", "0:1", "--n", "2",
                     "--format", "json", "--out", str(out))
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert code == 0
    assert diagnostics["c"] == [[None, None], [None, None]]
    assert diagnostics["regular"] == [[True, True], [True, True]]


# ---------------------------------------------------------------------------
# rotate
# ---------------------------------------------------------------------------

def test_rotate_sphere_note(tmp_path, capsys):
    out = tmp_path / "rot.obj"
    # the radius |ell(b)|, read from the sampled mesh; sinh(1) + 2 = 3.1752011936438
    for ell, radius in (("t^2+t+1", "3"), ("sinh(t)+2", "3.17520119364")):
        code, stdout, _ = run(capsys, "rotate", "--a", "0", "--b", "1",
                              "--ell", ell, "--n", "12", "--out", str(out))
        assert code == 0
        assert f"sphere of radius {radius} (" in stdout


def test_rotate_cross_check(tmp_path, capsys):
    out = tmp_path / "rot.obj"
    code, stdout, _ = run(capsys, "rotate", "--a", "1", "--b", "0",
                          "--ell", "t^2+t+1", "--n", "12",
                          "--out", str(out), "--cross-check")
    assert code == 0
    assert "cross-check" in stdout and "ok" in stdout


def test_rotate_negative_b(tmp_path, capsys):
    out = tmp_path / "rot.obj"
    code, _, _ = run(capsys, "rotate", "--a", "2", "--b", "-1",
                     "--ell", "sinh(t)", "--n", "8", "--out", str(out))
    assert code == 0


def test_rotate_rejects_f_and_g(tmp_path, capsys):
    code, _, stderr = run(capsys, "rotate", "--a", "1", "--b", "0",
                          "--ell", "t", "--f", "z",
                          "--out", str(tmp_path / "x.obj"))
    assert code == 2


def test_rotate_presets(tmp_path, capsys):
    for preset in ("fig3", "fig4", "fig5"):
        out = tmp_path / f"{preset}.obj"
        code, _, _ = run(capsys, "rotate", "--preset", preset,
                         "--n", "12", "--out", str(out))
        assert code == 0
        assert out.exists()


def test_rotate_requires_parameters(capsys):
    code, _, stderr = run(capsys, "rotate", "--a", "1", "--b", "0")
    assert code == 2
    assert "--ell" in stderr


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def test_info_appell(capsys):
    code, stdout, _ = run(capsys, "info", "--ell", "t")
    assert code == 0
    assert "Appell" in stdout
    assert "ell'(t)  = 1" in stdout
    assert "ell''(t) = 0" in stdout


def test_info_tr_surface(capsys):
    code, stdout, _ = run(capsys, "info", "--ell", "exp(t)")
    assert code == 0
    assert "TR-surface" in stdout
    assert "constant 1" in stdout


def test_info_power_profile(capsys):
    code, stdout, _ = run(capsys, "info", "--ell", "t^2",
                          "--mu-range", "0.5:1.5")
    assert code == 0
    assert "constant 0.5" in stdout
    assert "Appell" not in stdout and "TR-surface" not in stdout


def test_info_json(capsys):
    code, stdout, _ = run(capsys, "info", "--ell", "exp(t)", "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["c_constant"] is True
    assert data["c_value"] == 1.0
    assert data["label"] == "TR-surface"
    assert data["ell_prime"] == "exp(t)"


def test_info_degenerate_profile(capsys):
    code, stdout, _ = run(capsys, "info", "--ell", "3")
    assert code == 0
    assert "undefined" in stdout


def test_info_overflowed_c_names_its_cause(capsys):
    # ell' = 2e300 t is nonzero off t = 0, but ell*ell'' and ell'^2 overflow
    code, stdout, _ = run(capsys, "info", "--ell", "1e300*t^2")
    assert code == 0
    assert stdout.endswith("C undefined on the sampled range (ell'^2 = 0, C not finite "
                           "or evaluation failed everywhere)\n"
                           "degenerate points skipped (ell'^2 = 0 or C not finite): 101\n")
    code, stdout, _ = run(capsys, "info", "--ell", "1e300*t^2", "--json")
    data = json.loads(stdout)
    assert (data["degenerate_points"], data["evaluation_errors"]) == (101, 0)
    assert data["note"] == ("C undefined on the sampled range (ell'^2 = 0, "
                            "C not finite or evaluation failed everywhere)")


def test_info_parse_error(capsys):
    code, _, stderr = run(capsys, "info", "--ell", "t+")
    assert code == 2


@pytest.mark.parametrize("ell", ["t+", "2^", "(t", "sin(t", ""],
                         ids=["operand", "exponent", "parenthesis", "call", "empty"])
def test_parse_error_at_end_names_end_of_input(capsys, ell):
    code, _, stderr = run(capsys, "info", "--ell", ell)
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "end of input" in stderr and "None" not in stderr


# ---------------------------------------------------------------------------
# invalid input ends in exit 2 with a one-line message
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, flag", [
    (("generate", "--preset", "fig1", "--u1", "1:-1"), "--u1"),
    (("generate", "--preset", "fig1", "--n", "1"), "--n"),
    (("generate", "--preset", "fig1", "--u1", "nan:1"), "--u1"),
    (("generate", "--preset", "fig1", "--eps", "-1"), "--eps"),
    (("rotate", "--preset", "fig3", "--u2", "0:inf"), "--u2"),
    (("verify", "--fd-step", "0", "--n", "8"), "--fd-step"),
    (("verify", "--tol-fd", "nan", "--n", "8"), "--tol-fd"),
    (("rotate", "--preset", "fig3", "--a", "inf"), "--a"),
    (("info", "--ell", "t", "--mu-range", "nan:1"), "--mu-range"),
    (("info", "--ell", "t", "--samples", "0"), "--samples"),
    (("info", "--ell", "t", "--samples", str(MAX_GRID_POINTS + 1)), "--samples"),
    (("generate", "--preset", "fig1", "--eps", "-1e-5"), "--eps"),
    (("verify", "--fd-step", "-inf", "--n", "8"), "--fd-step"),
    (("verify", "--fd-step", "1e-300", "--n", "8"), "--fd-step"),
    (("generate", "--preset", "fig1", "--n", "x"), "--n"),
    (("generate", "--preset", "fig1", "--bogus", "1"), "--bogus"),
    (("generate", "--preset", "fig1", "--n"), "--n"),
    (("verify", "--n", "8", "--method", "direct"), "--method"),  # verify checks both
], ids=["reversed-range", "n-1", "nan-range", "negative-eps", "inf-range",
        "zero-fd-step", "nan-tolerance", "inf-a", "nan-mu-range",
        "no-samples", "too-many-samples", "exponent-eps", "minus-inf-fd-step",
        "fd-step-square-underflows", "non-integer-n", "unknown-flag",
        "missing-value", "verify-method"])
def test_bad_numeric_input_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.obj"
    extra = ("--out", str(out)) if argv[0] in ("generate", "rotate") else ()
    code, stdout, stderr = run(capsys, *argv, *extra)
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert flag in stderr
    assert not out.exists() and stdout == ""


_TINY = SurfaceSpec.from_strings("z", "z", "t^2+t+1", nu1=4, nu2=4)
_PROFILE = parse_expr("t^2+t+1", "t", real=True)
# flag -> (its argparse type, the library call that takes the value)
_LIBRARY_RULES = {
    "--fd-step": (cli._fd_step, lambda h: run_checks(_TINY, step=h)),
    "--tol-fd": (cli._non_negative, lambda tol: run_checks(_TINY, tolerances={"fd": tol})),
    "--a": (cli._finite, lambda a: rotation_spec(a, 0.0, _PROFILE)),
    "--b": (cli._finite, lambda b: rotation_spec(1.0, b, _PROFILE)),
}


@pytest.mark.parametrize("flag, text", [
    *(("--fd-step", text) for text in ("1e-4", "0.25", "1e-154", "1e-160", "1e154", "0",
                                       "-0.0", "-1e-4", "1e-200", "1e160", "nan", "inf",
                                       "-inf")),
    *(("--tol-fd", text) for text in ("1e-4", "0", "-0.0", "1e300", "-1e-9", "nan", "inf")),
    *((flag, text) for flag in ("--a", "--b")
      for text in ("0", "-2.5", "1e308", "nan", "inf", "-inf")),
])
def test_flag_type_accepts_exactly_what_the_library_accepts(flag, text):
    # the flag's argparse type and the library read one rule, so a value
    # passes both or neither, and both name the rule in the same words
    flag_type, library = _LIBRARY_RULES[flag]
    try:
        flag_type(text)
        flag_error = None
    except argparse.ArgumentTypeError as exc:
        flag_error = str(exc)
    try:
        library(float(text))
        library_error = None
    except InputError as exc:
        library_error = str(exc)
    assert (flag_error is None) == (library_error is None)
    assert flag_error is None or library_error.endswith(" " + flag_error)


@pytest.mark.parametrize("ell", ["(" * 199 + "t" + ")" * 199,
                                 "+".join(["t"] * 1000)],
                         ids=["nested-parentheses", "long-sum"])
def test_too_deep_expression_exits_2(tmp_path, capsys, ell):
    code, _, stderr = run(capsys, "generate", "--f", "z", "--g", "z",
                          "--ell", ell, "--n", "4",
                          "--out", str(tmp_path / "deep.obj"))
    assert code == 2
    assert "nested deeper than" in stderr and "offset" in stderr


_NINES = "t^" + "9" * 400  # an exponent that no double holds


@pytest.mark.parametrize("argv, offset", [
    (("info", "--ell", "1e999"), 0),
    (("verify", "--ell", "1e999", "--n", "4"), 0),
    (("info", "--ell", _NINES), 2),
    (("verify", "--f", "z", "--g", "z", "--ell", _NINES, "--n", "4"), 2),
    (("generate", "--f", "z", "--g", "z", "--ell", _NINES, "--n", "4"), 2),
    (("rotate", "--a", "1", "--b", "0", "--ell", _NINES, "--n", "4"), 2),
], ids=["info-literal", "verify-literal", "info-exponent", "verify-exponent",
        "generate-exponent", "rotate-exponent"])
def test_out_of_range_literal_exits_2(tmp_path, capsys, argv, offset):
    out = tmp_path / "p.obj"
    extra = ("--out", str(out)) if argv[0] in ("generate", "rotate") else ()
    code, stdout, stderr = run(capsys, *argv, *extra)
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert f"offset {offset}:" in stderr and "out of range" in stderr
    assert not out.exists() and stdout == ""


@pytest.mark.parametrize("ell, ell_prime", [("1e308*10*t", "1e+308*10"),
                                            ("(1e200)^2*t", "1e+200^2")])
def test_info_leaves_an_overflowing_fold_unfolded(capsys, ell, ell_prime):
    code, stdout, stderr = run(capsys, "info", "--ell", ell)
    assert code == 0 and stderr == ""
    assert f"ell'(t)  = {ell_prime}\n" in stdout


def test_info_differentiates_a_max_depth_quotient_chain(capsys):
    # t/t/.../t = t^(2 - MAX_DEPTH): its second derivative, 595 levels deep
    # unsimplified, is the deepest found for a tree of MAX_DEPTH levels
    code, stdout, stderr = run(capsys, "info", "--ell", "/".join(["t"] * MAX_DEPTH),
                               "--json")
    assert code == 0 and stderr == ""
    n = 2 - MAX_DEPTH
    assert json.loads(stdout)["c_value"] == pytest.approx((n - 1) / n, rel=1e-9)


_ADVERSARIAL_ELL = ["1e999", _NINES, "t^" + "9" * 150, "1e308*10*t", "(1e200)^2*t",
                    "(1e308+1e308)*t", "1/1e-320*t", "1e-999*t", "1/0*t", "0^0",
                    "t^0", "log(0)*t", "exp(1e300)*t", "(" * 101 + "t" + ")" * 101,
                    "+".join(["t"] * 1000), "-" * MAX_DEPTH + "t"]


def _info_exits_cleanly(capsys, ell):
    code, _, stderr = run(capsys, "info", "--ell", ell)
    assert code in (0, 2), ell
    assert stderr.count("\n") <= 1, (ell, stderr)


@pytest.mark.parametrize("ell", _ADVERSARIAL_ELL, ids=lambda ell: ell[:24])
def test_adversarial_info_exits_cleanly(capsys, ell):
    _info_exits_cleanly(capsys, ell)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**48))
def test_generated_info_exits_cleanly(capsys, seed):
    rng = random.Random(seed)
    _info_exits_cleanly(capsys, gen_source(rng, rng.randint(1, 6), real=True))


def test_overflowed_frames_are_singular_points(tmp_path, capsys):
    # exp(400 z) overflows T^2 for u1 > 0.45: those vertices are singular
    args = ("--f", "z", "--g", "exp(400*z)", "--ell", "t^2+1", "--n", "8")
    code, stdout, _ = run(capsys, "generate", *args,
                          "--out", str(tmp_path / "o.obj"))
    assert code == 0
    assert "16 vertices" in stdout
    code, stdout, _ = run(capsys, "verify", *args,
                          "--out", str(tmp_path / "o.json"))
    assert code == 5  # three quarters of the grid is singular
    assert "insufficient_coverage" in stdout


# ---------------------------------------------------------------------------
# generated argv: every input ends in a documented exit code
# ---------------------------------------------------------------------------

_BAD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                        1e-300, 1e300])


def _mostly(good):
    """``good`` three draws in four, an adversarial number in the fourth."""
    return st.integers(0, 3).flatmap(lambda k: good if k else _BAD)


@st.composite
def _range_arg(draw):
    lo = draw(_mostly(st.floats(-3.0, 2.0)))
    return f"{lo!r}:{lo + draw(_mostly(st.floats(1e-3, 3.0)))!r}"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**48), u1=_range_arg(), u2=_range_arg(),
       n=st.integers(-1, 8), eps=_mostly(st.floats(0.0, 1e-3)),
       fd_step=_mostly(st.floats(1e-6, 1e-2)))
def test_generated_argv_exits_cleanly(tmp_path, capsys, seed, u1, u2, n, eps,
                                      fd_step):
    rng = random.Random(seed)
    args = ("--f", gen_source(rng, rng.randint(1, 3)),
            "--g", gen_source(rng, rng.randint(1, 3)),
            "--ell", gen_source(rng, rng.randint(1, 3), real=True),
            "--u1", u1, "--u2", u2, "--n", str(n), "--eps", repr(eps))
    runs = [("generate", *args, "--out", str(tmp_path / f"mesh.{fmt}"))
            for fmt in ("obj", "ply", "json")]
    runs.append(("verify", *args, "--fd-step", repr(fd_step)))
    for argv in runs:
        code, _, stderr = run(capsys, *argv)
        assert code in (0, 2, 3, 4, 5), argv
        assert stderr.count("\n") <= 1, (argv, stderr)
