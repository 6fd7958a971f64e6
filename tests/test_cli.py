"""CLI: subcommands, exit codes, file outputs, determinism."""
import json

import pytest

from grtsurf.cli import main


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
    code, _, stderr = run(capsys, "generate", "--f", "z", "--g", "1",
                          "--ell", "t", "--n", "4",
                          "--out", str(tmp_path / "x.obj"))
    assert code == 3
    assert "no regular vertex" in stderr


def test_generate_io_error_exit_4(tmp_path, capsys):
    code, _, stderr = run(capsys, "generate", "--f", "z", "--g", "z",
                          "--ell", "t", "--n", "4",
                          "--out", str(tmp_path / "missing" / "x.obj"))
    assert code == 4


def test_generate_presets(tmp_path, capsys):
    for preset in ("fig1", "fig2"):
        out = tmp_path / f"{preset}.obj"
        code, stdout, _ = run(capsys, "generate", "--preset", preset,
                              "--n", "16", "--out", str(out))
        assert code == 0
        assert out.exists()


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


def test_verify_stdout_json_when_no_out(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "8")
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True


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


def test_verify_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--n", "8", "--out", str(a))
    run(capsys, "verify", "--n", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# rotate
# ---------------------------------------------------------------------------

def test_rotate_sphere_note(tmp_path, capsys):
    out = tmp_path / "rot.obj"
    code, stdout, _ = run(capsys, "rotate", "--a", "0", "--b", "1",
                          "--ell", "t^2+t+1", "--n", "12", "--out", str(out))
    assert code == 0
    assert "sphere of radius 3" in stdout


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


def test_info_parse_error(capsys):
    code, _, stderr = run(capsys, "info", "--ell", "t+")
    assert code == 2


# ---------------------------------------------------------------------------
# invalid input ends in exit 2 with a one-line message
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("generate", "--preset", "fig1", "--u1", "1:-1"),
    ("generate", "--preset", "fig1", "--n", "1"),
    ("generate", "--preset", "fig1", "--u1", "nan:1"),
    ("generate", "--preset", "fig1", "--eps", "-1"),
    ("rotate", "--preset", "fig3", "--u2", "0:inf"),
    ("verify", "--fd-step", "0", "--n", "8"),
    ("verify", "--tol-fd", "nan", "--n", "8"),
    ("rotate", "--preset", "fig3", "--a", "inf"),
    ("info", "--ell", "t", "--mu-range", "nan:1"),
    ("info", "--ell", "t", "--samples", "0"),
], ids=["reversed-range", "n-1", "nan-range", "negative-eps", "inf-range",
        "zero-fd-step", "nan-tolerance", "inf-a", "nan-mu-range",
        "no-samples"])
def test_bad_numeric_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.obj"
    extra = ("--out", str(out)) if argv[0] in ("generate", "rotate") else ()
    code, stdout, stderr = run(capsys, *argv, *extra)
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert not out.exists() and stdout == ""


@pytest.mark.parametrize("ell", ["(" * 199 + "t" + ")" * 199,
                                 "+".join(["t"] * 1000)],
                         ids=["nested-parentheses", "long-sum"])
def test_too_deep_expression_exits_2(tmp_path, capsys, ell):
    code, _, stderr = run(capsys, "generate", "--f", "z", "--g", "z",
                          "--ell", ell, "--n", "4",
                          "--out", str(tmp_path / "deep.obj"))
    assert code == 2
    assert "nested deeper than" in stderr and "offset" in stderr


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
