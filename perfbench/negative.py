"""Negative cases: each output check catches a deliberately corrupted output.

Usage, from the root of a checkout:

    python3 perfbench/negative.py

Makes small (16 x 16) outputs of every workload with grtsurf, shows that
they pass every check, then corrupts one thing at a time and shows that
the check named for it reports the corruption.  Exits 1 if any corrupted
output gets through, so no check can pass vacuously.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import checks
import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N = 16


def _small(job: jobs.Job) -> jobs.Job:
    argv = list(job.argv)
    argv[argv.index("--n") + 1] = str(N)
    return dataclasses.replace(job, argv=tuple(argv), n=N)


def _make_outputs(cli) -> dict:
    """{case: (workload, job, text, stdout)} for every case of every workload."""
    made = {}
    for workload in jobs.WORKLOADS:
        out_dir = os.path.join("perfbench", "out", "negative")
        for job in map(_small, jobs.make(workload, 1, out_dir)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(job.argv))
            if rc != 0:
                raise SystemExit(f"{' '.join(job.argv)} exited {rc}")
            with open(job.out, encoding="utf-8") as fh:
                made[job.case] = (workload, job, fh.read(), buf.getvalue())
    return made


def _edit_lines(text: str, prefix: str, k: int, edit) -> str:
    """Apply ``edit`` to the k-th line that starts with ``prefix``."""
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    i = hits[k]
    replaced = edit(lines[i])
    if replaced is None:
        del lines[i]
    else:
        lines[i] = replaced
    return "\n".join(lines)


def _scale_numbers(line: str, factor: float, first: int, count: int) -> str:
    parts = line.split()
    for j in range(first, first + count):
        parts[j] = repr(float(parts[j]) * factor)
    return " ".join(parts)


def _ply_body_line(text: str, k: int, edit) -> str:
    header, body = text.split("end_header\n")
    lines = body.split("\n")
    lines[k] = edit(lines[k])
    return header + "end_header\n" + "\n".join(lines)


def _ply_drop_face(text: str) -> str:
    header, body = text.split("end_header\n")
    return header + "end_header\n" + body.rsplit("\n", 2)[0] + "\n"


def _json_edit(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _move_json_vertex(data: dict) -> None:
    # Swap a vertex into a masked grid point: same count, wrong place.
    rows = data["vertices"]
    i = next(k for k, row in enumerate(rows) if row[0] is not None)
    rows[i - 1][0], rows[i][0] = rows[i][0], None


def _flip_check(data: dict) -> None:
    data["checks"][3]["pass"] = False


def _lose_point(data: dict) -> None:
    data["checks"][0]["count"] -= 1


def _shift_boundary(data: dict) -> None:
    fd = next(c for c in data["checks"] if c["name"] == "forms_vs_fd")
    fd["count"] += 1
    fd["excluded"] -= 1


def _lift_rotation_vertex(line: str) -> str:
    return _scale_numbers(line, 1.0 + 1e-6, 3, 1)


# (name, case, corruption of the output text, check expected to report it)
CORRUPTIONS = (
    ("vertex moved", "fig1", lambda t: _edit_lines(
        t, "v ", 40, lambda l: _scale_numbers(l, 1.0 + 1e-6, 1, 1)), "mesh.vertices"),
    ("triangle dropped", "fig1", lambda t: _edit_lines(t, "f ", 7, lambda l: None),
     "mesh.readback"),
    ("vertex dropped", "mixed", lambda t: _edit_lines(t, "v ", 3, lambda l: None),
     "mesh.readback"),
    ("normal tilted", "mixed", lambda t: _edit_lines(
        t, "vn ", 5, lambda l: _scale_numbers(l, 1.0 + 1e-9, 3, 1)), "mesh.normals"),
    ("normal flipped", "fig2", lambda t: _ply_body_line(
        t, 9, lambda l: _scale_numbers(l, -1.0, 3, 3)), "mesh.normals"),
    ("PLY face dropped", "fig1-direct", _ply_drop_face, "mesh.readback"),
    ("vertex at a masked point", "masked",
     lambda t: _json_edit(t, _move_json_vertex), "mesh.placement"),
    ("JSON face dropped", "masked",
     lambda t: _json_edit(t, lambda d: d["faces"].pop()), "mesh.readback"),
    ("check flipped to fail", "verify-fig1",
     lambda t: _json_edit(t, _flip_check), "verify.pass"),
    ("report pass flipped", "verify-exp",
     lambda t: _json_edit(t, lambda d: d.update({"pass": False})), "verify.pass"),
    ("point lost from a check", "verify-fig2",
     lambda t: _json_edit(t, _lose_point), "verify.coverage"),
    ("check missing", "verify-fig2",
     lambda t: _json_edit(t, lambda d: d["checks"].pop()), "verify.coverage"),
    ("boundary point kept", "verify-fig1",
     lambda t: _json_edit(t, _shift_boundary), "verify.boundary"),
    ("rotation vertex lifted", "fig3",
     lambda t: _edit_lines(t, "v ", 20, _lift_rotation_vertex), "rotate.rows"),
    ("sphere vertex pushed out", "fig4", lambda t: _edit_lines(
        t, "v ", 33, lambda l: _scale_numbers(l, 1.0 + 1e-9, 1, 3)), "rotate.sphere"),
)


def main() -> int:
    os.chdir(ROOT)
    os.makedirs(os.path.join("perfbench", "out", "negative"), exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from grtsurf import cli

    made = _make_outputs(cli)
    missed = 0
    for case, (workload, job, text, stdout) in sorted(made.items()):
        failures = checks.check_job(workload, job, text, [stdout])
        print(f"{'PASS' if not failures else 'FAIL'} clean output {case}")
        missed += bool(failures)
        for message in failures:
            print(f"    {message}")

    def caught(name, expected, failures):
        hit = any(m.startswith(expected + ":") for m in failures)
        print(f"{'PASS' if hit else 'FAIL'} {name}: {expected} "
              f"{'reports it' if hit else 'misses it'}")
        return hit

    for name, case, corrupt, expected in CORRUPTIONS:
        workload, job, text, stdout = made[case]
        failures = checks.check_job(workload, job, corrupt(text), [stdout])
        missed += not caught(name, expected, failures)

    workload, job, text, stdout = made["fig5"]
    failed_line = stdout.replace("closed form: ok", "closed form: fail")
    missed += not caught("cross-check not ok", "rotate.cross_check",
                         checks.check_job(workload, job, text, [stdout, failed_line]))
    records = [{"case": "fig1", "sha256": "a"}, {"case": "fig1", "sha256": "b"}]
    missed += not caught("repeat wrote other bytes", "bytes.repeat",
                         checks.check_repeats(records))
    missed += not caught("job never repeated", "bytes.repeat",
                         checks.check_repeats(records[:1]))
    print(f"{missed} corrupted or clean outputs misjudged")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
