"""End-to-end command line checks, including exit codes and determinism."""

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hodgefem.cli
import hodgefem.forms
import hodgefem.globalspace
import hodgefem.solver
from hodgefem.cli import CSV_HEADER, CSV_HEADER_SOLVE, main
from hodgefem.mesh import CRISSCROSS, generate_square_mesh

from conftest import generate_jittered_mesh, parallel_diagonal_mesh, write_mesh


def _verify_args(out, simplices=5, triangles=5):
    return [
        "verify",
        "--simplices",
        str(simplices),
        "--triangles",
        str(triangles),
        "--out",
        str(out),
    ]


def test_verify_reports_all_green(tmp_path):
    out = tmp_path / "report.json"
    assert main(_verify_args(out)) == 0
    report = json.loads(out.read_text())
    assert report["failed"] == 0
    assert report["passed"] == len(report["checks"]) > 40
    names = {c["name"] for c in report["checks"]}
    assert any(name.startswith("star-star-sign") for name in names)


def test_verify_writes_to_stdout_by_default(capsys):
    assert main(["verify", "--simplices", "2", "--triangles", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0


def test_verify_catches_seeded_defect(tmp_path, monkeypatch, capsys):
    # breaking the star sign must flip identity checks to FAIL
    monkeypatch.setattr(hodgefem.forms, "star_sign", lambda alpha: 1)
    out = tmp_path / "report.json"
    assert main(_verify_args(out)) == 1
    report = json.loads(out.read_text())
    assert report["failed"] > 0
    assert "FAIL" in capsys.readouterr().err


_FLOAT_DETAILS = {"dof-matrix-cond-finite", "interpolation-projection"}


def test_verify_report_keeps_its_checks_and_exact_details(tmp_path):
    """The check names, pass flags and exact details of ``verify --seed 0
    --simplices 20 --triangles 20``, pinned by SHA-256; the two float
    details (max cond, max coefficient error) are left out."""
    out = tmp_path / "report.json"
    args = ["verify", "--seed", "0", "--simplices", "20", "--triangles", "20", "--out", str(out)]
    assert main(args) == 0
    view = [
        [c["name"], c["passed"], None if c["name"] in _FLOAT_DETAILS else c["detail"]]
        for c in json.loads(out.read_text())["checks"]
    ]
    digest = "125236bc7f89115635eb8d4c67fb30f521f11cf5bb428edd07b93b0f7eeadc1c"
    assert hashlib.sha256(json.dumps(view).encode()).hexdigest() == digest


_COLD_VERIFY = """
import json, sys
sys.path.insert(0, {src!r})

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from hodgefem.cli import main
after_import = scipy_modules()
status = main(["verify", "--simplices", "1", "--triangles", "1", "--out", {out!r}])
print(json.dumps({{"import": after_import, "verify": scipy_modules(), "status": status}}))
"""


def test_verify_loads_no_scipy_in_a_fresh_interpreter(tmp_path):
    """``import hodgefem.cli`` and ``hodgefem verify`` load no scipy module:
    the scipy-backed layers are imported by the commands that use them."""
    src = str(Path(hodgefem.cli.__file__).resolve().parents[1])
    out = tmp_path / "report.json"
    script = _COLD_VERIFY.format(src=src, out=str(out))
    run = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == {"import": [], "verify": [], "status": 0}
    assert json.loads(out.read_text())["failed"] == 0


def test_interpolate_csv_is_deterministic(tmp_path, capsys):
    args = ["interpolate", "--refinements", "2,4", "--field", "polyflow"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert "fitted energy rate" in capsys.readouterr().err
    assert main(args + ["--out", str(f2)]) == 0
    text = f1.read_text()
    assert text == f2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("2,") and lines[2].startswith("4,")


def test_solve_runs_oracle_and_is_stable_modulo_timing(tmp_path, capsys):
    args = ["solve", "--refinements", "2"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    err = capsys.readouterr().err
    assert "oracle m=2" in err and "constraint residual" in err
    assert main(args + ["--out", str(f2)]) == 0

    def strip_timing(path):
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER_SOLVE
        return [ln.rsplit(",", 1)[0] for ln in lines]

    assert strip_timing(f1) == strip_timing(f2)


def test_basis_dump_schema_and_audit(tmp_path):
    out = tmp_path / "basis.jsonl"
    assert main(["basis", "--mesh-m", "2", "--out", str(out)]) == 0
    lines = [json.loads(ln) for ln in out.read_text().strip().splitlines()]
    audit = lines[-1]["audit"]
    functions = lines[:-1]
    assert len(functions) == 38
    assert audit["count_matches_nullity"] is True
    assert audit["nullity"] == 38
    assert audit["counts"] == {"DIV_PATCH": 15, "ROT_PATCH": 7, "ROT_CELL": 16}
    for fn in functions:
        assert fn["category"] in ("DIV_PATCH", "ROT_PATCH", "ROT_CELL")
        assert isinstance(fn["anchor"], int)
        assert 1 <= len(fn["cells"]) <= 2
        for idx, val in fn["entries"]:
            assert 0 <= idx < audit["product_dim"]
            Fraction(val)  # parses back exactly


def test_basis_reads_mesh_from_file(tmp_path):
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(generate_square_mesh(2, CRISSCROSS), mesh_path)
    out = tmp_path / "basis.jsonl"
    assert main(["basis", "--mesh-file", str(mesh_path), "--out", str(out)]) == 0
    audit = json.loads(out.read_text().strip().splitlines()[-1])["audit"]
    assert audit["cells"] == 16
    assert audit["basis_count"] == 78


def test_basis_accepts_a_mesh_file_with_a_corner_off_the_interior(tmp_path):
    """The 2 x 2 parallel-diagonal mesh: corners 2 and 6 have edges only to
    boundary vertices, and the basis still spans null(B)."""
    mesh_path = tmp_path / "parallel.mesh"
    write_mesh(parallel_diagonal_mesh(2), mesh_path)
    out = tmp_path / "basis.jsonl"
    assert main(["basis", "--mesh-file", str(mesh_path), "--out", str(out)]) == 0
    audit = json.loads(out.read_text().strip().splitlines()[-1])["audit"]
    assert audit["count_matches_nullity"] is True
    assert audit["basis_count"] == audit["nullity"] == 38


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--mesh-m", "4"], "0d4490d87fbbfc03069cf5fc779d743fffce248ddcdf49ce7ec1d8fab65e56de"),
        (
            ["--mesh-m", "3", "--pattern", "crisscross"],
            "86a385e0c4d67db11e68d40c942a4f8499ff69240166077fe740848e455ad6ed",
        ),
        (["--mesh-file", "{jitter}"], "9157df78248415a063c6170fc90a0cbcea39808598f808570a85bc713ee35788"),
        (["--mesh-file", "{jitter8}"], "504cab6fad0c9f7b20cc9e4bc6006f2437098bc77efd963190d6b550758e2f68"),
        (["--mesh-file", "{jitter32}"], "6064d90dd1184c5f1b1b95d5db17047ef4f02402b0e2ff374cf8af88f51e5677"),
    ],
)
def test_basis_dumps_keep_their_bytes(tmp_path, args, digest):
    """The exact basis of diagonal m = 4, crisscross m = 3 and the jittered mesh
    files of m = 4 (seed 3), m = 8 (seed 11: 128 cells, 127 templates) and
    m = 32 (seed 1: 2,048 cells), pinned by the SHA-256 of the whole dump."""
    meshes = {"jitter": (4, 3), "jitter8": (8, 11), "jitter32": (32, 1)}
    paths = {name: tmp_path / f"{name}.mesh" for name in meshes}
    for name, (m, seed) in meshes.items():
        if "{" + name + "}" in args:
            write_mesh(generate_jittered_mesh(m, seed), paths[name])
    out = tmp_path / "basis.jsonl"
    assert main(["basis", *(a.format(**paths) for a in args), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _perturbed(build):
    """``build`` with one entry of B off by one part in a million, so that
    the rank audit rejects the system."""

    def perturbed(tri, prod):
        # the product space's B is read-only, so the perturbation goes on a copy
        B = build(tri, prod).B.copy()
        B.data[7] *= 1 + 1e-6
        return hodgefem.globalspace.ConstraintSystem(prod, B)

    return perturbed


def test_basis_audit_failure_exits_one_and_names_the_cause(tmp_path, monkeypatch, capsys):
    build = hodgefem.globalspace.build_constraints
    monkeypatch.setattr(hodgefem.globalspace, "build_constraints", _perturbed(build))
    out = tmp_path / "basis.jsonl"
    assert main(["basis", "--mesh-m", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("basis: rank audit failed: entry (")
    assert "not within 1e-9 of an integer" in err
    assert not out.exists()


def test_config_preloads_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refinements": "2", "field": "affine", "quad-order": 4}))
    f1 = tmp_path / "a.csv"
    assert main(["--config", str(cfg), "interpolate", "--out", str(f1)]) == 0
    lines = f1.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("2,")
    # affine interpolation is exact, so the energy error column is tiny
    assert float(lines[1].split(",")[6]) < 1e-10

    f2 = tmp_path / "b.csv"
    args = ["--config", str(cfg), "interpolate", "--refinements", "2,4", "--out", str(f2)]
    assert main(args) == 0
    assert len(f2.read_text().strip().splitlines()) == 3


def test_config_refinements_do_not_reach_basis(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refinements": "2,4"}))
    out = tmp_path / "basis.jsonl"
    assert main(["--config", str(cfg), "basis", "--mesh-m", "8", "--out", str(out)]) == 0
    audit = json.loads(out.read_text().strip().splitlines()[-1])["audit"]
    assert audit["cells"] == 128


def test_config_solve_options_do_not_make_interpolate_solve(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-8}))
    plain, configured = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["interpolate", "--refinements", "2", "--out", str(plain)]) == 0
    args = ["--config", str(cfg), "interpolate", "--refinements", "2", "--out", str(configured)]
    assert main(args) == 0
    assert configured.read_text() == plain.read_text()
    assert configured.read_text().splitlines()[0] == CSV_HEADER


def test_config_rejects_a_misspelt_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "a.csv"
    args = ["--config", str(cfg), "interpolate", "--refinements", "2", "--out", str(out)]
    # one option under both spellings, then the misspelt key
    for keys in ({"refinments": "2"}, {"quad-order": 4, "quad_order": 4, "refinments": "2"}):
        cfg.write_text(json.dumps(keys))
        assert main(args) == 2
        assert capsys.readouterr().err == "error reading config: unknown key 'refinments'\n"
        assert not out.exists()


def test_config_key_oracle_is_unknown(tmp_path, capsys):
    # solve checks the oracle on every mesh, so no option turns it on or off
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": "on"}))
    out = tmp_path / "a.csv"
    assert main(["--config", str(cfg), "solve", "--refinements", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error reading config: unknown key 'oracle'\n"
    assert not out.exists()


def test_bad_usage_exits_with_code_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--refinements", "two,four"])
    assert exc.value.code == 2
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "verify"]) == 2


@pytest.mark.parametrize("refinements", ["a,b", ",", ""])
def test_bad_refinements_exit_two_and_name_the_cause(refinements, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--refinements", refinements])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: --refinements takes comma separated integers, got {refinements!r}\n"
    )


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_bad_tol_exits_two_before_any_output(tol, capsys):
    assert main(["solve", "--refinements", "2", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol must be positive and finite, got {float(tol)!r}\n"


@pytest.mark.parametrize("option", ["--simplices", "--triangles"])
def test_negative_verify_counts_exit_two_before_any_output(option, capsys):
    # a negative count once gave a vacuous pass "over -3 triangles"
    assert main(["verify", option, "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be a count >= 0, got -3\n"


@pytest.mark.parametrize("command", ["solve", "interpolate"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--refinements", "2,0"], "mesh parameter m must be an integer >= 2, got 0"),
        (["--refinements", "2", "--quad-order", "0"], "quadrature order 0 outside supported range 2..10"),
        (["--refinements", "2,4,2"], "mesh level 2 is repeated in --refinements"),
    ],
)
def test_bad_levels_exit_two_before_any_output(command, flags, message, tmp_path, capsys):
    assert main([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    out = tmp_path / "x.csv"
    assert main([command, *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("refinements", [[2.5, 4], [], "2,x"])
def test_config_refinements_must_be_integers(refinements, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refinements": refinements}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "interpolate"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: --refinements takes comma separated integers, got {refinements!r}\n"
    )


def test_config_holding_a_list_exits_two_and_names_the_cause(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["refinements", "2"]))
    assert main(["--config", str(cfg), "solve"]) == 2
    err = capsys.readouterr().err
    assert err == f"error reading config: {cfg} holds a JSON list, not an object\n"


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"tol": [1]}, "key 'tol' takes a number, got [1]"),
        ({"quad-order": 2.5}, "key 'quad-order' takes an integer, got 2.5"),
        ({"quad_order": True}, "key 'quad_order' takes an integer, got True"),
        ({"field": [1]}, "key 'field' takes one of affine, polyflow, sinshear, trigflow, got [1]"),
        ({"pattern": 3}, "key 'pattern' takes one of crisscross, diagonal, got 3"),
        # argparse does not check a string default against the choices
        ({"pattern": "union"}, "key 'pattern' takes one of crisscross, diagonal, got 'union'"),
    ],
    ids=[
        "tol-list",
        "quad-order-float",
        "quad-order-bool",
        "field-list",
        "pattern-int",
        "pattern-str",
    ],
)
def test_config_value_of_the_wrong_type_exits_two_and_names_the_key(
    cfg, message, tmp_path, capsys
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "a.csv"
    assert main(["--config", str(path), "solve", "--refinements", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error reading config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, argv, message",
    [
        ({"out": 2}, ["interpolate", "--refinements", "2"], "key 'out' takes a string, got 2"),
        (
            {"out": True},
            ["interpolate", "--refinements", "2"],
            "key 'out' takes a string, got True",
        ),
        ({"mesh-file": 5}, ["basis"], "key 'mesh-file' takes a string, got 5"),
        ({"mesh_file": ["a.mesh"]}, ["basis"], "key 'mesh_file' takes a string, got ['a.mesh']"),
    ],
    ids=["out-int", "out-bool", "mesh-file-int", "mesh-file-list"],
)
def test_config_paths_take_only_a_string(cfg, argv, message, tmp_path, capsys):
    # a non-string path would reach open() as a file descriptor
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error reading config: {message}\n"


def test_config_takes_numbers_and_a_refinements_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refinements": [2, 4], "tol": 1, "quad-order": 4}))
    out = tmp_path / "a.csv"
    assert main(["--config", str(cfg), "interpolate", "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["2", "4"]


def test_basis_rejects_an_empty_mesh_file(tmp_path, capsys):
    mesh = tmp_path / "empty.mesh"
    mesh.write_text("ndim 2\nvertices 0\ncells 0\n")
    assert main(["basis", "--mesh-file", str(mesh)]) == 2
    assert capsys.readouterr().err == "error: mesh has no cells\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--mesh-file", "{missing}/x.mesh"],
        ["solve", "--refinements", "2", "--out", "{missing}/x.csv"],
    ],
)
def test_missing_or_unwritable_paths_exit_two(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_value_errors_map_to_usage_exit(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["interpolate", "--refinements", "1", "--out", str(out)]) == 2


def test_numerical_failure_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    def boom(A, b, **options):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(hodgefem.solver, "solve_cg", boom)
    out = tmp_path / "x.csv"
    assert main(["solve", "--refinements", "2", "--out", str(out)]) == 3
    assert "solver blew up" in capsys.readouterr().err


def test_solve_audit_failure_exits_one_like_basis(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        hodgefem.solver, "build_constraints", _perturbed(hodgefem.solver.build_constraints)
    )
    out = tmp_path / "x.csv"
    assert main(["solve", "--refinements", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: rank audit failed: entry (")
    assert "not within 1e-9 of an integer" in err
    assert out.read_text() == CSV_HEADER_SOLVE + "\n"


@pytest.mark.parametrize(
    "breakdown", ["diagonal has non-positive", "non-positive curvature"]
)
def test_an_indefinite_reduced_system_exits_three(breakdown, tmp_path, monkeypatch, capsys):
    # a PCG breakdown is a numerical failure, not bad usage
    real = hodgefem.solver.solve_cg

    def indefinite(A, b, precondition, **options):
        if breakdown.startswith("diagonal"):
            A = -A
        else:
            # A - 2 w w^T with w = A p / sqrt(p^T A p): negative along the first
            # direction p, with a positive diagonal still
            p = precondition(b)
            w = A @ p / math.sqrt(p @ (A @ p))
            A = sp.csr_matrix(A.toarray() - 2 * np.outer(w, w))
            assert (A.diagonal() > 0).all()
        return real(A, b, precondition=precondition, **options)

    monkeypatch.setattr(hodgefem.solver, "solve_cg", indefinite)
    out = tmp_path / "x.csv"
    assert main(["solve", "--refinements", "2", "--out", str(out)]) == 3
    assert breakdown in capsys.readouterr().err
    assert out.read_text() == CSV_HEADER_SOLVE + "\n"


@pytest.mark.parametrize(
    "field, flags",
    [("sinshear", "zero_boundary_rot=False"), ("affine", "zero_normal_trace=False, zero_boundary_rot=False")],
)
def test_solve_refuses_a_field_that_does_not_solve_the_model_problem(
    field, flags, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    assert main(["solve", "--refinements", "2", "--field", field, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: field '{field}' does not solve the model problem ({flags})\n"
    assert not out.exists()
    assert main(["interpolate", "--refinements", "2", "--field", field, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, step, header",
    [("solve", "solve_cg", CSV_HEADER_SOLVE), ("interpolate", "global_interpolate", CSV_HEADER)],
    ids=["solve", "interpolate"],
)
def test_solve_streams_rows_finished_before_a_failure(
    command, step, header, tmp_path, monkeypatch, capsys
):
    real = getattr(hodgefem.solver, step)
    calls = []

    def second_fails(*args, **options):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("second level blew up")
        return real(*args, **options)

    monkeypatch.setattr(hodgefem.solver, step, second_fails)
    out = tmp_path / "x.csv"
    assert main([command, "--refinements", "2,4", "--out", str(out)]) == 3
    assert "second level blew up" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == header
    assert len(lines) == 2 and lines[1].startswith("2,")


@pytest.mark.parametrize("nan_in", ["x_cell", "constraint_residual"])
def test_a_nan_oracle_fails_solve(nan_in, tmp_path, monkeypatch, capsys):
    # NaN compares False with any bound, so the check must ask for the
    # gap and the residual to be within their bounds, not over them
    real = hodgefem.solver.solve_oracle

    def nan_oracle(system, cons):
        oracle = real(system, cons)
        value = getattr(oracle, nan_in)
        return dataclasses.replace(oracle, **{nan_in: value * math.nan})

    monkeypatch.setattr(hodgefem.solver, "solve_oracle", nan_oracle)
    out = tmp_path / "x.csv"
    assert main(["solve", "--refinements", "2", "--out", str(out)]) == 1
    assert "nan" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 2


def test_a_gap_on_a_fine_mesh_fails_solve(tmp_path, monkeypatch, capsys):
    # every mesh is checked, not only the coarse ones
    real = hodgefem.solver.solve_oracle

    def perturbed_at_m8(system, cons):
        oracle = real(system, cons)
        if len(system.prod.tri.cells) == 2 * 8 * 8:
            return dataclasses.replace(oracle, x_cell=oracle.x_cell * (1 + 1e-6))
        return oracle

    monkeypatch.setattr(hodgefem.solver, "solve_oracle", perturbed_at_m8)
    out = tmp_path / "x.csv"
    assert main(["solve", "--refinements", "2,8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "oracle m=2: energy gap" in err
    gap = float(err.split("oracle m=8: energy gap ")[1].split(",")[0])
    assert gap > 1e-8
    assert len(out.read_text().splitlines()) == 3


def test_stalled_pcg_exits_three_and_writes_only_the_header(tmp_path, capsys):
    # a tolerance below the rounding floor of b - A u cannot be met, so PCG
    # runs to its cap of max(38, 100 sqrt(38)) = 616 iterations at m = 2
    out = tmp_path / "x.csv"
    args = ["solve", "--refinements", "2", "--tol", "1e-300", "--out", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "error: conjugate gradients did not converge in 616 iterations (relative residual" in err
    assert out.read_text().splitlines() == [CSV_HEADER_SOLVE]
