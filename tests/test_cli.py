import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nil3trans
from nil3trans import exports
from nil3trans.cli import build_parser, main
from nil3trans.families import (
    GrimReaperParams,
    Mesh,
    planar_grim_reaper,
    ProfileCurve,
    solve_bowl,
    solve_grim_reaper,
    sweep_surface,
)


class TestExports:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 1.0))
        path = tmp_path / "grim.csv"
        exports.write_file(path, exports.csv_text(prof))
        header = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert header[0] == "y"
        assert header[1:3] == ["gamma", "gamma_prime"]
        assert data.shape == (len(prof.t), len(header))
        # 17-significant-digit output reproduces the doubles exactly
        assert np.array_equal(data[:, 0], prof.t)
        assert np.array_equal(data[:, 1], prof.data["gamma"])
        assert np.array_equal(data[:, 2], prof.data["gamma_prime"])

    def test_writers_match_per_value_format(self):
        # the one-pass writers against a per-value join built here
        values = np.array([-0.0, 5e-324, 1e308, math.pi, 1.0 / 3.0, 0.1 + 0.2])
        ref = lambda xs: [format(float(x), ".17g") for x in xs]
        cols = ("y", "px", "py", "curvature", "residual")
        data = {c: np.roll(values, k + 1) for k, c in enumerate(cols)}
        prof = ProfileCurve("planar-grim", {}, values, data)
        rows = zip(ref(values), *(ref(data[c]) for c in cols))
        assert exports.csv_text(prof) == "x," + ",".join(cols) + "\n" + "".join(
            ",".join(row) + "\n" for row in rows)

        verts = values.reshape(2, 3)
        faces = np.array([[1, 2, 2, 1], [2, 1, 1, 2]])
        f_lines = "f 1 2 2 1\nf 2 1 1 2\n"
        bare = Mesh(verts, faces, {}, False, (2, 1))
        assert exports.obj_text(bare) == "".join(
            "v " + " ".join(ref(v)) + "\n" for v in verts) + f_lines
        h = values[::-1][:2]
        with_h = Mesh(verts, faces, {"H": h}, False, (2, 1))
        assert exports.obj_text(with_h) == "".join(
            "v " + " ".join(ref(v)) + "\n# vH " + ref([hv])[0] + "\n"
            for v, hv in zip(verts, h)) + f_lines
        # and each 17-digit value parses back to the same double
        assert [float(t) for t in ref(values)] == values.tolist()
        assert math.copysign(1.0, float(ref(values)[0])) == -1.0

    def test_empty_profile_header_only(self):
        prof = ProfileCurve("planar-grim", {}, np.empty(0),
                            {k: np.empty(0) for k in
                             ("y", "px", "py", "curvature", "residual")})
        text = exports.csv_text(prof)
        assert text == "x,y,px,py,curvature,residual\n"

    def test_obj_structure(self):
        prof = planar_grim_reaper((0.0, 1.0))
        mesh = sweep_surface(prof, n_profile=12, n_sweep=4,
                             sweep_range=(0.0, 1.0))
        text = exports.obj_text(mesh)
        lines = text.splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        s_lines = [l for l in lines if l.startswith("# vH")]
        n_p, n_s = mesh.shape
        assert len(v_lines) == n_p * n_s
        assert len(f_lines) == (n_p - 1) * (n_s - 1)
        # no per-vertex H column for the planar family, so no comments
        assert len(s_lines) == 0
        for l in f_lines:
            idx = [int(v) for v in l.split()[1:]]
            assert len(idx) == 4
            assert all(1 <= i <= len(v_lines) for i in idx)

    def test_obj_scalar_comments(self):
        prof = solve_bowl(1.0, 5.0)
        mesh = sweep_surface(prof, n_profile=10, n_sweep=4)
        text = exports.obj_text(mesh)
        assert text.count("# vH ") == len(mesh.vertices)

    def test_closed_mesh_face_count(self):
        prof = solve_bowl(1.0, 5.0)
        mesh = sweep_surface(prof, n_profile=10, n_sweep=6)
        n_p, n_s = mesh.shape
        assert len(mesh.faces) == (n_p - 1) * n_s

    def test_report_text_deterministic_and_versioned(self):
        rep = {"b": 1.0, "a": [1, 2]}
        t1 = exports.report_text(rep)
        t2 = exports.report_text({"a": [1, 2], "b": 1.0})
        assert t1 == t2
        assert json.loads(t1)["schema"] == exports.SCHEMA_VERSION

    def test_report_rejects_nan(self):
        with pytest.raises(ValueError):
            exports.report_text({"x": float("nan")})

    def test_write_error_includes_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            exports.write_file("/no/such/dir/file.txt", "x")


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["grim", "--lambda", "2.0", "--c", "1.0"])
        assert args.lam == 2.0 and args.c == 1.0

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["grim", "--format", "yaml"])
        assert exc.value.code == 2

    def test_invalid_parameter_exit_code(self, capsys):
        assert main(["bowl", "--lambda", "-1.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonfinite_span_exits_promptly(self):
        # a NaN span once sent the bowl integration into an endless loop
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(nil3trans.__file__)),
                          os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "nil3trans.cli", "bowl", "--span", "nan"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_runtime_imports_no_scipy(self):
        # scipy is a test-only dependency; the installed program needs numpy only
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(nil3trans.__file__)),
                          os.environ.get("PYTHONPATH")])))
        code = ("import sys, nil3trans.cli; "
                "assert not [m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.')]")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_numerical_failure_exit_code(self, capsys):
        # the neck at lambda = 100, f0 = 0.01 is not convex near its apex
        assert main(["catenoid", "--lambda", "100", "--f0", "0.01"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure:") and "Traceback" not in err

    def test_bad_direction_exit_code(self, capsys):
        assert main(["planar-grim", "--direction", "1;0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["helicoid", "--span", "-3"],
        ["helicoid", "--span", "1e300"],  # once ran until killed
        ["bowl", "--span", "1e6"],  # samples past the blow-up stop
        ["catenoid", "--span", "1e6"],
        ["bowl", "--span", "1e-5"],  # below the series start
        ["bowl", "--rtol", "2"],
        ["catenoid", "--span", "0.5"],  # below the junction radius
        ["planar-grim", "--direction", "inf,1"],
        ["bowl", "--lambda", "inf"],  # once warned from rotational_rhs first
        ["helicoid", "--lambda", "inf"],
        ["grim", "--lambda", "nan"],
        ["catenoid", "--lambda", "inf"],
        ["grim", "--span", "nan", "--format", "obj"],  # once wrote nan vertices
        ["planar-grim", "--span", "nan", "--format", "obj"],
        ["grim", "--span", "inf", "--format", "obj"],  # once warned from linspace
        ["grim", "--span", "0", "--format", "obj"],  # once wrote 60 copies of one ring
        ["grim", "--span", "-1", "--format", "obj"],  # once reversed the faces
        ["planar-grim", "--span", "0", "--format", "obj"],
    ], ids=" ".join)
    def test_out_of_domain_exit_code(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_overflow_exit_code(self, capsys):
        # math.sinh in the slab endpoints overflows at this lambda
        assert main(["grim", "--lambda", "3e5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure:") and err.count("\n") == 1

    def test_grim_csv_stdout(self, capsys):
        assert main(["grim", "--lambda", "1.0"]) == 0
        out = capsys.readouterr()
        assert out.out.startswith("y,gamma,gamma_prime")
        assert "residual sup" in out.err

    def test_grim_json_report(self, capsys):
        assert main(["grim", "--lambda", "1.0", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["family"] == "grim"
        assert rep["residual_sup"] < 1e-7
        assert rep["diagnostics"]["slab"]["width"] == \
            pytest.approx(2 * math.sinh(0.5 * math.pi), abs=1e-10)

    def test_obj_output_file(self, tmp_path, capsys):
        path = tmp_path / "bowl.obj"
        assert main(["bowl", "--span", "5.0", "--format", "obj",
                     "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("v ")
        assert "\nf " in text

    def test_catenoid_csv_file(self, tmp_path):
        path = tmp_path / "cat.csv"
        assert main(["catenoid", "--f0", "1.0", "--span", "120",
                     "--out", str(path)]) == 0
        header = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert header[:3] == ["s", "r", "z"]
        assert np.min(data[:, 1]) == pytest.approx(1.0, abs=1e-6)

    def test_helicoid_csv_stdout(self, capsys):
        assert main(["helicoid", "--pitch", "1.0", "--span", "10"]) == 0
        assert capsys.readouterr().out.startswith("s,gamma1,gamma2")

    def test_verify_core_suite(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["verify", "--suite", "core", "--out", str(path)])
        err = capsys.readouterr().err
        assert code == 0
        assert "PASS" in err and "FAIL " not in err
        rep = json.loads(path.read_text())
        assert rep["passed"] is True
        assert rep["counts"]["failed"] == 0
        # every check carries a provenance anchor string
        assert all(chk["anchor"] for chk in rep["checks"])

    def test_verify_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--suite", "limits", "--out", str(p1)]) == 0
        assert main(["verify", "--suite", "limits", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_limits_report(self, capsys):
        assert main(["limits"]) == 0
        rep = json.loads(capsys.readouterr().out)
        for fam_name in ("grim", "bowl", "catenoid"):
            assert rep[fam_name]["strictly_decreasing"] is True
