import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nil3trans
from nil3trans import exports, ode
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
        prof = ProfileCurve("planar-grim", {}, {"x": values, **data})
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
        prof = ProfileCurve("planar-grim", {},
                            {k: np.empty(0) for k in
                             ("x", "y", "px", "py", "curvature", "residual")})
        text = exports.csv_text(prof)
        assert text == "x,y,px,py,curvature,residual\n"

    @pytest.mark.parametrize("argv, header", [
        (["grim"], "y,gamma,gamma_prime,H,residual,K_gauss,K_intrinsic"),
        (["bowl", "--span", "5"], "r,phi,psi,H,residual,K_gauss,K_intrinsic"),
        (["catenoid", "--span", "20"], "s,r,z,H,residual,K_gauss"),
        (["helicoid", "--span", "5"],
         "s,gamma1,gamma2,theta_t,tau,nu,r2,k,H,residual,K_gauss"),
        (["planar-grim"], "x,y,px,py,curvature,residual"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_full_csv_header_of_every_family(self, capsys, argv, header):
        assert main(argv) == 0
        assert capsys.readouterr().out.split("\n", 1)[0] == header

    def test_obj_structure(self):
        prof = planar_grim_reaper((0.0, 1.0))
        mesh = sweep_surface(prof, sweep_range=(0.0, 1.0))
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
        mesh = sweep_surface(prof)
        text = exports.obj_text(mesh)
        assert text.count("# vH ") == len(mesh.vertices)

    def test_closed_mesh_face_count(self):
        prof = solve_bowl(1.0, 5.0)
        mesh = sweep_surface(prof)
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


def _subprocess_env():
    """The environment of a child interpreter that imports this nil3trans."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(nil3trans.__file__)),
                      os.environ.get("PYTHONPATH")])))


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["grim", "--lambda", "2.0", "--c", "1.0"])
        assert args.lam == 2.0 and args.c == 1.0

    @pytest.mark.parametrize("argv", [["grim", "--format", "yaml"],
                                      ["verify", "--format", "json"],
                                      ["limits", "--format", "json"]], ids=" ".join)
    def test_usage_error_exit_code(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_output_hash_commands_parse(self):
        # removing an option must not break the reference-output listing
        tool = runpy.run_path(Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py")
        assert tool["COMMANDS"]
        for argv in tool["COMMANDS"]:
            build_parser().parse_args(argv + ["--out", "out"])

    def test_record_diff_lists_moved_records(self, tmp_path, capsys):
        tool = runpy.run_path(Path(__file__).resolve().parents[1] / "tools" / "record_diff.py")

        def rec(name, computed, kind, tol, passed=True, expected=1.0):
            return {"name": name, "computed": computed, "expected": expected,
                    "kind": kind, "tolerance": tol, "passed": passed}

        old = [rec("same", 0.5, "abs", 1.0), rec("abs", 0.5, "abs", 2.0, expected=0.0),
               rec("rel", 1.1, "rel", 0.2), rec("le", 0.5, "le", 1.0), rec("true", 1.0, "true", 0.0),
               rec("gone", 0.5, "abs", 1.0)]
        new = [rec("same", 0.5, "abs", 1.0), rec("abs", 1.0, "abs", 2.0, expected=0.0),
               rec("rel", 0.9, "rel", 0.2), rec("le", 3.0, "le", 1.0, passed=False),
               rec("true", 0.0, "true", 0.0, passed=False)]
        assert [tool["used_share"](r) for r in new] == [0.5, 0.5, pytest.approx(0.5), 1.5, None]
        paths = []
        for name, checks in (("old", old), ("new", new)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"checks": checks}))
        assert tool["main"]([str(p) for p in paths]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["abs", "rel", "le", "true", "gone"]
        assert lines[-1] == "gone: only in OLD"
        assert lines[2] == "le: 0.5 PASS (share 0.25) -> 3.0 FAIL (share 1.5) [le, tol 1.0]"
        assert tool["main"]([str(paths[1])] * 2) == 0
        assert capsys.readouterr().out == ""

    def test_invalid_parameter_exit_code(self, capsys):
        assert main(["bowl", "--lambda", "-1.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonfinite_span_exits_promptly(self):
        # a NaN span once sent the bowl integration into an endless loop
        proc = subprocess.run([sys.executable, "-m", "nil3trans.cli", "bowl", "--span", "nan"],
                              capture_output=True, text=True, timeout=60, env=_subprocess_env())
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_tiny_pitch_exits_promptly(self):
        # a helicoid this flat once integrated for over a minute before its
        # step underflow ended it
        proc = subprocess.run([sys.executable, "-m", "nil3trans.cli", "helicoid",
                               "--pitch", "1e-30"],
                              capture_output=True, text=True, timeout=20, env=_subprocess_env())
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: numerical failure:")
        assert proc.stderr.count("\n") == 1

    def test_tiny_pitch_at_the_axis_exits_promptly(self):
        # the seed's patch jet is already degenerate here; the arms were once
        # integrated over the whole span (8 s) before the sampled profile
        # failed the same test
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nil3trans.cli", "helicoid",
                               "--pitch", "1e-8", "--r0", "0"],
                              capture_output=True, text=True, timeout=20, env=_subprocess_env())
        elapsed = time.perf_counter() - start
        assert proc.returncode == 3
        assert proc.stderr == ("error: numerical failure: "
                               "tangent basis is (numerically) degenerate\n")
        # about 0.3 s, nearly all of it the interpreter start and the imports
        assert elapsed < 2.0

    # each took over 10 s before the step attempts were capped
    @pytest.mark.parametrize("argv", [["bowl", "--lambda", "1.76e-5", "--span", "1173"],
                                      ["catenoid", "--lambda", "1e-5", "--span", "1000"]])
    def test_small_lambda_run_exits_at_the_attempt_cap(self, argv):
        proc = subprocess.run([sys.executable, "-m", "nil3trans.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=_subprocess_env())
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: numerical failure:")
        assert proc.stderr.count("\n") == 1 and "5000 step attempts" in proc.stderr

    @pytest.mark.parametrize("f0", ["1000", "0", "-1", "nan", "inf"])
    def test_limits_checks_f0_before_any_solve(self, capsys, monkeypatch, f0):
        calls = []
        solve_ivp = ode.solve_ivp

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(ode, "solve_ivp", counted)
        assert main(["limits", "--f0", f0]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error:")

    def test_runtime_imports_no_scipy(self):
        # scipy is a test-only dependency; the installed program needs numpy only
        code = ("import sys, nil3trans.cli; "
                "assert not [m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.')]")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr

    def test_numerical_failure_exit_code(self, capsys):
        # the neck at lambda = 100, f0 = 1e-3 is not convex near its apex
        # (f''(1e-3) = -1.1e5); at lambda = 1e-12 the arms start at slope 1e13
        # and end in a step underflow at once
        for argv in (["catenoid", "--lambda", "100", "--f0", "1e-3"],
                     ["catenoid", "--lambda", "1e-12", "--span", "100"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: numerical failure:") and "Traceback" not in err

    @pytest.mark.parametrize("family", ["bowl", "catenoid"])
    def test_entire_graph_runs_past_the_old_blow_up_stop(self, tmp_path, family):
        # once exit 2: the arm stopped where |phi| reached 1e10, at r = 141421;
        # out there K_gauss has nearly reached its tail value -lam/4
        path = tmp_path / "out.csv"
        assert main([family, "--span", "1e6", "--out", str(path)]) == 0
        header = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data[-1, header.index("K_gauss")] == pytest.approx(-0.25, abs=1e-11)

    @pytest.mark.parametrize("family, span", [("bowl", "nan"), ("bowl", "inf"),
                                              ("catenoid", "nan"), ("catenoid", "inf")])
    def test_nonfinite_span_names_the_rule(self, capsys, monkeypatch, family, span):
        # these once named the series start, the integrator's finite-data
        # check or, after solving the neck, the junction radius
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(ode, "solve_ivp", refuse)
        assert main([family, "--span", span]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err

    def test_bad_direction_exit_code(self, capsys):
        assert main(["planar-grim", "--direction", "1;0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["helicoid", "--span", "-3"],
        ["helicoid", "--span", "1e300"],  # once ran until killed
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
        ["limits", "--c", "-1"],  # once exited 0 with a report
        ["helicoid", "--pitch", "inf"],  # once warned from helicoid_curvature first
        ["limits", "--f0", "inf"],  # once warned from the catenoid limit's target
        ["limits", "--f0", "1000"],  # once exited 1: its errors sat at round-off
        ["limits", "--f0", "1e-3"],  # once exited 3: a series start overflowed
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
        # math.sinh in the slab endpoints overflows at these lambdas (at c = 0
        # from lambda = 2.0458e5); the message names the slab, not the bare
        # "math range error" of math.sinh
        for lam in ("3e5", "2.1e5"):
            assert main(["grim", "--lambda", lam]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: numerical failure:") and err.count("\n") == 1
            assert "slab endpoints overflow" in err and f"lambda = {float(lam):g}" in err

    @pytest.mark.parametrize("argv", [
        # numpy overflow: once warned, and ran on or exited 2 with a nan report
        ["helicoid", "--pitch", "1e-300"],
        ["limits", "--c", "1e200"],
        # degenerate tangent basis: once exited 2 as a usage error
        ["helicoid", "--r0", "1e6"],
        ["helicoid", "--pitch", "1e-6"],
        ["helicoid", "--pitch", "1e-12"],
        # an arm ended by step underflow: once exited 2 from the read-back
        ["helicoid", "--pitch", "1e-20"],
        ["helicoid", "--pitch", "1e-100"],
        # lam*c*c overflows the slab width in Python floats: once exit 2 from
        # the integrator's finiteness check
        ["grim", "--c", "1e155"],
        ["grim", "--c", "1e300"],
        # a term of order r^3 overflows, from r = 5.05e102 at lambda = 1: w2^(3/2)
        # in the graph kernel, or r (4 + lam r^2) in the rotational ODE
        ["bowl", "--span", "1e103"],
        # a subnormal direction overflows pi/speed in Python floats: once
        # all-nan csv and obj output with exit 0, and exit 2 from the json
        # encoder
        *(["planar-grim", f"--direction={d}", "--format", fmt]
          for d in ("1e-320,0", "0,-2.86e-315") for fmt in ("csv", "obj", "json")),
    ], ids=" ".join)
    def test_floating_point_failure_exit_code(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical failure:")
        assert captured.err.count("\n") == 1

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


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _json_numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for v in value for n in _json_numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


class TestDomainSweep:
    """Random parameters across the documented domains: every run ends with
    exit 0 and finite CSV values, or with exit 2 or 3 and one stderr line,
    and raises no warning."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert caught == [], argv
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        elif argv[0] == "limits":
            numbers = _json_numbers(json.loads(out))
            assert numbers and all(math.isfinite(v) for v in numbers), argv
        else:
            rows = [row.split(",") for row in out.splitlines()[1:]]
            assert rows and np.all(np.isfinite(np.array(rows, dtype=float))), argv

    # argparse reads a leading "-" as an option, hence --direction=a,b
    @given(st.tuples(_FINITE, _FINITE).filter(lambda d: d != (0.0, 0.0)))
    @settings(max_examples=50, deadline=5000)
    def test_planar_grim_direction(self, direction):
        self.check(["planar-grim", "--direction={!r},{!r}".format(*direction)])

    @given(_log_uniform(-12, 6), st.one_of(st.just(0.0), _log_uniform(-12, 12)))
    @settings(max_examples=30, deadline=5000)
    def test_grim_lambda_and_slope(self, lam, c):
        self.check(["grim", "--lambda", repr(lam), "--c", repr(c)])

    # argparse reads an exponent-form negative value such as "-1e-3" as an
    # option, hence --pitch=value
    @given(_log_uniform(-12, 6),
           st.tuples(st.sampled_from((1.0, -1.0)), _log_uniform(-12, 6)).map(
               lambda sp: sp[0] * sp[1]),
           st.one_of(st.just(0.0), _log_uniform(-12, 6)),
           _log_uniform(-3, math.log10(50.0)))
    @settings(max_examples=30, deadline=5000)
    def test_helicoid_domain(self, lam, pitch, r0, span):
        self.check(["helicoid", "--lambda", repr(lam), f"--pitch={pitch!r}",
                    "--r0", repr(r0), "--span", repr(span)])

    # a run that reaches ode.MAX_ATTEMPTS exits 3 within about 2 s
    @given(_log_uniform(-12, 6), _log_uniform(-5, 6))
    @settings(max_examples=15, deadline=5000)
    def test_bowl_domain(self, lam, span):
        self.check(["bowl", "--lambda", repr(lam), "--span", repr(span)])

    @given(_log_uniform(-12, 6), _log_uniform(-6, 3), _log_uniform(-3, 4))
    @settings(max_examples=15, deadline=5000)
    def test_catenoid_domain(self, lam, f0, span):
        self.check(["catenoid", "--lambda", repr(lam), "--f0", repr(f0),
                    "--span", repr(span)])

    @given(st.one_of(st.just(0.0), _log_uniform(-12, 12)), _log_uniform(-2, 3))
    @settings(max_examples=15, deadline=5000)
    def test_limits_domain(self, c, f0):
        self.check(["limits", "--c", repr(c), "--f0", repr(f0)])

    @given(st.sampled_from((["grim", "--c", "1"], ["bowl"], ["catenoid"], ["helicoid"])),
           _log_uniform(-300, 0), _log_uniform(-300, 300))
    @settings(max_examples=20, deadline=5000)
    def test_tolerances(self, argv, rtol, atol):
        self.check(argv + ["--rtol", repr(rtol), "--atol", repr(atol)])
