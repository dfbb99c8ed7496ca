"""Command-line interface: construct translator families, export profiles
and meshes, run the verification suites.

Subcommands: grim, bowl, catenoid, helicoid, planar-grim, limits, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error (including a
parameter outside its documented domain), 3 numerical failure (including
a floating-point overflow, invalid or divide-by-zero result); 2 and 3 print
one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import asymptotics as asym
from . import exports
from . import families as fam
from . import ode
from . import verify as verify_mod


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nil3trans",
        description="Invariant vertical translators of the Heisenberg group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, span_default, span_help):
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="metric parameter lambda > 0")
        p.add_argument("--span", type=float, default=span_default, help=span_help)
        p.add_argument("--rtol", type=float, default=ode.DEFAULT_RTOL)
        p.add_argument("--atol", type=float, default=ode.DEFAULT_ATOL)
        p.add_argument("--format", choices=("csv", "obj", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("grim", help="tilted grim reaper over its maximal slab")
    p.add_argument("--c", type=float, default=0.0, help="translation slope c >= 0")
    add_common(p, 5.0, "sweep extent of the translation group for OBJ output")

    p = sub.add_parser("bowl", help="rotationally invariant entire graph")
    add_common(p, 200.0, "maximal radius r_max")

    p = sub.add_parser("catenoid", help="glued translating catenoid")
    p.add_argument("--f0", type=float, default=1.0, help="neck radius f0 > 0")
    add_common(p, 200.0, "maximal arm radius r_max")

    p = sub.add_parser("helicoid", help="helicoidal translator")
    p.add_argument("--pitch", type=float, default=1.0,
                   help="pitch c != 0 (pass a negative exponent form as --pitch=-1e-3)")
    p.add_argument("--r0", type=float, default=1.0,
                   help="distance of the generating curve from the origin")
    add_common(p, 50.0, "arc-length span of each arm, at most 1e4")

    p = sub.add_parser("planar-grim",
                       help="Euclidean grim reaper cylinder for a horizontal direction")
    p.add_argument("--direction", default="0,1",
                   help="translation direction a1,a2 (nonzero)")
    p.add_argument("--format", choices=("csv", "obj", "json"), default="csv")
    p.add_argument("--span", type=float, default=5.0,
                   help="vertical sweep extent for OBJ output")
    p.add_argument("--out", default=None)

    p = sub.add_parser("limits", help="large-lambda limit reports")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--f0", type=float, default=1.0)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verify_mod.SUITES, default="all")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out", default=None)
    return parser


def _solve(args) -> fam.ProfileCurve:
    cmd = args.command
    if cmd == "grim":
        return fam.solve_grim_reaper(fam.GrimReaperParams(args.lam, args.c),
                                     rtol=args.rtol, atol=args.atol)
    if cmd == "bowl":
        return fam.solve_bowl(args.lam, args.span, rtol=args.rtol, atol=args.atol)
    if cmd == "catenoid":
        return fam.solve_catenoid(args.lam, args.f0, r_max=args.span,
                                  rtol=args.rtol, atol=args.atol)
    if cmd == "helicoid":
        return fam.solve_helicoid(fam.HelicoidParams(args.lam, args.pitch, args.r0),
                                  s_span=args.span, rtol=args.rtol, atol=args.atol)
    if cmd == "planar-grim":
        try:
            a1, a2 = (float(v) for v in args.direction.split(","))
        except ValueError:
            raise ValueError("--direction must be two comma-separated numbers")
        return fam.planar_grim_reaper((a1, a2))
    raise AssertionError(cmd)


def _profile_report(profile: fam.ProfileCurve) -> dict:
    diag = {}
    for key, val in profile.diagnostics.items():
        if isinstance(val, fam.SlabData):
            diag[key] = {"a_endpoint": val.a_endpoint,
                         "b_endpoint": val.b_endpoint, "width": val.width}
        elif isinstance(val, (int, float, str, tuple, list, dict)):
            diag[key] = val
    report = {
        "family": profile.family,
        "params": profile.params,
        "n_samples": len(profile.t),
        "diagnostics": diag,
    }
    if "residual" in profile.data:
        report["residual_sup"] = profile.residual_sup
    return report


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        exports.write_file(out, text)
        print(f"wrote {out}")


def _run_family(args) -> int:
    profile = _solve(args)
    if args.format == "csv":
        _emit(exports.csv_text(profile), args.out)
    elif args.format == "obj":
        mesh = fam.sweep_surface(profile, sweep_range=(-args.span, args.span))
        _emit(exports.obj_text(mesh), args.out)
    else:
        _emit(exports.report_text(_profile_report(profile)), args.out)
    if "residual" in profile.data:
        print(f"# {profile.family}: {len(profile.t)} samples, "
              f"residual sup {profile.residual_sup:.3e}", file=sys.stderr)
    return 0


def _run_limits(args) -> int:
    # one joint solve: every job checks its parameters before any solve
    grim, bowl, cat = fam.solve_jobs(asym.limit_grim_reaper_job(args.c),
                                     asym.limit_bowl_job(),
                                     asym.limit_catenoid_job(args.f0))
    report = {rep.family: {"lam_grid": rep.lam_grid, "errors": rep.errors,
                           "decay_rate": rep.decay_rate,
                           "strictly_decreasing": rep.strictly_decreasing,
                           "details": rep.details}
              for rep in (grim, bowl, cat)}
    _emit(exports.report_text(report), args.out)
    ok = all(report[f]["strictly_decreasing"] for f in report)
    return 0 if ok else 1


def _run_verify(args) -> int:
    report = verify_mod.run_suite(args.suite)
    for chk in report["checks"]:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"{status}  {chk['name']}: computed {chk['computed']:.6g}, "
              f"expected {chk['expected']:.6g} (tol {chk['tolerance']:g}, "
              f"{chk['kind']}) [{chk['anchor']}]", file=sys.stderr)
    c = report["counts"]
    print(f"# suite {args.suite}: {c['passed']}/{c['total']} checks passed",
          file=sys.stderr)
    if args.out is not None:
        exports.write_file(args.out, exports.report_text(report))
        print(f"wrote {args.out}", file=sys.stderr)
    elif args.format == "json":
        sys.stdout.write(exports.report_text(report))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow, invalid or divide-by-zero result raises
        # FloatingPointError, an ArithmeticError, instead of warning on
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "verify":
                return _run_verify(args)
            if args.command == "limits":
                return _run_limits(args)
            return _run_family(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
