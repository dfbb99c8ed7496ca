"""Lossless exporters: CSV profiles, OBJ quad meshes, JSON reports.

All floating-point output uses 17 significant digits so that re-parsing
reproduces the binary doubles exactly.  JSON reports carry a schema version
and are serialized with sorted keys, making byte-identical output a pure
function of the computed values.
"""

from __future__ import annotations

import io
import json

from .families import Mesh, ProfileCurve

SCHEMA_VERSION = "1"

# leading parameter column name per family
_PARAM_COLUMN = {
    "grim": "y",
    "bowl": "r",
    "catenoid": "s",
    "helicoid": "s",
    "planar-grim": "x",
}

# fixed column orders (the parameter column comes first)
_COLUMNS = {
    "grim": ("gamma", "gamma_prime", "H", "residual", "K_gauss", "K_intrinsic"),
    "bowl": ("phi", "psi", "H", "residual", "K_gauss", "K_intrinsic"),
    "catenoid": ("r", "z", "H", "residual", "K_gauss"),
    "helicoid": ("gamma1", "gamma2", "theta_t", "tau", "nu", "r2", "k",
                 "H", "residual", "K_gauss"),
    "planar-grim": ("y", "px", "py", "curvature", "residual"),
}


def fmt(x) -> str:
    """17-significant-digit decimal, round-trip exact for doubles."""
    return format(float(x), ".17g")


def csv_text(profile: ProfileCurve) -> str:
    cols = _COLUMNS[profile.family]
    header = ",".join((_PARAM_COLUMN[profile.family],) + cols)
    out = io.StringIO()
    out.write(header + "\n")
    for i, t in enumerate(profile.t):
        row = [fmt(t)] + [fmt(profile.data[c][i]) for c in cols]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def obj_text(mesh: Mesh, scalar: str = "H") -> str:
    out = io.StringIO()
    values = mesh.scalars.get(scalar)
    for i, (x, y, z) in enumerate(mesh.vertices):
        out.write(f"v {fmt(x)} {fmt(y)} {fmt(z)}\n")
        if values is not None:
            out.write(f"# v{scalar} {fmt(values[i])}\n")
    for face in mesh.faces:
        out.write("f " + " ".join(str(i) for i in face) + "\n")
    return out.getvalue()


def report_text(report: dict) -> str:
    payload = dict(report)
    payload["schema"] = SCHEMA_VERSION
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` with LF line ends; the error names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc
