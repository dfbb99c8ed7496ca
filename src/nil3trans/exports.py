"""Lossless exporters: CSV profiles, OBJ quad meshes, JSON reports.

All floating-point output uses 17 significant digits so that re-parsing
reproduces the binary doubles exactly.  JSON reports carry a schema version
and are serialized with sorted keys, making byte-identical output a pure
function of the computed values.
"""

from __future__ import annotations

import json

import numpy as np

from .families import Mesh, ProfileCurve

SCHEMA_VERSION = "1"

# 17 significant digits: re-parsing reproduces every double exactly
FLOAT_FORMAT = "%.17g"


def _table_text(row: str, table) -> str:
    """One ``row`` template per table row, filled by a single ``%``."""
    return (row * len(table)) % tuple(table.ravel().tolist())


def csv_text(profile: ProfileCurve) -> str:
    """The profile's ``data`` table as it stands, one column per key."""
    row = ",".join([FLOAT_FORMAT] * len(profile.data))
    table = np.column_stack(list(profile.data.values()))
    return ",".join(profile.data) + "\n" + _table_text(row + "\n", table)


def obj_text(mesh: Mesh) -> str:
    row = f"v {FLOAT_FORMAT} {FLOAT_FORMAT} {FLOAT_FORMAT}\n"
    table = mesh.vertices
    if "H" in mesh.scalars:
        row += "# vH " + FLOAT_FORMAT + "\n"
        table = np.column_stack([table, mesh.scalars["H"]])
    return _table_text(row, table) + _table_text("f %d %d %d %d\n", mesh.faces)


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
