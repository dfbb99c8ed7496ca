"""Per-layer metrics of a traced pass, and the headroom counters.

Every name in ``PER_LAYER`` is reported by every traced run; a layer that a
workload does not reach reads 0.  Times are seconds of the traced pass,
counts are totals over the pass.
"""

from __future__ import annotations

FAMILY_FUNCTIONS = ("solve_grim_reaper", "solve_bowl", "solve_catenoid",
                    "solve_helicoid", "planar_grim_reaper", "sweep_surface")
SUITES = ("core", "asymptotics", "limits")

PER_LAYER = (
    [("setup.nil3trans_import_s", "s"),
     ("setup.scipy_integrate_import_s", "s"),
     ("setup.scipy_optimize_import_s", "s"),
     ("ode.calls", "count"), ("ode.self_s", "s"), ("ode.scipy_s", "s"),
     ("ode.steps", "count"), ("ode.nfev", "count"), ("ode.rhs_calls", "count"),
     ("ode.useful_rhs_ratio", "ratio"), ("ode.dense_points", "count"),
     ("ode.dense_s", "s"), ("ode.step_underflow", "count"),
     ("surface.calls", "count"), ("surface.samples", "count"),
     ("surface.self_s", "s"), ("surface.us_per_sample", "us"),
     ("core.calls", "count"), ("core.self_s", "s")]
    + [(f"families.{fn}.{m}", u) for fn in FAMILY_FUNCTIONS
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("families.self_s", "s"),
       ("asymptotics.calls", "count"), ("asymptotics.self_s", "s"),
       ("exports.bytes", "count"), ("exports.self_s", "s"),
       ("exports.MB_per_s", "MB/s")]
    + [(f"verify.{suite}_suite_s", "s") for suite in SUITES]
    + [("verify.checks", "count"), ("verify.checks_failed", "count"),
       ("verify.threads", "count"), ("verify.worst_margin", "ratio"),
       ("cli.calls", "count"), ("cli.self_s", "s"),
       ("oracle.closed_form_margin", "ratio"), ("oracle.endpoint_margin", "ratio"),
       ("construct.residual_margin", "ratio"),
       ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)

# counters that must repeat exactly for the same seed
DETERMINISTIC = ("ode.steps", "ode.nfev", "ode.rhs_calls", "surface.samples",
                 "exports.bytes")


def worst_margins(outcomes) -> dict:
    """Largest used share of each bound over all operations."""
    worst: dict = {}
    for out in outcomes:
        for key, val in out.margins.items():
            worst[key] = max(worst.get(key, 0.0), val)
    return worst


def per_layer(tracer, spans: dict, traced_pass: dict, untraced_wall: float) -> dict:
    """All ``PER_LAYER`` metrics except ``setup.*``, from one traced pass.

    ``spans`` is ``tracer.summary()``.
    """
    counts = tracer.counters()

    def total(prefix, key):
        return sum(v[key] for name, v in spans.items() if name.startswith(prefix))

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    m = {}
    for layer in ("ode", "surface", "core", "asymptotics", "exports", "cli"):
        m[f"{layer}.calls"] = total(f"{layer}.", "calls")
        m[f"{layer}.self_s"] = total(f"{layer}.", "self_s")
    for key in ("steps", "nfev", "rhs_calls", "dense_points", "step_underflow"):
        m[f"ode.{key}"] = counts[f"ode.{key}"]
    m["ode.scipy_s"] = span("scipy.solve_ivp")
    m["ode.dense_s"] = span("ode.Trajectory.__call__")
    m["ode.useful_rhs_ratio"] = (counts["ode.nfev"] / counts["ode.rhs_calls"]
                                 if counts["ode.rhs_calls"] else 0.0)
    samples = counts["surface.samples"]
    kernel_s = span("surface.graph_shape") + span("surface.patch_shape")
    m["surface.samples"] = samples
    m["surface.us_per_sample"] = 1e6 * kernel_s / samples if samples else 0.0
    for fn in FAMILY_FUNCTIONS:
        m[f"families.{fn}.calls"] = span(f"families.{fn}", "calls")
        m[f"families.{fn}.s"] = span(f"families.{fn}")
    m["families.self_s"] = total("families.", "self_s")
    m["exports.bytes"] = counts["exports.bytes"]
    text_s = sum(v["s"] for name, v in spans.items()
                 if name.startswith("exports.") and name.endswith("_text"))
    m["exports.MB_per_s"] = counts["exports.bytes"] / 1e6 / text_s if text_s else 0.0
    for suite in SUITES:
        m[f"verify.{suite}_suite_s"] = span(f"verify.{suite}_suite")
    checks = [o.counters for o in traced_pass["outcomes"]]
    m["verify.checks"] = sum(c.get("verify.checks", 0) for c in checks)
    m["verify.checks_failed"] = sum(c.get("verify.checks_failed", 0) for c in checks)
    m["verify.threads"] = tracer.threads()
    margins = worst_margins(traced_pass["outcomes"])
    for key in ("verify.worst_margin", "oracle.closed_form_margin",
                "oracle.endpoint_margin", "construct.residual_margin"):
        m[key] = margins.get(key, 0.0)
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_pass["wall"]
    m["trace.overhead_ratio"] = traced_pass["wall"] / untraced_wall - 1.0
    return m
