from types import SimpleNamespace

import numpy as np
import pytest

from nil3trans import families, ode, verify
from nil3trans.verify import _polyline_embedded


def profile(points):
    pts = np.asarray(points, dtype=float)
    return SimpleNamespace(data={"r": pts[:, 0], "z": pts[:, 1]})


def segments_cross_oracle(a, b, c, d):
    """Scalar proper-crossing test; contacts within 1e-15 do not count."""
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-15 else (1 if v > 0 else -1)

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def embedded_oracle(points):
    m = len(points) - 1
    return not any(segments_cross_oracle(points[i], points[i + 1], points[j], points[j + 1])
                   for i in range(m) for j in range(i + 2, m))


class TestPolylineEmbedded:
    def test_self_crossing(self):
        # a bow tie: the first and the third segment cross at (0.5, 0.5)
        assert not _polyline_embedded(profile([(0, 0), (1, 1), (1, 0), (0, 1)]))

    def test_touching_only(self):
        # the fourth segment ends on the first one, and the fifth runs along
        # the first through the corner (2, 0): contacts, not crossings
        pts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 0), (3, 0)]
        assert _polyline_embedded(profile(pts))

    @pytest.mark.parametrize("grid", [True, False])
    def test_matches_scalar_oracle(self, grid):
        # integer grids make touching and collinear contacts common
        rng = np.random.default_rng(5 if grid else 6)
        verdicts = []
        for _ in range(150):
            n = int(rng.integers(4, 13))
            pts = rng.integers(0, 4, (n, 2)) if grid else rng.uniform(-1, 1, (n, 2))
            pts = pts.astype(float)
            verdicts.append(embedded_oracle(pts))
            assert _polyline_embedded(profile(pts)) == verdicts[-1]
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("t_lo, embedded", [(-0.9, True), (-1.5, False)])
    def test_long_polyline(self, t_lo, embedded):
        # 1,601 points of the nodal cubic (t^2 - 1, t^3 - t), which crosses
        # itself at the origin (t = +-1) only; t >= -0.9 leaves that out
        t = np.linspace(t_lo, 1.5, 1601)
        pts = np.column_stack([t * t - 1.0, t * t * t - t])
        assert _polyline_embedded(profile(pts)) is embedded


def lane_spy(monkeypatch):
    """Record the right-hand side of every ode.solve_ivp call, and per lane
    (rhs, t0, t1, y0, args, rtol, atol)."""
    calls, lanes = [], []
    solve_ivp = ode.solve_ivp

    def spy(rhs, t_span, y0, args=(), rtol=ode.DEFAULT_RTOL, atol=ode.DEFAULT_ATOL, **kwargs):
        calls.append(rhs)
        n = len(t_span[0])
        per_lane = [np.broadcast_to(v, (n,)) for v in (*args, rtol, atol)]
        lanes.extend((rhs, t0, t1, tuple(y), *(float(v[i]) for v in per_lane))
                     for i, (t0, t1, y) in enumerate(zip(*t_span, y0)))
        return solve_ivp(rhs, t_span, y0, args=args, rtol=rtol, atol=atol, **kwargs)

    monkeypatch.setattr(ode, "solve_ivp", spy)
    return calls, lanes


def test_run_suite_solves_each_shared_profile_once(monkeypatch):
    # the residual check reads helicoid (1, 1, 1) from the helicoid grid, and
    # the lam = 1 tail fit reads the bowl (1, 200) that the core suite reads:
    # no lane is integrated twice in a run
    _, lanes = lane_spy(monkeypatch)
    assert verify.run_suite("all")["passed"]
    assert len(set(lanes)) == len(lanes)
    bowl_1_200 = [lane for lane in lanes if lane[0] is families._rotational_lanes
                  and lane[2:5] + lane[-2:] == (200.0, families.bowl_series_start(1.0)[1], 1.0,
                                                ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)]
    helicoid_1_1_1 = [lane for lane in lanes if lane[0] is families._helicoid_lanes
                      and lane[3:6] == ((1.0, 0.0, 0.5 * np.pi), 1.0, 1.0)]
    assert len(bowl_1_200) == 1 and len(helicoid_1_1_1) == 2


def test_run_suite_makes_one_solve_per_right_hand_side_and_site(monkeypatch):
    # one call per right-hand side: chart 1 of the grim grid, the shared
    # grims and the limit windows, then the grim tails; the catenoid neck and
    # the limit necks; the helicoid grid; and, after the necks, the tail,
    # limit and axis bowls with the catenoid arms (25 calls when each lambda
    # had its own, 10 when each site had its own)
    calls, _ = lane_spy(monkeypatch)
    assert verify.run_suite("all")["passed"]
    assert calls == [families._grim_lanes, families._grim_tail_lanes,
                     families._neck_lanes, families._helicoid_lanes,
                     families._rotational_lanes]


def test_slowest_grim_half_of_a_run_makes_at_most_220_attempts(monkeypatch):
    # a grim reaper half runs in chart 1 and then in its tail, so the slowest
    # of each call bound every half: 83 + 129 attempts (394 with the pole
    # followed in y to |gamma'| = 1e7, 551 to 1e10); a trajectory makes 2
    # evaluations for its first step, 12 per attempt and 3 more for a
    # blow-up stop
    slowest = {}
    solve_ivp = ode.solve_ivp

    def spy(rhs, *args, **kwargs):
        sol = solve_ivp(rhs, *args, **kwargs)
        slowest[rhs] = max((tr.nfev - 2 - 3 * (tr.termination == "blow_up")) // ode.N_STAGES
                           for tr in sol.trajectories)
        return sol

    monkeypatch.setattr(ode, "solve_ivp", spy)
    assert verify.run_suite("all")["passed"]
    assert slowest[families._grim_lanes] + slowest[families._grim_tail_lanes] <= 220
