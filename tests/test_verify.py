from types import SimpleNamespace

import numpy as np
import pytest

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
