from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from berkpot.places import NEG_INF, POS_INF, Place, PlaceError, flow_place
from berkpot.points import (
    GAUSS,
    build_skeleton,
    classical,
    contains,
    disk,
    eval_log_abs,
    flow_point,
    infinity,
    join_points,
    point_from_json,
    retract,
    same_point,
)

P2 = Place.padic(2)
P3 = Place.padic(3)


def poly_mul(a, b):
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


small_polys = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=8), min_size=1, max_size=5
).filter(lambda c: any(x != 0 for x in c))
disk_points = st.builds(
    disk,
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
)


def test_eval_examples():
    assert eval_log_abs(P3, GAUSS, [9, 3, 1]) == 0  # max(|9|, |3|r, r^2) at r=1
    assert eval_log_abs(P2, disk(0, -1), [0, 1]) == -1  # |T| on the radius-1/2 disk
    assert eval_log_abs(Place.archimedean(), classical(2.0 + 0j), [-2, 1]) == NEG_INF


def test_eval_at_an_infinite_radius_and_an_infinite_coefficient():
    res2 = Place.residue(2)
    eta = join_points(res2, classical(0), classical(F(1, 2)))  # |1/2| = +inf at the residue place
    assert eta == disk(0, POS_INF)
    # the i = 0 line is log|c_0| itself: no 0 * inf, so no nan
    assert eval_log_abs(res2, eta, [1, 1]) == POS_INF
    assert eval_log_abs(res2, eta, [1]) == 0
    assert eval_log_abs(res2, GAUSS, [F(1, 2), 1]) == POS_INF  # a +inf coefficient stays +inf


def test_eval_disk_needs_ultrametric():
    with pytest.raises(PlaceError):
        eval_log_abs(Place.archimedean(), GAUSS, [0, 1])


def test_flow_point_examples():
    assert flow_point(classical(F(5)), F(1, 2)) == classical(F(5))
    assert flow_point(disk(0, F(-1)), F(1, 2)) == disk(0, F(-1, 2))
    assert flow_point(GAUSS, F(2, 3)) == GAUSS


@given(disk_points, small_polys, small_polys)
@settings(max_examples=60)
def test_multiplicativity_on_disks(x, p, q):
    lhs = eval_log_abs(P3, x, poly_mul(p, q))
    a, b = eval_log_abs(P3, x, p), eval_log_abs(P3, x, q)
    rhs = NEG_INF if (a == NEG_INF or b == NEG_INF) else a + b
    assert lhs == rhs


@given(disk_points, small_polys, st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]))
@settings(max_examples=60)
def test_flow_compatibility_exact(x, p, eps):
    lhs = eval_log_abs(flow_place(P3, eps), flow_point(x, eps), p)
    rhs = eval_log_abs(P3, x, p)
    assert lhs == (NEG_INF if rhs == NEG_INF else eps * rhs)


def test_skeleton_nested_disks_path():
    g = build_skeleton(P2, [disk(0, F(-2)), disk(0, 0)])
    assert g.n == 2
    assert len(g.edges) == 1
    assert g.edges[0][2] == 2  # distance |log r - log s| in units of log 2


def test_skeleton_star_meets_at_gauss():
    # |0 - 1|_2 = 1, so both radius-1/2 disks join at the Gauss point
    g = build_skeleton(P2, [disk(0, -1), disk(1, -1)])
    assert g.n == 3
    gauss = g.vertex_of_point(P2, GAUSS)
    assert gauss is not None
    assert sorted(ln for _, _, ln in g.edges) == [1, 1]
    assert all(gauss in (i, j) for i, j, _ in g.edges)
    # brute-force check of the meet point: smallest disk containing both
    join = join_points(P2, disk(0, -1), disk(1, -1))
    assert same_point(P2, join, GAUSS)
    for rho_num in range(-4, 1):
        candidate = disk(0, F(rho_num, 4))
        if contains(P2, candidate, disk(0, -1)) and contains(P2, candidate, disk(1, -1)):
            assert candidate.logr >= join.logr


def test_skeleton_single_vertex():
    g = build_skeleton(P3, [GAUSS])
    assert g.n == 1 and not g.edges
    assert g.boundary == [0]


@given(st.lists(disk_points, min_size=1, max_size=6))
@settings(max_examples=40)
def test_skeleton_is_a_tree(pts):
    g = build_skeleton(P3, pts)
    assert len(g.edges) == g.n - 1
    assert g.is_connected()


def _tree_distance(g, a, b):
    import heapq

    dist = {a: 0}
    heap = [(0, a)]
    adj = g.adjacency()
    while heap:
        d, v = heapq.heappop(heap)
        if v == b:
            return d
        for w, ln, _ in adj[v]:
            nd = d + ln
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist[b]


@given(st.lists(disk_points, min_size=2, max_size=6))
@settings(max_examples=40)
def test_skeleton_distances_along_nesting_chains(pts):
    g = build_skeleton(P3, pts)
    for a in range(g.n):
        for b in range(g.n):
            if a != b and contains(P3, g.labels[b], g.labels[a]):
                want = g.labels[b].logr - g.labels[a].logr
                assert _tree_distance(g, a, b) == want


@given(st.lists(disk_points, min_size=2, max_size=5), st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]))
@settings(max_examples=30)
def test_flow_scales_skeleton_metric(pts, eps):
    g = build_skeleton(P3, pts)
    flowed = build_skeleton(flow_place(P3, eps), [flow_point(x, eps) for x in pts])
    lengths = sorted(ln for _, _, ln in g.edges)
    flowed_lengths = sorted(ln for _, _, ln in flowed.edges)
    assert flowed_lengths == [eps * ln for ln in lengths]


def _tree_distance_score(place, x, w):
    """2 rho(join) - rho(w), monotone stand-in for d(x, w) with x fixed."""
    j = join_points(place, x, w)
    jr = j.logr if j.t == "disk" else NEG_INF
    return 2 * jr - w.logr


def test_retract_examples():
    seg = build_skeleton(P2, [disk(0, -1), disk(0, 1)])
    loc = retract(P2, classical(F(1)), seg)  # |z| = 1 retracts to the Gauss point
    assert same_point(P2, loc.point, GAUSS)
    on_skel = retract(P2, disk(0, F(1, 2)), seg)
    assert same_point(P2, on_skel.point, disk(0, F(1, 2)))
    clamp = retract(P2, classical(F(0)), seg)
    assert clamp.kind == "vertex" and same_point(P2, clamp.point, disk(0, -1))
    top = retract(P2, infinity(), seg)
    assert same_point(P2, top.point, disk(0, 1))


@given(st.lists(disk_points, min_size=2, max_size=5), disk_points)
@settings(max_examples=40)
def test_retract_minimizes_tree_distance(pts, x):
    g = build_skeleton(P3, pts)
    loc = retract(P3, x, g)
    # sample the skeleton densely and compare distance scores
    samples = []
    for i, j, _ in g.edges:
        a, b = g.labels[i], g.labels[j]
        lo, hi = (a, b) if a.logr <= b.logr else (b, a)
        for k in range(5):
            rho = lo.logr + (hi.logr - lo.logr) * F(k, 4)
            samples.append(disk(lo.center, rho))
    samples.extend(g.labels)
    best = min(_tree_distance_score(P3, x, w) for w in samples)
    assert _tree_distance_score(P3, x, loc.point) <= best


@given(st.lists(disk_points, min_size=1, max_size=5), disk_points)
@settings(max_examples=40)
def test_retract_idempotent(pts, x):
    g = build_skeleton(P3, pts)
    once = retract(P3, x, g)
    twice = retract(P3, once.point, g)
    assert same_point(P3, once.point, twice.point)


# the README's point formats, one per test point
_POINT_JSON = {
    classical(1.5 + 2j): {"t": "cls", "re": 1.5, "im": 2.0},
    classical(F(7, 3)): {"t": "cls", "q": "7/3"},
    disk(F(1, 2), F(-3, 2)): {"t": "disk", "center": "1/2", "logr": "-3/2"},
    infinity(): {"t": "inf"},
}


@pytest.mark.parametrize("pt", list(_POINT_JSON))
def test_point_json_round_trip(pt):
    assert point_from_json(_POINT_JSON[pt]) == pt


@pytest.mark.parametrize("obj", [{"t": "disk", "center": "0"}, {"t": "cls", "q": "x"}, {"t": "cls", "q": "1/0"},
                                 {"t": "cls", "re": "x"}, {"t": "disk", "center": "1/0", "logr": "0"}, {"t": "?"}],
                         ids=["missing", "unparsable", "zero-denominator", "unparsable-re", "zero-center", "kind"])
def test_point_json_errors_are_typed(obj):
    with pytest.raises(PlaceError, match="bad point JSON"):
        point_from_json(obj)
