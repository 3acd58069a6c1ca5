import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from berkpot.graphs import (
    GraphError,
    PLFunction,
    dirichlet_extend,
    graph_laplacian,
    graph_from_json,
    mass_in,
    measure_pairing,
)
from berkpot.points import GAUSS, MetricGraph


def segment(length=F(1)):
    return MetricGraph(labels=[None, None], edges=[(0, 1, length)], boundary=[0, 1])


def star3(lengths=(F(1), F(1), F(1))):
    edges = [(0, i + 1, lengths[i]) for i in range(3)]
    return MetricGraph(labels=[None] * 4, edges=edges, boundary=[1, 2, 3])


def random_tree(rng, n):
    labels = [None] * n
    edges = []
    for v in range(1, n):
        parent = rng.randrange(v)
        edges.append((parent, v, F(rng.randint(1, 12), rng.randint(1, 5))))
    g = MetricGraph(labels=labels, edges=edges, boundary=[])
    g.boundary = [v for v in range(n) if g.degree(v) <= 1]
    return g


def test_laplacian_segment():
    u = PLFunction(segment(), [F(0), F(1)])
    lap = graph_laplacian(u)
    assert lap.weight_at(0) == 1 and lap.weight_at(1) == -1


def test_laplacian_star_harmonic_at_mean():
    u = PLFunction(star3(), [F(1), F(0), F(0), F(3)])
    lap = graph_laplacian(u)
    assert lap.weight_at(0) == 0


def test_laplacian_subdivided_segment():
    g = MetricGraph(labels=[None] * 3, edges=[(0, 2, F(1, 2)), (2, 1, F(1, 2))], boundary=[0, 1])
    u = PLFunction(g, [F(0), F(1), F(1, 2)])  # u = distance to vertex 0
    lap = graph_laplacian(u)
    assert lap.weight_at(2) == 0
    assert lap.weight_at(0) == 1 and lap.weight_at(1) == -1


def test_dirichlet_star_equal_weights():
    u = dirichlet_extend(star3(), {1: F(0), 2: F(0), 3: F(3)})
    assert u.values[0] == 1


def test_dirichlet_segment_is_affine():
    g = MetricGraph(labels=[None] * 3, edges=[(0, 2, F(1, 2)), (2, 1, F(1, 2))], boundary=[0, 1])
    u = dirichlet_extend(g, {0: F(0), 1: F(1)})
    assert u.values[2] == F(1, 2)


def test_dirichlet_weighted_star():
    # oracle: single interior unknown c with (0-c)/1 + (0-c)/1 + (4-c)/2 = 0
    c = F(4, 5)
    u = dirichlet_extend(star3((F(1), F(1), F(2))), {1: F(0), 2: F(0), 3: F(4)})
    assert u.values[0] == c


def test_dirichlet_converts_float_input_exactly():
    u = dirichlet_extend(star3((1.0, 1.0, 2.0)), {1: 0.0, 2: 0, 3: 4.0})
    assert u.values == [F(4, 5), F(0), F(0), F(4)]
    assert all(type(v) is F for v in u.values)


def test_dirichlet_needs_boundary():
    with pytest.raises(GraphError):
        dirichlet_extend(segment(), {})


def test_mass_in_clipped_log_model():
    # PL model of max(rho, 0) on rho in [-2, 2] (log2 units; the rational
    # stand-in 17/29 plays log(3/2)/log 2, 12/29 plays log(4/3)/log 2)
    g = MetricGraph(
        labels=[None] * 4,
        edges=[(0, 1, F(2)), (1, 2, F(17, 29)), (2, 3, F(2) - F(17, 29))],
        boundary=[0, 3],
    )
    u = PLFunction(g, [F(0), F(0), F(17, 29), F(2)])
    mass, bound = mass_in(u, {0, 1, 2}, F(12, 29))
    assert mass == 1
    assert mass <= bound


def test_mass_in_harmonic_zero():
    # region whose interior avoids the Dirichlet leaves: u is harmonic there
    u = dirichlet_extend(star3(), {1: F(0), 2: F(1), 3: F(2)})
    mass, bound = mass_in(u, {0}, F(1, 2))
    assert mass == 0 and mass <= bound


def test_mass_in_convex_path_telescopes():
    g = MetricGraph(labels=[None] * 3, edges=[(0, 1, F(1)), (1, 2, F(1))], boundary=[0, 2])
    u = PLFunction(g, [F(0), F(0), F(2)])  # slopes 0 then 2, convex
    mass, _bound = mass_in(u, {0, 1, 2}, F(1))
    assert mass == 2  # slope(out) - slope(in) telescoped over the path
    # with the region not covering the kink, the slope bound applies
    mass_lo, bound_lo = mass_in(u, {0, 1}, F(1))
    assert mass_lo == 0 and mass_lo <= bound_lo


def test_mass_in_rejects_long_ell():
    g = star3()
    u = PLFunction(g, [F(0), F(1), F(1), F(1)])
    with pytest.raises(GraphError):
        mass_in(u, {0, 1}, F(3, 2))


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_total_mass_zero(n, seed):
    rng = random.Random(seed)
    g = random_tree(rng, n)
    u = PLFunction(g, [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)])
    assert graph_laplacian(u).total_mass == 0


def test_maximum_principle_random_trees():
    rng = random.Random(7)
    for _ in range(20):
        g = random_tree(rng, rng.randint(4, 40))
        bvals = {v: F(rng.randint(-9, 9)) for v in g.boundary}
        u = dirichlet_extend(g, bvals)
        lo, hi = min(bvals.values()), max(bvals.values())
        assert all(lo <= x <= hi for x in u.values)
        lap = graph_laplacian(u)
        for v in range(g.n):
            if v not in bvals:
                assert lap.weight_at(v) == 0


def test_symmetry_interior_supported():
    rng = random.Random(11)
    for _ in range(10):
        g = random_tree(rng, rng.randint(5, 24))
        interior = [v for v in range(g.n) if v not in g.boundary]
        u = PLFunction(g, [F(rng.randint(-5, 5)) if v in interior else F(0) for v in range(g.n)])
        v = PLFunction(g, [F(rng.randint(-5, 5)) if x in interior else F(0) for x in range(g.n)])
        assert measure_pairing(u, graph_laplacian(v)) == measure_pairing(v, graph_laplacian(u))


def test_dirichlet_extends_harmonic_restriction():
    rng = random.Random(3)
    g = random_tree(rng, 12)
    u = dirichlet_extend(g, {v: F(rng.randint(-5, 5)) for v in g.boundary})
    again = dirichlet_extend(g, {v: u.values[v] for v in g.boundary})
    assert again.values == u.values


def test_subharmonic_iff_nonnegative_interior_laplacian():
    g = star3()
    convex = PLFunction(g, [F(0), F(1), F(1), F(1)])
    assert graph_laplacian(convex).weight_at(0) >= 0
    concave = PLFunction(g, [F(1), F(0), F(0), F(0)])
    assert graph_laplacian(concave).weight_at(0) < 0


def test_graph_json_round_trip():
    obj = {"vertices": [{"t": "disk", "center": "0", "logr": "0"}, None, None, None],
           "edges": [[0, 1, "1"], [0, 2, "2"], [0, 3, "7/3"]], "boundary": [1, 2, 3]}
    g = star3((F(1), F(2), F(7, 3)))
    back = graph_from_json(obj)
    assert back.edges == g.edges and back.boundary == g.boundary
    assert back.labels == [GAUSS, None, None, None]


@pytest.mark.parametrize("obj", [{"edges": []}, {"vertices": [None, None], "edges": [[0, 1, "x"]]},
                                 {"vertices": [None, None], "edges": [[0, 1, "1/0"]]},
                                 {"vertices": [{"t": "cls", "q": "1/0"}], "edges": []},
                                 {"vertices": [None, None], "edges": []}],
                         ids=["missing", "unparsable", "zero-denominator", "bad-vertex", "disconnected"])
def test_graph_json_errors_are_typed(obj):
    with pytest.raises(GraphError, match="bad graph JSON"):
        graph_from_json(obj)
