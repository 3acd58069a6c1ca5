"""Potential theory on finite metric graphs.

PL functions are affine on edges and determined by vertex values; the
Laplacian of such a function is the atomic measure whose weight at a vertex
is the sum of outgoing slopes.  The Dirichlet problem (harmonic extension of
boundary data) is a weighted-graph linear solve with weights 1/length.

Graphs are exact: lengths and values are ``Fraction``s, and the Dirichlet
solve converts its input with ``Fraction(x)``, exactly for floats too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .points import MetricGraph, point_from_json
from .polys import exact_solve


class GraphError(ValueError):
    pass


@dataclass
class PLFunction:
    """Continuous, piecewise-affine function: one value per vertex."""

    graph: MetricGraph
    values: list

    def __post_init__(self):
        if len(self.values) != self.graph.n:
            raise GraphError("need one value per vertex")

    def slope(self, i: int, j: int, length) -> object:
        """Slope along the edge from i to j."""
        return (self.values[j] - self.values[i]) / length


@dataclass
class GraphMeasure:
    """Finite atomic measure supported on vertices."""

    atoms: list  # (vertex_index, weight)

    @property
    def total_mass(self):
        return sum(w for _, w in self.atoms)

    def weight_at(self, v: int):
        return sum(w for i, w in self.atoms if i == v)


def graph_laplacian(u: PLFunction) -> GraphMeasure:
    """Atomic measure sum_x lambda_x(u) delta_x, lambda_x = sum of outgoing slopes.

    One pass over the edges: each slope leaves one end and enters the other.
    Total mass telescopes to zero on a compact graph.
    """
    weights = [0] * u.graph.n
    for i, j, ln in u.graph.edges:
        s = u.slope(i, j, ln)
        weights[i] += s
        weights[j] -= s
    return GraphMeasure(list(enumerate(weights)))


def dirichlet_extend(graph: MetricGraph, boundary_values: dict) -> PLFunction:
    """Unique PL function matching boundary values and harmonic inside.

    Solves the weighted-graph system (weights 1/length) exactly over Q.
    Values obey the maximum principle: they lie in [min boundary, max
    boundary].
    """
    if not boundary_values:
        raise GraphError("boundary must be nonempty")
    for b in boundary_values:
        if not (0 <= b < graph.n):
            raise GraphError(f"boundary vertex {b} out of range")
    values = [None] * graph.n
    for v, x in boundary_values.items():
        values[v] = Fraction(x)
    interior = [v for v in range(graph.n) if v not in boundary_values]
    idx = {v: k for k, v in enumerate(interior)}
    m = len(interior)
    a = [[Fraction(0)] * m for _ in range(m)]
    rhs = [Fraction(0)] * m
    adj = graph.adjacency()
    for v in interior:
        r = idx[v]
        for w, ln, _ in adj[v]:
            wgt = 1 / Fraction(ln)
            a[r][r] += wgt
            if w in idx:
                a[r][idx[w]] -= wgt
            else:
                rhs[r] += wgt * values[w]
    sol = exact_solve(a, rhs)
    for v in interior:
        values[v] = sol[idx[v]]
    return PLFunction(graph, values)


def mass_in(u: PLFunction, region, ell) -> tuple:
    """Positive Laplacian mass in a vertex region and its slope bound.

    The bound is (N/ell) * (sup over the ell-enlarged region - inf over the
    region), where N counts branches leaving the region; valid when u is
    subharmonic on the region's interior and ell does not exceed any
    outgoing edge length.  Graph leaves inside the region count as interior:
    a PL function stands for its retraction pullback, which is constant on
    the ambient branches beyond a leaf, so the leaf's one-sided slope is its
    true ambient Laplacian weight.
    """
    region = set(region)
    adj = u.graph.adjacency()
    outgoing = []  # (boundary vertex, other endpoint, length)
    for v in region:
        for w, ln, _ in adj[v]:
            if w not in region:
                outgoing.append((v, w, ln))
    for v, w, ln in outgoing:
        if ell > ln:
            raise GraphError(f"ell={ell} exceeds outgoing edge length {ln} at vertex {v}")
    boundary_vertices = {v for v, _, _ in outgoing}
    interior = region - boundary_vertices
    lap = dict(graph_laplacian(u).atoms)
    mass = 0
    for v in interior:
        if lap[v] > 0:
            mass += lap[v]
    sup_ell = max(u.values[v] for v in region) if region else 0
    for v, w, ln in outgoing:
        reach = u.values[v] + (u.values[w] - u.values[v]) * (ell / ln)
        if reach > sup_ell:
            sup_ell = reach
    inf_y = min(u.values[v] for v in region)
    n_out = len(outgoing)
    bound = (n_out / ell) * (sup_ell - inf_y) if n_out else 0 * ell
    return mass, bound


def measure_pairing(u: PLFunction, mu: GraphMeasure):
    """integral of u against an atomic graph measure."""
    return sum(w * u.values[v] for v, w in mu.atoms)


# -- (de)serialization --------------------------------------------------------

def graph_from_json(obj: dict) -> MetricGraph:
    try:
        labels = [point_from_json(v) if v else None for v in obj["vertices"]]
        edges = [(int(i), int(j), Fraction(ln)) for i, j, ln in obj["edges"]]
        return MetricGraph(labels=labels, edges=edges, boundary=[int(b) for b in obj.get("boundary", [])])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"bad graph JSON: {exc}") from exc
