"""Component graphs: validation, and the corner entry as the number of
connected components of the graph on top-dimensional components."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyubeznik import (
    ComponentGraph,
    DisjointUnion,
    GraphError,
    betti,
    corner_from_graph,
    dimension,
)
import corpus as corpus_module


def test_two_components_meeting_in_a_curve():
    g = ComponentGraph((("A", 2), ("B", 2)), ((0, 1, 1),))
    assert corner_from_graph(g) == 1


def test_two_components_meeting_in_a_point_stay_apart():
    g = ComponentGraph((("A", 2), ("B", 2)), ((0, 1, 0),))
    assert corner_from_graph(g) == 2


def test_lower_dimensional_components_are_dropped():
    g = ComponentGraph((("A", 2), ("B", 1)), ((0, 1, 1),))
    assert corner_from_graph(g) == 1
    # two surfaces both meeting the same curve in the curve stay apart
    g = ComponentGraph((("A", 2), ("B", 1), ("C", 2)), ((0, 1, 1), (1, 2, 1)))
    assert corner_from_graph(g) == 2


def test_empty_intersections_make_no_edges():
    g = ComponentGraph((("A", 3), ("B", 3)), ((0, 1, -1),))
    assert corner_from_graph(g) == 2


def test_path_of_three_components():
    g = ComponentGraph(
        (("A", 2), ("B", 2), ("C", 2)), ((0, 1, 1), (1, 2, 1)))
    assert corner_from_graph(g) == 1


def test_mixed_connectivity():
    g = ComponentGraph(
        (("A", 2), ("B", 2), ("C", 2), ("D", 2)), ((0, 1, 1), (2, 3, 0)))
    assert corner_from_graph(g) == 3


def test_empty_component_list_rejected():
    with pytest.raises(GraphError, match="at least one component is required"):
        corner_from_graph(ComponentGraph(()))


@pytest.mark.parametrize("components,intersections", [
    ((("A", 2),), ((0, 1, 1),)),            # index out of range
    ((("A", 2), ("B", 2)), ((0, 0, 1),)),   # self-intersection
    ((("A", 2), ("B", 1)), ((0, 1, 2),)),   # larger than the smaller piece
    ((("A", 2), ("B", 2)), ((0, 1, -2),)),  # below the empty marker
    ((("A", 2), ("B", 2)), ((0, 1, 1), (1, 0, 0))),  # duplicate unordered pair
    ((("A", -1),), ()),                     # negative component dimension
    (((3, 2),), ()),                        # non-string name
])
def test_invalid_graph_data_rejected(components, intersections):
    with pytest.raises(GraphError):
        ComponentGraph(components, intersections)


def test_intersection_dim_may_equal_smaller_component_dim():
    # a dim-1 intersection of a surface with a curve is the curve itself
    ComponentGraph((("A", 2), ("B", 1)), ((0, 1, 1),))


def test_from_json_dict():
    data = {
        "components": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "intersections": [{"a": "A", "b": "B", "dim": 1}],
    }
    g = ComponentGraph.from_json_dict(data)
    assert g.components == (("A", 2), ("B", 2))
    assert g.intersections == ((0, 1, 1),)
    assert corner_from_graph(g) == 1


def test_from_json_dict_defaults_to_no_intersections():
    g = ComponentGraph.from_json_dict(
        {"components": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}]})
    assert corner_from_graph(g) == 2


@pytest.mark.parametrize("data", [
    [],
    {},
    {"components": []},
    {"components": [{"name": "A"}]},
    {"components": [{"name": "A", "dim": 2}, {"name": "A", "dim": 2}]},
    {"components": [{"name": "A", "dim": 2}],
     "intersections": [{"a": "A", "b": "Z", "dim": 1}]},
    {"components": [{"name": "A", "dim": 2}], "intersections": [["A", "A", 1]]},
    {"components": [{"name": "A", "dim": 2}], "intersections": "nope"},
])
def test_from_json_dict_rejects_malformed_documents(data):
    with pytest.raises(GraphError):
        ComponentGraph.from_json_dict(data)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_count_is_invariant_under_relabeling(n, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = [f"V{i}" for i in range(n)]
    intersections = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                intersections.append((i, j, rng.choice((-1, 0, 1))))
    g = ComponentGraph(tuple((name, 2) for name in names), tuple(intersections))
    base = corner_from_graph(g)
    assert 1 <= base <= n

    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = ComponentGraph(
        tuple((names[perm[i]], 2) for i in range(n)),
        tuple((perm.index(i), perm.index(j), d) for i, j, d in intersections))
    assert corner_from_graph(relabeled) == base


def union_pieces(expr):
    """Leaves of the union tree: the connected pieces of the expression."""
    if isinstance(expr, DisjointUnion):
        return union_pieces(expr.left) + union_pieces(expr.right)
    return [expr]


def graph_of_disjoint_pieces(expr):
    pieces = union_pieces(expr)
    components = tuple((f"V{i}", dimension(p)) for i, p in enumerate(pieces))
    return ComponentGraph(components), len(pieces)


def test_union_corner_matches_piece_count():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(1, 6)
        pieces = [corpus_module.random_connected_expr(rng, dim)
                  for _ in range(rng.randint(1, 4))]
        expr = pieces[0]
        for piece in pieces[1:]:
            expr = DisjointUnion(expr, piece)
        graph, s = graph_of_disjoint_pieces(expr)
        assert s == len(pieces)
        assert corner_from_graph(graph) == s == betti(expr)[0]


def bfs_component_count(g):
    """Connected components of the graph on the top-dimensional components,
    counted by breadth-first search over an adjacency list."""
    r = max(dim for _, dim in g.components)
    top = [idx for idx, (_, dim) in enumerate(g.components) if dim == r]
    neighbours = {idx: [] for idx in top}
    for i, j, dim in g.intersections:
        if dim == r - 1 and i in neighbours and j in neighbours:
            neighbours[i].append(j)
            neighbours[j].append(i)
    seen = set()
    count = 0
    for start in top:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = [start]
        while queue:
            for nxt in neighbours[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


@st.composite
def component_graphs(draw):
    """Random valid graphs with top dimension r, some components of lower
    dimension, and intersections of dimension -1..min of the two ends, so
    that (r-1)-dimensional intersections also touch lower components."""
    r = draw(st.integers(min_value=1, max_value=4))
    dims = draw(st.lists(st.integers(min_value=0, max_value=r), min_size=1, max_size=12))
    if r not in dims:
        dims.append(r)
    n = len(dims)
    intersections = []
    for i in range(n):
        for j in range(i + 1, n):
            dim = draw(st.integers(min_value=-2, max_value=min(dims[i], dims[j])))
            if dim >= -1:  # -2: leave the pair unrecorded
                # weight towards r - 1, the only dimension that joins
                if dim >= 0 and draw(st.booleans()):
                    dim = min(r - 1, dims[i], dims[j])
                pair = (j, i) if draw(st.booleans()) else (i, j)
                intersections.append((*pair, dim))
    return ComponentGraph(tuple((f"V{i}", d) for i, d in enumerate(dims)),
                          tuple(intersections))


@settings(max_examples=300)
@given(component_graphs())
def test_corner_matches_breadth_first_count(g):
    assert corner_from_graph(g) == bfs_component_count(g)
