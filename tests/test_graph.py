"""Component graphs: validation, and the corner entry as the number of
connected components of the graph on top-dimensional components."""

import random
import re

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
    g = ComponentGraph((("A", 2), ("B", 2)), (("A", "B", 1),))
    assert corner_from_graph(g) == 1


def test_two_components_meeting_in_a_point_stay_apart():
    g = ComponentGraph((("A", 2), ("B", 2)), (("A", "B", 0),))
    assert corner_from_graph(g) == 2


def test_lower_dimensional_components_are_dropped():
    g = ComponentGraph((("A", 2), ("B", 1)), (("A", "B", 1),))
    assert corner_from_graph(g) == 1
    # two surfaces both meeting the same curve in the curve stay apart
    g = ComponentGraph((("A", 2), ("B", 1), ("C", 2)), (("A", "B", 1), ("B", "C", 1)))
    assert corner_from_graph(g) == 2


def test_empty_intersections_make_no_edges():
    g = ComponentGraph((("A", 3), ("B", 3)), (("A", "B", -1),))
    assert corner_from_graph(g) == 2


def test_path_of_three_components():
    g = ComponentGraph(
        (("A", 2), ("B", 2), ("C", 2)), (("A", "B", 1), ("B", "C", 1)))
    assert corner_from_graph(g) == 1


def test_mixed_connectivity():
    g = ComponentGraph(
        (("A", 2), ("B", 2), ("C", 2), ("D", 2)), (("A", "B", 1), ("C", "D", 0)))
    assert corner_from_graph(g) == 3


def test_empty_component_list_rejected():
    with pytest.raises(GraphError, match="at least one component is required"):
        corner_from_graph(ComponentGraph(()))


@pytest.mark.parametrize("components,intersections", [
    ((("A", 2),), (("A", "Z", 1),)),                  # unknown component
    ((("A", 2), ("B", 2)), (("A", "A", 1),)),         # self-intersection
    ((("A", 2), ("B", 1)), (("A", "B", 2),)),         # larger than the smaller piece
    ((("A", 2), ("B", 2)), (("A", "B", -2),)),        # below the empty marker
    ((("A", 2), ("B", 2)), (("A", "B", 1), ("B", "A", 0))),  # duplicate unordered pair
    ((("A", -1),), ()),                               # negative component dimension
    (((3, 2),), ()),                                  # non-string name
    ((("A", 2), ("A", 1)), ()),                       # duplicate name
])
def test_invalid_graph_data_rejected(components, intersections):
    with pytest.raises(GraphError):
        ComponentGraph(components, intersections)


def test_intersection_dim_may_equal_smaller_component_dim():
    # a dim-1 intersection of a surface with a curve is the curve itself
    ComponentGraph((("A", 2), ("B", 1)), (("A", "B", 1),))


def test_from_json_dict():
    data = {
        "components": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "intersections": [{"a": "A", "b": "B", "dim": 1}],
    }
    g = ComponentGraph.from_json_dict(data)
    assert g.components == (("A", 2), ("B", 2))
    assert g.intersections == (("A", "B", 1),)
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


def test_shape_faults_come_before_value_faults():
    # a bad value in the first record, a bad shape in the last
    data = {"components": [{"name": 3, "dim": 2}, {"name": "B"}]}
    with pytest.raises(GraphError, match="component records need"):
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
                intersections.append((names[i], names[j], rng.choice((-1, 0, 1))))
    g = ComponentGraph(tuple((name, 2) for name in names), tuple(intersections))
    base = corner_from_graph(g)
    assert 1 <= base <= n

    # rename every component, list them in another order and swap the ends
    # of some records
    renamed = dict(zip(names, rng.sample(names, n)))
    order = rng.sample(names, n)
    relabeled = ComponentGraph(
        tuple((renamed[name], 2) for name in order),
        tuple((renamed[b], renamed[a], d) if rng.random() < 0.5
              else (renamed[a], renamed[b], d) for a, b, d in intersections))
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
    counted by breadth-first search over an adjacency list.  With r = 0
    every pair of points meets in dimension r - 1, so all are joined."""
    r = max(dim for _, dim in g.components)
    top = [name for name, dim in g.components if dim == r]
    neighbours = {name: [] for name in top}
    if r == 0:
        for name in top:
            neighbours[name] = [other for other in top if other != name]
    for a, b, dim in g.intersections:
        if dim == r - 1 and a in neighbours and b in neighbours:
            neighbours[a].append(b)
            neighbours[b].append(a)
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
    """Random valid graphs with top dimension r >= 0, some components of
    lower dimension, and intersections of dimension -1..min of the two
    ends, so that (r-1)-dimensional intersections also touch lower
    components."""
    r = draw(st.integers(min_value=0, max_value=4))
    dims = draw(st.lists(st.integers(min_value=0, max_value=r), min_size=1, max_size=12))
    if r not in dims:
        dims.append(r)
    n = len(dims)
    names = [f"V{i}" for i in range(n)]
    intersections = []
    for i in range(n):
        for j in range(i + 1, n):
            dim = draw(st.integers(min_value=-2, max_value=min(dims[i], dims[j])))
            if dim >= -1:  # -2: leave the pair unrecorded
                # weight towards r - 1, the only dimension that joins
                if dim >= 0 and draw(st.booleans()):
                    dim = min(r - 1, dims[i], dims[j])
                pair = (names[j], names[i]) if draw(st.booleans()) else (names[i], names[j])
                intersections.append((*pair, dim))
    return ComponentGraph(tuple(zip(names, dims)), tuple(intersections))


@settings(max_examples=300)
@given(component_graphs())
def test_corner_matches_breadth_first_count(g):
    assert corner_from_graph(g) == bfs_component_count(g)


# --- the index-keyed reference ---------------------------------------------------

def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class IndexGraph:
    """The earlier index-keyed form, kept as the reference for the
    name-keyed ComponentGraph: ``from_json_dict`` turns names into list
    indices and checks names, uniqueness and endpoints, then the
    constructor checks the dimensions and the index triples."""

    def __init__(self, components, intersections=()):
        components = tuple(tuple(c) for c in components)
        intersections = tuple(tuple(x) for x in intersections)
        for name, dim in components:
            if not isinstance(name, str):
                raise GraphError(f"component name must be a string, got {name!r}")
            if not _is_int(dim) or dim < 0:
                raise GraphError(
                    f"component dimension must be a nonnegative integer, got {dim!r}")
        n = len(components)
        seen = set()
        for i, j, dim in intersections:
            if not (_is_int(i) and _is_int(j)):
                raise GraphError(f"intersection indices must be integers: ({i!r}, {j!r})")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"intersection indices out of range: ({i}, {j})")
            if i == j:
                raise GraphError(
                    f"component {components[i][0]!r} cannot intersect itself")
            if not _is_int(dim) or dim < -1:
                raise GraphError(
                    f"intersection dimension must be an integer >= -1, got {dim!r}")
            if dim > min(components[i][1], components[j][1]):
                raise GraphError(
                    f"intersection of {components[i][0]!r} and "
                    f"{components[j][0]!r} cannot exceed either dimension")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"duplicate intersection record for pair {key}")
            seen.add(key)
        self.components = components
        self.intersections = intersections

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise GraphError("top-level JSON value must be an object")
        comp_items = data.get("components")
        if not isinstance(comp_items, list) or not comp_items:
            raise GraphError("'components' must be a nonempty list")
        index_of = {}
        components = []
        for item in comp_items:
            if not isinstance(item, dict) or "name" not in item or "dim" not in item:
                raise GraphError(f"component records need 'name' and 'dim': {item!r}")
            name = item["name"]
            if not isinstance(name, str):
                raise GraphError(f"component name must be a string, got {name!r}")
            if name in index_of:
                raise GraphError(f"duplicate component name {name!r}")
            index_of[name] = len(components)
            components.append((name, item["dim"]))
        inter_items = data.get("intersections", [])
        if not isinstance(inter_items, list):
            raise GraphError("'intersections' must be a list")
        intersections = []
        for item in inter_items:
            if not isinstance(item, dict) or not {"a", "b", "dim"} <= item.keys():
                raise GraphError(
                    f"intersection records need 'a', 'b' and 'dim': {item!r}")
            for end in ("a", "b"):
                if not isinstance(item[end], str) or item[end] not in index_of:
                    raise GraphError(
                        f"unknown component {item[end]!r} in intersection record")
            intersections.append((index_of[item["a"]], index_of[item["b"]], item["dim"]))
        return cls(tuple(components), tuple(intersections))


def index_corner(g):
    """The union-find corner over component indices."""
    r = max(dim for _, dim in g.components)
    parent = {idx: idx for idx, (_, dim) in enumerate(g.components) if dim == r}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j, dim in g.intersections:
        if dim == r - 1 and i in parent and j in parent:
            parent[find(i)] = find(j)
    return sum(1 for idx in parent if parent[idx] == idx)


_NOT_A_NAME = st.one_of(st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=2))
_BAD_COMPONENT_DIMS = st.sampled_from([-1, -5, True, False, 1.0, "1", None, [1]])
_BAD_INTERSECTION_DIMS = st.sampled_from([-2, -9, True, False, 0.5, "0", None, {}])


def _inject_fault(draw, data, fault):
    """Apply one fault of kind ``fault`` to the valid document ``data``."""
    comps, inters = data["components"], data["intersections"]
    names = [c["name"] for c in comps]
    if fault == "top-level":
        return draw(st.sampled_from([comps, "x", 3, None]))
    if fault == "components-missing":
        del data["components"]
    elif fault == "components-empty":
        data["components"] = []
    elif fault == "components-not-list":
        data["components"] = draw(st.sampled_from([comps[0], "A", 2, None]))
    elif fault == "intersections-not-list":
        data["intersections"] = draw(st.sampled_from([{}, "nope", 0, None]))
    elif fault.startswith("component-"):
        k = draw(st.integers(0, len(comps) - 1))
        if fault == "component-not-object":
            comps[k] = [comps[k]["name"], comps[k]["dim"]]
        elif fault == "component-without-key":
            del comps[k][draw(st.sampled_from(["name", "dim"]))]
        elif fault == "component-name":
            comps[k]["name"] = draw(_NOT_A_NAME)
        elif fault == "component-dim":
            comps[k]["dim"] = draw(_BAD_COMPONENT_DIMS)
        elif fault == "component-duplicate-name" and len(comps) > 1:
            comps[k]["name"] = names[k - 1]
    elif fault.startswith("intersection-") and inters:
        k = draw(st.integers(0, len(inters) - 1))
        record = inters[k]
        if fault == "intersection-not-object":
            inters[k] = [record["a"], record["b"], record["dim"]]
        elif fault == "intersection-without-key":
            del record[draw(st.sampled_from(["a", "b", "dim"]))]
        elif fault == "intersection-unknown-end":
            record[draw(st.sampled_from(["a", "b"]))] = draw(
                _NOT_A_NAME | st.text(max_size=3).filter(lambda s: s not in names))
        elif fault == "intersection-self":
            record["b"] = record["a"]
        elif fault == "intersection-dim":
            record["dim"] = draw(_BAD_INTERSECTION_DIMS)
        elif fault == "intersection-dim-too-large":
            dims = {c["name"]: c["dim"] for c in comps}
            record["dim"] = min(dims[record["a"]], dims[record["b"]]) + draw(st.integers(1, 3))
        elif fault == "intersection-duplicate-pair":
            a, b = (record["b"], record["a"]) if draw(st.booleans()) else (record["a"], record["b"])
            inters.insert(draw(st.integers(0, len(inters))),
                          {"a": a, "b": b, "dim": record["dim"]})
    return data


_FAULTS = ["none", "top-level", "components-missing", "components-empty",
           "components-not-list", "intersections-not-list",
           "component-not-object", "component-without-key", "component-name",
           "component-dim", "component-duplicate-name",
           "intersection-not-object", "intersection-without-key",
           "intersection-unknown-end", "intersection-self", "intersection-dim",
           "intersection-dim-too-large", "intersection-duplicate-pair"]


@st.composite
def graph_documents(draw):
    """A component document with at most one fault: unique text names, top
    dimension 0..3, records with either end first, in any order."""
    r = draw(st.integers(0, 3))
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=7,
                          unique=True))
    dims = [r] + [draw(st.integers(0, r)) for _ in names[1:]]
    dims = draw(st.permutations(dims))
    inters = []
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            if draw(st.booleans()):
                b = names[j]
                dim = draw(st.integers(-1, min(dims[i], dims[j])))
                inters.append({"a": b, "b": a, "dim": dim} if draw(st.booleans())
                              else {"a": a, "b": b, "dim": dim})
    inters = draw(st.permutations(inters))
    data = {"components": [{"name": n, "dim": d} for n, d in zip(names, dims)],
            "intersections": list(inters)}
    data = _inject_fault(draw, data, draw(st.sampled_from(_FAULTS)))
    if isinstance(data, dict) and data.get("intersections") == [] and draw(st.booleans()):
        del data["intersections"]
    return data


def _load(graph_class, data):
    try:
        return graph_class.from_json_dict(data)
    except GraphError as exc:
        return str(exc)


@settings(max_examples=500)
@given(graph_documents())
def test_name_keyed_graph_matches_index_reference(data):
    reference = _load(IndexGraph, data)
    graph = _load(ComponentGraph, data)
    if isinstance(reference, str):
        # The duplicate-pair message now names the two components.
        pair = re.fullmatch(r"duplicate intersection record for pair \((\d+), (\d+)\)",
                            reference)
        if pair:
            names = tuple(sorted(data["components"][int(i)]["name"] for i in pair.groups()))
            reference = f"duplicate intersection record for pair {names}"
        assert graph == reference
        return
    assert graph.components == reference.components
    names = [name for name, _ in reference.components]
    assert graph.intersections == tuple(
        (names[i], names[j], dim) for i, j, dim in reference.intersections)
    if max(dim for _, dim in graph.components) >= 1:
        assert corner_from_graph(graph) == index_corner(reference)
    else:
        assert corner_from_graph(graph) == 1
