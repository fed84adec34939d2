"""Intersection graphs of top-dimensional components.

Component and intersection data arrive from a JSON document; only the
combinatorics lives here.  The induced graph on components of maximal
dimension r has an edge exactly where a recorded intersection has
dimension r - 1, and its number of connected components is the corner
entry of the Lyubeznik table.
"""

from .variety import Value


class GraphError(ValueError):
    """Component or intersection data violates the schema."""


class ComponentGraph(Value):
    """Named components with dimensions plus pairwise intersection dimensions.

    Components are at least one (name, dim) pair with unique string names
    and intersections are (name_a, name_b, dim) triples; an absent pair
    means an empty intersection, which may also be recorded explicitly as
    dim -1.  Dimensions are plain ``int``s, so JSON true and false are
    refused.  The constructor checks every value, in order.
    """

    __slots__ = fields = ("components", "intersections")

    def __init__(self, components, intersections=()):
        dims = {}
        for name, dim in components:
            if not isinstance(name, str):
                raise GraphError(f"component name must be a string, got {name!r}")
            if name in dims:
                raise GraphError(f"duplicate component name {name!r}")
            if type(dim) is not int or dim < 0:
                raise GraphError(
                    f"component dimension must be a nonnegative integer, got {dim!r}")
            dims[name] = dim
        if not dims:
            raise GraphError("at least one component is required")
        records = []
        seen = set()
        for a, b, dim in intersections:
            for end in (a, b):
                if not isinstance(end, str) or end not in dims:
                    raise GraphError(f"unknown component {end!r} in intersection record")
            if a == b:
                raise GraphError(f"component {a!r} cannot intersect itself")
            if type(dim) is not int or dim < -1:
                raise GraphError(
                    f"intersection dimension must be an integer >= -1, got {dim!r}")
            if dim > min(dims[a], dims[b]):
                raise GraphError(
                    f"intersection of {a!r} and {b!r} cannot exceed either dimension")
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                raise GraphError(f"duplicate intersection record for pair {pair}")
            seen.add(pair)
            records.append((a, b, dim))
        _set_components(self, tuple(dims.items()))
        _set_intersections(self, tuple(records))

    @classmethod
    def from_json_dict(cls, data) -> "ComponentGraph":
        """Build from the document shape
        ``{"components": [{"name", "dim"}], "intersections": [{"a", "b", "dim"}]}``.

        Only the shape is checked here; the constructor checks the values.
        A pair with no record has empty intersection.
        """
        if not isinstance(data, dict):
            raise GraphError("top-level JSON value must be an object")
        comp_items = data.get("components")
        if not isinstance(comp_items, list) or not comp_items:
            raise GraphError("'components' must be a nonempty list")
        for item in comp_items:
            if not isinstance(item, dict) or "name" not in item or "dim" not in item:
                raise GraphError(f"component records need 'name' and 'dim': {item!r}")
        inter_items = data.get("intersections", [])
        if not isinstance(inter_items, list):
            raise GraphError("'intersections' must be a list")
        for item in inter_items:
            if not isinstance(item, dict) or not {"a", "b", "dim"} <= item.keys():
                raise GraphError(
                    f"intersection records need 'a', 'b' and 'dim': {item!r}")
        return cls([(item["name"], item["dim"]) for item in comp_items],
                   [(item["a"], item["b"], item["dim"]) for item in inter_items])


_set_components = ComponentGraph.components.__set__
_set_intersections = ComponentGraph.intersections.__set__


def corner_from_graph(g: ComponentGraph) -> int:
    """Corner entry lambda_{r+1,r+1} from component-intersection data:
    the number of connected components of the graph on the components of
    maximal dimension r, joined when an intersection has dimension
    exactly r - 1.

    >>> corner_from_graph(ComponentGraph((("A", 2), ("B", 2)), (("A", "B", 1),)))
    1
    >>> corner_from_graph(ComponentGraph((("A", 2), ("B", 2)), (("A", "B", -1),)))
    2
    >>> corner_from_graph(ComponentGraph((("A", 2), ("B", 1)), (("A", "B", 1),)))
    1
    >>> corner_from_graph(ComponentGraph((("P", 0), ("Q", 0))))
    1
    """
    r = max(dim for _, dim in g.components)
    if r == 0:
        # Any two points meet in the empty set, of dimension r - 1 = -1,
        # whether or not the pair is recorded: all of them are joined.
        return 1
    # Union-find over the names of the top-dimensional components, each
    # pointing at itself until it is joined to another.
    parent = {name: name for name, dim in g.components if dim == r}

    def find(a: str) -> str:
        # Path halving: each step points a at its grandparent and moves there.
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for a, b, dim in g.intersections:
        if dim == r - 1 and a in parent and b in parent:
            parent[find(a)] = find(b)
    return sum(1 for name in parent if parent[name] == name)
