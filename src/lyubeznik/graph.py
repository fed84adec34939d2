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


def _is_int(value) -> bool:
    # JSON true and false arrive as bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


class ComponentGraph(Value):
    """Named components with dimensions plus pairwise intersection dimensions.

    Intersections are index triples (i, j, dim); an absent pair means an
    empty intersection, which may also be recorded explicitly as dim -1.
    """

    __slots__ = fields = ("components", "intersections")

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
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "intersections", intersections)

    @classmethod
    def from_json_dict(cls, data) -> "ComponentGraph":
        """Build from the document shape
        ``{"components": [{"name", "dim"}], "intersections": [{"a", "b", "dim"}]}``.

        Components are referenced by name; names must be unique.  A pair
        with no record has empty intersection.
        """
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


def corner_from_graph(g: ComponentGraph) -> int:
    """Corner entry lambda_{r+1,r+1} from component-intersection data:
    the number of connected components of the graph on the components of
    maximal dimension r, joined when an intersection has dimension
    exactly r - 1.

    >>> corner_from_graph(ComponentGraph((("A", 2), ("B", 2)), ((0, 1, 1),)))
    1
    >>> corner_from_graph(ComponentGraph((("A", 2), ("B", 2)), ((0, 1, -1),)))
    2
    >>> corner_from_graph(ComponentGraph((("A", 2), ("B", 1)), ((0, 1, 1),)))
    1
    """
    if not g.components:
        raise GraphError("at least one component is required")
    r = max(dim for _, dim in g.components)
    # Union-find over the top-dimensional components, each pointing at
    # itself until it is joined to another.
    parent = {idx: idx for idx, (_, dim) in enumerate(g.components) if dim == r}

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for i, j, dim in g.intersections:
        if dim == r - 1 and i in parent and j in parent:
            parent[find(i)] = find(j)
    return sum(1 for idx in parent if parent[idx] == idx)
