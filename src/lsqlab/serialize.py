"""JSON interchange formats for graphs, path systems, instances and
groups.

Graph files: {"n": int, "edges": [[u, v], ...]} with 1-indexed vertices
and edges sorted with u < v.  Path-system files list all n^2 ordered
pairs sorted by (u, v).  Instance files reference their graph and path
files by paths relative to the instance file rather than inlining them.
Group files: {"table": [[...], ...], "generators": [...]}, both required:
a group file is read only to build its Cayley graph.
Files of the wrong shape raise a ValueError that names the field.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graphs import Graph, TableGroup, from_edges
from .pathsystems import PathSystem, PathTable


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in sorted(g.edges)]}


def _field(data, name: str, where: str):
    """data[name] of a JSON object; a ValueError names what is missing."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object")
    if name not in data:
        raise ValueError(f"{where} has no {name!r} field")
    return data[name]


def _int(value, name: str) -> int:
    """A JSON integer: no float, string or boolean is coerced to one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list")
    return value


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def _ints(value, name: str, length: int | None = None) -> tuple:
    """A nonempty list of integers, of the given length if one is given."""
    ints = tuple(_int(x, name) for x in _list(value, name))
    if not ints or length not in (None, len(ints)):
        need = f"{length} integers" if length else "at least one integer"
        raise ValueError(f"{name} must hold {need}")
    return ints


def graph_from_dict(data: dict) -> Graph:
    n = _int(_field(data, "n", "graph"), "n")
    edges = _list(_field(data, "edges", "graph"), "edges")
    return from_edges(n, [_ints(e, f"edges[{i}]", 2) for i, e in enumerate(edges)])


def path_system_to_dict(ps: PathSystem) -> dict:
    rows = [{"u": u, "v": v, "p": list(p)}
            for (u, v), p in sorted(ps.table().items())]
    return {"n": ps.n, "paths": rows}


def path_system_from_dict(data: dict) -> PathTable:
    n = _int(_field(data, "n", "path system"), "n")
    paths = {}
    for i, row in enumerate(_list(_field(data, "paths", "path system"), "paths")):
        where = f"paths[{i}]"
        u = _int(_field(row, "u", where), f"{where}.u")
        v = _int(_field(row, "v", where), f"{where}.v")
        paths[(u, v)] = _ints(_field(row, "p", where), f"{where}.p")
    return PathTable(n, paths)


def instance_to_dict(graph_path: str, paths_path: str, milestones, bit: int,
                     values=None, flags=None) -> dict:
    """An instance file; values and flags, when given, are the lists for
    vertices 1..n in order, written as given."""
    data = {
        "graph": str(graph_path),
        "paths": str(paths_path),
        "milestones": [int(v) for v in milestones],
        "bit": int(bit),
    }
    if values is not None:
        data["values"] = list(values)
        data["flags"] = list(flags)
    return data


def instance_from_dict(data: dict) -> tuple:
    """(graph file, path-system file, milestones, bit) of an instance file;
    the files as written, relative to the instance file."""
    return (_str(_field(data, "graph", "instance"), "graph"),
            _str(_field(data, "paths", "instance"), "paths"),
            _ints(_field(data, "milestones", "instance"), "milestones"),
            _int(_field(data, "bit", "instance"), "bit"))


def group_from_dict(data: dict) -> tuple:
    """(TableGroup, generators) of a group file."""
    table = _list(_field(data, "table", "group"), "table")
    generators = _ints(_field(data, "generators", "group"), "generators")
    return (TableGroup(tuple(_ints(row, f"table[{i}]")
                            for i, row in enumerate(table))), generators)


def load_json(path):
    return json.loads(Path(path).read_text())


def load_graph(path) -> Graph:
    return graph_from_dict(load_json(path))


def load_path_system(path) -> PathTable:
    return path_system_from_dict(load_json(path))


def load_group(path) -> tuple:
    return group_from_dict(load_json(path))
