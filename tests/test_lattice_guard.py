"""The lattice -Lap_h + V lives in one place: `weighted_space`.

The first test walks `src/virtlev` with `ast` and finds every hand-written
second difference, an expression that subscripts along its last axis with
the three slices `2:`, `1:-1` and `:-2`.  There must be exactly one, in
`weighted_space.second_difference`.

The second finds every `isinstance` whose class argument names `Grid1D` or
`RadialGrid`.  Each grid type carries its boundary (`edges`, `interior`,
`doubled()`), so only `weighted_space` may branch on it; the one exception
is `free_resolvent.build_free_kernel_operator`, whose checks refuse a grid
of the wrong type for the dimension it is asked for.

The third finds every name `eigh_tridiagonal` or `dstebz`, imported or
used.  The lattice's eigen calls stay in `criticality`, in
`QuadraticForm`'s two solve methods and the count `_count_clears`, so
patching `criticality.eigh_tridiagonal` and `criticality.lapack` sees every
one of them (`tests/test_criticality.py`'s `solves` fixture).
"""

import ast
from pathlib import Path

import virtlev

_STENCIL = {(2, None), (1, -1), (None, -2)}
_GRID_TYPES = {"Grid1D", "RadialGrid"}


def _walk(node, prefix):
    """(qualified name of the enclosing function or class, node) for every
    node below `node`."""
    for child in ast.iter_child_nodes(node):
        yield prefix, child
        name = getattr(child, "name", None)
        inner = f"{prefix}.{name}" if isinstance(child, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else prefix
        yield from _walk(child, inner)


def _package():
    """(module stem, parsed tree) of every module of src/virtlev."""
    for path in sorted(Path(virtlev.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _last_axis_slice(sub: ast.Subscript):
    index = sub.slice.elts[-1] if isinstance(sub.slice, ast.Tuple) else sub.slice
    if not isinstance(index, ast.Slice) or index.step is not None:
        return None
    try:
        return tuple(None if b is None else ast.literal_eval(b)
                     for b in (index.lower, index.upper))
    except ValueError:  # a bound that is not a literal
        return None


def second_difference_sites(modules) -> list:
    """Where a second difference is written out, once per function."""
    sites = set()  # a stencil inside a larger sum matches once per enclosing BinOp
    for stem, tree in modules:
        for where, node in _walk(tree, stem):
            if isinstance(node, ast.BinOp) and _STENCIL <= {
                    _last_axis_slice(s) for s in ast.walk(node) if isinstance(s, ast.Subscript)}:
                sites.add(where)
    return sorted(sites)


def grid_type_checks(modules) -> list:
    """Where an isinstance names a grid type, once per call."""
    return sorted(where for stem, tree in modules for where, node in _walk(tree, stem)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None)
                  == "isinstance" and len(node.args) == 2
                  and {getattr(n, "id", getattr(n, "attr", None))
                       for n in ast.walk(node.args[1])} & _GRID_TYPES)


_EIGEN = {"eigh_tridiagonal", "dstebz"}


def eigen_call_sites(modules) -> list:
    """Where an eigen routine is named, once per function (a module-level
    import counts for the module)."""
    sites = set()
    for stem, tree in modules:
        for where, node in _walk(tree, stem):
            names = ({a.name for a in node.names} if isinstance(node, (ast.Import, ast.ImportFrom))
                     else {getattr(node, "id", getattr(node, "attr", None))})
            if names & _EIGEN:
                sites.add(where)
    return sorted(sites)


def test_one_second_difference_stencil():
    assert second_difference_sites(_package()) == ["weighted_space.second_difference"]


def test_only_weighted_space_branches_on_the_grid_type():
    outside = [w for w in grid_type_checks(_package()) if not w.startswith("weighted_space.")]
    assert outside == ["free_resolvent.build_free_kernel_operator"] * 2


def test_eigen_calls_stay_where_the_solve_fixture_sees_them():
    assert eigen_call_sites(_package()) == [
        "criticality", "criticality.QuadraticForm.smallest_eigenpair",
        "criticality.QuadraticForm.smallest_eigenvalue", "criticality._count_clears"]


def test_the_guards_see_what_they_forbid():
    source = """
def stencil(u, h):
    return -(u[2:] - 2 * u[1:-1] + u[:-2]) / h**2 + u[1:-1]

def stacked(t):
    return t[:, 2:] - 2 * t[:, 1:-1] + t[:, :-2]

def branch(g):
    return isinstance(g, (ws.RadialGrid, int)) or isinstance(g, Grid1D)

def fine(t, g):
    return t[:, 4:] - t[:, :-4] + t[1:-1], isinstance(g, float)

def solve(d, e):
    from scipy.linalg.lapack import dstebz
    return sl.eigh_tridiagonal(d, e), lapack.dstebz

def near_miss(d, e):
    return eigh(d, e), lapack.dstein
"""
    tree = [("m", ast.parse(source))]
    assert second_difference_sites(tree) == ["m.stacked", "m.stencil"]
    assert grid_type_checks(tree) == ["m.branch", "m.branch"]
    assert eigen_call_sites(tree) == ["m.solve"]
