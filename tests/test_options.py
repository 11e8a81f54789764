"""Every parameter default in the package is an option some caller sets, and
every public name is something the package itself runs.

The first test walks `src/virtlev` with `ast`, collects each function
parameter that has a default (methods, nested functions and lambdas
included), named `module.qualified_name.parameter`, and compares that set
with OPTIONS, which says who sets each one.  A new default fails here until
the ledger names its caller; a value that only one caller uses belongs in a
module constant, and so does one that only tests set: an entry whose
callers (split on `;`, a trailing parenthetical remark dropped) are all
`tests` fails too.

The second asks that no call in `src/virtlev` pass a literal equal to the
default of the parameter it fills: such a call hides what the caller
relies on and can make a default look set when nothing sets it.  Callees
resolve as loads do below, to a module-level function by its binding.

The third collects each public module-level function and class and each
public method of a public class, and asks that something in `src/virtlev`
outside its own definition use it.  A module-level name counts only where a
load resolves to its module: a bare name in that module, a name bound by
`from .<module> import <name>`, or `<alias>.<name>` where
`from . import <module> [as <alias>]` binds the alias; an attribute of
anything else (a dataclass field of the same name, say) does not.  A method
counts wherever its name is referenced, as a name or an attribute.  A name
only a caller outside the package reaches must be in CALLERS, which names
that caller; a helper only tests reach belongs in `tests/`.
"""

import ast
import re
from pathlib import Path

import virtlev

OPTIONS = {
    "acceptance.run_all.only": "cli suite --only; tests",
    "cli.main.argv": "tests and the benchmark; None reads sys.argv",
    "criticality.QuadraticForm.tridiagonal.extra_potential":
        "smallest_eigenpair, smallest_eigenvalue",
    "criticality.QuadraticForm.smallest_eigenpair.extra_potential": "_dichotomy_once",
    "criticality.QuadraticForm.smallest_eigenvalue.extra_potential":
        "_weighted_gap_search; tests",
    "criticality.QuadraticForm.smallest_eigenvalue.weight": "_critical_coupling; tests",
    "criticality.null_state_iteration.compact_radius": "cli critical --K",
    "criticality.null_state_iteration.j_max": "cli critical --jmax; tests",
    "criticality.null_state_iteration.conv_tol": "criterion 8; tests",
    "discrete_ops.sequence.n": "cli shift --n; tests",
    "discrete_ops.truncated_resolvent_matrix.n": "criterion 6; the benchmark; tests",
    "jost.Potential1D.square_well.half_width": "cli parse_potential (well:a=)",
    "jost.Potential1D.square_well.center": "cli parse_potential (well:center=); criterion 4",
    "jost.Potential1D.bump.amplitude": "cli parse_potential (bump:amp=); criterion 4",
    "jost.Potential1D.bump.half_width": "cli parse_potential (bump:a=)",
    "jost.Potential1D.bump.center": "cli parse_potential (bump:center=)",
    "jost.classify_threshold_1d.tol": "cli jost --tol; tests",
    "lap_sweep.default_radii.r0": "cli sweep --r0",
    "lap_sweep.default_radii.ratio": "cli sweep --ratio",
    "lap_sweep.default_radii.count": "cli sweep --count",
    "lap_sweep._SolverEngine.solve.trans": "rmatvec (trans='C')",
    "lap_sweep.classify.refine": "the benchmark; tests",
    "perturbation.embedded_family_check.n": "cli embedded --count",
    "perturbation.matrix_nullity_by_perturbation.trials": "cli nullity --trials; criterion 9",
    "perturbation.matrix_nullity_by_perturbation.rng_seed": "cli nullity --seed; criterion 9",
    "weighted_space.first_order_recursion.backward":
        "SemiseparableKernel.matvec, discrete_ops._geometric_sum",
    "weighted_space.first_order_recursion.overwrite": "SemiseparableKernel.matvec",
    "weighted_space._power_iteration_norm.v0": "lap_sweep.sweep (warm start)",
}

CALLERS = {
    "free_resolvent.radial_reduced_kernel_2d": "the benchmark",
    "jost.green_kernel": "tests and library callers; every Regular jost verdict admits it",
    "jost.wronskian": "tests; the drift guard ROADMAP item 3 wires in",
    "lap_sweep.discrete_hamiltonian": "the benchmark",
    "lap_sweep.resolvent_matrix": "the benchmark",
}


def _modules():
    for path in sorted(Path(virtlev.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _collect(node, prefix: str, out: set) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            out.update(f"{name}.{a.arg}" for a in defaulted)
            _collect(child, name, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}.{child.name}", out)
        else:
            _collect(child, prefix, out)


def defaulted_parameters() -> set:
    out = set()
    for stem, tree in _modules():
        _collect(tree, stem, out)
    return out


def options_only_tests_set(options: dict) -> list:
    """The entries of `options` whose callers, split on `;` and read without
    a trailing parenthetical remark, are only tests."""
    return sorted(key for key, callers in options.items()
                  if {re.sub(r"\s*\(.*\)$", "", c.strip()) for c in callers.split(";")}
                  == {"tests"})


def test_every_parameter_default_is_in_the_ledger():
    found = defaulted_parameters()
    assert sorted(found - OPTIONS.keys()) == [], "defaults missing from OPTIONS"
    assert sorted(OPTIONS.keys() - found) == [], "OPTIONS names defaults that are gone"
    assert options_only_tests_set(OPTIONS) == [], "options only tests set belong in constants"


def _public_definitions(stem: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if (isinstance(child, ast.FunctionDef)
                            and not child.name.startswith("_")):
                        yield f"{stem}.{node.name}.{child.name}", child


def _module_loads(stem: str, tree: ast.Module, out: dict) -> None:
    """Add to out[(module, name)] the ids of the loads in `tree` (module
    `stem`) that resolve to that module's top-level `name`."""
    names = {}    # local name -> (module, name), from `from .<module> import`
    modules = {}  # local alias -> module, from `from . import <module>`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            target = names.get(node.id, (stem, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            target = (modules[node.value.id], node.attr)
        else:
            continue
        out.setdefault(target, set()).add(id(node))


def uncalled_public_names() -> set:
    trees = dict(_modules())
    by_name = {}  # name -> ids of the Name/Attribute nodes that use it (methods)
    by_binding = {}  # (module, name) -> ids of the loads that resolve to it
    for stem, tree in trees.items():
        _module_loads(stem, tree, by_binding)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                by_name.setdefault(name, set()).add(id(node))
    out = set()
    for stem, tree in trees.items():
        for qualified, node in _public_definitions(stem, tree):
            own = {id(n) for n in ast.walk(node)}
            top_level = qualified == f"{stem}.{node.name}"
            used = by_binding.get((stem, node.name)) if top_level else by_name.get(node.name)
            if not (used or set()) - own:
                out.add(qualified)
    return out


def _literal(node):
    """(True, value) for a literal expression, (False, None) otherwise."""
    try:
        return True, ast.literal_eval(node)
    except ValueError:
        return False, None


def literal_default_calls(trees: dict) -> list:
    """`module.py:line callee parameter=value` for each call in `trees`
    ({module: ast}) that passes a literal equal to a module-level callee's
    default; True and 1 count as different values."""
    defaults = {}  # (module, function) -> {parameter: (position or None, default)}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):],
                                 args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                defaults[(stem, node.name)] = {
                    a.arg: (positional.index(a) if a in positional else None, d)
                    for a, d in pairs}
    by_binding = {}
    for stem, tree in trees.items():
        _module_loads(stem, tree, by_binding)
    callee = {node_id: target for target, ids in by_binding.items() for node_id in ids}
    found = []
    for stem, tree in trees.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call.func) not in callee:
                continue
            target = callee[id(call.func)]
            for param, (position, default) in defaults.get(target, {}).items():
                passed = [k.value for k in call.keywords if k.arg == param]
                if position is not None and position < len(call.args):
                    passed.append(call.args[position])
                for node in passed:
                    (ok, value), (_, want) = _literal(node), _literal(default)
                    if ok and value == want and type(value) is type(want):
                        found.append(f"{stem}.py:{call.lineno} {target[1]} {param}={value!r}")
    return sorted(found)


def test_no_call_passes_a_default_as_a_literal():
    assert literal_default_calls(dict(_modules())) == []


def test_literal_default_calls_resolves_callees():
    trees = {
        "a": ast.parse("def f(x, n=8, *, t=-1.0, s='N'):\n    pass\n"
                       "def g(n=8):\n    f(1, 8)\n    f(1, n=9, t=-1.0)\n    f(1, 8.0)\n"),
        "b": ast.parse("from .a import f\nfrom . import a as m\n"
                       "f(0, s='N')\nm.f(0, n=8)\nm.g(8)\nobj.f(0, 8)\n"),
    }
    assert literal_default_calls(trees) == [
        "a.py:4 f n=8", "a.py:5 f t=-1.0", "b.py:3 f s='N'", "b.py:4 f n=8", "b.py:5 g n=8"]


def test_every_public_name_has_a_caller_outside_tests():
    found = uncalled_public_names()
    assert sorted(found - CALLERS.keys()) == [], "public names nothing in src/ uses"
    assert sorted(CALLERS.keys() - found) == [], "CALLERS names that src/ now uses"


def test_options_only_tests_set_reads_every_caller():
    options = {"a": "tests", "b": "cli sweep --r0; tests", "c": "tests ; tests",
               "d": "tests (criterion 8 takes 320)"}
    assert options_only_tests_set(options) == ["a", "c", "d"]
