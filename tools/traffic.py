"""Statements of src/virtlev that realistic traffic never executes.

Usage, from the repository root:

    PYTHONPATH=src python tools/traffic.py SEED [SEED ...]

Under the standard library's `sys.settrace`, in this one process, it runs:

- the golden CLI cases of tests/test_golden.py, with their `--out` files;
- each subcommand at its default size: every `kernel --d`, `jost`, every
  `sweep --op` (schrod1d with `--potential well:g=1`) in both norm flavors
  except the default l1_linf sweeps of schrod1d and rankone1d, which take
  about a minute each, `bifurcate`, `shift`, `embedded`, every
  `critical --case` and every `nullity --demo`;
- `acceptance.run_all()`, which is `virtlev suite`;
- the call and the check of every benchmark item of each seed, from
  bench/workloads.py and bench/items.py, which it imports and leaves as
  they are.

It then prints, per function of src/virtlev, the lines of the statements
that never ran, and `(never called)` where none of them ran.  A compound
statement counts as run when its header line ran; a `try` when any
statement inside it ran.  The output is a report for reading, not a test,
and the run takes tens of seconds.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import virtlev  # noqa: E402  (after the path set-up above)

PACKAGE = os.path.dirname(virtlev.__file__)
_HIT: set = set()  # (file name, line) of each line event in the package

# every subcommand at its default size; `suite` is acceptance.run_all()
DEFAULT_RUNS = [
    *(["kernel", "--d", d] for d in ("1", "2", "3")),
    ["jost"],
    *(["sweep", "--op", op, *extra, "--flavor", flavor]
      for op, extra in (("free1d", []), ("free2d", []), ("free3d", []),
                        ("schrod1d", ["--potential", "well:g=1"]), ("rankone1d", []))
      for flavor in ("weighted_l2", "l1_linf")
      if not (flavor == "l1_linf" and op in ("schrod1d", "rankone1d"))),
    ["bifurcate"],
    ["shift"],
    ["embedded"],
    *(["critical", "--case", case, *extra]
      for case, extra in (("free1d", []), ("free3d", []),
                          ("potential", ["--potential", "well:g=-1"]))),
    *(["nullity", "--demo", demo] for demo in ("jordan3", "zero2", "identity3")),
]


def _local(frame, event, arg):
    if event == "line":
        _HIT.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(PACKAGE) else None


def _functions(tree: ast.Module, stem: str) -> list:
    """(qualified name, statements) of each function of a module: every
    statement whose innermost enclosing function it is, docstrings left out."""
    out = []

    def visit(node, prefix, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if own is not None:
                    own.append(child)  # the def statement runs in the outer function
                name, inner = f"{prefix}.{child.name}", []
                out.append((name, inner))
                body = child.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]
                for stmt in body:
                    inner.append(stmt)
                    visit(stmt, name, inner)
            elif isinstance(child, ast.ClassDef):
                if own is not None:
                    own.append(child)
                visit(child, f"{prefix}.{child.name}", None)
            elif isinstance(child, ast.stmt):
                if own is not None:
                    own.append(child)
                visit(child, prefix, own)

    visit(tree, stem, None)
    return out


def _ran(stmt, path: str) -> bool:
    """Whether a statement ran: a line of its header (all of a simple
    statement), or for a `try`, any statement of its body."""
    if isinstance(stmt, ast.Try):
        return any(_ran(s, path) for s in stmt.body)
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
    return any((path, line) in _HIT for line in range(first, max(first, last) + 1))


def unexecuted() -> list:
    """`module.function: lines` for each function with a statement that never ran."""
    lines = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, stmts in _functions(tree, path.stem):
            missed = [s.lineno for s in stmts if not _ran(s, str(path))]
            if missed:
                note = " (never called)" if len(missed) == len(stmts) else ""
                lines.append(f"{name}: {', '.join(map(str, missed))}{note}")
    return lines


def _quietly(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def run_traffic(seeds: list) -> int:
    """Run the traffic under the tracer; the number of benchmark items that raised."""
    from virtlev import acceptance, cli

    spec = importlib.util.spec_from_file_location("golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    import items
    import workloads

    failures = 0
    sys.settrace(_global)
    try:
        for argv, _, _, out_digest in golden.CASES.values():
            _quietly(cli.main, [*argv, "--out", "out.csv"] if out_digest else list(argv))
        for argv in DEFAULT_RUNS:
            _quietly(cli.main, argv)
        _quietly(acceptance.run_all)
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                for item_spec in workloads.generate(workload, seed):
                    try:
                        item = items.build(item_spec)
                        item.check(_quietly(item.call, *item.prepare()))
                    except Exception:  # noqa: BLE001  (counted and reported)
                        failures += 1
    finally:
        sys.settrace(None)
    return failures


def main(argv: list) -> int:
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: python tools/traffic.py SEED [SEED ...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)  # the CLI's --out files land here
        try:
            failures = run_traffic([int(a) for a in argv])
        finally:
            os.chdir(here)
    print("\n".join(unexecuted()))
    if failures:
        print(f"# {failures} benchmark items raised", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
