"""Calls and output checks of the benchmark's item families.

`build(spec)` turns a spec from `workloads.generate` into an `Item`: the call
that is timed, an optional untimed preparation of its arguments (made again
before every call and released after it), and the check of its output.
Checks and oracles (closed forms, mpmath, scipy quadrature, one-shot
eigenvalues) run outside item timing; oracle values are cached per item, so
later passes only compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from virtlev import cli
from virtlev import discrete_ops as do
from virtlev import free_resolvent as fr
from virtlev import lap_sweep as ls
from virtlev import weighted_space as ws
from virtlev.jost import Potential1D
from virtlev.weighted_space import Grid1D, RadialGrid

from workloads import FAMILIES


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass
class Item:
    family: str
    label: str
    call: Callable[..., Any]
    check: Callable[[Any], list]
    prepare: Callable[[], tuple] = tuple
    known_defect: bool = False
    cache: dict = field(default_factory=dict)

    def captured(self, output) -> str | None:
        """Captured stdout and CSV of a CLI item (digest and determinism)."""
        return output.stdout if isinstance(output, CliOutput) else None


def run_cli(argv: list) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliOutput(code, out.getvalue(), err.getvalue())


def build(spec: dict) -> Item:
    family = spec["family"]
    item = Item(family, _label(spec), None, None,
                known_defect=FAMILIES[family].known_defect)
    FAMILY_ITEMS[family](item, spec)
    return item


def _label(spec: dict) -> str:
    if "argv" in spec:
        return "virtlev " + " ".join(spec["argv"])
    args = {k: v for k, v in spec.items()
            if k not in ("family", "call", "r", "rho")}
    return f"{spec['call']}({json.dumps(args, sort_keys=True)})"


# ---------------------------------------------------------------------------
# shared parsing and comparison helpers


def _cli_item(item: Item, spec: dict, check_payload: Callable[[Item, CliOutput], list]):
    argv = spec["argv"]
    item.call = lambda: run_cli(argv)

    def check(out: CliOutput) -> list:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()[:200]}"]
        return check_payload(item, out)

    item.check = check


def _sweep_rows(out: CliOutput):
    """(CSV rows, lines after the CSV) of `virtlev sweep` stdout."""
    rows, tail = [], []
    for line in out.stdout.splitlines():
        if line.startswith("# ") or line == "radius,norm,z_re,z_im":
            continue
        if line.count(",") == 3:
            rows.append([float(t) for t in line.split(",")])
        else:
            tail.append(line)
    return np.array(rows), tail


def _slope(rows: np.ndarray) -> float:
    return float(np.polyfit(-np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0])


def _verdict(tail: list, want: str | None) -> list:
    got = tail[-1] if tail else None
    if want is None:
        return [] if not tail else [f"unexpected output {tail!r}"]
    if got is None or not got.startswith(want):
        return [f"verdict {got!r}, expected {want}"]
    return []


def _sweep_check(want: str | None, extra, argv: list):
    count = int(argv[argv.index("--count") + 1]) if "--count" in argv else 9

    def check_payload(item: Item, out: CliOutput) -> list:
        rows, tail = _sweep_rows(out)
        problems = _verdict(tail, want)
        if rows.shape[0] != count:
            return problems + [f"{rows.shape[0]} sweep rows, expected {count}"]
        if not np.all(np.isfinite(rows[:, 1])) or np.any(rows[:, 1] <= 0):
            problems.append("non-positive or non-finite norm")
        elif extra is not None:
            problems += extra(rows)
        return problems

    return check_payload


def _rel_err(got, ref) -> float:
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _within(name: str, err: float, tol: float) -> list:
    return [] if err <= tol else [f"{name} error {err:.3g} > {tol:.0e}"]


# ---------------------------------------------------------------------------
# sweep_banded


def _sweep_family(want: str | None, extra=None):
    def setup(item: Item, spec: dict):
        _cli_item(item, spec, _sweep_check(want, extra, spec["argv"]))

    return setup


def _alpha_window(lo: float, hi: float):
    def extra(rows):
        a = _slope(rows)
        return [] if lo <= a <= hi else [f"fitted alpha {a:.4f} outside [{lo}, {hi}]"]

    return extra


def _monotone_bounded(rows):
    norms = rows[:, 1]
    if np.all(np.diff(norms) > 0) and norms.max() < 10.0:
        return []
    return ["norms not monotone increasing below 10"]


def _flat(rows):
    norms = rows[:, 1]
    spread = (norms.max() - norms.min()) / norms.min()
    return [] if spread < 0.01 else [f"norm spread {spread:.3g} >= 1%"]


def _embedded(item: Item, spec: dict):
    def payload(item, out):
        line = out.stdout.strip()
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        problems = []
        if float(fields.get("residual_max", "inf")) > 1e-6:
            problems.append(f"residual {fields.get('residual_max')} > 1e-6")
        if fields.get("monotone_growth") != "True":
            problems.append("no monotone growth toward the limit point")
        return problems

    _cli_item(item, spec, payload)


# ---------------------------------------------------------------------------
# dense_kernels


def _free2d_classify(item: Item, spec: dict):
    radius, n = spec["grid"]
    op = ls.OperatorSpec.free2d_radial(RadialGrid(radius, n))
    radii = tuple(spec["r0"] * 10 ** (-0.5 * k) for k in range(spec["count"]))
    cfg = ls.SweepConfig(z0=0.0, angle=math.pi, radii=radii, s=2.0, sp=2.0)
    item.call = lambda: ls.classify(op, cfg, refine=spec["refine"])

    def check(rep) -> list:
        if rep.classification.value != "virtual" or rep.divergence != "log":
            return [f"verdict {rep.classification.value}/{rep.divergence}, "
                    f"expected virtual/log"]
        return []

    item.check = check


def _l1_linf(item: Item, spec: dict):
    theta = spec["theta"]

    def extra(rows):
        r = rows[:, 0]
        problems = _within("norm vs 1/(2 sqrt r)", _rel_err(rows[:, 1], 0.5 / np.sqrt(r)), 1e-12)
        z = r * np.exp(1j * theta)
        return problems + _within("z", _rel_err(rows[:, 2] + 1j * rows[:, 3], z), 1e-12)

    _sweep_family(None, extra)(item, spec)


def _resolvent_matrix(item: Item, spec: dict):
    grid = Grid1D(*spec["grid"])
    z = complex(*spec["z"])
    if spec["op"] == "free1d":
        op = ls.OperatorSpec.free1d(grid)
    else:
        op = ls.OperatorSpec.schrodinger1d(Potential1D.square_well(spec["g"], grid))
    item.call = lambda: ls.resolvent_matrix(op, z)

    # a block of columns keeps the check's memory small against the item's
    cols = np.random.default_rng(grid.n_points).choice(grid.n_points, 64, replace=False)

    def check(k) -> list:
        block = k.entries[:, cols]
        if spec["op"] == "free1d":
            w = np.sqrt(-z)
            x = grid.points
            ref = np.exp(-np.abs(x[:, None] - x[None, cols]) * w) / (2.0 * w)
            return _within("kernel vs closed form", _rel_err(block, ref), 1e-12)
        # the banded engine inverts T = H - z: h T K = I
        t = ls.discrete_hamiltonian(op, z)
        resid = grid.spacing * (t @ block)
        resid[cols, np.arange(cols.size)] -= 1.0
        return _within("h (H - z) K - I", float(np.max(np.abs(resid))), 1e-8)

    item.check = check


def _free_kernel_grid(d: int):
    return Grid1D(4.0, 401) if d == 1 else RadialGrid(8.0, 400)


def _free_kernel_mp(d: int, x, y, w):
    import mpmath

    w = mpmath.mpc(w.real, w.imag)
    if d == 1:
        return complex(mpmath.exp(-abs(x - y) * w) / (2 * w))
    lo, hi = min(x, y), max(x, y)
    return complex(mpmath.sinh(w * lo) * mpmath.exp(-w * hi) / w)


def _kernel_build(item: Item, spec: dict):
    d = spec["d"]
    grid = _free_kernel_grid(d)
    p = fr.SpectralParameter.interior(complex(*spec["z"]))
    item.call = lambda: fr.build_free_kernel_operator(d, grid, p)

    def check(k) -> list:
        n = grid.n_points
        idx = np.random.default_rng(n).integers(0, n, size=(32, 2))
        w = complex(np.sqrt(-p.z))  # principal root: z is off the closed positive axis
        pts = grid.points
        if "ref" not in item.cache:
            item.cache["ref"] = [_free_kernel_mp(d, float(pts[i]), float(pts[j]), w)
                                 for i, j in idx]
        got = k.entries[idx[:, 0], idx[:, 1]]
        return _within("entries vs mpmath", _rel_err(got, item.cache["ref"]), 1e-10)

    item.check = check


def _weighted_norm(item: Item, spec: dict):
    d = spec["d"]
    grid = _free_kernel_grid(d)
    p = fr.SpectralParameter.interior(complex(*spec["z"]))
    s, sp_ = spec["s"], spec["sp"]

    item.prepare = lambda: (fr.build_free_kernel_operator(d, grid, p),)
    item.call = lambda kernel: ws.operator_norm_weighted(kernel, s, sp_)

    def check(norm) -> list:
        if "adjoint" not in item.cache:
            k = fr.build_free_kernel_operator(d, grid, p)
            kh = ws.KernelOperator(grid, grid, k.entries.conj().T)
            item.cache["adjoint"] = ws.operator_norm_weighted(kh, sp_, s)
        ref = item.cache["adjoint"]
        return _within("adjoint identity", abs(norm - ref) / ref, 1e-10)

    item.check = check


def _shift_level(item: Item, spec: dict):
    z0 = complex(np.exp(1j * spec["theta"]))
    phi = [complex(re, im) for re, im in spec["phi"]]

    def payload(item, out):
        data = json.loads(out.stdout)
        problems = []
        if data["residual"] > 1e-10:
            problems.append(f"residual {data['residual']:.3g} > 1e-10")
        if data["state_space_dimension"] != 1:
            problems.append(f"state space dimension {data['state_space_dimension']}")
        j_star = max(range(len(phi)), key=lambda i: abs(phi[i])) + 1
        if data["functional_index"] != j_star:
            problems.append(f"functional index {data['functional_index']} != {j_star}")
        # psi_i = -sum_k z0^-(k+1) phi_{i+k}: finitely supported boundary value
        ref = [-sum(z0 ** -(k + 1) * phi[i + k] for k in range(len(phi) - i))
               if i < len(phi) else 0j for i in range(len(data["psi_head"]))]
        got = [complex(re, im) for re, im in data["psi_head"]]
        return problems + _within("psi head", _rel_err(got, ref), 1e-12)

    _cli_item(item, spec, payload)


def _truncated_resolvent(item: Item, spec: dict):
    z, n = complex(*spec["z"]), spec["n"]
    item.call = lambda: do.truncated_resolvent_matrix(z, n)

    def check(m) -> list:
        problems = []
        bound = float(np.max(np.abs(m)))
        if bound > 1.0 + 1e-12:
            problems.append(f"l1 -> linf norm {bound!r} > 1 + 1e-12")
        if np.any(np.tril(m, -1) != 0):
            problems.append("nonzero entry below the diagonal")
        rows = np.random.default_rng(n).integers(0, n, size=(64, 2))
        i, j = rows.min(axis=1), rows.max(axis=1)
        ref = [-(z ** -(int(b) - int(a) + 1)) for a, b in zip(i, j)]
        return problems + _within("entries vs -z^-(j-i+1)", _rel_err(m[i, j], ref), 1e-12)

    item.check = check


def _kernel_2d(item: Item, spec: dict):
    """Seeded (r, rho) samples, or the whole grid of a free2d sweep point;
    a grid build is checked on 64 of its entries."""
    w = complex(np.sqrt(-complex(*spec["z"])))
    if "grid" in spec:
        pts = RadialGrid(*spec["grid"]).points
        item.call = lambda: fr.radial_reduced_kernel_2d(pts[:, None], pts[None, :], w)
        idx = np.random.default_rng(pts.size).integers(0, pts.size, size=(64, 2))
        r, rho = pts[idx[:, 0]], pts[idx[:, 1]]
    else:
        r, rho = np.array(spec["r"]), np.array(spec["rho"])
        item.call = lambda: fr.radial_reduced_kernel_2d(r, rho, w)
        idx = None

    def check(vals) -> list:
        if "ref" not in item.cache:
            import mpmath

            wm = mpmath.mpc(w.real, w.imag)
            item.cache["ref"] = [
                complex(mpmath.sqrt(a * b) * mpmath.besseli(0, wm * min(a, b))
                        * mpmath.besselk(0, wm * max(a, b)))
                for a, b in zip(r, rho)]
        got = vals if idx is None else vals[idx[:, 0], idx[:, 1]]
        return _within("entries vs mpmath (relative to the largest)",
                       _rel_err(got, item.cache["ref"]), 1e-8)

    item.check = check


# ---------------------------------------------------------------------------
# jost_criticality


def _potential_params(spec: str) -> tuple:
    kind, _, rest = spec.partition(":")
    params = dict(p.split("=", 1) for p in rest.split(","))
    return kind, params


def _bump_sampler(amp: complex, a: float, center: float = 0.0):
    def v(x):
        u = (x - center) / a
        return amp * math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

    return v


def _wronskian_oracle(spec: str) -> complex:
    """W[theta+, theta-] at z = 0: closed form for wells, quadrature for bumps.

    A well -g on [c - a, c + a] gives W = -sqrt(g) sin(2 a sqrt(g)); a bump is
    integrated from theta+ = 1 at its right edge with DOP853, and W equals
    -theta+'(left edge) because theta- = 1 there.
    """
    kind, params = _potential_params(spec)
    a = float(params.get("a", "1"))
    if kind == "well":
        k = np.sqrt(complex(params["g"].replace("i", "j")))
        return complex(-k * np.sin(2.0 * a * k))
    from scipy.integrate import solve_ivp

    center = float(params.get("center", "0"))
    v = _bump_sampler(complex(params["amp"].replace("i", "j")), a, center)

    def rhs(x, y):
        th, d = complex(y[0], y[1]), complex(y[2], y[3])
        dd = v(x) * th
        return [d.real, d.imag, dd.real, dd.imag]

    sol = solve_ivp(rhs, (center + a, center - a), [1.0, 0.0, 0.0, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return -complex(sol.y[2, -1], sol.y[3, -1])


def _jost(want: str):
    def setup(item: Item, spec: dict):
        potential = spec["argv"][spec["argv"].index("--potential") + 1]

        def payload(item, out):
            data = json.loads(out.stdout)
            problems = []
            if data["classification"] != want:
                problems.append(f"classification {data['classification']}, expected {want}")
            got = complex(*data["wronskian"])
            if "ref" not in item.cache:
                item.cache["ref"] = _wronskian_oracle(potential)
            ref = item.cache["ref"]
            if want == "virtual":
                return problems + _within("|W|", abs(got - ref), 1e-8)
            return problems + _within("W vs oracle", abs(got - ref) / abs(ref), 1e-6)

        _cli_item(item, spec, payload)

    return setup


def _gap_oracle(argv: list) -> float:
    """Critical coupling c* = lambda_min(B^-1/2 T B^-1/2), B = <x>^-4, in one
    symmetric tridiagonal eigen-solve of the same discrete form."""
    from scipy.linalg import eigh_tridiagonal

    radius = float(argv[argv.index("--R") + 1])
    n = int(argv[argv.index("--n") + 1])
    case = argv[argv.index("--case") + 1]
    if case == "free3d":
        h = radius / n
        x = h * np.arange(1, n + 1)[:-1]  # Dirichlet at r = 0 and r = R
        v = np.zeros_like(x)
    else:
        h = 2.0 * radius / (n - 1)
        x = (-radius + h * np.arange(n))[1:-1]
        v = np.zeros_like(x)
        if case == "potential":
            kind, params = _potential_params(argv[argv.index("--potential") + 1])
            a = float(params.get("a", "1"))
            nodes, weights = np.polynomial.legendre.leggauss(5)
            for node, wgt in zip(nodes, weights):
                t = x + 0.5 * h * node
                if kind == "well":
                    vals = np.where(np.abs(t) <= a, -float(params["g"]), 0.0)
                else:
                    u = np.clip(t / a, -1.0, 1.0)
                    inside = np.abs(u) < 1.0
                    vals = np.where(inside, float(params["amp"]) * np.exp(
                        1.0 - 1.0 / np.where(inside, 1.0 - u * u, 1.0)), 0.0)
                v += 0.5 * wgt * vals
    scale = 1.0 + x * x  # B^{-1/2}
    d = (2.0 / h ** 2 + v) * scale * scale
    e = -scale[:-1] * scale[1:] / h ** 2
    return float(eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


def _critical(want: str):
    def setup(item: Item, spec: dict):
        argv = spec["argv"]

        def payload(item, out):
            data = json.loads(out.stdout)
            if data["verdict"] != want:
                return [f"verdict {data['verdict']}, expected {want}"]
            if want == "null_state":
                res = data["residual"]
                return [] if res is not None and res <= 0.05 else [f"residual {res}"]
            problems = [] if data["margin"] > 0 else [f"margin {data['margin']}"]
            if "ref" not in item.cache:
                item.cache["ref"] = _gap_oracle(argv)
            ratio = 2.0 * data["weight_coefficient"] / item.cache["ref"]
            return problems + _within("2 c / c*", abs(ratio - 1.0), 1e-3)

        _cli_item(item, spec, payload)

    return setup


# family -> function that sets an item's call and output check
FAMILY_ITEMS = {
    "free1d_virtual": _sweep_family("Virtual", _alpha_window(0.45, 0.55)),
    "free1d_bulk": _sweep_family("Regular", _alpha_window(-0.02, 0.02)),
    "free3d_regular": _sweep_family("Regular", _monotone_bounded),
    "free3d_bulk": _sweep_family(None, _flat),
    "schrod1d_regular": _sweep_family("Regular"),
    "schrod1d_virtual": _sweep_family("Virtual"),
    "rankone1d": _sweep_family("Regular"),
    "embedded": _embedded,
    "free2d_classify": _free2d_classify,
    "l1_linf_sweep": _l1_linf,
    "resolvent_matrix": _resolvent_matrix,
    "kernel_build": _kernel_build,
    "weighted_norm": _weighted_norm,
    "shift_level": _shift_level,
    "truncated_resolvent": _truncated_resolvent,
    "kernel2d_sweep_point": _kernel_2d,
    "kernel2d_positive_axis": _kernel_2d,
    "jost_regular": _jost("regular"),
    "jost_virtual": _jost("virtual"),
    "critical_free1d": _critical("null_state"),
    "critical_free3d": _critical("weighted_gap"),
    "critical_potential": _critical("weighted_gap"),
}
