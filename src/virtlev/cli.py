"""Command-line front end: reproducible experiments over the library.

Subcommands: kernel | jost | sweep | bifurcate | shift | embedded |
critical | nullity | suite.  Tabular output is CSV at 15 significant digits
with a commented header echoing the fully resolved configuration, so byte
identity across runs certifies determinism.  Classification results are
emitted as JSON.  Exit codes: 0 success, 1 computational failure, 2 usage
or configuration error; failures also emit a machine-readable JSON object
on stderr.  Each subcommand's options are declared once, in `_COMMANDS`,
which builds the argparse flags and resolves `--config` files: a config file
takes exactly the subcommand's flags (key `x` for a flag `--no-x`), with the
same types and choices.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import acceptance
from . import criticality as cr
from . import discrete_ops as do
from . import jost
from . import lap_sweep as ls
from . import perturbation as pt
from .errors import ConfigError, InvalidOperator, VirtlevError
from .free_resolvent import Approach, SpectralParameter, kernel_1d, kernel_2d, kernel_3d
from .reports import csv_table
from .weighted_space import Grid1D, RadialGrid


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _parse_angle(text: str) -> float:
    """Angles as radians or multiples of pi: 'pi', 'pi/2', '3pi/4', '1.2'."""
    text = text.strip().lower()
    m = re.fullmatch(r"([0-9.]*)\s*pi\s*(?:/\s*([0-9.]+))?", text)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        return num * np.pi / den
    return float(text)


def _parse_complex(text: str) -> complex:
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    if text == "i":
        return 1j
    m = re.fullmatch(r"arg:(.+)", text)
    if m:
        return complex(np.exp(1j * _parse_angle(m.group(1))))
    for spelling in (text, text.replace("i", "j")):  # plain first: 'inf' -> 'jnf'
        with contextlib.suppress(ValueError):
            return complex(spelling)
    raise ConfigError(f"{text!r} is not a complex number")


def parse_potential(spec: str, grid: Grid1D) -> jost.Potential1D:
    """Potential mini-format: well:g=..., bump:amp=...,a=..., table:path.csv."""
    kind, _, rest = spec.partition(":")
    params = {}
    if kind != "table":
        for item in filter(None, rest.split(",")):
            if "=" not in item:
                raise ConfigError(f"bad potential parameter {item!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = val.strip()
    if kind in ("well", "bump"):
        key = "g" if kind == "well" else "amp"
        value = _parse_complex(params.get(key, "1"))
        if not np.isfinite(value):
            raise ConfigError(f"potential {key} = {value} is not finite")
        a = float(params.get("a", "1"))
        center = float(params.get("center", "0"))
        if kind == "well":
            return jost.Potential1D.square_well(value, grid, half_width=a, center=center)
        return jost.Potential1D.bump(grid, amplitude=value, half_width=a, center=center)
    if kind == "table":
        path = rest
        with warnings.catch_warnings():  # refused just below, with the path
            warnings.filterwarnings("ignore", "genfromtxt: Empty input file")
            data = np.genfromtxt(path, delimiter=",", dtype=float, ndmin=2)
        if data.size == 0:
            raise ConfigError(f"table potential {path} has no rows")
        if data.shape[1] not in (2, 3):
            raise ConfigError(f"table potential {path} needs columns x,V_re[,V_im]")
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if bad.size:  # a header line reads as a row of nan
            raise ConfigError(f"table potential {path}: row {bad[0] + 1} has a "
                              f"non-finite or non-numeric entry")
        if len(data) < 2:
            raise ConfigError(f"table potential {path} has one row; linear "
                              "interpolation needs at least two")
        if data.shape[1] == 2:  # V_im = 0
            data = np.column_stack([data, np.zeros(len(data))])
        xs, vre, vim = data[np.argsort(data[:, 0])].T
        support = float(np.max(np.abs(xs)))

        def sampler(x):
            x = np.asarray(x, dtype=float)
            return (np.interp(x, xs, vre, left=0.0, right=0.0)
                    + 1j * np.interp(x, xs, vim, left=0.0, right=0.0))

        return jost.Potential1D(support, sampler, grid)
    raise ConfigError(f"unknown potential kind {kind!r} (well|bump|table)")


def _load_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _parse_bool(raw: str) -> bool:
    token = raw.strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _resolve(args) -> dict:
    """Flags beat config-file entries beat built-in defaults.

    A config-file value passes the same type and choices as its flag; one
    that fails its type is a ConfigError naming the key.
    """
    options = _COMMANDS[args.command][2]
    file_values = _load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (default, kind, flag) in options.items():
        value = getattr(args, key)
        if value is None and key in file_values:
            raw = file_values[key]
            try:
                value = (_parse_bool if kind is bool else kind)(raw)
            except ValueError:
                raise ConfigError(f"config key {key}: invalid {kind.__name__} value: "
                                  f"{raw!r}") from None
            choices = flag.get("choices")
            if choices and value not in choices:
                raise ConfigError(
                    f"config key {key}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, choices))})")
        resolved[key] = default if value is None else value
    unknown = set(file_values) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return resolved


def _echo_header(config: dict) -> str:
    lines = [f"# {key} = {config[key]}" for key in sorted(config)]
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.15g} {z.imag:.15g}"


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the configuration `_resolve` returns


_APPROACHES = {
    "interior": Approach.INTERIOR,
    "upper": Approach.FROM_UPPER_HALF_PLANE,
    "lower": Approach.FROM_LOWER_HALF_PLANE,
    "neg": Approach.ALONG_NEGATIVE_AXIS,
}


def _cmd_kernel(cfg) -> int:
    for key in ("x", "y", "r"):
        if not np.isfinite(cfg[key]):
            raise ConfigError(f"{key} = {cfg[key]} is not finite")
    p = SpectralParameter(_parse_complex(cfg["z"]), _APPROACHES[cfg["approach"]])
    if cfg["d"] == 1:
        value = kernel_1d(cfg["x"], cfg["y"], p)
    elif cfg["d"] == 2:
        value = kernel_2d(cfg["r"], p)
    else:
        value = kernel_3d(cfg["r"], p)
    value = complex(value)
    if not np.isfinite(value):
        raise InvalidOperator(f"the kernel value {value} is not finite")
    print(_fmt_complex(value))
    return 0


def _cmd_jost(cfg) -> int:
    grid = Grid1D(cfg["R"], cfg["n"])
    pot = parse_potential(cfg["potential"], grid)
    report = jost.classify_threshold_1d(pot, tol=cfg["tol"])
    pair = report.diagnostics["jost_pair"]
    payload = {
        "classification": report.classification.value,
        "rank": report.rank,
        "wronskian": [pair.wronskian.real, pair.wronskian.imag],
        "wronskian_deviation": pair.wronskian_deviation,
    }
    print(json.dumps(payload))
    if cfg["out"]:
        table = csv_table(["x", "theta_plus_re", "theta_plus_im", "theta_minus_re",
                           "theta_minus_im"],
                          zip(grid.points, pair.theta_plus, pair.theta_minus))
        _write_output(_echo_header(cfg) + table, cfg["out"])
    return 0


_SWEEP_OPS = {  # op -> (default R, default n, operator on the grid; None: --potential)
    "free1d": (20.0, 4001, ls.OperatorSpec.free1d),
    "free2d": (20.0, 2000, ls.OperatorSpec.free2d_radial),
    "free3d": (30.0, 3000, ls.OperatorSpec.free3d_radial),
    "schrod1d": (16.0, 3201, None),
    "rankone1d": (20.0, 4001, ls.OperatorSpec.rank_one_perturbed_1d),
}


def _cmd_sweep(cfg) -> int:
    r_default, n_default, make_op = _SWEEP_OPS[cfg["op"]]
    if make_op is not None and cfg["potential"] is not None:
        raise ConfigError(f"sweep --op {cfg['op']} takes no potential; "
                          "--op schrod1d does")
    radius = cfg["R"] if cfg["R"] is not None else r_default
    npts = cfg["n"] if cfg["n"] is not None else n_default
    if cfg["op"] in ("free2d", "free3d"):
        grid = RadialGrid(radius, npts)
    else:
        grid = Grid1D(radius, npts)
    if make_op is not None:
        op = make_op(grid)
    elif not cfg["potential"]:
        raise ConfigError("schrod1d requires --potential")
    else:
        op = ls.OperatorSpec.schrodinger1d(parse_potential(cfg["potential"], grid))
    sp_ = cfg["sp"] if cfg["sp"] is not None else cfg["s"]
    sweep_cfg = ls.SweepConfig(z0=_parse_complex(cfg["z0"]),
                               angle=_parse_angle(cfg["ray"]),
                               radii=ls.default_radii(cfg["r0"], cfg["ratio"],
                                                      cfg["count"]),
                               s=cfg["s"], sp=sp_, flavor=cfg["flavor"])
    report = ls.classify(op, sweep_cfg) if cfg["classify"] else None
    result = report.sweeps[0] if report else ls.sweep(op, sweep_cfg)
    echo = dict(cfg, sp=sp_, R=radius, n=npts)
    _write_output(_echo_header(echo) + ls.sweep_csv(result), cfg["out"])
    if cfg["classify"]:
        print(report.verdict_line())
    if result.aborted:
        print(f"aborted: {result.aborted}", file=sys.stderr)
        return 1
    return 0


def _cmd_bifurcate(cfg) -> int:
    gs = [float(t) for t in cfg["g"].split(",") if t]
    curve = pt.square_well_curve(gs)
    for g, e, p in zip(curve.couplings, curve.energies, curve.predicted):
        print(f"g={g:.15g} E={e:.15g} E_predicted={p:.15g}")
    if cfg["out"]:
        _write_output(_echo_header(cfg) + pt.bifurcation_csv(curve), cfg["out"])
    return 0


def _cmd_shift(cfg) -> int:
    z0 = _parse_complex(cfg["z0"])
    phi_entries = [_parse_complex(t) for t in cfg["phi"].split(";" if ";" in cfg["phi"] else ",")]
    phi = do.sequence(phi_entries, n=cfg["n"])
    lvl = do.build_shift_virtual_level(z0, phi)
    payload = {
        "z0": [z0.real, z0.imag],
        "residual": lvl.residual,
        "functional_index": lvl.functional_index,
        "psi_head": [[v.real, v.imag] for v in lvl.psi[:8]],
        "state_space_dimension": do.virtual_state_space_dimension(lvl),
    }
    print(json.dumps(payload))
    if cfg["out"]:
        table = csv_table(["index", "psi_re", "psi_im"],
                          enumerate(lvl.psi, start=1))
        _write_output(_echo_header(cfg) + table, cfg["out"])
    return 0


def _cmd_embedded(cfg) -> int:
    fam = pt.embedded_family_check(cfg["zeta0"], n=cfg["count"])
    alpha_txt = f"alpha~{fam.alpha:.3g}"
    print(f"residual_max={fam.residual_max:.3e} monotone_growth={fam.monotone_growth} {alpha_txt}")
    if cfg["out"]:
        text = (_echo_header(cfg) + pt.embedded_csv(fam) + "\n"
                + ls.sweep_csv(fam.sweep_result))
        _write_output(text, cfg["out"])
    return 0


def _cmd_critical(cfg) -> int:
    case, radius, npts = cfg["case"], cfg["R"], cfg["n"]
    if case == "potential" and not cfg["potential"]:
        raise ConfigError("critical --case potential requires --potential")
    if case != "potential" and cfg["potential"] is not None:
        raise ConfigError(f"critical --case {case} takes no potential; "
                          "--case potential does")
    if case == "free3d":
        grid = RadialGrid(radius, 12800 if npts is None else npts)
    else:
        grid = Grid1D(radius, 12801 if npts is None else npts)
    form = (cr.QuadraticForm(grid, parse_potential(cfg["potential"], grid).sample)
            if case == "potential" else cr.QuadraticForm(grid))
    result = cr.null_state_iteration(form, compact_radius=cfg["K"],
                                     j_max=cfg["jmax"])
    payload = {"verdict": result.verdict.value,
               "margin": result.margin,
               "weight_coefficient": result.weight_coefficient,
               "residual": result.residual}
    print(json.dumps(payload))
    if cfg["out"]:
        _write_output(_echo_header(cfg) + cr.trace_csv(result), cfg["out"])
    return 0


_NULLITY_DEMOS = {
    "jordan3": np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float),
    "zero2": np.zeros((2, 2)),
    "identity3": np.eye(3),
}


def _cmd_nullity(cfg) -> int:
    if cfg["matrix"]:
        rows = []
        for line in Path(cfg["matrix"]).read_text().splitlines():
            if line.strip():
                rows.append([_parse_complex(t) for t in line.split(",")])
        m = np.array(rows, dtype=complex)
    elif cfg["demo"]:
        m = _NULLITY_DEMOS[cfg["demo"]]
    else:
        raise ConfigError("nullity requires --matrix or --demo")
    r = pt.matrix_nullity_by_perturbation(m, trials=cfg["trials"],
                                          rng_seed=cfg["seed"])
    print(r)
    return 0


def _cmd_suite(cfg) -> int:
    only = {int(t) for t in cfg["only"].split(",")} if cfg["only"] else None
    t0 = time.perf_counter()
    results = acceptance.run_all(only=only)
    all_pass = True
    for res in results:
        print(res.line())
        print(f"  criterion {res.number} runtime: {res.runtime:.1f}s", file=sys.stderr)
        all_pass = all_pass and res.passed
        if cfg["out"] and res.artifacts:
            outdir = Path(cfg["out"])
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in res.artifacts.items():
                (outdir / name).write_text(text, encoding="utf-8", newline="\n")
    print(f"suite runtime: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# subcommand -> (handler, help, {option: (default, type, argparse keywords)});
# option `x` is the flag --x, or --no-x when its type is bool

_OUT = {"out": (None, str, {"help": "output path (CSV) or directory (suite)"})}

_COMMANDS = {
    "kernel": (_cmd_kernel, "evaluate a free resolvent kernel pointwise", {
        "d": (1, int, {"choices": (1, 2, 3)}),
        "z": ("-1", str, {"help": "spectral parameter: re[,im]; write -1+2i as --z=-1+2i"}),
        "approach": ("interior", str, {"choices": tuple(_APPROACHES)}),
        "x": (0.0, float, {}),
        "y": (0.0, float, {}),
        "r": (1.0, float, {}),
    }),
    "jost": (_cmd_jost, "Wronskian threshold classification of a potential", {
        **_OUT,
        "potential": ("well:g=1", str, {}),
        "R": (16.0, float, {}),
        "n": (6401, int, {}),
        "tol": (1e-6, float, {}),
    }),
    "sweep": (_cmd_sweep, "resolvent-norm sweep toward a threshold", {
        **_OUT,
        "op": ("free1d", str, {"choices": tuple(_SWEEP_OPS)}),
        "potential": (None, str, {}),
        "z0": ("0", str, {"help": "threshold: re[,im]; write -1+2i as --z0=-1+2i"}),
        "ray": ("pi", str, {"help": "approach angle: pi, pi/2, or radians"}),
        "r0": (1e-2, float, {}),
        "ratio": (10.0 ** -0.5, float, {}),
        "count": (9, int, {}),
        "s": (2.0, float, {}),
        "sp": (None, float, {}),
        "flavor": ("weighted_l2", str, {"choices": ("weighted_l2", "l1_linf")}),
        "R": (None, float, {}),
        "n": (None, int, {}),
        "classify": (True, bool, {}),  # --no-classify
    }),
    "bifurcate": (_cmd_bifurcate, "square-well eigenvalue vs -g^2", {
        **_OUT,
        "g": ("0.01", str, {"help": "coupling or comma list"}),
    }),
    "shift": (_cmd_shift, "manufactured virtual level of the left shift", {
        **_OUT,
        "z0": ("1", str, {"help": "unit-circle point: re,im | 1 | i | arg:pi/4 "
                                  "(write -i as --z0=-i)"}),
        "phi": ("1", str, {"help": "comma list of leading entries; write -1,2 as --phi=-1,2"}),
        "n": (do.DEFAULT_LENGTH, int, {}),
    }),
    "embedded": (_cmd_embedded, "embedded eigenvalue family check", {
        **_OUT,
        "zeta0": (0.0, float, {}),
        "count": (8, int, {}),
    }),
    "critical": (_cmd_critical, "null-state / weighted-gap dichotomy", {
        **_OUT,
        "case": ("free1d", str, {"choices": ("free1d", "free3d", "potential")}),
        "potential": (None, str, {}),
        "K": (1.0, float, {}),
        "jmax": (64, int, {}),
        "R": (320.0, float, {}),
        "n": (None, int, {}),
    }),
    "nullity": (_cmd_nullity, "matrix nullity by random perturbations", {
        "demo": (None, str, {"choices": tuple(_NULLITY_DEMOS)}),
        "matrix": (None, str, {"help": "CSV file of matrix entries"}),
        "trials": (64, int, {}),
        "seed": (0, int, {}),
    }),
    "suite": (_cmd_suite, "run the acceptance battery", {
        **_OUT,
        "only": (None, str, {"help": "comma list of criterion numbers"}),
    }),
}


@functools.cache  # the parser keeps no state between parse_args calls
def build_parser() -> _Parser:
    parser = _Parser(prog="virtlev",
                     description="virtual levels and LAP resolvent estimates, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value file; flags override")
        for key, (_, kind, flag) in options.items():
            if kind is bool:
                p.add_argument(f"--no-{key}", dest=key, action="store_false",
                               default=None, **flag)
            else:
                p.add_argument(f"--{key}", type=kind, **flag)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(_resolve(args))
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 2
    except VirtlevError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except (ValueError, OSError) as exc:
        _emit_error("config", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
