"""CLI: argument handling, exit codes, output formats, determinism."""

import argparse
import json
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from virtlev import cli
from virtlev.cli import main, parse_potential, _parse_angle, _parse_complex
from virtlev.weighted_space import Grid1D


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparsers() -> dict:
    """Subcommand name -> its argparse parser."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def choice_options():
    for command, parser in subparsers().items():
        for action in parser._actions:
            if action.choices:
                yield command, action.dest, action.choices


class TestParsers:
    def test_angle(self):
        assert _parse_angle("pi") == pytest.approx(np.pi)
        assert _parse_angle("pi/2") == pytest.approx(np.pi / 2)
        assert _parse_angle("3pi/4") == pytest.approx(3 * np.pi / 4)
        assert _parse_angle("1.25") == 1.25

    def test_complex(self):
        assert _parse_complex("1") == 1.0
        assert _parse_complex("i") == 1j
        assert _parse_complex("-1,0.5") == complex(-1, 0.5)
        assert _parse_complex("arg:pi/4") == pytest.approx(np.exp(1j * np.pi / 4))
        assert _parse_complex("2-3i") == 2 - 3j
        assert _parse_complex("infinity") == complex(np.inf)

    def test_potential_formats(self, tmp_path):
        grid = Grid1D(8.0, 1601)
        well = parse_potential("well:g=0.01", grid)
        assert well.sample(0.0) == pytest.approx(-0.01)
        assert well.sample(1.5) == 0.0
        bump = parse_potential("bump:amp=2,a=1", grid)
        assert bump.sample(0.0) == pytest.approx(2.0)
        table = tmp_path / "v.csv"
        table.write_text("-1,0.0\n0,1.0\n1,0.0\n")
        pot = parse_potential(f"table:{table}", grid)
        assert pot.sample(0.0) == pytest.approx(1.0)
        assert pot.sample(0.5) == pytest.approx(0.5)  # linear interpolation
        assert pot.sample(3.0) == 0.0


class TestSubcommands:
    def test_kernel_1d(self, capsys):
        code, out, _ = run_cli(["kernel", "--d", "1", "--z", "-1",
                                "--x", "0", "--y", "0"], capsys)
        assert code == 0
        assert out.split()[0] == "0.5"

    def test_negative_complex_value_takes_the_equals_form(self, capsys):
        # argparse reads '-1+2i' as a flag unless it is joined to its option
        code, out, _ = run_cli(["kernel", "--d", "3", "--z=-1+2i"], capsys)
        assert code == 0
        got = complex(*map(float, out.split()))
        assert got == pytest.approx(np.exp(-np.sqrt(1 - 2j)) / (4 * np.pi), rel=1e-14)
        code, out, err = run_cli(["kernel", "--d", "3", "--z", "-1+2i"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "usage",
                                   "message": "argument --z: expected one argument"}

    def test_kernel_3d_threshold(self, capsys):
        code, out, _ = run_cli(["kernel", "--d", "3", "--z", "0",
                                "--approach", "neg", "--r", "1"], capsys)
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(1 / (4 * np.pi))

    def test_bifurcate_prints_energy_and_prediction(self, capsys):
        code, out, _ = run_cli(["bifurcate", "--g", "0.01"], capsys)
        assert code == 0
        assert "E=" in out and "E_predicted=-0.0001" in out

    def test_jost_out_solves_the_pair_once(self, capsys, monkeypatch, tmp_path):
        from virtlev import jost
        calls = []
        real = jost.jost_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(jost, "jost_solve", counted)
        code, _, _ = run_cli(["jost", "--potential", "well:g=1", "--n", "1601",
                              "--out", str(tmp_path / "jost.csv")], capsys)
        assert code == 0
        assert len(calls) == 1  # both sides in one solve, reused for the CSV

    def test_jost_json(self, capsys):
        code, out, _ = run_cli(["jost", "--potential", "well:g=1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "regular"
        w = complex(*payload["wronskian"])
        assert w == pytest.approx(-np.sin(2.0), rel=1e-8)

    def test_sweep_writes_csv_and_verdict(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run_cli(["sweep", "--op", "free1d", "--z0", "0",
                                "--ray", "pi", "--s", "2", "--sp", "2",
                                "--count", "7", "--out", str(out_file)], capsys)
        assert code == 0
        assert "Virtual" in out
        text = out_file.read_text()
        assert text.startswith("#")  # config echo header
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert body[0] == "radius,norm,z_re,z_im"
        assert len(body) == 8

    def test_sweep_builds_one_engine_per_point_per_sweep(self, capsys, monkeypatch):
        from virtlev import lap_sweep as ls
        calls = []
        real = ls._make_engine

        def counted(op, z):
            calls.append(z)
            return real(op, z)

        monkeypatch.setattr(ls, "_make_engine", counted)
        code, out, _ = run_cli(["sweep", "--op", "free1d", "--count", "7"], capsys)
        assert code == 0 and "Virtual" in out
        assert len(calls) == 14  # coarse and refined sweeps, nothing else

    def test_sweep_csv_same_with_and_without_classify(self, capsys, tmp_path):
        bodies = []
        for extra in ([], ["--no-classify"]):
            path = tmp_path / f"sweep{len(bodies)}.csv"
            code, _, _ = run_cli(["sweep", "--op", "schrod1d", "--potential", "well:g=4",
                                  "--count", "7", "--out", str(path)] + extra, capsys)
            assert code == 0
            text = path.read_text()
            bodies.append(text[text.index("radius,"):])
        assert bodies[0] == bodies[1]

    def test_nullity_demo(self, capsys):
        code, out, _ = run_cli(["nullity", "--demo", "jordan3"], capsys)
        assert code == 0 and out.strip() == "1"

    def test_shift_json(self, capsys):
        code, out, _ = run_cli(["shift", "--z0", "i", "--phi", "1,0.5,0.25"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-10
        assert payload["state_space_dimension"] == 1

    def test_critical_json(self, capsys):
        code, out, _ = run_cli(["critical", "--case", "free1d", "--R", "160",
                                "--n", "6401"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "null_state"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("g = 0.02\n")
        code, out, _ = run_cli(["bifurcate", "--config", str(cfg)], capsys)
        assert code == 0 and "g=0.02" in out
        code, out, _ = run_cli(["bifurcate", "--config", str(cfg),
                                "--g", "0.04"], capsys)
        assert code == 0 and "g=0.04" in out

    @pytest.mark.parametrize("command,line", [
        ("bifurcate", "nonsense = 1"),
        ("kernel", "out = k.csv"),
        ("nullity", "out = n.csv"),
    ])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config"

    @pytest.mark.parametrize("command", sorted(subparsers()))
    def test_config_keys_are_the_flags(self, capsys, tmp_path, monkeypatch, command):
        seen = {}
        _, help_text, options = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command,
                            (lambda cfg: seen.update(cfg) or 0, help_text, options))
        flags = {a.dest for a in subparsers()[command]._actions} - {"help", "config"}
        assert cli.build_parser() is cli.build_parser()  # built once, dispatch stays live
        assert main([command]) == 0
        assert set(seen) == flags
        # each resolved default, read back from a config file, resolves to itself
        defaults = dict(seen)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()
                               if v is not None))
        seen.clear()
        assert main([command, "--config", str(cfg)]) == 0
        assert seen == defaults

    @pytest.mark.parametrize("command,key,choices", list(choice_options()))
    def test_config_value_outside_choices_exit_2(self, capsys, tmp_path,
                                                 command, key, choices):
        bad = max(choices) + 2 if isinstance(choices[0], int) else "sideways"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {bad}\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert key in payload["message"] and str(bad) in payload["message"]


class TestErrorChannels:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--op", "nosuch"],
        ["kernel", "--d", "5"],
        ["kernel", "--out", "k.csv"],  # neither writes a file
        ["nullity", "--demo", "jordan3", "--out", "n.csv"],
    ])
    def test_usage_error_exit_2(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(err.strip().splitlines()[0])["error"] == "usage"

    @pytest.mark.parametrize("argv,fragment", [
        (["sweep", "--op", "free1d", "--count", "0", "--r0", "0.05"],
         "at least 5 radii are required"),
        (["critical", "--jmax", "0", "--R", "80", "--n", "3201"], "j_max = 0"),
        (["critical", "--n", "0"], "n_points must be odd and >= 3"),
        (["suite", "--only", "11"], "outside 1..10: [11]"),
        (["suite", "--only", "0,3"], "outside 1..10: [0]"),
        (["bifurcate", "--g", ","], "at least one coupling"),
        (["embedded", "--count", "0"], "n >= 1"),
        (["sweep", "--s", "nan"], "s = nan is not finite"),
        (["sweep", "--s", "inf"], "s = inf is not finite"),
        (["sweep", "--sp", "nan"], "sp = nan is not finite"),
        (["sweep", "--ray", "inf"], "angle = inf is not finite"),
        (["sweep", "--z0", "nan"], "z0 = (nan+0j) is not finite"),
        (["sweep", "--r0", "0"], "radii must be finite and positive"),
        (["sweep", "--ratio", "0"], "radii must be finite and positive"),
        (["sweep", "--r0", "-1"], "radii must be finite and positive"),
        (["sweep", "--ratio", "1e300"], "the radii r0 ratio^k overflow"),
        (["critical", "--R", "1e300"], "must lie in (1e-75, 1e75)"),
        (["embedded", "--zeta0", "1e300"], "|zeta0| must be below 1e150"),
        (["kernel", "--x", "nan"], "x = nan is not finite"),
        (["kernel", "--d", "2", "--r", "inf"], "r = inf is not finite"),
        (["jost", "--tol", "nan"], "tol = nan must be finite and nonnegative"),
        (["jost", "--tol", "inf"], "tol = inf must be finite and nonnegative"),
        *((["critical", "--K", k, "--R", "80", "--n", "3201"],
           f"compact_radius = {float(k)} must be finite and positive")
          for k in ("nan", "inf", "0", "-1")),
        (["bifurcate", "--g", "inf"], "coupling g = inf is not finite"),
        (["bifurcate", "--g", "1e300"], "at q = 1e+150 is too narrow to bracket"),
        (["bifurcate", "--g", "1e26"], "at q = 1e+13 is too narrow to bracket"),
        (["jost", "--R", "inf"], "half_width must be finite and positive"),
        (["sweep", "--s", "1e300"], "s = 1e+300, sp = 1e+300: the weights <x>^(+-s)"),
        (["sweep", "--sp", "1e300"], "s = 2.0, sp = 1e+300: the weights"),
        (["sweep", "--s", "400"], "sp = 400.0: the weights <x>^(+-s) and <x>^(+-sp) are not"),
        (["nullity", "--demo", "jordan3", "--trials", "0"], "trials = 0 must be at least 1"),
        (["nullity", "--demo", "jordan3", "--trials", "-1"], "trials = -1 must be at least 1"),
        *((["shift", "--z0", z0], "|z0| = nan must equal 1") for z0 in ("nan", "nan,0", "1,nan")),
        (["shift", "--phi", "1e308,1e308"], "4 |phi|_l1 = inf is not a finite float"),
        (["shift", "--phi", "0,0,0"], "phi must be nonzero"),
        (["shift", "--z0", "inf"], "|z0| = inf must equal 1"),
        (["shift", "--phi", "1,inf"], "entries must be finite"),
        (["shift", "--phi", "infinity"], "entries must be finite"),
        (["kernel", "--z", "inf"], "z must be finite"),
        (["sweep", "--z0", "inf"], "z0 = (inf+0j) is not finite"),
        (["kernel", "--z", "abc"], "'abc' is not a complex number"),
        (["jost", "--potential", "well:g=nan"], "potential g = (nan+0j) is not finite"),
        (["jost", "--potential", "bump:amp=-inf"], "potential amp = (-inf+0j) is not finite"),
        (["critical", "--potential", "well:g=5", "--R", "40", "--n", "1601"],
         "critical --case free1d takes no potential; --case potential does"),
        (["critical", "--case", "free3d", "--potential", "well:g=5"],
         "critical --case free3d takes no potential; --case potential does"),
        (["sweep", "--op", "free1d", "--potential", "well:g=5", "--R", "4", "--n", "801",
          "--count", "5", "--ratio", "0.1"],
         "sweep --op free1d takes no potential; --op schrod1d does"),
        *((["sweep", "--op", op, "--R", "4", "--n", "800", "--ratio", "0.1", "--count", "5",
            "--no-classify", *extra], "n_points must be odd and >= 3")
          for op, extra in (("free1d", []), ("schrod1d", ["--potential", "well:g=1"]),
                            ("rankone1d", []))),
    ])
    def test_config_error_exit_2(self, capsys, argv, fragment):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv, capsys)
        assert [str(w.message) for w in caught] == []
        assert code == 2 and out == "" and err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert fragment in payload["message"]

    @pytest.mark.parametrize("n,h", [("3", "2"), ("5", "1"), ("7", "0.666667")])
    def test_grid_without_a_drift_point_exit_2(self, capsys, n, h):
        # the kinks at x = +-1 leave only x = 0, where the drift is 0 by
        # definition; n = 3 has no interior point at all
        code, out, err = run_cli(["jost", "--potential", "well:g=1", "--n", n,
                                  "--R", "2"], capsys)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {
            "error": "config",
            "message": f"the grid of n = {n} points at h = {h} has no interior point "
                       f"away from x = 0 and the kinks to measure the Wronskian drift on"}

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_matrix_entry_exit_2(self, capsys, tmp_path, entry):
        matrix = tmp_path / "m.csv"
        matrix.write_text(f"1,0\n{entry},1\n")
        code, out, err = run_cli(["nullity", "--matrix", str(matrix)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "config",
                                   "message": "matrix entries must be finite"}

    @pytest.mark.parametrize("text,row", [
        ("x,V_re,V_im\n-1,0,0\n0,1,0\n1,0,0\n", 1),  # a header reads as nan
        ("-1,0\n0,nan\n1,0\n", 2),
        ("-1,0\n0,1\ninf,0\n", 3),
    ])
    def test_non_finite_table_row_exit_2(self, capsys, tmp_path, text, row):
        table = tmp_path / "v.csv"
        table.write_text(text)
        code, out, err = run_cli(["jost", "--potential", f"table:{table}"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config",
            "message": f"table potential {table}: row {row} has a non-finite or "
                       f"non-numeric entry"}

    @pytest.mark.parametrize("command,line,message", [
        ("sweep", "count = abc", "config key count: invalid int value: 'abc'"),
        ("sweep", "r0 = small", "config key r0: invalid float value: 'small'"),
        ("jost", "n = 1.5", "config key n: invalid int value: '1.5'"),
    ])
    def test_config_value_of_the_wrong_type_names_its_key(self, capsys, tmp_path,
                                                          command, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err.strip().splitlines()[-1]) == {"error": "config",
                                                           "message": message}

    def test_computational_error_exit_1(self, capsys):
        code, _, err = run_cli(["kernel", "--d", "1", "--z", "0",
                                "--x", "0", "--y", "1"], capsys)
        assert code == 1
        payload = json.loads(err.strip().splitlines()[0])
        assert payload["error"] == "ThresholdSingularity"

    def test_non_finite_kernel_value_exit_1(self, capsys):
        # scipy's complex kv returns nan+nanj this far out
        code, out, err = run_cli(["kernel", "--d", "2", "--r", "1e300"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[0]) == {
            "error": "InvalidOperator",
            "message": "the kernel value (nan+nanj) is not finite"}

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--op", "rankone1d"],
         "sweep --op rankone1d takes no potential; --op schrod1d does"),
        (["critical", "--case", "free1d"],
         "critical --case free1d takes no potential; --case potential does"),
    ])
    def test_potential_config_key_without_a_potential_operator_exit_2(
            self, capsys, tmp_path, argv, message):
        cfg = tmp_path / "pot.cfg"
        cfg.write_text("potential = well:g=5\n")
        code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "config", "message": message}

    def test_missing_potential_exit_2(self, capsys):
        code, _, err = run_cli(["sweep", "--op", "schrod1d"], capsys)
        assert code == 2


# flags that make the rest of a boundary case cheap to run
_BOUNDARY_EXTRA = {
    "nullity": ["--demo", "jordan3"],
    "sweep": ["--R", "4", "--n", "401", "--no-classify"],
    "critical": ["--R", "40", "--n", "1601"],
}


def boundary_cases():
    """Every float option at nan and +-inf, every int option without choices
    at 0 and -1, one flag per case, read from cli._COMMANDS."""
    for command, (_, _, options) in cli._COMMANDS.items():
        for key, (_, kind, flag) in options.items():
            if kind is float:
                values = ("nan", "inf", "-inf")
            elif kind is int and "choices" not in flag:
                values = ("0", "-1")
            else:
                continue
            extra = [] if key in ("R", "n") else _BOUNDARY_EXTRA.get(command, [])
            for value in values:
                yield pytest.param([command, f"--{key}={value}", *extra],
                                   id=f"{command} --{key}={value}")


@pytest.mark.parametrize("argv", boundary_cases())
def test_boundary_values_exit_0_with_finite_output_or_2_with_one_error_line(
        capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    if code == 0:
        assert out.strip()
        assert re.findall(r"(?i)\b(?:nan|inf(?:inity)?)\b", out) == []
    else:
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "error" in json.loads(err)


def test_byte_identical_output_across_runs(tmp_path):
    """Identical config + seed => byte-identical CSV artifacts."""
    path = tmp_path / "sweep.csv"
    outs = []
    for _ in range(2):
        cmd = [sys.executable, "-m", "virtlev.cli", "sweep", "--op", "free1d",
               "--z0", "0", "--ray", "pi", "--s", "2", "--sp", "2",
               "--count", "7", "--out", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        outs.append(path.read_bytes() + proc.stdout.encode())
    assert outs[0] == outs[1]


def test_default_l1_linf_sweep_memory_stays_linear(capsys):
    # two dense 8001^2 complex kernels per refined point: about 2 GB before
    # the O(n) sup norms
    tracemalloc.start()
    try:
        code = main(["sweep", "--op", "free1d", "--flavor", "l1_linf"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("Virtual (alpha~0.5)")
    assert peak < 20e6


def test_cli_import_skips_scipy_sparse():
    # scipy.sparse is imported only when discrete_hamiltonian is called
    code = ("import sys, virtlev.cli; "
            "print('scipy.sparse' in sys.modules, 'scipy.sparse.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False False"
    # a Virtual sweep extracts its state with the O(n) residual product
    code = ("import sys; from virtlev.cli import main; "
            "code = main(['sweep', '--op', 'schrod1d', '--potential', 'well:g=0']); "
            "print('scipy.sparse' in sys.modules, code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert "Virtual" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_suite_single_criterion(capsys, tmp_path):
    code, out, _ = run_cli(["suite", "--only", "3", "--out", str(tmp_path)],
                           capsys)
    assert code == 0
    assert out.startswith("PASS criterion 3")
    assert (tmp_path / "bifurcation.csv").exists()


def test_bool_config_coercion(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("classify = false\ncount = 7\n")
    code, out, _ = run_cli(["sweep", "--op", "free1d", "--config", str(cfg)],
                           capsys)
    assert code == 0
    assert "Virtual" not in out  # classification suppressed by config
