"""CLI: argument handling, exit codes, output formats, determinism."""

import argparse
import json
import subprocess
import sys
import tracemalloc

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
        assert len(calls) == 2  # one pair, reused for the CSV

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
    ])
    def test_config_error_exit_2(self, capsys, argv, fragment):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        payload = json.loads(err.strip().splitlines()[0])
        assert payload["error"] == "config"
        assert fragment in payload["message"]

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

    def test_missing_potential_exit_2(self, capsys):
        code, _, err = run_cli(["sweep", "--op", "schrod1d"], capsys)
        assert code == 2


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
