"""End-to-end tests for the command-line front end."""

import dataclasses
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import emdenlab
from emdenlab import ProblemParams, bisect_boundary, classify_end, \
    classify_regime, scan_thresholds, shoot, write_trajectory_csv
from emdenlab.cli import build_parser, main

INI = """\
[params]
n = 5
p = 1.9
q = 1.95
l1 = 0.0
l2 = -0.5
"""

PARAM_FLAGS = ["--n", "5", "--p", "1.9", "--q", "1.95", "--l1", "0.0",
               "--l2", "-0.5"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required --config/--out
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_exponents_json(capsys):
    rc = main(["exponents", *PARAM_FLAGS])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    consts = payload["constants"]
    assert consts["alpha1"] == pytest.approx(20.0 / 9.0, rel=1e-15)
    assert consts["lambda1"] == pytest.approx(1.8367404753952032, rel=1e-12)
    assert consts["lambda2"] == pytest.approx(2.3412637106373519, rel=1e-12)
    assert payload["regime"]["theorem3_case"] == "singular_at_infinity"
    assert payload["params"]["q"] == 1.95


def test_exponents_params_are_the_dataclass_fields(capsys):
    assert main(["exponents", *PARAM_FLAGS]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == dataclasses.asdict(
        ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5))


@pytest.mark.parametrize("argv,dest,functions", [
    (["exponents", *PARAM_FLAGS], "eps_crit", [classify_regime]),
    (["classify", "--csv", "x.csv", "--end", "origin", *PARAM_FLAGS],
     "tol_class", [classify_end]),
    (["shoot", "--a", "1"], "t_target", [shoot]),
    (["scan"], "t_target", [scan_thresholds, bisect_boundary, shoot]),
])
def test_parser_defaults_are_the_function_defaults(argv, dest, functions):
    default = getattr(build_parser().parse_args(argv), dest)
    for fn in functions:
        assert inspect.signature(fn).parameters[dest].default == default


def test_exponents_invalid_params_exit_1(capsys):
    rc = main(["exponents", "--n", "5", "--p", "2.0", "--q", "1.9"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_then_classify_round_trip(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    csv = tmp_path / "orbit.csv"
    rc = main(["solve", "--config", str(ini), "--out", str(csv),
               "--start", "infinity"])
    assert rc == 0
    assert csv.exists()
    capsys.readouterr()

    rc = main(["classify", "--csv", str(csv), "--end", "infinity",
               *PARAM_FLAGS, "--window", "10", "14"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "slow_decay_singular"
    assert report["fitted_constant"] == pytest.approx(1.8367404753952032,
                                                      rel=5e-3)


def test_solve_series_start_is_the_shot(tmp_path, capsys):
    # solve --start series starts where shoot does, so with the same
    # horizon it writes the shot's trajectory
    ini = tmp_path / "run.ini"
    ini.write_text(INI + "\n[spans]\nt_min = -6.0\nt_max = 2.0\n")
    csv = tmp_path / "series.csv"
    assert main(["solve", "--config", str(ini), "--out", str(csv),
                 "--start", "series", "--a", "1.0"]) == 0
    shot = shoot(1.0, ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5),
                 t_target=2.0)
    write_trajectory_csv(shot.trajectory, tmp_path / "shot.csv")
    assert csv.read_bytes() == (tmp_path / "shot.csv").read_bytes()


@pytest.mark.parametrize("ini,a,message", [
    (INI, "-1.0", "amplitude must be positive"),
    ("[params]\nn = 3\np = 1.25\nq = 1.3\nl2 = -1.9\n", "1.0",
     "alpha1 = 8.0 underflows"),
])
def test_solve_series_start_errors(tmp_path, capsys, ini, a, message):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "x.csv"), "--start", "series",
                 "--a", a]) == 1
    assert message in capsys.readouterr().err


def test_connect_has_no_seed_offset():
    with pytest.raises(SystemExit) as exc:
        main(["connect", "--direction", "from_infinity", *PARAM_FLAGS,
              "--eps", "1e-4"])
    assert exc.value.code == 2


def readme_commands():
    """Every `emdenlab ...` command in the README's code blocks, with
    backslash continuations joined and # comments dropped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("emdenlab "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse(capsys):
    # parsed only, never run: a README showing a removed subcommand or
    # flag fails here
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: emdenlab "
                        f"{shlex.join(argv)}\n{capsys.readouterr().err}")


def test_classify_missing_file_exits_1(capsys):
    rc = main(["classify", "--csv", "/nonexistent/orbit.csv",
               "--end", "infinity", *PARAM_FLAGS])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_shoot_json(capsys):
    rc = main(["shoot", "--a", "1.0", *PARAM_FLAGS, "--t-target", "2.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == 1.0
    assert payload["r0"] < 1e-4
    assert payload["report"]["kind"] == "undetermined"


def test_shoot_needs_params(capsys):
    rc = main(["shoot", "--a", "1.0"])
    assert rc == 1
    assert "provide --config" in capsys.readouterr().err


def test_scan_writes_boundaries(tmp_path, capsys):
    out = tmp_path / "scan.json"
    rc = main(["scan", "--a-min", "1.0", "--a-max", "1.35", "--points", "16",
               *PARAM_FLAGS, "--t-target", "2.0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["a_grid"]) == 16
    assert len(payload["boundaries"]) == 1
    assert payload["boundaries"][0]["a_star"] == pytest.approx(
        1.2679701365338474, rel=1e-4)


@pytest.mark.parametrize("command,env,message", [
    ("scan", None, "--jobs must be >= 1, got 0"),
    ("sweep", None, "--jobs must be >= 1, got 0"),
    ("scan", "abc", "EMDEN_JOBS: cannot parse 'abc'"),
])
def test_bad_worker_count_exits_1(tmp_path, capsys, monkeypatch, command,
                                  env, message):
    monkeypatch.delenv("EMDEN_JOBS", raising=False)
    argv = [command]
    if env is None:
        argv += ["--jobs", "0"]
    else:
        monkeypatch.setenv("EMDEN_JOBS", env)
    if command == "scan":
        argv += PARAM_FLAGS
    else:
        ini = tmp_path / "run.ini"
        ini.write_text(INI + f"\n[output]\ndirectory = {tmp_path}/runs\n")
        argv += ["--config", str(ini)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_connect_json(capsys):
    rc = main(["connect", "--direction", "from_infinity", *PARAM_FLAGS])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["direction"] == "from_infinity"
    assert payload["report_infinity"]["kind"] == "slow_decay_singular"
    assert payload["report_origin"]["kind"] == "slow_decay_singular"


def test_connect_regime_mismatch_exits_1(capsys):
    rc = main(["connect", "--direction", "from_origin", *PARAM_FLAGS])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(INI + f"\n[spans]\nt_min = -6.0\nt_max = 6.0\n"
                         f"\n[output]\ndirectory = {tmp_path}/runs\n")
    rc = main(["sweep", "--config", str(ini)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 cells, 0 errors" in out


def test_verify_single_criterion_passes(capsys):
    rc = main(["verify", "--only", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "criterion 01" in out
    assert "PASS" in out
    assert "1/1 criteria passed" in out


def test_verify_mutated_tolerance_fails(capsys):
    rc = main(["verify", "--only", "2", "--mutate", "c2_profile_rel=1e-16"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_unknown_tolerance_exits_1(capsys):
    rc = main(["verify", "--only", "1", "--mutate", "nope=1"])
    assert rc == 1
    assert "unknown tolerance" in capsys.readouterr().err


def test_console_script_installed():
    # the subprocess imports the emdenlab under test, installed or not
    src = str(Path(emdenlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "emdenlab.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0


@pytest.mark.parametrize("argv", [
    ["shoot", "--a", "1.0"],
    ["scan", "--a-min", "1.0", "--a-max", "1.35", "--points", "16"],
])
def test_nonfinite_horizon_exits_1(capsys, argv):
    assert main([*argv, *PARAM_FLAGS, "--t-target", "inf"]) == 1
    assert "t_target must be finite, got inf" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # scipy is the tests' reference, not a runtime dependency
    src = str(Path(emdenlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, emdenlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
