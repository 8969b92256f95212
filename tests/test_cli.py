"""End-to-end tests for the command-line front end."""

import dataclasses
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import emdenlab
from emdenlab import ProblemParams, canonical_json, classify_end, \
    derive_constants, parse_run_config, shoot, shoot_many, shooting, sweep, \
    write_trajectory_csv
from emdenlab import cli
from emdenlab.cli import build_parser, main
from emdenlab.shooting import seed_and_integrate

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
    # scan --jobs changes nothing, but is checked as for sweep, with
    # sweep's default
    (["scan"], "jobs", [sweep]),
    (["sweep", "--config", "x.ini"], "jobs", [sweep]),
    (["shoot", "--a", "1"], "t_target", [shoot]),
    (["scan"], "t_target", [shoot_many, shoot]),
])
def test_parser_defaults_are_the_function_defaults(argv, dest, functions):
    default = getattr(build_parser().parse_args(argv), dest)
    for fn in functions:
        assert inspect.signature(fn).parameters[dest].default == default


def test_papers_equation_exit_0(capsys):
    # (1.4): the weights left at their defaults l1 = l2 = 0
    assert main(["exponents", "--n", "5", "--p", "1.9", "--q", "2.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    consts = payload["constants"]
    assert consts["sobolev1"] == consts["sobolev2"] == 7.0 / 3.0
    assert payload["regime"]["theorem1_applies"] is False
    assert main(["shoot", "--a", "1", "--n", "5", "--p", "1.9",
                 "--q", "2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["kind"] \
        == "crosses_zero"


def test_exponents_and_classify_take_the_config(tmp_path, capsys):
    # --config and the problem flags state the same problem, byte for byte
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    csv = tmp_path / "orbit.csv"
    assert main(["solve", "--config", str(ini), "--out", str(csv)]) == 0
    capsys.readouterr()
    for command in (["exponents"],
                    ["classify", "--csv", str(csv), "--end", "origin"]):
        assert main([*command, "--config", str(ini)]) == 0
        from_config = capsys.readouterr().out
        assert main([*command, *PARAM_FLAGS]) == 0
        assert capsys.readouterr().out == from_config


def test_classify_fits_rates_above_the_configs_atol(tmp_path, capsys):
    # a reloaded CSV is read as the run --config solved: its rate fit
    # keeps |v - lambda1| above 100 atol = 1e-7, and on [28, 32] no
    # sample is, so there is no rate (the default 1e-10 would fit one)
    ini = tmp_path / "run.ini"
    ini.write_text(INI + "[integrator]\natol = 1e-9\n"
                   "[spans]\nt_min = -6.0\nt_max = 32.0\n")
    csv = tmp_path / "orbit.csv"
    assert main(["solve", "--config", str(ini), "--out", str(csv)]) == 0
    capsys.readouterr()
    assert main(["classify", "--csv", str(csv), "--end", "infinity",
                 "--config", str(ini), "--window", "28", "32"]) == 0
    report = capsys.readouterr().out
    cfg = parse_run_config(ini)
    dc = derive_constants(cfg.params)
    run = seed_and_integrate(dc, "infinity", (cfg.t_min, cfg.t_max),
                             cfg.integrator)
    assert report == canonical_json(classify_end(
        run, dc, "infinity", window=(28.0, 32.0)).to_dict())
    assert json.loads(report)["rate"] is None


def test_exponents_invalid_params_exit_1(capsys):
    rc = main(["exponents", "--n", "5", "--p", "2.0", "--q", "1.9"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["exponents", "--n", "5", "--p", "3", "--q", "1", "--k2", "0"],
     "error: q must exceed 1, got 1.0\n"),
    (["shoot", "--a", "1"], "error: p must exceed 1, got 1.0\n"),
])
def test_unit_exponent_of_a_switched_off_term_exits_1(tmp_path, capsys,
                                                       argv, message):
    if argv[0] == "shoot":
        ini = tmp_path / "run.ini"
        ini.write_text("[params]\nn = 5\np = 1.0\nq = 3.0\nk1 = 0\n")
        argv = [*argv, "--config", str(ini)]
    assert main(argv) == 1
    assert capsys.readouterr().err == message


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


def test_shoot_out_is_the_shot(tmp_path, capsys):
    # shoot --out writes the shot's trajectory and still prints its report
    csv = tmp_path / "shot.csv"
    assert main(["shoot", "--a", "1.0", *PARAM_FLAGS, "--t-target", "2.0",
                 "--out", str(csv)]) == 0
    dc = derive_constants(ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5))
    shot = shoot(1.0, dc, t_target=2.0)
    assert capsys.readouterr().out == canonical_json(shot.to_dict())
    write_trajectory_csv(shot.trajectory, tmp_path / "lib.csv")
    assert csv.read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("ini,a,message", [
    (INI, "-1.0", "amplitude must be positive"),
    (INI, "1e200", "amplitude 1e+200 is too large"),
    ("[params]\nn = 3\np = 1.25\nq = 1.3\nl2 = -1.9\n", "1.0",
     "alpha1 = 8.0 underflows"),
    # the q-term's rate 2 + l2 = 0.1 underflows r0 itself to 0
    ("[params]\nn = 5\np = 1.9\nq = 1.95\nl2 = -1.9\n", "1e30",
     "u(0) = 1e+30 cannot start: its series radius r0 = 0.0 "),
], ids=["negative", "overflow", "v_underflow", "r0_underflow"])
def test_failed_shot_writes_no_csv(tmp_path, capsys, ini, a, message):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    csv = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["shoot", "--config", str(path), "--out", str(csv),
                     "--a", a]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not csv.exists()


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


def test_readme_library_sketch_runs(capsys):
    # run, not parsed: a README calling a changed signature fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sketch, = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```",
                         readme, re.S | re.M)
    exec(compile(sketch, "README.md", "exec"), {})
    assert "slow_decay_singular" in capsys.readouterr().out.lower()


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


def _worker_argv(command, tmp_path):
    """A small scan, or a one-cell sweep writing under tmp_path/runs."""
    if command == "scan":
        return ["scan", "--a-min", "1.0", "--a-max", "1.35", "--points",
                "16", *PARAM_FLAGS, "--t-target", "2.0"]
    ini = tmp_path / "run.ini"
    ini.write_text(INI + "\n[spans]\nt_min = -6.0\nt_max = 6.0\n"
                         f"\n[output]\ndirectory = {tmp_path}/runs\n")
    return ["sweep", "--config", str(ini)]


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["scan", "sweep"])
def test_bad_worker_count_exits_1(tmp_path, capsys, command, jobs):
    assert main([*_worker_argv(command, tmp_path), "--jobs", jobs]) == 1
    assert f"error: jobs must be >= 1, got {jobs}" \
        in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv,message", [
    (["--points", "16", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["--points", "8"], "grid needs >= 16 points, got 8"),
    (["--a-min", "10", "--a-max", "1"], "grid must be strictly increasing"),
    (["--points", "-1"], "grid needs >= 16 points, got -1"),
], ids=["jobs", "points", "order", "negative_points"])
def test_bad_jobs_fails_before_the_first_shot(capsys, monkeypatch, argv,
                                              message):
    def no_shot(*args, **kwargs):
        raise AssertionError("a shot ran before the scan was checked")

    monkeypatch.setattr(cli, "shoot_many", no_shot)
    monkeypatch.setattr(shooting, "shoot_many", no_shot)
    assert main(["scan", *PARAM_FLAGS, *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--a-min", "--a-max"])
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_scan_amplitude_bounds_are_named(capsys, flag, value):
    # a bad bound is named before the grid is built: np.log10 would
    # warn on it, and the grid it made would fail as "not increasing"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", *PARAM_FLAGS, flag, value]) == 1
    assert capsys.readouterr().err == (
        f"error: {flag} must be positive and finite, got {float(value)!r}\n")


def test_shoot_names_a_nonfinite_amplitude(capsys):
    assert main(["shoot", "--a", "inf", *PARAM_FLAGS]) == 1
    assert capsys.readouterr().err \
        == "error: amplitude must be positive and finite, got inf\n"


@pytest.mark.parametrize("command", ["scan", "sweep"])
def test_environment_does_not_set_jobs(tmp_path, capsys, monkeypatch,
                                       command):
    # the worker count is --jobs alone; no environment variable is read
    monkeypatch.setenv("EMDEN_JOBS", "abc")
    assert main(_worker_argv(command, tmp_path)) == 0
    assert capsys.readouterr().err == ""


def test_connect_json(capsys):
    rc = main(["connect", "--direction", "from_infinity", *PARAM_FLAGS])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["direction"] == "from_infinity"
    assert payload["report_infinity"]["kind"] == "slow_decay_singular"
    assert payload["report_origin"]["kind"] == "slow_decay_singular"


@pytest.mark.parametrize("command", [
    ["shoot", "--a", "1.0"],
    ["scan", "--points", "16"],
    ["connect", "--direction", "from_infinity"],
    ["exponents"],
    ["classify", "--csv", "orbit.csv", "--end", "infinity"],
])
def test_problem_flags_beside_config_exit_1(tmp_path, capsys, command):
    # the problem comes from one source: --config or the flags, never a
    # mix where the flags would be silently dropped
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    rc = main([*command, "--config", str(ini), "--p", "2.3", "--q", "2.5"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --config sets the problem; drop --p --q" in err


@pytest.mark.parametrize("params, direction, spans", [
    (INI, "from_infinity", "t_min = -34\nt_max = 14\n"),
    (INI.replace("p = 1.9", "p = 2.5").replace("q = 1.95", "q = 3.0"),
     "from_origin", "t_min = -10\nt_max = 20\n"),
])
def test_solve_and_connect_write_one_seeded_path(tmp_path, capsys, params,
                                                direction, spans):
    # solve seeds its end on that end's side of [spans], connect on its
    # side of the direction's default span: over the same span they are
    # one run and write the same bytes
    ini = tmp_path / "run.ini"
    ini.write_text(params + "[spans]\n" + spans)
    solved, connected = tmp_path / "solve.csv", tmp_path / "connect.csv"
    assert main(["solve", "--config", str(ini), "--out", str(solved),
                 "--start", direction.removeprefix("from_")]) == 0
    assert main(["connect", "--direction", direction, "--config", str(ini),
                 "--out", str(connected)]) == 0
    capsys.readouterr()
    assert solved.read_bytes() == connected.read_bytes()


def test_overflowing_span_exits_1(tmp_path, capsys):
    # over [spans] -1500 to 20 the initial step's probe, capped at the
    # span as scipy caps it, evaluates the forced term near t = -1500,
    # whose exponential overflows: one line names where, and no numpy
    # warning escapes (the tests run warnings as errors)
    ini = tmp_path / "run.ini"
    ini.write_text("[params]\nn = 5\np = 2.5\nq = 3.0\nl1 = 0.0\nl2 = -0.5\n"
                   "[spans]\nt_min = -1500\nt_max = 20\n")
    csv = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(ini), "--out", str(csv),
                 "--start", "infinity"]) == 1
    assert capsys.readouterr().err == (
        "error: non-finite state during integration at t=-1500.0: "
        "v=1.7029097001250446, vdot=1.7457768423336394e-07, vddot=-inf\n")
    assert not csv.exists()


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


@pytest.mark.parametrize("item, message", [
    ("c5_min_extrema=inf", "--mutate c5_min_extrema is int-valued, "
                           "got 'inf'"),
    ("c5_min_extrema=6.5", "--mutate c5_min_extrema is int-valued, "
                           "got '6.5'"),
    ("c1_profile_rel=abc", "--mutate c1_profile_rel is float-valued, "
                           "got 'abc'"),
])
def test_verify_bad_tolerance_value_exits_1(capsys, item, message):
    # an integer tolerance is parsed as an integer, never truncated
    assert main(["verify", "--only", "1", "--mutate", item]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_integer_tolerance_is_parsed_whole(monkeypatch):
    seen = {}

    def recording_run_acceptance(only, overrides):
        seen.update(overrides)
        return []

    monkeypatch.setattr(cli, "run_acceptance", recording_run_acceptance)
    assert main(["verify", "--mutate", "c5_min_extrema=7",
                 "--mutate", "c1_profile_rel=2e-8"]) == 0
    assert seen == {"c5_min_extrema": 7, "c1_profile_rel": 2e-8}
    assert type(seen["c5_min_extrema"]) is int


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


@pytest.mark.parametrize("argv", [
    ["shoot", "--a", "1"],
    ["scan", "--points", "16"],
])
def test_horizon_before_the_start_exits_1(tmp_path, capsys, argv):
    # the shots start near t = ln 1e-4: a horizon at -20 lies behind them
    out = tmp_path / "out.json"
    if argv[0] == "scan":
        argv = [*argv, "--out", str(out)]
    assert main([*argv, *PARAM_FLAGS, "--t-target", "-20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: t_target = -20\.0 must exceed the shot's "
                        r"start t = ln r0 = -\d+\.\d+\n", captured.err)
    assert not out.exists()


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
