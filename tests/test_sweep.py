"""Tests for INI parsing, config hashing, and the sweep driver."""

import dataclasses
import hashlib
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from emdenlab import (
    IntegratorConfig,
    RunConfig,
    __version__,
    config_hash,
    expanded_axes,
    parse_run_config,
    parse_run_config_text,
    run_id_of,
    sweep,
    write_trajectory_csv,
)
from emdenlab.params import ProblemParams
from emdenlab.sweep import effective_jobs, map_jobs

# the module: the package's `sweep` is the function
sweep_module = importlib.import_module("emdenlab.sweep")

BASE_INI = """\
[params]
n = 5
p = 1.9
q = 1.95
l1 = 0.0
l2 = -0.5

[spans]
t_min = -6.0
t_max = 6.0
"""


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_run_config_text(BASE_INI)
        assert cfg.params == ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5)
        assert cfg.t_min == -6.0
        assert cfg.t_max == 6.0
        # defaults
        assert cfg.output_dir == "out"
        assert cfg.axes == {}
        assert cfg.integrator == IntegratorConfig()

    def test_integrator_and_output_sections(self):
        text = BASE_INI + (
            "\n[integrator]\nrtol = 1e-8\nmax_step = 0.1\n"
            "\n[output]\ndirectory = runs/demo\n"
        )
        cfg = parse_run_config_text(text)
        assert cfg.integrator.rtol == 1e-8
        assert cfg.integrator.max_step == 0.1
        assert cfg.integrator.atol == 1e-12
        assert cfg.output_dir == "runs/demo"

    def test_sweep_axes_parse_as_lists(self):
        text = BASE_INI + "\n[sweep]\np = 1.88, 1.9, 1.92\nq = 1.95,1.97\n"
        cfg = parse_run_config_text(text)
        assert list(cfg.axes["p"]) == [1.88, 1.9, 1.92]
        assert list(cfg.axes["q"]) == [1.95, 1.97]

    def test_n_axis_coerces_to_int(self):
        text = BASE_INI + "\n[sweep]\nn = 4, 5, 6\n"
        cfg = parse_run_config_text(text)
        assert list(cfg.axes["n"]) == [4, 5, 6]
        assert all(isinstance(v, int) for v in cfg.axes["n"])

    def test_unknown_section_rejected_by_name(self):
        with pytest.raises(ValueError, match="telemetry"):
            parse_run_config_text(BASE_INI + "\n[telemetry]\nrate = 1\n")

    def test_seed_section_is_unknown(self):
        # every run starts on the closed-form forced expansion; no seed
        # offset is configurable
        with pytest.raises(ValueError, match=r"unknown section \[seed\]"):
            parse_run_config_text(BASE_INI + "\n[seed]\neps_scale = 1e-4\n")

    def test_jobs_key_is_unknown(self):
        # the worker count is sweep's jobs argument (--jobs), never part
        # of a run configuration
        with pytest.raises(ValueError,
                           match=re.escape("unknown key 'jobs' in [sweep]")):
            parse_run_config_text(BASE_INI + "\n[sweep]\njobs = 4\n")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="colour"):
            parse_run_config_text(BASE_INI + "\n[output]\ncolour = blue\n")

    def test_missing_required_param(self):
        bad = "[params]\nn = 5\np = 1.9\n"
        with pytest.raises(ValueError, match="q"):
            parse_run_config_text(bad)

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE_INI)
        assert parse_run_config(path) == parse_run_config_text(BASE_INI)

    @pytest.mark.parametrize("old,new,message", [
        ("p = 1.9", "p = x", "[params] p: cannot parse 'x'"),
        ("n = 5", "n = 5.5", "[params] n: cannot parse '5.5'"),
        ("l2 = -0.5", "l2 = -0.5\nk1 = x", "[params] k1: cannot parse 'x'"),
        ("l2 = -0.5", "l2 = -0.5\nk2 = x", "[params] k2: cannot parse 'x'"),
        ("t_max = 6.0", "t_max = 6.0\n[sweep]\nn = 4.5, 5.9",
         "[sweep] n: cannot parse '4.5' as an integer"),
    ])
    def test_unparseable_value_names_section_and_key(self, old, new,
                                                     message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_run_config_text(BASE_INI.replace(old, new))

    def test_toggles_accept_float_text_and_stay_binary(self):
        cfg = parse_run_config_text(
            BASE_INI.replace("l2 = -0.5", "l2 = -0.5\nk1 = 1.0\nk2 = 0"))
        assert (cfg.params.k1, cfg.params.k2) == (1.0, 0.0)
        with pytest.raises(ValueError, match="toggles"):
            parse_run_config_text(
                BASE_INI.replace("l2 = -0.5", "l2 = -0.5\nk1 = 0.5"))

    # one non-default value per scalar key: (section, key, text, value)
    NON_DEFAULT = [
        ("params", "n", "6", 6), ("params", "p", "1.8", 1.8),
        ("params", "q", "2.0", 2.0), ("params", "l1", "-0.2", -0.2),
        ("params", "l2", "-0.7", -0.7), ("params", "k1", "0", 0.0),
        ("params", "k2", "0", 0.0),
        ("integrator", "rtol", "1e-9", 1e-9),
        ("integrator", "atol", "1e-11", 1e-11),
        ("integrator", "max_step", "0.04", 0.04),
        ("integrator", "amplitude_cap", "1e7", 1e7),
        ("integrator", "dense_output_stride", "0.02", 0.02),
        ("spans", "t_min", "-7", -7.0), ("spans", "t_max", "7", 7.0),
        ("output", "directory", "elsewhere", "elsewhere"),
    ]
    RUN_FIELD = {"t_min": "t_min", "t_max": "t_max",
                 "directory": "output_dir"}

    def test_schema_covers_every_scalar_field(self):
        keys = {(sec, key) for sec, key, _, _ in self.NON_DEFAULT}
        assert {k for sec, k in keys if sec == "params"} \
            == {f.name for f in dataclasses.fields(ProblemParams)}
        assert {k for sec, k in keys if sec == "integrator"} \
            == {f.name for f in dataclasses.fields(IntegratorConfig)}
        assert {self.RUN_FIELD[k] for sec, k in keys
                if sec not in ("params", "integrator")} \
            == {f.name for f in dataclasses.fields(RunConfig)} \
            - {"params", "integrator", "axes"}

    @pytest.mark.parametrize("section,key,text,value", NON_DEFAULT)
    def test_key_parses_into_its_field(self, section, key, text, value):
        # every other key is omitted and takes its dataclass default;
        # l2 = -0.5 because l1 = l2 = 0 is invalid with both terms on,
        # so the default l2 is read with the q-term off
        given = {"n": 5, "p": 1.9, "q": 1.95}
        if key != "k2":
            given["l2"] = -0.5
        ini = "[params]\n" + "".join(f"{k} = {v}\n" for k, v in
                                      given.items() if k != key)
        ini += ("" if section == "params" else f"[{section}]\n")
        ini += f"{key} = {text}\n"
        if section == "params":
            given[key] = value
        expected = RunConfig(ProblemParams(**given))
        if section == "integrator":
            expected = dataclasses.replace(
                expected, integrator=IntegratorConfig(**{key: value}))
        elif section != "params":
            expected = dataclasses.replace(
                expected, **{self.RUN_FIELD[key]: value})
        assert parse_run_config_text(ini) == expected

    def test_expanded_axes_singleton_fallback(self):
        cfg = parse_run_config_text(BASE_INI + "\n[sweep]\np = 1.88, 1.92\n")
        axes = expanded_axes(cfg)
        assert list(axes["p"]) == [1.88, 1.92]
        assert list(axes["q"]) == [1.95]
        assert list(axes["n"]) == [5]


class TestConfigHash:
    def test_hash_ignores_output_dir(self):
        a = parse_run_config_text(BASE_INI)
        b = parse_run_config_text(
            BASE_INI + "\n[output]\ndirectory = elsewhere\n"
        )
        assert config_hash(a) == config_hash(b)

    def test_hash_changes_with_params(self):
        a = parse_run_config_text(BASE_INI)
        b = parse_run_config_text(BASE_INI.replace("q = 1.95", "q = 1.96"))
        assert config_hash(a) != config_hash(b)

    def test_hash_changes_with_axes(self):
        a = parse_run_config_text(BASE_INI)
        b = parse_run_config_text(BASE_INI + "\n[sweep]\np = 1.88, 1.9\n")
        assert config_hash(a) != config_hash(b)

    def test_readme_example_run_id_is_pinned(self):
        # the [params]..[sweep] example of README.md, inline comments
        # included, and the variant with the example's earlier
        # integrator lines (rtol 1e-10, max_step 0.05).  Both ids moved
        # once, from e8984ac89fa3 and ca513ae0e09e, when the [seed]
        # section left the schema: the seed changed, so the same config
        # writes different cell files
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert run_id_of(parse_run_config_text(text)) == "4a0f3a15e4ee"
        earlier = text.replace("rtol = 1e-11\n", "rtol = 1e-10\n") \
            .replace("max_step = 0.1\n", "max_step = 0.05\n")
        assert run_id_of(parse_run_config_text(earlier)) == "edea63768b64"

    def test_every_hashed_field_moves_the_hash(self):
        base = parse_run_config_text(BASE_INI)
        perturbed = {
            "params": {"n": 6, "p": 1.91, "q": 1.96, "l1": -0.1,
                       "l2": -0.6, "k1": 0.0, "k2": 0.0},
            "integrator": {"rtol": 1e-9, "atol": 1e-11, "max_step": 0.04,
                           "amplitude_cap": 1e7,
                           "dense_output_stride": 0.02},
            "t_min": -7.0, "t_max": 7.0,
            "axes": {"p": [1.88, 1.9]},
        }
        unhashed = {"output_dir"}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(perturbed) == fields - unhashed
        seen = {config_hash(base)}
        for name, new in perturbed.items():
            if isinstance(new, dict) and name != "axes":
                sub = getattr(base, name)
                assert set(new) == {f.name for f in dataclasses.fields(sub)}
                variants = [dataclasses.replace(sub, **{k: v})
                            for k, v in new.items()]
            else:
                variants = [new]
            for val in variants:
                h = config_hash(dataclasses.replace(base, **{name: val}))
                assert h not in seen, (name, val)
                seen.add(h)

    def test_run_id_is_hash_prefix(self):
        cfg = parse_run_config_text(BASE_INI)
        rid = run_id_of(cfg)
        assert len(rid) == 12
        assert config_hash(cfg).startswith(rid)


class TestSweep:
    def _cfg(self, tmp_path, extra=""):
        text = BASE_INI + f"\n[output]\ndirectory = {tmp_path}/runs\n" + extra
        return parse_run_config_text(text)

    def test_single_cell_manifest(self, tmp_path):
        cfg = self._cfg(tmp_path)
        manifest = sweep(cfg)
        assert manifest.data["run_id"] == run_id_of(cfg)
        assert manifest.data["config_hash"] == config_hash(cfg)
        assert len(manifest.cells) == 1
        cell = manifest.cells[0]
        assert cell["params"]["q"] == 1.95
        assert cell["error"] is None
        assert "constants" in cell and "regime" in cell
        assert set(cell["kinds"]) == {"infinity", "origin"}
        traj_file = manifest.path.parent / cell["files"][0]
        assert traj_file.exists()

    def test_rerun_is_noop(self, tmp_path):
        cfg = self._cfg(tmp_path)
        first = sweep(cfg)
        stamp = first.path.stat().st_mtime_ns
        second = sweep(cfg)
        assert second.path == first.path
        assert second.path.stat().st_mtime_ns == stamp
        assert second.data["cells"] == first.data["cells"]

    def test_rerun_with_a_missing_cell_file_is_recomputed(self, tmp_path):
        cfg = self._cfg(tmp_path, extra="\n[sweep]\np = 1.88, 1.9\n")
        first = sweep(cfg)
        inode = first.path.stat().st_ino
        lost = first.path.parent / "cells" / "0001" / "trajectory.csv"
        want = lost.read_bytes()
        lost.unlink()
        second = sweep(cfg)
        assert lost.read_bytes() == want
        assert second.data["cells"] == first.data["cells"]
        assert second.path.stat().st_ino != inode  # the manifest rewritten

    def test_rerun_with_a_truncated_cell_file_is_recomputed(self, tmp_path):
        # the file still exists, but its bytes no longer match the sha256
        # its cell records
        cfg = self._cfg(tmp_path, extra="\n[sweep]\np = 1.88, 1.9\n")
        first = sweep(cfg)
        name = first.cells[1]["files"][0]
        cut = first.path.parent / name
        want = cut.read_bytes()
        assert first.cells[1]["sha256"] == {
            name: hashlib.sha256(want).hexdigest()}
        cut.write_bytes(want[:500])
        second = sweep(cfg)
        assert cut.read_bytes() == want
        assert second.data["cells"] == first.data["cells"]

    def test_truncated_manifest_is_recomputed(self, tmp_path):
        cfg = self._cfg(tmp_path)
        first = sweep(cfg)
        text = first.path.read_text()
        first.path.write_text(text[: len(text) // 2])
        second = sweep(cfg)
        assert second.data["cells"] == first.data["cells"]
        assert json.loads(second.path.read_text())["cells"] \
            == json.loads(text)["cells"]
        assert [p.name for p in second.path.parent.iterdir()
                if p.suffix == ".tmp"] == []

    def test_manifest_from_other_tool_version_is_recomputed(self, tmp_path):
        cfg = self._cfg(tmp_path)
        first = sweep(cfg)
        stale = dict(first.data, tool_version="0.0.0-stale")
        first.path.write_text(json.dumps(stale))
        second = sweep(cfg)
        assert second.data["tool_version"] == __version__
        assert json.loads(second.path.read_text())["tool_version"] \
            == __version__

    def test_cell_error_isolated(self, tmp_path):
        # p axis value 2.1 with q = 1.95 violates p < q in that one cell
        cfg = self._cfg(tmp_path, extra="\n[sweep]\np = 1.9, 2.1\n")
        manifest = sweep(cfg)
        assert len(manifest.cells) == 2
        ok = [c for c in manifest.cells if c["error"] is None]
        bad = [c for c in manifest.cells if c["error"] is not None]
        assert len(ok) == 1 and len(bad) == 1
        assert bad[0]["params"]["p"] == 2.1
        assert "ValueError" in bad[0]["error"]
        assert "kinds" in ok[0]

    def test_cell_params_are_the_dataclass_fields(self, tmp_path):
        cfg = self._cfg(tmp_path, extra="\n[sweep]\np = 1.88, 1.9\n")
        manifest = sweep(cfg)
        assert [c["params"] for c in manifest.cells] == [
            dataclasses.asdict(dataclasses.replace(cfg.params, p=p))
            for p in (1.88, 1.9)]

    def test_environment_does_not_set_jobs(self, tmp_path, monkeypatch):
        # the worker count is the jobs argument alone
        monkeypatch.setenv("EMDEN_JOBS", "abc")
        manifest = sweep(self._cfg(tmp_path))
        assert manifest.cells[0]["error"] is None

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, 2.0])
    def test_worker_count_below_1_rejected(self, tmp_path, jobs):
        # the one effective_jobs check, before any directory is made
        message = f"jobs must be >= 1, got {jobs}" if isinstance(jobs, int) \
            else f"jobs must be an integer, got {jobs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            effective_jobs(jobs)
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(self._cfg(tmp_path), jobs=jobs)
        assert not (tmp_path / "runs").exists()

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
        assert [effective_jobs(j) for j in (1, 2, 8)] == [1, 2, 2]
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: None)
        assert effective_jobs(8) == 1

    @pytest.mark.parametrize("jobs,want", [
        (np.int64(2), 2), (True, "jobs must be an integer, got True"),
        (np.True_, "jobs must be an integer, got np.True_"),
    ], ids=["numpy-int", "bool", "numpy-bool"])
    def test_worker_count_is_an_integer_not_a_bool(self, jobs, want,
                                                  monkeypatch):
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 4)
        if isinstance(want, int):
            got = effective_jobs(jobs)
            assert got == want and type(got) is int
            return
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            effective_jobs(jobs)

    def test_one_worker_maps_in_process(self, monkeypatch):
        # a lambda cannot be pickled, so this only passes without a pool
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 1)
        assert map_jobs(lambda x: 2 * x, [(3,), (1,), (2,)], 8) == [6, 2, 4]
        # no more workers than calls: one call starts no pool either
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
        assert map_jobs(lambda x, y: x - y, [(3, 1)], 8) == [2]
        assert map_jobs(lambda x: 2 * x, [], 8) == []

    def test_axes_product_order(self, tmp_path):
        cfg = self._cfg(tmp_path, extra="\n[sweep]\np = 1.88, 1.9\nq = 1.95, 1.97\n")
        manifest = sweep(cfg)
        combos = [(c["params"]["p"], c["params"]["q"]) for c in manifest.cells]
        assert combos == [(1.88, 1.95), (1.88, 1.97), (1.9, 1.95), (1.9, 1.97)]

    def test_parallel_matches_serial(self, tmp_path):
        cfg_a = self._cfg(tmp_path / "a", extra="\n[sweep]\np = 1.88, 1.9, 1.92\n")
        cfg_b = self._cfg(tmp_path / "b", extra="\n[sweep]\np = 1.88, 1.9, 1.92\n")
        m_serial = sweep(cfg_a)
        m_par = sweep(cfg_b, jobs=4)
        da = dict(m_serial.data)
        db = dict(m_par.data)
        da.pop("wall_clock_seconds")
        db.pop("wall_clock_seconds")
        assert da == db
        for ca, cb in zip(m_serial.cells, m_par.cells):
            fa = m_serial.path.parent / ca["files"][0]
            fb = m_par.path.parent / cb["files"][0]
            assert fa.read_bytes() == fb.read_bytes()

    def test_run_config_direct_construction(self, tmp_path):
        params = ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5)
        cfg = RunConfig(params=params, output_dir=str(tmp_path / "o"))
        assert cfg.t_min == -14.0 and cfg.t_max == 14.0
        manifest = sweep(cfg)
        kinds = manifest.cells[0]["kinds"]
        assert kinds["infinity"] == "slow_decay_singular"

    def test_cell_matches_connecting_orbit(self, tmp_path, orbit_a):
        # the default from_infinity crossing span: the sweep cell runs
        # the same seed-and-cross step as connecting_orbit
        cfg = dataclasses.replace(
            parse_run_config_text(
                BASE_INI.replace("t_min = -6.0", "t_min = -34.0")
                .replace("t_max = 6.0", "t_max = 14.0")),
            output_dir=str(tmp_path / "runs"))
        manifest = sweep(cfg)
        cell = manifest.cells[0]
        assert cell["seeded_end"] == "infinity"
        assert cell["reports"] == {
            "infinity": orbit_a.report_infinity.to_dict(),
            "origin": orbit_a.report_origin.to_dict()}
        write_trajectory_csv(orbit_a.trajectory, tmp_path / "orbit.csv")
        assert (manifest.path.parent / cell["files"][0]).read_bytes() \
            == (tmp_path / "orbit.csv").read_bytes()

    def test_readme_cell_3_origin_has_no_rate(self, tmp_path):
        # cell 3 of the README 3x3 sweep (p = 1.9, q = 1.93): on the
        # origin window [-14, -10] |v - lambda2| swings through about one
        # spiral period, so there is no clean decay to fit (a log-linear
        # fit read -0.204; the linearisation gives +0.113)
        params = ProblemParams(n=5, p=1.9, q=1.93, l1=0.0, l2=-0.5)
        manifest = sweep(RunConfig(params, output_dir=str(tmp_path)))
        report = manifest.cells[0]["reports"]["origin"]
        assert report["window"] == [-14.0, -10.0]
        assert report["kind"] == "slow_decay_singular"
        assert report["rate"] is None
