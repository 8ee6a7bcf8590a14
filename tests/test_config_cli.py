import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonstatcov as nc
from nonstatcov import cli, experiments
from nonstatcov.config import (COMPANIONS, EXPERIMENT_KINDS, GRID_FIELDS,
                               MODEL_FAMILIES, PARTIAL_GAP_FIELDS, REQUIRED,
                               coefficient_fn_to_json, config_digest, load_config,
                               model_from_json, model_to_json, partial_gaps_apply)
from nonstatcov.errors import ConfigError, InputError
from nonstatcov.experiments import run_experiment, write_report
from nonstatcov.models import COEFFICIENT_FORMS


_VMA = {"family": "tv_vma", "p": 1, "coefficients": [{"form": "constant",
                                                      "value": [[1.0]]}]}
_SRE = {"family": "sre", "p": 1, "a_scale": {"form": "constant", "value": [[0.3]]},
        "a_matrix": [[1.0]], "b_scale": {"form": "constant", "value": [[1.0]]}}


def _sinusoidal(**fields):
    return {"form": "sinusoidal", "base": [[0.3]], "amplitude": [[0.1]], **fields}


def minimal_config(experiment="decay", **grid):
    base_grid = {"N": 100, "t_lo": 30, "t_hi": 70}
    base_grid.update(grid)
    return {"experiment": experiment, "seed": 11,
            "model": {"reference": "tvvma_kappa4_p2"}, "grid": base_grid}


#: ``model_hash`` of every reference model; the hash is in every table row.
REFERENCE_MODEL_HASHES = {
    "ar1_phi05": "30df0d9751eb", "sre_p2": "2324e4a7dab4",
    "tvarch_order2": "e3533b22015d", "tvvar1_p3": "7143253d5fab",
    "tvvma_kappa4_p1": "1fa120c5d01d", "tvvma_kappa4_p2": "13f591520d52",
    "tvvma_plain_p2": "c1843c09a973", "white_noise_p2": "228eac979853",
}


class TestModelSerialization:
    @pytest.mark.parametrize("name", ["tvvma_kappa4_p2", "white_noise_p2", "tvvar1_p3",
                                      "sre_p2", "tvarch_order2"])
    def test_round_trip(self, name):
        # every family, a tv_vma with and without its optional fields
        model = nc.get_reference_model(name)
        back = model_from_json(model_to_json(model))
        assert type(back) is type(model)
        assert model_to_json(back) == model_to_json(model)
        u_grid = [0.0, 0.3, 0.77]
        if isinstance(model, nc.TvVMA):
            for u in u_grid:
                assert np.allclose(back.psi_stack(u), model.psi_stack(u))
        elif isinstance(model, nc.TvVAR):
            for u in u_grid:
                assert np.allclose(back.phi_stack(u), model.phi_stack(u))
                assert np.allclose(back.sigma_at(u), model.sigma_at(u))
        elif isinstance(model, nc.TvARCH):
            for u in u_grid:
                assert np.allclose(back.a_values(u), model.a_values(u))
        else:
            assert np.allclose(back.a_matrix, model.a_matrix)

    def test_coefficient_forms_round_trip(self):
        fns = [nc.constant_fn([[1.0, 0.0], [0.0, 2.0]]),
               nc.affine_fn([[0.1]], [[0.5]]),
               nc.sinusoidal_fn([[0.3]], [[0.2]], frequency=2.0, phase=0.25),
               nc.CoefficientFn("piecewise", {
                   "knots": np.array([0.0, 0.4, 1.0]),
                   "values": np.array([[[1.0]], [[2.0]], [[0.5]]])})]
        assert [fn.form for fn in fns] == list(COEFFICIENT_FORMS)
        for fn in fns:
            back = model_from_json({"family": "tv_vma", "p": fn.dim,
                                    "coefficients": [coefficient_fn_to_json(fn)]})
            assert coefficient_fn_to_json(back.psis[0]) == coefficient_fn_to_json(fn)
            us = np.array([0.0, 0.2, 0.9, 1.0])
            assert np.array_equal(back.psis[0].at(us), fn.at(us))

    def test_reference_model_hashes_are_pinned(self):
        assert set(REFERENCE_MODEL_HASHES) == set(nc.REFERENCE_BUILDERS)
        for name, want in REFERENCE_MODEL_HASHES.items():
            model = nc.get_reference_model(name)
            assert config_digest(model_to_json(model))[:12] == want, name
            loaded = load_config({"experiment": "decay", "seed": 1,
                                  "model": {"reference": name}})
            assert loaded.model_hash == want, name


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            load_config({"experiment": "frobnicate", "seed": 1,
                         "model": {"reference": "ar1_phi05"}})
        assert "/experiment" in str(err.value)

    def test_missing_seed(self):
        with pytest.raises(ConfigError) as err:
            load_config({"experiment": "decay",
                         "model": {"reference": "ar1_phi05"}})
        assert "/seed" in str(err.value)

    def test_bad_matrix_pointer(self):
        cfg = {"experiment": "decay", "seed": 1,
               "model": {"family": "tv_var", "p": 1,
                         "coefficients": [{"form": "constant",
                                           "value": [[1.0, 2.0]]}],
                         "innovation_variance": {"form": "constant",
                                                 "value": [[1.0]]}}}
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert "/model/coefficients/0/value" in str(err.value)

    def test_subcommand_conflict(self):
        with pytest.raises(ConfigError):
            load_config(minimal_config("decay"), default_experiment="invert")

    def test_subcommand_fills_missing_experiment(self):
        cfg = minimal_config()
        del cfg["experiment"]
        loaded = load_config(cfg, default_experiment="decay")
        assert loaded.experiment == "decay"

    def test_empty_grid_fills_the_former_runner_defaults(self):
        want = {
            "simulate": {"N": 200, "t_lo": 0, "t_hi": 199},
            "decay": {"N": 200, "t_lo": 60, "t_hi": 140, "kappa": None},
            "invert": {"N": 200, "window": 240, "pad": 60},
            "neumann": {"count": 50, "N": 200},
            "var": {"N": 200, "t": 100, "orders": (1, 2, 4, 8), "kappa": None},
            "baxter": {"N": 200, "t": 100, "orders": (5, 10, 20, 40)},
            "smoothness": {"Ns": (100, 200, 400)},
            "partial": {"count": 100, "p": 3, "length": 20, "N": 200,
                        "a": 0, "b": 1, "t": 100, "kappa": 4.0},
            "coherence": {"a": 0, "b": 1, "Ns": (200, 400), "u": 0.3,
                          "max_lag": 40, "omega_points": 65},
            "physical": {"N": 200, "t": 100, "reps": 5000,
                         "js": (1, 2, 3, 4, 5, 6, 7, 8)},
            "verify-all": {"checks": None},
        }
        assert tuple(want) == EXPERIMENT_KINDS
        for experiment, grid in want.items():
            loaded = load_config({"experiment": experiment, "seed": 1,
                                  "model": {"reference": "tvvma_kappa4_p2"},
                                  "grid": {}})
            assert loaded.grid == grid, experiment
        # callable defaults follow the fields given before them
        for experiment, given_grid, filled in (
                ("simulate", {"N": 50, "t_lo": -5}, {"t_hi": 44}),
                ("var", {"N": 51}, {"t": 25}),
                ("partial", {"N": 7}, {"t": 3})):
            grid = load_config({"experiment": experiment, "seed": 1,
                                "model": {"reference": "tvvma_kappa4_p2"},
                                "grid": given_grid}).grid
            assert {k: grid[k] for k in filled} == filled

    @settings(max_examples=300, deadline=None)
    @example(experiment="coherence", reference="tvvar1_p3", grid={"u": 10**400})
    @given(experiment=st.sampled_from(EXPERIMENT_KINDS),
           reference=st.sampled_from(["tvvma_kappa4_p2", "tvvar1_p3",
                                      "ar1_phi05", "sre_p2"]),
           grid=st.dictionaries(
               st.one_of(st.sampled_from(sorted({k for fields in GRID_FIELDS.values()
                                                 for k in fields})),
                         st.text(max_size=3)),
               st.one_of(st.sampled_from([10**400, -10**400, [], [5, 5], [0]]),
                         st.integers(-10**400, 10**400), st.integers(-3, 300),
                         st.booleans(), st.none(), st.text(max_size=3),
                         st.floats(allow_nan=True, allow_infinity=True),
                         st.lists(st.one_of(st.integers(-3, 60), st.booleans(),
                                            st.floats(), st.text(max_size=3),
                                            st.sampled_from(["inverse_decay",
                                                             "ar1_analytic"])),
                                  max_size=4)),
               max_size=6))
    def test_generated_grids_load_or_name_a_grid_field(self, experiment,
                                                       reference, grid):
        cfg = {"experiment": experiment, "seed": 1,
               "model": {"reference": reference}, "grid": grid}
        try:
            loaded = load_config(cfg)
        except ConfigError as exc:
            p = nc.get_reference_model(reference).p
            if exc.path == "/model":
                assert experiment == "coherence" and p < 2
            else:
                assert exc.path.startswith("/grid/")
                assert exc.path[len("/grid/"):] in set(grid) | set(
                    GRID_FIELDS[experiment])
                assert str(exc).startswith(f"{exc.path}: ")
        else:
            assert list(loaded.grid) == list(GRID_FIELDS[experiment])
            assert set(grid) <= set(loaded.grid)


#: The grid test's junk values, plus matrices that are not numeric or square.
_JUNK = st.one_of(st.sampled_from([10**400, -10**400, [], [5, 5], [0], [[[0.5, 1.0]]],
                                   [[1.0], [2.0, 3.0]], [["a"]], [[True]], {}]),
                  st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _tagged_objects(draw, tag, table, fields_of):
    """An object whose ``tag`` is mostly a key of ``table``, with most of the
    fields that key takes, mostly well formed for a p = 1 model, and maybe an
    unknown field; everything else is junk."""
    name = draw(st.sampled_from(list(table))) if draw(st.integers(0, 9)) else draw(_JUNK)
    fields = fields_of(table[name]) if isinstance(name, str) and name in table else ()
    obj = {key: draw(_FITTING[kind] if draw(st.integers(0, 9)) else _JUNK)
           for key, kind in fields if draw(st.integers(0, 9))}
    if not draw(st.integers(0, 9)):
        obj[draw(st.text(max_size=3))] = draw(_JUNK)
    obj[tag] = name
    return obj


_COEFFICIENT_OBJECTS = _tagged_objects("form", COEFFICIENT_FORMS, lambda spec: [
    *((key, key if key in ("knots", "values") else "matrix") for key in spec.arrays),
    *((key, "number") for key in spec.scalars)])
#: field kind -> a value of that kind for a p = 1 model
_FITTING = {"dim": st.just(1), "number": st.floats(-2.0, 2.0),
            "matrix": st.sampled_from([[[0.5]], [[0.2]]]), "knots": st.just([0.0, 1.0]),
            "values": st.just([[[0.5]], [[0.2]]]), "fn": _COEFFICIENT_OBJECTS,
            "fns": st.lists(_COEFFICIENT_OBJECTS, min_size=1, max_size=3)}
_MODEL_OBJECTS = st.one_of(
    _tagged_objects("family", MODEL_FAMILIES,
                    lambda spec: [(key, fld.kind) for key, fld in spec[1].items()]),
    st.fixed_dictionaries({"reference": st.one_of(
        st.sampled_from(sorted(nc.REFERENCE_BUILDERS)), _JUNK)}),
    _JUNK)


class TestGeneratedModels:
    @settings(max_examples=300, deadline=None)
    @example(model={"family": "tv_arch", "coefficients": [
        {"form": "piecewise", "knots": [0.0, 1.0], "values": [[[0.5]], [[0.2]]]},
        {"form": "sinusoidal", "base": [[0.2]], "amplitude": [[0.1]], "phase": 0.5}]})
    @given(model=_MODEL_OBJECTS)
    def test_generated_models_load_or_name_a_model_field(self, model):
        try:
            loaded = load_config({"experiment": "decay", "seed": 1, "model": model})
        except ConfigError as exc:
            assert exc.path.startswith("/model")
            assert str(exc).startswith(f"{exc.path}: ")
        else:
            if "family" in model:
                assert model_to_json(loaded.model) == model_to_json(
                    model_from_json(model_to_json(loaded.model)))


class TestRunExperiment:
    def test_decay_white_noise_verdict(self):
        cfg = load_config({"experiment": "decay", "seed": 3,
                           "model": {"reference": "white_noise_p2"},
                           "grid": {"N": 100, "t_lo": 10, "t_hi": 60}})
        report = run_experiment(cfg)
        names = {v.name: v.passed for v in report.verdicts}
        assert names["white_noise_offdiagonal"]
        assert report.all_passed

    def test_table_schema(self):
        report = run_experiment(load_config(minimal_config()))
        header = report.table_csv().split("\r\n")[0]
        assert header == "experiment,model_hash,N,kind,i,j,measured,envelope,constant"

    def test_byte_identical_reruns(self):
        cfg = load_config(minimal_config())
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.table_csv() == b.table_csv()
        assert a.verdicts_json() == b.verdicts_json()

    def test_threads_keyword_takes_only_one(self):
        # the benchmark harness calls run_experiment(config, threads=1)
        cfg = load_config({"experiment": "verify-all", "seed": 7,
                           "model": {"reference": "tvvma_kappa4_p2"},
                           "grid": {"checks": ["ar1_analytic", "partial_oracle"]}})
        plain, harness = run_experiment(cfg), run_experiment(cfg, threads=1)
        assert plain.table_csv() == harness.table_csv()
        assert plain.verdicts_json() == harness.verdicts_json()
        for threads in (2, 0, True):
            with pytest.raises(InputError, match="run_experiment: threads must be 1"):
                run_experiment(cfg, threads=threads)

    def test_simulate_deterministic(self):
        cfg = load_config(minimal_config("simulate", t_lo=0, t_hi=40))
        report = run_experiment(cfg)
        assert report.all_passed
        assert any(r["kind"] == "path" for r in report.rows)

    def test_write_report_files(self, tmp_path):
        report = run_experiment(load_config(minimal_config()))
        paths = write_report(report, str(tmp_path))
        assert os.path.exists(paths["table"])
        verdicts = json.loads(open(paths["verdicts"]).read())
        assert "all_passed" in verdicts
        meta = json.loads(open(paths["metadata"]).read())
        assert meta["experiment"] == "decay"
        assert "timestamp" in meta
        # peak memory is observed, never reported as a result
        assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0
        assert "peak_rss_mb" not in report.table_csv()
        assert "peak_rss_mb" not in report.verdicts_json()

    def test_verify_all_timings_stay_in_metadata(self, monkeypatch):
        """Per-check wall times and BLAS threads go to ``metadata.json``
        only: a clock that jumps by hours leaves the table and verdicts
        byte-identical."""
        cfg = load_config({"experiment": "verify-all", "seed": 3,
                           "model": {"reference": "tvvma_kappa4_p2"},
                           "grid": {"checks": ["ar1_analytic", "partial_oracle"]}})
        plain = run_experiment(cfg)
        ticks = iter(range(10**6))
        monkeypatch.setattr(time, "perf_counter", lambda: 3600.0 * next(ticks) ** 2)
        jumped = run_experiment(cfg)
        assert plain.table_csv() == jumped.table_csv()
        assert plain.verdicts_json() == jumped.verdicts_json()
        for report in (plain, jumped):
            timings = report.metadata["timings"]
            assert list(timings) == ["ar1_analytic", "partial_oracle", "determinism"]
            assert all(isinstance(t, float) and t >= 0 for t in timings.values())
            threads = report.metadata["blas_threads"]
            assert all(isinstance(k, int) and k >= 1 for k in threads.values())
        assert plain.metadata["timings"] != jumped.metadata["timings"]
        assert "timings" not in run_experiment(load_config(minimal_config())).metadata

    def test_blas_threads_skips_what_it_cannot_read(self, tmp_path):
        """A mapped path with spaces is read whole, and a library that
        cannot be opened is left out instead of failing the report."""
        real = experiments._blas_threads()
        lines = [f"7f00-7f10 r--p 00000000 08:01 12345    {tmp_path}/my dir/libopenblas.so\n",
                 "7f10-7f20 rw-p 00000000 00:00 0 \n",
                 "7f20-7f30 r--p 00000000 08:01 77    /usr/lib/libc.so.6\n"]
        maps = tmp_path / "maps"
        maps.write_text("".join(lines))
        assert experiments._blas_threads(str(maps)) == {}
        assert experiments._blas_threads(str(tmp_path / "missing")) == {}
        with open("/proc/self/maps", encoding="utf-8") as fh:
            ours = [line for line in fh if "openblas" in line.lower()]
        if ours:
            maps.write_text("".join(lines + ours))
            assert experiments._blas_threads(str(maps)) == real != {}

    def test_metadata_omits_peak_memory_without_resource(self, monkeypatch):
        monkeypatch.setattr(experiments, "resource", None)
        report = run_experiment(load_config(minimal_config()))
        assert "peak_rss_mb" not in report.metadata
        assert "timestamp" in report.metadata


#: Small values for every grid field of the cheap experiment kinds; a few
#: fall outside a field's range, so configs refused with exit 2 come too.
_SMALL_GRID = {
    "N": st.integers(0, 80), "t_lo": st.integers(-5, 40), "t_hi": st.integers(-5, 60),
    "kappa": st.floats(0.5, 6.0), "window": st.integers(19, 40), "pad": st.integers(0, 8),
    "count": st.integers(1, 2), "t": st.integers(-5, 80), "p": st.integers(2, 3),
    "orders": st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True).map(sorted),
    "Ns": st.lists(st.integers(20, 80), min_size=2, max_size=2),
    "length": st.integers(1, 4), "a": st.integers(0, 2), "b": st.integers(0, 2),
    "u": st.floats(-0.5, 1.5), "max_lag": st.integers(0, 8),
    "omega_points": st.integers(1, 9), "reps": st.integers(99, 150),
    "js": st.lists(st.integers(0, 3), min_size=1, max_size=2),
}
#: Every kind but the ones whose smallest run takes a quarter of a second or more.
_CHEAP_KINDS = [kind for kind in EXPERIMENT_KINDS if kind not in ("smoothness", "verify-all")]


@st.composite
def _small_configs(draw):
    kind = draw(st.sampled_from(_CHEAP_KINDS))
    reference = draw(st.sampled_from(sorted(nc.REFERENCE_BUILDERS)))
    # the partial-gap fields only where the model has partial gaps
    skip = PARTIAL_GAP_FIELDS if kind == "partial" and not partial_gaps_apply(
        nc.get_reference_model(reference)) else ()
    grid = {key: draw(_SMALL_GRID[key]) for key in GRID_FIELDS[kind] if key not in skip}
    return kind, {"experiment": kind, "seed": draw(st.integers(0, 2**32 - 1)),
                  "model": {"reference": reference}, "grid": grid}


#: The checks of the battery that take at most about a fifth of a second on
#: every reference model.
_CHEAP_CHECKS = ["ar1_analytic", "baxter_gaps", "smoothness_transfer", "partial_oracle",
                 "coherence_consistency", "eigenvalue_sandwich", "physical_dependence"]


@st.composite
def _small_battery_configs(draw):
    kind = draw(st.sampled_from(["smoothness", "verify-all"]))
    references = st.sampled_from(sorted(nc.REFERENCE_BUILDERS))
    grid = ({"Ns": draw(_SMALL_GRID["Ns"])} if kind == "smoothness" else
            {"checks": draw(st.lists(st.sampled_from(_CHEAP_CHECKS), max_size=2,
                                     unique=True))})
    companions = {key: {"reference": draw(references)}
                  for key in draw(st.sets(st.sampled_from(sorted(COMPANIONS[kind]))))}
    return kind, {"experiment": kind, "seed": draw(st.integers(0, 2**32 - 1)),
                  "model": {"reference": draw(references)},
                  "companions": companions, "grid": grid}


def _assert_exit_code_contract(kind, cfg):
    """A run ends in 0, 1, 2 or 3, never a traceback, and in 1 exactly when
    a verdict it wrote failed."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([kind, "--config", path, "--out", out])
        assert code in (0, 1, 2, 3)
        if code in (0, 1):
            with open(os.path.join(out, "verdicts.json")) as fh:
                verdicts = json.load(fh)["verdicts"]
            assert (code == 1) == (not all(v["passed"] for v in verdicts))


class TestCli:
    @settings(max_examples=60, deadline=None)
    @example(config=("invert", {"experiment": "invert", "seed": 0,
                                "model": {"reference": "ar1_phi05"},
                                "grid": {"N": 1, "window": 20, "pad": 0}}))
    @example(config=("coherence", {"experiment": "coherence", "seed": 0,
                                   "model": {"reference": "white_noise_p2"},
                                   "grid": {"a": 0, "b": 1, "Ns": [20, 20], "u": 0.0,
                                            "max_lag": 0, "omega_points": 1}}))
    @given(config=_small_configs())
    def test_generated_configs_keep_the_exit_code_contract(self, config):
        # the examples ended in an AttributeError (a TvVAR has no kappa) and
        # a ZeroDivisionError (a coherence gap of 0 at both N)
        _assert_exit_code_contract(*config)

    @settings(max_examples=25, deadline=None)
    @example(config=("smoothness", {"experiment": "smoothness", "seed": 0,
                                    "model": {"reference": "tvvma_kappa4_p1"},
                                    "companions": {"var_model": {"reference": "white_noise_p2"}},
                                    "grid": {"Ns": [20, 40]}}))
    @example(config=("verify-all", {"experiment": "verify-all", "seed": 0,
                                    "model": {"reference": "tvvma_kappa4_p1"},
                                    "companions": {"sre_model": {"reference": "tvvar1_p3"}},
                                    "grid": {"checks": ["physical_dependence"]}}))
    @given(config=_small_battery_configs())
    def test_generated_battery_configs_keep_the_exit_code_contract(self, config):
        # smoothness and verify-all, on the cheap checks; the examples ended
        # in a ZeroDivisionError (a partial gap of 0 at every N) and an
        # AttributeError (a TvVAR has no contraction bound)
        _assert_exit_code_contract(*config)

    def test_threads_option_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-all", "--config", "verify_all_tvvma",
                      "--out", str(tmp_path / "out"), "--threads", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: nonstatcov" in err and "unrecognized arguments: --threads 2" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_list_reference_configs(self, capsys):
        assert cli.main(["--list-reference-configs"]) == 0
        out = capsys.readouterr().out
        assert "verify_all_tvvma.json" in out

    def test_decay_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(["decay", "--config", "decay_white_noise",
                         "--out", str(tmp_path)])
        assert code == 0
        assert os.path.exists(tmp_path / "decay_table.csv")

    def test_output_dir_key_ignored_for_out(self, tmp_path):
        with open(cli.resolve_config_path("decay_white_noise")) as fh:
            cfg = json.load(fh)
        cfg["output_dir"] = str(tmp_path / "ignored")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["decay", "--config", str(path), "--out", str(out)]) == 0
        assert os.path.exists(out / "decay_table.csv")
        assert not os.path.exists(tmp_path / "ignored")

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"experiment\": \"decay\"}")
        code = cli.main(["decay", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("experiment,reference,grid,field", [
        ("baxter", "tvvma_kappa4_p2", {"orders": ["x"]}, "orders"),
        ("baxter", "tvvma_kappa4_p2", {"orders": [5]}, "orders"),
        ("coherence", "tvvar1_p3", {"u": "0.3x"}, "u"),
        ("smoothness", "tvvma_kappa4_p2", {"Ns": 200}, "Ns"),
        ("physical", "sre_p2", {"js": [1, 2.5]}, "js"),
        ("var", "tvvma_kappa4_p2", {"kappa": "four"}, "kappa"),
        ("verify-all", "tvvma_kappa4_p2", {"checks": ["inverse_decy"]}, "checks"),
        ("verify-all", "tvvma_kappa4_p2", {"checks": "inverse_decay"}, "checks"),
        ("decay", "tvvma_kappa4_p2", {"n": 100}, "n"),
        ("decay", "tvvma_kappa4_p2", {"N": True}, "N"),
        ("physical", "sre_p2", {"js": [1]}, "js"),
        ("physical", "sre_p2", {"js": [2, 2]}, "js"),
    ])
    def test_malformed_grid_field_exit_two(self, tmp_path, capsys, experiment,
                                           reference, grid, field):
        cfg = tmp_path / "bad_grid.json"
        cfg.write_text(json.dumps({"seed": 1, "model": {"reference": reference},
                                   "grid": grid}))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: /grid/{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,grid,field", [
        ("var", {"orders": [-1]}, "orders"),
        ("baxter", {"orders": [-5, 10]}, "orders"),
        ("var", {"N": -5}, "N"),
        ("smoothness", {"Ns": [-100, 200]}, "Ns"),
        ("decay", {"t_lo": 50, "t_hi": 40}, "t_hi"),
        ("partial", {"p": 1}, "p"),
        ("partial", {"length": 0}, "length"),
        ("partial", {"count": 0}, "count"),
        ("partial", {"a": -1}, "a"),
        ("partial", {"a": 1, "b": 1}, "b"),
        ("partial", {"b": 2}, "b"),
        ("coherence", {"a": 0, "b": 0}, "b"),
        ("coherence", {"b": 2}, "b"),
        ("coherence", {"omega_points": 0}, "omega_points"),
        ("invert", {"pad": -1}, "pad"),
        ("invert", {"window": 19}, "window"),
        ("coherence", {"max_lag": -1}, "max_lag"),
        ("physical", {"reps": 99}, "reps"),
        ("physical", {"js": [-1, 2]}, "js"),
        ("baxter", {"orders": [0, 0]}, "orders"),
        ("baxter", {"orders": [5, 5]}, "orders"),
    ])
    def test_out_of_range_grid_field_exit_two(self, tmp_path, capsys, experiment,
                                              grid, field):
        cfg = tmp_path / "out_of_range.json"
        cfg.write_text(json.dumps({"seed": 1,
                                   "model": {"reference": "tvvma_kappa4_p2"},
                                   "grid": grid}))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: /grid/{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("reference,grid,field", [
        ("sre_p2", {"t": 5, "count": 2}, "t"),
        ("sre_p2", {"t": 5000, "kappa": -3.0, "N": 7, "count": 2}, "N"),
        ("tvarch_order2", {"count": 2, "a": 0}, "a"),
        ("ar1_phi05", {"count": 2, "b": 1}, "b"),
    ])
    def test_partial_gap_fields_refused_without_gaps(self, tmp_path, capsys,
                                                     reference, grid, field):
        # the gaps need a TvVMA or TvVAR model with p >= 2; elsewhere `partial`
        # runs the random oracle alone and would ignore these fields
        cfg = tmp_path / "no_gaps.json"
        cfg.write_text(json.dumps({"seed": 1, "model": {"reference": reference},
                                   "grid": grid}))
        code = cli.main(["partial", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: /grid/{field}: grid field {field!r} applies only" \
            in capsys.readouterr().err
        oracle_only = {k: v for k, v in grid.items() if k not in PARTIAL_GAP_FIELDS}
        assert load_config({"experiment": "partial", "seed": 1,
                            "model": {"reference": reference},
                            "grid": oracle_only}).grid["count"] == 2

    @pytest.mark.parametrize("coefficients,message", [
        ([{"form": "constant", "value": np.eye(3).tolist()},
          {"form": "constant", "value": np.eye(2).tolist()}],
         "/model: TvVMA: coefficient dimension mismatch"),
        ([{"form": "affine", "base": np.eye(2).tolist(),
           "slope": np.eye(3).tolist()}],
         "/model: CoefficientFn: payload matrices differ in shape"),
        ([{"form": "piecewise", "knots": [0.0, 1.0],
           "values": [np.eye(2).tolist(), [[1.0]]]}],
         "/model/coefficients/0/values/1: piecewise values must share one shape"),
        ([{"form": "piecewise", "knots": [0.0, 5e-324],
           "values": [np.zeros((2, 2)).tolist(), np.eye(2).tolist()]}],
         "/model/coefficients/0/knots: piecewise segment slopes must be finite"),
        # the constructor's checks, mapped to the key it names
        ([{"form": "piecewise", "knots": [0.8, 0.2],
           "values": [np.eye(2).tolist(), np.zeros((2, 2)).tolist()]}],
         "/model/coefficients/0/knots: piecewise knots must be strictly increasing"),
        ([{"form": "piecewise", "knots": [0.0, 0.5, 1.0],
           "values": [np.eye(2).tolist(), np.zeros((2, 2)).tolist()]}],
         "/model/coefficients/0/values: piecewise values must match knots"),
    ])
    def test_mismatched_matrix_sizes_exit_two(self, tmp_path, capsys,
                                              coefficients, message):
        cfg = tmp_path / "mismatch.json"
        cfg.write_text(json.dumps({
            "seed": 1,
            "model": {"family": "tv_vma", "p": 2, "coefficients": coefficients},
            "grid": {"N": 100, "t_lo": 10, "t_hi": 60}}))
        code = cli.main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,model,field", [
        ("decay", {**_VMA, "kappa": "x"}, "/model/kappa"),
        ("decay", {**_VMA, "kappa": math.nan}, "/model/kappa"),
        ("decay", {**_VMA, "coefficients": [_sinusoidal(frequency="abc")]},
         "/model/coefficients/0/frequency"),
        ("decay", {**_VMA, "coefficients": [_sinusoidal(frequency=math.nan)]},
         "/model/coefficients/0/frequency"),
        ("decay", {**_VMA, "coefficients": [_sinusoidal(frequncy=3)]},
         "/model/coefficients/0/frequncy"),
        ("decay", {**_VMA, "coefficients": [{"form": "piecewise", "knots": ["a", "b"],
                                            "values": [[[1.0]], [[2.0]]]}]},
         "/model/coefficients/0/knots"),
        ("decay", {"reference": []}, "/model/reference"),
        ("decay", {"reference": "ar1_phi05", "p": 1}, "/model/p"),
        ("decay", {**_VMA, "p": True}, "/model/p"),
        ("decay", {**_VMA, "p": 2, "coefficients": [{"form": "constant",
                                                     "value": [[1, True], [0, 1]]}]},
         "/model/coefficients/0/value"),
        ("physical", {**_SRE, "a_noise": "x"}, "/model/a_noise"),
        ("physical", {**_SRE, "a_noise": math.nan}, "/model/a_noise"),
        ("physical", {**_SRE, "a_matrix": [[10**400]]}, "/model/a_matrix"),
    ])
    def test_malformed_model_field_exit_two(self, tmp_path, capsys, experiment,
                                            model, field):
        cfg = tmp_path / "bad_model.json"
        cfg.write_text(json.dumps({"seed": 1, "model": model}))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,extra,field", [
        ("decay", {"seed": True}, "/seed"),
        ("simulate", {"seed": -1}, "/seed"),
        ("verify-all", {"companions": []}, "/companions"),
        ("verify-all", {"companions": {"bogus": {"reference": "sre_p2"}}},
         "/companions/bogus"),
        ("decay", {"companions": {"var_model": {"reference": "tvvar1_p3"}}},
         "/companions/var_model"),
        ("smoothness", {"companions": {"var_model": {"reference": "tvvar1_p3", "p": 3}}},
         "/companions/var_model/p"),
        ("verify-all", {"companions": {"sre_model": {"reference": "tvvar1_p3"}}},
         "/companions/sre_model"),
    ])
    def test_malformed_seed_or_companion_exit_two(self, tmp_path, capsys, experiment,
                                                  extra, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"seed": 1, "model": {"reference": "tvvma_kappa4_p2"},
                                   **extra}))
        code = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_companions_default_to_the_reference_models(self):
        loaded = load_config({"experiment": "verify-all", "seed": 1,
                              "model": {"reference": "tvvma_kappa4_p2"},
                              "companions": {"sre_model": {"reference": "sre_p2"}}})
        assert {key: model_to_json(m) for key, m in loaded.companions.items()} == {
            "var_model": model_to_json(nc.get_reference_model("tvvar1_p3")),
            "sre_model": model_to_json(nc.get_reference_model("sre_p2"))}
        assert load_config(minimal_config()).companions == {}

    def test_numeric_error_exit_three(self, tmp_path):
        cfg = tmp_path / "singular.json"
        cfg.write_text(json.dumps({
            "seed": 1,
            "model": {"family": "tv_var", "p": 1,
                      "coefficients": [{"form": "constant", "value": [[1.2]]}],
                      "innovation_variance": {"form": "constant",
                                              "value": [[1.0]]}},
            "grid": {"N": 100, "t_lo": 10, "t_hi": 60}}))
        code = cli.main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3

    def test_coherence_rows_carry_curves(self):
        cfg = load_config({"experiment": "coherence", "seed": 5,
                           "model": {"reference": "tvvar1_p3"},
                           "grid": {"Ns": [200, 400], "u": 0.3,
                                    "omega_points": 9, "max_lag": 30}})
        report = run_experiment(cfg)
        kinds = {r["kind"] for r in report.rows}
        assert {"coherence_re", "coherence_im", "coherence_abs"} <= kinds

    def test_cli_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = cli.main(["baxter", "--config", "baxter_tvvma",
                             "--out", str(out)])
            assert code == 1  # the slope clause is a documented red verdict
        t1 = (out1 / "baxter_table.csv").read_bytes()
        t2 = (out2 / "baxter_table.csv").read_bytes()
        assert t1 == t2
        v1 = json.loads((out1 / "verdicts.json").read_text())
        names = {v["name"]: v["passed"] for v in v1["verdicts"]}
        assert names["baxter_sums_decreasing"]
        assert not names["baxter_slope_window"]


def test_benchmark_traced_functions_exist(monkeypatch):
    """The traced benchmark pass rebinds the functions ``bench/spans.py``
    lists by name; each must still exist in the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, name) for module, name, _ in spans.TRACED_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"nonstatcov.{module}"),
                                       name, None))]
    assert spans.TRACED_FUNCTIONS and missing == []


def test_benchmark_names_exist():
    """Every package name the benchmark reads exists: the names
    ``bench/spans.py``, ``bench/workloads.py`` and ``bench/oracles.py`` import
    from the package, the attributes they read from its modules (``md.``,
    ``ia.``, ``pc.``, ``vx.``, ``cf.``, ``ex.``, ``nonstatcov.`` and the rest)
    and the ``model.`` attributes, each on some reference model.  The files
    are parsed, never run or edited."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    models = [nc.get_reference_model(name) for name in nc.REFERENCE_BUILDERS]
    missing = []
    for name in ("spans.py", "workloads.py", "oracles.py"):
        tree = ast.parse((bench / name).read_text(encoding="utf-8"))
        modules = {"nonstatcov": nc}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("nonstatcov"):
                for alias in node.names:
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        value = getattr(importlib.import_module(node.module),
                                        alias.name, None)
                    if value is None:
                        missing.append(f"{node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                continue
            owner = node.value.id
            if (owner in modules and not hasattr(modules[owner], node.attr)) or \
                    (owner == "model" and not any(hasattr(m, node.attr) for m in models)):
                missing.append(f"{name}: {owner}.{node.attr}")
    assert missing == []


def _readme_tables(heading: str) -> dict:
    """label -> field -> (default cell, range cell) from a README section."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split(f"#### {heading}\n", 1)[1].split("\n#", 1)[0]
    tables, current = {}, None
    for line in section.splitlines():
        label = re.fullmatch(r"\*\*`([a-z_-]+)`\*\*", line)
        row = re.fullmatch(r"\| `(\w+)` \| (.+) \| (.+) \|", line)
        if label:
            current = tables.setdefault(label.group(1), {})
        elif row:
            current[row.group(1)] = (row.group(2), row.group(3))
    return tables


def _range_text(spec) -> str:
    least = "" if spec.least is None else f" ≥ {spec.least}"
    if spec.kind == "int":
        return f"integer{least}"
    if spec.kind == "number":
        return "finite number"
    if spec.kind == "ints":
        if spec.min_len == 1:
            return f"non-empty list of integers{least}"
        return f"list of at least {spec.min_len} integers{least}"
    return "list of check names"


def test_readme_grid_tables_match_grid_fields():
    """README's per-experiment grid tables list exactly the fields of
    ``GRID_FIELDS``, with the same defaults and ranges."""
    tables = _readme_tables("Grid fields")
    assert list(tables) == list(GRID_FIELDS)
    for experiment, fields in GRID_FIELDS.items():
        assert list(tables[experiment]) == list(fields), experiment
        defaults = {}
        for key, spec in fields.items():
            default_cell, range_cell = tables[experiment][key]
            code = re.fullmatch(r"`([^`]+)`", default_cell)
            if spec.default is None:
                assert code is None, (experiment, key)
            elif callable(spec.default):
                expr = eval(code.group(1), {"__builtins__": {}}, dict(defaults))
                assert expr == spec.default(defaults), (experiment, key)
            else:
                assert json.loads(code.group(1)) == json.loads(
                    json.dumps(spec.default)), (experiment, key)
            defaults[key] = spec.default(defaults) if callable(spec.default) \
                else spec.default
            assert range_cell.split("; ")[0] == _range_text(spec), (experiment, key)


_MODEL_RANGES = {"dim": "integer ≥ 1", "number": "finite number", "matrix": "square matrix",
                 "fn": "coefficient function",
                 "fns": "non-empty list of coefficient functions"}


def test_readme_model_tables_match_model_families_and_forms():
    """README's per-family and per-form tables list exactly the fields of
    ``MODEL_FAMILIES`` and ``COEFFICIENT_FORMS``, with the same defaults and
    ranges."""
    tables = _readme_tables("Model fields")
    want = {family: {key: (fld.default, _MODEL_RANGES[fld.kind])
                     for key, fld in fields.items()}
            for family, (_, fields) in MODEL_FAMILIES.items()}
    for form, spec in COEFFICIENT_FORMS.items():
        want[form] = {key: (REQUIRED, "square matrix") for key in spec.arrays}
        want[form].update((key, (default, "finite number"))
                          for key, default in spec.scalars.items())
    want["piecewise"] = {"knots": (REQUIRED, "list of at least 2 finite numbers"),
                         "values": (REQUIRED, "list of square matrices")}
    assert list(tables) == list(want)
    for label, fields in want.items():
        assert list(tables[label]) == list(fields), label
        for key, (default, range_text) in fields.items():
            default_cell, range_cell = tables[label][key]
            cell = ("required" if default is REQUIRED else "none" if default is None
                    else f"`{json.dumps(default)}`")
            assert default_cell == cell, (label, key)
            assert range_cell.split("; ")[0] == range_text, (label, key)
