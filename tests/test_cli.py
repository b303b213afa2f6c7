import json
import os

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast import core, ewnet, neuralnet
from epicast.cli import _write_csv, main

FAST_TRAIN = {"train": {"learning_rate": 0.05, "epochs": 60, "restarts": 2}}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def networks_trained(monkeypatch):
    """A list that gets one entry per ``neuralnet.fit_network`` call."""
    calls = []
    fit_network = neuralnet.fit_network

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_network(*args, **kwargs)

    monkeypatch.setattr(neuralnet, "fit_network", counting)
    return calls


def write_series_csv(path, n=120, seed=0, level=30.0):
    rng = np.random.default_rng(seed)
    y = np.empty(n)
    y[0] = level
    for t in range(1, n):
        y[t] = level + 0.6 * (y[t - 1] - level) + rng.normal()
    with open(path, "w") as handle:
        handle.write("value\n")
        handle.writelines(f"{v}\n" for v in y)
    return y


def read_output_csv(path):
    """Return (provenance_line, header, rows) from a generated CSV."""
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# seed=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def assert_digest_follows_input_bytes(runner, tmp_path, argv, write, output):
    """New bytes at the same path change the digest; moving the file keeps it."""
    def digest(path):
        out = tmp_path / "out"
        result = runner.invoke(main, [*argv(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return json.loads((out / output).read_text())["config_digest"]

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    path = tmp_path / "a" / "input.csv"
    write(path, 0)
    reference = digest(path)
    write(path, 1)
    assert digest(path) != reference
    write(path, 0)
    moved = path.rename(tmp_path / "b" / "renamed.csv")
    assert digest(moved) == reference


def write_ranks_csv(path, variant):
    last = "c2,1,3,2" if variant else "c2,3,1,2"
    path.write_text(f"case,a,b,c\nc0,1,2,3\nc1,2,1,3\n{last}\n")


class TestDecompose:
    def test_columns_sum_to_original(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        y = write_series_csv(data)
        result = runner.invoke(main, ["decompose", "--data", str(data),
                                      "--levels", "3", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, header, rows = read_output_csv(tmp_path / "decomposition.csv")
        assert header == ["t", "D1", "D2", "D3", "SJ", "original"]
        assert len(rows) == 120
        for row, expect in zip(rows, y):
            parts = [float(v) for v in row[1:]]
            assert sum(parts[:-1]) == pytest.approx(parts[-1], abs=1e-9)
            assert parts[-1] == pytest.approx(expect)

    def test_summary_json(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        runner.invoke(main, ["decompose", "--data", str(data),
                             "--levels", "2", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "decomposition_summary.json").read_text())
        assert doc["levels"] == 2
        assert doc["filter"] == "haar"
        assert doc["boundary"] == "periodic"
        assert doc["n"] == 120
        assert len(doc["config_digest"]) == 16

    def test_default_levels_from_length(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data, n=92)
        runner.invoke(main, ["decompose", "--data", str(data), "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "decomposition_summary.json").read_text())
        # floor(ln 92) - 1 = 3 detail levels
        assert doc["levels"] == 3

    def test_zero_levels_writes_the_series_as_the_smooth(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data, n=40)
        result = runner.invoke(main, ["decompose", "--data", str(data), "--levels", "0",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, header, rows = read_output_csv(tmp_path / "decomposition.csv")
        assert header == ["t", "SJ", "original"]
        assert all(row[1] == row[2] for row in rows)

    def test_byte_order_mark_is_dropped(self, runner, tmp_path):
        # Spreadsheet "CSV UTF-8" exports and some editors start a file with a byte-order mark.
        plain, bom, cfg = tmp_path / "plain.csv", tmp_path / "bom.csv", tmp_path / "cfg.json"
        write_series_csv(plain, n=40)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"levels": 1}).encode())
        tables = []
        for argv in (["--data", str(plain), "--levels", "1"],
                     ["--data", str(bom), "--config", str(cfg)]):
            out = tmp_path / f"out{len(tables)}"
            result = runner.invoke(main, ["decompose", *argv, "--out", str(out)])
            assert result.exit_code == 0, result.output
            tables.append(read_output_csv(out / "decomposition.csv")[1:])
        assert tables[0][0] == ["t", "D1", "SJ", "original"]
        assert tables[1] == tables[0]

    def test_missing_data_file_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["decompose", "--data",
                                      str(tmp_path / "absent.csv")])
        assert result.exit_code == 2

    def test_config_digest_covers_data_bytes(self, runner, tmp_path):
        assert_digest_follows_input_bytes(
            runner, tmp_path, lambda path: ["decompose", "--data", str(path), "--levels", "2"],
            lambda path, seed: write_series_csv(path, seed=seed), "decomposition_summary.json")

    def test_malformed_data_is_data_error(self, runner, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("value\n1.0\nnot-a-number\n")
        result = runner.invoke(main, ["decompose", "--data", str(data)])
        assert result.exit_code == 3

    def test_default_levels_on_a_short_series_is_numeric_error(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data, n=7)
        result = runner.invoke(main, ["decompose", "--data", str(data), "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "need at least 8 training observations" in result.output
        assert not (tmp_path / "decomposition.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_levels_is_config_error(self, runner, tmp_path, source):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({} if source == "flag" else {"levels": -1}))
        flag = ["--levels", "-1"] if source == "flag" else []
        result = runner.invoke(main, ["decompose", "--config", str(cfg), "--data", str(data),
                                      *flag, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "bad value for 'levels'" in result.output
        assert not (tmp_path / "decomposition.csv").exists()


class TestFit:
    def test_seed_is_mandatory(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        result = runner.invoke(main, ["fit", "--data", str(data)])
        assert result.exit_code == 2
        assert "seed" in result.output

    def _fit(self, runner, tmp_path, extra=()):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_TRAIN))
        args = ["fit", "--config", str(cfg), "--data", str(data), "--seed", "7",
                "--levels", "2", "--out", str(tmp_path), *extra]
        return runner.invoke(main, args)

    @pytest.mark.parametrize("flags", [["--p", "0"], ["--levels", "-1"]], ids=["p", "levels"])
    def test_out_of_range_flags_are_config_errors(self, runner, tmp_path, flags):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        result = runner.invoke(main, ["fit", "--data", str(data), "--seed", "1",
                                      "--p-grid", "1", *flags, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "model.json").exists()

    def test_zero_levels_fits_one_network_on_the_series(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_TRAIN))
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--levels", "0", "--p", "2",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["levels"] == 0 and len(doc["component_models"]) == 1
        result = runner.invoke(main, ["forecast", "--model", str(tmp_path / "model.json"),
                                      "--horizon", "3", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_fixed_p_writes_model(self, runner, tmp_path):
        result = self._fit(runner, tmp_path, ["--p", "3"])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["chosen_p"] == 3
        assert doc["chosen_k"] == 2
        assert doc["seed"] == 7
        assert len(doc["component_models"]) == 3
        assert len(doc["train_series"]) == 120
        assert doc["calibration_abs_residuals"] is None

    def test_one_batch_for_the_refit_and_the_head_writes_the_model_of_separate_fits(
            self, runner, tmp_path, monkeypatch):
        batches = []
        fit_ewnets = ewnet.fit_ewnets
        monkeypatch.setattr(ewnet, "fit_ewnets",
                            lambda fits: batches.append(len(fits)) or fit_ewnets(fits))
        models = []
        for separate in (False, True):
            if separate:
                monkeypatch.setattr(ewnet, "fit_ewnets",
                                    lambda fits: [fit_ewnets([fit])[0] for fit in fits])
            out = tmp_path / str(separate)
            out.mkdir()
            result = self._fit(runner, out, ["--p-grid", "1-2", "--horizon", "4"])
            assert result.exit_code == 0, result.output
            models.append((out / "model.json").read_bytes())
        assert batches == [2]
        assert models[0] == models[1]

    def test_a_constant_series_has_no_feasible_lag_order(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        data.write_text("value\n" + "5.0\n" * 60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_TRAIN))
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--p-grid", "1,2",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        undefined = "MASE undefined: constant training series"
        assert result.output == ("Error: no feasible lag order in the grid: "
                                 f"p=1: {undefined}; p=2: {undefined}\n")
        assert not (tmp_path / "out").exists()

    def test_selection_stores_calibration_residuals(self, runner, tmp_path):
        result = self._fit(runner, tmp_path, ["--p-grid", "1-2", "--horizon", "4"])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["chosen_p"] in (1, 2)
        cal = doc["calibration_abs_residuals"]
        assert len(cal) == 8  # min(2 * horizon, n // 4)
        assert all(v >= 0 for v in cal)

    def test_same_seed_reproduces_model(self, runner, tmp_path):
        self._fit(runner, tmp_path, ["--p", "2"])
        first = (tmp_path / "model.json").read_text()
        self._fit(runner, tmp_path, ["--p", "2"])
        assert (tmp_path / "model.json").read_text() == first

    def test_config_digest_covers_settings_and_data_bytes(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        y = write_series_csv(data)
        data.write_text("value,alt\n" + "".join(f"{v},{v + 1.0}\n" for v in y))
        base = {"data": str(data), "seed": 7, "levels": 2, "p_grid": "1-3",
                "metric": "mase", "horizon": 2, "seasonal_lag": 1, "value_column": "value",
                "train": {"learning_rate": 0.05, "epochs": 2, "restarts": 1,
                          "tolerance": 1e-8, "patience": 25}}

        def digest(cfg, p="2"):
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            result = runner.invoke(main, ["fit", "--config", str(tmp_path / "cfg.json"),
                                          "--p", p, "--out", str(tmp_path / "out")])
            assert result.exit_code == 0, result.output
            return json.loads((tmp_path / "out" / "model.json").read_text())["config_digest"]

        reference = digest(base)
        for key, value in {"seed": 8, "levels": 3, "p_grid": "1-4", "metric": "smape",
                           "horizon": 3, "seasonal_lag": 2, "value_column": "alt"}.items():
            assert digest({**base, key: value}) != reference, key
        for key, value in {"learning_rate": 0.04, "epochs": 3, "restarts": 2,
                           "tolerance": 1e-7, "patience": 26}.items():
            assert digest({**base, "train": {**base["train"], key: value}}) != reference, key
        assert digest(base, p="1") != reference

        moved = tmp_path / "elsewhere" / "copy.csv"
        moved.parent.mkdir()
        moved.write_bytes(data.read_bytes())
        assert digest({**base, "data": str(moved)}) == reference

        raw = bytearray(data.read_bytes())
        raw[-2] = ord("1") if raw[-2] != ord("1") else ord("2")
        data.write_bytes(bytes(raw))
        assert digest(base) != reference


def zero_lag_order(doc):
    """Lag order 0 everywhere, with input rows of 0 values to match."""
    doc["chosen_p"] = 0
    for component in doc["component_models"]:
        component["p"] = 0
        for restart in component["restarts"]:
            restart["input_to_hidden"] = [[] for _ in restart["input_to_hidden"]]


class TestForecast:
    def _fitted_model(self, runner, tmp_path, extra=()):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_TRAIN))
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--levels", "2",
                                      "--out", str(tmp_path), *extra])
        assert result.exit_code == 0, result.output
        return tmp_path / "model.json"

    def test_precontrol_band(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p", "2"])
        result = runner.invoke(main, ["forecast", "--model", str(model),
                                      "--horizon", "5", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, header, rows = read_output_csv(tmp_path / "forecast.csv")
        assert header == ["step", "point", "lower", "upper", "method"]
        assert len(rows) == 5
        widths = set()
        for i, row in enumerate(rows):
            assert int(row[0]) == i + 1
            point, lower, upper = map(float, row[1:4])
            assert lower <= point <= upper
            assert row[4] == "precontrol"
            widths.add(round(upper - lower, 9))
        assert len(widths) == 1  # constant-width band

    def test_conformal_band(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p-grid", "1-2", "--horizon", "4"])
        result = runner.invoke(main, ["forecast", "--model", str(model),
                                      "--horizon", "3", "--interval", "conformal",
                                      "--level", "0.8", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, _, rows = read_output_csv(tmp_path / "forecast.csv")
        assert all(row[4] == "conformal" for row in rows)

    def test_conformal_without_calibration_fails_numeric(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p", "2"])
        result = runner.invoke(main, ["forecast", "--model", str(model),
                                      "--interval", "conformal", "--out", str(tmp_path)])
        assert result.exit_code == 4

    def test_infeasible_level_fails_numeric(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p-grid", "1-2", "--horizon", "2"])
        result = runner.invoke(main, ["forecast", "--model", str(model),
                                      "--interval", "conformal", "--level", "0.999",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 4

    def test_a_nan_in_sample_residual_fails_numeric(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p", "2"])
        doc = json.loads(model.read_text())
        doc["in_sample_residuals"][3] = float("nan")
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", str(model), "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert "in-sample residuals must be finite" in result.output
        assert not (tmp_path / "forecast.csv").exists()

    def test_missing_model_file(self, runner, tmp_path):
        result = runner.invoke(main, ["forecast", "--model", str(tmp_path / "nope.json")])
        assert result.exit_code == 3

    def test_unsupported_schema_version(self, runner, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        result = runner.invoke(main, ["forecast", "--model", str(bad)])
        assert result.exit_code == 3

    def test_non_object_model_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("[1]")
        result = runner.invoke(main, ["forecast", "--model", str(bad)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("stored", [{"constant": True}, {"constant_value": 123.0}])
    def test_constant_keys_that_disagree_with_the_weights_are_data_errors(self, runner,
                                                                          tmp_path, stored):
        model = self._fitted_model(runner, tmp_path, ["--p", "2"])
        doc = json.loads(model.read_text())
        doc["component_models"][0].update(stored)
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", str(model), "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "disagree" in result.output
        assert not (tmp_path / "forecast.csv").exists()

    def test_component_lag_that_disagrees_with_chosen_p_is_data_error(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p-grid", "3-4", "--horizon", "2"])
        doc = json.loads(model.read_text())
        doc["chosen_p"] = 7
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", str(model), "--interval",
                                      "conformal", "--level", "0.5", "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "chosen_p" in result.output
        assert not (tmp_path / "forecast.csv").exists()

    @pytest.mark.parametrize("damage,message", [
        (lambda doc: doc["component_models"][0]["restarts"][0]["hidden_bias"].append(0.5),
         "ValueError: component 0: restart 0: 'hidden_bias' has 2 values, expected 1"),
        (lambda doc: doc["component_models"][0]["restarts"][1].pop("hidden_bias"),
         "KeyError: 'hidden_bias'"),
        (lambda doc: doc["component_models"].pop(), "one model required per detail"),
        (lambda doc: doc.update(seed="x"), "invalid literal for int()"),
        # The loader rebuilds a Haar, periodic MODWT, whatever these keys say.
        (lambda doc: doc.update(filter="d4"), "'filter' is 'd4'"),
        (lambda doc: doc.update(boundary="reflection"), "'boundary' is 'reflection'"),
        (zero_lag_order, "component 0: p and k must be >= 1, got p=0, k=1"),
        # int() would truncate these; a bool is a typo, not 0 or 1.
        (lambda doc: doc.update(levels=3.5), "ValueError: 'levels' must be a whole number, "
                                             "got 3.5\n"),
        (lambda doc: doc.update(levels=True), "'levels' must be a whole number, got True\n"),
        (lambda doc: doc.update(chosen_p=3.7), "'chosen_p' must be a whole number, got 3.7\n"),
        (lambda doc: doc.update(seed=1.9), "'seed' must be a whole number, got 1.9\n"),
        (lambda doc: doc["component_models"][0].update(p=3.5),
         "component 0: 'p' must be a whole number, got 3.5\n"),
        (lambda doc: doc["component_models"][1].update(k=2.5),
         "component 1: 'k' must be a whole number, got 2.5\n"),
        (lambda doc: doc["component_models"][2].update(seed=True),
         "component 2: 'seed' must be a whole number, got True\n"),
        *((lambda doc, scaler=scaler: doc["component_models"][1].update(scaler=scaler),
           "component 1: scaler needs a finite center and a finite scale > 0, got "
           f"{tuple(scaler)}\n")
          for scaler in ([np.nan, 2.0], [np.inf, 2.0], [1.0, np.nan], [1.0, np.inf],
                         [1.0, 0.0])),
    ], ids=["wrong-length-hidden-bias", "missing-hidden-bias", "dropped-component",
            "non-integer-seed", "filter-d4", "boundary-reflection", "zero-lag-order",
            "fractional-levels", "bool-levels", "fractional-chosen-p", "fractional-seed",
            "fractional-component-p", "fractional-component-k", "bool-component-seed",
            "nan-center", "inf-center", "nan-scale", "inf-scale", "zero-scale"])
    def test_malformed_model_is_data_error(self, runner, tmp_path, damage, message):
        model = self._fitted_model(runner, tmp_path, ["--p", "2"])
        doc = json.loads(model.read_text())
        damage(doc)
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", str(model), "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "malformed model file" in result.output
        assert message in result.output
        assert not (tmp_path / "forecast.csv").exists()

    def test_a_series_shorter_than_the_lag_is_a_malformed_model(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p", "3", "--levels", "1"])
        doc = json.loads(model.read_text())
        doc["train_series"] = doc["train_series"][:2]
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", str(model), "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert result.output == ("Error: malformed model file: ValueError: train_series has 2 "
                                 "points and its decomposition 2; both need one length >= "
                                 "chosen_p = 3\n")
        assert not (tmp_path / "forecast.csv").exists()

    def test_non_numeric_weight_names_component_restart_and_key(self, runner, tmp_path):
        model = self._fitted_model(runner, tmp_path, ["--p", "2"])
        doc = json.loads(model.read_text())
        doc["component_models"][0]["restarts"][1]["output_bias"] = "x"
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", str(model), "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert result.output == ("Error: malformed model file: ValueError: component 0: "
                                 "restart 1: 'output_bias' is not a number: 'x'\n")
        assert not (tmp_path / "forecast.csv").exists()


class TestEvaluate:
    def test_single_dataset_short_horizon(self, runner, tmp_path):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=120, seed=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "frequency": 12}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--data", str(data), "--seed", "3",
                                      "--horizon", "short", "--p-grid", "1-2",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "evaluation.json").read_text())
        assert len(doc["cases"]) == 1
        case = doc["cases"][0]
        assert case["horizon"] == {"kind": "short", "steps": 3}
        for name in ("EWNet", "RW", "RWD", "ARNN"):
            metrics = case["results"][name]
            assert set(metrics) >= {"rmse", "mae", "mase", "smape"}
        assert "coverage" in case["results"]["EWNet"]
        for metric in ("rmse", "mae", "mase", "smape"):
            assert (tmp_path / f"ranks_{metric}.csv").exists()

    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_of_two_failing_cases_the_earlier_is_reported(self, runner, tmp_path,
                                                          monkeypatch, order):
        # Case a fails at its refit, after every lag search; case b, a constant series,
        # fails in its lag search. Whichever comes first in the plan is reported.
        write_series_csv(tmp_path / "a.csv", n=120, seed=5)
        (tmp_path / "b.csv").write_text("value\n" + "5.0\n" * 120)
        fit_network = neuralnet.fit_network

        def failing(series, *args):
            if len(series) == 117:  # a:short's train + validation
                raise ValueError("diverged")
            return fit_network(series, *args)

        monkeypatch.setattr(neuralnet, "fit_network", failing)
        monkeypatch.setattr(neuralnet, "_cpus", lambda: 1)  # so that every fit is patched
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "seed": 1, "p_grid": "1,2",
                                   "horizons": ["short"],
                                   "datasets": [{"data": str(tmp_path / f"{name}.csv"),
                                                 "frequency": 12} for name in order]}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        undefined = "MASE undefined: constant training series"
        assert result.output == {
            "ab": "Error: a:short: diverged\n",
            "ba": f"Error: b:short: no feasible lag order in the grid: p=1: {undefined}; "
                  f"p=2: {undefined}\n"}[order]
        assert not (tmp_path / "out").exists()

    def test_an_arnn_failure_is_named(self, runner, tmp_path):
        # Under sMAPE, EWNet's search on a constant series succeeds; ARNN's search always
        # scores MASE, which is undefined on it, so ARNN fails alone.
        data = tmp_path / "c.csv"
        data.write_text("value\n" + "5.0\n" * 60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "p_grid": "1,2"}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--data", str(data),
                                      "--frequency", "12", "--seed", "1", "--metric", "smape",
                                      "--horizon", "short", "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        undefined = "MASE undefined: constant training series"
        assert result.output == ("Error: c:short: ARNN: no feasible lag order in the grid: "
                                 f"p=1: {undefined}; p=2: {undefined}\n")
        assert not (tmp_path / "out").exists()

    def test_an_external_flag_without_a_path_is_config_error(self, runner, tmp_path,
                                                            networks_trained):
        result = runner.invoke(main, ["evaluate", "--seed", "1", "--external", "foo",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output.endswith("Error: --external expects name=path, got 'foo'\n")
        assert networks_trained == []

    def test_multi_dataset_ranks_feed_stats(self, runner, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"d{i}.csv"
            write_series_csv(p, n=110 + i, seed=10 + i, level=20.0 + i)
            paths.append(p)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **FAST_TRAIN,
            "datasets": [{"name": f"d{i}", "data": str(p), "frequency": 12}
                         for i, p in enumerate(paths)],
        }))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--seed", "4",
                                      "--horizon", "short", "--horizon", "medium",
                                      "--p-grid", "1-2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, header, rows = read_output_csv(tmp_path / "ranks_mase.csv")
        assert header == ["case", "EWNet", "RW", "RWD", "ARNN"]
        assert len(rows) == 4  # 2 datasets x 2 horizons
        for row in rows:
            assert sum(float(v) for v in row[1:]) == pytest.approx(10.0)

        stats_result = runner.invoke(main, ["stats", "--ranks",
                                            str(tmp_path / "ranks_mase.csv"),
                                            "--out", str(tmp_path)])
        assert stats_result.exit_code == 0, stats_result.output
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["friedman"]["df"] == "3"
        assert doc["iman_f"]["df"] == "(3, 9)"
        assert len(doc["mcb"]) == 4

    def test_dataset_name_with_comma_and_quote_feeds_stats(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_series_csv(data, n=110, seed=10)
        name = 'north, 2020 "B"'
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "datasets": [
            {"name": name, "data": str(data), "frequency": 12}]}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--seed", "4",
                                      "--horizon", "short", "--horizon", "medium",
                                      "--p-grid", "1", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        header, rows = core.read_table(tmp_path / "ranks_mase.csv")
        assert header == ["case", "EWNet", "RW", "RWD", "ARNN"]
        assert [row[0] for row in rows] == [f"{name}:short", f"{name}:medium"]
        stats_result = runner.invoke(main, ["stats", "--ranks", str(tmp_path / "ranks_mase.csv"),
                                            "--out", str(tmp_path)])
        assert stats_result.exit_code == 0, stats_result.output
        assert len(json.loads((tmp_path / "stats.json").read_text())["mcb"]) == 4

    def test_external_forecast_included(self, runner, tmp_path):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        ext = tmp_path / "ext.csv"
        ext.write_text("step,point\n1,30.0\n2,30.0\n3,30.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "frequency": 12}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--data", str(data), "--seed", "6",
                                      "--horizon", "short", "--p-grid", "1-2",
                                      "--external", f"other={ext}",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "evaluation.json").read_text())
        assert "other" in doc["cases"][0]["results"]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_external_forecast_is_data_error(self, runner, tmp_path, bad):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        ext = tmp_path / "ext.csv"
        ext.write_text(f"step,point\n1,30.0\n2,{bad}\n3,30.0\n")
        result = runner.invoke(main, ["evaluate", "--data", str(data), "--frequency", "12",
                                      "--seed", "6", "--horizon", "short", "--p-grid", "1",
                                      "--external", f"other={ext}", "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "non-finite" in result.output
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("external", [["e.csv"], "e.csv", {"e": 5}],
                             ids=["list", "string", "non-string-path"])
    def test_external_forecasts_must_map_names_to_paths(self, runner, tmp_path, external):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"external_forecasts": external}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--horizon", "short",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "'external_forecasts' must be an object" in result.output
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("datasets", ["d.csv", ["d.csv"], {"data": "d.csv"}],
                             ids=["string", "list-of-strings", "object"])
    def test_datasets_must_be_a_list_of_objects(self, runner, tmp_path, datasets):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datasets": datasets}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--seed", "1",
                                      "--horizon", "short", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "'datasets' must be a list of objects" in result.output

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_external_named_like_a_builtin_is_config_error(self, runner, tmp_path, source):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        ext = tmp_path / "ext.csv"
        ext.write_text("step,point\n1,30.0\n2,30.0\n3,30.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "frequency": 12, **(
            {"external_forecasts": {"RW": str(ext)}} if source == "config" else {})}))
        flag = ["--external", f"RW={ext}"] if source == "flag" else []
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--data", str(data),
                                      "--seed", "6", "--horizon", "short", "--p-grid", "1",
                                      *flag, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "external forecast name 'RW'" in result.output
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("bad", ["unknown-horizon", "short-external", "short-series"])
    def test_a_bad_later_case_fails_before_any_network_is_trained(
            self, runner, tmp_path, networks_trained, bad):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        datasets = [{"data": str(data), "frequency": 12}]
        cfg = {**FAST_TRAIN, "seed": 1, "p_grid": "1", "horizons": ["short", "long"],
               "datasets": datasets}
        if bad == "unknown-horizon":
            cfg["horizons"] = ["short", "weekly"]
        elif bad == "short-external":
            ext = tmp_path / "ext.csv"
            ext.write_text("step,point\n1,30.0\n2,30.0\n3,30.0\n")
            cfg["external_forecasts"] = {"other": str(ext)}
        else:
            # 12 points leave 7 to train on at the short horizon; at least 8 are needed.
            write_series_csv(tmp_path / "tiny.csv", n=12, seed=5)
            datasets.append({"data": str(tmp_path / "tiny.csv"), "frequency": 12})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = runner.invoke(main, ["evaluate", "--config", str(tmp_path / "cfg.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == (2 if bad == "unknown-horizon" else 3), result.output
        assert networks_trained == []
        assert not (tmp_path / "out").exists()
        if bad == "short-external":
            assert "cases:long: external forecast 'other' has 3 rows, 12 needed" in result.output

    @pytest.mark.parametrize("key,value", [
        ("horizons", [["short"]]), ("horizons", []), ("horizons", "short"), ("datasets", []),
    ], ids=["nested-horizon", "no-horizons", "string-horizons", "no-datasets"])
    def test_bad_case_lists_are_config_errors(self, runner, tmp_path, networks_trained,
                                              key, value):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "data": str(data), "frequency": 12,
                                   "p_grid": "1", key: value}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--seed", "1",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert networks_trained == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_repeated_horizon_is_config_error(self, runner, tmp_path, networks_trained,
                                                source):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=100, seed=5)
        cfg = {**FAST_TRAIN, "data": str(data), "frequency": 12, "seed": 1, "p_grid": "1"}
        flags = []
        if source == "config":
            cfg["horizons"] = ["short", "long", "short"]
        else:
            flags = ["--horizon", "short", "--horizon", "short"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = runner.invoke(main, ["evaluate", "--config", str(tmp_path / "cfg.json"),
                                      *flags, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "horizon 'short' is given twice" in result.output
        assert networks_trained == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second", ["same-stem", "explicit-name"])
    def test_repeated_dataset_names_are_config_errors(self, runner, tmp_path,
                                                      networks_trained, second):
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            write_series_csv(tmp_path / folder / "x.csv", n=100, seed=5)
        other = ({"data": str(tmp_path / "b" / "x.csv")} if second == "same-stem"
                 else {"data": str(tmp_path / "b" / "x.csv"), "name": "x"})
        datasets = [{"data": str(tmp_path / "a" / "x.csv")}, other]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "seed": 1, "p_grid": "1", "horizons": ["short"],
                                   "datasets": [{**d, "frequency": 12} for d in datasets]}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "two datasets are named 'x'" in result.output
        assert networks_trained == []
        assert not (tmp_path / "out").exists()

    def test_single_series_is_a_one_entry_dataset_list(self, runner, tmp_path):
        data = tmp_path / "cases.csv"
        write_series_csv(data, n=90, seed=4)
        train = {"train": {"learning_rate": 0.05, "epochs": 2, "restarts": 1}}
        single = tmp_path / "single.json"
        single.write_text(json.dumps({**train, "data": str(data), "frequency": 12}))
        listed = tmp_path / "listed.json"
        listed.write_text(json.dumps({**train, "datasets": [{"data": str(data),
                                                             "frequency": 12}]}))
        outputs = []
        for cfg in (single, listed):
            out = tmp_path / cfg.stem
            result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--seed", "2",
                                          "--horizon", "short", "--p-grid", "1",
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append((out / "evaluation.json").read_text())
        assert outputs[0] == outputs[1]

    def test_config_digest_covers_settings_and_input_bytes(self, runner, tmp_path):
        data = tmp_path / "cases.csv"
        y = write_series_csv(data, n=100, seed=5)
        data.write_text("value,alt\n" + "".join(f"{v},{v + 1.0}\n" for v in y))
        ext = tmp_path / "ext.csv"
        ext.write_text("step,point\n" + "".join(f"{i},30.0\n" for i in range(1, 14)))
        base = {"data": str(data), "seed": 6, "frequency": 12, "horizons": ["short"],
                "levels": 2, "p_grid": "1-2", "metric": "mase", "seasonal_lag": 1,
                "value_column": "value", "external_forecasts": {"other": str(ext)},
                "train": {"learning_rate": 0.05, "epochs": 2, "restarts": 1,
                          "tolerance": 1e-8, "patience": 25}}

        def digest(cfg):
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            result = runner.invoke(main, ["evaluate", "--config", str(tmp_path / "cfg.json"),
                                          "--out", str(tmp_path / "out")])
            assert result.exit_code == 0, result.output
            return json.loads((tmp_path / "out" / "evaluation.json").read_text())["config_digest"]

        reference = digest(base)
        for key, value in {"seed": 7, "frequency": 52, "horizons": ["medium"], "levels": 3,
                           "p_grid": "1-3", "metric": "smape", "seasonal_lag": 2,
                           "value_column": "alt"}.items():
            assert digest({**base, key: value}) != reference, key
        for key, value in {"learning_rate": 0.04, "epochs": 3, "restarts": 2,
                           "tolerance": 1e-7, "patience": 26}.items():
            assert digest({**base, "train": {**base["train"], key: value}}) != reference, key

        moved = tmp_path / "elsewhere" / "cases.csv"
        moved.parent.mkdir()
        moved.write_bytes(data.read_bytes())
        assert digest({**base, "data": str(moved)}) == reference

        ext.write_text(ext.read_text().replace("3,30.0", "3,31.0"))
        changed_external = digest(base)
        assert changed_external != reference
        raw = bytearray(data.read_bytes())
        raw[-2] = ord("1") if raw[-2] != ord("1") else ord("2")
        data.write_bytes(bytes(raw))
        assert digest(base) not in (reference, changed_external)


class TestStats:
    def test_config_digest_covers_rank_bytes(self, runner, tmp_path):
        assert_digest_follows_input_bytes(
            runner, tmp_path, lambda path: ["stats", "--ranks", str(path)],
            write_ranks_csv, "stats.json")

    def test_rejects_a_single_model(self, runner, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,a\nc0,1\nc1,1\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks), "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert result.output == ("Error: rank CSV needs a header 'case,<model>,...' "
                                 "with >= 2 models\n")
        assert not (tmp_path / "stats.json").exists()

    def test_rejects_mean_ranks_only(self, runner, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,a,b\nmean,1.4,1.6\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks)])
        assert result.exit_code == 3
        assert "per-case ranks are required" in result.output

    @pytest.mark.parametrize("row", ["c1,2", "c1,2,1,3"], ids=["short", "long"])
    def test_ragged_row_is_named(self, runner, tmp_path, row):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text(f"case,a,b\nc0,1,2\n{row}\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks)])
        assert result.exit_code == 3
        assert f"row 'c1' has {row.count(',') + 1} cells, the header 3" in result.output

    def test_a_repeated_model_name_is_data_error(self, runner, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,A,A\nc1,1,2\nc2,2,1\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks), "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "bad rank table" in result.output and "repeated model name" in result.output
        assert not (tmp_path / "stats.json").exists()

    def test_a_repeated_case_is_data_error(self, runner, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,A,B,C\nd:short,1,2,3\nd:short,1,2,3\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks), "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert "bad rank table" in result.output and "repeated case name" in result.output
        assert not (tmp_path / "stats.json").exists()

    def test_rejects_invalid_row_sums(self, runner, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,a,b\nc1,1,2\nc2,2,3\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks)])
        assert result.exit_code == 3

    def test_reference_statistics(self, runner, tmp_path):
        # 10 cases, 4 models, model order identical everywhere:
        # chi2 = D(M-1) = 30, which makes the Iman F transform degenerate,
        # so perturb one row to keep the denominator positive.
        rows = ["case,a,b,c,d"]
        for i in range(9):
            rows.append(f"c{i},1,2,3,4")
        rows.append("c9,2,1,3,4")
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["friedman"]["statistic"] == pytest.approx(28.92, abs=1e-9)
        assert doc["friedman"]["decision"] == "reject"
        best = min(doc["mcb"], key=lambda e: e["mean_rank"])
        worst = max(doc["mcb"], key=lambda e: e["mean_rank"])
        assert not best["significantly_worse"]
        assert worst["significantly_worse"]

    def test_concordant_ranks_leave_iman_f_undefined(self, runner, tmp_path):
        # Every case ranks the models alike: chi2 = D(M-1) = 30 and the Iman F
        # denominator is 0, but Friedman and MCB are still defined.
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,a,b,c,d\n" + "".join(f"c{i},1,2,3,4\n" for i in range(10)))
        result = runner.invoke(main, ["stats", "--ranks", str(ranks), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["iman_f"] is None
        assert doc["friedman"]["statistic"] == pytest.approx(30.0)
        assert doc["friedman"]["p_value"] == pytest.approx(1.4e-6, rel=0.05)
        assert doc["friedman"]["decision"] == "reject"
        assert [e["mean_rank"] for e in doc["mcb"]] == [1.0, 2.0, 3.0, 4.0]


class TestProfile:
    def test_writes_hurst_json(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        rng = np.random.default_rng(0)
        with open(data, "w") as handle:
            handle.write("value\n")
            handle.writelines(f"{v}\n" for v in np.cumsum(rng.normal(size=512)))
        result = runner.invoke(main, ["profile", "--data", str(data),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["n"] == 512
        assert doc["hurst_exponent"] > 0.55
        assert doc["long_range_dependent"] is True

    def test_config_digest_covers_data_bytes(self, runner, tmp_path):
        assert_digest_follows_input_bytes(
            runner, tmp_path, lambda path: ["profile", "--data", str(path)],
            lambda path, seed: write_series_csv(path, seed=seed), "profile.json")

    def test_short_series_numeric_error(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        data.write_text("value\n" + "\n".join("1.0" for _ in range(20)) + "\n")
        result = runner.invoke(main, ["profile", "--data", str(data)])
        assert result.exit_code == 4


class TestConfigHandling:
    def test_invalid_json_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["decompose", "--config", str(cfg)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("cmd", ["decompose", "fit", "forecast", "evaluate", "stats",
                                     "profile"])
    def test_a_config_root_that_is_not_an_object_is_config_error(self, runner, tmp_path, cmd):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == "Error: config root must be a JSON object\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_flag_overrides_config(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data), "levels": 1}))
        runner = CliRunner()
        result = runner.invoke(main, ["decompose", "--config", str(cfg),
                                      "--levels", "2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "decomposition_summary.json").read_text())
        assert doc["levels"] == 2

    def test_unknown_horizon_in_config(self, runner, tmp_path):
        data = tmp_path / "cases.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizons": ["weekly"], "frequency": 12}))
        result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "unknown horizon 'weekly'" in result.output

    @pytest.mark.parametrize("cmd", ["fit", "evaluate"])
    @pytest.mark.parametrize("train,reason", [
        ({"learnin_rate": 0.5}, "keys must be among learning_rate, epochs"),
        ({"seed": 3}, "keys must be among learning_rate, epochs"),
        ({"learning_rate": -1}, "learning_rate must be positive and finite, got -1.0"),
        ({"epochs": "abc"}, "invalid literal for int() with base 10: 'abc'"),
        ({"restarts": 0}, "epochs and restarts must be >= 1"),
        ({"patience": None}, "int() argument must be"),
        ({"learning_rate": float("nan")}, "learning_rate must be positive and finite, got nan"),
        ({"learning_rate": "inf"}, "learning_rate must be positive and finite, got inf"),
        ({"tolerance": "nan"}, "tolerance must be a number, got nan"),
        ({"patience": 0}, "patience must be >= 1, got 0"),
        ({"patience": -3}, "patience must be >= 1, got -3"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"restarts": True}, "restarts must be an integer, got True"),
        ({"patience": 1.9}, "patience must be an integer, got 1.9"),
        ({"learning_rate": True}, "learning_rate must be a number, got True"),
    ], ids=["typo", "seed", "negative-rate", "non-numeric-epochs", "zero-restarts", "null",
            "nan-rate", "infinite-rate", "nan-tolerance", "zero-patience", "negative-patience",
            "fractional-epochs", "bool-restarts", "fractional-patience", "bool-rate"])
    def test_bad_train_keys_are_config_errors(self, runner, tmp_path, cmd, train, reason):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {**FAST_TRAIN["train"], **train}}))
        extra = ["--levels", "1"] if cmd == "fit" else ["--horizon", "short"]
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--p-grid", "1-2", *extra,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "bad 'train' config" in result.output
        assert f"}}: {reason}" in result.output

    @pytest.mark.parametrize("cmd,extra", [
        ("fit", ["--levels", "1"]),
        ("evaluate", ["--frequency", "12", "--horizon", "short"]),
    ], ids=["fit", "evaluate"])
    def test_negative_seed_is_a_config_error(self, runner, tmp_path, cmd, extra):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_TRAIN))
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--data", str(data),
                                      "--seed", "-1", "--p-grid", "1-2", *extra,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.output.strip().splitlines()[-1] == "Error: seed must be >= 0, got -1"
        assert not (tmp_path / "out").exists()

    def test_train_values_take_their_default_types(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"learning_rate": "0.05", "epochs": "3",
                                             "restarts": 2.0, "patience": 4}}))
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--p", "2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["train_config"] == {"learning_rate": 0.05, "epochs": 3, "restarts": 2,
                                       "seed": 1, "tolerance": 1e-8, "patience": 4}

    @pytest.mark.parametrize("cmd,key", [
        ("fit", "horizon"), ("forecast", "horizon"), ("decompose", "frequency"),
        ("decompose", "levels"), ("forecast", "level"), ("stats", "alpha"),
        ("fit", "seed"), ("evaluate", "seed"),
    ])
    def test_non_numeric_values_are_config_errors(self, runner, tmp_path, cmd, key):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        inputs = {**FAST_TRAIN, "data": str(data), "seed": 1, "p_grid": "1", "levels": 1,
                  "frequency": 12, "horizons": ["short"]}
        cfg = tmp_path / "cfg.json"
        if cmd == "forecast":
            cfg.write_text(json.dumps(FAST_TRAIN))
            fitted = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                          "--seed", "1", "--p", "1", "--levels", "1",
                                          "--out", str(tmp_path)])
            assert fitted.exit_code == 0, fitted.output
            inputs = {"model": str(tmp_path / "model.json")}
        elif cmd == "stats":
            write_ranks_csv(tmp_path / "ranks.csv", 0)
            inputs = {"ranks": str(tmp_path / "ranks.csv")}
        cfg.write_text(json.dumps({**inputs, key: "x"}))
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"bad value for {key!r}" in result.output

    @pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("cmd,key", [
        ("decompose", "levels"), ("decompose", "frequency"), ("fit", "levels"),
        ("fit", "seasonal_lag"), ("fit", "seed"), ("evaluate", "seed"),
    ])
    def test_values_that_int_would_truncate_are_config_errors(self, runner, tmp_path,
                                                             networks_trained, cmd, key,
                                                             value):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        inputs = {**FAST_TRAIN, "data": str(data), "seed": 1, "p_grid": "1", "levels": 1,
                  "frequency": 12, "horizons": ["short"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**inputs, key: value}))
        out = tmp_path / "out"
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"bad value for {key!r}: {value!r} (expected int)" in result.output
        assert networks_trained == []
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("cmd,source", [
        ("evaluate", "flag"), ("evaluate", "config"), ("evaluate", "datasets"),
        ("decompose", "flag"), ("profile", "config"),
    ])
    def test_a_frequency_below_one_is_config_error(self, runner, tmp_path, networks_trained,
                                                   cmd, source, value):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = {**FAST_TRAIN, "seed": 1, "p_grid": "1", "horizons": ["short"]}
        flags = []
        if source == "datasets":
            cfg["datasets"] = [{"data": str(data), "frequency": value}]
        else:
            cfg["data"] = str(data)
            if source == "config":
                cfg["frequency"] = value
            else:
                flags = ["--frequency", str(value)]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, [cmd, "--config", str(tmp_path / "cfg.json"), *flags,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"bad value for 'frequency': {value} (expected >= 1)" in result.output
        assert networks_trained == []
        assert not out.exists()

    def test_whole_number_floats_are_integer_values(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data), "levels": 2.0, "frequency": 12.0}))
        result = runner.invoke(main, ["decompose", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "decomposition_summary.json").read_text())["levels"] == 2

    @pytest.mark.parametrize("cmd,key,value", [
        ("fit", "horizon", 0), ("forecast", "horizon", 0), ("forecast", "horizon", -2),
        ("forecast", "level", 1.5), ("forecast", "level", 0), ("forecast", "level", 1),
        ("stats", "alpha", 1.5), ("stats", "alpha", 0), ("stats", "alpha", -0.1),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_values_are_config_errors(self, runner, tmp_path, cmd, key, value,
                                                   source):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        inputs = {**FAST_TRAIN, "data": str(data), "seed": 1, "p_grid": "1", "levels": 1}
        cfg = tmp_path / "cfg.json"
        if cmd == "forecast":
            cfg.write_text(json.dumps(FAST_TRAIN))
            fitted = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                          "--seed", "1", "--p-grid", "1", "--levels", "1",
                                          "--out", str(tmp_path)])
            assert fitted.exit_code == 0, fitted.output
            inputs = {"model": str(tmp_path / "model.json"), "interval": "conformal"}
        elif cmd == "stats":
            write_ranks_csv(tmp_path / "ranks.csv", 0)
            inputs = {"ranks": str(tmp_path / "ranks.csv")}
        flag = ["--" + key, str(value)] if source == "flag" else []
        cfg.write_text(json.dumps(inputs if flag else {**inputs, key: value}))
        out = tmp_path / "out"
        result = runner.invoke(main, [cmd, "--config", str(cfg), *flag, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"bad value for {key!r}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("cmd,key", [
        ("decompose", "data"), ("fit", "data"), ("profile", "data"), ("evaluate", "data"),
        ("evaluate", "datasets"), ("forecast", "model"), ("stats", "ranks"),
        ("fit", "output_dir"), ("evaluate", "output_dir"),
    ])
    def test_path_keys_must_be_strings(self, runner, tmp_path, cmd, key):
        # open() and os.path.exists() take an int as a file descriptor.
        data = tmp_path / "series.csv"
        write_series_csv(data)
        target = data
        inputs = {**FAST_TRAIN, "data": str(data), "seed": 1, "p_grid": "1", "levels": 1,
                  "frequency": 12, "horizons": ["short"]}
        cfg = tmp_path / "cfg.json"
        if cmd == "forecast":
            cfg.write_text(json.dumps(FAST_TRAIN))
            fitted = runner.invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                          "--seed", "1", "--p", "1", "--levels", "1",
                                          "--out", str(tmp_path)])
            assert fitted.exit_code == 0, fitted.output
            target = tmp_path / "model.json"
            inputs = {}
        elif cmd == "stats":
            target = tmp_path / "ranks.csv"
            write_ranks_csv(target, 0)
            inputs = {}
        fd = os.open(target, os.O_RDONLY)
        try:
            assert fd > 2
            if key == "datasets":
                inputs["datasets"] = [{"data": fd, "frequency": 12}]
            else:
                inputs[key] = fd
            cfg.write_text(json.dumps(inputs))
            out = [] if key == "output_dir" else ["--out", str(tmp_path / "out")]
            result = runner.invoke(main, [cmd, "--config", str(cfg), *out])
        finally:
            try:
                os.close(fd)
            except OSError:
                pass
        assert result.exit_code == 2, result.output
        name = "data" if key == "datasets" else key
        assert f"bad value for {name!r}: {fd} (expected a path string)" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["fit", "evaluate"])
    @pytest.mark.parametrize("grid", ["4,4", "2,1,2", "0,3", "0-2", "3-1"])
    def test_repeated_or_non_positive_lags_are_config_errors(self, runner, tmp_path,
                                                              networks_trained, cmd, grid):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_TRAIN))
        extra = ["--levels", "1"] if cmd == "fit" else ["--frequency", "12", "--horizon", "short"]
        out = tmp_path / "out"
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--p-grid", grid, *extra, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "p_grid" in result.output
        assert networks_trained == []
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["fit", "evaluate"])
    @pytest.mark.parametrize("lag", [0, -1])
    def test_non_positive_seasonal_lag_is_config_error(self, runner, tmp_path,
                                                        networks_trained, cmd, lag):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_TRAIN, "seasonal_lag": lag}))
        extra = ["--levels", "1"] if cmd == "fit" else ["--frequency", "12", "--horizon", "short"]
        out = tmp_path / "out"
        result = runner.invoke(main, [cmd, "--config", str(cfg), "--data", str(data),
                                      "--seed", "1", "--p-grid", "1-3", *extra, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "seasonal_lag" in result.output
        assert networks_trained == []
        assert not out.exists()

    def test_bad_grid_spec(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        result = runner.invoke(main, ["fit", "--data", str(data), "--seed", "1",
                                      "--p-grid", "zero-five"])
        assert result.exit_code == 2


# Each input file kind: the command that reads it, and valid bytes with one cell or
# value made non-UTF-8.
INPUT_KINDS = {
    "data": (lambda path, data: ["decompose", "--data", path],
             b"value\n1.0\n\xff2.0\n"),
    "config": (lambda path, data: ["decompose", "--config", path, "--data", data],
               b'{"levels": "\xff"}'),
    "model": (lambda path, data: ["forecast", "--model", path],
              b'{"schema_version": 1, "\xff": 0}'),
    "ranks": (lambda path, data: ["stats", "--ranks", path],
              b"case,a,b,c\nc0,1,2,3\nc\xff1,2,1,3\n"),
    "external": (lambda path, data: ["evaluate", "--data", data, "--frequency", "12",
                                     "--seed", "1", "--horizon", "short", "--p-grid", "1",
                                     "--external", f"other={path}"],
                 b"step,point\n1,30.0\n2,3\xff\n3,30.0\n"),
}


# A data file that cannot be opened is a configuration mistake (exit 2), as a
# missing one is; one that opens but does not decode is bad data (exit 3). A
# config file fails with 2, and a model, rank or external file with 3, either way.
@pytest.mark.parametrize("kind,damage,code", [
    ("data", "missing", 2), ("data", "directory", 2), ("data", "non-utf8", 3),
    *((kind, damage, 2 if kind == "config" else 3)
      for kind in ("config", "model", "ranks", "external")
      for damage in ("missing", "directory", "non-utf8")),
    ("external", "short-row", 3),
])
def test_unreadable_input_exits_2_or_3(runner, tmp_path, networks_trained, kind, damage, code):
    data = tmp_path / "series.csv"
    write_series_csv(data, n=100)
    argv, non_utf8 = INPUT_KINDS[kind]
    path = tmp_path / "input"
    if damage == "directory":
        path.mkdir()
    elif damage == "non-utf8":
        path.write_bytes(non_utf8)
    elif damage == "short-row":
        path.write_text("step,point\n1,30.0\n2\n3,30.0\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [*argv(str(path), str(data)), "--out", str(out)])
    assert result.exit_code == code, result.output
    assert result.output.startswith("Error: ")
    assert networks_trained == []
    assert not out.exists()


# Cells as epicast writes them: names with commas, quotes, spaces, leading "#" and
# line breaks, and numbers.
table_cells = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["north, 2020", '"', 'say "hi"', " ", " lead", "trail ", "#", "# x", "",
                     "a\rb", "a\r\nb", "\n"]),
    st.floats(allow_nan=False).map(repr),
)
tables = st.integers(1, 5).flatmap(lambda width: st.tuples(
    # A header line that started with "#" would read as a provenance line.
    st.lists(table_cells, min_size=width, max_size=width).filter(
        lambda header: not header[0].startswith("#")),
    st.lists(st.lists(table_cells, min_size=width, max_size=width), max_size=6)))


@settings(max_examples=300, deadline=None)
@given(table=tables)
def test_written_csv_reads_back_cell_for_cell(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_csv(path, header, rows, seed=1, digest="0" * 16)
    assert core.read_table(path) == (header, rows)
