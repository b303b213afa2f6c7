import json

import numpy as np
import pytest
from click.testing import CliRunner

from epicast.cli import main

FAST_TRAIN = {"train": {"learning_rate": 0.05, "epochs": 60, "restarts": 2}}


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_missing_data_file_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["decompose", "--data",
                                      str(tmp_path / "absent.csv")])
        assert result.exit_code == 2

    def test_malformed_data_is_data_error(self, runner, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("value\n1.0\nnot-a-number\n")
        result = runner.invoke(main, ["decompose", "--data", str(data)])
        assert result.exit_code == 3


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

    def test_missing_model_file(self, runner, tmp_path):
        result = runner.invoke(main, ["forecast", "--model", str(tmp_path / "nope.json")])
        assert result.exit_code == 3

    def test_unsupported_schema_version(self, runner, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        result = runner.invoke(main, ["forecast", "--model", str(bad)])
        assert result.exit_code == 3


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


class TestStats:
    def test_rejects_mean_ranks_only(self, runner, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("case,a,b\nmean,1.4,1.6\n")
        result = runner.invoke(main, ["stats", "--ranks", str(ranks)])
        assert result.exit_code == 3
        assert "per-case ranks are required" in result.output

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

    def test_bad_grid_spec(self, runner, tmp_path):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        result = runner.invoke(main, ["fit", "--data", str(data), "--seed", "1",
                                      "--p-grid", "zero-five"])
        assert result.exit_code == 2
