"""Batch command-line front end.

Subcommands: decompose, fit, forecast, evaluate, stats, profile. Options can
come from a JSON config file (--config); explicit flags override config keys.
All randomness flows from the single run seed, and every output file embeds
the seed and a digest of the resolved configuration.

Exit codes: 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import baselines, core, evaluation, ewnet, neuralnet, wavelet
from .core import DataError, TimeSeries, UndefinedMetricError

MODEL_SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(click.ClickException):
    exit_code = EXIT_CONFIG


class CliDataError(click.ClickException):
    exit_code = EXIT_DATA


class NumericError(click.ClickException):
    exit_code = EXIT_NUMERIC


def _config_digest(resolved: dict) -> str:
    payload = json.dumps(resolved, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict, seed: int, digest: str) -> None:
    payload = {"seed": seed, "config_digest": digest, **payload}
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows, seed: int, digest: str) -> None:
    lines = [f"# seed={seed} config_digest={digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _load_config(config_path) -> dict:
    if config_path is None:
        return {}
    try:
        with open(config_path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resolve(cfg: dict, key: str, flag_value, default=None, required=False):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    if required and default is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')} (config key {key!r})")
    return default


def _parse_grid(spec: str) -> tuple[int, ...]:
    spec = str(spec)
    try:
        if "-" in spec:
            lo, hi = spec.split("-", 1)
            grid = tuple(range(int(lo), int(hi) + 1))
        else:
            grid = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse lag grid {spec!r} (use 'LO-HI' or 'a,b,c')")
    if not grid or min(grid) < 1:
        raise ConfigError("lag grid must contain positive integers")
    return grid


def _read_series(cfg: dict, data, value_column, label_column, frequency) -> TimeSeries:
    path = _resolve(cfg, "data", data, required=True)
    value_column = _resolve(cfg, "value_column", value_column, default="value")
    label_column = _resolve(cfg, "label_column", label_column)
    frequency = int(_resolve(cfg, "frequency", frequency, default=1))
    if not os.path.exists(path):
        # A wrong path is a configuration mistake, not bad data.
        raise ConfigError(f"no such data file: {path}")
    try:
        return core.load_csv(path, value_column, label_column, frequency)
    except DataError as exc:
        raise CliDataError(str(exc))


def _ewnet_config(cfg: dict, levels, p_grid, metric, horizon, seed) -> ewnet.EwnetConfig:
    grid = _parse_grid(_resolve(cfg, "p_grid", p_grid, default="1-20"))
    metric = _resolve(cfg, "metric", metric, default="mase")
    train_keys = cfg.get("train", {})
    train_cfg = neuralnet.TrainConfig(
        learning_rate=float(train_keys.get("learning_rate", 0.005)),
        epochs=int(train_keys.get("epochs", 500)),
        restarts=int(train_keys.get("restarts", 20)),
        seed=seed,
        tolerance=float(train_keys.get("tolerance", 1e-8)),
        patience=int(train_keys.get("patience", 25)),
    )
    try:
        return ewnet.EwnetConfig(
            levels=levels if levels is None else int(levels),
            p_grid=grid,
            selection_metric=metric,
            horizon=int(horizon),
            seasonal_lag=int(cfg.get("seasonal_lag", 1)),
            train_cfg=train_cfg,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


@click.group()
def main():
    """Wavelet ensemble neural network forecasting toolkit."""


_shared = [
    click.option("--config", type=click.Path(), default=None, help="JSON config file."),
    click.option("--data", type=click.Path(), default=None, help="Input CSV path."),
    click.option("--value-column", default=None),
    click.option("--label-column", default=None),
    click.option("--frequency", type=int, default=None),
    click.option("--out", type=click.Path(), default=None, help="Output directory."),
]


def shared_options(fn):
    for option in reversed(_shared):
        fn = option(fn)
    return fn


def _out_dir(cfg: dict, out) -> Path:
    return Path(_resolve(cfg, "output_dir", out, default="."))


@main.command()
@shared_options
@click.option("--levels", type=int, default=None, help="Detail levels J (default floor(ln N) - 1).")
def decompose(config, data, value_column, label_column, frequency, out, levels):
    """Write the MODWT decomposition as CSV columns t, D1..DJ, SJ, original."""
    cfg = _load_config(config)
    series = _read_series(cfg, data, value_column, label_column, frequency)
    levels = _resolve(cfg, "levels", levels)
    j = int(levels) if levels is not None else ewnet.default_levels(len(series))
    digest = _config_digest({"cmd": "decompose", "levels": j, "data": str(data or cfg.get("data"))})
    try:
        decomp = wavelet.modwt_forward(series, j)
    except ValueError as exc:
        raise NumericError(str(exc))

    out_dir = _out_dir(cfg, out)
    header = ["t"] + [f"D{i}" for i in range(1, j + 1)] + ["SJ", "original"]
    rows = [
        [t, *(d[t] for d in decomp.details), decomp.smooth[t], series.values[t]]
        for t in range(decomp.n)
    ]
    _write_csv(out_dir / "decomposition.csv", header, rows, seed=0, digest=digest)
    _write_json(out_dir / "decomposition_summary.json",
                {"n": decomp.n, "levels": j, "filter": decomp.filter,
                 "boundary": decomp.boundary},
                seed=0, digest=digest)
    click.echo(f"wrote {out_dir / 'decomposition.csv'}")


def _model_to_json(model: ewnet.EwnetModel, seed: int,
                   residuals: np.ndarray, cal_abs_residuals: np.ndarray | None) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "chosen_p": model.chosen_p,
        "chosen_k": model.chosen_k,
        "levels": model.decomposition.levels,
        "filter": model.decomposition.filter,
        "boundary": model.decomposition.boundary,
        "train_series": model.train_series.tolist(),
        "component_models": [m.to_dict() for m in model.component_models],
        "in_sample_residuals": residuals.tolist(),
        "calibration_abs_residuals":
            None if cal_abs_residuals is None else cal_abs_residuals.tolist(),
        "train_config": {**dataclasses.asdict(model.config.train_cfg), "seed": seed},
    }


def _model_from_json(doc: dict) -> tuple[ewnet.EwnetModel, np.ndarray, np.ndarray | None]:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise CliDataError(f"unsupported model schema version {doc.get('schema_version')!r}")
    train = np.array(doc["train_series"], dtype=float)
    decomp = wavelet.modwt_forward(train, int(doc["levels"]))
    cfg = ewnet.EwnetConfig(levels=int(doc["levels"]), p_grid=(int(doc["chosen_p"]),))
    model = ewnet.EwnetModel(
        decomposition=decomp,
        component_models=[neuralnet.NeuralNetModel.from_dict(d)
                          for d in doc["component_models"]],
        chosen_p=int(doc["chosen_p"]),
        chosen_k=int(doc["chosen_k"]),
        config=cfg,
        train_series=train,
    )
    residuals = np.array(doc["in_sample_residuals"], dtype=float)
    cal = doc.get("calibration_abs_residuals")
    cal_arr = None if cal is None else np.array(cal, dtype=float)
    return model, residuals, cal_arr


@main.command()
@shared_options
@click.option("--seed", type=int, default=None, help="Run seed (required).")
@click.option("--levels", type=int, default=None)
@click.option("--p-grid", default=None, help="Lag grid, e.g. '1-20' or '1,5,9'.")
@click.option("--p", "fixed_p", type=int, default=None, help="Skip selection; use this lag order.")
@click.option("--metric", type=click.Choice(["mase", "smape"]), default=None)
@click.option("--horizon", type=int, default=None, help="Horizon used to size the validation tail.")
def fit(config, data, value_column, label_column, frequency, out, seed,
        levels, p_grid, fixed_p, metric, horizon):
    """Fit an EWNet model and write it as JSON."""
    cfg = _load_config(config)
    seed = _resolve(cfg, "seed", seed)
    if seed is None:
        raise ConfigError("a seed is mandatory for fit (--seed)")
    seed = int(seed)
    series = _read_series(cfg, data, value_column, label_column, frequency)
    horizon = int(_resolve(cfg, "horizon", horizon, default=1))
    e_cfg = _ewnet_config(cfg, _resolve(cfg, "levels", levels), p_grid, metric, horizon, seed)
    digest = _config_digest({"cmd": "fit", "config": dataclasses.asdict(e_cfg), "p": fixed_p,
                             "value_column": _resolve(cfg, "value_column", value_column,
                                                      default="value"),
                             "data_sha256": _file_sha256(_resolve(cfg, "data", data))})
    values = series.values
    try:
        if fixed_p is not None:
            model = ewnet.fit_ewnet(values, e_cfg, p=int(fixed_p))
            cal = None
        else:
            val_len = min(2 * horizon, max(1, values.size // 4))
            train, val = values[:-val_len], values[-val_len:]
            p = ewnet.select_p(train, val, e_cfg)
            model = ewnet.fit_ewnet(values, e_cfg, p=p)
            head = ewnet.fit_ewnet(train, e_cfg, p=p)
            cal = ewnet.validation_abs_residuals(head, val)
        residuals = ewnet.in_sample_residuals(model)
    except ValueError as exc:
        raise NumericError(str(exc))

    out_dir = _out_dir(cfg, out)
    _write_json(out_dir / "model.json",
                _model_to_json(model, seed, residuals, cal), seed=seed, digest=digest)
    click.echo(f"wrote {out_dir / 'model.json'} (p={model.chosen_p}, k={model.chosen_k})")


@main.command()
@click.option("--config", type=click.Path(), default=None)
@click.option("--model", "model_path", type=click.Path(), default=None, required=False)
@click.option("--horizon", type=int, default=None)
@click.option("--interval", type=click.Choice(["precontrol", "conformal"]), default=None)
@click.option("--level", type=float, default=None, help="Conformal nominal level (default 0.9).")
@click.option("--out", type=click.Path(), default=None)
def forecast(config, model_path, horizon, interval, level, out):
    """Forecast from a fitted model JSON; writes step,point,lower,upper,method CSV."""
    cfg = _load_config(config)
    model_path = _resolve(cfg, "model", model_path, required=True)
    horizon = int(_resolve(cfg, "horizon", horizon, default=1))
    interval = _resolve(cfg, "interval", interval, default="precontrol")
    level = float(_resolve(cfg, "level", level, default=0.9))
    try:
        with open(model_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise CliDataError(f"no such model file: {model_path}")
    except json.JSONDecodeError as exc:
        raise CliDataError(f"model file is not valid JSON: {exc}")
    model, residuals, cal = _model_from_json(doc)
    seed = int(doc.get("seed", 0))
    # Identify the model by content, not path, so identical models yield
    # identical outputs wherever they live on disk.
    model_sha = _file_sha256(model_path)[:16]
    digest = _config_digest({"cmd": "forecast", "model_sha": model_sha,
                             "horizon": horizon, "interval": interval, "level": level})
    try:
        point = ewnet.forecast_ewnet(model, horizon)
        if interval == "conformal":
            if cal is None:
                raise NumericError("model has no calibration residuals; refit without --p "
                                   "or use --interval precontrol")
            band = ewnet.conformal_interval(point, cal, level)
        else:
            band = ewnet.precontrol_interval(point, residuals)
    except NumericError:
        raise
    except ValueError as exc:
        raise NumericError(str(exc))

    out_dir = _out_dir(cfg, out)
    rows = [[i + 1, band.point[i], band.lower[i], band.upper[i], band.method]
            for i in range(horizon)]
    _write_csv(out_dir / "forecast.csv", ["step", "point", "lower", "upper", "method"],
               rows, seed=seed, digest=digest)
    click.echo(f"wrote {out_dir / 'forecast.csv'}")


def _parse_external(pairs) -> dict[str, str]:
    mapping = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--external expects name=path, got {pair!r}")
        name, path = pair.split("=", 1)
        mapping[name] = path
    return mapping


def _load_external_forecast(path: str, steps: int) -> np.ndarray:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(row for row in handle if not row.startswith("#"))
            if reader.fieldnames is None or "point" not in reader.fieldnames:
                raise CliDataError(f"external forecast {path} needs a 'point' column")
            values = [float(row["point"]) for row in reader]
    except FileNotFoundError:
        raise CliDataError(f"no such file: {path}")
    except ValueError as exc:
        raise CliDataError(f"bad value in {path}: {exc}")
    return np.array(values[:steps], dtype=float)


@main.command()
@shared_options
@click.option("--seed", type=int, default=None)
@click.option("--horizon", "horizons", multiple=True,
              type=click.Choice(["short", "medium", "long"]),
              help="May repeat; default all three.")
@click.option("--p-grid", default=None)
@click.option("--metric", type=click.Choice(["mase", "smape"]), default=None)
@click.option("--external", multiple=True, help="name=path.csv third-party forecast.")
def evaluate(config, data, value_column, label_column, frequency, out, seed,
             horizons, p_grid, metric, external):
    """Rolling-window evaluation; emits a JSON report plus rank CSVs."""
    cfg = _load_config(config)
    seed = _resolve(cfg, "seed", seed)
    if seed is None:
        raise ConfigError("a seed is mandatory for evaluate (--seed)")
    seed = int(seed)
    horizons = list(horizons) or list(cfg.get("horizons", ["short", "medium", "long"]))
    external_map = {**cfg.get("external_forecasts", {}), **_parse_external(external)}

    datasets = cfg.get("datasets")
    if datasets is None:
        series = _read_series(cfg, data, value_column, label_column, frequency)
        datasets = [{"name": Path(str(data or cfg.get("data"))).stem, "series": series}]
    else:
        loaded = []
        for entry in datasets:
            s = _read_series(entry, entry.get("data"), entry.get("value_column"),
                             entry.get("label_column"), entry.get("frequency"))
            loaded.append({"name": entry.get("name", Path(entry["data"]).stem), "series": s})
        datasets = loaded

    digest = _config_digest({"cmd": "evaluate", "seed": seed, "horizons": horizons,
                             "datasets": [d["name"] for d in datasets],
                             "p_grid": p_grid, "metric": metric})

    report_cells = []
    case_names: list[str] = []
    metric_scores: dict[str, list[list[float]]] = {}
    model_names: list[str] | None = None
    for entry in datasets:
        for kind in horizons:
            series = entry["series"]
            try:
                spec = evaluation.HorizonSpec.for_frequency(kind, series.frequency)
            except ValueError:
                spec = evaluation.HorizonSpec(kind=kind,
                                              steps={"short": 3, "medium": 6, "long": 12}[kind])
            externals = {name: _load_external_forecast(path, spec.steps)
                         for name, path in external_map.items()}
            e_cfg = _ewnet_config(cfg, cfg.get("levels"), p_grid, metric, spec.steps, seed)
            try:
                report = evaluation.rolling_evaluate(series, spec, cfg=e_cfg, seed=seed,
                                                     external=externals)
            except UndefinedMetricError as exc:
                raise NumericError(str(exc))
            except ValueError as exc:
                raise CliDataError(f"{entry['name']}/{kind}: {exc}")
            case = f"{entry['name']}:{kind}"
            case_names.append(case)
            names = [c.forecaster for c in report.cells]
            if model_names is None:
                model_names = names
            for metric_name in ("rmse", "mae", "mase", "smape"):
                metric_scores.setdefault(metric_name, []).append(
                    [getattr(c.metrics, metric_name) for c in report.cells])
            report_cells.append({
                "case": case,
                "horizon": {"kind": spec.kind, "steps": spec.steps},
                "split": {"train": report.split.train_len, "val": report.split.val_len,
                          "test": report.split.test_len},
                "results": {
                    c.forecaster: {**c.metrics.as_dict(),
                                   **({"coverage": c.coverage} if c.coverage is not None else {})}
                    for c in report.cells
                },
            })

    out_dir = _out_dir(cfg, out)
    _write_json(out_dir / "evaluation.json", {"cases": report_cells}, seed=seed, digest=digest)
    for metric_name, scores in metric_scores.items():
        table = evaluation.RankTable.from_scores(model_names, case_names,
                                                 np.array(scores), metric_name)
        rows = [[case, *rank_row] for case, rank_row in zip(case_names, table.ranks)]
        _write_csv(out_dir / f"ranks_{metric_name}.csv", ["case", *model_names],
                   rows, seed=seed, digest=digest)
    click.echo(f"wrote {out_dir / 'evaluation.json'}")


def _read_rank_csv(path: str) -> evaluation.RankTable:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(row for row in handle if not row.startswith("#"))
            rows = list(reader)
    except FileNotFoundError:
        raise CliDataError(f"no such file: {path}")
    if not rows or len(rows[0]) < 3:
        raise CliDataError("rank CSV needs a header 'case,<model>,...' with >= 2 models")
    header = rows[0]
    body = rows[1:]
    if len(body) < 2:
        raise CliDataError(
            "per-case ranks are required (at least 2 rows); mean ranks alone "
            "cannot reproduce the test statistics"
        )
    try:
        ranks = np.array([[float(v) for v in row[1:]] for row in body])
    except ValueError as exc:
        raise CliDataError(f"bad rank value: {exc}")
    try:
        return evaluation.RankTable(models=tuple(header[1:]),
                                    datasets=tuple(row[0] for row in body),
                                    ranks=ranks, metric=Path(path).stem)
    except ValueError as exc:
        raise CliDataError(str(exc))


@main.command()
@click.option("--config", type=click.Path(), default=None)
@click.option("--ranks", "ranks_path", type=click.Path(), default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def stats(config, ranks_path, alpha, out):
    """Friedman/Iman and MCB analysis from a per-case rank CSV."""
    cfg = _load_config(config)
    ranks_path = _resolve(cfg, "ranks", ranks_path, required=True)
    alpha = float(_resolve(cfg, "alpha", alpha, default=0.05))
    table = _read_rank_csv(ranks_path)
    digest = _config_digest({"cmd": "stats", "ranks": str(ranks_path), "alpha": alpha})
    try:
        friedman = evaluation.friedman_chi2(table, alpha)
        iman = evaluation.iman_f(friedman.statistic, len(table.models),
                                 len(table.datasets), alpha)
        mcb = evaluation.mcb_analysis(table, alpha)
    except ValueError as exc:
        raise NumericError(str(exc))

    payload = {
        "alpha": alpha,
        "friedman": {"statistic": friedman.statistic, "df": friedman.df,
                     "p_value": friedman.p_value, "decision": friedman.decision},
        "iman_f": {"statistic": iman.statistic, "df": iman.df,
                   "p_value": iman.p_value, "decision": iman.decision},
        "mcb": [{"model": e.model, "mean_rank": e.mean_rank, "lower": e.lower,
                 "upper": e.upper, "significantly_worse": e.significantly_worse}
                for e in mcb],
    }
    out_dir = _out_dir(cfg, out)
    _write_json(out_dir / "stats.json", payload, seed=0, digest=digest)
    click.echo(f"wrote {out_dir / 'stats.json'}")


@main.command()
@shared_options
def profile(config, data, value_column, label_column, frequency, out):
    """Hurst-exponent profile of the input series."""
    cfg = _load_config(config)
    series = _read_series(cfg, data, value_column, label_column, frequency)
    digest = _config_digest({"cmd": "profile", "data": str(data or cfg.get("data"))})
    try:
        h = evaluation.hurst_exponent(series)
    except ValueError as exc:
        raise NumericError(str(exc))
    payload = {"n": len(series), "hurst_exponent": h,
               "long_range_dependent": bool(h > 0.55)}
    out_dir = _out_dir(cfg, out)
    _write_json(out_dir / "profile.json", payload, seed=0, digest=digest)
    click.echo(f"hurst exponent: {h:.3f}")


if __name__ == "__main__":
    sys.exit(main())
