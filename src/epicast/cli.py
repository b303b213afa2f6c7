"""Batch command-line front end.

Subcommands: decompose, fit, forecast, evaluate, stats, profile. Options can
come from a JSON config file (--config); explicit flags override config keys.
All randomness flows from the single run seed, and every output file embeds
the seed and a digest of the resolved configuration.

Exit codes: 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import core, evaluation, ewnet, neuralnet, wavelet
from .core import DataError, TimeSeries, UndefinedMetricError

MODEL_SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

TRAIN_KEYS = ("learning_rate", "epochs", "restarts", "tolerance", "patience")
AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
IN_UNIT_INTERVAL = (lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
ALPHA = (lambda v: evaluation.MIN_ALPHA <= v < 1.0, f"a value in [{evaluation.MIN_ALPHA:g}, 1)")
# Checked with isinstance: os.path.isfile() reads an int as a file descriptor.
PATH = (lambda v: isinstance(v, str), "a path string")
COLUMN = (lambda v: isinstance(v, str), "a column name")
INTERVAL = (lambda v: v in ("precontrol", "conformal"), "'precontrol' or 'conformal'")


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
    os.close(fd)
    try:
        Path(tmp).write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: dict, seed: int, digest: str) -> None:
    payload = {"seed": seed, "config_digest": digest, **payload}
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(cell) -> str:
    """``cell`` as ``csv.writer`` writes it: ``str`` of a number, and text as it is,
    or quoted with its quotes doubled when it holds a comma, a quote, a CR or an LF.

    A NUL character is a ValueError on every Python (3.10's ``csv`` cannot write one).
    """
    if not isinstance(cell, str):
        return str(cell)
    if "\x00" in cell:
        raise ValueError(f"a CSV cell cannot hold a NUL character: {cell!r}")
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, header: list[str], rows, seed: int, digest: str) -> None:
    """A provenance line, then CSV-quoted rows that ``core.read_table`` reads back.

    Cells are ``str``, ``int`` or ``float``, written by ``_cell``: the bytes of
    ``csv.writer``, with LF in place of its CR LF row terminator.
    """
    # As csv.writer does, a row of one empty cell is quoted, so it does not read as blank.
    lines = ['""' if len(row) == 1 and row[0] == "" else ",".join(map(_cell, row))
             for row in [header, *rows]]
    _atomic_write(path, "\n".join([f"# seed={seed} config_digest={digest}", *lines, ""]))


def _read_json(path, error: type[click.ClickException]):
    """The parsed UTF-8 JSON file at ``path``; any failure raises ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise error(f"no such file: {path}")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise error(f"cannot read {path}: {exc}")


def _load_config(config_path) -> dict:
    cfg = {} if config_path is None else _read_json(config_path, ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resolve(cfg: dict, key: str, flag_value, default=None, required=False, kind=None,
             check=None):
    """The flag, else the config key (JSON null counts as unset), else ``default``.

    ``kind``, ``int`` or ``float``, takes a flag or config value through ``core.number``
    (``int`` as a whole number), and ``check``, a (predicate, description) pair, bounds
    the converted value; a value either rejects is a config error.
    """
    value = flag_value if flag_value is not None else cfg.get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing required option --{key.replace('_', '-')} "
                              f"(config key {key!r})")
        return default
    if kind is not None:
        try:
            value = core.number(value, key, whole=kind is int)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r} (expected {kind.__name__})")
    if check is not None and not check[0](value):
        raise ConfigError(f"bad value for {key!r}: {value!r} (expected {check[1]})")
    return value


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
    # EwnetConfig rejects an empty grid, repeated lags and lags below 1.
    return grid


def _read_series(cfg: dict, data, value_column, frequency) -> tuple[TimeSeries, dict]:
    """The input series and its digest keys: the value column and the sha256 of the file."""
    path = _resolve(cfg, "data", data, required=True, check=PATH)
    value_column = _resolve(cfg, "value_column", value_column, default="value", check=COLUMN)
    frequency = _resolve(cfg, "frequency", frequency, default=1, kind=int, check=AT_LEAST_ONE)
    if not (os.path.isfile(path) and os.access(path, os.R_OK)):
        # A wrong path is a configuration mistake, not bad data.
        raise ConfigError(f"no readable data file: {path}")
    try:
        series = core.load_csv(path, value_column, frequency)
    except DataError as exc:
        raise CliDataError(str(exc))
    return series, {"value_column": value_column, "data_sha256": _file_sha256(path)}


def _bounded_levels(levels, n: int, error: type[Exception]):
    """``levels``, unless it exceeds floor(log2 n), where a level's filter outgrows the series."""
    if levels is not None and levels > n.bit_length() - 1:
        raise error(f"bad value for 'levels': {levels} (expected at most floor(log2 N) = "
                    f"{n.bit_length() - 1} for a series of N = {n} points)")
    return levels


def _ewnet_config(cfg: dict, levels, p_grid, metric, seed) -> ewnet.EwnetConfig:
    levels = _resolve(cfg, "levels", levels, kind=int)
    grid = _parse_grid(_resolve(cfg, "p_grid", p_grid, default="1-20"))
    metric = _resolve(cfg, "metric", metric, default="mase")
    try:
        base = neuralnet.TrainConfig(seed=seed)
    except ValueError as exc:  # a negative seed
        raise ConfigError(str(exc))
    train = cfg.get("train", {})
    try:
        if not isinstance(train, dict) or not set(train) <= set(TRAIN_KEYS):
            raise ValueError(f"keys must be among {', '.join(TRAIN_KEYS)}")
        train_cfg = dataclasses.replace(base, **train)
    except ValueError as exc:
        raise ConfigError(f"bad 'train' config {train!r}: {exc}")
    try:
        return ewnet.EwnetConfig(
            levels=levels,
            p_grid=grid,
            selection_metric=metric,
            seasonal_lag=_resolve(cfg, "seasonal_lag", None, default=1, kind=int),
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
    click.option("--frequency", type=int, default=None),
    click.option("--out", type=click.Path(), default=None, help="Output directory."),
]


def shared_options(fn):
    for option in reversed(_shared):
        fn = option(fn)
    return fn


def _out_dir(cfg: dict, out) -> Path:
    return Path(_resolve(cfg, "output_dir", out, default=".", check=PATH))


@main.command()
@shared_options
@click.option("--levels", type=int, default=None, help="Detail levels J (default floor(ln N) - 1).")
def decompose(config, data, value_column, frequency, out, levels):
    """Write the MODWT decomposition as CSV columns t, D1..DJ, SJ, original."""
    cfg = _load_config(config)
    series, keys = _read_series(cfg, data, value_column, frequency)
    j = _bounded_levels(_resolve(cfg, "levels", levels, kind=int, check=(lambda v: v >= 0, ">= 0")),
                        len(series), ConfigError)
    try:
        if j is None:
            j = ewnet.default_levels(len(series))
        decomp = wavelet.modwt_forward(series, j)
    except ValueError as exc:
        raise NumericError(str(exc))
    digest = _config_digest({"cmd": "decompose", "levels": j, **keys})

    out_dir = _out_dir(cfg, out)
    header = ["t"] + [f"D{i}" for i in range(1, j + 1)] + ["SJ", "original"]
    columns = np.column_stack([*decomp.details, decomp.smooth, series.values])
    rows = [[t, *values] for t, values in enumerate(columns.tolist())]
    _write_csv(out_dir / "decomposition.csv", header, rows, seed=0, digest=digest)
    _write_json(out_dir / "decomposition_summary.json",
                {"n": decomp.n, "levels": j, "filter": decomp.filter,
                 "boundary": decomp.boundary},
                seed=0, digest=digest)
    click.echo(f"wrote {out_dir / 'decomposition.csv'}")


def _model_to_json(model: ewnet.EwnetModel, train_cfg: neuralnet.TrainConfig,
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
        "train_config": dataclasses.asdict(train_cfg),
    }


def _component_from_dict(c: int, d: dict) -> neuralnet.NeuralNetModel:
    """Component network ``c``; a ValueError from its weights names the component."""
    try:
        return neuralnet.NeuralNetModel.from_dict(d)
    except ValueError as exc:
        raise ValueError(f"component {c}: {exc}") from None


def _model_from_json(doc: dict) -> tuple[ewnet.EwnetModel, np.ndarray, np.ndarray | None, int]:
    """The model, its in-sample and calibration residuals, and the seed it was fitted with."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise CliDataError(f"unsupported model schema version {version!r}")
    try:
        train = core.numbers(doc["train_series"], "'train_series'")
        decomposition = wavelet.modwt_forward(train, _bounded_levels(
            core.number(doc["levels"], "'levels'", whole=True), train.size, ValueError))
        for key in ("filter", "boundary"):
            if doc[key] != getattr(decomposition, key):
                raise ValueError(f"{key!r} is {doc[key]!r}, but the model is rebuilt "
                                 f"with {getattr(decomposition, key)!r}")
        model = ewnet.EwnetModel(
            decomposition=decomposition,
            component_models=[_component_from_dict(c, d)
                              for c, d in enumerate(doc["component_models"])],
            chosen_p=core.number(doc["chosen_p"], "'chosen_p'", whole=True),
            train_series=train,
        )
        residuals = core.numbers(doc["in_sample_residuals"], "'in_sample_residuals'")
        cal = doc.get("calibration_abs_residuals")
        cal_arr = None if cal is None else core.numbers(cal, "'calibration_abs_residuals'")
        seed = core.number(doc.get("seed", 0), "'seed'", whole=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliDataError(f"malformed model file: {type(exc).__name__}: {exc}")
    return model, residuals, cal_arr, seed


@main.command()
@shared_options
@click.option("--seed", type=int, default=None, help="Run seed (required).")
@click.option("--levels", type=int, default=None)
@click.option("--p-grid", default=None, help="Lag grid, e.g. '1-20' or '1,5,9'.")
@click.option("--p", "fixed_p", type=click.IntRange(min=1), default=None,
              help="Skip selection; use this lag order.")
@click.option("--metric", type=click.Choice(["mase", "smape"]), default=None)
@click.option("--horizon", type=int, default=None, help="Horizon used to size the validation tail.")
def fit(config, data, value_column, frequency, out, seed,
        levels, p_grid, fixed_p, metric, horizon):
    """Fit an EWNet model and write it as JSON."""
    cfg = _load_config(config)
    seed = _resolve(cfg, "seed", seed, required=True, kind=int)
    out_dir = _out_dir(cfg, out)
    series, keys = _read_series(cfg, data, value_column, frequency)
    horizon = _resolve(cfg, "horizon", horizon, default=1, kind=int, check=AT_LEAST_ONE)
    e_cfg = _ewnet_config(cfg, levels, p_grid, metric, seed)
    _bounded_levels(e_cfg.levels, len(series), ConfigError)
    # The digest keeps the horizon among the fit settings: it sizes the validation window.
    digest = _config_digest({"cmd": "fit", "config": {**dataclasses.asdict(e_cfg),
                                                      "horizon": horizon},
                             "p": fixed_p, **keys})
    values = series.values
    try:
        if fixed_p is not None:
            model = ewnet.fit_ewnet(values, e_cfg, fixed_p)
            cal = None
        else:
            val_len = core.validation_len(values.size, horizon)
            train, val = values[:-val_len], values[-val_len:]
            p = ewnet.select_p(train, val, e_cfg)
            model, head = map(core.unwrap, ewnet.fit_ewnets([(values, e_cfg, p),
                                                             (train, e_cfg, p)]))
            cal = ewnet.validation_abs_residuals(head, val)
        residuals = ewnet.in_sample_residuals(model)
    except ValueError as exc:
        raise NumericError(str(exc))

    _write_json(out_dir / "model.json",
                _model_to_json(model, e_cfg.train_cfg, residuals, cal), seed=seed, digest=digest)
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
    model_path = _resolve(cfg, "model", model_path, required=True, check=PATH)
    horizon = _resolve(cfg, "horizon", horizon, default=1, kind=int, check=AT_LEAST_ONE)
    interval = _resolve(cfg, "interval", interval, default="precontrol", check=INTERVAL)
    level = _resolve(cfg, "level", level, default=0.9, kind=float, check=IN_UNIT_INTERVAL)
    model, residuals, cal, seed = _model_from_json(_read_json(model_path, CliDataError))
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
    except ValueError as exc:
        raise NumericError(str(exc))

    out_dir = _out_dir(cfg, out)
    columns = np.column_stack([band.point, band.lower, band.upper])
    rows = [[step, *values, band.method] for step, values in enumerate(columns.tolist(), 1)]
    _write_csv(out_dir / "forecast.csv", ["step", "point", "lower", "upper", "method"],
               rows, seed=seed, digest=digest)
    click.echo(f"wrote {out_dir / 'forecast.csv'}")


def _csv_name(name, what: str):
    """``name``, which the rank CSVs hold; a NUL character in it is a config error."""
    if "\x00" in name:
        raise ConfigError(f"{what} {name!r} holds a NUL character, which a CSV cell cannot hold")
    return name


def _parse_external(pairs) -> dict[str, str]:
    mapping = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--external expects name=path, got {pair!r}")
        name, path = pair.split("=", 1)
        mapping[name] = path
    return mapping


@main.command()
@shared_options
@click.option("--seed", type=int, default=None)
@click.option("--horizon", "horizons", multiple=True,
              type=click.Choice(tuple(evaluation.WEEKLY_STEPS)),
              help="May repeat; default all three.")
@click.option("--p-grid", default=None)
@click.option("--metric", type=click.Choice(["mase", "smape"]), default=None)
@click.option("--external", multiple=True, help="name=path.csv third-party forecast.")
def evaluate(config, data, value_column, frequency, out, seed,
             horizons, p_grid, metric, external):
    """Rolling-window evaluation; emits a JSON report plus rank CSVs."""
    cfg = _load_config(config)
    seed = _resolve(cfg, "seed", seed, required=True, kind=int)
    out_dir = _out_dir(cfg, out)
    e_cfg = _ewnet_config(cfg, None, p_grid, metric, seed)
    settings = dataclasses.asdict(e_cfg)
    horizons = list(horizons) or _resolve(cfg, "horizons", None,
                                          default=list(evaluation.WEEKLY_STEPS))
    if not isinstance(horizons, list) or not horizons:
        raise ConfigError("'horizons' must be a non-empty list")
    for i, kind in enumerate(horizons):
        if kind in horizons[:i]:
            raise ConfigError(f"horizon {kind!r} is given twice")
    external_cfg = _resolve(cfg, "external_forecasts", None, default={})
    if not isinstance(external_cfg, dict) or not all(
            isinstance(path, str) for path in external_cfg.values()):
        raise ConfigError("'external_forecasts' must be an object mapping names to paths")
    external_map = {**external_cfg, **_parse_external(external)}
    for name in external_map:
        if name in evaluation.BUILTIN_FORECASTERS:
            raise ConfigError(f"external forecast name {name!r} is a built-in forecaster's")
        _csv_name(name, "external forecast name")

    entries = cfg.get("datasets")
    if entries is None:
        # A single --data series is a one-entry dataset list; flags override config keys.
        flags = {"data": data, "value_column": value_column, "frequency": frequency}
        entries = [{key: _resolve(cfg, key, flag) for key, flag in flags.items()}]
    if not isinstance(entries, list) or not entries or not all(
            isinstance(e, dict) for e in entries):
        raise ConfigError("'datasets' must be a list of objects, and not empty")
    datasets = []
    for entry in entries:
        series, keys = _read_series(entry, None, None, None)
        _bounded_levels(e_cfg.levels, len(series), ConfigError)
        name = _resolve(entry, "name", None, check=(lambda v: isinstance(v, str), "text"))
        name = _csv_name(name or Path(entry["data"]).stem, "dataset name")
        if any(name == other["name"] for _, other in datasets):
            raise ConfigError(f"two datasets are named {name!r}; give each a distinct 'name'")
        datasets.append((series, {"name": name, "frequency": series.frequency, **keys}))
    # Each external forecast is read and hashed once, so the digest covers the scored bytes.
    external_points, external_sha = {}, {}
    for name, path in external_map.items():
        try:
            external_points[name] = core.load_csv(path, "point").values
        except DataError as exc:
            raise CliDataError(f"external forecast {name!r}: {exc}")
        external_sha[name] = _file_sha256(path)

    # Plan every case (dataset x horizon) before any network is trained.
    plan = []
    for series, keys in datasets:
        for kind in horizons:
            case = f"{keys['name']}:{kind}"
            try:
                spec = evaluation.HorizonSpec.for_frequency(kind, series.frequency)
            except (TypeError, ValueError):
                raise ConfigError(f"unknown horizon {kind!r} (use short, medium or long)")
            try:
                evaluation.backtest_split(len(series), spec, external_points)
            except ValueError as exc:
                raise CliDataError(f"{case}: {exc}")
            plan.append((case, series, spec))

    # Every case trains in one backtest; the first case in plan order that failed is reported.
    reports = []
    backtest = evaluation.backtest([(series, spec) for _, series, spec in plan], e_cfg,
                                   external=external_points)
    for (case, *_), report in zip(plan, backtest):
        try:
            reports.append((case, core.unwrap(report)))
        except UndefinedMetricError as exc:
            raise NumericError(str(exc))
        except ValueError as exc:
            raise CliDataError(f"{case}: {exc}")

    digest = _config_digest({
        "cmd": "evaluate",
        "datasets": [keys for _, keys in datasets],
        # Each case's entry keeps its horizon, the steps that size its windows.
        "cases": [{"case": case, "config": {**settings, "horizon": report.horizon.steps}}
                  for case, report in reports],
        "external_sha256": external_sha,
    })
    _write_json(out_dir / "evaluation.json", {"cases": [{
        "case": case,
        "horizon": dataclasses.asdict(report.horizon),
        "split": {"train": report.split.train_len, "val": report.split.val_len,
                  "test": report.split.test_len},
        "results": {c.forecaster: {**dataclasses.asdict(c.metrics),
                                   **({"coverage": c.coverage} if c.coverage is not None else {})}
                    for c in report.cells},
    } for case, report in reports]}, seed=seed, digest=digest)
    cases = [case for case, _ in reports]
    for metric_name in ("rmse", "mae", "mase", "smape"):
        scores = [report.metric_table(metric_name) for _, report in reports]
        table = evaluation.RankTable.from_scores(
            scores[0], cases, [list(row.values()) for row in scores], metric_name)
        rows = [[case, *rank_row] for case, rank_row in zip(cases, table.ranks.tolist())]
        _write_csv(out_dir / f"ranks_{metric_name}.csv", ["case", *table.models],
                   rows, seed=seed, digest=digest)
    click.echo(f"wrote {out_dir / 'evaluation.json'}")


def _read_rank_csv(path: str) -> evaluation.RankTable:
    try:
        header, body = core.read_table(path)
    except DataError as exc:
        raise CliDataError(str(exc))
    if len(header) < 3:
        raise CliDataError("rank CSV needs a header 'case,<model>,...' with >= 2 models")
    if len(body) < 2:
        raise CliDataError(
            "per-case ranks are required (at least 2 rows); mean ranks alone "
            "cannot reproduce the test statistics"
        )
    for row in body:
        if len(row) != len(header):
            raise CliDataError(f"bad rank table in {path}: row {row[0]!r} has {len(row)} "
                               f"cells, the header {len(header)}")
    try:
        ranks = np.array([[float(v) for v in row[1:]] for row in body])
        return evaluation.RankTable(models=tuple(header[1:]),
                                    datasets=tuple(row[0] for row in body),
                                    ranks=ranks, metric=Path(path).stem)
    except ValueError as exc:
        raise CliDataError(f"bad rank table in {path}: {exc}")


@main.command()
@click.option("--config", type=click.Path(), default=None)
@click.option("--ranks", "ranks_path", type=click.Path(), default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def stats(config, ranks_path, alpha, out):
    """Friedman/Iman and MCB analysis from a per-case rank CSV."""
    cfg = _load_config(config)
    ranks_path = _resolve(cfg, "ranks", ranks_path, required=True, check=PATH)
    alpha = _resolve(cfg, "alpha", alpha, default=0.05, kind=float, check=ALPHA)
    table = _read_rank_csv(ranks_path)
    digest = _config_digest({"cmd": "stats", "ranks_sha256": _file_sha256(ranks_path),
                             "alpha": alpha})
    try:
        friedman = evaluation.friedman_chi2(table, alpha)
        mcb = evaluation.mcb_analysis(table, alpha)
    except ValueError as exc:
        raise NumericError(str(exc))
    try:
        iman = evaluation.iman_f(friedman.statistic, len(table.models),
                                 len(table.datasets), alpha)
    except ValueError:
        # Undefined when every case ranks the models the same way (chi2 = D(M-1)).
        iman = None

    payload = {
        "alpha": alpha,
        "friedman": {"statistic": friedman.statistic, "df": friedman.df,
                     "p_value": friedman.p_value, "decision": friedman.decision},
        "iman_f": None if iman is None else {"statistic": iman.statistic, "df": iman.df,
                                             "p_value": iman.p_value,
                                             "decision": iman.decision},
        "mcb": [{"model": e.model, "mean_rank": e.mean_rank, "lower": e.lower,
                 "upper": e.upper, "significantly_worse": e.significantly_worse}
                for e in mcb],
    }
    out_dir = _out_dir(cfg, out)
    _write_json(out_dir / "stats.json", payload, seed=0, digest=digest)
    click.echo(f"wrote {out_dir / 'stats.json'}")


@main.command()
@shared_options
def profile(config, data, value_column, frequency, out):
    """Hurst-exponent profile of the input series."""
    cfg = _load_config(config)
    series, keys = _read_series(cfg, data, value_column, frequency)
    digest = _config_digest({"cmd": "profile", **keys})
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
