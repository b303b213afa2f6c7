"""Tests of the benchmark itself: inputs, span arithmetic, output checks, passes.

Run from the root of the checkout: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from epicast import cli, ewnet, wavelet  # noqa: E402

QUICK_TRAIN = {"epochs": 3, "restarts": 2}


def _invoke(argv):
    result = CliRunner().invoke(cli.main, argv, prog_name="epicast")
    return result.exit_code, result.output


def _write_inputs(seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    inputs.write_series(directory / "weekly.csv", inputs.weekly_series(seed))
    inputs.write_series(directory / "monthly.csv", inputs.monthly_series(seed))
    inputs.write_series(directory / "long.csv", inputs.long_series(seed))
    inputs.write_ranks(directory / "ranks.csv", inputs.rank_table(seed))
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generators_are_deterministic_per_seed(tmp_path):
    first = _write_inputs(7, tmp_path / "a")
    again = _write_inputs(7, tmp_path / "b")
    other = _write_inputs(8, tmp_path / "c")
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def test_generated_inputs_have_the_documented_shape():
    weekly = inputs.weekly_series(3)
    assert weekly.size == inputs.WEEKLY_LEN and weekly.min() >= 0.0
    assert inputs.monthly_series(3).size == inputs.MONTHLY_LEN
    assert inputs.long_series(3).size == inputs.LONG_LEN
    ranks = inputs.rank_table(3)
    assert ranks.shape == (inputs.RANK_CASES, inputs.RANK_MODELS)
    m = inputs.RANK_MODELS
    assert np.all(ranks.sum(axis=1) == m * (m + 1) / 2)


def test_self_time_on_hand_built_tree():
    tree = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 6.0, 8.0, parent=2),
        Span("d", 7.0, 7.5, parent=2),  # overlaps c: the union is counted once
    ]
    assert self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 2.0, 0.5])


def test_tracer_records_parents_and_restores_functions():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.wrap(inner, "inner")
    assert tracer.wrap(outer, "outer")(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert self_times(tracer.spans) == [2.0, 1.0]

    original = wavelet.modwt_forward
    tracer.install({"wavelet.modwt_forward": original})
    assert ewnet.modwt_forward is wavelet.modwt_forward is not original
    tracer.uninstall()
    assert ewnet.modwt_forward is original and wavelet.modwt_forward is original


@pytest.fixture
def fitted(tmp_path, monkeypatch):
    """A real fit, forecast and decompose on a short series, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    inputs.write_series(tmp_path / "s.csv", inputs.monthly_series(1))
    (tmp_path / "cfg.json").write_text('{"train": {"epochs": 3, "restarts": 2}}')
    for argv in (["fit", "--config", "cfg.json", "--data", "s.csv", "--seed", "1",
                  "--p-grid", "2", "--horizon", "4", "--out", "out"],
                 ["forecast", "--model", "out/model.json", "--horizon", "4",
                  "--interval", "conformal", "--level", "0.8", "--out", "out"],
                 ["decompose", "--data", "s.csv", "--out", "out"]):
        code, output = _invoke(argv)
        assert code == 0, output
    return tmp_path / "out"


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [edit(line) for line in lines[2:]]) + "\n")


def test_checker_accepts_real_outputs(fitted):
    checks.check_fit(fitted, (2,))
    checks.check_forecast(fitted, 4)
    checks.check_decompose(fitted)


def test_checker_flags_swapped_interval_bounds(fitted):
    def swap(line):
        step, point, lower, upper, method = line.split(",")
        return ",".join([step, point, upper, lower, method])

    _rewrite_csv(fitted / "forecast.csv", swap)
    with pytest.raises(checks.CheckError, match="lower <= point <= upper"):
        checks.check_forecast(fitted, 4)


def test_checker_flags_altered_decomposition_column(fitted):
    def bump_first_detail(line):
        cells = line.split(",")
        if cells[0] == "5":
            cells[1] = repr(float(cells[1]) + 1e-3)
        return ",".join(cells)

    _rewrite_csv(fitted / "decomposition.csv", bump_first_detail)
    with pytest.raises(checks.CheckError, match="miss the original"):
        checks.check_decompose(fitted)


def test_checker_flags_lag_outside_grid(fitted):
    with pytest.raises(checks.CheckError, match="not in grid"):
        checks.check_fit(fitted, (1, 3))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_pass_of_each_workload_has_no_errors(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.BUILDERS[name](5, tmp_path, train=QUICK_TRAIN)
    first = workloads.run_pass(workload, tmp_path, _invoke, SpeedProbe())
    second = workloads.run_pass(workload, tmp_path, _invoke, SpeedProbe())
    assert first.failures == [] and second.failures == []
    assert first.digest == second.digest
    assert all(math.isfinite(v) for v in first.quality.values())


def test_traced_pass_counts_networks_and_candidates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.weekly_fit(2, tmp_path, train=QUICK_TRAIN)
    tracer = Tracer()
    tracer.install(layers.targets(), layers.HOOKS)
    try:
        result = workloads.run_pass(workload, tmp_path, _invoke, SpeedProbe(), tracer)
    finally:
        tracer.uninstall()
    assert result.failures == []
    m = layers.layer_metrics(tracer.spans, result.seconds, result.facts["fit"]["networks_kept"])
    # Three candidates, the full refit and the calibration head, five components each.
    assert m["neuralnet.fit_network.calls"] == 25
    assert m["ewnet.networks_kept_ratio"] == pytest.approx(5 / 25)
    assert (m["ewnet.select_p.candidates"], m["ewnet.select_p.skipped"]) == (3, 0)
    assert m["neuralnet.fit_network.epochs_run"] == 25 * QUICK_TRAIN["epochs"]
    # modwt_forward is reached through ewnet's own name (fits and one call per
    # calibration step) as well as through cli (rebuilding the model to forecast).
    assert m["wavelet.modwt_forward.calls"] == 5 + 26 + 1
    assert m["ewnet.validation_abs_residuals.steps"] == 26
    assert 0.0 < m["neuralnet.fit_network.fit_share"] < 1.0


def test_benchmark_json_lists_every_reported_metric():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [*layers.layer_metrics([], 1.0, 0), "trace.overhead_s",
                 *(f"quality.{name}" for name in workloads.QUALITY)]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: layers.unit(name) for name in per_layer}
