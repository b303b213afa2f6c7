"""One validation-window rule sizes lag selection in `fit`, `SplitSpec` and `evaluate`."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from epicast.cli import main
from epicast.core import SplitSpec, TimeSeries, validation_len
from epicast.evaluation import HorizonSpec, rolling_evaluate
from epicast.ewnet import EwnetConfig
from epicast.neuralnet import TrainConfig

QUICK_TRAIN = {"learning_rate": 0.05, "epochs": 3, "restarts": 1}


@pytest.mark.parametrize("n,h,expected", [(120, 4, 8), (40, 8, 10), (68, 12, 17), (3, 5, 1)])
def test_validation_len_examples(n, h, expected):
    assert validation_len(n, h) == expected


@given(st.integers(1, 60), st.integers(4, 5000))
def test_split_sizes_validation_on_the_span_before_the_test(h, fit_span):
    n = h + fit_span
    split = SplitSpec.for_series(n, test_len=h)
    assert split.val_len == validation_len(n - h, h)
    assert split.total == n


def test_rolling_evaluate_caps_the_validation_window_on_a_short_fit_span():
    # n - h < 8h: twice the horizon (24) would exceed a quarter of the 68-point fit span.
    y = 30.0 + np.random.default_rng(1).normal(size=80)
    cfg = EwnetConfig(levels=1, p_grid=(1,), train_cfg=TrainConfig(**QUICK_TRAIN, seed=2))
    report = rolling_evaluate(TimeSeries(values=y, frequency=12), HorizonSpec("long", 12), cfg)
    split = report.split
    assert (split.train_len, split.val_len, split.test_len) == (51, 17, 12)


@pytest.mark.parametrize("n,h", [(120, 4), (40, 8)])
def test_fit_calibrates_on_the_validation_window(tmp_path, n, h):
    data = tmp_path / "series.csv"
    y = 30.0 + np.random.default_rng(n).normal(size=n)
    data.write_text("value\n" + "".join(f"{v}\n" for v in y))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": QUICK_TRAIN}))
    result = CliRunner().invoke(main, ["fit", "--config", str(cfg), "--data", str(data),
                                       "--seed", "3", "--p-grid", "1", "--horizon", str(h),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "model.json").read_text())
    assert len(doc["calibration_abs_residuals"]) == validation_len(n, h)
