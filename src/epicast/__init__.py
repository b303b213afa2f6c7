"""Wavelet-decomposed autoregressive neural network forecasting toolkit."""

from .core import (
    DataError,
    MetricSet,
    SplitSpec,
    TimeSeries,
    UndefinedMetricError,
    load_csv,
    mae,
    mase,
    metric_set,
    rmse,
    smape,
)
from .wavelet import (
    FilterPair,
    ModwtFilterPair,
    WaveletDecomposition,
    haar_filter,
    modwt_filters,
    modwt_forward,
    modwt_matrix_oracle,
    mra_reconstruct,
)
from .neuralnet import (
    NeuralNetModel,
    TrainConfig,
    fit_network,
    forecast_recursive,
    hidden_neurons,
    predict,
)
from .ewnet import (
    EwnetConfig,
    EwnetModel,
    IntervalForecast,
    conformal_interval,
    default_levels,
    fit_ewnet,
    fit_ewnet_selected,
    forecast_ewnet,
    precontrol_interval,
    select_p,
)
from .baselines import arnn_forecast, rw_forecast, rwd_forecast
from .evaluation import (
    HorizonSpec,
    RankTable,
    TestResult,
    friedman_chi2,
    hurst_exponent,
    iman_f,
    mcb_analysis,
    rolling_evaluate,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
