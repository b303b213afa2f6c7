"""EWNet: wavelet-decomposed ensemble of autoregressive neural networks.

The training series is MODWT-decomposed into J details plus a smooth; one
network is fitted per component with a shared lag order chosen on a
validation window; component forecasts are extended recursively and summed.
Prediction intervals come from pre-control limits or split conformal
calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, neuralnet
from .neuralnet import NeuralNetModel, TrainConfig, hidden_neurons
from .wavelet import WaveletDecomposition, haar_filter, modwt_forward


@dataclass(frozen=True)
class EwnetConfig:
    """``levels`` None picks ``default_levels``; 0 fits one network on the raw series (ARNN)."""

    levels: int | None = None
    p_grid: tuple[int, ...] = tuple(range(1, 21))
    selection_metric: str = "mase"
    seasonal_lag: int = 1
    train_cfg: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        grid = tuple(_at_least(p, 1, "p_grid lag") for p in self.p_grid)
        if not grid or len(set(grid)) != len(grid):
            # select_p would train a repeated lag's candidate once per repeat.
            raise ValueError(f"p_grid must be non-empty and repeat no lag, got {grid}")
        if self.selection_metric not in ("mase", "smape"):
            raise ValueError("selection_metric must be 'mase' or 'smape'")
        object.__setattr__(self, "p_grid", grid)
        object.__setattr__(self, "seasonal_lag", _at_least(self.seasonal_lag, 1, "seasonal_lag"))
        if self.levels is not None:
            object.__setattr__(self, "levels", _at_least(self.levels, 0, "levels"))


def _at_least(value, low: int, name: str) -> int:
    """``value`` as a whole number (``core.number``) of at least ``low``."""
    value = core.number(value, name, whole=True)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


@dataclass
class EwnetModel:
    decomposition: WaveletDecomposition
    component_models: list[NeuralNetModel]
    chosen_p: int
    train_series: np.ndarray

    def __post_init__(self):
        if len(self.component_models) != self.decomposition.levels + 1:
            raise ValueError("one model required per detail plus the smooth")
        if any(net.p != self.chosen_p for net in self.component_models):
            raise ValueError(f"every component network must have p = chosen_p = {self.chosen_p}")
        live = [(c, net.weights[0].shape[:2]) for c, net in enumerate(self.component_models)
                if not net.constant]  # predictions stack these networks
        for c, shape in live:
            if shape != live[0][1]:
                raise ValueError(f"component {c} has (R, k) = {shape}, component {live[0][0]} "
                                 f"{live[0][1]}; non-constant components must share R and k")
        if not self.decomposition.n == self.train_series.size >= self.chosen_p:
            raise ValueError(f"train_series has {self.train_series.size} points and its "
                             f"decomposition {self.decomposition.n}; both need one length "
                             f">= chosen_p = {self.chosen_p}")

    @property
    def chosen_k(self) -> int:
        return hidden_neurons(self.chosen_p)


@dataclass(frozen=True)
class IntervalForecast:
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    method: str
    nominal_level: float

    def __post_init__(self):
        if np.any(self.lower > self.point) or np.any(self.point > self.upper):
            raise ValueError("interval must bracket the point forecast")


def default_levels(n: int) -> int:
    """Detail count J with J + 1 = floor(ln n) total components."""
    if n < 8:
        raise ValueError("need at least 8 training observations")
    return int(math.floor(math.log(n))) - 1


def _component_cfg(cfg: TrainConfig, component: int) -> TrainConfig:
    # Independent deterministic seed stream per component.
    seed = int(np.random.SeedSequence([cfg.seed, component]).generate_state(1)[0])
    return replace(cfg, seed=seed)


def _assemble(train, decomp, jobs, p: int, fitted) -> EwnetModel:
    """The model of one lag order, taking one network per job from ``fitted``; the
    first component's ValueError is raised."""
    nets = [next(fitted) for _ in jobs]
    return EwnetModel(decomposition=decomp, component_models=[core.unwrap(n) for n in nets],
                      chosen_p=p, train_series=train)


def _fit_plan(train, cfg: EwnetConfig, p):
    """One fit's (train, decomposition, component jobs, p), the arguments of ``_assemble``."""
    train = np.asarray(train, dtype=float)
    p = core.unwrap(p)
    levels = cfg.levels if cfg.levels is not None else default_levels(train.size)
    decomp = modwt_forward(train, levels, haar_filter())
    return train, decomp, [(comp, p, hidden_neurons(p), _component_cfg(cfg.train_cfg, idx))
                           for idx, comp in enumerate(decomp.components())], p


def _fit_all(plans) -> list:
    """Each ``_fit_plan``'s model or ValueError, its networks trained in one batch."""
    jobs = [job for plan in plans if not isinstance(plan, ValueError) for job in plan[2]]
    fitted = iter(neuralnet.fit_networks(jobs) if jobs else [])
    return [plan if isinstance(plan, ValueError) else core.attempt(_assemble, *plan, fitted)
            for plan in plans]


def fit_ewnets(fits) -> list:
    """Fit one network of lag order p per MRA component of each (train, cfg, p) in one
    batch: each fit's model, or the ValueError it raised alone. A p that is a
    ValueError (a failed ``select_lags`` entry) is that fit's result."""
    return _fit_all([core.attempt(_fit_plan, *fit) for fit in fits])


def fit_ewnet(train, cfg: EwnetConfig, p: int) -> EwnetModel:
    """Fit one network of lag order ``p`` per MRA component (no selection step)."""
    return core.unwrap(fit_ewnets([(train, cfg, p)])[0])


def forecast_ewnet(model: EwnetModel, h: int) -> np.ndarray:
    """Sum, in component order, of the h-step recursive forecasts of every component network."""
    paths = neuralnet.forecast_paths(model.component_models, model.decomposition.components(), h)
    return sum(paths, np.zeros(h))


def _score(actual, forecast, train, cfg: EwnetConfig) -> float:
    if cfg.selection_metric == "smape":
        return core.smape(actual, forecast)
    return core.mase(actual, forecast, train, cfg.seasonal_lag)


def _finite_validation(val) -> np.ndarray:
    """``val`` as a float array; a non-finite value is a ValueError that names it."""
    val = np.asarray(val, dtype=float)
    if not np.all(np.isfinite(val)):
        bad = int(np.flatnonzero(~np.isfinite(val))[0])
        raise ValueError(f"non-finite validation value {val[bad]} at position {bad}")
    return val


def _search_plan(train, val, cfg: EwnetConfig):
    """A lag search's windows and settings, and the ``_fit_plan`` of each candidate."""
    train = np.asarray(train, dtype=float)
    val = _finite_validation(val)
    if val.size == 0:
        raise ValueError("validation window must be non-empty")
    return train, val, cfg, [_fit_plan(train, cfg, p) for p in sorted(cfg.p_grid)]


def _best_p(train, val, cfg: EwnetConfig, candidates, models) -> int:
    """The best candidate's lag, each taking its model (or ValueError) from ``models``."""
    best_p = None
    best_score = math.inf
    errors: list[str] = []
    for *_, p in candidates:
        try:
            forecast = forecast_ewnet(core.unwrap(next(models)), val.size)
            score = _score(val, forecast, train, cfg)
        except ValueError as exc:
            errors.append(f"p={p}: {exc}")
            continue
        if score < best_score:
            best_score = score
            best_p = p
    if best_p is None:
        raise ValueError("no feasible lag order in the grid: " + "; ".join(errors))
    return best_p


def select_lags(searches) -> list:
    """Each (train, val, cfg) search's lag order, or the ValueError it raised alone.

    Every candidate of every search fits its ensemble on ``train`` in one batch, so
    that independent searches share the worker, and forecasts len(val) steps; the best
    validation score wins, ties toward the smaller lag. A candidate whose networks fail
    is skipped; a decomposition that fails fails the whole search.
    """
    plans = [core.attempt(_search_plan, *search) for search in searches]
    models = iter(_fit_all([candidate for plan in plans if not isinstance(plan, ValueError)
                            for candidate in plan[3]]))
    return [plan if isinstance(plan, ValueError) else core.attempt(_best_p, *plan, models)
            for plan in plans]


def select_p(train, val, cfg: EwnetConfig) -> int:
    """The lag order ``select_lags`` chooses for one search; its ValueError is raised."""
    return core.unwrap(select_lags([(train, val, cfg)])[0])


def fit_selected(searches) -> list:
    """Each (train, val, cfg) search's model, or the ValueError it raised alone: its
    ``select_lags`` lag refit on train + validation, so that it sees the latest points.
    The searches train as one ``select_lags`` batch, the refits as one ``fit_ewnets``."""
    searches = list(searches)
    return fit_ewnets([(None if isinstance(p, ValueError) else np.concatenate([train, val]),
                        cfg, p) for (train, val, cfg), p in zip(searches, select_lags(searches))])


def fit_ewnet_selected(train, val, cfg: EwnetConfig) -> EwnetModel:
    """The ``fit_selected`` model of one search; its ValueError is raised."""
    return core.unwrap(fit_selected([(train, val, cfg)])[0])


def fit_calibrated(train, val, cfg: EwnetConfig) -> tuple[EwnetModel, EwnetModel]:
    """The ``fit_ewnet_selected`` model and its calibration head, the selected lag's model
    on ``train``; the first ValueError of the search, the refit and the head is raised.

    A one-lag grid's only candidate is bitwise the head, so it trains once, in one batch
    with the refit, and is scored as the search scores it. Reusing the winner as the head
    for every grid (ROADMAP.md, "`cli fit` onto the one pipeline") deletes this branch.
    """
    if len(cfg.p_grid) > 1:
        p = select_p(train, val, cfg)
        return tuple(map(core.unwrap, fit_ewnets([(np.concatenate([train, val]), cfg, p),
                                                  (train, cfg, p)])))
    search = _search_plan(train, val, cfg)
    refit = core.attempt(lambda: _fit_plan(np.concatenate([train, val]), cfg, cfg.p_grid[0]))
    refit, head = _fit_all([refit, *search[3]])
    _best_p(*search, iter([head]))
    return core.unwrap(refit), core.unwrap(head)


def in_sample_residuals(model: EwnetModel) -> np.ndarray:
    """One-step residuals (fitted - actual) of the ensemble on its training window."""
    p = model.chosen_p
    n = model.train_series.size
    fitted = np.zeros(n - p)
    for net, comp in zip(model.component_models, model.decomposition.components()):
        fitted += neuralnet.fitted_values(net, comp)
    return fitted - model.train_series[p:]


def precontrol_interval(point, residuals) -> IntervalForecast:
    """Constant-width band point +/- 1.5 sigma of the in-sample residuals."""
    point = np.asarray(point, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size < 2:
        raise ValueError("need at least 2 residuals")
    if not np.all(np.isfinite(residuals)):
        raise ValueError("in-sample residuals must be finite")
    half_width = 1.5 * float(np.std(residuals, ddof=1))
    return IntervalForecast(
        point=point,
        lower=point - half_width,
        upper=point + half_width,
        method="precontrol",
        nominal_level=0.86,
    )


def conformal_interval(point, calibration_abs_residuals, level: float) -> IntervalForecast:
    """Split-conformal band with half-width the ceil((n+1)*level)-th order statistic."""
    point = np.asarray(point, dtype=float)
    cal = np.sort(np.asarray(calibration_abs_residuals, dtype=float))
    if cal.size == 0:
        raise ValueError("calibration set must be non-empty")
    if not (np.all(np.isfinite(cal)) and cal[0] >= 0.0):
        raise ValueError("calibration residuals must be finite and non-negative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    rank = math.ceil((cal.size + 1) * level)
    if rank > cal.size:
        raise ValueError(
            f"level {level} infeasible for calibration size {cal.size}: "
            f"required rank {rank} exceeds {cal.size}"
        )
    q = float(cal[rank - 1])
    return IntervalForecast(
        point=point, lower=point - q, upper=point + q,
        method="conformal", nominal_level=level,
    )


def _lag_windows(model: EwnetModel, val: np.ndarray) -> np.ndarray:
    """(J+1, len(val), p) lag windows of the one-step forecasts over ``val``.

    Step i forecasts val[i] from the last p values of each MRA component of the
    history train + val[:i], of length n. By the MODWT's reach r (``wavelet`` module
    docstring), one MODWT of the circular window history[n - p - r .. n + r) gives
    those p values in its middle, bitwise equal to the full transform's, also when
    n < p + 2r.
    """
    base = haar_filter()
    levels = model.decomposition.levels
    p = model.chosen_p
    reach = (2 ** levels - 1) * (base.width - 1)
    width = max(p + 2 * reach, 2)  # modwt_forward needs two points (p = 1, J = 0)
    series = np.concatenate([model.train_series, val[:-1]])
    windows = np.empty((levels + 1, val.size, p))
    for i in range(val.size):
        n = model.train_series.size + i
        start = n - p - reach
        decomp = modwt_forward(series[np.arange(start, start + width) % n], levels, base)
        for c, comp in enumerate(decomp.components()):
            windows[c, i] = comp[reach:reach + p]
    return windows


def validation_abs_residuals(model: EwnetModel, val) -> np.ndarray:
    """Absolute one-step-ahead errors over a validation window for conformal calibration:
    each step forecasts from the MODWT of the true history so far (``_lag_windows``), and
    the stacked component networks predict every step in one pass, summed in component
    order."""
    val = _finite_validation(val)
    windows = _lag_windows(model, val)[:, None]
    pred = np.array([np.full(val.size, net.constant_value) for net in model.component_models])
    with np.errstate(over="ignore"):  # a saturated unit (neuralnet module docstring)
        neuralnet._predictor(model.component_models)(windows, pred)
    return np.abs(sum(pred, np.zeros(val.size)) - val)
