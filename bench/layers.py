"""Which program functions the traced run wraps, and the per-layer metrics.

Every metric is a sum over one pass: ``calls`` counts spans, ``s`` is
inclusive time and ``self_s`` is time minus the time covered by child spans.
Work counts come from the call boundary (arguments and returned objects);
nothing is estimated from timings.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times, within

CLI_OPS = ("fit", "forecast", "evaluate", "decompose")


def targets() -> dict:
    """Span name -> function object, for every public function the benchmark times."""
    from epicast import baselines, core, evaluation, ewnet, neuralnet, wavelet

    functions = {
        core: ("load_csv", "metric_set", "mase", "smape"),
        wavelet: ("modwt_forward",),
        neuralnet: ("fit_network", "forecast_recursive", "fitted_values"),
        ewnet: ("select_p", "fit_ewnet", "fit_ewnet_selected", "forecast_ewnet",
                "validation_abs_residuals", "in_sample_residuals"),
        baselines: ("arnn_forecast",),
        evaluation: ("rolling_evaluate", "friedman_chi2", "iman_f", "mcb_analysis",
                     "hurst_exponent"),
    }
    return {f"{module.__name__.split('.')[-1]}.{name}": getattr(module, name)
            for module, names in functions.items() for name in names}


def _fit_network(args, model) -> dict:
    p = args["p"]
    loss = getattr(model, "training_loss", None)
    return {"pairs": len(args["series"]) - p, "p": p, "k": args["k"],
            "restarts": args["cfg"].restarts, "max_epochs": args["cfg"].epochs,
            "epochs_run": None if loss is None else len(loss)}


HOOKS = {
    "neuralnet.fit_network": _fit_network,
    "wavelet.modwt_forward": lambda a, r: {"points": len(a["series"]) * a["levels"]},
    "neuralnet.forecast_recursive": lambda a, r: {"steps": a["h"]},
    "ewnet.validation_abs_residuals": lambda a, r: {"steps": len(a["val"])},
    "ewnet.select_p": lambda a, r: {"candidates": len(a["cfg"].p_grid)},
    "ewnet.fit_ewnet_selected": lambda a, r: {"networks_kept": len(r.component_models)},
    "baselines.arnn_forecast": lambda a, r: {"networks_kept": 1},
}


def _gmacs(attrs: dict) -> float:
    """Computed multiply-adds of one training run, forward plus backward.

    Per pair, restart and epoch the forward pass costs k*p + k and the
    weight gradients k + k*p multiply-adds; element-wise work is left out.
    """
    return (attrs["restarts"] * attrs["epochs_run"] * attrs["pairs"]
            * attrs["k"] * (2 * attrs["p"] + 2)) / 1e9


def layer_metrics(spans: list[Span], pass_seconds: float, networks_kept_by_ops: int) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name, indices=None):
        return sum(spans[i].duration for i in (by_name[name] if indices is None else indices))

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name] if spans[i].attrs)

    def share_of_fit(name):
        fit_s = total("cli.fit")
        inside = [i for i in by_name[name] if within(spans, i, "cli.fit")]
        return total(name, inside) / fit_s if fit_s else 0.0

    m: dict[str, float] = {"pass.s": pass_seconds, "trace.spans": len(spans)}

    nets = by_name["neuralnet.fit_network"]
    known = [i for i in nets if spans[i].attrs.get("epochs_run") is not None]
    gmacs = sum(_gmacs(spans[i].attrs) for i in known)
    known_s = total("neuralnet.fit_network", known)
    m.update({
        "neuralnet.fit_network.calls": len(nets),
        "neuralnet.fit_network.s": total("neuralnet.fit_network"),
        "neuralnet.fit_network.gmacs": gmacs,
        "neuralnet.fit_network.gmac_per_s": gmacs / known_s if known_s else 0.0,
        "neuralnet.fit_network.epochs_run": sum(spans[i].attrs["epochs_run"] for i in known),
        "neuralnet.fit_network.epochs_missing": len(nets) - len(known),
        "neuralnet.fit_network.early_stop_ratio":
            sum(spans[i].attrs["epochs_run"] < spans[i].attrs["max_epochs"] for i in known)
            / len(known) if known else 0.0,
        "neuralnet.fit_network.fit_share": share_of_fit("neuralnet.fit_network"),
    })

    select = set(by_name["ewnet.select_p"])
    scored = sum(1 for name in ("core.mase", "core.smape") for i in by_name[name]
                 if spans[i].parent in select and not spans[i].error)
    kept = (networks_kept_by_ops + attr_sum("ewnet.fit_ewnet_selected", "networks_kept")
            + attr_sum("baselines.arnn_forecast", "networks_kept"))
    m.update({
        "ewnet.select_p.calls": len(select),
        "ewnet.select_p.s": total("ewnet.select_p"),
        "ewnet.select_p.self_s": self_total("ewnet.select_p"),
        "ewnet.select_p.candidates": attr_sum("ewnet.select_p", "candidates"),
        "ewnet.select_p.skipped": attr_sum("ewnet.select_p", "candidates") - scored,
        "ewnet.fit_ewnet.calls": calls("ewnet.fit_ewnet"),
        "ewnet.fit_ewnet.s": total("ewnet.fit_ewnet"),
        "ewnet.networks_kept_ratio": kept / len(nets) if nets else 0.0,
        "baselines.arnn_forecast.calls": calls("baselines.arnn_forecast"),
        "baselines.arnn_forecast.s": total("baselines.arnn_forecast"),
        "baselines.arnn_forecast.self_s": self_total("baselines.arnn_forecast"),
    })

    points = attr_sum("wavelet.modwt_forward", "points")
    modwt_s = total("wavelet.modwt_forward")
    m.update({
        "wavelet.modwt_forward.calls": calls("wavelet.modwt_forward"),
        "wavelet.modwt_forward.s": modwt_s,
        "wavelet.modwt_forward.points": points,
        "wavelet.modwt_forward.ns_per_point": modwt_s * 1e9 / points if points else 0.0,
        "wavelet.modwt_forward.fit_share": share_of_fit("wavelet.modwt_forward"),
        "neuralnet.forecast_recursive.calls": calls("neuralnet.forecast_recursive"),
        "neuralnet.forecast_recursive.s": total("neuralnet.forecast_recursive"),
        "neuralnet.forecast_recursive.steps": attr_sum("neuralnet.forecast_recursive", "steps"),
        "neuralnet.fitted_values.s": total("neuralnet.fitted_values"),
        "ewnet.forecast_ewnet.s": total("ewnet.forecast_ewnet"),
        "ewnet.validation_abs_residuals.s": total("ewnet.validation_abs_residuals"),
        "ewnet.validation_abs_residuals.steps":
            attr_sum("ewnet.validation_abs_residuals", "steps"),
        "ewnet.in_sample_residuals.s": total("ewnet.in_sample_residuals"),
        "evaluation.rolling_evaluate.calls": calls("evaluation.rolling_evaluate"),
        "evaluation.rolling_evaluate.s": total("evaluation.rolling_evaluate"),
        "evaluation.rolling_evaluate.self_s": self_total("evaluation.rolling_evaluate"),
        "core.metric_set.s": total("core.metric_set"),
        "evaluation.stats.s": sum(total(f"evaluation.{n}")
                                  for n in ("friedman_chi2", "iman_f", "mcb_analysis")),
        "evaluation.hurst_exponent.s": total("evaluation.hurst_exponent"),
        "core.load_csv.s": total("core.load_csv"),
    })
    for op in CLI_OPS:
        m[f"cli.{op}.s"] = total(f"cli.{op}")
        m[f"cli.{op}.self_s"] = self_total(f"cli.{op}")
    return m


# Units of the per-layer metrics, keyed by the last part of the name.
UNITS = {"calls": "count", "s": "s", "self_s": "s", "gmacs": "GMAC", "gmac_per_s": "GMAC/s",
         "epochs_run": "count", "epochs_missing": "count", "early_stop_ratio": "ratio",
         "fit_share": "ratio", "candidates": "count", "skipped": "count",
         "networks_kept_ratio": "ratio", "points": "count", "ns_per_point": "ns",
         "steps": "count", "overhead_s": "s", "spans": "count",
         "ewnet_mase": "ratio", "coverage_gap": "ratio"}


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]
