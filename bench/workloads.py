"""The three benchmark workloads and the closed-loop pass that runs them.

A workload writes its seeded inputs into a work directory and lists the CLI
ops of one pass. Each pass runs the ops in order, one after the other, in the
same process (a closed loop with one client), checks every op's outputs, and
digests the files the pass wrote. Paths given to the CLI are relative to the
work directory, so output digests do not depend on where the checkout lives.

Why these workloads:
- weekly_fit: the paper's default pipeline; training small networks dominates.
- monthly_backtest: short training windows and the ARNN baseline, so per-call
  overhead and the non-wavelet training path weigh more.
- long_analyze: training is cut to one epoch, so the MODWT re-run at every
  conformal calibration step and the forward pass dominate.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

WORKLOADS = ("weekly_fit", "monthly_backtest", "long_analyze")
QUALITY = ("ewnet_mase", "coverage_gap")


@dataclass
class Op:
    kind: str
    args: list[str]
    out: str
    check: Callable[[Path], dict]


@dataclass
class Workload:
    ops: list[Op]
    score: Callable[[dict], dict]


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[tuple[str, float]] = field(default_factory=list)
    probe_samples: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    digest: str = ""
    quality: dict = field(default_factory=dict)


def _mase(actual: np.ndarray, forecast: np.ndarray, train: np.ndarray) -> float:
    return float(np.mean(np.abs(actual - forecast)) / np.mean(np.abs(np.diff(train))))


def _coverage(actual: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    return float(np.mean((actual >= lower) & (actual <= upper)))


def _write_config(workdir: Path, name: str, train: dict) -> list[str]:
    if not train:
        return []
    (workdir / name).write_text(json.dumps({"train": train}, sort_keys=True))
    return ["--config", name]


def _heldout_scorer(data: Path, heldout: np.ndarray, nominal: float):
    train = inputs.read_series(data)

    def score(facts: dict) -> dict:
        fc = facts["forecast"]
        return {"ewnet_mase": _mase(heldout, fc["point"], train),
                "coverage_gap": abs(_coverage(heldout, fc["lower"], fc["upper"]) - nominal)}

    return score


def weekly_fit(seed: int, workdir: Path, train: dict | None = None) -> Workload:
    values = inputs.weekly_series(seed)
    data = workdir / "weekly.csv"
    inputs.write_series(data, values[:-inputs.WEEKLY_HOLDOUT])
    grid = (1, 4, 8)
    h = inputs.WEEKLY_HOLDOUT
    config = _write_config(workdir, "weekly_cfg.json", train or {})
    ops = [
        Op("fit", [*config, "--data", "weekly.csv", "--seed", str(seed), "--horizon", str(h),
                   "--p-grid", ",".join(map(str, grid)), "--out", "out"],
           "out", lambda out: checks.check_fit(out, grid)),
        Op("forecast", ["--model", "out/model.json", "--horizon", str(h),
                        "--interval", "conformal", "--level", "0.9", "--out", "out"],
           "out", lambda out: checks.check_forecast(out, h)),
    ]
    heldout = np.round(values[-h:], 6)
    return Workload(ops, _heldout_scorer(data, heldout, 0.9))


def monthly_backtest(seed: int, workdir: Path, train: dict | None = None) -> Workload:
    inputs.write_series(workdir / "monthly.csv", inputs.monthly_series(seed))
    horizons = ["short", "long"]
    config = _write_config(workdir, "monthly_cfg.json", train or {})
    ops = [
        Op("evaluate", [*config, "--data", "monthly.csv", "--frequency", "12",
                        "--seed", str(seed), "--horizon", "short", "--horizon", "long",
                        "--p-grid", "1,3,12", "--out", "out"],
           "out", lambda out: checks.check_evaluate(out, horizons)),
    ]

    def score(facts: dict) -> dict:
        ewnet = [case["results"]["EWNet"] for case in facts["evaluate"]["cases"]]
        return {"ewnet_mase": float(np.mean([r["mase"] for r in ewnet])),
                "coverage_gap": abs(float(np.mean([r["coverage"] for r in ewnet])) - 0.86)}

    return Workload(ops, score)


def long_analyze(seed: int, workdir: Path, train: dict | None = None) -> Workload:
    values = inputs.long_series(seed)
    data = workdir / "long.csv"
    inputs.write_series(data, values[:-inputs.LONG_HOLDOUT])
    inputs.write_ranks(workdir / "ranks.csv", inputs.rank_table(seed))
    h = inputs.LONG_HOLDOUT
    config = _write_config(workdir, "long_cfg.json", {"epochs": 1, **(train or {})})
    ops = [
        Op("fit", [*config, "--data", "long.csv", "--seed", str(seed), "--p-grid", "4",
                   "--horizon", str(h), "--out", "out"],
           "out", lambda out: checks.check_fit(out, (4,))),
        Op("forecast", ["--model", "out/model.json", "--horizon", str(h),
                        "--interval", "conformal", "--out", "out"],
           "out", lambda out: checks.check_forecast(out, h)),
        Op("decompose", ["--data", "long.csv", "--out", "dec"], "dec", checks.check_decompose),
        Op("profile", ["--data", "long.csv", "--out", "prof"], "prof", checks.check_profile),
        Op("stats", ["--ranks", "ranks.csv", "--out", "stats"], "stats", checks.check_stats),
    ]
    heldout = np.round(values[-h:], 6)
    return Workload(ops, _heldout_scorer(data, heldout, 0.9))


BUILDERS = {"weekly_fit": weekly_fit, "monthly_backtest": monthly_backtest,
            "long_analyze": long_analyze}


def digest_dirs(workdir: Path, dirs: list[str]) -> str:
    """sha256 over the relative paths and bytes of every file in ``dirs``."""
    sha = hashlib.sha256()
    for name in sorted(set(dirs)):
        for path in sorted((workdir / name).rglob("*")):
            if path.is_file():
                sha.update(str(path.relative_to(workdir)).encode() + b"\0")
                sha.update(path.read_bytes())
    return sha.hexdigest()


def run_pass(workload: Workload, workdir: Path, invoke, probe, tracer=None) -> PassResult:
    """Run every op of one pass in order; ``invoke(args)`` runs the CLI in-process.

    ``invoke`` returns (exit_code, message). The speed probe is sampled at
    both ends of the pass, and the time its kernel ran is left out of the op
    and pass times. With a tracer, each op is one ``cli.<kind>`` span
    enclosing the spans of the functions it calls.
    """
    for op in workload.ops:
        shutil.rmtree(workdir / op.out, ignore_errors=True)
    result = PassResult(seconds=0.0)
    first_sample = len(probe.samples)
    probe.sample()
    pass_start = (time.perf_counter(), probe.paused)
    for op in workload.ops:
        span = tracer.open(f"cli.{op.kind}") if tracer is not None else None
        op_start = (time.perf_counter(), probe.paused)
        code, message = invoke([op.kind, *op.args])
        if tracer is not None:
            tracer.close(span, error=code != 0)
        result.op_seconds.append((op.kind, _unpaused(op_start, probe)))
        if code != 0:
            result.failures.append(f"{op.kind}: exit code {code}: {message}")
            continue
        try:
            result.facts[op.kind] = op.check(workdir / op.out)
        except checks.CheckError as exc:
            result.failures.append(f"{op.kind}: {exc}")
        except (KeyError, TypeError, IndexError) as exc:
            result.failures.append(f"{op.kind}: output lacks an expected field: {exc!r}")
    result.seconds = _unpaused(pass_start, probe)
    probe.sample()
    result.probe_samples = probe.samples[first_sample:]
    result.digest = digest_dirs(workdir, [op.out for op in workload.ops])
    if not result.failures:
        result.quality = workload.score(result.facts)
    return result


def _unpaused(start: tuple[float, float], probe) -> float:
    """Wall time since ``start`` minus the time the probe kernel ran meanwhile."""
    return time.perf_counter() - start[0] - (probe.paused - start[1])
