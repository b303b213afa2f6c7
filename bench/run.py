"""epicast benchmark: drive the CLI in-process on one seeded workload.

Run from the root of a checkout:

    python3 bench/run.py --workload weekly_fit --seed 1 --seconds 15 --trace 0

One client runs the workload's ops as a closed loop (the next op starts only
after the previous one returned). It runs as many passes as fit in
``--seconds``, and at least one. ``--trace 0`` reports end-to-end metrics from
untraced passes; ``--trace 1`` alternates untraced and traced passes, at least
one of each, and reports per-layer metrics from the traced ones. The output
digests of all passes of a run must agree.

End-to-end times are calibrated seconds (see probe.py): wall time rescaled by
a fixed kernel timed during the same interval, so that runs made while the
machine was faster or slower compare. Raw wall times are in the run record.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds the run record (machine, output
digests, per-op times, accuracy, failures), which is also written to
.bench_work/. The exit code is 0 only when every op passed its check; it is 2,
with no result, when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import the checkout's epicast CLI; None when the checkout has no program."""
    if not (SRC / "epicast" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import epicast
    from epicast import cli

    if Path(epicast.__file__).resolve().parent != SRC / "epicast":
        return None
    return cli


def _setup_once(workload: str, seed: int, workdir: Path):
    """One set-up: a cold import of the CLI in a fresh interpreter, then the inputs."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import epicast.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    built = workloads.BUILDERS[workload](seed, workdir)
    return time.perf_counter() - start, built


def _invoker(cli):
    from click.testing import CliRunner

    runner = CliRunner()

    def invoke(argv):
        result = runner.invoke(cli.main, argv, prog_name="epicast")
        message = result.output.strip().splitlines()[-1:] if result.output else []
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            message.append(repr(result.exception))
        return result.exit_code, " ".join(message)

    return invoke


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = _parse(argv)
    cli = _import_program()
    if cli is None:
        print(f"no epicast program under {SRC}; nothing to measure", file=sys.stderr)
        return 2

    import layers
    import machine
    import workloads
    from probe import SpeedProbe, calibrated
    from spans import Tracer

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    speed = SpeedProbe()
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = [speed.sample() for _ in range(3)]
        seconds, workload = _setup_once(args.workload, args.seed, workdir)
        setup_raw.append(seconds)
        setup.append(calibrated(seconds, before + [speed.sample() for _ in range(3)]))

    invoke = _invoker(cli)
    tracer = Tracer() if args.trace else None
    passes, traced_passes, layer_samples = [], [], []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # The probe interrupts the program only in untraced runs; in a traced
        # run it would land inside spans.
        with speed if tracer is None else contextlib.nullcontext():
            start = time.perf_counter()
            while True:
                if tracer is None or (len(passes) + len(traced_passes)) % 2 == 0:
                    passes.append(workloads.run_pass(workload, workdir, invoke, speed))
                else:
                    tracer.reset()
                    tracer.install(layers.targets(), layers.HOOKS)
                    try:
                        result = workloads.run_pass(workload, workdir, invoke, speed, tracer)
                    finally:
                        tracer.uninstall()
                    traced_passes.append(result)
                    kept = result.facts.get("fit", {}).get("networks_kept", 0)
                    layer_samples.append(
                        layers.layer_metrics(tracer.spans, result.seconds, kept))
                    spans_json = tracer.to_json()
                done = len(passes) + len(traced_passes)
                elapsed = time.perf_counter() - start
                # Start another pass only if one more, at the mean pass time so
                # far, still ends within --seconds.
                if done >= 1 + args.trace and elapsed * (done + 1) / done > args.seconds:
                    break
    finally:
        os.chdir(cwd)

    every = passes + traced_passes
    failures = [f for p in every for f in p.failures]
    attempted = sum(len(p.op_seconds) for p in every)
    digests = [p.digest for p in every]
    mismatched = sum(d != digests[0] for d in digests)
    if mismatched:
        failures.append(f"output digests differ between passes of one seed: {digests}")
    failed = sum(len(p.failures) for p in every) + mismatched
    quality = next((p.quality for p in every if p.quality), {})

    if args.trace:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced_passes)
                                       - statistics.median(p.seconds for p in passes))
        for name in workloads.QUALITY:
            metrics[f"quality.{name}"] = quality.get(name)
        units = {name: layers.unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(calibrated(p.seconds, p.probe_samples) for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    op_samples: dict[str, list[float]] = {}
    for p in passes:
        for kind, seconds in p.op_seconds:
            op_samples.setdefault(f"{kind}_s", []).append(calibrated(seconds, p.probe_samples))
    op_seconds = {name: statistics.median(v) for name, v in op_samples.items()}
    if "evaluate" in passes[0].facts:
        op_seconds["evaluate_case_s"] = (op_seconds["evaluate_s"]
                                         / len(passes[0].facts["evaluate"]["cases"]))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine.record(ROOT),
        "setup_wall_seconds": setup_raw,
        "pass_wall_seconds": [p.seconds for p in passes],
        "pass_probe_median_seconds": [statistics.median(p.probe_samples) for p in passes],
        "pass_seconds": [calibrated(p.seconds, p.probe_samples) for p in passes],
        "traced_pass_wall_seconds": [p.seconds for p in traced_passes],
        "op_seconds": op_seconds,
        "quality": quality,
        "output_digests": digests,
        "error_rate": failed / attempted,
        "failures": failures,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (WORK / f"spans-{stem}.json").write_text(json.dumps(spans_json))
    shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:45s} {value!r:>24} {units[name]}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
