"""Start-up cost and process lifetime.

No command loads scipy, which is a test dependency only; importing the CLI
loads no process-pool machinery, and a finished ``epicast fit`` leaves no worker
process behind. Each check runs in a fresh interpreter, since this test process
has already imported scipy through other test modules.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import epicast
from epicast import neuralnet

SRC = str(Path(epicast.__file__).resolve().parents[1])


def run_python(code: str, cwd) -> dict:
    """Run ``code`` in a fresh interpreter that imports this epicast; return its last
    stdout line, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    loaded = run_python("""
        import json, sys
        import epicast, epicast.cli
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """, tmp_path)
    assert loaded == []


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    loaded = run_python("""
        import json, sys
        import epicast, epicast.cli
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "multiprocessing"
                                or m.startswith("concurrent.futures"))))
    """, tmp_path)
    assert loaded == []


def test_a_finished_fit_leaves_no_worker_running(tmp_path):
    # The fit runs through the console entry point, which ends the interpreter with
    # sys.exit; the worker ids are printed by an exit hook that runs last.
    workers = run_python("""
        import atexit, json, sys
        import numpy as np
        from epicast import cli, neuralnet

        y = 30.0 + np.cumsum(np.random.default_rng(3).normal(size=80))
        with open("series.csv", "w") as handle:
            handle.write("value\\n" + "".join(f"{v}\\n" for v in y))
        with open("cfg.json", "w") as handle:
            # The lag search's batch of four networks is about twice MIN_WORK.
            json.dump({"train": {"epochs": 100, "restarts": 20}}, handle)
        atexit.register(lambda: print(json.dumps(
            [neuralnet._worker[0].pid] if neuralnet._worker else [])))
        sys.argv = ["epicast", "fit", "--config", "cfg.json", "--data", "series.csv",
                    "--seed", "1", "--levels", "1", "--p-grid", "1,2", "--horizon", "3",
                    "--out", "fit"]
        cli.main()
    """, tmp_path)
    assert (tmp_path / "fit" / "model.json").is_file()
    if neuralnet._cpus() > 1:
        assert len(workers) == 1
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_no_command_loads_scipy(tmp_path):
    # A finder placed first on sys.meta_path makes any import of scipy raise, so a
    # command that needs scipy fails here even where scipy is installed.
    result = run_python("""
        import json, sys
        import numpy as np
        from click.testing import CliRunner

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} is blocked")

        sys.meta_path.insert(0, NoScipy())
        from epicast.cli import main

        y = 30.0 + np.cumsum(np.random.default_rng(3).normal(size=60))
        with open("series.csv", "w") as handle:
            handle.write("value\\n" + "".join(f"{v}\\n" for v in y))
        with open("cfg.json", "w") as handle:
            json.dump({"train": {"epochs": 1, "restarts": 2}}, handle)
        common = ["--config", "cfg.json", "--data", "series.csv"]
        runner = CliRunner()
        outputs = {}
        for name, argv in [
            ("fit", ["fit", *common, "--seed", "1", "--levels", "1", "--p-grid", "1,2",
                     "--horizon", "3", "--out", "fit"]),
            ("forecast", ["forecast", "--model", "fit/model.json", "--horizon", "3",
                          "--out", "forecast"]),
            ("decompose", ["decompose", "--data", "series.csv", "--levels", "2",
                           "--out", "decompose"]),
            ("profile", ["profile", "--data", "series.csv", "--out", "profile"]),
            ("evaluate", ["evaluate", *common, "--frequency", "12", "--seed", "1",
                          "--p-grid", "1,2", "--horizon", "short", "--horizon", "long",
                          "--out", "evaluate"]),
            ("stats", ["stats", "--ranks", "evaluate/ranks_mase.csv", "--out", "stats"]),
        ]:
            run = runner.invoke(main, argv)
            outputs[name] = [run.exit_code, run.output]
        print(json.dumps({"outputs": outputs, "loaded": sorted(
            m for m in sys.modules if m.split(".")[0] == "scipy")}))
    """, tmp_path)
    assert {name: code for name, (code, _) in result["outputs"].items()} == {
        name: 0 for name in ("fit", "forecast", "decompose", "profile", "evaluate", "stats")
    }, result["outputs"]
    assert result["loaded"] == []
    assert (tmp_path / "stats" / "stats.json").is_file()
