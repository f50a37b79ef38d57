"""The scripts under scripts/ run against the current library API."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

from conftest import REPLAY_DIR, REPO

SCRIPTS = REPO / "scripts"


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_make_replays_reproduces_bundled_streams(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_replays", SCRIPTS / "make_replays.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.leak_replay()
    module.flat_replay()
    module.technological_ramp()
    bundled = sorted(p.name for p in REPLAY_DIR.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (REPLAY_DIR / name).read_bytes()


def test_oracle_study_runs():
    result = run_script("oracle_study.py", "--levels", "50", "100")
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 3


def test_reproduce_tables_runs():
    result = run_script("reproduce_tables.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("<- fixation") == 6


def test_bench_reads_the_perfbench_result_line():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    metrics = {"setup_s": {"value": 0.14, "unit": "s"},
               "peak_rss_mb": {"value": 39.9, "unit": "MB"},
               "pass_s": {"value": 0.54, "unit": "s"},
               "err_p50": {"value": 0.00279, "unit": "1"}}
    stdout = ('record {"workload": "sweep", "seed": 3}\n'
              'report {"simulate_s": {"value": 0.2, "unit": "s"}}\n'
              + json.dumps({"correct": True, "attempted": 1785, "failed": 0,
                            "metrics": metrics}) + "\n")
    assert module.parse_result(stdout) == {"correct": True, "attempted": 1785,
                                           "failed": 0, "metrics": metrics}


TRACER_CONTRACT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import leakline
import leakline.cli
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps([len(tracing.TIMED) + len(tracing.COUNTED), tracer.absent]))
"""


def test_benchmark_tracer_finds_every_layer_function():
    # perfbench imports leakline and leakline.cli, then wraps its layer
    # functions by module and name; a missing one drops its metrics
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", TRACER_CONTRACT,
                             str(REPO / "perfbench" / "tracing.py")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    count, absent = json.loads(result.stdout)
    assert count > 0 and absent == []
